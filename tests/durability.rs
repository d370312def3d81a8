//! Durability suite over the name-level façade: WAL'd commits survive
//! a crash (reopen replays them), the epoch survives a save, interrupted
//! saves leave the previous snapshot bytes untouched, a checkpoint never
//! rewrites a file an engine still maps, retired formats fail with a
//! typed error, bit-flipped snapshots are detected, and a drain on a
//! durable server checkpoints the source.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use ring::durable::{arm, disarm, durability_error, DurabilityError, IoPolicy};
use ring_rpq::rpq_core::{EngineOptions, RpqEngine};
use ring_rpq::{RpqDatabase, UpdatableDatabase};

/// Fault-injection state is process-global: serialize every test that
/// arms a policy (and any test an armed policy could bleed into).
static FAULTS: Mutex<()> = Mutex::new(());

fn lock_faults() -> MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpq_durab_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const BASE: &str = "a p b\nb p c\nc q a\n";

/// Name-level oracle: every (subject, object) edge per predicate,
/// stable across reopen even though internal ids may be re-interned.
fn edges(db: &UpdatableDatabase) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for pred in ["p", "q"] {
        for (s, o) in db.query("?x", pred, "?y").unwrap() {
            out.push((s, pred.to_string(), o));
        }
    }
    out.sort();
    out
}

fn fresh_saved(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let db = UpdatableDatabase::from_text(BASE).unwrap();
    db.save(&path).unwrap();
    path
}

/// A snapshot whose `DELTA` section is non-empty: one committed insert
/// of a new node and one committed delete, at epoch 1.
fn saved_with_delta(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let db = UpdatableDatabase::from_text(BASE)
        .unwrap()
        .with_auto_compact_ratio(None);
    db.insert("d", "p", "a");
    db.delete("b", "p", "c");
    db.commit();
    assert!(!db.store().snapshot().delta.is_empty());
    db.save(&path).unwrap();
    path
}

/// Committed-but-never-saved updates come back on reopen: the WAL is
/// the only place they exist, and replay restores them.
#[test]
fn walled_commits_survive_a_crash() {
    let _guard = lock_faults();
    let dir = tmpdir("replay");
    let path = fresh_saved(&dir, "db.rpq");

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    assert!(db.is_durable());
    db.insert("d", "p", "a");
    db.delete("c", "q", "a");
    let epoch = db.commit();
    db.insert("e", "q", "b");
    db.commit();
    let want = edges(&db);
    db.insert("f", "p", "f"); // pending, never committed: must NOT survive
    drop(db); // crash: no save, no checkpoint

    let revived = UpdatableDatabase::open_durable(&path).unwrap();
    assert_eq!(edges(&revived), want);
    assert!(revived.epoch() >= epoch);
    // The replayed log keeps protecting new commits.
    revived.insert("g", "p", "a");
    revived.commit();
    let want2 = edges(&revived);
    drop(revived);
    let again = UpdatableDatabase::open_durable(&path).unwrap();
    assert_eq!(edges(&again), want2);
}

/// A checkpoint after compaction persists the epoch with an empty
/// overlay; the rotated WAL is based on that same epoch, so the next
/// open accepts the log and resumes at the checkpointed epoch.
#[test]
fn checkpoint_after_compaction_stays_openable() {
    let _guard = lock_faults();
    let dir = tmpdir("ckpt_compact");
    let path = fresh_saved(&dir, "db.rpq");

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    db.insert("d", "p", "e");
    db.commit();
    db.compact();
    let epoch = db.checkpoint().unwrap();
    assert!(db.store().snapshot().delta.is_empty());
    let want = edges(&db);
    drop(db);

    let wal = ring::wal::Wal::inspect(&UpdatableDatabase::wal_path(&path)).unwrap();
    assert_eq!(
        wal.base_epoch, epoch,
        "the WAL must rotate at the saved epoch"
    );
    let back = UpdatableDatabase::open_durable(&path)
        .expect("snapshot + rotated WAL must agree on the base epoch");
    assert_eq!(back.epoch(), epoch);
    assert_eq!(edges(&back), want);
}

/// `save` then `open_durable` returns the saved epoch, whether the
/// overlay is empty (after compaction) or not.
#[test]
fn saved_epoch_survives_reopen() {
    let _guard = lock_faults();
    let dir = tmpdir("epoch");
    let path = saved_with_delta(&dir, "live.rpq");
    let back = UpdatableDatabase::open_durable(&path).unwrap();
    assert_eq!(back.epoch(), 1);
    assert!(!back.store().snapshot().delta.is_empty());
    back.compact();
    assert_eq!(back.epoch(), 2);
    let want = edges(&back);
    let compacted = dir.join("compacted.rpq");
    back.save(&compacted).unwrap();
    drop(back);
    let again = UpdatableDatabase::open_durable(&compacted).unwrap();
    assert_eq!(again.epoch(), 2);
    assert!(again.store().snapshot().delta.is_empty());
    assert_eq!(edges(&again), want);
}

/// The save renames a new file over the snapshot and never rewrites it
/// in place, so engines over the previous, still-mapped snapshot keep
/// answering from the old bytes after a checkpoint.
#[test]
fn checkpoint_keeps_old_mapped_snapshot_readable() {
    let _guard = lock_faults();
    let dir = tmpdir("remap");
    let path = fresh_saved(&dir, "db.rpq");
    let reader = RpqDatabase::open(&path).unwrap();
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert_eq!(reader.open_info().resident, succinct::ResidentMode::Mmap);
    let want = reader.query("?x", "p+", "?y").unwrap();

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    let old = db.store().snapshot();
    let q = db.parse_query("?x", "p+", "?y").unwrap();
    let opts = EngineOptions::default();
    let old_pairs = RpqEngine::over(&*old)
        .evaluate(&q, &opts)
        .unwrap()
        .sorted_pairs();
    for round in 0..3 {
        db.insert(&format!("n{round}"), "p", "a");
        db.delete("a", "p", "b");
        db.commit();
        db.compact();
        db.checkpoint().unwrap();
    }
    assert_ne!(
        edges(&db),
        edges(&UpdatableDatabase::from_text(BASE).unwrap())
    );

    assert_eq!(reader.query("?x", "p+", "?y").unwrap(), want);
    let again = RpqEngine::over(&*old).evaluate(&q, &opts).unwrap();
    assert_eq!(again.sorted_pairs(), old_pairs);
}

/// A checkpoint rotates the WAL: reopen after it replays nothing and
/// still sees every update (now in the snapshot).
#[test]
fn checkpoint_rotates_the_wal() {
    let _guard = lock_faults();
    let dir = tmpdir("checkpoint");
    let path = fresh_saved(&dir, "db.rpq");

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    db.insert("d", "p", "e");
    db.commit();
    let epoch = db.checkpoint().unwrap();
    assert_eq!(epoch, db.epoch());
    let want = edges(&db);
    drop(db);

    let wal = ring::wal::Wal::inspect(&UpdatableDatabase::wal_path(&path)).unwrap();
    assert_eq!(wal.base_epoch, epoch, "WAL must be rebased on the snapshot");
    assert_eq!(wal.op_count(), 0, "checkpointed ops must leave the WAL");
    assert_eq!(
        edges(&UpdatableDatabase::open_durable(&path).unwrap()),
        want
    );
}

/// Regression for the pre-atomic-save bug: an IO error mid-save must
/// leave the previous snapshot bytes byte-for-byte intact.
#[test]
fn failed_save_preserves_old_bytes() {
    let _guard = lock_faults();
    let dir = tmpdir("oldbytes");
    let path = saved_with_delta(&dir, "db.rpq");
    let before = std::fs::read(&path).unwrap();

    let db = UpdatableDatabase::load(&path)
        .unwrap()
        .with_auto_compact_ratio(None);
    db.insert("zz", "p", "zz");
    db.commit();
    // Sweep every write-fault index the save actually reaches (writes
    // abort before the rename, so the published file must not move).
    let mut n = 0u64;
    let mut fired_any = false;
    loop {
        arm(IoPolicy {
            fail_write: Some(n),
            ..IoPolicy::default()
        });
        let res = db.save(&path);
        let fired = disarm();
        if !fired {
            res.unwrap();
            break;
        }
        fired_any = true;
        assert!(res.is_err(), "save succeeded despite injected write fault");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "interrupted save (write fault {n}) mutated the published file"
        );
        n += 1;
        assert!(n < 1000, "write-fault sweep did not terminate");
    }
    assert!(fired_any, "no write fault ever fired: injection is dead");
    // And the published file still loads.
    UpdatableDatabase::load(&path).unwrap();
}

/// Orphaned temp files from a crashed save are swept on durable open.
#[test]
fn open_durable_cleans_orphaned_temp_files() {
    let _guard = lock_faults();
    let dir = tmpdir("orphan");
    let path = fresh_saved(&dir, "db.rpq");
    let orphan = dir.join("db.rpq.12345.7.tmp");
    std::fs::write(&orphan, b"half a snapshot").unwrap();

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    assert!(!orphan.exists(), "orphaned temp file survived open_durable");
    drop(db);
}

/// Files in the retired stream formats fail to open — immutably or
/// durably — with the typed `RetiredFormat` error that names the format
/// and says to rebuild from the source graph.
#[test]
fn retired_formats_fail_with_a_rebuild_error() {
    let _guard = lock_faults();
    let dir = tmpdir("retired");
    let image = std::fs::read(fresh_saved(&dir, "db.rpq")).unwrap();
    for magic in ["RRPQDB01", "RRPQDB02", "RRPQDU01", "RRPQDU02"] {
        let path = dir.join(format!("{magic}.db"));
        let mut old = image.clone();
        old[..8].copy_from_slice(magic.as_bytes());
        std::fs::write(&path, &old).unwrap();
        let errors = [
            RpqDatabase::open(&path).err().unwrap(),
            UpdatableDatabase::open_durable(&path).err().unwrap(),
        ];
        for err in errors {
            assert_eq!(
                durability_error(&err),
                Some(&DurabilityError::RetiredFormat {
                    format: magic.to_string()
                }),
                "{err}"
            );
            assert!(err.to_string().contains("rebuild"), "{err}");
        }
    }
}

/// Killing the WAL append under `commit` must not lose acknowledged
/// state: the commit reports failure (epoch unchanged) and the ops stay
/// pending, so a later commit retries them; reopen sees old or new.
#[test]
fn faulted_commit_is_old_or_new() {
    let _guard = lock_faults();
    let dir = tmpdir("commitfault");
    let path = fresh_saved(&dir, "db.rpq");

    for category in ["write", "short", "fsync"] {
        let sub = dir.join(category);
        std::fs::create_dir_all(&sub).unwrap();
        let db_path = sub.join("db.rpq");
        std::fs::copy(&path, &db_path).unwrap();
        let mut n = 0u64;
        loop {
            let db = UpdatableDatabase::open_durable(&db_path).unwrap();
            let before = edges(&db);
            let epoch_before = db.epoch();
            // The post-state if the commit (fully or partially) lands:
            // e.g. the WAL frame can hit the disk even when its fsync
            // reports failure, and replay then legitimately applies it.
            let after = {
                let mut v = before.clone();
                v.push(("new".into(), "p".into(), "node".into()));
                v.sort();
                v
            };
            db.insert("new", "p", "node");
            arm(match category {
                "write" => IoPolicy {
                    fail_write: Some(n),
                    ..IoPolicy::default()
                },
                "short" => IoPolicy {
                    short_write: Some(n),
                    ..IoPolicy::default()
                },
                _ => IoPolicy {
                    fail_fsync: Some(n),
                    ..IoPolicy::default()
                },
            });
            let res = db.commit_durable();
            let fired = disarm();
            drop(db); // crash
            let revived = UpdatableDatabase::open_durable(&db_path).unwrap();
            let revived_edges = edges(&revived);
            drop(revived);
            std::fs::remove_file(UpdatableDatabase::wal_path(&db_path)).ok();
            std::fs::copy(&path, &db_path).unwrap();
            if !fired {
                let epoch = res.unwrap_or_else(|e| panic!("[{category}:{n}] clean commit: {e}"));
                assert_eq!(epoch, epoch_before + 1, "[{category}:{n}]");
                assert_eq!(revived_edges, after, "[{category}:{n}] commit lost");
                break;
            }
            assert!(res.is_err(), "[{category}:{n}] fired fault but commit Ok");
            assert!(
                revived_edges == before || revived_edges == after,
                "[{category}:{n}] reopened state is neither old nor new"
            );
            n += 1;
            assert!(n < 1000, "[{category}] commit sweep did not terminate");
        }
    }
}

/// Deterministic xorshift64* — reproducible flips, no RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Seeded single-bit flips over a full snapshot byte stream carrying a
/// non-empty delta: every flip is either detected (typed load error) or
/// harmless (loads with identical answers). Never a panic, never
/// silently wrong data.
#[test]
fn stream_bit_flip_fuzz_never_yields_wrong_answers() {
    let _guard = lock_faults();
    let dir = tmpdir("streamflip");
    let path = saved_with_delta(&dir, "db.rpq");
    let bytes = std::fs::read(&path).unwrap();
    let expect = edges(&UpdatableDatabase::load(&path).unwrap());

    let mut flips: Vec<(usize, u8)> = Vec::new();
    for off in 0..64.min(bytes.len()) {
        for bit in 0..8u8 {
            flips.push((off, bit)); // magic + leading counts: exhaustive
        }
    }
    let mut rng = XorShift(0xD00D_F00D_1CDE_2022);
    for _ in 0..600 {
        flips.push(((rng.next() as usize) % bytes.len(), (rng.next() & 7) as u8));
    }

    let flip_path = dir.join("flipped.rpq");
    let mut detected = 0usize;
    for (off, bit) in flips {
        let mut mutated = bytes.clone();
        mutated[off] ^= 1 << bit;
        std::fs::write(&flip_path, &mutated).unwrap();
        match UpdatableDatabase::load(&flip_path) {
            Err(_) => detected += 1, // typed io::Error, no panic
            Ok(db) => assert_eq!(
                edges(&db),
                expect,
                "flip at byte {off} bit {bit} loaded with WRONG answers"
            ),
        }
    }
    assert!(detected > 0, "no flip detected: verification is dead code");
}

/// Draining a server over a durable source checkpoints it: the report
/// carries the epoch and the WAL is rotated.
#[test]
fn drain_checkpoints_a_durable_source() {
    let _guard = lock_faults();
    let dir = tmpdir("drain");
    let path = fresh_saved(&dir, "db.rpq");

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    db.insert("d", "p", "e");
    db.commit();
    let want_epoch = db.epoch();
    let server = db
        .into_server(rpq_server::ServerConfig {
            workers: 1,
            ..rpq_server::ServerConfig::default()
        })
        .unwrap();
    let answer = server.query_blocking("?x", "p", "?y").unwrap();
    assert!(!answer.pairs.is_empty());

    let report = server.drain(Duration::from_secs(30));
    assert_eq!(report.aborted, 0);
    assert_eq!(report.checkpoint_error, None);
    assert_eq!(report.checkpoint_epoch, Some(want_epoch));
    drop(server);

    let wal = ring::wal::Wal::inspect(&UpdatableDatabase::wal_path(&path)).unwrap();
    assert_eq!(wal.base_epoch, want_epoch);
    assert_eq!(wal.op_count(), 0);
    // The checkpointed snapshot holds the committed edge.
    let revived = UpdatableDatabase::open_durable(&path).unwrap();
    assert!(edges(&revived).contains(&("d".into(), "p".into(), "e".into())));
}
