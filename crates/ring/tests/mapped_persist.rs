//! Snapshot-format (`RRPQM01`) persistence suite: write/open round-trips
//! over every boundary representation, the delta overlay and epoch,
//! version 2 files, heap-vs-mmap load equivalence, and corruption
//! rejection — truncation at every section boundary, oversized declared
//! lengths, retired and wrong magics, version skew, and misaligned
//! table-of-contents offsets.

use std::path::PathBuf;

use ring::delta::DeltaIndex;
use ring::durable::{durability_error, DurabilityError};
use ring::mapped::{
    open_index, write_index, write_snapshot, OpenMode, HEADER_LEN, MAPPED_MAGIC, SECTION_NAMES,
};
use ring::ring::{BoundaryKind, RingOptions};
use ring::{Dict, Graph, Ring, Triple};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpq_mapped_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small graph with repeated subjects/objects, a rare predicate, and
/// names that exercise the dictionary's sorted-order search.
fn sample() -> (Graph, Dict, Dict) {
    let text = "\
        <http://x/alice> <http://x/knows> <http://x/bob>\n\
        <http://x/bob> <http://x/knows> <http://x/carol>\n\
        <http://x/carol> <http://x/knows> <http://x/alice>\n\
        <http://x/alice> <http://x/likes> <http://x/carol>\n\
        <http://x/carol> <http://x/likes> <http://x/carol>\n\
        <http://x/dave> <http://x/knows> <http://x/alice>\n\
        <http://x/bob> <http://x/works_at> <http://x/acme>\n\
        <http://x/dave> <http://x/works_at> <http://x/acme>\n\
        <http://x/dave> <http://x/knows> <http://x/知り合い>\n";
    let (g, nodes, preds) = Graph::parse_text(text).unwrap();
    (g, nodes, preds)
}

fn assert_rings_equal(a: &Ring, b: &Ring) {
    assert_eq!(a.n_triples(), b.n_triples());
    assert_eq!(a.n_nodes(), b.n_nodes());
    assert_eq!(a.n_preds(), b.n_preds());
    assert_eq!(a.n_preds_base(), b.n_preds_base());
    assert_eq!(a.has_inverses(), b.has_inverses());
    let ta: Vec<Triple> = a.iter_triples().collect();
    let tb: Vec<Triple> = b.iter_triples().collect();
    assert_eq!(ta, tb);
    for s in 0..a.n_nodes() {
        assert_eq!(a.subject_range(s), b.subject_range(s), "subject {s}");
        assert_eq!(a.object_range(s), b.object_range(s), "object {s}");
    }
    for p in 0..a.n_preds() {
        assert_eq!(a.pred_range(p), b.pred_range(p), "pred {p}");
        assert_eq!(a.pred_cardinality(p), b.pred_cardinality(p));
    }
}

fn assert_dicts_equal(a: &Dict, b: &Dict) {
    assert_eq!(a.len(), b.len());
    for (id, name) in a.iter() {
        assert_eq!(b.name(id), name);
        assert_eq!(b.get(name), Some(id), "lookup of {name}");
    }
    assert_eq!(b.get("<no-such-name>"), None);
}

#[test]
fn roundtrip_every_boundary_kind_and_inverse_setting() {
    let dir = tmpdir("roundtrip");
    let (graph, nodes, preds) = sample();
    for kind in [
        BoundaryKind::Dense,
        BoundaryKind::Sparse,
        BoundaryKind::EliasFano,
    ] {
        for with_inverses in [true, false] {
            let ring = Ring::build(
                &graph,
                RingOptions {
                    with_inverses,
                    node_boundaries: kind,
                },
            );
            let path = dir.join(format!("{kind:?}_{with_inverses}.rpqm"));
            let written = write_index(&path, &ring, &nodes, &preds).unwrap();
            assert_eq!(written, std::fs::metadata(&path).unwrap().len());
            let idx = open_index(&path, OpenMode::Heap).unwrap();
            assert_rings_equal(&ring, &idx.ring);
            assert_dicts_equal(&nodes, &idx.nodes);
            assert_dicts_equal(&preds, &idx.preds);
            assert!(idx.nodes.is_mapped() && idx.preds.is_mapped());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_graph_roundtrips() {
    let dir = tmpdir("empty");
    let ring = Ring::build(&Graph::new(vec![], 0, 0), RingOptions::default());
    let path = dir.join("empty.rpqm");
    write_index(&path, &ring, &Dict::new(), &Dict::new()).unwrap();
    let idx = open_index(&path, OpenMode::Heap).unwrap();
    assert_eq!(idx.ring.n_triples(), 0);
    assert_eq!(idx.nodes.len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The overlay and epoch survive the round-trip, and dictionaries larger
/// than the ring's universe (append-only interning) are accepted as
/// long as they cover ring ⊎ delta.
#[test]
fn snapshot_roundtrips_delta_and_epoch() {
    let dir = tmpdir("snapshot");
    let (graph, mut nodes, preds) = sample();
    let ring = Ring::build(&graph, RingOptions::default());
    let delta = sample_delta(&mut nodes, &preds);
    assert!(nodes.len() as u64 > ring.n_nodes());
    let path = dir.join("live.rpqm");
    write_snapshot(&path, &ring, &nodes, &preds, &delta, SAMPLE_EPOCH).unwrap();
    for mode in [OpenMode::Heap, OpenMode::Auto] {
        let idx = open_index(&path, mode).unwrap();
        assert_rings_equal(&ring, &idx.ring);
        assert_dicts_equal(&nodes, &idx.nodes);
        assert_eq!(idx.delta, delta);
        assert_eq!(idx.epoch, SAMPLE_EPOCH);
    }
    // An immutable index carries an empty overlay at epoch 0.
    write_index(&path, &ring, &nodes, &preds).unwrap();
    let idx = open_index(&path, OpenMode::Heap).unwrap();
    assert!(idx.delta.is_empty());
    assert_eq!(idx.epoch, 0);

    // Dictionaries must still cover the delta's nodes.
    let mut short = Dict::new();
    for (_, name) in nodes.iter().take(ring.n_nodes() as usize) {
        short.intern(name);
    }
    write_snapshot(&path, &ring, &short, &preds, &delta, 1).unwrap();
    let msg = open_index(&path, OpenMode::Heap).unwrap_err().to_string();
    assert!(msg.contains("node dictionary"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites a version 3 image in the version 2 layout: nine sections,
/// no epoch word in `META`, no `DELTA` section.
fn as_version_2(v3: &[u8]) -> Vec<u8> {
    let mut sections: Vec<Vec<u8>> = (0..9)
        .map(|i| {
            let off = u64_at(v3, 24 + i * 32 + 8) as usize;
            let len = u64_at(v3, 24 + i * 32 + 16) as usize;
            v3[off..off + len].to_vec()
        })
        .collect();
    sections[0].truncate(5 * 8);
    let mut out = MAPPED_MAGIC.to_vec();
    out.extend(2u64.to_le_bytes());
    out.extend(9u64.to_le_bytes());
    let mut off = 24 + 9 * 32;
    for (i, sec) in sections.iter().enumerate() {
        for word in [
            i as u64 + 1,
            off as u64,
            sec.len() as u64,
            succinct::checksum::crc32c(sec) as u64,
        ] {
            out.extend(word.to_le_bytes());
        }
        off += sec.len();
    }
    for sec in &sections {
        out.extend(sec);
    }
    out
}

/// Every index and shard file written before the epoch and delta joined
/// the format is version 2: it opens at epoch 0 with an empty overlay.
#[test]
fn version_2_files_open_at_epoch_zero_with_an_empty_delta() {
    let dir = tmpdir("v2");
    let (graph, nodes, preds) = sample();
    let ring = Ring::build(&graph, RingOptions::default());
    let path = dir.join("v3.rpqm");
    write_index(&path, &ring, &nodes, &preds).unwrap();
    let v2 = as_version_2(&std::fs::read(&path).unwrap());
    let v2_path = dir.join("v2.rpqm");
    std::fs::write(&v2_path, &v2).unwrap();
    assert_eq!(ring::mapped::verify_index_checksums(&v2_path).unwrap(), 9);
    for mode in [OpenMode::Heap, OpenMode::Auto] {
        let idx = open_index(&v2_path, mode).unwrap();
        assert_rings_equal(&ring, &idx.ring);
        assert_dicts_equal(&nodes, &idx.nodes);
        assert!(idx.delta.is_empty());
        assert_eq!(idx.delta.n_preds_base(), ring.n_preds_base());
        assert_eq!(idx.epoch, 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(all(unix, target_pointer_width = "64"))]
#[test]
fn heap_and_mmap_opens_are_equivalent() {
    use succinct::ResidentMode;
    let dir = tmpdir("modes");
    let (graph, nodes, preds) = sample();
    let ring = Ring::build(&graph, RingOptions::default());
    let path = dir.join("idx.rpqm");
    write_index(&path, &ring, &nodes, &preds).unwrap();

    let heap = open_index(&path, OpenMode::Heap).unwrap();
    let mapped = open_index(&path, OpenMode::Mmap).unwrap();
    assert_eq!(heap.resident, ResidentMode::Heap);
    assert_eq!(heap.mapped_bytes, 0);
    assert_eq!(mapped.resident, ResidentMode::Mmap);
    assert_eq!(mapped.mapped_bytes, std::fs::metadata(&path).unwrap().len());
    assert_rings_equal(&heap.ring, &mapped.ring);
    assert_rings_equal(&ring, &mapped.ring);
    assert_dicts_equal(&heap.nodes, &mapped.nodes);
    assert_dicts_equal(&heap.preds, &mapped.preds);
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes `bytes` to a file and opens it heap-resident.
fn open_bytes(dir: &std::path::Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    open_index(&path, OpenMode::Heap).map(|_| ())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Recomputes section `i`'s CRC32C and patches it into the TOC, so a
/// deliberate payload mutation exercises the *structural* validation
/// rather than being short-circuited by the checksum check.
fn fix_crc(bytes: &mut [u8], i: usize) {
    let off = u64_at(bytes, 24 + i * 32 + 8) as usize;
    let len = u64_at(bytes, 24 + i * 32 + 16) as usize;
    let crc = succinct::checksum::crc32c(&bytes[off..off + len]);
    put_u64(bytes, 24 + i * 32 + 24, crc as u64);
}

/// A committed overlay over [`sample`]: one added edge to a node the
/// ring has never seen, one tombstoned base edge.
fn sample_delta(nodes: &mut Dict, preds: &Dict) -> DeltaIndex {
    let knows = preds.get("<http://x/knows>").unwrap();
    let alice = nodes.get("<http://x/alice>").unwrap();
    let bob = nodes.get("<http://x/bob>").unwrap();
    let eve = nodes.intern("<http://x/eve>");
    DeltaIndex::new(
        vec![Triple::new(eve, knows, alice)],
        vec![Triple::new(alice, knows, bob)],
        preds.len() as u64,
    )
}

/// Epoch [`valid_image`] persists.
const SAMPLE_EPOCH: u64 = 7;

/// A valid file image — [`sample`] with [`sample_delta`] at
/// [`SAMPLE_EPOCH`], so every section is non-trivial — plus its parsed
/// TOC `(offset, len)` list.
fn valid_image(dir: &std::path::Path) -> (Vec<u8>, Vec<(usize, usize)>) {
    let (graph, mut nodes, preds) = sample();
    let ring = Ring::build(&graph, RingOptions::default());
    let delta = sample_delta(&mut nodes, &preds);
    let path = dir.join("valid.rpqm");
    write_snapshot(&path, &ring, &nodes, &preds, &delta, SAMPLE_EPOCH).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let toc = (0..SECTION_NAMES.len())
        .map(|i| {
            let at = 24 + i * 32;
            (
                u64_at(&bytes, at + 8) as usize,
                u64_at(&bytes, at + 16) as usize,
            )
        })
        .collect();
    (bytes, toc)
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let dir = tmpdir("truncate");
    let (bytes, toc) = valid_image(&dir);
    // Sanity: the intact image opens.
    assert!(open_bytes(&dir, "ok.rpqm", &bytes).is_ok());
    let mut cuts: Vec<usize> = vec![0, 7, HEADER_LEN - 1, bytes.len() - 1];
    for &(off, len) in &toc {
        cuts.push(off);
        cuts.push(off + len / 2);
        cuts.push(off + len.saturating_sub(1));
    }
    for cut in cuts {
        if cut >= bytes.len() {
            continue;
        }
        let err = open_bytes(&dir, "cut.rpqm", &bytes[..cut])
            .expect_err(&format!("truncation at {cut} must fail"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_declared_lengths_are_rejected() {
    let dir = tmpdir("oversized");
    let (bytes, toc) = valid_image(&dir);
    for (i, &(_, len)) in toc.iter().enumerate() {
        // Growing any section's declared length either runs past the
        // end of the file or leaves trailing bytes in the section; the
        // reader must reject both.
        let mut bad = bytes.clone();
        put_u64(&mut bad, 24 + i * 32 + 16, len as u64 + 8);
        assert!(
            open_bytes(&dir, "grown.rpqm", &bad).is_err(),
            "section {i} grown by 8"
        );
        let mut huge = bytes.clone();
        put_u64(&mut huge, 24 + i * 32 + 16, 1 << 40);
        assert!(
            open_bytes(&dir, "huge.rpqm", &huge).is_err(),
            "section {i} with a 2^40 length"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Files in the retired stream formats, and checksum-less version 1
/// files, fail with the typed `RetiredFormat` error naming the format
/// and the way out (rebuild from the source graph).
#[test]
fn wrong_magic_names_the_stream_formats() {
    let dir = tmpdir("magic");
    let (bytes, _) = valid_image(&dir);
    let mut v1 = bytes.clone();
    put_u64(&mut v1, 8, 1);
    let mut retired = vec![("RRPQM01 version 1", v1)];
    for magic in ["RRPQDB01", "RRPQDB02", "RRPQDU01", "RRPQDU02"] {
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(magic.as_bytes());
        retired.push((magic, bad));
    }
    for (format, image) in retired {
        let err = open_bytes(&dir, "retired.rpqm", &image).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{format}");
        assert_eq!(
            durability_error(&err),
            Some(&DurabilityError::RetiredFormat {
                format: format.to_string()
            }),
            "{format}: {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains(format) && msg.contains("rebuild"), "{msg}");
    }
    let mut garbage = bytes.clone();
    garbage[..8].copy_from_slice(b"GARBAGE!");
    let msg = open_bytes(&dir, "garbage.rpqm", &garbage)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("magic"), "{msg}");

    let mut versioned = bytes.clone();
    put_u64(&mut versioned, 8, 99);
    let msg = open_bytes(&dir, "version.rpqm", &versioned)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("version 99"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The soundness invariant the module documentation points at: a
/// deliberately misaligned section offset must be rejected before any
/// `&[u64]` view is formed.
#[test]
fn toc_offsets_must_be_aligned() {
    let dir = tmpdir("align");
    let (bytes, toc) = valid_image(&dir);
    for (i, &(off, _)) in toc.iter().enumerate() {
        for bump in [1usize, 4] {
            let mut bad = bytes.clone();
            put_u64(&mut bad, 24 + i * 32 + 8, (off + bump) as u64);
            let err = open_bytes(&dir, "misaligned.rpqm", &bad)
                .expect_err(&format!("section {i} offset bumped by {bump}"));
            assert!(err.to_string().contains("aligned"), "section {i}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inconsistent_metadata_is_rejected() {
    let dir = tmpdir("meta");
    let (bytes, toc) = valid_image(&dir);
    let meta_off = toc[0].0;
    assert_eq!(meta_off, HEADER_LEN);

    // Triple count off by one: column length checks fire.
    let mut bad = bytes.clone();
    put_u64(&mut bad, meta_off, u64_at(&bytes, meta_off) + 1);
    fix_crc(&mut bad, 0);
    assert!(open_bytes(&dir, "count.rpqm", &bad).is_err());

    // Invalid has_inverses flag.
    let mut bad = bytes.clone();
    put_u64(&mut bad, meta_off + 32, 7);
    fix_crc(&mut bad, 0);
    let msg = open_bytes(&dir, "flag.rpqm", &bad).unwrap_err().to_string();
    assert!(msg.contains("has_inverses"), "{msg}");

    // Node universe shrunk: dictionary / boundary universes disagree.
    let mut bad = bytes.clone();
    let n_nodes = u64_at(&bytes, meta_off + 8);
    put_u64(&mut bad, meta_off + 8, n_nodes - 1);
    fix_crc(&mut bad, 0);
    assert!(open_bytes(&dir, "nodes.rpqm", &bad).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// The magic constant is the public contract other layers sniff on.
#[test]
fn magic_matches_the_public_constant() {
    let dir = tmpdir("sniff");
    let (bytes, _) = valid_image(&dir);
    assert_eq!(&bytes[..8], &MAPPED_MAGIC);
    std::fs::remove_dir_all(&dir).ok();
}

/// Deterministic xorshift64* for the fuzz sweep: reproducible without
/// any RNG dependency, seed printed into every assertion context.
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

/// Every single-bit flip over a full `RRPQM01` image — exhaustive over
/// the header + TOC, seeded-random over the payload — must either be
/// *detected* (typed open error) or *harmless* (the index opens and
/// answers identically, e.g. a flip in alignment padding no checksum
/// covers). Never a panic, never silently wrong data.
#[test]
fn bit_flip_fuzz_never_yields_wrong_answers() {
    let dir = tmpdir("bitflip");
    let (bytes, _) = valid_image(&dir);
    let (graph, mut nodes, preds) = sample();
    let expect_delta = sample_delta(&mut nodes, &preds);
    let expect_ring = Ring::build(&graph, RingOptions::default());
    let expect: Vec<Triple> = {
        let mut v: Vec<Triple> = expect_ring.iter_triples().collect();
        v.sort();
        v
    };

    let mut flips: Vec<(usize, u8)> = Vec::new();
    // Header + TOC: every bit (this is where a flip could silently
    // redirect a section, so cover it exhaustively).
    for off in 0..HEADER_LEN.min(bytes.len()) {
        for bit in 0..8u8 {
            flips.push((off, bit));
        }
    }
    // Payload: seeded sample across the rest of the file.
    let mut rng = XorShift(0x1CDE_2022_D00D_F00D);
    for _ in 0..800 {
        let off = HEADER_LEN + (rng.next() as usize) % (bytes.len() - HEADER_LEN);
        let bit = (rng.next() & 7) as u8;
        flips.push((off, bit));
    }

    let path = dir.join("flip.rpqm");
    let mut harmless = 0usize;
    for (off, bit) in flips {
        let mut mutated = bytes.clone();
        mutated[off] ^= 1 << bit;
        std::fs::write(&path, &mutated).unwrap();
        match open_index(&path, OpenMode::Heap) {
            Err(_) => {} // detected: typed io::Error, no panic
            Ok(idx) => {
                let mut got: Vec<Triple> = idx.ring.iter_triples().collect();
                got.sort();
                assert_eq!(
                    got, expect,
                    "flip at byte {off} bit {bit} opened with WRONG triples"
                );
                assert_dicts_equal(&idx.nodes, &nodes);
                assert_dicts_equal(&idx.preds, &preds);
                assert_eq!(idx.delta, expect_delta, "flip at byte {off} bit {bit}");
                assert_eq!(idx.epoch, SAMPLE_EPOCH, "flip at byte {off} bit {bit}");
                harmless += 1;
            }
        }
    }
    // The original image must still open (the sweep is non-destructive
    // to its inputs), and *some* flips must have been caught — if every
    // flip opened fine the checksums are not being checked at all.
    assert!(open_bytes(&dir, "intact.rpqm", &bytes).is_ok());
    assert!(
        harmless < 800 + HEADER_LEN * 8,
        "no flip was ever detected: checksum verification is dead code"
    );
    std::fs::remove_dir_all(&dir).ok();
}
