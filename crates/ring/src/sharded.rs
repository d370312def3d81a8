//! Horizontal sharding: one graph partitioned into several sub-rings.
//!
//! The partition is by **predicate** — each base predicate's triples land
//! on one shard, chosen by greedy least-loaded binning so shard sizes
//! stay balanced — with a **subject-range fallback** for skewed
//! predicates: a predicate holding more than `⌈total/n_shards⌉` triples
//! is cut into contiguous subject-sorted chunks that bin independently,
//! so one hot predicate cannot capsize a shard. Every shard ring is built
//! over the *global* node and predicate universes (`Graph::new` with the
//! source graph's `n_nodes`/`n_preds`), which keeps ids, inverse labels
//! (`p̂ = p + |P|`) and wavelet-matrix alphabets identical across shards:
//! a scatter-gather union of per-shard results equals the unsharded
//! answer exactly.
//!
//! On disk a sharded index is a directory: one self-contained
//! [`crate::mapped`] `RRPQM01` file per shard (each carrying the full
//! dictionaries, so any shard can resolve any name) plus a CRC-footered
//! `MANIFEST` binding them together. Both are written atomically through
//! [`crate::durable`], so an interrupted save never corrupts an existing
//! index.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use succinct::checksum::{CrcReader, CrcWriter};

use crate::durable::{atomic_write, finish_footer, verify_footer, FaultReader};
use crate::mapped::{self, MappedIndex, OpenMode};
use crate::ring::RingOptions;
use crate::{Dict, Graph, Id, Ring, Triple};

/// Magic bytes opening a sharded-index manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"RRPQSH01";

/// File name of the manifest inside a sharded index directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// File name of shard `i`'s `RRPQM01` file inside the directory.
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:03}.rpqm")
}

/// A predicate-partitioned set of sub-rings over one graph.
///
/// Build once from the full graph; the shards share the graph's node and
/// predicate universes, so their per-shard answers union (with
/// deduplication for inverse labels of subject-split predicates) into
/// exactly the unsharded answer.
pub struct ShardedIndex {
    shards: Vec<Ring>,
}

impl ShardedIndex {
    /// Partitions `graph` into `n_shards` sub-rings.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero.
    pub fn build(graph: &Graph, n_shards: usize, options: RingOptions) -> Self {
        assert!(n_shards >= 1, "a sharded index needs at least one shard");
        let parts = partition_triples(graph.triples(), n_shards);
        let shards = parts
            .into_iter()
            .map(|ts| Ring::build(&Graph::new(ts, graph.n_nodes(), graph.n_preds()), options))
            .collect();
        Self { shards }
    }

    /// Number of shards (fixed at build/open time; empty shards count).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The sub-rings, in shard order.
    pub fn shards(&self) -> &[Ring] {
        &self.shards
    }

    /// Consumes the index, handing out the sub-rings.
    pub fn into_shards(self) -> Vec<Ring> {
        self.shards
    }

    /// Total completed triples across the shards (each base triple and
    /// its inverse counted once, on whichever shard holds them).
    pub fn n_triples(&self) -> usize {
        self.shards.iter().map(|r| r.n_triples()).sum()
    }

    /// Persists the index as a directory: `shard-NNN.rpqm` per shard
    /// (each a complete `RRPQM01` file with full dictionaries) plus the
    /// CRC-footered `MANIFEST`. Returns total bytes written.
    pub fn save_dir(&self, dir: &Path, nodes: &Dict, preds: &Dict) -> io::Result<u64> {
        std::fs::create_dir_all(dir)?;
        let mut total = 0u64;
        for (i, ring) in self.shards.iter().enumerate() {
            total += mapped::write_index(&dir.join(shard_file_name(i)), ring, nodes, preds)?;
        }
        total += write_manifest(&dir.join(MANIFEST_FILE), &self.shards)?;
        Ok(total)
    }
}

/// Whether `path` is a sharded index directory (a directory holding a
/// `MANIFEST` that starts with the sharded magic).
pub fn is_sharded_dir(path: &Path) -> bool {
    if !path.is_dir() {
        return false;
    }
    let Ok(mut f) = std::fs::File::open(path.join(MANIFEST_FILE)) else {
        return false;
    };
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).is_ok() && magic == MANIFEST_MAGIC
}

/// Opens a sharded index directory: verifies the manifest checksum, then
/// opens every shard file under `mode` (each shard validates its own
/// section CRCs and cross-component shapes) and cross-checks it against
/// the manifest — shard count, per-shard triple count, the shared
/// node/predicate universes, and that no shard carries an update
/// overlay (shards are immutable).
pub fn open_dir(dir: &Path, mode: OpenMode) -> io::Result<Vec<MappedIndex>> {
    let manifest = read_manifest(&dir.join(MANIFEST_FILE))?;
    let mut shards = Vec::with_capacity(manifest.shard_triples.len());
    for (i, &want_triples) in manifest.shard_triples.iter().enumerate() {
        let path = dir.join(shard_file_name(i));
        let idx = mapped::open_index(&path, mode)?;
        let context = || format!("{}: shard {i}", dir.display());
        if idx.ring.n_triples() as u64 != want_triples {
            return Err(manifest_mismatch(&context(), "triple count"));
        }
        if idx.ring.n_nodes() != manifest.n_nodes {
            return Err(manifest_mismatch(&context(), "node universe"));
        }
        if idx.ring.n_preds_base() != manifest.n_preds_base {
            return Err(manifest_mismatch(&context(), "predicate universe"));
        }
        if !idx.delta.is_empty() || idx.epoch != 0 {
            return Err(manifest_mismatch(&context(), "update overlay"));
        }
        shards.push(idx);
    }
    Ok(shards)
}

fn manifest_mismatch(context: &str, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{context}: {what} does not match the manifest"),
    )
}

struct Manifest {
    n_nodes: Id,
    n_preds_base: Id,
    shard_triples: Vec<u64>,
}

fn write_manifest(path: &Path, shards: &[Ring]) -> io::Result<u64> {
    atomic_write(path, |w| {
        let mut cw = CrcWriter::new(w);
        cw.write_all(&MANIFEST_MAGIC)?;
        write_u64(&mut cw, shards.len() as u64)?;
        write_u64(&mut cw, shards[0].n_nodes())?;
        write_u64(&mut cw, shards[0].n_preds_base())?;
        for ring in shards {
            write_u64(&mut cw, ring.n_triples() as u64)?;
        }
        finish_footer(&mut cw)
    })
}

fn read_manifest(path: &Path) -> io::Result<Manifest> {
    let context = path.display().to_string();
    let file = FaultReader::new(std::fs::File::open(path)?);
    let mut r = CrcReader::new(BufReader::new(file));
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MANIFEST_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{context}: not a sharded index manifest"),
        ));
    }
    let n_shards = read_u64(&mut r)?;
    if n_shards == 0 || n_shards > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{context}: implausible shard count {n_shards}"),
        ));
    }
    let n_nodes = read_u64(&mut r)?;
    let n_preds_base = read_u64(&mut r)?;
    let mut shard_triples = Vec::with_capacity(n_shards as usize);
    for _ in 0..n_shards {
        shard_triples.push(read_u64(&mut r)?);
    }
    verify_footer(&mut r, &context)?;
    Ok(Manifest {
        n_nodes,
        n_preds_base,
        shard_triples,
    })
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Partitions base triples across `n_shards`: whole predicates bin
/// greedily onto the least-loaded shard (largest first, ties broken by
/// predicate id, so the partition is deterministic); a predicate larger
/// than `⌈total/n_shards⌉` is first cut into contiguous subject-sorted
/// chunks that bin as independent units.
fn partition_triples(triples: &[Triple], n_shards: usize) -> Vec<Vec<Triple>> {
    if n_shards <= 1 {
        return vec![triples.to_vec()];
    }
    let mut by_pred: BTreeMap<Id, Vec<Triple>> = BTreeMap::new();
    for &t in triples {
        by_pred.entry(t.p).or_default().push(t);
    }
    let threshold = triples.len().div_ceil(n_shards).max(1);

    // (size, pred, chunk index, triples) — chunk index orders the
    // subject-range pieces of a split predicate.
    let mut units: Vec<(usize, Id, usize, Vec<Triple>)> = Vec::new();
    for (p, ts) in by_pred {
        if ts.len() <= threshold {
            units.push((ts.len(), p, 0, ts));
        } else {
            // Triples of one predicate arrive sorted by (s, o), so equal
            // chunks are contiguous subject ranges.
            let n_chunks = ts.len().div_ceil(threshold);
            let chunk = ts.len().div_ceil(n_chunks);
            for (i, c) in ts.chunks(chunk).enumerate() {
                units.push((c.len(), p, i, c.to_vec()));
            }
        }
    }
    units.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut shards: Vec<Vec<Triple>> = vec![Vec::new(); n_shards];
    let mut loads = vec![0usize; n_shards];
    for (size, _, _, ts) in units {
        let target = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .expect("n_shards >= 1")
            .0;
        loads[target] += size;
        shards[target].extend(ts);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> Graph {
        let mut triples = Vec::new();
        // Predicate 0 is hot (28 edges), 1..4 small.
        for s in 0..14u64 {
            triples.push(Triple::new(s, 0, (s + 1) % 14));
            triples.push(Triple::new(s, 0, (s + 7) % 14));
        }
        for s in 0..4u64 {
            triples.push(Triple::new(s, 1, s + 1));
            triples.push(Triple::new(s + 2, 2, s));
        }
        triples.push(Triple::new(0, 3, 13));
        Graph::from_triples(triples)
    }

    #[test]
    fn partition_is_exact_and_balanced() {
        let g = graph();
        for n_shards in [1, 2, 4, 7] {
            let parts = partition_triples(g.triples(), n_shards);
            assert_eq!(parts.len(), n_shards);
            let mut union: Vec<Triple> = parts.iter().flatten().copied().collect();
            union.sort_unstable();
            assert_eq!(
                union,
                g.triples(),
                "partition must be exact ({n_shards} shards)"
            );
            // No shard may hold more than 2× the ideal share (greedy
            // binning of threshold-bounded units guarantees this).
            let ideal = g.len().div_ceil(n_shards);
            for p in &parts {
                assert!(p.len() <= 2 * ideal, "{} > 2×{ideal}", p.len());
            }
        }
    }

    #[test]
    fn skewed_predicate_splits_by_subject_range() {
        let g = graph();
        let parts = partition_triples(g.triples(), 4);
        // Predicate 0 (28 of 37 triples) must span several shards.
        let holding = parts.iter().filter(|p| p.iter().any(|t| t.p == 0)).count();
        assert!(holding >= 2, "hot predicate stayed on {holding} shard(s)");
    }

    #[test]
    fn shards_share_global_universes() {
        let g = graph();
        let idx = ShardedIndex::build(&g, 3, RingOptions::default());
        assert_eq!(idx.n_shards(), 3);
        assert_eq!(idx.n_triples(), 2 * g.len());
        for r in idx.shards() {
            assert_eq!(r.n_nodes(), g.n_nodes());
            assert_eq!(r.n_preds_base(), g.n_preds());
            assert!(r.has_inverses());
        }
    }

    #[test]
    fn save_open_roundtrip_with_validation() {
        let dir = std::env::temp_dir().join(format!("rpq-sharded-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = graph();
        let idx = ShardedIndex::build(&g, 3, RingOptions::default());
        let nodes = full_dict(g.n_nodes(), "n");
        let preds = full_dict(g.n_preds(), "p");
        let bytes = idx.save_dir(&dir, &nodes, &preds).unwrap();
        assert!(bytes > 0);
        assert!(is_sharded_dir(&dir));
        assert!(!is_sharded_dir(&dir.join("nope")));

        let opened = open_dir(&dir, OpenMode::Heap).unwrap();
        assert_eq!(opened.len(), 3);
        for (got, want) in opened.iter().zip(idx.shards()) {
            assert_eq!(got.ring.n_triples(), want.n_triples());
            assert_eq!(got.nodes.len() as Id, g.n_nodes());
        }

        // A manifest/shard mismatch is rejected: drop one shard file and
        // rewrite the manifest for a single shard of the wrong size.
        write_manifest(&dir.join(MANIFEST_FILE), &idx.shards()[..1]).unwrap();
        std::fs::remove_file(dir.join(shard_file_name(0))).unwrap();
        std::fs::rename(dir.join(shard_file_name(1)), dir.join(shard_file_name(0))).unwrap();
        let err = open_dir(&dir, OpenMode::Heap).unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = std::env::temp_dir().join(format!("rpq-sharded-bad-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = graph();
        let idx = ShardedIndex::build(&g, 2, RingOptions::default());
        idx.save_dir(
            &dir,
            &full_dict(g.n_nodes(), "n"),
            &full_dict(g.n_preds(), "p"),
        )
        .unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&mpath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&mpath, &bytes).unwrap();
        assert!(open_dir(&dir, OpenMode::Heap).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn full_dict(n: Id, prefix: &str) -> Dict {
        let mut d = Dict::new();
        for i in 0..n {
            d.intern(&format!("{prefix}{i}"));
        }
        d
    }
}
