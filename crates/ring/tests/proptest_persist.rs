//! Persistence round-trips on random inputs: rings over every boundary
//! representation, dictionaries and the base graph must survive a
//! `RRPQM01` snapshot write/open cycle bit-exactly in behaviour, and the
//! delta overlay's encoding must round-trip and reject corrupt input.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ring::delta::DeltaIndex;
use ring::mapped::{open_index, write_index, MappedIndex, OpenMode};
use ring::ring::{BoundaryKind, RingOptions};
use ring::{Dict, Graph, Ring, Triple};

/// A fresh file path per call: proptest cases run on parallel threads.
fn scratch_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("rpq_proptest_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}.rpqm", SEQ.fetch_add(1, Ordering::Relaxed)))
}

/// `n` distinct names, `{prefix}{id}`.
fn names(prefix: &str, n: u64) -> Dict {
    let mut d = Dict::new();
    for i in 0..n {
        d.intern(&format!("{prefix}{i}"));
    }
    d
}

/// Writes a snapshot of `ring` and opens it again (heap-resident, so
/// every section checksum is verified too).
fn snapshot_roundtrip(ring: &Ring, nodes: &Dict, preds: &Dict) -> MappedIndex {
    let path = scratch_path();
    write_index(&path, ring, nodes, preds).unwrap();
    let idx = open_index(&path, OpenMode::Heap).unwrap();
    std::fs::remove_file(&path).ok();
    idx
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1u64..10,
        1u64..4,
        prop::collection::vec((0u64..10, 0u64..4, 0u64..10), 0..50),
    )
        .prop_map(|(n_nodes, n_preds, raw)| {
            Graph::new(
                raw.into_iter()
                    .map(|(s, p, o)| Triple::new(s % n_nodes, p % n_preds, o % n_nodes))
                    .collect(),
                n_nodes,
                n_preds,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_roundtrip_all_kinds(g in arb_graph()) {
        let (nodes, preds) = (names("n", g.n_nodes()), names("p", g.n_preds()));
        for kind in [BoundaryKind::Dense, BoundaryKind::Sparse, BoundaryKind::EliasFano] {
            let ring = Ring::build(&g, RingOptions { with_inverses: true, node_boundaries: kind });
            let back = snapshot_roundtrip(&ring, &nodes, &preds).ring;
            prop_assert_eq!(back.n_triples(), ring.n_triples());
            prop_assert_eq!(back.n_preds_base(), ring.n_preds_base());
            let a: Vec<Triple> = ring.iter_triples().collect();
            let b: Vec<Triple> = back.iter_triples().collect();
            prop_assert_eq!(a, b, "{:?}", kind);
            for v in 0..ring.n_nodes() {
                prop_assert_eq!(ring.subject_range(v), back.subject_range(v));
                prop_assert_eq!(ring.object_range(v), back.object_range(v));
            }
        }
    }

    /// The snapshot stores no graph: the base triples are decoded from
    /// the ring (which indexes `G↔`) and must come back exactly, next to
    /// dictionaries holding arbitrary names.
    #[test]
    fn graph_and_dict_roundtrip(g in arb_graph(), extra in prop::collection::vec("[a-z]{1,8}", 0..20)) {
        let mut nodes = names("n", g.n_nodes());
        for name in &extra {
            nodes.intern(name);
        }
        let ring = Ring::build(&g, RingOptions::default());
        let idx = snapshot_roundtrip(&ring, &nodes, &names("p", g.n_preds()));
        let base = idx.ring.n_preds_base();
        let back: Vec<Triple> = idx.ring.iter_triples().filter(|t| t.p < base).collect();
        let back = Graph::new(back, g.n_nodes(), base);
        prop_assert_eq!(back.triples(), g.triples());
        prop_assert_eq!(idx.nodes.len(), nodes.len());
        for (id, name) in nodes.iter() {
            prop_assert_eq!(idx.nodes.get(name), Some(id));
        }
    }

    #[test]
    fn truncated_payloads_never_panic(
        g in arb_graph(),
        cut_frac in 0.0f64..1.0,
    ) {
        let ring = Ring::build(&g, RingOptions::default());
        let path = scratch_path();
        write_index(&path, &ring, &names("n", g.n_nodes()), &names("p", g.n_preds())).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Every truncation must produce Err, never a panic or a bogus Ok.
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(open_index(&path, OpenMode::Heap).is_err());
        std::fs::remove_file(&path).ok();
    }
}

fn arb_delta() -> impl Strategy<Value = DeltaIndex> {
    (
        2u64..5,
        prop::collection::vec((0u64..12, 0u64..5, 0u64..12), 0..20),
        prop::collection::vec((0u64..12, 0u64..5, 0u64..12), 0..20),
    )
        .prop_map(|(base, adds, dels)| {
            let canon = |v: Vec<(u64, u64, u64)>| -> Vec<Triple> {
                v.into_iter()
                    .map(|(s, p, o)| Triple::new(s, p % base, o))
                    .collect()
            };
            // Keep the store invariant (adds and dels disjoint).
            let adds = canon(adds);
            let dels: Vec<Triple> = canon(dels)
                .into_iter()
                .filter(|t| !adds.contains(t))
                .collect();
            DeltaIndex::new(adds, dels, base)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Delta store round-trip: the reloaded overlay compares equal,
    /// answers every completed-alphabet lookup identically, and
    /// write → read → write is byte-stable (the pos/osp orders are
    /// derived state, like the succinct rank directories).
    #[test]
    fn delta_roundtrip_and_byte_stability(d in arb_delta()) {
        let mut first = Vec::new();
        d.write_to(&mut first).unwrap();
        let back = DeltaIndex::read_from(&mut first.as_slice()).unwrap();
        prop_assert_eq!(&back, &d);
        let mut second = Vec::new();
        back.write_to(&mut second).unwrap();
        prop_assert_eq!(first, second, "write-read-write bytes diverged");
        // Spot-check the completed-alphabet accessors line up.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for o in 0..12 {
            for p in 0..2 * d.n_preds_base() {
                d.added_into(o, p, &mut a);
                back.added_into(o, p, &mut b);
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(d.del_count_into(o, p), back.del_count_into(o, p));
            }
        }
    }

    /// Truncated or bit-flipped delta payloads fail cleanly, never panic.
    #[test]
    fn corrupted_delta_payloads_never_panic(
        d in arb_delta(),
        cut in 0usize..64,
        flip in 0usize..32,
    ) {
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let cut = cut.min(buf.len());
        let _ = DeltaIndex::read_from(&mut &buf[..cut]);
        let mut bad = buf.clone();
        if !bad.is_empty() {
            let i = flip % bad.len();
            bad[i] ^= 0xFF;
            let _ = DeltaIndex::read_from(&mut bad.as_slice());
        }
    }
}

/// A future codec bump must fail with an error naming both versions,
/// not a decode panic.
#[test]
fn delta_future_format_version_is_a_clear_error() {
    let d = DeltaIndex::new(vec![Triple::new(0, 0, 1)], vec![Triple::new(1, 1, 0)], 2);
    let mut buf = Vec::new();
    d.write_to(&mut buf).unwrap();
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    buf[4..8].copy_from_slice(&(version + 1).to_le_bytes());
    let err = DeltaIndex::read_from(&mut buf.as_slice()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}", version + 1)) && msg.contains(&format!("expected {version}")),
        "unhelpful version error: {msg}"
    );
}

/// Out-of-alphabet predicates in a tampered payload are a typed error.
#[test]
fn delta_out_of_alphabet_predicate_is_rejected() {
    let d = DeltaIndex::new(vec![Triple::new(0, 1, 2)], vec![], 2);
    let mut buf = Vec::new();
    d.write_to(&mut buf).unwrap();
    // Payload layout after magic+version: base u64, adds-len u64, then
    // (s, p, o) words; patch p up to the base alphabet size.
    let p_off = 8 + 8 + 8 + 8;
    buf[p_off..p_off + 8].copy_from_slice(&2u64.to_le_bytes());
    let err = DeltaIndex::read_from(&mut buf.as_slice()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("base alphabet"), "{err}");
}

/// Degenerate alphabet: an empty graph (zero predicates) stores its
/// wavelet sigma clamped to 1; the open-time inverse-alphabet check
/// must accept it (found by CLI probing: `build empty.nt` produced an
/// index that then failed to load).
#[test]
fn empty_graph_ring_roundtrips() {
    let g = Graph::new(vec![], 0, 0);
    for kind in [
        BoundaryKind::Dense,
        BoundaryKind::Sparse,
        BoundaryKind::EliasFano,
    ] {
        let ring = Ring::build(
            &g,
            RingOptions {
                with_inverses: true,
                node_boundaries: kind,
            },
        );
        let back = snapshot_roundtrip(&ring, &Dict::new(), &Dict::new()).ring;
        assert_eq!(back.n_triples(), 0);
        assert_eq!(back.n_preds_base(), 0);
        assert_eq!(back.iter_triples().count(), 0);
    }
}
