//! Property tests for the ring: construction round-trips, LF-cycle laws,
//! backward-search consistency with a naive triple scan, on random graphs.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ring::mapped::{open_index, write_index, OpenMode};
use ring::ring::{BoundaryKind, RingOptions};
use ring::{Dict, Graph, Id, Ring, Triple};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1u64..12,
        1u64..5,
        prop::collection::vec((0u64..12, 0u64..5, 0u64..12), 0..80),
    )
        .prop_map(|(n_nodes, n_preds, raw)| {
            let triples = raw
                .into_iter()
                .map(|(s, p, o)| Triple::new(s % n_nodes, p % n_preds, o % n_nodes))
                .collect();
            Graph::new(triples, n_nodes, n_preds)
        })
}

/// The bulk decode yields, at position `i`, exactly the per-position
/// LF walk's `triple_at_lp(i)`.
fn decode_matches_walk(r: &Ring) -> Result<(), TestCaseError> {
    let walked: Vec<Triple> = (0..r.n_triples()).map(|i| r.triple_at_lp(i)).collect();
    prop_assert_eq!(r.iter_triples().collect::<Vec<_>>(), walked);
    Ok(())
}

/// `ring` written as a snapshot and reopened, mapped where the platform
/// allows.
fn reopened(ring: &Ring) -> Ring {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("rpq_proptest_ring_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.rpqm", SEQ.fetch_add(1, Ordering::Relaxed)));
    let dict = |n: Id| {
        let mut d = Dict::new();
        for i in 0..n {
            d.intern(&i.to_string());
        }
        d
    };
    write_index(
        &path,
        ring,
        &dict(ring.n_nodes()),
        &dict(ring.n_preds_base()),
    )
    .unwrap();
    let mode = if cfg!(all(unix, target_pointer_width = "64")) {
        OpenMode::Mmap
    } else {
        OpenMode::Heap
    };
    let back = open_index(&path, mode).unwrap().ring;
    std::fs::remove_file(&path).ok();
    back
}

#[test]
fn bulk_decode_of_the_empty_ring() {
    for with_inverses in [true, false] {
        let r = Ring::build(
            &Graph::new(vec![], 0, 0),
            RingOptions {
                with_inverses,
                node_boundaries: BoundaryKind::Sparse,
            },
        );
        assert_eq!(r.iter_triples().count(), 0);
        assert_eq!(reopened(&r).iter_triples().count(), 0);
        assert!(r.base_triples().is_empty());
        assert_eq!(r.n_base_triples(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bulk_decode_matches_the_lf_walk(g in arb_graph()) {
        for kind in [BoundaryKind::Dense, BoundaryKind::Sparse, BoundaryKind::EliasFano] {
            for with_inverses in [true, false] {
                let r = Ring::build(&g, RingOptions { with_inverses, node_boundaries: kind });
                decode_matches_walk(&r)?;
                decode_matches_walk(&reopened(&r))?;
                let mut base = r.base_triples();
                base.sort_unstable();
                prop_assert_eq!(base.as_slice(), g.triples());
                prop_assert_eq!(r.n_base_triples(), g.len());
            }
        }
    }

    #[test]
    fn triples_roundtrip(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions { with_inverses: false, node_boundaries: BoundaryKind::Sparse });
        let mut decoded: Vec<Triple> = r.iter_triples().collect();
        decoded.sort_unstable();
        prop_assert_eq!(decoded.as_slice(), g.triples());
    }

    #[test]
    fn lf_cycle_identity(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions { with_inverses: false, node_boundaries: BoundaryKind::EliasFano });
        for i in 0..r.n_triples() {
            prop_assert_eq!(r.lf_o(r.lf_s(r.lf_p(i))), i);
        }
    }

    #[test]
    fn contains_matches_graph(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions { with_inverses: false, node_boundaries: BoundaryKind::Sparse });
        for t in g.triples() {
            prop_assert!(r.contains(t.s, t.p, t.o));
        }
        // Some random non-edges.
        for s in 0..g.n_nodes().min(4) {
            for p in 0..g.n_preds().min(3) {
                for o in 0..g.n_nodes().min(4) {
                    prop_assert_eq!(r.contains(s, p, o), g.contains(s, p, o));
                }
            }
        }
    }

    #[test]
    fn backward_step_lists_exact_subjects(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions { with_inverses: false, node_boundaries: BoundaryKind::Sparse });
        for o in 0..g.n_nodes() {
            for p in 0..g.n_preds() {
                let mut got = Vec::new();
                r.subjects_for(p, o, &mut |s| got.push(s));
                let mut expected: Vec<Id> = g
                    .triples()
                    .iter()
                    .filter(|t| t.p == p && t.o == o)
                    .map(|t| t.s)
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                prop_assert_eq!(got, expected, "subjects_for({}, {})", p, o);
            }
        }
    }

    #[test]
    fn completion_contains_both_directions(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions::default());
        let np = g.n_preds();
        for t in g.triples() {
            prop_assert!(r.contains(t.s, t.p, t.o));
            prop_assert!(r.contains(t.o, t.p + np, t.s));
            prop_assert_eq!(r.inverse_label(t.p), t.p + np);
        }
        prop_assert_eq!(r.n_triples(), g.completed().len());
    }

    #[test]
    fn objects_for_matches_graph(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions { with_inverses: false, node_boundaries: BoundaryKind::EliasFano });
        for s in 0..g.n_nodes() {
            for p in 0..g.n_preds() {
                let mut got = Vec::new();
                r.objects_for(s, p, &mut |o| got.push(o));
                let mut expected: Vec<Id> = g
                    .triples()
                    .iter()
                    .filter(|t| t.s == s && t.p == p)
                    .map(|t| t.o)
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                prop_assert_eq!(got, expected, "objects_for({}, {})", s, p);
            }
        }
    }
}
