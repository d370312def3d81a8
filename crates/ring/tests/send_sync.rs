//! `Send + Sync` audit: the ring is explicitly a read-optimized, shared,
//! immutable index — one copy serves every worker thread of a query
//! server concurrently. These assertions pin that property: the only
//! interior mutability is the once-initialised subject-occupancy cache
//! (a `OnceLock`), which every thread observes fully built.

use ring::{Boundaries, Dict, Graph, Ring, Triple};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_structures_are_send_sync() {
    assert_send_sync::<Ring>();
    assert_send_sync::<Graph>();
    assert_send_sync::<Dict>();
    assert_send_sync::<Boundaries>();
    assert_send_sync::<Triple>();
}

/// Not just the bound: a `Ring` behind an `Arc` must answer identically
/// from many threads at once.
#[test]
fn ring_reads_agree_across_threads() {
    use ring::ring::RingOptions;
    let triples: Vec<Triple> = (0..120u64)
        .map(|i| Triple::new(i % 20, i % 4, (i * 3 + 1) % 20))
        .collect();
    let ring = std::sync::Arc::new(Ring::build(
        &Graph::from_triples(triples),
        RingOptions::default(),
    ));
    let baseline: Vec<(usize, usize)> = (0..ring.n_nodes()).map(|v| ring.object_range(v)).collect();
    // A clone taken before the cache is filled computes its own copy.
    let occupied = Ring::clone(&ring).subject_occupancy().count_ones();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (ring, baseline, start) = (std::sync::Arc::clone(&ring), &baseline, &start);
            scope.spawn(move || {
                // All four threads race the cache's first fill.
                start.wait();
                let occ = ring.subject_occupancy();
                assert_eq!(occ.len(), ring.l_s().node_table_len());
                assert_eq!(occ.count_ones(), occupied);
                for v in 0..ring.n_nodes() {
                    assert_eq!(ring.object_range(v), baseline[v as usize]);
                    let (b, e) = ring.pred_range(v % ring.n_preds());
                    assert!(b <= e);
                }
            });
        }
    });
}
