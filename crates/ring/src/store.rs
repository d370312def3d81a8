//! The id-level updatable triple store: an immutable ring plus a
//! committed [`DeltaIndex`] overlay behind atomic, versioned snapshots.
//!
//! LSM-style life cycle: [`TripleStore::insert`]/[`TripleStore::delete`]
//! buffer operations; [`TripleStore::commit`] folds the buffer into a new
//! immutable delta and publishes a new [`StoreSnapshot`] under an `Arc`
//! (readers that captured the previous snapshot keep evaluating against
//! it — no torn reads); [`TripleStore::compact`] rebuilds the ring from
//! ring ⊎ delta and swaps it in. Every publication bumps the snapshot
//! **epoch**, the value caches key their entries by.
//!
//! Node and predicate ids are stable forever: compaction preserves the
//! id universes (a node keeps its id even if all its edges are deleted),
//! and new nodes extend the universe monotonically. Inserts may mention
//! predicates beyond the ring's base alphabet; since the succinct index
//! has a fixed completed alphabet, such a commit performs an immediate
//! rebuild (counted as both a commit and a compaction).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::delta::DeltaIndex;
use crate::ring::RingOptions;
use crate::{Graph, Id, Ring, Triple};

/// One buffered update operation (canonical, base-alphabet labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Add the triple (a no-op if it is already live).
    Insert(Triple),
    /// Remove the triple (a no-op if it is not live).
    Delete(Triple),
}

/// A consistent, immutable view of the store at one epoch. Cheap to
/// clone (four `Arc`s); queries hold one for their whole evaluation.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// The base (uncompleted) graph the ring was built from.
    pub graph: Arc<Graph>,
    /// The succinct index over the completed base graph.
    pub ring: Arc<Ring>,
    /// The committed overlay (possibly empty).
    pub delta: Arc<DeltaIndex>,
    /// The snapshot version; bumped by every commit and compaction.
    pub epoch: u64,
}

impl StoreSnapshot {
    /// The evaluation node universe: ring nodes plus any delta-introduced
    /// nodes.
    pub fn n_nodes(&self) -> Id {
        self.ring.n_nodes().max(self.delta.n_nodes())
    }

    /// Whether the completed-alphabet edge `(s, p, o)` is live at this
    /// snapshot.
    pub fn contains(&self, s: Id, p: Id, o: Id) -> bool {
        if self.delta.del_contains(s, p, o) {
            return false;
        }
        self.delta.add_contains(s, p, o) || self.ring.contains(s, p, o)
    }

    /// The live canonical triples (base − deletes + adds), sorted.
    /// `O(base + delta)`; compaction and tests use this, not queries.
    pub fn live_triples(&self) -> Vec<Triple> {
        let dels: BTreeSet<&Triple> = self.delta.dels().iter().collect();
        let mut live: Vec<Triple> = self
            .graph
            .triples()
            .iter()
            .filter(|t| !dels.contains(t))
            .copied()
            .collect();
        live.extend_from_slice(self.delta.adds());
        live.sort_unstable();
        live
    }
}

/// Live update counters a serving layer exports as metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Current snapshot epoch.
    pub epoch: u64,
    /// Committed batches since construction.
    pub commits: u64,
    /// Ring rebuilds (explicit `compact`, auto-compactions, and
    /// alphabet-extending commits).
    pub compactions: u64,
    /// Added triples in the current committed delta.
    pub delta_adds: usize,
    /// Tombstoned triples in the current committed delta.
    pub delta_deletes: usize,
    /// Buffered, not-yet-committed operations.
    pub pending_ops: usize,
}

struct Inner {
    snap: Arc<StoreSnapshot>,
    pending: Vec<UpdateOp>,
}

/// The updatable database core. All methods take `&self`; mutation is
/// serialized behind an internal lock, and readers never block writers
/// longer than one `Arc` clone.
pub struct TripleStore {
    inner: RwLock<Inner>,
    /// Auto-compaction trigger: rebuild when `delta.len() ≥ ratio ·
    /// max(1, base edges)` after a commit. `None` disables.
    auto_compact_ratio: Option<f64>,
    commits: AtomicU64,
    compactions: AtomicU64,
}

impl TripleStore {
    /// Default auto-compaction ratio: rebuild once the overlay reaches
    /// half the base size.
    pub const DEFAULT_AUTO_COMPACT_RATIO: f64 = 0.5;

    /// A store over `graph` (builds the ring; epoch 0, default
    /// auto-compaction).
    pub fn new(graph: Graph) -> Self {
        let ring = Ring::build(&graph, RingOptions::default());
        Self::from_built(graph, ring, DeltaIndex::empty(0), 0)
    }

    /// Reassembles a store from persisted parts (the delta's base
    /// alphabet is aligned to the graph's).
    pub fn from_built(graph: Graph, ring: Ring, delta: DeltaIndex, epoch: u64) -> Self {
        let delta = if delta.is_empty() {
            DeltaIndex::empty(graph.n_preds())
        } else {
            delta
        };
        Self {
            inner: RwLock::new(Inner {
                snap: Arc::new(StoreSnapshot {
                    graph: Arc::new(graph),
                    ring: Arc::new(ring),
                    delta: Arc::new(delta),
                    epoch,
                }),
                pending: Vec::new(),
            }),
            auto_compact_ratio: Some(Self::DEFAULT_AUTO_COMPACT_RATIO),
            commits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Replaces the auto-compaction trigger (`None` disables it).
    pub fn with_auto_compact_ratio(mut self, ratio: Option<f64>) -> Self {
        self.auto_compact_ratio = ratio;
        self
    }

    /// The current snapshot (cheap: one `Arc` clone under a read lock).
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.inner.read().unwrap().snap)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.read().unwrap().snap.epoch
    }

    /// Buffers an insert (visible after the next [`Self::commit`]).
    pub fn insert(&self, t: Triple) {
        self.inner
            .write()
            .unwrap()
            .pending
            .push(UpdateOp::Insert(t));
    }

    /// Buffers a delete (visible after the next [`Self::commit`]).
    pub fn delete(&self, t: Triple) {
        self.inner
            .write()
            .unwrap()
            .pending
            .push(UpdateOp::Delete(t));
    }

    /// Buffers a batch of operations in order.
    pub fn apply(&self, ops: impl IntoIterator<Item = UpdateOp>) {
        self.inner.write().unwrap().pending.extend(ops);
    }

    /// Buffered operations not yet committed.
    pub fn pending_ops(&self) -> usize {
        self.inner.read().unwrap().pending.len()
    }

    /// Live update counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.read().unwrap();
        StoreStats {
            epoch: inner.snap.epoch,
            commits: self.commits.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            delta_adds: inner.snap.delta.n_adds(),
            delta_deletes: inner.snap.delta.n_dels(),
            pending_ops: inner.pending.len(),
        }
    }

    /// Atomically commits the buffered operations: publishes a new
    /// snapshot whose delta reflects them, bumping the epoch. A commit
    /// with an empty buffer is a no-op. Commits that introduce new
    /// predicate labels rebuild the ring (the succinct alphabet is
    /// fixed); commits that push the overlay past the auto-compaction
    /// ratio trigger a rebuild too. Returns the resulting epoch.
    pub fn commit(&self) -> u64 {
        let mut inner = self.inner.write().unwrap();
        if inner.pending.is_empty() {
            return inner.snap.epoch;
        }
        let pending = std::mem::take(&mut inner.pending);
        let snap = Arc::clone(&inner.snap);
        let base = &*snap.graph;
        let new_preds = pending.iter().any(|op| match op {
            UpdateOp::Insert(t) => t.p >= base.n_preds(),
            UpdateOp::Delete(_) => false,
        });
        self.commits.fetch_add(1, Ordering::Relaxed);
        if new_preds {
            // The completed alphabet must grow: fold everything into a
            // fresh graph and ring in one step.
            self.rebuild_locked(&mut inner, &pending);
            self.compactions.fetch_add(1, Ordering::Relaxed);
            return inner.snap.epoch;
        }

        let mut adds: BTreeSet<Triple> = snap.delta.adds().iter().copied().collect();
        let mut dels: BTreeSet<Triple> = snap.delta.dels().iter().copied().collect();
        for op in &pending {
            match *op {
                UpdateOp::Insert(t) => {
                    // Re-inserting a tombstoned base triple revives it;
                    // inserting a base triple is a no-op.
                    if base.contains(t.s, t.p, t.o) {
                        dels.remove(&t);
                    } else {
                        adds.insert(t);
                    }
                }
                UpdateOp::Delete(t) => {
                    if base.contains(t.s, t.p, t.o) {
                        dels.insert(t);
                    } else {
                        adds.remove(&t);
                    }
                }
            }
        }
        let delta = DeltaIndex::new(
            adds.into_iter().collect(),
            dels.into_iter().collect(),
            base.n_preds(),
        );
        let overlay = delta.len();
        inner.snap = Arc::new(StoreSnapshot {
            graph: Arc::clone(&snap.graph),
            ring: Arc::clone(&snap.ring),
            delta: Arc::new(delta),
            epoch: snap.epoch + 1,
        });
        if let Some(ratio) = self.auto_compact_ratio {
            if overlay > 0 && overlay as f64 >= ratio * base.len().max(1) as f64 {
                self.compact_locked(&mut inner);
            }
        }
        inner.snap.epoch
    }

    /// Rebuilds the ring from ring ⊎ delta and swaps it in (the overlay
    /// becomes empty). Buffered, uncommitted operations are untouched.
    /// A no-op when the overlay is already empty. Returns the epoch.
    pub fn compact(&self) -> u64 {
        let mut inner = self.inner.write().unwrap();
        if inner.snap.delta.is_empty() {
            return inner.snap.epoch;
        }
        self.compact_locked(&mut inner);
        inner.snap.epoch
    }

    fn compact_locked(&self, inner: &mut Inner) {
        self.rebuild_locked(inner, &[]);
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Materializes live triples (plus `extra_ops`, applied in order) and
    /// rebuilds graph + ring, preserving the id universes.
    fn rebuild_locked(&self, inner: &mut Inner, extra_ops: &[UpdateOp]) {
        let snap = &inner.snap;
        let mut live: BTreeSet<Triple> = snap.live_triples().into_iter().collect();
        for op in extra_ops {
            match *op {
                UpdateOp::Insert(t) => {
                    live.insert(t);
                }
                UpdateOp::Delete(t) => {
                    live.remove(&t);
                }
            }
        }
        let live: Vec<Triple> = live.into_iter().collect();
        let n_nodes = live
            .iter()
            .map(|t| t.s.max(t.o) + 1)
            .max()
            .unwrap_or(0)
            .max(snap.graph.n_nodes())
            .max(snap.delta.n_nodes());
        let n_preds = live
            .iter()
            .map(|t| t.p + 1)
            .max()
            .unwrap_or(0)
            .max(snap.graph.n_preds());
        let graph = Graph::new(live, n_nodes, n_preds);
        let ring = Ring::build(&graph, RingOptions::default());
        inner.snap = Arc::new(StoreSnapshot {
            delta: Arc::new(DeltaIndex::empty(graph.n_preds())),
            graph: Arc::new(graph),
            ring: Arc::new(ring),
            epoch: snap.epoch + 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: Id, p: Id, o: Id) -> Triple {
        Triple::new(s, p, o)
    }

    fn base_store() -> TripleStore {
        // 0 -a-> 1 -a-> 2, 2 -b-> 0
        TripleStore::new(Graph::from_triples(vec![
            t(0, 0, 1),
            t(1, 0, 2),
            t(2, 1, 0),
        ]))
        .with_auto_compact_ratio(None)
    }

    #[test]
    fn commit_publishes_atomically_and_bumps_epoch() {
        let store = base_store();
        let before = store.snapshot();
        store.insert(t(2, 0, 0));
        store.delete(t(0, 0, 1));
        assert_eq!(store.pending_ops(), 2);
        // Nothing visible before commit.
        assert!(store.snapshot().contains(0, 0, 1));
        assert!(!store.snapshot().contains(2, 0, 0));
        let epoch = store.commit();
        assert_eq!(epoch, 1);
        let snap = store.snapshot();
        assert!(snap.contains(2, 0, 0));
        assert!(!snap.contains(0, 0, 1));
        // The old snapshot is untouched (readers keep a consistent view).
        assert!(before.contains(0, 0, 1));
        assert!(!before.contains(2, 0, 0));
        assert_eq!(before.epoch, 0);
        // Inverse view through the completed alphabet.
        assert!(snap.contains(0, 2, 2));
        assert!(!snap.contains(1, 2, 0));
    }

    #[test]
    fn tombstone_and_revival_cancel() {
        let store = base_store();
        store.delete(t(0, 0, 1));
        store.insert(t(0, 0, 1)); // revive within one batch
        store.insert(t(5, 1, 5));
        store.delete(t(5, 1, 5)); // cancel an uncommitted add
        store.commit();
        let snap = store.snapshot();
        assert!(snap.delta.is_empty());
        assert!(snap.contains(0, 0, 1));
        assert!(!snap.contains(5, 1, 5));
        // Across batches: delete, commit, re-insert, commit.
        store.delete(t(0, 0, 1));
        store.commit();
        assert!(!store.snapshot().contains(0, 0, 1));
        store.insert(t(0, 0, 1));
        store.commit();
        let snap = store.snapshot();
        assert!(snap.contains(0, 0, 1));
        assert!(snap.delta.is_empty());
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let store = base_store();
        assert_eq!(store.commit(), 0);
        assert_eq!(store.stats().commits, 0);
    }

    #[test]
    fn new_nodes_live_in_the_delta_until_compaction() {
        let store = base_store();
        store.insert(t(2, 1, 9));
        store.commit();
        let snap = store.snapshot();
        assert_eq!(snap.ring.n_nodes(), 3);
        assert_eq!(snap.n_nodes(), 10);
        assert!(snap.contains(2, 1, 9));
        store.compact();
        let snap = store.snapshot();
        assert!(snap.delta.is_empty());
        assert_eq!(snap.ring.n_nodes(), 10);
        assert!(snap.contains(2, 1, 9));
    }

    #[test]
    fn new_predicates_force_a_rebuild_on_commit() {
        let store = base_store();
        store.insert(t(0, 7, 2));
        let epoch = store.commit();
        assert_eq!(epoch, 1);
        let snap = store.snapshot();
        assert!(snap.delta.is_empty());
        assert_eq!(snap.graph.n_preds(), 8);
        assert!(snap.contains(0, 7, 2));
        assert!(snap.contains(0, 0, 1)); // base data survives
        let s = store.stats();
        assert_eq!((s.commits, s.compactions), (1, 1));
    }

    #[test]
    fn compaction_matches_a_clean_build_bit_for_bit() {
        let store = base_store();
        store.delete(t(1, 0, 2));
        store.insert(t(1, 1, 1));
        store.commit();
        let live = store.snapshot().live_triples();
        store.compact();
        let snap = store.snapshot();
        let clean = Ring::build(
            &Graph::new(live, snap.graph.n_nodes(), snap.graph.n_preds()),
            RingOptions::default(),
        );
        let dir = std::env::temp_dir().join(format!("rpq-store-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let index_bytes = |ring: &Ring, name: &str| {
            let path = dir.join(name);
            let empty = crate::Dict::new();
            crate::mapped::write_index(&path, ring, &empty, &empty).unwrap();
            std::fs::read(&path).unwrap()
        };
        let a = index_bytes(&snap.ring, "compacted.rpqm");
        let b = index_bytes(&clean, "clean.rpqm");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(a, b, "compacted ring bytes diverge from a clean build");
    }

    #[test]
    fn auto_compaction_triggers_on_the_size_ratio() {
        let store = TripleStore::new(Graph::from_triples(vec![t(0, 0, 1), t(1, 0, 2)]))
            .with_auto_compact_ratio(Some(0.5));
        store.insert(t(0, 0, 2)); // overlay 1 ≥ 0.5 · 2
        store.commit();
        let snap = store.snapshot();
        assert!(snap.delta.is_empty(), "auto-compaction should have run");
        assert_eq!(store.stats().compactions, 1);
        assert!(snap.contains(0, 0, 2));
    }

    #[test]
    fn deleting_every_edge_keeps_the_node_universe() {
        let store = base_store();
        for tr in store.snapshot().graph.triples().to_vec() {
            store.delete(tr);
        }
        store.commit();
        store.compact();
        let snap = store.snapshot();
        assert_eq!(snap.graph.len(), 0);
        assert_eq!(snap.ring.n_nodes(), 3, "ids stay valid after deletion");
    }

    #[test]
    fn store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TripleStore>();
        assert_send_sync::<StoreSnapshot>();
    }
}
