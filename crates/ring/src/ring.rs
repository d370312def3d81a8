//! The ring index: three wavelet-matrix columns plus boundary arrays,
//! supporting LF-steps, range backward search, and triple-pattern
//! enumeration (§3.4 of the paper).

use std::sync::OnceLock;

use succinct::util::BitSet;
use succinct::{SpaceUsage, WaveletMatrix};

use crate::{Boundaries, Graph, Id, Triple};

/// Representation of the node boundary arrays `C_s`/`C_o`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BoundaryKind {
    /// Plain cumulative word array (fastest, `(|V|+1)·8` bytes).
    Dense,
    /// Unary bit vector with select (§5 uses this for `C_o`).
    #[default]
    Sparse,
    /// Elias–Fano (most compact for large node sets).
    EliasFano,
}

/// Construction options for [`Ring::build`].
#[derive(Clone, Copy, Debug)]
pub struct RingOptions {
    /// Complete the graph with inverse edges `(o, p̂, s)`, `p̂ = p + |P|`,
    /// before indexing — required to evaluate 2RPQs (§5 "Index
    /// construction"). Doubles edges and predicates.
    pub with_inverses: bool,
    /// Representation of the node boundary arrays `C_s`/`C_o` (§5 uses a
    /// plain bitvector for `C_o`; `C_p` is always a dense array).
    pub node_boundaries: BoundaryKind,
}

impl Default for RingOptions {
    fn default() -> Self {
        Self {
            with_inverses: true,
            node_boundaries: BoundaryKind::Sparse,
        }
    }
}

/// The ring index over a (possibly completed) graph.
///
/// ```
/// use ring::{Graph, Ring, Triple};
/// use ring::ring::RingOptions;
///
/// // 0 --0--> 1 --1--> 2
/// let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)]);
/// let ring = Ring::build(&g, RingOptions::default());
///
/// // Inverse edges are indexed: |G↔| = 2·|G|.
/// assert_eq!(ring.n_triples(), 4);
/// assert!(ring.contains(1, 1, 2));
/// assert!(ring.contains(2, ring.inverse_label(1), 1));
///
/// // Backward search: who reaches node 2 by label 1?
/// let mut sources = Vec::new();
/// ring.subjects_for(1, 2, &mut |s| sources.push(s));
/// assert_eq!(sources, vec![1]);
/// ```
#[derive(Clone, Debug)]
pub struct Ring {
    /// Objects in `(s, p, o)` order.
    l_o: WaveletMatrix,
    /// Subjects in `(p, o, s)` order.
    l_s: WaveletMatrix,
    /// Predicates in `(o, s, p)` order.
    l_p: WaveletMatrix,
    /// `C_s[s]` = triples with subject `< s` (partitions `L_o`).
    c_s: Boundaries,
    /// `C_p[p]` = triples with predicate `< p` (partitions `L_s`).
    c_p: Boundaries,
    /// `C_o[o]` = triples with object `< o` (partitions `L_p`).
    c_o: Boundaries,
    n: usize,
    n_nodes: Id,
    /// Completed predicate alphabet size (2·base when inverses are on).
    n_preds: Id,
    /// Base (non-inverse) predicate count.
    n_preds_base: Id,
    has_inverses: bool,
    /// Cache behind [`Ring::subject_occupancy`]: derived from the columns
    /// on first use, never persisted, and not part of [`Ring::size_bytes`]
    /// (it is query working memory, like the engine's mask tables).
    subject_occupancy: OnceLock<BitSet>,
}

impl Ring {
    /// Builds the ring for `graph` with the given options.
    ///
    /// The paper constructs the BWT with a suffix array; sorting the triple
    /// list in the three circular orders yields the identical columns (see
    /// DESIGN.md §2), in `O(n log n)`.
    pub fn build(graph: &Graph, options: RingOptions) -> Self {
        let completed;
        let (g, n_preds_base) = if options.with_inverses {
            completed = graph.completed();
            (&completed, graph.n_preds())
        } else {
            (graph, graph.n_preds())
        };
        let n = g.len();
        let n_nodes = g.n_nodes().max(1);
        let n_preds = g.n_preds().max(1);

        // Three orders; Graph keeps (s,p,o) sorted already. The other two
        // sort their keys by value, whose last component is the column.
        let spo = g.triples();
        let sorted_last = |key: fn(&Triple) -> (Id, Id, Id)| {
            let mut keys: Vec<(Id, Id, Id)> = spo.iter().map(key).collect();
            keys.sort_unstable();
            keys.into_iter().map(|k| k.2).collect::<Vec<u64>>()
        };
        let l_o_syms: Vec<u64> = spo.iter().map(|t| t.o).collect();
        let l_s_syms = sorted_last(Triple::pos_key);
        let l_p_syms = sorted_last(Triple::osp_key);

        let mut subj_counts = vec![0u64; n_nodes as usize];
        let mut obj_counts = vec![0u64; n_nodes as usize];
        let mut pred_counts = vec![0u64; n_preds as usize];
        for t in spo {
            subj_counts[t.s as usize] += 1;
            obj_counts[t.o as usize] += 1;
            pred_counts[t.p as usize] += 1;
        }
        let node_bounds = |counts: &[u64]| match options.node_boundaries {
            BoundaryKind::Dense => Boundaries::dense_from_counts(counts),
            BoundaryKind::Sparse => Boundaries::sparse_from_counts(counts),
            BoundaryKind::EliasFano => Boundaries::elias_fano_from_counts(counts),
        };

        Self {
            l_o: WaveletMatrix::new(&l_o_syms, n_nodes),
            l_s: WaveletMatrix::new(&l_s_syms, n_nodes),
            l_p: WaveletMatrix::new(&l_p_syms, n_preds),
            c_s: node_bounds(&subj_counts),
            c_p: Boundaries::dense_from_counts(&pred_counts),
            c_o: node_bounds(&obj_counts),
            n,
            n_nodes,
            n_preds,
            n_preds_base,
            has_inverses: options.with_inverses,
            subject_occupancy: OnceLock::new(),
        }
    }

    /// Number of indexed triples (after completion, if enabled).
    pub fn n_triples(&self) -> usize {
        self.n
    }

    /// Node universe size.
    pub fn n_nodes(&self) -> Id {
        self.n_nodes
    }

    /// Completed predicate alphabet size.
    pub fn n_preds(&self) -> Id {
        self.n_preds
    }

    /// Base (pre-completion) predicate count.
    pub fn n_preds_base(&self) -> Id {
        self.n_preds_base
    }

    /// Whether inverse edges are indexed.
    pub fn has_inverses(&self) -> bool {
        self.has_inverses
    }

    /// The inversion involution `p ↔ p̂` over the completed alphabet.
    ///
    /// # Panics
    /// Panics if the ring was built without inverses.
    #[inline]
    pub fn inverse_label(&self, p: Id) -> Id {
        assert!(self.has_inverses, "ring built without inverse edges");
        if p < self.n_preds_base {
            p + self.n_preds_base
        } else {
            p - self.n_preds_base
        }
    }

    /// The wavelet matrix of `L_p` (predicates in `(o, s)` order).
    pub fn l_p(&self) -> &WaveletMatrix {
        &self.l_p
    }

    /// The wavelet matrix of `L_s` (subjects in `(p, o)` order).
    pub fn l_s(&self) -> &WaveletMatrix {
        &self.l_s
    }

    /// The wavelet matrix of `L_o` (objects in `(s, p)` order).
    pub fn l_o(&self) -> &WaveletMatrix {
        &self.l_o
    }

    /// The boundary array `C_s` (for persistence).
    pub fn c_s_ref(&self) -> &Boundaries {
        &self.c_s
    }

    /// The boundary array `C_p` (for persistence).
    pub fn c_p_ref(&self) -> &Boundaries {
        &self.c_p
    }

    /// The boundary array `C_o` (for persistence).
    pub fn c_o_ref(&self) -> &Boundaries {
        &self.c_o
    }

    /// Reassembles a ring from persisted parts. Intended for
    /// [`crate::mapped`]; the caller is responsible for consistency (the
    /// loader validates lengths, alphabets and totals).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        l_o: WaveletMatrix,
        l_s: WaveletMatrix,
        l_p: WaveletMatrix,
        c_s: Boundaries,
        c_p: Boundaries,
        c_o: Boundaries,
        n: usize,
        n_nodes: Id,
        n_preds: Id,
        n_preds_base: Id,
        has_inverses: bool,
    ) -> Self {
        Self {
            l_o,
            l_s,
            l_p,
            c_s,
            c_p,
            c_o,
            n,
            n_nodes,
            n_preds,
            n_preds_base,
            has_inverses,
            subject_occupancy: OnceLock::new(),
        }
    }

    /// The block of object `o` in `L_p` — the starting range of the RPQ
    /// traversal (§4).
    #[inline]
    pub fn object_range(&self, o: Id) -> (usize, usize) {
        self.c_o.block(o)
    }

    /// The block of subject `s` in `L_o`.
    #[inline]
    pub fn subject_range(&self, s: Id) -> (usize, usize) {
        self.c_s.block(s)
    }

    /// The block of predicate `p` in `L_s`.
    #[inline]
    pub fn pred_range(&self, p: Id) -> (usize, usize) {
        self.c_p.block(p)
    }

    /// The whole of `L_p`: every triple, i.e. every object — the starting
    /// range of variable-to-variable queries (§4.4).
    #[inline]
    pub fn full_range(&self) -> (usize, usize) {
        (0, self.n)
    }

    /// The object owning position `i` of `L_p`.
    #[inline]
    pub fn object_of_lp_position(&self, i: usize) -> Id {
        self.c_o.owner(i)
    }

    /// `C_o[o]` (needed by part three of the traversal, §4.3).
    #[inline]
    pub fn c_o_get(&self, o: Id) -> usize {
        self.c_o.get(o)
    }

    /// Backward-search step by predicate (Eqs. 4–5): maps a range of `L_p`
    /// (triples grouped by object) to the range of `L_s` holding the
    /// subjects of those triples that carry predicate `p`.
    #[inline]
    pub fn backward_step_by_pred(&self, (b, e): (usize, usize), p: Id) -> (usize, usize) {
        let base = self.c_p.get(p);
        (base + self.l_p.rank(p, b), base + self.l_p.rank(p, e))
    }

    /// Batched [`Self::backward_step_by_pred`]: maps every range of
    /// `ranges` (over `L_p`) to its subject range in `L_s` in one pass,
    /// appending to `out`. All the ranges step by the *same* predicate, so
    /// the per-level node-start chain of the wavelet rank is shared across
    /// the batch ([`WaveletMatrix::rank_batch`]) — the LF-walk/backward-step
    /// helper the batched frontier expansion uses.
    pub fn backward_step_by_pred_multi(
        &self,
        ranges: &[(usize, usize)],
        p: Id,
        out: &mut Vec<(usize, usize)>,
    ) {
        let base = self.c_p.get(p);
        let mut pos: Vec<usize> = Vec::with_capacity(ranges.len() * 2);
        for &(b, e) in ranges {
            pos.push(b);
            pos.push(e);
        }
        self.l_p.rank_batch(p, &mut pos);
        out.extend(pos.chunks_exact(2).map(|c| (base + c[0], base + c[1])));
    }

    /// Batched [`Self::backward_step_by_subject`] (ranges over `L_s`,
    /// results over `L_o`), sharing the rank chain like
    /// [`Self::backward_step_by_pred_multi`].
    pub fn backward_step_by_subject_multi(
        &self,
        ranges: &[(usize, usize)],
        s: Id,
        out: &mut Vec<(usize, usize)>,
    ) {
        let base = self.c_s.get(s);
        let mut pos: Vec<usize> = Vec::with_capacity(ranges.len() * 2);
        for &(b, e) in ranges {
            pos.push(b);
            pos.push(e);
        }
        self.l_s.rank_batch(s, &mut pos);
        out.extend(pos.chunks_exact(2).map(|c| (base + c[0], base + c[1])));
    }

    /// Backward-search step by subject: maps a range of `L_s` to the range
    /// of `L_o` holding the objects of those triples with subject `s`.
    #[inline]
    pub fn backward_step_by_subject(&self, (b, e): (usize, usize), s: Id) -> (usize, usize) {
        let base = self.c_s.get(s);
        (base + self.l_s.rank(s, b), base + self.l_s.rank(s, e))
    }

    /// Backward-search step by object: maps a range of `L_o` to the range
    /// of `L_p` holding the predicates of those triples with object `o`.
    #[inline]
    pub fn backward_step_by_object(&self, (b, e): (usize, usize), o: Id) -> (usize, usize) {
        let base = self.c_o.get(o);
        (base + self.l_o.rank(o, b), base + self.l_o.rank(o, e))
    }

    /// LF-step on `L_p` (Eq. 3): position of the triple at `L_p[i]` in `L_s`.
    #[inline]
    pub fn lf_p(&self, i: usize) -> usize {
        let c = self.l_p.access(i);
        self.c_p.get(c) + self.l_p.rank(c, i)
    }

    /// LF-step on `L_s`: position of the triple at `L_s[i]` in `L_o`.
    #[inline]
    pub fn lf_s(&self, i: usize) -> usize {
        let c = self.l_s.access(i);
        self.c_s.get(c) + self.l_s.rank(c, i)
    }

    /// LF-step on `L_o`: position of the triple at `L_o[i]` in `L_p`.
    #[inline]
    pub fn lf_o(&self, i: usize) -> usize {
        let c = self.l_o.access(i);
        self.c_o.get(c) + self.l_o.rank(c, i)
    }

    /// Decodes the triple referenced by position `i` of `L_p`, walking the
    /// ring as in the §3.4 example.
    pub fn triple_at_lp(&self, i: usize) -> Triple {
        let p = self.l_p.access(i);
        let o = self.c_o.owner(i);
        let s = self.l_s.access(self.lf_p(i));
        Triple::new(s, p, o)
    }

    /// Iterates all indexed triples in `L_p` order — position `i` yields
    /// [`Self::triple_at_lp`]`(i)` — by decoding `L_p` and `L_s` whole.
    /// The LF-step becomes a running count per predicate (`C_p[c]` plus
    /// the `c`s seen so far) and the object advances at the `C_o` block
    /// ends, so no position costs a rank: `O(n log σ)` sequential work.
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        let l_p = self.l_p.decode_all();
        let l_s = self.l_s.decode_all();
        let mut next: Vec<usize> = (0..self.n_preds).map(|c| self.c_p.get(c)).collect();
        let (mut o, mut o_end) = (0, self.c_o.get(1));
        l_p.into_iter().enumerate().map(move |(i, p)| {
            while i >= o_end {
                o += 1;
                o_end = self.c_o.get(o + 1);
            }
            let j = &mut next[p as usize];
            *j += 1;
            Triple::new(l_s[*j - 1], p, o)
        })
    }

    /// The base triples `p < n_preds_base` (the ring stores `G↔`, so this
    /// drops the inverse half), decoded in `L_p` order.
    pub fn base_triples(&self) -> Vec<Triple> {
        let base = self.n_preds_base;
        self.iter_triples().filter(|t| t.p < base).collect()
    }

    /// Number of base triples: `C_p[n_preds_base]`, in `O(1)`.
    pub fn n_base_triples(&self) -> usize {
        self.c_p.get(self.n_preds_base)
    }

    /// Whether `(s, p, o)` is indexed.
    pub fn contains(&self, s: Id, p: Id, o: Id) -> bool {
        if s >= self.n_nodes || p >= self.n_preds || o >= self.n_nodes {
            return false;
        }
        let r = self.backward_step_by_subject(self.pred_range(p), s);
        self.l_o.rank(o, r.1) > self.l_o.rank(o, r.0)
    }

    /// Calls `f(s)` for each distinct subject with an edge `s --p--> o`.
    pub fn subjects_for(&self, p: Id, o: Id, f: &mut impl FnMut(Id)) {
        let r = self.backward_step_by_pred(self.object_range(o), p);
        self.l_s.range_distinct(r.0, r.1, &mut |s, _, _| f(s));
    }

    /// Calls `f(o)` for each distinct object with an edge `s --p--> o`.
    pub fn objects_for(&self, s: Id, p: Id, f: &mut impl FnMut(Id)) {
        let r = self.backward_step_by_subject(self.pred_range(p), s);
        self.l_o.range_distinct(r.0, r.1, &mut |o, _, _| f(o));
    }

    /// Number of edges labeled `p` (predicate cardinality; drives the
    /// query-planning heuristic of §5 "we choose to start from the end
    /// whose predicate has the smallest cardinality").
    #[inline]
    pub fn pred_cardinality(&self, p: Id) -> usize {
        let (b, e) = self.pred_range(p);
        e - b
    }

    /// `occ[v]` over the wavelet nodes of `L_s` (heap-ordered, see
    /// [`WaveletMatrix::node_index`]): whether any subject below node `v`
    /// occurs in the sequence. It drives the intersection semantics of
    /// the engine's `D[v]` masks (§4.2), where subject-free subtrees count
    /// as saturated. Computed once per ring on first call, in
    /// `O(|V| + |L_s nodes|)`, and shared by every engine over the ring.
    pub fn subject_occupancy(&self) -> &BitSet {
        self.subject_occupancy.get_or_init(|| {
            let width = self.l_s.width();
            // Leaves: a node acts as a subject iff its subject block is
            // non-empty. Internal nodes OR their children, bottom-up.
            let mut occ = BitSet::new(self.l_s.node_table_len());
            for s in 0..self.n_nodes {
                let (b, e) = self.subject_range(s);
                if e > b {
                    occ.set(WaveletMatrix::node_index(width, s));
                }
            }
            for level in (0..width).rev() {
                for prefix in 0..1u64 << level {
                    let l = WaveletMatrix::node_index(level + 1, prefix << 1);
                    if occ.get(l) || occ.get(l + 1) {
                        occ.set(WaveletMatrix::node_index(level, prefix));
                    }
                }
            }
            occ
        })
    }

    /// Index heap size in bytes (Table 2 accounting).
    pub fn size_bytes(&self) -> usize {
        self.l_o.size_bytes()
            + self.l_s.size_bytes()
            + self.l_p.size_bytes()
            + self.c_s.size_bytes()
            + self.c_p.size_bytes()
            + self.c_o.size_bytes()
    }

    /// Index size excluding `L_o`, which the RPQ algorithm never reads
    /// (§4: "we use the wavelet trees representing sequences L_p and L_s,
    /// as well as all the arrays C"). Reported alongside the full ring in
    /// the space experiment.
    pub fn size_bytes_rpq_only(&self) -> usize {
        self.size_bytes() - self.l_o.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dict;

    /// The paper's running example (Figs. 1 and 3), 0-based:
    /// nodes SA=0, UCh=1, LH=2, BA=3, Baq=4;
    /// predicates l1=0, l2=1, l5=2, bus=3, ^bus=4.
    /// The graph is pre-completed exactly as the paper does it (metro lines
    /// bidirectional as explicit edges; only `bus` gets `^bus` inverses).
    pub(crate) fn paper_graph() -> Graph {
        const SA: Id = 0;
        const UCH: Id = 1;
        const LH: Id = 2;
        const BA: Id = 3;
        const BAQ: Id = 4;
        const L1: Id = 0;
        const L2: Id = 1;
        const L5: Id = 2;
        const BUS: Id = 3;
        const BUSI: Id = 4;
        let t = |s, p, o| Triple::new(s, p, o);
        Graph::new(
            vec![
                // l1: Baq<->UCh, UCh<->LH
                t(BAQ, L1, UCH),
                t(UCH, L1, BAQ),
                t(UCH, L1, LH),
                t(LH, L1, UCH),
                // l2: LH<->SA
                t(LH, L2, SA),
                t(SA, L2, LH),
                // l5: SA<->BA, BA<->Baq
                t(SA, L5, BA),
                t(BA, L5, SA),
                t(BA, L5, BAQ),
                t(BAQ, L5, BA),
                // bus: SA->UCh, UCh->BA, BA->SA, with explicit inverses
                t(SA, BUS, UCH),
                t(UCH, BUS, BA),
                t(BA, BUS, SA),
                t(UCH, BUSI, SA),
                t(BA, BUSI, UCH),
                t(SA, BUSI, BA),
            ],
            5,
            5,
        )
    }

    fn paper_ring() -> Ring {
        Ring::build(
            &paper_graph(),
            RingOptions {
                with_inverses: false, // the fixture is already completed
                node_boundaries: BoundaryKind::Sparse,
            },
        )
    }

    /// Fig. 3: the exact contents of the three columns (converted to
    /// 0-based ids).
    #[test]
    fn fig3_columns() {
        let r = paper_ring();
        assert_eq!(r.n_triples(), 16);
        let col = |wm: &WaveletMatrix| (0..16).map(|i| wm.access(i)).collect::<Vec<_>>();
        // L_o (objects in spo order), derived in the paper's Fig. 3 top row.
        assert_eq!(
            col(r.l_o()),
            vec![2, 3, 1, 3, 2, 4, 3, 0, 1, 0, 0, 4, 0, 1, 1, 3]
        );
        // L_s (subjects in pos order).
        assert_eq!(
            col(r.l_s()),
            vec![2, 4, 1, 1, 2, 0, 3, 0, 4, 3, 3, 0, 1, 1, 3, 0]
        );
        // L_p (predicates in osp order).
        assert_eq!(
            col(r.l_p()),
            vec![4, 1, 2, 3, 3, 0, 4, 0, 1, 0, 2, 4, 3, 2, 0, 2]
        );
    }

    /// Fig. 3's C_o and the §3.4 worked example: the triple at (1-based)
    /// L_p[16] is BA --l5--> Baq, with LF_p(16) = 10 and LF_s(10) = 12 and
    /// LF_o(12) = 16.
    #[test]
    fn fig3_lf_walk() {
        let r = paper_ring();
        // C_o = [0,4,8,10,14,16]
        for (c, expected) in [0usize, 4, 8, 10, 14, 16].into_iter().enumerate() {
            assert_eq!(r.c_o_get(c as Id), expected, "C_o[{c}]");
        }
        // 0-based: position 15 of L_p.
        assert_eq!(r.l_p().access(15), 2); // l5
        assert_eq!(r.object_of_lp_position(15), 4); // Baq
        assert_eq!(r.lf_p(15), 9); // paper: LF_p(16) = 10
        assert_eq!(r.l_s().access(9), 3); // BA
        assert_eq!(r.lf_s(9), 11); // paper: LF_s(10) = 12
        assert_eq!(r.l_o().access(11), 4); // Baq
        assert_eq!(r.lf_o(11), 15); // paper: LF_o(12) = 16 — the cycle closes
        assert_eq!(r.triple_at_lp(15), Triple::new(3, 2, 4)); // BA --l5--> Baq
    }

    /// The §3.4 backward-search example: from L_p[11..14] (object BA,
    /// 1-based) by l5 we reach L_s[8..9] = ⟨SA, Baq⟩.
    #[test]
    fn fig3_backward_search() {
        let r = paper_ring();
        let ba_range = r.object_range(3);
        assert_eq!(ba_range, (10, 14)); // 1-based [11..14]
        let l5_sources = r.backward_step_by_pred(ba_range, 2);
        assert_eq!(l5_sources, (7, 9)); // 1-based [8..9]
        assert_eq!(r.l_s().access(7), 0); // SA
        assert_eq!(r.l_s().access(8), 4); // Baq
                                          // And by ^bus we reach L_s[16..16] = ⟨SA⟩.
        let busi_sources = r.backward_step_by_pred(ba_range, 4);
        assert_eq!(busi_sources, (15, 16));
        assert_eq!(r.l_s().access(15), 0); // SA
    }

    /// Fig. 4's worked example: on the wavelet tree of `L_p`,
    /// `rank_bus(L_p, 5) = 2` (1-based) and `C_p[bus] + 2 = LF_p(5) = 12`.
    #[test]
    fn fig4_wavelet_rank_walk() {
        let r = paper_ring();
        let lp_syms: Vec<u64> = (0..16).map(|i| r.l_p().access(i)).collect();
        let wt = succinct::WaveletTree::new(&lp_syms, 5);
        // 0-based: symbol 3 = bus (paper id 4), prefix of length 5.
        assert_eq!(wt.rank(3, 5), 2);
        assert_eq!(r.l_p().rank(3, 5), 2);
        // C_p[bus] = 10 (l1:4 + l2:2 + l5:4); the tracked position is
        // LF_p(5) = 12, i.e. 0-based lf_p(4) = 11.
        assert_eq!(r.pred_range(3).0, 10);
        assert_eq!(r.l_p().access(4), 3);
        assert_eq!(r.lf_p(4), 11);
    }

    #[test]
    fn roundtrip_all_triples() {
        let g = paper_graph();
        let r = paper_ring();
        let mut decoded: Vec<Triple> = r.iter_triples().collect();
        decoded.sort_unstable();
        assert_eq!(decoded, g.triples());
        for t in g.triples() {
            assert!(r.contains(t.s, t.p, t.o), "{t}");
        }
        assert!(!r.contains(0, 0, 0));
        assert!(!r.contains(99, 0, 0));
    }

    #[test]
    fn lf_cycle_is_identity() {
        let r = paper_ring();
        for i in 0..r.n_triples() {
            let j = r.lf_p(i);
            let k = r.lf_s(j);
            assert_eq!(r.lf_o(k), i, "LF cycle from L_p position {i}");
        }
    }

    #[test]
    fn automatic_completion_inverse_labels() {
        let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)]);
        let r = Ring::build(&g, RingOptions::default());
        assert_eq!(r.n_triples(), 4);
        assert_eq!(r.n_preds(), 4);
        assert_eq!(r.n_preds_base(), 2);
        assert_eq!(r.inverse_label(0), 2);
        assert_eq!(r.inverse_label(3), 1);
        assert!(r.contains(1, 2, 0));
        assert!(r.contains(2, 3, 1));
    }

    #[test]
    fn batched_backward_steps_match_single() {
        let r = paper_ring();
        let ranges: Vec<(usize, usize)> = (0..5).map(|o| r.object_range(o)).collect();
        for p in 0..5 {
            let mut batched = Vec::new();
            r.backward_step_by_pred_multi(&ranges, p, &mut batched);
            let single: Vec<(usize, usize)> = ranges
                .iter()
                .map(|&rg| r.backward_step_by_pred(rg, p))
                .collect();
            assert_eq!(batched, single, "pred {p}");
        }
        let ls_ranges: Vec<(usize, usize)> = (0..5).map(|p| r.pred_range(p)).collect();
        for s in 0..5 {
            let mut batched = Vec::new();
            r.backward_step_by_subject_multi(&ls_ranges, s, &mut batched);
            let single: Vec<(usize, usize)> = ls_ranges
                .iter()
                .map(|&rg| r.backward_step_by_subject(rg, s))
                .collect();
            assert_eq!(batched, single, "subject {s}");
        }
    }

    #[test]
    fn pattern_enumeration() {
        let r = paper_ring();
        // Subjects reaching BA (3) by l5 (2): SA (0) and Baq (4).
        let mut subs = Vec::new();
        r.subjects_for(2, 3, &mut |s| subs.push(s));
        assert_eq!(subs, vec![0, 4]);
        // Objects from UCh (1) by l1 (0): Baq (4) and LH (2).
        let mut objs = Vec::new();
        r.objects_for(1, 0, &mut |o| objs.push(o));
        assert_eq!(objs, vec![2, 4]);
        // Cardinalities: l1 has 4 edges, bus has 3.
        assert_eq!(r.pred_cardinality(0), 4);
        assert_eq!(r.pred_cardinality(3), 3);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_triples(vec![]);
        let r = Ring::build(&g, RingOptions::default());
        assert_eq!(r.n_triples(), 0);
        assert_eq!(r.full_range(), (0, 0));
        assert_eq!(r.iter_triples().count(), 0);
        assert!(!r.contains(0, 0, 0));
    }

    #[test]
    fn dense_and_sparse_boundaries_agree() {
        let g = paper_graph();
        let sparse = paper_ring();
        for kind in [BoundaryKind::Dense, BoundaryKind::EliasFano] {
            let other = Ring::build(
                &g,
                RingOptions {
                    with_inverses: false,
                    node_boundaries: kind,
                },
            );
            for o in 0..=5 {
                assert_eq!(other.c_o_get(o), sparse.c_o_get(o), "{kind:?}");
            }
            for i in 0..16 {
                assert_eq!(
                    other.object_of_lp_position(i),
                    sparse.object_of_lp_position(i)
                );
                assert_eq!(other.lf_p(i), sparse.lf_p(i));
            }
        }
    }

    /// The per-node recomputation the engine used to run on every
    /// construction: a leaf is set iff the node's subject block is
    /// non-empty, and an internal node iff either child is.
    fn occupancy_by_recomputation(ring: &Ring) -> BitSet {
        let width = ring.l_s().width();
        let mut occ = BitSet::new(ring.l_s().node_table_len());
        for s in 0..ring.n_nodes() {
            let (b, e) = ring.subject_range(s);
            if e > b {
                occ.set(WaveletMatrix::node_index(width, s));
            }
        }
        for level in (0..width).rev() {
            for prefix in 0..1u64 << level {
                let l = WaveletMatrix::node_index(level + 1, prefix << 1);
                if occ.get(l) || occ.get(l + 1) {
                    occ.set(WaveletMatrix::node_index(level, prefix));
                }
            }
        }
        occ
    }

    /// Checks the cached occupancy against the recomputation and against
    /// its definition read straight off `L_s` (a subject occurs below
    /// node `v`), and that caching it leaves the index size unchanged.
    fn assert_occupancy_matches(ring: &Ring, what: &str) {
        let size = ring.size_bytes();
        let occ = ring.subject_occupancy();
        let expected = occupancy_by_recomputation(ring);
        let ls = ring.l_s();
        let width = ls.width();
        assert_eq!(occ.len(), expected.len(), "{what}: table length");
        for level in 0..=width {
            for prefix in 0..1u64 << level {
                let v = WaveletMatrix::node_index(level, prefix);
                let shift = width - level;
                let below =
                    ls.range_count_within(0, ls.len(), prefix << shift, (prefix + 1) << shift) > 0;
                assert_eq!(
                    occ.get(v),
                    expected.get(v),
                    "{what}: node ({level}, {prefix})"
                );
                assert_eq!(occ.get(v), below, "{what}: node ({level}, {prefix}) vs L_s");
            }
        }
        assert!(
            std::ptr::eq(occ, ring.subject_occupancy()),
            "{what}: computed once"
        );
        assert_eq!(
            ring.size_bytes(),
            size,
            "{what}: occupancy counted as index space"
        );
    }

    #[test]
    fn subject_occupancy_matches_per_node_recomputation() {
        // Nodes 5, 7 and 9 have no edges at all; 2 and 8 only in-edges
        // (subjects only once inverses complete the graph).
        let with_isolated = Graph::new(
            vec![
                Triple::new(0, 0, 1),
                Triple::new(1, 1, 2),
                Triple::new(3, 0, 2),
                Triple::new(4, 2, 8),
                Triple::new(6, 1, 0),
            ],
            10,
            3,
        );
        let graphs = [
            ("paper", paper_graph()),
            ("isolated", with_isolated),
            ("empty", Graph::new(vec![], 0, 0)),
        ];
        let dir = std::env::temp_dir().join(format!("rpq_ring_occ_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, graph) in &graphs {
            for kind in [
                BoundaryKind::Dense,
                BoundaryKind::Sparse,
                BoundaryKind::EliasFano,
            ] {
                for with_inverses in [true, false] {
                    let options = RingOptions {
                        with_inverses,
                        node_boundaries: kind,
                    };
                    let what = format!("{name} {kind:?} inverses={with_inverses}");
                    let ring = Ring::build(graph, options);
                    assert_occupancy_matches(&ring, &format!("{what} heap"));
                    let path = dir.join(format!("{name}_{kind:?}_{with_inverses}.rpqm"));
                    let dict = |n: Id| {
                        let mut d = Dict::new();
                        for i in 0..n {
                            d.intern(&i.to_string());
                        }
                        d
                    };
                    let (nodes, preds) = (dict(graph.n_nodes()), dict(graph.n_preds()));
                    crate::mapped::write_index(&path, &ring, &nodes, &preds).unwrap();
                    let mode = if cfg!(all(unix, target_pointer_width = "64")) {
                        crate::mapped::OpenMode::Mmap
                    } else {
                        crate::mapped::OpenMode::Heap
                    };
                    let reopened = crate::mapped::open_index(&path, mode).unwrap();
                    assert_occupancy_matches(&reopened.ring, &format!("{what} reopened"));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
