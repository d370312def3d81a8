//! The Ring-RPQ evaluation engine (§4 of the paper).

use automata::glushkov::INITIAL;
use automata::{BitParallel, Label};
use ring::delta::DeltaIndex;
use ring::{Id, Ring};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use succinct::util::{BitSet, EpochArray};
use succinct::wavelet_matrix::{
    MultiRangeGuide, MultiTraversal, RangeGuide, RangeSweep, SweepGuide,
};
use succinct::WaveletMatrix;

use crate::pairbuf::PairBuffer;
use crate::plan::{EvalRoute, PreparedQuery};
use crate::planner::{self, Direction};
use crate::profile::{LevelProf, QueryProfile};
use crate::query::{EngineOptions, QueryOutput, RpqQuery, Term, TraversalStats};
use crate::source::{MergedView, ShardPart, TripleSource};
use crate::stats::RingStatistics;
use crate::{fastpath, merged, QueryError};

/// Frontier items batched through one `L_p` traversal at a time (bounds
/// the per-level scratch; a BFS level larger than this is processed in
/// chunks, in order).
const FRONTIER_CHUNK: usize = 1024;

/// The RPQ engine: borrows a [`Ring`] and owns the per-query working
/// memory (the `B[v]`, `D[v]` and `D[s]` mask tables with constant-time
/// lazy reset, §4.1–4.2). Construction is *O*(1) and allocates nothing:
/// the mask tables are allocated by the first pure-path traversal, so an
/// engine over a layered source (delta or shards) never holds them.
///
/// ```
/// use automata::Regex;
/// use ring::{Graph, Ring, Triple};
/// use ring::ring::RingOptions;
/// use rpq_core::{EngineOptions, RpqEngine, RpqQuery, Term};
///
/// // 0 --a--> 1 --a--> 2 --b--> 3
/// let g = Graph::from_triples(vec![
///     Triple::new(0, 0, 1),
///     Triple::new(1, 0, 2),
///     Triple::new(2, 1, 3),
/// ]);
/// let ring = Ring::build(&g, RingOptions::default());
/// let mut engine = RpqEngine::new(&ring);
///
/// // (x, a*/b, 3): all nodes reaching 3 by a-steps then one b.
/// let expr = Regex::concat(Regex::Star(Box::new(Regex::label(0))), Regex::label(1));
/// let q = RpqQuery::new(Term::Var, expr, Term::Const(3));
/// let out = engine.evaluate(&q, &EngineOptions::default()).unwrap();
/// assert_eq!(out.sorted_pairs(), vec![(0, 3), (1, 3), (2, 3)]);
/// ```
pub struct RpqEngine<'r> {
    ring: &'r Ring,
    /// The committed delta overlay of an updatable source, when present
    /// and non-empty. Routes evaluation through the merged (ring ⊎
    /// delta) expansion; `None` keeps the pure succinct hot path.
    delta: Option<&'r DeltaIndex>,
    /// The shard partition of a sharded source (empty = unsharded;
    /// `shards[0].ring` is `ring`). Like a delta, a non-empty partition
    /// routes every evaluation through the merged expansion — the
    /// extra shards are gathered after each base-ring step.
    shards: &'r [ShardPart],
    /// `B[v]` masks over the wavelet nodes of `L_p`, heap-ordered. Empty
    /// until the first pure-path traversal (`ensure_pure_tables`).
    lp_masks: EpochArray,
    /// `D[v]`/`D[s]` masks over the wavelet nodes of `L_s`; the leaf level
    /// (`node_index(width, s)`) holds the per-graph-node visited sets, and
    /// internal nodes hold the intersection of the visited sets below them
    /// (subject-free subtrees counting as saturated, per
    /// [`Ring::subject_occupancy`]). Allocated together with `lp_masks`.
    ls_masks: EpochArray,
    /// Reusable frontier-batching scratch (buffers persist across
    /// queries; no per-query allocation on the traversal hot path).
    scratch: TraverseScratch,
    /// Per-node visited masks of the merged traversal (empty until the
    /// first delta-backed evaluation; `O(1)` reset afterwards).
    merged_masks: EpochArray,
    /// The most threads the *current* evaluation may fan frontier work
    /// across — the [`Plan::intra_query_threads`] cap, stashed here by
    /// `evaluate_prepared` so the traversal internals need no extra
    /// parameter. 1 = the calling thread only.
    ///
    /// [`Plan::intra_query_threads`]: crate::planner::Plan::intra_query_threads
    active_threads: usize,
    /// Per-level profile collector of the *current* evaluation, present
    /// iff [`EngineOptions::profile`] was set — same stashing pattern as
    /// `active_threads`, so the traversal internals need no extra
    /// parameter. `None` (profiling off) costs one pointer check per
    /// BFS level.
    prof_levels: Option<LevelProf>,
}

/// Scratch buffers for the frontier-batched backward traversal.
#[derive(Default)]
struct TraverseScratch {
    /// Part-one scratch of the direct loop.
    part_one: PartOne,
    /// The current BFS level: `(range of L_p, state mask)` per item.
    frontier: Vec<(usize, usize, u64)>,
    /// The next BFS level, accumulated while the current one is processed.
    next_frontier: Vec<(usize, usize, u64)>,
    /// Direct-loop part-two output: `(subject, fresh states)`.
    subjects: Vec<(Id, u64)>,
    /// Two-phase levels' chunk plans.
    chunks: Vec<ChunkPlan>,
}

/// Where a backward traversal starts.
enum Start {
    /// From one object's `L_p` block (queries with a constant endpoint).
    Object(Id),
    /// From the full `L_p` range — all objects at once (§4.4).
    Full,
}

/// Why a backward traversal stopped early (if it did).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Ran to completion (or the report callback asked to stop).
    Completed,
    /// The wall-clock deadline passed.
    TimedOut,
    /// The product-node budget ran out.
    Budget,
}

impl<'r> RpqEngine<'r> {
    /// Creates an engine over `ring`, in *O*(1).
    pub fn new(ring: &'r Ring) -> Self {
        Self::with_delta(ring, None)
    }

    /// Creates an engine over any [`TripleSource`] — an immutable ring,
    /// a store snapshot whose delta overlay the engine merges into every
    /// expansion step, or a sharded source whose parts it
    /// scatter-gathers.
    pub fn over<S: TripleSource + ?Sized>(source: &'r S) -> Self {
        let mut engine = Self::with_delta(source.ring(), source.delta());
        engine.shards = source.shard_parts();
        engine
    }

    /// Creates an engine over a ring plus an optional delta overlay (an
    /// empty delta selects the pure path).
    pub fn with_delta(ring: &'r Ring, delta: Option<&'r DeltaIndex>) -> Self {
        Self {
            lp_masks: EpochArray::new(0),
            ls_masks: EpochArray::new(0),
            scratch: TraverseScratch::default(),
            merged_masks: EpochArray::new(0),
            active_threads: 1,
            prof_levels: None,
            ring,
            delta: delta.filter(|d| !d.is_empty()),
            shards: &[],
        }
    }

    /// The underlying ring (borrowed for the engine's full lifetime, so
    /// the reference outlives any `&mut self` evaluation borrow).
    pub fn ring(&self) -> &'r Ring {
        self.ring
    }

    /// Whether evaluation must go through the merged expansion (a delta
    /// overlay or a multi-shard partition is layered over the base
    /// ring); `false` keeps the pure succinct hot path.
    pub(crate) fn layered(&self) -> bool {
        self.delta.is_some() || !self.shards.is_empty()
    }

    /// The merged step-level view of this engine's source.
    pub(crate) fn view(&self) -> MergedView<'r> {
        MergedView::with_shards(self.ring, self.delta, self.shards)
    }

    /// The evaluation node universe (ring nodes plus delta nodes; shard
    /// universes are global by construction, but max defensively).
    fn n_nodes_universe(&self) -> Id {
        let shard_max = self.shards.iter().map(|p| p.ring.n_nodes()).max();
        self.ring
            .n_nodes()
            .max(self.delta.map_or(0, |d| d.n_nodes()))
            .max(shard_max.unwrap_or(0))
    }

    /// Bytes of per-query working memory (the `D` and `B` tables of
    /// Table 2's working-space accounting). Sized from the ring, so the
    /// figure is the same before and after the first query allocates
    /// the tables.
    pub fn working_space_bytes(&self) -> usize {
        EpochArray::size_bytes_for(self.ring.l_p().node_table_len())
            + EpochArray::size_bytes_for(self.ring.l_s().node_table_len())
    }

    /// Allocates the pure path's `B`/`D` mask tables on first use.
    fn ensure_pure_tables(&mut self) {
        if self.lp_masks.is_empty() {
            self.lp_masks = EpochArray::new(self.ring.l_p().node_table_len());
            self.ls_masks = EpochArray::new(self.ring.l_s().node_table_len());
        }
    }

    /// Evaluates a 2RPQ under the given options: compiles a one-shot
    /// [`PreparedQuery`] and runs [`Self::evaluate_prepared`]. Callers
    /// that re-run the same pattern (a server's plan cache) should
    /// compile once and call `evaluate_prepared` directly.
    pub fn evaluate(
        &mut self,
        query: &RpqQuery,
        opts: &EngineOptions,
    ) -> Result<QueryOutput, QueryError> {
        // Checked again by evaluate_prepared, but compilation itself
        // reverses the expression through `inverse_label`, which needs the
        // completed alphabet.
        if !self.ring.has_inverses() {
            return Err(QueryError::InversesRequired);
        }
        let plan = PreparedQuery::compile(
            &query.expr,
            &|l| self.ring.inverse_label(l),
            opts.bp_split_width,
        )?;
        self.evaluate_prepared(&plan, query.subject, query.object, opts)
    }

    /// Evaluates a precompiled query anchored at the given endpoints.
    ///
    /// The route, traversal direction and (possible) rare-label split
    /// come from the shared cost-based planner
    /// ([`crate::planner::plan`]); the decision actually executed is
    /// recorded in [`QueryOutput::plan`], so callers — `explain`, a
    /// server's metrics — observe exactly what ran. The prepared
    /// query's transition tables are used as-is (the
    /// `opts.bp_split_width` of this call is ignored); everything else
    /// in `opts` — limits, timeout, node budget, fast paths, pruning,
    /// route forcing — applies per call.
    pub fn evaluate_prepared(
        &mut self,
        prepared: &PreparedQuery,
        subject: Term,
        object: Term,
        opts: &EngineOptions,
    ) -> Result<QueryOutput, QueryError> {
        if !self.ring.has_inverses() {
            return Err(QueryError::InversesRequired);
        }
        for t in [subject, object] {
            if let Term::Const(c) = t {
                if c >= self.n_nodes_universe() {
                    return Err(QueryError::NodeOutOfRange(c));
                }
            }
        }
        // Profiling clocks: read only when `opts.profile` is set, so the
        // unprofiled path stays exactly as before. The planner never
        // sees the flag — plans, and therefore answers, are identical
        // either way.
        let prof_t0 = opts.profile.then(Instant::now);
        let plan = planner::plan(
            &RingStatistics::with_parts(self.ring, self.delta, self.shards),
            prepared,
            subject,
            object,
            opts,
        );
        let prof_planned = prof_t0.map(|_| Instant::now());
        let deadline = opts.timeout.map(|t| Instant::now() + t);
        self.active_threads = plan.intra_query_threads;
        self.prof_levels = opts.profile.then(LevelProf::new);

        let mut out = match plan.route {
            EvalRoute::FastPath => {
                if self.layered() {
                    fastpath::evaluate_merged(
                        &self.view(),
                        prepared.shape(),
                        subject,
                        object,
                        opts,
                        deadline,
                        plan.intra_query_threads,
                    )?
                } else {
                    fastpath::evaluate(
                        self.ring,
                        prepared.shape(),
                        subject,
                        object,
                        opts,
                        deadline,
                        plan.intra_query_threads,
                    )?
                }
            }
            // Expressions beyond the bit-parallel word width evaluate
            // through the explicit-state fallback (§3.3's m > w regime).
            EvalRoute::Fallback => {
                let query = RpqQuery::new(subject, prepared.expr().clone(), object);
                crate::fallback::evaluate_view(&self.view(), &query, opts)?
            }
            EvalRoute::Split => {
                let split = plan.split.clone().expect("a split plan carries its split");
                crate::split::evaluate_split_in(self, &split, opts, deadline)?
            }
            EvalRoute::BitParallel if self.layered() => {
                let (bp, bp_rev) = prepared
                    .tables()
                    .expect("the planner only picks bit-parallel when tables exist");
                let n = self.n_nodes_universe() as usize;
                if self.merged_masks.len() < n {
                    self.merged_masks = EpochArray::new(n);
                }
                merged::evaluate_bitparallel(
                    &self.view(),
                    &mut self.merged_masks,
                    bp,
                    bp_rev,
                    plan.direction,
                    subject,
                    object,
                    opts,
                    deadline,
                    plan.intra_query_threads,
                    self.prof_levels.as_mut(),
                )?
            }
            EvalRoute::BitParallel => {
                let (bp, bp_rev) = prepared
                    .tables()
                    .expect("the planner only picks bit-parallel when tables exist");
                let mut out = QueryOutput::default();
                match (subject, object) {
                    (Term::Var, Term::Const(o)) => {
                        self.eval_to_object(bp, o, None, opts, deadline, &mut out, |s, o| (s, o));
                    }
                    (Term::Const(s), Term::Var) => {
                        // (s, E, y) ≡ (y, Ê, s): traverse backwards from s
                        // with the reversed-and-inverted expression (§4.4).
                        self.eval_to_object(bp_rev, s, None, opts, deadline, &mut out, |r, s| {
                            (s, r)
                        });
                    }
                    (Term::Const(s), Term::Const(o)) => {
                        // Existence check from the endpoint the planner
                        // found cheaper (§4.3 anchored range estimates).
                        if plan.direction == Some(Direction::FromObject) {
                            self.eval_to_object(
                                bp,
                                o,
                                Some(s),
                                opts,
                                deadline,
                                &mut out,
                                |s, o| (s, o),
                            );
                        } else {
                            self.eval_to_object(
                                bp_rev,
                                s,
                                Some(o),
                                opts,
                                deadline,
                                &mut out,
                                |o, s| (s, o),
                            );
                        }
                    }
                    (Term::Var, Term::Var) => {
                        out = self.eval_var_var(
                            bp,
                            bp_rev,
                            plan.direction == Some(Direction::FromSubject),
                            opts,
                            deadline,
                        )?;
                    }
                }
                out
            }
        };
        out.plan = Some(plan);
        if let (Some(t0), Some(planned)) = (prof_t0, prof_planned) {
            let mut levels = self
                .prof_levels
                .take()
                .map(LevelProf::into_samples)
                .unwrap_or_default();
            // The split route evaluates through nested sub-queries; its
            // partial profile carries the concatenated sub-levels up.
            if let Some(sub) = out.profile.take() {
                levels.extend(sub.levels);
            }
            let done = Instant::now();
            out.profile = Some(Box::new(QueryProfile {
                plan_us: planned.duration_since(t0).as_micros() as u64,
                exec_us: done.duration_since(planned).as_micros() as u64,
                total_us: done.duration_since(t0).as_micros() as u64,
                levels,
                compactions: out.stats.pair_compactions,
                queue_wait_us: None,
                compile_us: None,
                cache_hit: None,
            }));
        }
        Ok(out)
    }

    /// Evaluates the backward traversal anchored at object `anchor`,
    /// reporting every node `r` where the initial state activates.
    /// `pair_of(r, anchor)` shapes each reported pair; `target` turns the
    /// run into an existence check for `(target, E, anchor)`.
    #[allow(clippy::too_many_arguments)]
    fn eval_to_object(
        &mut self,
        bp: &BitParallel,
        anchor: Id,
        target: Option<Id>,
        opts: &EngineOptions,
        deadline: Option<Instant>,
        out: &mut QueryOutput,
        pair_of: impl Fn(Id, Id) -> (Id, Id),
    ) {
        let limit = opts.limit;
        let budget = opts
            .node_budget
            .map(|nb| nb.saturating_sub(out.stats.product_nodes));
        let mut stats = TraversalStats::default();
        let mut truncated = false;
        let mut done = false;
        let mut trace = Vec::new();
        let stop = self.backward_traverse(
            bp,
            Start::Object(anchor),
            opts,
            deadline,
            budget,
            &mut stats,
            opts.collect_trace.then_some(&mut trace),
            &mut |r| {
                if let Some(t) = target {
                    if r == t {
                        out.pairs.push(pair_of(t, anchor));
                        done = true;
                        return false;
                    }
                    return true;
                }
                out.pairs.push(pair_of(r, anchor));
                if out.pairs.len() >= limit {
                    truncated = true;
                    return false;
                }
                true
            },
        );
        let _ = done;
        out.trace.extend(trace);
        out.truncated |= truncated;
        out.timed_out |= stop == Stop::TimedOut;
        out.budget_exhausted |= stop == Stop::Budget;
        out.stats.add(&stats);
    }

    /// The `(x, E, y)` strategy of §4.4: one full-range backward pass finds
    /// the useful anchors, then one anchored query per anchor. The
    /// direction (`sources_first` vs targets-first) is the planner's §5
    /// smallest-first-expansion choice, passed down from the [`Plan`]
    /// being executed.
    ///
    /// [`Plan`]: crate::planner::Plan
    fn eval_var_var(
        &mut self,
        bp_e: &BitParallel,
        bp_rev: &BitParallel,
        sources_first: bool,
        opts: &EngineOptions,
        deadline: Option<Instant>,
    ) -> Result<QueryOutput, QueryError> {
        let mut out = QueryOutput::default();
        // Sorted-vec dedup instead of a hash set: pushes are a bump
        // write, compaction amortizes, and truncation keeps a
        // deterministic (smallest) subset. See [`PairBuffer`].
        let mut pairs = PairBuffer::new();

        // Zero-length paths: every existing node pairs with itself
        // (already distinct, so the raw length is the distinct count).
        if bp_e.is_nullable() {
            for v in 0..self.ring.n_nodes() {
                if self.node_exists(v) {
                    pairs.push((v, v));
                    if pairs.distinct_reached(opts.limit) {
                        pairs.truncate_distinct(opts.limit);
                        out.truncated = true;
                        break;
                    }
                }
            }
        }

        // Pass 1: collect the useful anchors from the full range.
        let pass_bp = if sources_first { bp_e } else { bp_rev };
        let mut anchors: Vec<Id> = Vec::new();
        let mut stats = TraversalStats::default();
        if !out.truncated {
            let stop = self.backward_traverse(
                pass_bp,
                Start::Full,
                opts,
                deadline,
                opts.node_budget,
                &mut stats,
                opts.collect_trace.then_some(&mut out.trace),
                &mut |r| {
                    anchors.push(r);
                    true
                },
            );
            out.timed_out |= stop == Stop::TimedOut;
            out.budget_exhausted |= stop == Stop::Budget;
        }
        out.stats.add(&stats);

        // Pass 2: one anchored query per useful node. The node budget is
        // cumulative across the whole query: each anchored run gets what
        // the previous passes left over.
        let per_bp = if sources_first { bp_rev } else { bp_e };
        'outer: for &a in &anchors {
            if out.timed_out || out.truncated || out.budget_exhausted {
                break;
            }
            let budget = opts
                .node_budget
                .map(|nb| nb.saturating_sub(out.stats.product_nodes));
            let mut stats = TraversalStats::default();
            let mut hit_limit = false;
            let mut trace = Vec::new();
            let stop = self.backward_traverse(
                per_bp,
                Start::Object(a),
                opts,
                deadline,
                budget,
                &mut stats,
                opts.collect_trace.then_some(&mut trace),
                &mut |r| {
                    // Sources-first: a is a source, r its reachable target.
                    let pair = if sources_first { (a, r) } else { (r, a) };
                    pairs.push(pair);
                    // Amortized probe; the post-loop settle is exact.
                    if pairs.maybe_reached(opts.limit) {
                        pairs.truncate_distinct(opts.limit);
                        hit_limit = true;
                        return false;
                    }
                    true
                },
            );
            out.trace.extend(trace);
            out.stats.add(&stats);
            out.timed_out |= stop == Stop::TimedOut;
            out.budget_exhausted |= stop == Stop::Budget;
            if hit_limit {
                out.truncated = true;
                break 'outer;
            }
        }

        // Exact settle: the amortized limit probe may have lagged.
        if pairs.distinct_reached(opts.limit) {
            pairs.truncate_distinct(opts.limit);
            out.truncated = true;
        }
        pairs.compact();
        out.stats.pair_compactions += pairs.compactions();
        out.pairs = pairs.into_sorted_vec();
        Ok(out)
    }

    fn node_exists(&self, v: Id) -> bool {
        node_exists(self.ring, v)
    }

    /// The backward product-graph traversal (§4, parts one to three),
    /// level-synchronous: a FIFO queue visits whole BFS levels
    /// consecutively, so expanding level by level in frontier order
    /// keeps visit order, traces and the product-graph counters exactly
    /// those of the item-at-a-time traversal.
    ///
    /// How a level expands depends on its frontier size alone:
    ///
    /// * **Direct loop** (fewer than `parallel_min_frontier` items): part
    ///   one (`L_p`) runs as one batched wavelet sweep per chunk of the
    ///   frontier ([`WaveletMatrix::guided_traverse_multi`]), sharing
    ///   node-start ranks and `B[v]` lookups across the chunk's ranges;
    ///   part two (`L_s`) is one guided descent per `(item, predicate)`
    ///   against the live `D` masks.
    /// * **Two-phase** (at least `parallel_min_frontier` items): phase A
    ///   ([`expand_level_speculative`]) expands every chunk against a
    ///   frozen snapshot of the `D` masks — part one as above, part two
    ///   as **one** level-synchronous [`WaveletMatrix::sweep_ranges`]
    ///   over all the chunk's surviving `(item, predicate)` ranges —
    ///   fanning chunks across the calling thread plus whatever helpers
    ///   the pool grants, up to `intra_query_threads − 1`. Phase B
    ///   replays the chunks in frontier order against the live masks.
    ///   The masks only grow, so the frozen filter admits an ordered
    ///   superset of what the direct loop emits, and the replay's
    ///   `fresh == 0` skip is exactly the direct loop's leaf filter:
    ///   answers, flags, traces and the budget stop point are
    ///   bit-for-bit those of the direct loop, at any thread count and
    ///   whatever the grant.
    ///
    /// `wavelet_nodes`, `rank_ops` and `rank_ops_saved` measure the
    /// strategy that ran: batched part one consults each `L_p` node once
    /// per chunk, and on two-phase levels they also count the part-two
    /// sweep (frozen-mask pruning admits more nodes, and a
    /// budget-aborted level was already fully expanded).
    ///
    /// Calls `report(r)` for every node where the initial NFA state newly
    /// activates; a `false` return aborts the traversal. `budget` caps
    /// the product-graph nodes visited by *this* run. Returns why the
    /// traversal stopped.
    #[allow(clippy::too_many_arguments)]
    fn backward_traverse(
        &mut self,
        bp: &BitParallel,
        start: Start,
        opts: &EngineOptions,
        deadline: Option<Instant>,
        budget: Option<u64>,
        stats: &mut TraversalStats,
        trace: Option<&mut Vec<(Id, u64)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Stop {
        let stop =
            self.backward_traverse_impl(bp, start, opts, deadline, budget, stats, trace, report);
        // Close the last open level sample with this run's final
        // counters — the traversal body has many early exits (deadline,
        // budget, report abort) and this wrapper covers them all.
        if let Some(p) = self.prof_levels.as_mut() {
            p.finish(stats.rank_ops, stats.parallel_chunks);
        }
        stop
    }

    #[allow(clippy::too_many_arguments)]
    fn backward_traverse_impl(
        &mut self,
        bp: &BitParallel,
        start: Start,
        opts: &EngineOptions,
        deadline: Option<Instant>,
        budget: Option<u64>,
        stats: &mut TraversalStats,
        mut trace: Option<&mut Vec<(Id, u64)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Stop {
        let threads = self.active_threads.max(1);
        let min_frontier = opts.parallel_min_frontier.max(2);
        self.ensure_pure_tables();
        let Self {
            ring,
            lp_masks,
            ls_masks,
            scratch,
            prof_levels,
            ..
        } = self;
        let ring: &Ring = ring;
        let ls_occupancy = ring.subject_occupancy();
        let lp = ring.l_p();
        let ls = ring.l_s();
        let width_p = lp.width();
        let width_s = ls.width();

        lp_masks.reset();
        ls_masks.reset();
        // Seed B[v] for all wavelet-node ancestors of the query's labels
        // (lazy initialization, O(m log |P|), §4.1).
        for &(label, mask) in bp.positive_label_masks() {
            for level in 0..=width_p {
                let prefix = label >> (width_p - level);
                lp_masks.or_with(WaveletMatrix::node_index(level, prefix), mask);
            }
        }
        let neg = bp.negated_positions();

        let TraverseScratch {
            part_one,
            frontier,
            next_frontier,
            subjects,
            chunks,
        } = scratch;
        frontier.clear();
        next_frontier.clear();
        let d0 = bp.accept_mask();
        if d0 == 0 {
            return Stop::Completed;
        }
        match start {
            Start::Object(o) => {
                // Mark F on the start node (§4.2) and report a zero-length
                // match if the initial state is already accepting.
                ls_masks.set(WaveletMatrix::node_index(width_s, o), d0);
                if d0 & INITIAL != 0 && node_exists(ring, o) {
                    stats.reported += 1;
                    if !report(o) {
                        return Stop::Completed;
                    }
                }
                let (b, e) = ring.object_range(o);
                if e > b {
                    frontier.push((b, e, d0));
                }
            }
            Start::Full => {
                let (b, e) = ring.full_range();
                if e > b {
                    frontier.push((b, e, d0));
                }
            }
        }

        while !frontier.is_empty() {
            if let Some(p) = prof_levels.as_mut() {
                p.enter(frontier.len() as u64, stats.rank_ops, stats.parallel_chunks);
            }
            if frontier.len() >= min_frontier {
                // Two-phase expansion: phase A (read-only, fanned out)
                // plans every chunk; phase B (below) replays the plans
                // in chunk/item/pred/candidate order against the live
                // masks, recomputing `fresh` exactly where the direct
                // loop would.
                let n_chunks = expand_level_speculative(
                    ring,
                    bp,
                    neg,
                    lp_masks,
                    ls_masks,
                    opts.node_pruning,
                    frontier,
                    deadline,
                    threads,
                    chunks,
                );
                stats.parallel_levels += 1;
                for plan in &chunks[..n_chunks] {
                    stats.parallel_chunks += 1;
                    stats.add(&plan.stats);
                    if plan.deadline_hit {
                        // A worker saw the (monotone) deadline pass, so
                        // the direct loop would also time out by now.
                        return Stop::TimedOut;
                    }
                    let mut range = 0;
                    for &(n_hits, n_ranges) in &plan.items {
                        stats.bfs_steps += 1;
                        if let Some(dl) = deadline {
                            if stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl {
                                return Stop::TimedOut;
                            }
                        }
                        stats.product_edges += n_hits;
                        for r in range..range + n_ranges {
                            let d_new = plan.d_news[r];
                            for &s in plan.sweep.symbols(r) {
                                let idx = WaveletMatrix::node_index(width_s, s);
                                let old = ls_masks.get(idx);
                                let fresh = d_new & !old;
                                if fresh == 0 {
                                    continue;
                                }
                                if let Some(nb) = budget {
                                    if stats.product_nodes >= nb {
                                        return Stop::Budget;
                                    }
                                }
                                ls_masks.set(idx, old | d_new);
                                if opts.node_pruning {
                                    propagate_up(ls_masks, ls_occupancy, width_s, s);
                                }
                                stats.product_nodes += 1;
                                if let Some(t) = trace.as_deref_mut() {
                                    t.push((s, fresh));
                                }
                                if fresh & INITIAL != 0 {
                                    stats.reported += 1;
                                    if !report(s) {
                                        return Stop::Completed;
                                    }
                                }
                                let (ob, oe) = ring.object_range(s);
                                if oe > ob {
                                    next_frontier.push((ob, oe, fresh));
                                }
                            }
                        }
                        range += n_ranges;
                    }
                }
                std::mem::swap(frontier, next_frontier);
                next_frontier.clear();
                continue;
            }
            for chunk in frontier.chunks(FRONTIER_CHUNK) {
                let pred_hits = part_one.run(lp, lp_masks, neg, chunk, stats);

                // Items in FIFO order, each with its precomputed preds.
                for hits in pred_hits {
                    stats.bfs_steps += 1;
                    if let Some(dl) = deadline {
                        if stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl {
                            return Stop::TimedOut;
                        }
                    }

                    for &(p, rb, re, d_and_b) in hits {
                        stats.product_edges += 1;
                        // Eq. 2: the same new state set for every subject
                        // (Fact 1).
                        let d_new = bp.apply_bwd(d_and_b);
                        if d_new == 0 {
                            continue;
                        }
                        let base = ring.pred_range(p).0;
                        let (sb, se) = (base + rb, base + re);

                        // Part two: distinct unvisited subjects in range.
                        subjects.clear();
                        {
                            let mut guide = SubjGuide {
                                d_new,
                                masks: ls_masks,
                                occ: ls_occupancy,
                                width: width_s,
                                node_pruning: opts.node_pruning,
                                out: subjects,
                                nodes_entered: &mut stats.wavelet_nodes,
                                pending_fresh: 0,
                            };
                            ls.guided_traverse(sb, se, &mut guide);
                        }

                        for &(s, fresh) in subjects.iter() {
                            if let Some(nb) = budget {
                                if stats.product_nodes >= nb {
                                    return Stop::Budget;
                                }
                            }
                            stats.product_nodes += 1;
                            if let Some(t) = trace.as_deref_mut() {
                                t.push((s, fresh));
                            }
                            if fresh & INITIAL != 0 {
                                stats.reported += 1;
                                if !report(s) {
                                    return Stop::Completed;
                                }
                            }
                            // Part three: the subject becomes an object
                            // again, on the next BFS level.
                            let (ob, oe) = ring.object_range(s);
                            if oe > ob {
                                next_frontier.push((ob, oe, fresh));
                            }
                        }
                    }
                }
            }
            std::mem::swap(frontier, next_frontier);
            next_frontier.clear();
        }
        Stop::Completed
    }
}

/// Whether `v` occurs in the graph (as an object or a subject).
fn node_exists(ring: &Ring, v: Id) -> bool {
    let (b, e) = ring.object_range(v);
    if e > b {
        return true;
    }
    let (b, e) = ring.subject_range(v);
    e > b
}

/// Part one of the traversal, batched over a frontier chunk, with its
/// reusable scratch: one [`MultiTraversal`] sweep of `L_p` finds, for
/// every item, the distinct predicates reaching its range whose `B[p]`
/// meets the item's state mask (§4.1).
#[derive(Default)]
struct PartOne {
    /// Batched `L_p` traversal state (layer-2 primitive).
    mt: MultiTraversal,
    /// The chunk's `L_p` ranges.
    ranges: Vec<(usize, usize)>,
    /// The chunk's state masks, parallel to `ranges`.
    ds: Vec<u64>,
    /// Per-item output: `(pred, rank_b, rank_e, D & B[p])`.
    pred_hits: Vec<Vec<(Label, usize, usize, u64)>>,
}

impl PartOne {
    /// Runs part one over `chunk`, returning each item's hits in
    /// ascending-label order — the predicate processing sequence (and
    /// so the trace) of a per-range traversal — and adding the wavelet
    /// nodes and rank counts to `stats`.
    fn run(
        &mut self,
        lp: &WaveletMatrix,
        lp_masks: &EpochArray,
        neg: &[(u64, Vec<Label>)],
        chunk: &[(usize, usize, u64)],
        stats: &mut TraversalStats,
    ) -> &[Vec<(Label, usize, usize, u64)>] {
        self.ranges.clear();
        self.ds.clear();
        for &(b, e, d) in chunk {
            self.ranges.push((b, e));
            self.ds.push(d);
        }
        if self.pred_hits.len() < chunk.len() {
            self.pred_hits.resize_with(chunk.len(), Vec::new);
        }
        let pred_hits = &mut self.pred_hits[..chunk.len()];
        for hits in pred_hits.iter_mut() {
            hits.clear();
        }
        let mut guide = PredGuideMulti {
            ds: &self.ds,
            union_d: self.ds.iter().fold(0u64, |a, &d| a | d),
            masks: lp_masks,
            neg,
            width: lp.width(),
            out: pred_hits,
            nodes_entered: &mut stats.wavelet_nodes,
            node_mask: 0,
            pending: 0,
        };
        self.mt.run(lp, &self.ranges, &mut guide);
        stats.rank_ops += self.mt.ranks;
        stats.rank_ops_saved += self.mt.ranks_saved;
        // The batched sweep emits leaves in unspecified order.
        for hits in pred_hits.iter_mut() {
            hits.sort_unstable_by_key(|&(p, ..)| p);
        }
        pred_hits
    }
}

/// §4.1, frontier-batched: prune `L_p` subtrees whose labels cannot
/// reach an active state of *any* frontier item (node level), then
/// per item against its own mask (item level). The expensive per-node
/// work — the `B[v]` lookup and the negated-class range mask — is done
/// once per node for the whole frontier.
struct PredGuideMulti<'a> {
    /// Per-item state masks `D_i`.
    ds: &'a [u64],
    /// OR of all `D_i`: the node-level admission mask.
    union_d: u64,
    masks: &'a EpochArray,
    neg: &'a [(u64, Vec<Label>)],
    width: usize,
    /// Per-item output: `(pred, rank_b, rank_e, D_i & B[p])`.
    out: &'a mut [Vec<(Label, usize, usize, u64)>],
    nodes_entered: &'a mut u64,
    /// `B[v] | neg` of the node admitted most recently.
    node_mask: u64,
    /// `D_i & B[p]` for the item whose `leaf` call comes next (the
    /// [`MultiRangeGuide`] contract: `leaf` immediately follows its
    /// item's `enter_item`); at a leaf this is exactly Eq. 2's input.
    pending: u64,
}

impl MultiRangeGuide for PredGuideMulti<'_> {
    fn enter_node(&mut self, level: usize, prefix: u64) -> bool {
        *self.nodes_entered += 1;
        let mut mask = self.masks.get(WaveletMatrix::node_index(level, prefix));
        if !self.neg.is_empty() {
            mask |= neg_range_mask(self.neg, level, prefix, self.width);
        }
        self.node_mask = mask;
        mask & self.union_d != 0
    }

    fn enter_item(&mut self, item: u32, _level: usize, _prefix: u64) -> bool {
        let active = self.node_mask & self.ds[item as usize];
        if active == 0 {
            return false;
        }
        self.pending = active;
        true
    }

    fn leaf(&mut self, item: u32, sym: u64, rank_b: usize, rank_e: usize) {
        self.out[item as usize].push((sym, rank_b, rank_e, self.pending));
    }
}

/// Mask contributed by negated-class positions to the wavelet node
/// `(level, prefix)` covering labels `[prefix·2^span, (prefix+1)·2^span)`:
/// the position fires unless the whole interval is excluded.
fn neg_range_mask(neg: &[(u64, Vec<Label>)], level: usize, prefix: u64, width: usize) -> u64 {
    let span = width - level;
    let lo = prefix << span;
    let len = 1u64 << span;
    let mut mask = 0;
    for (bit, excluded) in neg {
        let from = excluded.partition_point(|&l| l < lo);
        let to = excluded.partition_point(|&l| l < lo + len);
        if ((to - from) as u64) < len {
            mask |= bit;
        }
    }
    mask
}

/// §4.2: skip subjects (and subtrees) already visited with every active
/// state. Internal nodes hold the **intersection** of the visited sets of
/// the occupied leaves below them — the invariant the paper states for
/// `D[v]` — maintained by upward propagation from each leaf update.
struct SubjGuide<'a> {
    d_new: u64,
    masks: &'a mut EpochArray,
    occ: &'a BitSet,
    width: usize,
    node_pruning: bool,
    out: &'a mut Vec<(Id, u64)>,
    nodes_entered: &'a mut u64,
    pending_fresh: u64,
}

impl RangeGuide for SubjGuide<'_> {
    fn enter(&mut self, level: usize, prefix: u64) -> bool {
        *self.nodes_entered += 1;
        let idx = WaveletMatrix::node_index(level, prefix);
        if level == self.width {
            // Leaf: the per-node visited filter D[s] (always on; soundness
            // and Theorem 4.1 depend on it).
            let old = self.masks.get(idx);
            let fresh = self.d_new & !old;
            if fresh == 0 {
                return false;
            }
            self.masks.set(idx, old | self.d_new);
            self.pending_fresh = fresh;
            true
        } else if self.node_pruning {
            // Prune when every occupied subject below already carries all
            // of d_new. Sound because masks[idx] is an intersection lower
            // bound (default 0 never over-prunes).
            self.d_new & !self.masks.get(idx) != 0
        } else {
            true
        }
    }

    fn leaf(&mut self, sym: u64, _rank_b: usize, _rank_e: usize) {
        self.out.push((sym, self.pending_fresh));
        if self.node_pruning {
            propagate_up(self.masks, self.occ, self.width, sym);
        }
    }
}

/// Re-establishes the intersection invariant of the internal `D[v]`
/// masks on the leaf-to-root path above `sym`, stopping as soon as an
/// ancestor's value is unchanged. Shared by the sequential leaf update
/// ([`SubjGuide::leaf`]) and the parallel merge replay, which must
/// mutate the masks identically.
fn propagate_up(masks: &mut EpochArray, occ: &BitSet, width: usize, sym: u64) {
    let mut prefix = sym;
    for level in (0..width).rev() {
        prefix >>= 1;
        let left = WaveletMatrix::node_index(level + 1, prefix << 1);
        let dl = if occ.get(left) {
            masks.get(left)
        } else {
            u64::MAX
        };
        let dr = if occ.get(left + 1) {
            masks.get(left + 1)
        } else {
            u64::MAX
        };
        let v = WaveletMatrix::node_index(level, prefix);
        let merged = dl & dr;
        if masks.get(v) == merged {
            break;
        }
        masks.set(v, merged);
    }
}

/// One frontier chunk's speculative expansion plan (phase A output)
/// and the scratch that computes it, reused across levels and queries:
/// everything the replay needs, computed against *frozen* visited masks
/// so chunks can expand concurrently.
#[derive(Default)]
struct ChunkPlan {
    part_one: PartOne,
    /// The chunk's surviving `(item, predicate)` subject ranges in `L_s`,
    /// item by item, each item's in ascending-label order.
    ranges: Vec<(usize, usize)>,
    /// The backward state set `d_new` of each range (Eq. 2).
    d_news: Vec<u64>,
    /// Part two: the candidate subjects of every range, from one sweep.
    sweep: RangeSweep,
    /// Per frontier item, in order: its part-one hit count (for exact
    /// `product_edges` accounting — hits with a dead `d_new` count in
    /// the direct loop too) and how many of `ranges` are its.
    items: Vec<(u64, usize)>,
    /// This chunk's wavelet-node and rank counts (parts one and two).
    stats: TraversalStats,
    /// The worker saw the deadline pass and skipped expansion; the
    /// replay turns this into `Stop::TimedOut` when it reaches the chunk.
    deadline_hit: bool,
}

impl ChunkPlan {
    /// Expands `chunk` against frozen masks: part one (identical to the
    /// direct loop's — it only reads the static `B[v]` table), then one
    /// [`WaveletMatrix::sweep_ranges`] over the surviving ranges, with
    /// [`SubjSweep`] pruning against the frozen `D` masks.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &mut self,
        ring: &Ring,
        bp: &BitParallel,
        neg: &[(u64, Vec<Label>)],
        lp_masks: &EpochArray,
        ls_masks: &EpochArray,
        node_pruning: bool,
        chunk: &[(usize, usize, u64)],
        deadline: Option<Instant>,
    ) {
        self.ranges.clear();
        self.d_news.clear();
        self.items.clear();
        self.stats = TraversalStats::default();
        self.deadline_hit = deadline.is_some_and(|dl| Instant::now() >= dl);
        if self.deadline_hit {
            return;
        }
        let pred_hits = self
            .part_one
            .run(ring.l_p(), lp_masks, neg, chunk, &mut self.stats);
        for hits in pred_hits {
            let before = self.ranges.len();
            for &(p, rb, re, d_and_b) in hits {
                let d_new = bp.apply_bwd(d_and_b);
                if d_new != 0 {
                    let base = ring.pred_range(p).0;
                    self.ranges.push((base + rb, base + re));
                    self.d_news.push(d_new);
                }
            }
            self.items
                .push((hits.len() as u64, self.ranges.len() - before));
        }
        let ls = ring.l_s();
        let mut guide = SubjSweep {
            d_news: &self.d_news,
            masks: ls_masks,
            width: ls.width(),
            node_pruning,
        };
        ls.sweep_ranges(&self.ranges, &mut guide, &mut self.sweep);
        self.stats.wavelet_nodes += self.sweep.nodes;
        self.stats.rank_ops += self.sweep.ranks;
        self.stats.rank_ops_saved += self.sweep.ranks_saved;
    }
}

/// Phase A: expands every chunk of `frontier` speculatively into
/// `chunks[..n]` and returns `n`. Chunks are claimed one at a time by
/// the calling thread and by up to `threads − 1` pool helpers; a helper
/// the pool does not grant, or the OS does not start, just leaves its
/// share to the others. Chunk geometry depends only on
/// `(frontier.len(), threads)` — never on the grant — and per-item
/// output is independent of chunk grouping anyway (both part one and
/// the sweep filter per item), so the plans are deterministic.
#[allow(clippy::too_many_arguments)]
fn expand_level_speculative(
    ring: &Ring,
    bp: &BitParallel,
    neg: &[(u64, Vec<Label>)],
    lp_masks: &EpochArray,
    ls_masks: &EpochArray,
    node_pruning: bool,
    frontier: &[(usize, usize, u64)],
    deadline: Option<Instant>,
    threads: usize,
    chunks: &mut Vec<ChunkPlan>,
) -> usize {
    // With helpers, aim for ~4 chunks per thread so dynamic claiming can
    // balance skew; never exceed the direct loop's chunk bound, and
    // don't shatter small levels.
    let target = if threads > 1 {
        frontier.len().div_ceil(threads * 4)
    } else {
        FRONTIER_CHUNK
    };
    let chunk_size = target.clamp(64, FRONTIER_CHUNK);
    let n_chunks = frontier.len().div_ceil(chunk_size);
    if chunks.len() < n_chunks {
        chunks.resize_with(n_chunks, ChunkPlan::default);
    }
    let grant = crate::parallel::acquire_helpers((threads - 1).min(n_chunks - 1));
    let queue = Mutex::new(frontier.chunks(chunk_size).zip(chunks.iter_mut()));
    let work = || loop {
        // The guard is a temporary: the lock is held for `next` only.
        let claimed = queue
            .lock()
            .expect("no thread panics while holding the chunk queue")
            .next();
        let Some((chunk, plan)) = claimed else {
            break;
        };
        plan.expand(
            ring,
            bp,
            neg,
            lp_masks,
            ls_masks,
            node_pruning,
            chunk,
            deadline,
        );
    };
    std::thread::scope(|scope| {
        for _ in 0..grant.count() {
            let _ = std::thread::Builder::new().spawn_scoped(scope, work);
        }
        work();
    });
    n_chunks
}

/// The part-two admission of a two-phase level: a range's sweep enters
/// an `L_s` node unless its frozen `D` mask already holds all of the
/// range's `d_new` — at the leaves always (the per-subject visited
/// filter), at internal nodes under node pruning (the intersection
/// invariant of [`SubjGuide`]). Read-only, so chunks sweep concurrently.
/// The masks only grow, so every frozen check is a lower bound on the
/// live one: the sweep admits a **superset** of the subjects the direct
/// loop would emit, each range's in the same ascending order, and the
/// replay's `fresh == 0` skip discards exactly the extras.
struct SubjSweep<'a> {
    d_news: &'a [u64],
    masks: &'a EpochArray,
    width: usize,
    node_pruning: bool,
}

impl SweepGuide for SubjSweep<'_> {
    #[inline]
    fn admit(&mut self, range: u32, level: usize, prefix: u64) -> bool {
        if level == self.width || self.node_pruning {
            let idx = WaveletMatrix::node_index(level, prefix);
            self.d_news[range as usize] & !self.masks.get(idx) != 0
        } else {
            true
        }
    }
}

/// Convenience: evaluate one query with default options.
pub fn evaluate_query(ring: &Ring, query: &RpqQuery) -> Result<QueryOutput, QueryError> {
    RpqEngine::new(ring).evaluate(query, &EngineOptions::default())
}

/// Convenience: evaluate with a timeout.
pub fn evaluate_with_timeout(
    ring: &Ring,
    query: &RpqQuery,
    timeout: Duration,
) -> Result<QueryOutput, QueryError> {
    let opts = EngineOptions {
        timeout: Some(timeout),
        ..EngineOptions::default()
    };
    RpqEngine::new(ring).evaluate(query, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ShardedSource, SourceSnapshot};
    use automata::Regex;
    use ring::ring::RingOptions;
    use ring::sharded::ShardedIndex;
    use ring::{Graph, Triple};
    use std::sync::Arc;

    fn star(l: Label) -> Regex {
        Regex::Star(Box::new(Regex::label(l)))
    }

    /// One rare label (1) between two dense closures, so every route —
    /// the split included — is feasible for some query below.
    fn rare_label_triples() -> Vec<Triple> {
        let mut triples = vec![Triple::new(6, 1, 9)];
        for i in 0..14 {
            triples.push(Triple::new(i, 0, (i + 1) % 16));
            triples.push(Triple::new((i + 2) % 16, 2, (i + 5) % 16));
        }
        triples
    }

    fn corpus() -> Vec<RpqQuery> {
        let split = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
        vec![
            RpqQuery::new(Term::Var, split.clone(), Term::Var),
            RpqQuery::new(Term::Const(6), split, Term::Var),
            RpqQuery::new(Term::Const(3), Regex::label(0), Term::Var),
            RpqQuery::new(
                Term::Var,
                Regex::concat(Regex::label(0), Regex::label(2)),
                Term::Var,
            ),
            RpqQuery::new(
                Term::Var,
                Regex::Plus(Box::new(Regex::label(2))),
                Term::Const(5),
            ),
        ]
    }

    /// Runs the corpus under every forced route and checks the answers
    /// against a pure engine over `reference` (the same triples as one
    /// ring). Returns the routes that actually executed.
    fn run_every_route(engine: &mut RpqEngine<'_>, reference: &Ring) -> Vec<EvalRoute> {
        let mut pure = RpqEngine::new(reference);
        let mut executed = Vec::new();
        for query in corpus() {
            for forced in EvalRoute::ALL {
                let opts = EngineOptions {
                    forced_route: Some(forced),
                    ..EngineOptions::default()
                };
                let out = engine.evaluate(&query, &opts).unwrap();
                let expected = pure.evaluate(&query, &opts).unwrap();
                assert_eq!(
                    out.sorted_pairs(),
                    expected.sorted_pairs(),
                    "{query:?} {forced:?}"
                );
                executed.push(out.plan.expect("every output carries its plan").route);
            }
        }
        executed.sort_unstable_by_key(|r| *r as u8);
        executed.dedup();
        executed
    }

    #[test]
    fn construction_allocates_nothing() {
        let ring = Ring::build(
            &Graph::from_triples(rare_label_triples()),
            RingOptions::default(),
        );
        let engine = RpqEngine::new(&ring);
        assert_eq!(engine.lp_masks.len(), 0);
        assert_eq!(engine.ls_masks.len(), 0);
        assert_eq!(engine.merged_masks.len(), 0);
        assert!(engine.working_space_bytes() > 0);
    }

    #[test]
    fn layered_engines_never_allocate_the_pure_tables() {
        let base = rare_label_triples();
        let ring = Ring::build(&Graph::from_triples(base.clone()), RingOptions::default());

        // A non-empty delta: drop one closure edge, add a second rare edge.
        let (add, del) = (Triple::new(2, 1, 12), Triple::new(4, 0, 5));
        let delta = DeltaIndex::new(vec![add], vec![del], ring.n_preds_base());
        let snapshot = SourceSnapshot {
            epoch: 1,
            ring: Arc::new(ring.clone()),
            delta: Some(Arc::new(delta)),
            shards: Arc::from(Vec::new()),
        };
        let mut merged: Vec<Triple> = base.iter().copied().filter(|t| *t != del).collect();
        merged.push(add);
        let merged_ring = Ring::build(&Graph::from_triples(merged), RingOptions::default());

        let sharded = ShardedIndex::build(&Graph::from_triples(base), 2, RingOptions::default());
        let sharded = ShardedSource::new(sharded.into_shards().into_iter().map(Arc::new).collect());

        for (what, mut engine, reference) in [
            ("delta", RpqEngine::over(&snapshot), &merged_ring),
            ("2 shards", RpqEngine::over(&sharded), &ring),
        ] {
            assert!(engine.layered(), "{what}");
            let ws = engine.working_space_bytes();
            let routes = run_every_route(&mut engine, reference);
            assert_eq!(
                routes.len(),
                EvalRoute::ALL.len(),
                "{what}: executed {routes:?}"
            );
            assert_eq!(engine.lp_masks.len(), 0, "{what}: B table allocated");
            assert_eq!(engine.ls_masks.len(), 0, "{what}: D table allocated");
            assert_eq!(engine.working_space_bytes(), ws, "{what}");
        }

        // The pure engine over the same ring does allocate them, once.
        let mut engine = RpqEngine::new(&ring);
        run_every_route(&mut engine, &ring);
        assert_eq!(engine.lp_masks.len(), ring.l_p().node_table_len());
        assert_eq!(engine.ls_masks.len(), ring.l_s().node_table_len());
    }
}
