//! The merged bit-parallel route: the §4 backward product-graph
//! traversal evaluated against a [`MergedView`] — node-granular
//! expansion where every backward step merges ring subjects (tombstones
//! masked) with delta adds. Selected by the engine only when the source
//! carries a non-empty delta; the pure succinct hot path is untouched
//! otherwise.
//!
//! Same answers as the wavelet-batched traversal by construction: both
//! are BFS over the product `G'_E` with the monotone visited masks
//! `D[s]`; this one just reads its adjacency through the overlay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use automata::glushkov::INITIAL;
use automata::{BitParallel, Label};
use ring::Id;
use succinct::util::{EpochArray, FxHashMap};

use crate::pairbuf::PairBuffer;
use crate::planner::Direction;
use crate::profile::LevelProf;
use crate::query::{EngineOptions, QueryOutput, Term, TraversalStats};
use crate::source::MergedView;
use crate::QueryError;

/// Why a merged traversal stopped early (if it did).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stop {
    Completed,
    TimedOut,
    Budget,
}

/// Per-label admission masks `B[p]` for every label that can fire, from
/// the positive literal masks plus negated-class positions expanded
/// against the completed alphabet. Sorted by label for deterministic
/// expansion order.
fn relevant_labels(view: &MergedView<'_>, bp: &BitParallel) -> Vec<(Label, u64)> {
    let mut masks: FxHashMap<Label, u64> = FxHashMap::default();
    for &(label, mask) in bp.positive_label_masks() {
        *masks.entry(label).or_insert(0) |= mask;
    }
    let neg = bp.negated_positions();
    if !neg.is_empty() {
        for p in 0..view.ring.n_preds() {
            let mut bits = 0u64;
            for (bit, excluded) in neg {
                if excluded.binary_search(&p).is_err() {
                    bits |= bit;
                }
            }
            if bits != 0 {
                *masks.entry(p).or_insert(0) |= bits;
            }
        }
    }
    let mut out: Vec<(Label, u64)> = masks.into_iter().collect();
    out.sort_unstable_by_key(|&(p, _)| p);
    out
}

/// Evaluates the bit-parallel route against a merged source. Mirrors the
/// engine's pure-ring dispatch: anchored queries traverse backward from
/// the constant, const-const is an existence check from the planner's
/// cheaper end, and variable-to-variable runs §4.4's two-pass strategy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_bitparallel(
    view: &MergedView<'_>,
    masks: &mut EpochArray,
    bp: &BitParallel,
    bp_rev: &BitParallel,
    direction: Option<Direction>,
    subject: Term,
    object: Term,
    opts: &EngineOptions,
    deadline: Option<Instant>,
    threads: usize,
    mut prof: Option<&mut LevelProf>,
) -> Result<QueryOutput, QueryError> {
    let mut out = QueryOutput::default();
    match (subject, object) {
        (Term::Var, Term::Const(o)) => {
            let labels = relevant_labels(view, bp);
            eval_to_object(
                view,
                masks,
                bp,
                &labels,
                o,
                None,
                opts,
                deadline,
                threads,
                prof.as_deref_mut(),
                &mut out,
                |s, o| (s, o),
            );
        }
        (Term::Const(s), Term::Var) => {
            let labels = relevant_labels(view, bp_rev);
            eval_to_object(
                view,
                masks,
                bp_rev,
                &labels,
                s,
                None,
                opts,
                deadline,
                threads,
                prof.as_deref_mut(),
                &mut out,
                |r, s| (s, r),
            );
        }
        (Term::Const(s), Term::Const(o)) => {
            if direction == Some(Direction::FromObject) {
                let labels = relevant_labels(view, bp);
                eval_to_object(
                    view,
                    masks,
                    bp,
                    &labels,
                    o,
                    Some(s),
                    opts,
                    deadline,
                    threads,
                    prof.as_deref_mut(),
                    &mut out,
                    |s, o| (s, o),
                );
            } else {
                let labels = relevant_labels(view, bp_rev);
                eval_to_object(
                    view,
                    masks,
                    bp_rev,
                    &labels,
                    s,
                    Some(o),
                    opts,
                    deadline,
                    threads,
                    prof.as_deref_mut(),
                    &mut out,
                    |o, s| (s, o),
                );
            }
        }
        (Term::Var, Term::Var) => {
            out = eval_var_var(
                view,
                masks,
                bp,
                bp_rev,
                direction == Some(Direction::FromSubject),
                opts,
                deadline,
                threads,
                prof,
            )?;
        }
    }
    Ok(out)
}

/// Anchored traversal from `anchor`, reporting every node where the
/// initial state activates. `target` turns it into an existence check.
#[allow(clippy::too_many_arguments)]
fn eval_to_object(
    view: &MergedView<'_>,
    masks: &mut EpochArray,
    bp: &BitParallel,
    labels: &[(Label, u64)],
    anchor: Id,
    target: Option<Id>,
    opts: &EngineOptions,
    deadline: Option<Instant>,
    threads: usize,
    prof: Option<&mut LevelProf>,
    out: &mut QueryOutput,
    pair_of: impl Fn(Id, Id) -> (Id, Id),
) {
    let limit = opts.limit;
    let budget = opts
        .node_budget
        .map(|nb| nb.saturating_sub(out.stats.product_nodes));
    let mut stats = TraversalStats::default();
    let mut truncated = false;
    let mut trace = Vec::new();
    let stop = traverse(
        view,
        masks,
        bp,
        labels,
        &[anchor],
        true,
        deadline,
        budget,
        threads,
        opts.parallel_min_frontier,
        &mut stats,
        prof,
        opts.collect_trace.then_some(&mut trace),
        &mut |r| {
            if let Some(t) = target {
                if r == t {
                    out.pairs.push(pair_of(t, anchor));
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
    out.trace.extend(trace);
    out.truncated |= truncated;
    out.timed_out |= stop == Stop::TimedOut;
    out.budget_exhausted |= stop == Stop::Budget;
    out.stats.add(&stats);
}

/// §4.4 two-pass variable-to-variable strategy over the merged source:
/// pass 1 seeds every live node at once (the merged stand-in for the
/// full-range start) to collect useful anchors, pass 2 anchors one
/// traversal per anchor. The node budget is cumulative across passes.
#[allow(clippy::too_many_arguments)]
fn eval_var_var(
    view: &MergedView<'_>,
    masks: &mut EpochArray,
    bp_e: &BitParallel,
    bp_rev: &BitParallel,
    sources_first: bool,
    opts: &EngineOptions,
    deadline: Option<Instant>,
    threads: usize,
    mut prof: Option<&mut LevelProf>,
) -> Result<QueryOutput, QueryError> {
    let mut out = QueryOutput::default();
    let mut pairs = PairBuffer::new();

    let live: Vec<Id> = (0..view.n_nodes())
        .filter(|&v| view.node_exists(v))
        .collect();

    // Zero-length paths: every live node pairs with itself.
    if bp_e.is_nullable() {
        for &v in &live {
            pairs.push((v, v));
            if pairs.distinct_reached(opts.limit) {
                pairs.truncate_distinct(opts.limit);
                out.truncated = true;
                break;
            }
        }
    }

    // Pass 1: useful anchors, from all live nodes at once (seeds are
    // unmarked, exactly like the full-range start of the pure path).
    // Label-admission tables depend only on (view, bp): built once per
    // direction, shared by every anchored traversal of pass 2.
    let pass_bp = if sources_first { bp_e } else { bp_rev };
    let pass_labels = relevant_labels(view, pass_bp);
    let mut anchors: Vec<Id> = Vec::new();
    let mut stats = TraversalStats::default();
    if !out.truncated {
        let stop = traverse(
            view,
            masks,
            pass_bp,
            &pass_labels,
            &live,
            false,
            deadline,
            opts.node_budget,
            threads,
            opts.parallel_min_frontier,
            &mut stats,
            prof.as_deref_mut(),
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

    // Pass 2: one anchored traversal per useful node.
    let per_bp = if sources_first { bp_rev } else { bp_e };
    let per_labels = relevant_labels(view, per_bp);
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
        let stop = traverse(
            view,
            masks,
            per_bp,
            &per_labels,
            &[a],
            true,
            deadline,
            budget,
            threads,
            opts.parallel_min_frontier,
            &mut stats,
            prof.as_deref_mut(),
            opts.collect_trace.then_some(&mut trace),
            &mut |r| {
                let pair = if sources_first { (a, r) } else { (r, a) };
                pairs.push(pair);
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

    if pairs.distinct_reached(opts.limit) {
        pairs.truncate_distinct(opts.limit);
        out.truncated = true;
    }
    pairs.compact();
    out.stats.pair_compactions += pairs.compactions();
    out.pairs = pairs.into_sorted_vec();
    Ok(out)
}

/// The merged backward product BFS. `starts` seed the first level with
/// the accepting mask; when `mark_starts` is set they are recorded in the
/// visited masks and reported for zero-length matches (anchored starts),
/// otherwise they behave like the pure path's full-range start (pass 1).
/// Calls `report(r)` for every node where the initial state newly
/// activates; a `false` return aborts. Mirrors the pure traversal's
/// budget/deadline semantics.
///
/// Levels are expanded level-synchronously (the queue was strictly FIFO,
/// so per-level vectors visit nodes in the identical order). When
/// `threads > 1` and a level has at least `min_frontier` items, the
/// level is fanned out across pool workers in two phases: phase A
/// computes per-chunk candidate lists against a frozen snapshot of the
/// visited masks (read-only, so chunks race-free), phase B replays the
/// chunks in order on this thread, re-checking freshness against the
/// live masks and applying budget/trace/report/next-level effects in
/// the exact sequential order. The frozen filter only drops subjects
/// whose live `fresh` would also be zero (masks grow monotonically), so
/// phase B's pairs, flags, trace and counters are bit-for-bit identical
/// to the sequential walk.
#[allow(clippy::too_many_arguments)]
fn traverse(
    view: &MergedView<'_>,
    masks: &mut EpochArray,
    bp: &BitParallel,
    labels: &[(Label, u64)],
    starts: &[Id],
    mark_starts: bool,
    deadline: Option<Instant>,
    budget: Option<u64>,
    threads: usize,
    min_frontier: usize,
    stats: &mut TraversalStats,
    mut prof: Option<&mut LevelProf>,
    trace: Option<&mut Vec<(Id, u64)>>,
    report: &mut dyn FnMut(Id) -> bool,
) -> Stop {
    let stop = traverse_impl(
        view,
        masks,
        bp,
        labels,
        starts,
        mark_starts,
        deadline,
        budget,
        threads,
        min_frontier,
        stats,
        prof.as_deref_mut(),
        trace,
        report,
    );
    // Close the last open level with this run's final counters — the
    // body below exits early on deadline/budget/report aborts.
    if let Some(p) = prof {
        p.finish(stats.rank_ops, stats.parallel_chunks);
    }
    stop
}

#[allow(clippy::too_many_arguments)]
fn traverse_impl(
    view: &MergedView<'_>,
    masks: &mut EpochArray,
    bp: &BitParallel,
    labels: &[(Label, u64)],
    starts: &[Id],
    mark_starts: bool,
    deadline: Option<Instant>,
    budget: Option<u64>,
    threads: usize,
    min_frontier: usize,
    stats: &mut TraversalStats,
    mut prof: Option<&mut LevelProf>,
    mut trace: Option<&mut Vec<(Id, u64)>>,
    report: &mut dyn FnMut(Id) -> bool,
) -> Stop {
    let d0 = bp.accept_mask();
    if d0 == 0 {
        return Stop::Completed;
    }
    masks.reset();
    let mut frontier: Vec<(Id, u64)> = Vec::with_capacity(starts.len());
    let mut next: Vec<(Id, u64)> = Vec::new();
    for &o in starts {
        if mark_starts {
            masks.set(o as usize, d0);
            if d0 & INITIAL != 0 && view.node_exists(o) {
                stats.reported += 1;
                if !report(o) {
                    return Stop::Completed;
                }
            }
        }
        frontier.push((o, d0));
    }
    let threads = threads.max(1);
    let min_frontier = min_frontier.max(2);
    let mut subjects: Vec<Id> = Vec::new();
    while !frontier.is_empty() {
        if let Some(p) = prof.as_deref_mut() {
            p.enter(frontier.len() as u64, stats.rank_ops, stats.parallel_chunks);
        }
        if threads > 1 && frontier.len() >= min_frontier {
            // Phase A: speculative chunk expansion against frozen masks.
            let plans = expand_level_frozen(view, bp, labels, masks, &frontier, deadline, threads);
            stats.parallel_levels += 1;
            // Phase B: ordered replay with live masks.
            for plan in &plans {
                stats.parallel_chunks += 1;
                if plan.deadline_hit {
                    return Stop::TimedOut;
                }
                for item in &plan.items {
                    stats.bfs_steps += 1;
                    if let Some(dl) = deadline {
                        if stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl {
                            return Stop::TimedOut;
                        }
                    }
                    stats.product_edges += item.n_edges;
                    for &(d_new, ref cands) in &item.preds {
                        for &s in cands {
                            let old = masks.get(s as usize);
                            let fresh = d_new & !old;
                            if fresh == 0 {
                                continue;
                            }
                            if let Some(nb) = budget {
                                if stats.product_nodes >= nb {
                                    return Stop::Budget;
                                }
                            }
                            masks.set(s as usize, old | d_new);
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
                            next.push((s, fresh));
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            continue;
        }
        for &(o, d) in &frontier {
            stats.bfs_steps += 1;
            if let Some(dl) = deadline {
                if stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl {
                    return Stop::TimedOut;
                }
            }
            for &(p, bmask) in labels {
                let d_and_b = d & bmask;
                if d_and_b == 0 {
                    continue;
                }
                stats.product_edges += 1;
                // Eq. 2: the same new state set for every subject (Fact 1).
                let d_new = bp.apply_bwd(d_and_b);
                if d_new == 0 {
                    continue;
                }
                view.subjects_into(o, p, &mut subjects);
                for &s in &subjects {
                    let old = masks.get(s as usize);
                    let fresh = d_new & !old;
                    if fresh == 0 {
                        continue;
                    }
                    if let Some(nb) = budget {
                        if stats.product_nodes >= nb {
                            return Stop::Budget;
                        }
                    }
                    masks.set(s as usize, old | d_new);
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
                    next.push((s, fresh));
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    Stop::Completed
}

/// A frontier chunk expanded speculatively against frozen masks: per
/// item, the labels that fire and the frozen-fresh candidate subjects.
struct LevelChunk {
    items: Vec<LevelItem>,
    /// The deadline had already passed when this chunk was claimed; the
    /// replay turns this into `Stop::TimedOut`.
    deadline_hit: bool,
}

/// One frontier item's speculative expansion.
struct LevelItem {
    /// Labels with a non-empty state intersection (the sequential
    /// `product_edges` increment, counted even when `d_new == 0`).
    n_edges: u64,
    /// `(d_new, candidates)` per label that survives `apply_bwd`;
    /// candidates are the merged subjects still fresh against the frozen
    /// masks, in merged (sorted) order.
    preds: Vec<(u64, Vec<Id>)>,
}

/// Phase A: fans `frontier` chunks across pool helpers (plus this
/// thread), each chunk reading only the ring/delta and the frozen
/// `masks` snapshot. Chunk geometry depends on `(frontier.len, threads)`
/// alone — never on how many helpers the pool actually grants — so the
/// replay order is deterministic.
fn expand_level_frozen(
    view: &MergedView<'_>,
    bp: &BitParallel,
    labels: &[(Label, u64)],
    masks: &EpochArray,
    frontier: &[(Id, u64)],
    deadline: Option<Instant>,
    threads: usize,
) -> Vec<LevelChunk> {
    // ~4 chunks per requested thread for dynamic load balancing, but
    // don't shatter small levels.
    let chunk_size = frontier.len().div_ceil(threads * 4).clamp(64, 4096);
    let n_chunks = frontier.len().div_ceil(chunk_size);
    let grant = crate::parallel::acquire_helpers(threads.saturating_sub(1));
    let slots: Vec<OnceLock<LevelChunk>> = (0..n_chunks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let work = || loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(frontier.len());
            let _ = slots[c].set(expand_chunk_frozen(
                view,
                bp,
                labels,
                masks,
                &frontier[lo..hi],
                deadline,
            ));
        };
        for _ in 0..grant.count().min(n_chunks.saturating_sub(1)) {
            // A helper the OS does not start leaves its chunks to the
            // others: the caller drains the cursor either way.
            let _ = std::thread::Builder::new().spawn_scoped(scope, work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("phase A fills every chunk slot"))
        .collect()
}

/// Expands one chunk read-only: the merged adjacency and the frozen
/// masks. Dropping subjects that are stale against the snapshot is safe
/// because masks only grow — their live `fresh` would be zero too.
fn expand_chunk_frozen(
    view: &MergedView<'_>,
    bp: &BitParallel,
    labels: &[(Label, u64)],
    masks: &EpochArray,
    chunk: &[(Id, u64)],
    deadline: Option<Instant>,
) -> LevelChunk {
    let mut out = LevelChunk {
        items: Vec::with_capacity(chunk.len()),
        deadline_hit: false,
    };
    if let Some(dl) = deadline {
        if Instant::now() >= dl {
            out.deadline_hit = true;
            return out;
        }
    }
    let mut subjects: Vec<Id> = Vec::new();
    for &(o, d) in chunk {
        let mut item = LevelItem {
            n_edges: 0,
            preds: Vec::new(),
        };
        for &(p, bmask) in labels {
            let d_and_b = d & bmask;
            if d_and_b == 0 {
                continue;
            }
            item.n_edges += 1;
            let d_new = bp.apply_bwd(d_and_b);
            if d_new == 0 {
                continue;
            }
            view.subjects_into(o, p, &mut subjects);
            let cands: Vec<Id> = subjects
                .iter()
                .copied()
                .filter(|&s| d_new & !masks.get(s as usize) != 0)
                .collect();
            if !cands.is_empty() {
                item.preds.push((d_new, cands));
            }
        }
        out.items.push(item);
    }
    out
}
