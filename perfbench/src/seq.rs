//! `table1_seq`: the Table 1 log, one closed-loop client, through one
//! reused `RpqEngine` over the heap `Ring` — the paper's Fig. 8
//! experiment on the pure succinct path.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ring_rpq::ring::ring::RingOptions;
use ring_rpq::ring::Ring;
use ring_rpq::rpq_core::{
    EngineOptions, EvalRoute, PreparedQuery, QueryError, QueryOutput, QueryProfile, RpqEngine,
    RpqQuery, TraversalStats,
};

use crate::check::{Reference, Sample};
use crate::inputs::{stratified_order, CHECK_SUBJECTS, MIN_QUERIES, SETUP_REPS};
use crate::measure::{Outcome, Pass, Reservoir};
use crate::stats::{median, sorted};
use crate::{Ctx, WorkloadOut};

/// How an engine answer ended.
pub fn outcome_of(out: &QueryOutput) -> Outcome {
    if out.timed_out {
        Outcome::TimedOut
    } else if out.truncated {
        Outcome::Truncated
    } else {
        Outcome::Complete
    }
}

/// What one evaluation reports about its engine-side work.
pub struct EngineWork<'a> {
    /// The execution profile (traced runs).
    pub profile: Option<&'a QueryProfile>,
    /// The route the planner chose.
    pub route: Option<EvalRoute>,
    /// Traversal counters.
    pub stats: &'a TraversalStats,
    /// Distinct pairs returned.
    pub pairs: usize,
}

/// Records the engine-side per-layer data of one traced evaluation:
/// planner and executor spans under `parent` starting at `start_us`
/// (placed from the profile), their timing series, and — when
/// `counted` — the work counts.
pub fn note_engine(
    p: &mut Pass,
    w: EngineWork,
    start_us: f64,
    parent: Option<usize>,
    request: u64,
    counted: bool,
) {
    if let Some(prof) = w.profile {
        let planned = start_us + prof.plan_us as f64;
        p.tracer
            .span_us("core.planner", start_us, planned, parent, request);
        p.tracer.span_us(
            "core.engine.exec",
            planned,
            planned + prof.exec_us as f64,
            parent,
            request,
        );
        p.push("planner.plan_us", prof.plan_us as f64);
        p.push("engine.exec_us", prof.exec_us as f64);
        if counted {
            p.add("engine.levels", prof.levels.len() as f64);
        }
    }
    if !counted {
        return;
    }
    if let Some(route) = w.route {
        p.route(route);
    }
    let s = w.stats;
    p.add("engine.product_nodes", s.product_nodes as f64);
    p.add("engine.bfs_steps", s.bfs_steps as f64);
    p.add("succinct.rank_ops", s.rank_ops as f64);
    p.add("succinct.rank_ops_saved", s.rank_ops_saved as f64);
    p.add("succinct.wavelet_nodes", s.wavelet_nodes as f64);
    p.add("pairbuf.compactions", s.pair_compactions as f64);
    p.add("pairbuf.reported", s.reported as f64);
    p.add("pairbuf.pairs", w.pairs as f64);
}

/// The engine-side work of a query output.
pub fn work_of(out: &QueryOutput) -> EngineWork<'_> {
    EngineWork {
        profile: out.profile.as_deref(),
        route: out.plan.as_ref().map(|p| p.route),
        stats: &out.stats,
        pairs: out.pairs.len(),
    }
}

/// Compiles and evaluates one query the way `RpqEngine::evaluate` does;
/// returns the result and the clock at start, after compiling, and at
/// the end.
pub fn evaluate(
    ring: &Ring,
    engine: &mut RpqEngine,
    q: &RpqQuery,
    opts: &EngineOptions,
) -> (Result<QueryOutput, QueryError>, [Instant; 3]) {
    let t0 = Instant::now();
    let prepared = PreparedQuery::compile(&q.expr, &|l| ring.inverse_label(l), opts.bp_split_width);
    let t1 = Instant::now();
    let result = prepared.and_then(|pq| engine.evaluate_prepared(&pq, q.subject, q.object, opts));
    (black_box(result), [t0, t1, Instant::now()])
}

/// Whether two complete answers hold the same pairs (`None` unless both
/// are complete).
pub fn same_answer(a: &QueryOutput, b: &QueryOutput) -> Option<bool> {
    (outcome_of(a) == Outcome::Complete && outcome_of(b) == Outcome::Complete)
        .then(|| a.sorted_pairs() == b.sorted_pairs())
}

/// Runs whole passes over the log — each query once per pass, in a
/// fresh seeded order — until both the measuring time and the minimum
/// query count are reached. On a traced run every query is profiled and
/// every fourth one is also run untraced, back to back, for the tracing
/// overhead and the identity check.
fn measure(ctx: &Ctx, ring: &Ring, engine: &mut RpqEngine, kept: &mut Reservoir<Sample>) -> Pass {
    let plain = ctx.scale.engine_options();
    let profiled = EngineOptions {
        profile: true,
        ..plain
    };
    let log = &ctx.inputs.log;
    let window = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let mut p = Pass::new(start, ctx.trace);
    let mut request = 0u64;
    for round in 0u64.. {
        if start.elapsed() >= window && p.attempted as usize >= MIN_QUERIES {
            break;
        }
        for i in stratified_order(log, ctx.seed ^ round.wrapping_mul(0x9E37_79B9)) {
            let q = &log[i].query;
            let paired = ctx.trace && request.is_multiple_of(4);
            let untraced_first = paired && request.is_multiple_of(8);
            let before = untraced_first.then(|| evaluate(ring, engine, q, &plain));
            let opts = if ctx.trace { &profiled } else { &plain };
            let (result, [t0, t1, t2]) = evaluate(ring, engine, q, opts);
            let after = (paired && !untraced_first).then(|| evaluate(ring, engine, q, &plain));
            let out = match result {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("table1_seq: query {q:?} failed: {e}");
                    p.note(Outcome::Failed, t2 - t0);
                    request += 1;
                    continue;
                }
            };
            let outcome = outcome_of(&out);
            p.note(outcome, t2 - t0);
            if let Some((untraced, [u0, _, u2])) = before.or(after) {
                let same = untraced.ok().and_then(|u| same_answer(&u, &out));
                p.pair(t2 - t0, u2 - u0, same);
            }
            if ctx.trace {
                let root = p.tracer.span("request", t0, t2, None, request);
                p.tracer.span("automata.compile", t0, t1, root, request);
                let eval = p
                    .tracer
                    .span("core.evaluate_prepared", t1, t2, root, request);
                p.push("automata.compile_us", (t1 - t0).as_secs_f64() * 1e6);
                // Work counts cover the first pass: every query of the
                // log once, the same multiset whatever the seed.
                let counted = (request as usize) < log.len() && outcome == Outcome::Complete;
                let start_us = eval.map_or(0.0, |e| p.tracer.start_of(e));
                note_engine(&mut p, work_of(&out), start_us, eval, request, counted);
            }
            kept.offer(|| Sample {
                query: q.clone(),
                answer: out.pairs,
                complete: outcome == Outcome::Complete,
            });
            request += 1;
        }
    }
    p.busy_s = start.elapsed().as_secs_f64();
    p
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<WorkloadOut, String> {
    let graph = &ctx.inputs.graph;
    let mut out = WorkloadOut::default();
    let mut ring = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = black_box(Ring::build(graph, RingOptions::default()));
        out.setup_s.push(t.elapsed().as_secs_f64());
        ring = Some(built);
    }
    let ring = ring.ok_or("no set-up repetitions")?;
    let build_s = median(&sorted(out.setup_s.clone())).unwrap_or(0.0);
    out.layer.insert("ring.build_s", build_s);
    out.bytes_per_triple = ring.size_bytes() as f64 / graph.len() as f64;

    // One engine serves the whole run: its construction is paid once.
    let t = Instant::now();
    let mut engine = RpqEngine::new(&ring);
    let construct_us = t.elapsed().as_secs_f64() * 1e6;
    out.layer.insert("engine.construct_us.median", construct_us);
    out.layer.insert("engine.construct_us.sum", construct_us);

    let mut kept = Reservoir::new(ctx.scale.check_queries, ctx.seed ^ 0x5a3);
    out.main = Some(measure(ctx, &ring, &mut engine, &mut kept));

    let mut reference = Reference::new(graph);
    for (i, s) in kept.items.iter().enumerate() {
        out.verdict
            .merge(reference.check(s, CHECK_SUBJECTS, ctx.seed ^ i as u64));
    }
    Ok(out)
}
