//! `table1_live`: one client alternating a durable update batch and a
//! query on the updatable facade, opened with `open_durable` from a
//! snapshot saved in set-up.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ring_rpq::ring::{Graph, Id, Triple};
use ring_rpq::rpq_core::{EngineOptions, QueryOutput, RpqEngine, RpqQuery, Term};
use ring_rpq::workload::updates::apply_op;
use ring_rpq::workload::{StreamOp, UpdateGen, UpdateGenConfig};
use ring_rpq::{RpqDatabase, UpdatableDatabase};

use crate::check::{Reference, Sample, Verdict};
use crate::inputs::{
    decimal_dicts, expr_text, stratified_order, term_text, CHECK_SUBJECTS, MIN_QUERIES, SETUP_REPS,
};
use crate::measure::{Outcome, Pass, Reservoir};
use crate::seq::{note_engine, outcome_of, same_answer, work_of};
use crate::stats::{median, quantile, ratio, sorted};
use crate::{Ctx, WorkloadOut};

/// Base edges the update generator draws its deletes from: its mirror is
/// a list it scans once per operation, which over all 2^20 edges would
/// cost more than the queries it feeds.
const UPDATE_POOL: usize = 1 << 16;

/// A query answer kept for the gate, with the point of the update
/// stream it saw.
struct Kept {
    sample: Sample,
    /// Operations of the stream applied when the query ran.
    ops: usize,
    /// The snapshot's node universe when the query ran.
    universe: Id,
}

/// The next batch of the update stream: edits up to its next commit
/// (compaction events are dropped).
fn next_batch(gen: &mut UpdateGen) -> Vec<StreamOp> {
    let mut batch = Vec::new();
    loop {
        match gen.next_op() {
            StreamOp::Commit => return batch,
            StreamOp::Compact => {}
            op => batch.push(op),
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Evaluates a rendered query through the facade; returns the output
/// and the call's start and end.
fn query(
    db: &UpdatableDatabase,
    text: &(String, String, String),
    opts: &EngineOptions,
) -> (Result<QueryOutput, String>, Instant, Instant) {
    let t0 = Instant::now();
    let out = db
        .query_with(&text.0, &text.1, &text.2, opts)
        .map_err(|e| e.to_string());
    (out, t0, Instant::now())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<WorkloadOut, String> {
    let graph = &ctx.inputs.graph;
    let log = &ctx.inputs.log;
    let mut out = WorkloadOut::default();
    let (nodes, preds) = decimal_dicts(graph);
    let t = Instant::now();
    let base = RpqDatabase::from_parts(graph.clone(), nodes, preds).into_updatable();
    out.layer.insert("ring.build_s", t.elapsed().as_secs_f64());

    let (mut save_s, mut open_s) = (Vec::new(), Vec::new());
    let mut opened: Option<(UpdatableDatabase, std::path::PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        let path = ctx.work_dir.join(format!("live-{rep}.rpq"));
        let t0 = Instant::now();
        base.save(&path)
            .map_err(|e| format!("saving {}: {e}", path.display()))?;
        let t1 = Instant::now();
        let db = UpdatableDatabase::open_durable(&path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        save_s.push((t1 - t0).as_secs_f64());
        open_s.push(t1.elapsed().as_secs_f64());
        if let Some((old, old_path)) = opened.replace((db, path)) {
            drop(old);
            for p in [UpdatableDatabase::wal_path(&old_path), old_path] {
                std::fs::remove_file(&p).map_err(|e| format!("removing {}: {e}", p.display()))?;
            }
        }
    }
    drop(base);
    let (db, path) = opened.ok_or("no set-up repetitions")?;
    let wal_path = UpdatableDatabase::wal_path(&path);
    let snapshot_bytes = file_len(&path);
    let wal_start = file_len(&wal_path);
    out.layer
        .insert("storage.save_s", median(&sorted(save_s)).unwrap_or(0.0));
    out.layer
        .insert("storage.open_s", median(&sorted(open_s)).unwrap_or(0.0));
    out.layer.insert(
        "storage.file_bytes_per_triple",
        snapshot_bytes as f64 / graph.len() as f64,
    );

    let n_base = graph.n_preds();
    let texts: Vec<(String, String, String)> = log
        .iter()
        .map(|gq| {
            let q = &gq.query;
            (
                term_text(q.subject, "?x"),
                expr_text(&q.expr, n_base),
                term_text(q.object, "?y"),
            )
        })
        .collect();
    let order = stratified_order(log, ctx.seed);
    // The generator draws deletes from a seeded sample of the base edges:
    // every op it emits is still an op on the whole graph (the mirror
    // the gate replays is the whole graph), but its own bookkeeping
    // scans the sample, not 2^20 edges, per op.
    let mut pool = graph.triples().to_vec();
    pool.shuffle(&mut StdRng::seed_from_u64(ctx.seed ^ 0xde1e7e));
    pool.truncate(UPDATE_POOL);
    let pool = Graph::new(pool, graph.n_nodes(), graph.n_preds());
    let mut gen = UpdateGen::new(
        &pool,
        UpdateGenConfig {
            new_pred_ratio: 0.0,
            seed: ctx.seed,
            ..UpdateGenConfig::default()
        },
    );

    let plain = ctx.scale.engine_options();
    let profiled = EngineOptions {
        profile: true,
        ..plain
    };
    let opts = if ctx.trace { &profiled } else { &plain };
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut p = Pass::new(Instant::now(), ctx.trace);
    let mut busy = Duration::ZERO;
    let mut stream: Vec<StreamOp> = Vec::new();
    let mut commit_ms: Vec<f64> = Vec::new();
    let mut commit_failed = 0u64;
    let mut kept: Reservoir<Kept> = Reservoir::new(ctx.scale.check_versions, ctx.seed ^ 0x11fe);
    let mut step = 0u64;
    // Whole passes over the log, until both the measuring time and the
    // minimum query count are reached.
    while !(step as usize).is_multiple_of(log.len())
        || busy < window
        || (p.attempted as usize) < MIN_QUERIES
    {
        // Client side, not measured: the next batch, rendered to names.
        let batch = next_batch(&mut gen);
        let named: Vec<(bool, [String; 3])> = batch
            .iter()
            .map(|op| match *op {
                StreamOp::Insert(t) => (true, [t.s, t.p, t.o].map(|x| x.to_string())),
                StreamOp::Delete(t) => (false, [t.s, t.p, t.o].map(|x| x.to_string())),
                StreamOp::Commit | StreamOp::Compact => unreachable!("batches hold edits only"),
            })
            .collect();
        let i = order[step as usize % order.len()];

        let t0 = Instant::now();
        for (insert, [s, pr, o]) in &named {
            if *insert {
                db.insert(s, pr, o);
            } else {
                db.delete(s, pr, o);
            }
        }
        let t1 = Instant::now();
        let committed = db.commit_durable();
        let t2 = Instant::now();
        // Traced runs pair every fourth query with an untraced run of it
        // on the same snapshot, alternating which of the two goes first.
        let paired = ctx.trace && step.is_multiple_of(4);
        let before = (paired && step.is_multiple_of(8)).then(|| query(&db, &texts[i], &plain));
        let (result, q0, q1) = query(&db, &texts[i], opts);
        let after = (paired && !step.is_multiple_of(8)).then(|| query(&db, &texts[i], &plain));
        busy += (t2 - t0) + (q1 - q0);

        commit_ms.push((t2 - t1).as_secs_f64() * 1e3);
        if let Err(e) = committed {
            eprintln!("table1_live: commit failed: {e}");
            commit_failed += 1;
        }
        stream.extend(batch);
        stream.push(StreamOp::Commit);
        let q = &log[i].query;
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("table1_live: query {q:?} failed: {e}");
                p.note(Outcome::Failed, q1 - q0);
                step += 1;
                continue;
            }
        };
        let outcome = outcome_of(&out);
        p.note(outcome, q1 - q0);
        if let Some((untraced, u0, u1)) = before.or(after) {
            let same = untraced.ok().and_then(|u| same_answer(&u, &out));
            p.pair(q1 - q0, u1 - u0, same);
        }
        if ctx.trace {
            // Facade engine construction, timed on its own over the same
            // snapshot (`query_with` builds one engine per call).
            let snap = db.store().snapshot();
            let c0 = Instant::now();
            drop(std::hint::black_box(RpqEngine::over(&*snap)));
            let construct = c0.elapsed().as_secs_f64() * 1e6;
            p.push("engine.construct_us", construct);
            p.push("store.commit_us", (t2 - t1).as_secs_f64() * 1e6);
            // The step's spans: an untraced pair run may sit between the
            // commit and the query, so the query span is placed right
            // after the commit.
            let q_end = t2 + (q1 - q0);
            let root = p.tracer.span("request", t0, q_end, None, step);
            p.tracer.span("facade.update", t0, t1, root, step);
            p.tracer.span("facade.commit_durable", t1, t2, root, step);
            let call = p.tracer.span("facade.query_with", t2, q_end, root, step);
            if let Some(call) = call {
                let at = p.tracer.start_of(call);
                p.tracer.span_us(
                    "core.engine.construct",
                    at,
                    at + construct,
                    Some(call),
                    step,
                );
                let counted = (step as usize) < log.len() && outcome == Outcome::Complete;
                note_engine(
                    &mut p,
                    work_of(&out),
                    at + construct,
                    Some(call),
                    step,
                    counted,
                );
            }
        }
        kept.offer(|| Kept {
            sample: Sample {
                query: q.clone(),
                answer: out.pairs,
                complete: outcome == Outcome::Complete,
            },
            ops: stream.len(),
            universe: db.store().snapshot().n_nodes(),
        });
        step += 1;
    }
    p.busy_s = busy.as_secs_f64();

    let stats = db.stats();
    let wal_end = file_len(&wal_path);
    let commits = commit_ms.len() as f64;
    out.layer.insert(
        "wal.bytes_per_commit",
        ratio(wal_end.saturating_sub(wal_start) as f64, commits),
    );
    out.layer.insert(
        "store.delta_triples",
        (stats.delta_adds + stats.delta_deletes) as f64,
    );
    let commit_ms = sorted(commit_ms);
    for (name, q) in [("commit_p50_ms", 0.5), ("commit_p99_ms", 0.99)] {
        if let Some(v) = quantile(&commit_ms, q) {
            out.extra.insert(name, v);
        }
    }
    out.extra.insert("commits", commits);
    out.extra.insert("commit_failed", commit_failed as f64);

    let (verdict, live_triples) = verify(ctx, &db, &stream, kept.items);
    out.verdict = verdict;
    out.bytes_per_triple = (snapshot_bytes + wal_end) as f64 / live_triples as f64;
    out.main = Some(p);
    Ok(out)
}

/// The gate: replays the update stream through `apply_op` from the base
/// graph, checks each kept answer against the reference over the mirror
/// at its point of the stream, and checks that the facade interned every
/// new node under the id the stream gave it. Returns the verdict and the
/// mirror's live triple count at the end.
fn verify(
    ctx: &Ctx,
    db: &UpdatableDatabase,
    stream: &[StreamOp],
    mut kept: Vec<Kept>,
) -> (Verdict, usize) {
    let graph = &ctx.inputs.graph;
    let mut verdict = Verdict::default();
    kept.sort_by_key(|k| k.ops);
    let mut pending: BTreeSet<Triple> = graph.triples().iter().copied().collect();
    let mut committed = BTreeSet::new();
    let mut next = kept.iter().peekable();
    let mut max_node = graph.n_nodes();
    for (at, &op) in stream.iter().enumerate() {
        if let StreamOp::Insert(t) | StreamOp::Delete(t) = op {
            max_node = max_node.max(t.s + 1).max(t.o + 1);
            apply_op(op, &mut pending, &mut committed);
            continue;
        }
        // A commit: materialize the mirror only where a kept answer
        // needs it.
        while let Some(k) = next.next_if(|k| k.ops == at + 1) {
            apply_op(op, &mut pending, &mut committed);
            let version = Graph::new(
                committed.iter().copied().collect(),
                k.universe,
                graph.n_preds(),
            );
            let mut reference = Reference::new(&version);
            verdict.merge(reference.check(&k.sample, CHECK_SUBJECTS, ctx.seed ^ at as u64));
        }
    }
    for id in graph.n_nodes()..max_node {
        let name = id.to_string();
        match db.parse_query(&name, "0", "?y") {
            Ok(RpqQuery {
                subject: Term::Const(got),
                ..
            }) if got == id => {}
            other => verdict.mismatches.push(format!(
                "new node {name} resolves to {other:?}, not id {id}"
            )),
        }
    }
    (verdict, pending.len())
}
