//! `table1_served`: the full-scale log drawn with Zipf(1) popularity
//! over a seeded shuffle, served by the default server over a 4-shard
//! index opened memory-mapped, to two closed-loop clients.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ring_rpq::ring::mapped::OpenMode;
use ring_rpq::rpq_core::RpqEngine;
use ring_rpq::rpq_server::{QueryAnswer, QueryBudget, RpqServer, ServerConfig};
use ring_rpq::RpqDatabase;

use crate::check::{compare_peers, Reference, Sample};
use crate::inputs::{
    decimal_dicts, stratified_order, CHECK_SUBJECTS, DATASET_SEED, MIN_QUERIES, SETUP_REPS, SHARDS,
};
use crate::measure::{answer_digest, digest_mismatches, Outcome, Pass, Reservoir};
use crate::seq::{evaluate, note_engine, outcome_of, EngineWork};
use crate::stats::{median, ratio, sorted};
use crate::{Ctx, WorkloadOut};

/// Closed-loop clients (one per core of the reference host).
const CLIENTS: usize = 2;

/// One round of requests: `ranked.len()` draws whose counts follow
/// Zipf(s = 1) over the ranking (rank `r` has weight `1 / r`) as closely
/// as whole counts allow — systematic sampling at the midpoints of equal
/// probability slices — in a seeded order. Every round holds the same
/// multiset of queries, so runs of different seeds do the same work; the
/// seed decides the order the clients send it in.
fn zipf_round(ranked: &[usize], seed: u64) -> Vec<usize> {
    let mut acc = 0.0;
    let cdf: Vec<f64> = (1..=ranked.len())
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    let n = ranked.len();
    let mut round: Vec<usize> = (0..n)
        .map(|k| {
            let u = (k as f64 + 0.5) / n as f64 * acc;
            ranked[cdf.partition_point(|&c| c <= u).min(n - 1)]
        })
        .collect();
    round.shuffle(&mut StdRng::seed_from_u64(seed));
    round
}

/// The requests of a pass: whole rounds, handed out one at a time.
struct Schedule {
    requests: Vec<usize>,
    next: usize,
    rounds: u64,
}

fn outcome_of_answer(a: &QueryAnswer) -> Outcome {
    if a.timed_out {
        Outcome::TimedOut
    } else if a.truncated {
        Outcome::Truncated
    } else {
        Outcome::Complete
    }
}

/// The `field` counter of the `section` object in the server's metrics
/// JSON (0 when absent).
fn metrics_field(json: &str, section: &str, field: &str) -> f64 {
    let find = || -> Option<f64> {
        let at = json.find(&format!("\"{section}\""))?;
        let rest = &json[at..];
        let f = rest.find(&format!("\"{field}\""))?;
        let rest = &rest[f + field.len() + 2..];
        let rest = rest.trim_start().strip_prefix(':')?.trim_start();
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    find().unwrap_or(0.0)
}

/// What the clients of one pass share.
struct Load<'a> {
    server: &'a RpqServer,
    ranked: &'a [usize],
    schedule: Mutex<Schedule>,
    start: Instant,
    /// Answers received so far, by all clients.
    answered: AtomicUsize,
    traced: bool,
}

impl Load<'_> {
    /// The next request, or `None` once a round has ended with both the
    /// measuring time and the minimum answer count reached.
    fn next(&self, ctx: &Ctx) -> Option<usize> {
        let mut s = self
            .schedule
            .lock()
            .expect("no client panics holding the schedule");
        if s.next == s.requests.len() {
            let done = self.start.elapsed() >= Duration::from_secs_f64(ctx.seconds)
                && self.answered.load(Ordering::Relaxed) >= MIN_QUERIES;
            if done {
                return None;
            }
            s.rounds += 1;
            s.requests = zipf_round(self.ranked, ctx.seed ^ s.rounds.wrapping_mul(0x2545_F491));
            s.next = 0;
        }
        s.next += 1;
        Some(s.requests[s.next - 1])
    }
}

/// One closed-loop client: takes the next scheduled query, submits it,
/// waits for the answer, repeats.
fn client(ctx: &Ctx, load: &Load, id: usize, kept: &mut Reservoir<Sample>) -> Pass {
    let budget = QueryBudget {
        max_results: ctx.scale.limit,
        timeout: Some(ctx.scale.timeout),
        node_budget: None,
    };
    let server = load.server;
    let mut p = Pass::new(load.start, load.traced);
    let mut n = 0u64;
    while let Some(idx) = load.next(ctx) {
        let q = &ctx.inputs.served_log[idx].query;
        let request = ((id as u64) << 40) | n;
        n += 1;
        let query = q.clone();
        let t0 = Instant::now();
        let ticket = server.submit_parsed(query, budget);
        let t_sub = Instant::now();
        let answer = ticket.and_then(|t| server.wait(&t));
        let t_end = Instant::now();
        let answer = match answer {
            Ok(a) => a,
            Err(e) => {
                eprintln!("table1_served: query {q:?} failed: {e}");
                p.note(Outcome::Failed, t_end - t0);
                continue;
            }
        };
        let outcome = outcome_of_answer(&answer);
        p.note(outcome, t_end - t0);
        load.answered.fetch_add(1, Ordering::Relaxed);
        if ctx.trace {
            p.digests.push((
                idx,
                answer_digest(&answer.pairs),
                outcome == Outcome::Complete,
            ));
        }
        if load.traced {
            note_answer(&mut p, &answer, t0, t_sub, t_end, request);
        }
        kept.offer(|| Sample {
            query: q.clone(),
            answer: answer.pairs.clone(),
            complete: outcome == Outcome::Complete,
        });
    }
    p
}

/// Per-layer data of one traced answer: the client's submit span, the
/// server-side phases placed from the answer's profile (queue wait,
/// plan-cache compile, planner, executor), and the engine work of
/// answers the result cache did not serve.
fn note_answer(
    p: &mut Pass,
    a: &QueryAnswer,
    t0: Instant,
    t_sub: Instant,
    t_end: Instant,
    request: u64,
) {
    let root = p.tracer.span("request", t0, t_end, None, request);
    p.tracer.span("server.submit", t0, t_sub, root, request);
    let Some(prof) = a.profile.as_deref() else {
        return;
    };
    let queue_us = prof.queue_wait_us.unwrap_or(0) as f64;
    p.push("server.queue_wait_us", queue_us);
    let hit = prof.cache_hit == Some(true);
    let mut at = root.map_or(0.0, |r| p.tracer.start_of(r)) + (t_sub - t0).as_secs_f64() * 1e6;
    p.tracer
        .span_us("server.queue", at, at + queue_us, root, request);
    if hit {
        return;
    }
    at += queue_us;
    let compile_us = prof.compile_us.unwrap_or(0) as f64;
    p.push("server.compile_us", compile_us);
    p.tracer
        .span_us("server.compile", at, at + compile_us, root, request);
    let work = EngineWork {
        profile: Some(prof),
        route: a.route,
        stats: &a.stats,
        pairs: a.pairs.len(),
    };
    let complete = !a.timed_out && !a.truncated;
    note_engine(p, work, at + compile_us, root, request, complete);
}

/// Starts the server over a sharded directory, opened memory-mapped.
fn start_server(dir: &std::path::Path, profile: bool) -> Result<RpqServer, String> {
    let db = RpqDatabase::open_with(dir, OpenMode::Mmap)
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    db.into_server(ServerConfig {
        profile,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))
}

/// Runs the clients against `server` for one pass — until both the
/// measuring time and the minimum answer count are reached; returns the
/// merged pass and the kept answers.
fn pass(ctx: &Ctx, server: &RpqServer, ranked: &[usize], traced: bool) -> (Pass, Vec<Sample>) {
    let load = Load {
        server,
        ranked,
        schedule: Mutex::new(Schedule {
            requests: Vec::new(),
            next: 0,
            rounds: 0,
        }),
        start: Instant::now(),
        answered: AtomicUsize::new(0),
        traced,
    };
    let per_client = ctx.scale.check_queries.div_ceil(CLIENTS);
    let results: Vec<(Pass, Reservoir<Sample>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let load = &load;
                s.spawn(move || {
                    let mut kept = Reservoir::new(per_client, ctx.seed ^ (0x5E7 + id as u64));
                    let p = client(ctx, load, id, &mut kept);
                    (p, kept)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Pass::new(load.start, traced);
    let mut samples = Vec::new();
    for (p, kept) in results {
        merged.absorb(p);
        samples.extend(kept.items);
    }
    merged.busy_s = load.start.elapsed().as_secs_f64();
    (merged, samples)
}

/// Bytes of the files directly under `dir`.
fn dir_bytes(dir: &std::path::Path) -> Result<u64, String> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("reading {}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<WorkloadOut, String> {
    let graph = &ctx.inputs.graph;
    let mut out = WorkloadOut::default();
    let (nodes, preds) = decimal_dicts(graph);
    let t = Instant::now();
    let db = RpqDatabase::from_parts(graph.clone(), nodes, preds);
    out.layer.insert("ring.build_s", t.elapsed().as_secs_f64());

    let (mut save_s, mut open_s) = (Vec::new(), Vec::new());
    let mut served = None;
    for rep in 0..SETUP_REPS {
        let dir = ctx.work_dir.join(format!("shards-{rep}"));
        let t0 = Instant::now();
        db.save_sharded(&dir, SHARDS)
            .map_err(|e| format!("saving {}: {e}", dir.display()))?;
        let t1 = Instant::now();
        let opened = RpqDatabase::open_with(&dir, OpenMode::Mmap)
            .map_err(|e| format!("opening {}: {e}", dir.display()))?;
        let t2 = Instant::now();
        let server = opened
            .into_server(ServerConfig::default())
            .map_err(|e| format!("starting the server: {e}"))?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        save_s.push((t1 - t0).as_secs_f64());
        open_s.push((t2 - t1).as_secs_f64());
        if let Some((old_server, old_dir)) = served.replace((server, dir)) {
            old_server.shutdown();
            drop(old_server);
            std::fs::remove_dir_all(&old_dir)
                .map_err(|e| format!("removing {}: {e}", old_dir.display()))?;
        }
    }
    let (server, dir) = served.ok_or("no set-up repetitions")?;
    let med = |xs: Vec<f64>| median(&sorted(xs)).unwrap_or(0.0);
    out.layer.insert("storage.save_s", med(save_s));
    out.layer.insert("storage.open_s", med(open_s));
    out.bytes_per_triple = dir_bytes(&dir)? as f64 / graph.len() as f64;
    out.layer
        .insert("storage.file_bytes_per_triple", out.bytes_per_triple);

    // Zipf popularity over a stratified shuffle of the log: which queries
    // are popular is part of the dataset (fixed); the run's seed orders
    // each round's requests.
    let order = stratified_order(&ctx.inputs.served_log, DATASET_SEED);
    let (main, samples) = pass(ctx, &server, &order, false);
    server.shutdown();
    drop(server);
    if !ctx.trace {
        out.main = Some(main);
    } else {
        // A fresh, profiling server replays the same draws; the untraced
        // pass above is the overhead and identity baseline.
        let server = start_server(&dir, true)?;
        let (traced, _) = pass(ctx, &server, &order, true);
        let (bad, compared) = digest_mismatches(&main.digests, &traced.digests);
        out.layer.insert("trace.qps", traced.qps());
        out.layer.insert("trace.qps_untraced", main.qps());
        out.layer.insert("trace.identity_compared", compared as f64);
        out.layer.insert("trace.identity_mismatches", bad as f64);
        let json = server.metrics_json();
        let rate = |section: &str| {
            let hits = metrics_field(&json, section, "hits");
            ratio(hits, hits + metrics_field(&json, section, "misses"))
        };
        out.layer
            .insert("server.plan_cache.hit_rate", rate("plan_cache"));
        out.layer
            .insert("server.result_cache.hit_rate", rate("result_cache"));
        out.layer.insert(
            "server.result_cache.evictions",
            metrics_field(&json, "result_cache", "evictions"),
        );
        let probes: Vec<f64> = server
            .source()
            .shard_stats()
            .unwrap_or_default()
            .iter()
            .map(|s| s.probes as f64)
            .collect();
        let total: f64 = probes.iter().sum();
        let max = probes.iter().copied().fold(0.0, f64::max);
        out.layer.insert("source.shard_probes", total);
        out.layer.insert(
            "source.shard_probe_imbalance",
            ratio(max, total / probes.len().max(1) as f64),
        );
        server.shutdown();
        out.main = Some(traced);
    }

    // The gate: each kept answer against the reference, and against the
    // sequential path (heap ring, one engine) on the same query.
    let ring = db.ring();
    let mut engine = RpqEngine::new(ring);
    let opts = ctx.scale.engine_options();
    let mut reference = Reference::new(graph);
    for (i, s) in samples.iter().enumerate() {
        out.verdict
            .merge(reference.check(s, CHECK_SUBJECTS, ctx.seed ^ i as u64));
        let q = &s.query;
        let (seq, _) = evaluate(ring, &mut engine, q, &opts);
        let seq = seq.map_err(|e| format!("sequential evaluation of {q:?}: {e}"))?;
        let peer = Sample {
            query: q.clone(),
            complete: outcome_of(&seq) == Outcome::Complete,
            answer: seq.pairs,
        };
        if let Some(m) = compare_peers(s, &peer) {
            out.verdict.mismatches.push(m);
        }
    }
    Ok(out)
}
