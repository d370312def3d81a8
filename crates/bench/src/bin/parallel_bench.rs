//! E10: intra-query parallel frontier expansion, written to
//! `BENCH_parallel.json`.
//!
//! Runs a closure-heavy query mix over a wide layered graph at
//! `intra_query_threads` ∈ {1, 2, 4} and reports median wall time per
//! run, speedup vs sequential, and the engine's parallel fan-out
//! counters. Every parallel answer stream is asserted **bit-identical**
//! to the sequential one before any number is reported — the benchmark
//! doubles as a determinism check at scale.
//!
//! On a single-core host the worker pool grants zero helpers, so the
//! speedup is ~1.0 by construction; the speedup *gate* therefore only
//! arms when `RPQ_BENCH_MIN_SPEEDUP` is set **and** the host has ≥ 4
//! hardware threads (CI's multi-core runners set it to 1.5).
//!
//! Modes follow the other benches: `--quick` / `RPQ_BENCH_QUICK=1`
//! shrinks the graph and rep count for the CI perf smoke; `--check
//! <baseline.json>` exits non-zero if a `*_us` median regresses more
//! than [`CHECK_FACTOR`]× against the committed baseline; the output
//! path honours `RPQ_BENCH_OUT`.

use automata::Regex;
use ring::ring::RingOptions;
use ring::{Graph, Ring, Triple};
use rpq_bench::median;
use rpq_core::{EngineOptions, RpqEngine, RpqQuery, Term};
use std::time::Instant;

/// Allowed regression factor for `--check`.
const CHECK_FACTOR: f64 = 3.0;

/// A layered graph with wide BFS levels: `layers` ranks of `width`
/// nodes, each node wired to `fanout` nodes of the next rank (label 0)
/// plus sparse label-1 shortcuts — closure frontiers here span a whole
/// rank, many chunks wide.
fn wide_graph(width: u64, layers: u64, fanout: u64) -> Graph {
    let node = |layer: u64, i: u64| layer * width + i;
    let mut triples = Vec::new();
    for layer in 0..layers - 1 {
        for i in 0..width {
            for k in 0..fanout {
                triples.push(Triple::new(
                    node(layer, i),
                    0,
                    node(layer + 1, (i + k * 13 + 1) % width),
                ));
            }
            if i % 7 == 0 {
                triples.push(Triple::new(node(layer, i), 1, node(layer + 1, i)));
            }
        }
    }
    Graph::from_triples(triples)
}

/// The measured mix: a var-var Kleene closure (the generic traversal),
/// a single-label scan (the §5 fast path), and an alternation closure.
fn queries() -> Vec<RpqQuery> {
    let star = |l: u64| Regex::Star(Box::new(Regex::label(l)));
    vec![
        RpqQuery::new(Term::Var, star(0), Term::Var),
        RpqQuery::new(Term::Var, Regex::label(0), Term::Var),
        RpqQuery::new(
            Term::Var,
            Regex::Plus(Box::new(Regex::alt(Regex::label(0), Regex::label(1)))),
            Term::Var,
        ),
    ]
}

struct Run {
    threads: usize,
    wall_us: f64,
    parallel_levels: u64,
    parallel_chunks: u64,
}

/// Extracts `"key":<number>` from a flat JSON text.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let at = text.find(&tag)? + tag.len();
    let rest = &text[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("RPQ_BENCH_QUICK").is_ok_and(|v| v == "1");
    let check_baseline = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (width, layers, fanout, reps) = if quick {
        (128u64, 6u64, 3u64, 5usize)
    } else {
        (512, 10, 4, 9)
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "parallel bench: {width}x{layers} layered graph, fanout {fanout}, \
         {host_threads} host threads, pool capacity {}{}",
        rpq_core::parallel::pool_capacity(),
        if quick { " (quick)" } else { "" }
    );

    let graph = wide_graph(width, layers, fanout);
    let ring = Ring::build(&graph, RingOptions::default());
    let mut engine = RpqEngine::new(&ring);
    let qs = queries();

    // Sequential reference streams (one thread, every level on the
    // direct loop), captured once.
    let sequential = EngineOptions {
        intra_query_threads: 1,
        parallel_min_frontier: usize::MAX,
        ..EngineOptions::default()
    };
    let reference: Vec<Vec<(u64, u64)>> = qs
        .iter()
        .map(|q| {
            engine
                .evaluate(q, &sequential)
                .expect("sequential reference run")
                .pairs
        })
        .collect();

    let mut runs: Vec<Run> = Vec::new();
    for threads in [1usize, 2, 4] {
        // One rank of the layered graph is a whole BFS level; lower the
        // engagement threshold below the rank width so every level takes
        // the chunked path (the quick graph's ranks are 128 wide, below
        // the default threshold).
        let opts = EngineOptions {
            intra_query_threads: threads,
            parallel_min_frontier: 64,
            ..EngineOptions::default()
        };
        let mut samples = Vec::with_capacity(reps);
        let (mut levels, mut chunks) = (0u64, 0u64);
        for rep in 0..reps {
            let t = Instant::now();
            let mut rep_levels = 0u64;
            let mut rep_chunks = 0u64;
            for (q, expected) in qs.iter().zip(&reference) {
                let out = engine.evaluate(q, &opts).expect("bench query");
                assert_eq!(
                    &out.pairs, expected,
                    "{threads}-thread answer stream diverged on {q:?}"
                );
                rep_levels += out.stats.parallel_levels;
                rep_chunks += out.stats.parallel_chunks;
            }
            samples.push(t.elapsed().as_nanos() as f64 / 1000.0);
            if rep == 0 {
                levels = rep_levels;
                chunks = rep_chunks;
            }
        }
        let run = Run {
            threads,
            wall_us: median(&samples),
            parallel_levels: levels,
            parallel_chunks: chunks,
        };
        eprintln!(
            "  {} thread(s): {:>10.1} us median ({} parallel levels, {} chunks)",
            run.threads, run.wall_us, run.parallel_levels, run.parallel_chunks
        );
        runs.push(run);
    }

    let t1 = runs[0].wall_us.max(1e-9);
    let mut body: Vec<String> = vec![
        format!("\"quick\":{quick}"),
        format!("\"host_threads\":{host_threads}"),
        format!("\"pool_capacity\":{}", rpq_core::parallel::pool_capacity()),
        format!("\"width\":{width}"),
        format!("\"layers\":{layers}"),
    ];
    for r in &runs {
        body.push(format!("\"t{}_us\":{:.2}", r.threads, r.wall_us));
        body.push(format!(
            "\"speedup_t{}\":{:.3}",
            r.threads,
            t1 / r.wall_us.max(1e-9)
        ));
        body.push(format!(
            "\"parallel_levels_t{}\":{}",
            r.threads, r.parallel_levels
        ));
        body.push(format!(
            "\"parallel_chunks_t{}\":{}",
            r.threads, r.parallel_chunks
        ));
    }
    let json = format!("{{{}}}", body.join(","));
    let out = std::env::var("RPQ_BENCH_OUT").unwrap_or_else(|_| "BENCH_parallel.json".to_string());
    std::fs::write(&out, json.clone() + "\n").expect("writing the bench artifact");
    eprintln!("parallel bench -> {out}");
    println!("{json}");

    // The multi-core speedup gate (opt-in: CI runners with real cores).
    if let Ok(min) = std::env::var("RPQ_BENCH_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("RPQ_BENCH_MIN_SPEEDUP parses as f64");
        let speedup_t4 = t1 / runs[2].wall_us.max(1e-9);
        if host_threads >= 4 && speedup_t4 < min {
            eprintln!(
                "PERF GATE FAILED: 4-thread speedup {speedup_t4:.3} < {min} \
                 on a {host_threads}-thread host"
            );
            std::process::exit(1);
        }
        eprintln!("parallel bench: speedup gate ok ({speedup_t4:.3} at 4 threads)");
    }

    if let Some(path) = check_baseline {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failed = false;
        for r in &runs {
            let key = format!("t{}_us", r.threads);
            match json_number(&baseline, &key) {
                Some(base) if r.wall_us > base * CHECK_FACTOR => {
                    eprintln!(
                        "PERF REGRESSION: {key} = {:.2} vs baseline {base:.2} (>{CHECK_FACTOR}x)",
                        r.wall_us
                    );
                    failed = true;
                }
                Some(_) => {}
                None => eprintln!("note: baseline has no entry for {key}, skipping"),
            }
        }
        if failed {
            eprintln!("parallel bench: perf smoke FAILED against {path}");
            std::process::exit(1);
        }
        eprintln!("parallel bench: perf smoke ok against {path}");
    }
}
