//! Turns a workload's passes into named metrics with units, and renders
//! the run record and the final result line.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::measure::Pass;
use crate::stats::{median, quantile, ratio, sorted};
use crate::trace::Tracer;
use crate::{Ctx, Workload, WorkloadOut};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("bytes_per_triple", "B"),
    ("setup_s", "s"),
];

/// Span names whose self time a traced run reports (`self_ms.<name>`).
pub const SPANS: [&str; 12] = [
    "request",
    "automata.compile",
    "core.evaluate_prepared",
    "core.planner",
    "core.engine.exec",
    "core.engine.construct",
    "server.submit",
    "server.queue",
    "server.compile",
    "facade.update",
    "facade.commit_durable",
    "facade.query_with",
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// bypasses reports 0 (it did no work). Names ending in `.median`,
/// `.mean`, `.sum`, `.p50` or `.p99` summarize the timing series of that
/// name; the rest are work counts, ratios, or values measured once.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("automata.compile_us.median", "us"),
    ("automata.compile_us.sum", "us"),
    ("planner.plan_us.mean", "us"),
    ("planner.plan_us.sum", "us"),
    ("planner.route.fastpath", "count"),
    ("planner.route.bitparallel", "count"),
    ("planner.route.split", "count"),
    ("planner.route.fallback", "count"),
    ("engine.exec_us.mean", "us"),
    ("engine.exec_us.sum", "us"),
    ("engine.product_nodes", "count"),
    ("engine.bfs_steps", "count"),
    ("engine.levels", "count"),
    ("engine.construct_us.median", "us"),
    ("engine.construct_us.sum", "us"),
    ("succinct.rank_ops", "count"),
    ("succinct.rank_ops_saved", "count"),
    ("succinct.wavelet_nodes", "count"),
    ("succinct.batch_saving", "ratio"),
    ("pairbuf.compactions", "count"),
    ("pairbuf.raw_per_distinct", "ratio"),
    ("source.shard_probes", "count"),
    ("source.shard_probe_imbalance", "ratio"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.compile_us.sum", "us"),
    ("server.plan_cache.hit_rate", "ratio"),
    ("server.result_cache.hit_rate", "ratio"),
    ("server.result_cache.evictions", "count"),
    ("store.commit_us.p50", "us"),
    ("store.commit_us.p99", "us"),
    ("wal.bytes_per_commit", "B"),
    ("store.delta_triples", "count"),
    ("ring.build_s", "s"),
    ("storage.save_s", "s"),
    ("storage.open_s", "s"),
    ("storage.file_bytes_per_triple", "B"),
    ("trace.qps", "1/s"),
    ("trace.qps_untraced", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.identity_compared", "count"),
    ("trace.identity_mismatches", "count"),
];

/// A finished run.
pub struct Report {
    /// No error, failed operation, or mismatch anywhere in the run.
    pub correct: bool,
    /// Operations attempted (queries, plus commits on the live workload).
    pub attempted: u64,
    /// Failed operations plus correctness mismatches.
    pub failed: u64,
    /// The contract metrics of this run: end-to-end for an untraced run,
    /// per-layer for a traced one. `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Metrics that could not be reported (a percentile without ten
    /// samples beyond it); the run fails if any.
    pub refused: Vec<String>,
    /// Mismatch descriptions.
    pub mismatches: Vec<String>,
    /// The full run record, one JSON object.
    pub record: String,
    /// The traced pass's spans.
    pub spans: Option<Tracer>,
}

/// Per-layer value of `name` for a traced pass.
fn layer_value(name: &str, p: &Pass, fixed: &BTreeMap<&str, f64>) -> Result<f64, String> {
    if let Some(&v) = fixed.get(name) {
        return Ok(v);
    }
    if let Some(&v) = p.counts.get(name) {
        return Ok(v);
    }
    let count = |k: &str| p.counts.get(k).copied().unwrap_or(0.0);
    match name {
        "succinct.batch_saving" => {
            let saved = count("succinct.rank_ops_saved");
            return Ok(ratio(saved, saved + count("succinct.rank_ops")));
        }
        "pairbuf.raw_per_distinct" => {
            return Ok(ratio(count("pairbuf.reported"), count("pairbuf.pairs")));
        }
        _ => {}
    }
    let Some((base, stat)) = name.rsplit_once('.') else {
        return Ok(0.0);
    };
    let Some(series) = p.series.get(base) else {
        return Ok(0.0);
    };
    let xs = sorted(series.clone());
    let q = match stat {
        "sum" => return Ok(xs.iter().sum()),
        "median" => return Ok(median(&xs).unwrap_or(0.0)),
        // Profile phases are whole microseconds: their mean keeps every
        // digit where a median would repeat the same integer run to run.
        "mean" => return Ok(ratio(xs.iter().sum(), xs.len() as f64)),
        "p50" => 0.5,
        "p99" => 0.99,
        _ => return Ok(0.0),
    };
    quantile(&xs, q).ok_or_else(|| {
        format!(
            "{name}: {} samples, too few beyond the percentile",
            xs.len()
        )
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The commit the benchmark was built from, read from `.git` when the
/// checkout has one.
pub fn commit_id() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Builds the report of a finished workload run.
pub fn build(workload: Workload, ctx: &Ctx, mut out: WorkloadOut) -> Report {
    let main = out
        .main
        .take()
        .expect("every workload runs an untraced pass");
    let mut refused = Vec::new();
    let lat = sorted(main.latency_ms.clone());
    let mut all: Vec<(String, f64, &'static str)> = Vec::new();
    for (name, unit) in END_TO_END {
        let value = match name {
            "qps" => Some(main.qps()),
            "p50_ms" => quantile(&lat, 0.5),
            "p99_ms" => quantile(&lat, 0.99),
            "bytes_per_triple" => Some(out.bytes_per_triple),
            _ => median(&sorted(out.setup_s.clone())),
        };
        match value {
            Some(v) => all.push((name.to_string(), v, unit)),
            None => refused.push(format!(
                "{name}: {} samples, too few beyond the percentile",
                lat.len()
            )),
        }
    }

    let commits = out.extra.get("commits").copied().unwrap_or(0.0) as u64;
    let commit_failed = out.extra.get("commit_failed").copied().unwrap_or(0.0) as u64;
    let attempted = main.attempted + commits;
    let mut mismatches = out.verdict.mismatches.clone();
    let mut failed = main.outcome("failed") + commit_failed + mismatches.len() as u64;

    let mut layer: Vec<(String, f64, &'static str)> = Vec::new();
    if ctx.trace {
        let mut fixed = out.layer.clone();
        fixed
            .entry("trace.qps")
            .or_insert(ratio(main.paired as f64, main.paired_traced_s));
        fixed
            .entry("trace.qps_untraced")
            .or_insert(ratio(main.paired as f64, main.paired_untraced_s));
        fixed
            .entry("trace.identity_compared")
            .or_insert(main.identity_compared as f64);
        fixed
            .entry("trace.identity_mismatches")
            .or_insert(main.identity_mismatches as f64);
        let overhead = 1.0 - ratio(fixed["trace.qps"], fixed["trace.qps_untraced"]);
        fixed.insert("trace.overhead_frac", overhead);
        let bad = fixed["trace.identity_mismatches"] as u64;
        if bad > 0 {
            mismatches.push(format!(
                "{bad} of {} traced answers differ from the untraced answer to the same query",
                fixed["trace.identity_compared"]
            ));
            failed += bad;
        }
        for (name, unit) in PER_LAYER {
            match layer_value(name, &main, &fixed) {
                Ok(v) => layer.push((name.to_string(), v, unit)),
                Err(e) => refused.push(e),
            }
        }
        let self_ms = main.tracer.self_ms();
        for name in SPANS {
            layer.push((
                format!("self_ms.{name}"),
                self_ms.get(name).copied().unwrap_or(0.0),
                "ms",
            ));
        }
    }

    let queries = main.attempted.max(1) as f64;
    let mut extra: Vec<(String, f64, &'static str)> = vec![
        (
            "timeout_frac".into(),
            main.outcome("timed_out") as f64 / queries,
            "ratio",
        ),
        (
            "truncated_frac".into(),
            main.outcome("truncated") as f64 / queries,
            "ratio",
        ),
        (
            "error_frac".into(),
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        ("latency_samples".into(), lat.len() as f64, "count"),
        ("measured_s".into(), main.busy_s, "s"),
    ];
    for (name, &v) in &out.extra {
        let unit = if name.ends_with("_ms") { "ms" } else { "count" };
        extra.push((name.to_string(), v, unit));
    }

    let g = &ctx.inputs.graph;
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"workload\": {}, \"why\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"host_threads\": {host_threads}, \"commit\": {}, \"graph\": {{\"nodes\": {}, \"preds\": {}, \
         \"triples\": {}}}, \"log_queries\": {}, \"served_log_queries\": {}, \"setup_reps_s\": [{}], \
         \"check\": {{\"checked\": {}, \"partial\": {}, \"unverified\": {}, \"mismatches\": {}}}, \
         \"outcomes\": {{{}}}, \"end_to_end\": {}, \"extra\": {}, \"per_layer\": {}}}",
        json_str(workload.name()),
        json_str(workload.why()),
        ctx.seed,
        ctx.trace,
        ctx.seconds,
        json_str(&commit_id()),
        g.n_nodes(),
        g.n_preds(),
        g.len(),
        ctx.inputs.log.len(),
        ctx.inputs.served_log.len(),
        out.setup_s.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(", "),
        out.verdict.checked,
        out.verdict.partial,
        out.verdict.unverified,
        mismatches.len(),
        main.outcomes
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&all),
        metrics_json(&extra),
        metrics_json(&layer),
    );
    let correct = failed == 0 && refused.is_empty();
    Report {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: if ctx.trace { layer } else { all },
        refused,
        mismatches,
        record,
        spans: ctx.trace.then_some(main.tracer),
    }
}
