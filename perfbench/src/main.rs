//! Command line of the query-log benchmark.
//!
//! ```text
//! perfbench --workload <table1_seq|table1_served|table1_live> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run record (one JSON object) and, as the last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! Exits non-zero when any answer is wrong, any operation failed, or a
//! metric could not be reported. Work files live under `.perfbench/` in
//! the current directory; traced runs leave their spans there.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::inputs::Scale;
use perfbench::report::metrics_json;
use perfbench::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let base = PathBuf::from(".perfbench");
    let work_dir = base.join(format!("{name}-{}", std::process::id()));
    let report = match perfbench::run(
        args.workload,
        Scale::reference(),
        args.seed,
        args.seconds,
        args.trace,
        work_dir,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.mismatches {
        eprintln!("perfbench: {name}: mismatch: {m}");
    }
    for r in &report.refused {
        eprintln!("perfbench: {name}: not reported: {r}");
    }
    if let Some(spans) = &report.spans {
        let path = base.join(format!("spans-{name}-seed{}.jsonl", args.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    println!("{}", report.record);
    if !report.refused.is_empty() {
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
