//! The query-log benchmark of ring-rpq: the paper's Table 1 log run
//! three ways over one seeded graph, with every answer kind checked and
//! every metric printed by name with its unit.
//!
//! - `table1_seq`: the log through one reused engine over the heap ring.
//! - `table1_served`: Zipf-popular log queries through the server over a
//!   memory-mapped 4-shard index, two closed-loop clients.
//! - `table1_live`: durable update batches beside queries on the
//!   updatable facade.
//!
//! `run` measures one workload for a number of seconds and returns a
//! [`Report`]; the binary prints it.

pub mod check;
pub mod inputs;
pub mod live;
pub mod measure;
pub mod report;
pub mod seq;
pub mod served;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use check::Verdict;
use inputs::{Inputs, Scale};
use measure::Pass;
pub use report::Report;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table 1 log on the heap ring, one client.
    Table1Seq,
    /// The log served over mmap shards, two clients.
    Table1Served,
    /// Durable update batches beside queries.
    Table1Live,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Table1Seq,
        Workload::Table1Served,
        Workload::Table1Live,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Seq => "table1_seq",
            Workload::Table1Served => "table1_served",
            Workload::Table1Live => "table1_live",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Table1Seq => {
                "The paper's Fig. 8 experiment: the pure succinct path (core.engine + succinct), \
                 bypassing the server, caches, shards, mmap and the delta."
            }
            Workload::Table1Served => {
                "Exercises what table1_seq bypasses: server queue wait, plan cache, a result cache \
                 the answer working set exceeds while the Zipf head fits, mmap storage and 4-shard \
                 gather."
            }
            Workload::Table1Live => {
                "Writes beside reads: each query runs the merged ring+delta path and pays facade \
                 engine construction; each commit pays the WAL fsync and the O(delta) store commit."
            }
        }
    }
}

/// Everything one workload run needs.
pub struct Ctx<'a> {
    /// Sizes and limits.
    pub scale: Scale,
    /// The run's seed.
    pub seed: u64,
    /// Seconds each timed pass measures.
    pub seconds: f64,
    /// Whether this is a traced run (per-layer metrics, spans, and the
    /// tracing-overhead and identity checks).
    pub trace: bool,
    /// The dataset.
    pub inputs: &'a Inputs,
    /// A directory the run may create files in (removed afterwards).
    pub work_dir: PathBuf,
}

/// What a workload hands back for reporting.
#[derive(Default)]
pub struct WorkloadOut {
    /// Each set-up repetition's time, s.
    pub setup_s: Vec<f64>,
    /// Index bytes per triple (the workload's storage form).
    pub bytes_per_triple: f64,
    /// The measured pass (traced on a traced run).
    pub main: Option<Pass>,
    /// The correctness gate's findings.
    pub verdict: Verdict,
    /// Per-layer values the workload measures outside its passes.
    pub layer: BTreeMap<&'static str, f64>,
    /// Record-only end-to-end values (e.g. commit latency quantiles).
    pub extra: BTreeMap<&'static str, f64>,
}

/// Runs one workload on `seed`'s inputs.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
) -> Result<Report, String> {
    let inputs = Inputs::generate(&scale);
    let ctx = Ctx {
        scale,
        seed,
        seconds,
        trace,
        inputs: &inputs,
        work_dir: work_dir.clone(),
    };
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    let out = match workload {
        Workload::Table1Seq => seq::run(&ctx),
        Workload::Table1Served => served::run(&ctx),
        Workload::Table1Live => live::run(&ctx),
    };
    let cleanup = std::fs::remove_dir_all(&work_dir);
    let out = out?;
    cleanup.map_err(|e| format!("removing {}: {e}", work_dir.display()))?;
    Ok(report::build(workload, &ctx, out))
}
