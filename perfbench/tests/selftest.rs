//! Self-test of the benchmark on the tiny dataset: every workload runs
//! end to end, untraced and traced, reporting exactly the metric names
//! of its kind; and the correctness gate catches an answer with one pair
//! dropped.

use std::path::PathBuf;

use perfbench::check::{compare_peers, Reference, Sample};
use perfbench::inputs::{Inputs, Scale};
use perfbench::report::{END_TO_END, PER_LAYER, SPANS};
use perfbench::{run, Workload};
use ring_rpq::ring::ring::RingOptions;
use ring_rpq::ring::Ring;
use ring_rpq::rpq_core::{RpqEngine, RpqQuery, Term};

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

#[test]
fn tiny_end_to_end() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let name = format!("{}-{trace}", workload.name());
            let report = run(workload, Scale::tiny(), 7, 0.2, trace, work_dir(&name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                report.correct,
                "{name}: {:?} {:?}",
                report.mismatches, report.refused
            );
            assert_eq!(report.failed, 0, "{name}");
            assert!(report.attempted >= 1_000, "{name}: {}", report.attempted);
            let got: Vec<&str> = report.metrics.iter().map(|m| m.0.as_str()).collect();
            let want: Vec<String> = if trace {
                PER_LAYER
                    .iter()
                    .map(|m| m.0.to_string())
                    .chain(SPANS.iter().map(|s| format!("self_ms.{s}")))
                    .collect()
            } else {
                END_TO_END.iter().map(|m| m.0.to_string()).collect()
            };
            assert_eq!(got, want, "{name}");
            assert!(report.metrics.iter().all(|m| m.1.is_finite()), "{name}");
            if trace {
                let compared = report
                    .metrics
                    .iter()
                    .find(|m| m.0 == "trace.identity_compared")
                    .map(|m| m.1);
                assert!(compared > Some(0.0), "{name}: no traced answer compared");
            }
        }
    }
}

#[test]
fn the_gate_catches_a_dropped_pair() {
    let scale = Scale::tiny();
    let inputs = Inputs::generate(&scale);
    let ring = Ring::build(&inputs.graph, RingOptions::default());
    let mut engine = RpqEngine::new(&ring);
    let mut reference = Reference::new(&inputs.graph);
    let opts = scale.engine_options();
    let mut caught = [false, false];
    for gq in &inputs.log {
        let out = engine
            .evaluate(&gq.query, &opts)
            .expect("tiny queries evaluate");
        if out.timed_out || out.truncated || out.pairs.is_empty() {
            continue;
        }
        let full = Sample {
            query: gq.query.clone(),
            answer: out.sorted_pairs(),
            complete: true,
        };
        let verdict = reference.check(&full, usize::MAX, 1);
        assert!(verdict.mismatches.is_empty(), "{:?}", verdict.mismatches);

        let mut dropped = full.clone();
        dropped.answer.remove(dropped.answer.len() / 2);
        let verdict = reference.check(&dropped, usize::MAX, 1);
        assert_eq!(verdict.mismatches.len(), 1, "{:?}", gq.query);
        assert!(compare_peers(&dropped, &full).is_some());
        // A partial answer may lack pairs, never add them.
        let partial = Sample {
            complete: false,
            ..dropped
        };
        assert!(reference
            .check(&partial, usize::MAX, 1)
            .mismatches
            .is_empty());

        let var_to_var = matches!(
            gq.query,
            RpqQuery {
                subject: Term::Var,
                object: Term::Var,
                ..
            }
        );
        caught[usize::from(var_to_var)] = true;
    }
    assert_eq!(
        caught,
        [true, true],
        "both anchored and variable-to-variable answers checked"
    );
}
