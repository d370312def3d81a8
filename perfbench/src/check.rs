//! The correctness gate: answers kept from a run are compared, after the
//! timed part, with an independent evaluator (`baselines::NfaBfsEngine`,
//! node-at-a-time product BFS over adjacency lists).
//!
//! A complete answer must equal the reference; a timed-out or truncated
//! one must be a subset of it. Anchored queries are compared whole.
//! A variable-to-variable query is compared on a seeded set of subjects
//! (half drawn from the answer, half from the node universe): for each,
//! the answer's pairs with that subject against the reference anchored
//! at it.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ring_rpq::baselines::{AdjacencyIndex, NfaBfsEngine, PathEngine};
use ring_rpq::ring::{Graph, Id};
use ring_rpq::rpq_core::{EngineOptions, RpqQuery, Term};

/// Sorted answer pairs.
type Pairs = Vec<(Id, Id)>;

/// An answer kept for checking.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The query as the workload generated it.
    pub query: RpqQuery,
    /// The pairs returned (any order; duplicates tolerated).
    pub answer: Vec<(Id, Id)>,
    /// Neither timed out nor truncated.
    pub complete: bool,
}

impl Sample {
    /// The answer sorted and deduplicated.
    pub fn pairs(&self) -> Vec<(Id, Id)> {
        let mut v = self.answer.clone();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// What the gate found over a run's samples.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Samples compared.
    pub checked: u64,
    /// Of those, partial answers (checked as subsets).
    pub partial: u64,
    /// Samples the reference could not finish for every subject
    /// (compared only where it did).
    pub unverified: u64,
    /// One line per mismatch.
    pub mismatches: Vec<String>,
}

impl Verdict {
    /// Folds another verdict into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.partial += other.partial;
        self.unverified += other.unverified;
        self.mismatches.extend(other.mismatches);
    }
}

/// The reference evaluator over one graph version.
pub struct Reference {
    engine: NfaBfsEngine,
    n_nodes: Id,
    opts: EngineOptions,
}

impl Reference {
    /// Indexes `graph` for the reference evaluator.
    pub fn new(graph: &Graph) -> Self {
        Self {
            engine: NfaBfsEngine::new(Arc::new(AdjacencyIndex::from_graph(graph))),
            n_nodes: graph.n_nodes(),
            opts: EngineOptions {
                limit: usize::MAX,
                timeout: Some(Duration::from_secs(20)),
                ..EngineOptions::default()
            },
        }
    }

    /// The complete reference answer, sorted, or `None` if it timed out.
    fn answer(&mut self, q: &RpqQuery) -> Option<Vec<(Id, Id)>> {
        let out = self
            .engine
            .run(q, &self.opts)
            .expect("the reference evaluates every generated query");
        (!out.timed_out).then(|| {
            let mut v = out.pairs;
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    /// Checks one sample; `subjects` bounds the subjects compared for a
    /// variable-to-variable query (all of them when it exceeds the
    /// universe).
    pub fn check(&mut self, sample: &Sample, subjects: usize, seed: u64) -> Verdict {
        let got = sample.pairs();
        let mut verdict = Verdict {
            checked: 1,
            partial: u64::from(!sample.complete),
            ..Verdict::default()
        };
        let q = &sample.query;
        // (pairs got, reference pairs or None if the reference timed out)
        let comparisons: Vec<(Pairs, Option<Pairs>)> = match q.subject {
            Term::Var if q.object == Term::Var => self
                .subjects(&got, subjects, seed)
                .into_iter()
                .map(|s| {
                    let lo = got.partition_point(|&(x, _)| x < s);
                    let hi = got.partition_point(|&(x, _)| x <= s);
                    let anchored = RpqQuery::new(Term::Const(s), q.expr.clone(), Term::Var);
                    (got[lo..hi].to_vec(), self.answer(&anchored))
                })
                .collect(),
            _ => vec![(got, self.answer(q))],
        };
        for (got, want) in comparisons {
            let Some(want) = want else {
                verdict.unverified = 1;
                continue;
            };
            if let Some(bad) = compare(&got, &want, sample.complete) {
                verdict.mismatches.push(format!("{q:?}: {bad}"));
            }
        }
        verdict
    }

    fn subjects(&self, got: &[(Id, Id)], k: usize, seed: u64) -> Vec<Id> {
        if k as u64 >= self.n_nodes {
            return (0..self.n_nodes).collect();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut from_answer: Vec<Id> = got.iter().map(|&(s, _)| s).collect();
        from_answer.dedup();
        let mut out: Vec<Id> = (0..k / 2)
            .filter(|_| !from_answer.is_empty())
            .map(|_| from_answer[rng.random_range(0..from_answer.len())])
            .collect();
        while out.len() < k {
            out.push(rng.random_range(0..self.n_nodes));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// `None` when `got` is consistent with `want` (equal if complete, a
/// subset otherwise); else a description of the first difference.
pub fn compare(got: &[(Id, Id)], want: &[(Id, Id)], complete: bool) -> Option<String> {
    if let Some(extra) = got.iter().find(|p| want.binary_search(p).is_err()) {
        return Some(format!(
            "pair {extra:?} is not in the reference answer ({} pairs, got {})",
            want.len(),
            got.len()
        ));
    }
    (complete && got.len() != want.len()).then(|| {
        let missing = want.iter().find(|p| got.binary_search(p).is_err());
        format!(
            "complete answer has {} pairs, the reference {}; missing {missing:?}",
            got.len(),
            want.len()
        )
    })
}

/// Compares two surfaces' answers to the same query on the same data
/// (e.g. served against sequential): equal when both are complete, a
/// subset when one is partial.
pub fn compare_peers(a: &Sample, b: &Sample) -> Option<String> {
    let (pa, pb) = (a.pairs(), b.pairs());
    let out = match (a.complete, b.complete) {
        (true, true) => compare(&pa, &pb, true),
        (false, true) => compare(&pa, &pb, false),
        (true, false) => compare(&pb, &pa, false),
        (false, false) => None,
    };
    out.map(|m| format!("{:?}: surfaces disagree: {m}", a.query))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_equal_subset_and_missing() {
        let want = vec![(0, 1), (0, 2), (3, 4)];
        assert_eq!(compare(&want, &want, true), None);
        assert_eq!(compare(&want[..2], &want, false), None);
        assert!(compare(&want[..2], &want, true).is_some());
        assert!(compare(&[(9, 9)], &want, false).is_some());
    }
}
