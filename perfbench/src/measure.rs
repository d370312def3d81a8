//! What a timed pass records: client-side latencies, outcome counts,
//! per-layer series and counts, kept answers, and spans.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ring_rpq::ring::Id;
use ring_rpq::rpq_core::EvalRoute;

use crate::trace::Tracer;

/// A seeded uniform sample of at most `k` of the items offered.
pub struct Reservoir<T> {
    k: usize,
    seen: u64,
    rng: StdRng,
    /// The kept items.
    pub items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// An empty reservoir of capacity `k`.
    pub fn new(k: usize, seed: u64) -> Self {
        Self {
            k,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
            items: Vec::new(),
        }
    }

    /// Offers the next item; `make` runs only if the item is kept.
    pub fn offer(&mut self, make: impl FnOnce() -> T) {
        self.seen += 1;
        if self.items.len() < self.k {
            self.items.push(make());
        } else {
            let j = self.rng.random_range(0..self.seen) as usize;
            if j < self.k {
                self.items[j] = make();
            }
        }
    }
}

/// An order-independent 64-bit digest of an answer's pair set (pairs
/// are distinct under set semantics, so a sum of mixed pairs suffices).
pub fn answer_digest(pairs: &[(Id, Id)]) -> u64 {
    pairs.iter().fold(pairs.len() as u64, |acc, &(s, o)| {
        let mut z = s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ o.rotate_left(32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc.wrapping_add(z ^ (z >> 31))
    })
}

/// How one operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A complete answer.
    Complete,
    /// A partial answer: the timeout hit.
    TimedOut,
    /// A partial answer: the result limit hit.
    Truncated,
    /// An error or a refused operation.
    Failed,
}

/// The record of one timed pass.
pub struct Pass {
    /// Measured time, s (the program's time; client-side input
    /// generation between operations is excluded).
    pub busy_s: f64,
    /// Per-query latency, ms, of every answered query.
    pub latency_ms: Vec<f64>,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries per outcome.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Per-layer timing series (µs unless named otherwise).
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer work counts.
    pub counts: BTreeMap<&'static str, f64>,
    /// `(key, digest, complete)` per answer, when digests are on.
    pub digests: Vec<(usize, u64, bool)>,
    /// Traced runs: queries also run untraced, back to back with the
    /// traced run (alternating which goes first).
    pub paired: u64,
    /// Time the traced side of the pairs took, s.
    pub paired_traced_s: f64,
    /// Time the untraced side of the pairs took, s.
    pub paired_untraced_s: f64,
    /// Pairs whose two answers were both complete, and so compared.
    pub identity_compared: u64,
    /// Compared pairs whose answers differed.
    pub identity_mismatches: u64,
    /// Spans.
    pub tracer: Tracer,
}

impl Pass {
    /// An empty pass whose spans count from `origin`.
    pub fn new(origin: Instant, trace: bool) -> Self {
        Self {
            busy_s: 0.0,
            latency_ms: Vec::new(),
            attempted: 0,
            outcomes: BTreeMap::new(),
            series: BTreeMap::new(),
            counts: BTreeMap::new(),
            digests: Vec::new(),
            paired: 0,
            paired_traced_s: 0.0,
            paired_untraced_s: 0.0,
            identity_compared: 0,
            identity_mismatches: 0,
            tracer: Tracer::new(origin, trace),
        }
    }

    /// Records one query's outcome and, if answered, its latency.
    pub fn note(&mut self, outcome: Outcome, latency: Duration) {
        self.attempted += 1;
        let key = match outcome {
            Outcome::Complete => "complete",
            Outcome::TimedOut => "timed_out",
            Outcome::Truncated => "truncated",
            Outcome::Failed => "failed",
        };
        *self.outcomes.entry(key).or_insert(0) += 1;
        if outcome != Outcome::Failed {
            self.latency_ms.push(latency.as_secs_f64() * 1e3);
        }
    }

    /// Queries that ended with `key` (`complete`, `timed_out`, ...).
    pub fn outcome(&self, key: &str) -> u64 {
        self.outcomes.get(key).copied().unwrap_or(0)
    }

    /// Appends to a timing series.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    /// Adds to a work count.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Counts one planner route decision.
    pub fn route(&mut self, route: EvalRoute) {
        self.add(
            match route {
                EvalRoute::FastPath => "planner.route.fastpath",
                EvalRoute::BitParallel => "planner.route.bitparallel",
                EvalRoute::Split => "planner.route.split",
                EvalRoute::Fallback => "planner.route.fallback",
            },
            1.0,
        );
    }

    /// Folds another client's pass (same origin) into this one.
    pub fn absorb(&mut self, other: Pass) {
        self.latency_ms.extend(other.latency_ms);
        self.attempted += other.attempted;
        for (k, v) in other.outcomes {
            *self.outcomes.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.series {
            self.series.entry(k).or_default().extend(v);
        }
        for (k, v) in other.counts {
            self.add(k, v);
        }
        self.digests.extend(other.digests);
        self.tracer.absorb(other.tracer);
    }

    /// Records one traced/untraced pair: both sides' times and, when
    /// both answers are complete, whether they agree.
    pub fn pair(&mut self, traced: Duration, untraced: Duration, same: Option<bool>) {
        self.paired += 1;
        self.paired_traced_s += traced.as_secs_f64();
        self.paired_untraced_s += untraced.as_secs_f64();
        if let Some(same) = same {
            self.identity_compared += 1;
            self.identity_mismatches += u64::from(!same);
        }
    }

    /// Completed queries per second of measured time.
    pub fn qps(&self) -> f64 {
        crate::stats::ratio(self.latency_ms.len() as f64, self.busy_s)
    }
}

/// Compares two passes' digests: the number of keys answered completely
/// in both whose answers differ, and the number compared.
pub fn digest_mismatches(a: &[(usize, u64, bool)], b: &[(usize, u64, bool)]) -> (u64, u64) {
    let first: BTreeMap<usize, u64> = a.iter().rev().filter(|d| d.2).map(|d| (d.0, d.1)).collect();
    let (mut bad, mut compared) = (0, 0);
    for &(key, digest, complete) in b {
        if let (true, Some(&want)) = (complete, first.get(&key)) {
            compared += 1;
            bad += u64::from(want != digest);
        }
    }
    (bad, compared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order() {
        assert_eq!(
            answer_digest(&[(1, 2), (3, 4)]),
            answer_digest(&[(3, 4), (1, 2)])
        );
        assert_ne!(answer_digest(&[(1, 2)]), answer_digest(&[(2, 1)]));
        assert_ne!(answer_digest(&[(1, 2), (3, 4)]), answer_digest(&[(1, 2)]));
    }

    #[test]
    fn reservoir_is_seeded_and_bounded() {
        let run = |seed| {
            let mut r = Reservoir::new(5, seed);
            for i in 0..100 {
                r.offer(|| i);
            }
            r.items
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(1).len(), 5);
    }
}
