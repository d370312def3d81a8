//! The benchmark's inputs: the reference dataset (the synthetic graph and
//! its Table 1 query logs, fixed like the paper's Wikidata graph and
//! log), the seed-derived query orders, and the renderings the
//! name-level surface (the live facade) takes.

use std::time::Duration;

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use ring_rpq::automata::{Lit, Regex};
use ring_rpq::ring::{Dict, Graph, Id};
use ring_rpq::rpq_core::{EngineOptions, Term};
use ring_rpq::workload::{GeneratedQuery, GraphGen, GraphGenConfig, QueryGen};

/// Generator seed of the dataset (the `rpq_bench::BenchConfig` default).
/// The dataset is fixed; a run's seed drives its orders, request rounds,
/// update stream and checked sample.
pub const DATASET_SEED: u64 = 42;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Shards of the served index.
pub const SHARDS: usize = 4;
/// Queries a run measures at least, so that its p99 has ten samples
/// beyond it.
pub const MIN_QUERIES: usize = 1_000;
/// Subjects checked per variable-to-variable query.
pub const CHECK_SUBJECTS: usize = 8;

/// Sizes and limits of one benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Node universe of the synthetic graph.
    pub n_nodes: u64,
    /// Base predicate alphabet.
    pub n_preds: u64,
    /// Edge samples drawn by the generator (duplicates collapse).
    pub n_edges: usize,
    /// Scale of the Table 1 log run by `table1_seq` and `table1_live`.
    pub log_scale: f64,
    /// Scale of the log `table1_served` draws from (1.0 = 1 661 queries).
    pub served_log_scale: f64,
    /// Per-query timeout.
    pub timeout: Duration,
    /// Per-query result limit.
    pub limit: usize,
    /// Queries of a run checked against the reference evaluator.
    pub check_queries: usize,
    /// Graph versions `table1_live` checks (each needs its own
    /// reference index).
    pub check_versions: usize,
}

impl Scale {
    /// The reference scale: the `rpq_bench::BenchConfig` defaults (2^17
    /// nodes, 128 predicates, 2^20 edge samples, seed 42, the 168-query
    /// Table 1 log, a 2 s timeout, a 100 000-pair limit), with the
    /// full-scale log for serving.
    pub fn reference() -> Self {
        Self {
            n_nodes: 1 << 17,
            n_preds: 128,
            n_edges: 1 << 20,
            log_scale: 0.1,
            served_log_scale: 1.0,
            timeout: Duration::from_secs(2),
            limit: 100_000,
            check_queries: 24,
            check_versions: 4,
        }
    }

    /// A graph small enough that every workload runs in well under a
    /// second (the self-test scale).
    pub fn tiny() -> Self {
        Self {
            n_nodes: 300,
            n_preds: 8,
            n_edges: 2_000,
            log_scale: 0.05,
            served_log_scale: 0.2,
            timeout: Duration::from_millis(500),
            limit: 10_000,
            check_queries: 1_000,
            check_versions: 50,
        }
    }

    /// Engine options of every measured query.
    pub fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            limit: self.limit,
            timeout: Some(self.timeout),
            ..EngineOptions::default()
        }
    }
}

/// The dataset shared by the three workloads.
pub struct Inputs {
    /// The synthetic graph.
    pub graph: Graph,
    /// The Table 1 log over `graph` (`table1_seq`, `table1_live`).
    pub log: Vec<GeneratedQuery>,
    /// The full-scale log (`table1_served`).
    pub served_log: Vec<GeneratedQuery>,
}

impl Inputs {
    /// Generates the dataset of `scale`.
    pub fn generate(scale: &Scale) -> Self {
        let seed = DATASET_SEED;
        let graph = GraphGen::new(GraphGenConfig {
            n_nodes: scale.n_nodes,
            n_preds: scale.n_preds,
            n_edges: scale.n_edges,
            seed,
            ..Default::default()
        })
        .generate();
        let log = QueryGen::new(&graph, seed ^ 0x5eed).scaled_log(scale.log_scale);
        let served_log = QueryGen::new(&graph, seed ^ 0x5eed).scaled_log(scale.served_log_scale);
        Self {
            graph,
            log,
            served_log,
        }
    }
}

/// A seeded order of `log` positions that keeps the Table 1 pattern mix
/// in every stretch: each pattern's queries, shuffled, are spread evenly
/// over the order with seeded jitter. (A plain shuffle can bunch the
/// few heavy variable-to-variable queries; this one cannot, so runs of
/// different seeds do comparable work.)
pub fn stratified_order(log: &[GeneratedQuery], seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_pattern: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, gq) in log.iter().enumerate() {
        by_pattern.entry(gq.pattern).or_default().push(i);
    }
    let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(log.len());
    for members in by_pattern.values_mut() {
        members.shuffle(&mut rng);
        let n = members.len() as f64;
        for (k, &i) in members.iter().enumerate() {
            keyed.push(((k as f64 + rng.random::<f64>()) / n, i));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Node and predicate dictionaries naming every id by its decimal form.
pub fn decimal_dicts(graph: &Graph) -> (Dict, Dict) {
    let dict = |n: Id| {
        let mut d = Dict::new();
        for i in 0..n {
            d.intern(&i.to_string());
        }
        d
    };
    (dict(graph.n_nodes()), dict(graph.n_preds()))
}

/// An endpoint in the facade's syntax (`?x`/`?y` for variables).
pub fn term_text(t: Term, var: &str) -> String {
    match t {
        Term::Const(c) => c.to_string(),
        Term::Var => var.to_string(),
    }
}

/// An id-level expression in the parser's syntax over decimal predicate
/// names: label `p + n_base` is written `^p`.
pub fn expr_text(e: &Regex, n_base: Id) -> String {
    let label = |l: Id| {
        if l < n_base {
            l.to_string()
        } else {
            format!("^{}", l - n_base)
        }
    };
    let list = |ls: &[Id]| ls.iter().map(|&l| label(l)).collect::<Vec<_>>().join("|");
    match e {
        Regex::Epsilon => "(0){0}".to_string(),
        Regex::Literal(Lit::Label(l)) => label(*l),
        Regex::Literal(Lit::Class(ls)) => format!("({})", list(ls)),
        Regex::Literal(Lit::NegClass(ls)) => format!("!({})", list(ls)),
        Regex::Concat(a, b) => format!("({}/{})", expr_text(a, n_base), expr_text(b, n_base)),
        Regex::Alt(a, b) => format!("({}|{})", expr_text(a, n_base), expr_text(b, n_base)),
        Regex::Star(a) => format!("({})*", expr_text(a, n_base)),
        Regex::Plus(a) => format!("({})+", expr_text(a, n_base)),
        Regex::Opt(a) => format!("({})?", expr_text(a, n_base)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_rpq::automata::parser::{parse, NumericResolver};

    #[test]
    fn rendered_expressions_parse_back() {
        let inputs = Inputs::generate(&Scale::tiny());
        let n_base = inputs.graph.n_preds();
        let resolver = NumericResolver { n_base };
        for gq in inputs.log.iter().chain(&inputs.served_log) {
            let text = expr_text(&gq.query.expr, n_base);
            let back = parse(&text, &resolver).expect("rendered expression parses");
            assert_eq!(back, gq.query.expr, "{text}");
        }
    }

    #[test]
    fn orders_are_seeded_permutations_in_the_table1_mix() {
        let inputs = Inputs::generate(&Scale::tiny());
        let log = &inputs.served_log;
        let a = stratified_order(log, 9);
        assert_eq!(a, stratified_order(log, 9));
        assert_ne!(a, stratified_order(log, 10));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..log.len()).collect::<Vec<_>>());
        // Every half of the order holds about half of each pattern.
        let first_half = &a[..log.len() / 2];
        for (pattern, _) in ring_rpq::workload::TABLE1_PATTERNS {
            let total = log.iter().filter(|q| q.pattern == pattern).count();
            let early = first_half
                .iter()
                .filter(|&&i| log[i].pattern == pattern)
                .count();
            assert!(
                early.abs_diff(total / 2) <= 1,
                "{pattern}: {early} of {total}"
            );
        }
    }
}
