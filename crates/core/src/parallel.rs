//! Threaded evaluation: batch parallelism across queries and the shared
//! worker-token pool behind intra-query frontier fan-out.
//!
//! The ring is immutable after construction, so any number of engines can
//! read it concurrently — each worker thread gets its own [`RpqEngine`]
//! (the per-query mask tables are the only mutable state; building an
//! engine is *O*(1), and its first pure-path query allocates them). This
//! is the intra-machine counterpart of the parallel/distributed RPQ
//! frameworks §2 surveys, and what a server embedding the ring would do
//! per client.
//!
//! ## The process-wide helper pool
//!
//! Every parallel region — a batch, a BFS level fanned out by
//! [`EngineOptions::intra_query_threads`], a fast-path sweep — draws its
//! *extra* threads from one global token budget of
//! `available_parallelism − 1` tokens (`acquire_helpers`). The calling
//! thread always works too, and it holds no token: helpers across the
//! process never exceed [`pool_capacity`], but `N` callers fanning out
//! concurrently (queries on `N` threads, a server's `N` workers) can run
//! `N + pool_capacity()` threads. When tokens run dry a region simply
//! runs on its caller alone, and so it does when the OS refuses to start
//! a helper: the caller drains the region's chunk or query cursor.
//! Tokens are released on drop, making the accounting panic-safe.

use ring::Ring;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::engine::RpqEngine;
use crate::query::{EngineOptions, QueryOutput, RpqQuery};
use crate::source::TripleSource;
use crate::QueryError;

/// The global budget of *extra* worker tokens (the calling thread is
/// always implicit and free). Initialized on first use to
/// `available_parallelism − 1`, overridable with the
/// `RPQ_PARALLEL_POOL` environment variable (useful to exercise real
/// concurrency in tests on small machines, or to fence the engine off a
/// few cores).
static HELPER_TOKENS: OnceLock<AtomicUsize> = OnceLock::new();
static POOL_CAPACITY: OnceLock<usize> = OnceLock::new();

/// The total extra-worker budget of the process-wide pool (see module
/// docs): `available_parallelism − 1`, or the `RPQ_PARALLEL_POOL`
/// override. Observability surfaces (the server's metrics JSON) report
/// it so parallel-efficiency numbers have a denominator.
pub fn pool_capacity() -> usize {
    *POOL_CAPACITY.get_or_init(|| {
        std::env::var("RPQ_PARALLEL_POOL")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| host_threads() - 1)
    })
}

/// The host's `available_parallelism` (at least 1), read once: the
/// default [`EngineOptions::intra_query_threads`].
pub(crate) fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn tokens() -> &'static AtomicUsize {
    HELPER_TOKENS.get_or_init(|| AtomicUsize::new(pool_capacity()))
}

/// Extra-worker tokens currently checked out of the pool — a
/// point-in-time utilization gauge (`pool_capacity()` is the
/// denominator). Exported by the server's metrics endpoints; inherently
/// racy, like any gauge.
pub fn pool_in_use() -> usize {
    pool_capacity().saturating_sub(tokens().load(Ordering::Acquire))
}

/// A grant of extra worker tokens; tokens return to the pool on drop
/// (panic-safe, so an unwinding parallel region cannot leak capacity).
pub struct HelperGrant(usize);

impl HelperGrant {
    /// How many extra threads this grant allows (0 = run caller-only).
    pub fn count(&self) -> usize {
        self.0
    }
}

impl Drop for HelperGrant {
    fn drop(&mut self) {
        if self.0 > 0 {
            tokens().fetch_add(self.0, Ordering::AcqRel);
        }
    }
}

/// Takes up to `want` extra-worker tokens from the process-wide pool
/// (possibly 0 — the caller then runs alone). Never blocks: intra-query
/// parallelism is opportunistic by design, so contention degrades to
/// sequential evaluation instead of queuing.
pub fn acquire_helpers(want: usize) -> HelperGrant {
    if want == 0 {
        return HelperGrant(0);
    }
    let pool = tokens();
    let mut cur = pool.load(Ordering::Acquire);
    loop {
        let take = cur.min(want);
        if take == 0 {
            return HelperGrant(0);
        }
        match pool.compare_exchange_weak(cur, cur - take, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return HelperGrant(take),
            Err(now) => cur = now,
        }
    }
}

/// Maps `items` chunk-by-chunk on the shared pool and consumes results
/// **in chunk order** — the primitive behind the deterministic fast-path
/// fan-out. `map(chunk_index, chunk)` must be pure with respect to shared
/// state (it runs concurrently); `consume` runs on the caller thread, in
/// ascending chunk order, and returns `false` to stop early (pending
/// speculative chunks are discarded, exactly like the sequential loop
/// never computing them).
///
/// Scheduling is in waves of `4 × workers` chunks so an early stop
/// bounds wasted speculation; within a wave chunks are claimed from an
/// atomic cursor, so skew balances. With an empty grant this degrades to
/// the plain sequential map-consume loop.
pub fn map_chunks_ordered<I, T, M, C>(
    items: &[I],
    chunk_size: usize,
    extra_threads: usize,
    map: M,
    mut consume: C,
) where
    I: Sync,
    T: Send + Sync,
    M: Fn(usize, &[I]) -> T + Sync,
    C: FnMut(T) -> bool,
{
    let grant = acquire_helpers(extra_threads);
    if grant.count() == 0 {
        for (c, chunk) in items.chunks(chunk_size).enumerate() {
            if !consume(map(c, chunk)) {
                return;
            }
        }
        return;
    }
    let n_chunks = items.len().div_ceil(chunk_size);
    let wave = (grant.count() + 1) * 4;
    let mut start = 0;
    while start < n_chunks {
        let end = (start + wave).min(n_chunks);
        let slots: Vec<OnceLock<T>> = (start..end).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(start);
        std::thread::scope(|scope| {
            let work = || loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= end {
                    break;
                }
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                let _ = slots[c - start].set(map(c, &items[lo..hi]));
            };
            for _ in 0..grant.count().min(end - start - 1) {
                // A helper the OS does not start leaves its chunks to the
                // others: the caller drains the cursor either way.
                let _ = std::thread::Builder::new().spawn_scoped(scope, work);
            }
            work();
        });
        for slot in slots {
            let t = slot
                .into_inner()
                .expect("every chunk of a completed wave is filled");
            if !consume(t) {
                return;
            }
        }
        start = end;
    }
}

/// Evaluates `queries` over `ring` using up to `n_threads` workers
/// (clamped to at least 1), returning one result per query in input
/// order.
///
/// Work is distributed dynamically (an atomic cursor), so skewed query
/// costs — the norm in RPQ logs — balance across workers. A panicking
/// worker is contained: its in-flight query reports
/// [`QueryError::Internal`] and every other query still completes (the
/// calling thread re-claims whatever the dead worker would have run).
pub fn evaluate_batch(
    ring: &Ring,
    queries: &[RpqQuery],
    opts: &EngineOptions,
    n_threads: usize,
) -> Vec<Result<QueryOutput, QueryError>> {
    evaluate_batch_with(ring, queries, opts, n_threads, &|engine, q, opts| {
        engine.evaluate(q, opts)
    })
}

/// [`evaluate_batch`] over any [`TripleSource`] — each worker's engine is
/// built with [`RpqEngine::over`], so delta overlays and shard parts
/// merge into every evaluation exactly as they do single-threaded.
pub fn evaluate_batch_over(
    source: &(impl TripleSource + Sync + ?Sized),
    queries: &[RpqQuery],
    opts: &EngineOptions,
    n_threads: usize,
) -> Vec<Result<QueryOutput, QueryError>> {
    evaluate_batch_core(
        &|| RpqEngine::over(source),
        queries,
        opts,
        n_threads,
        &|engine, q, opts| engine.evaluate(q, opts),
    )
}

/// The generic core of [`evaluate_batch`], with the per-query evaluation
/// injected — the seam the panic-containment tests use.
pub(crate) fn evaluate_batch_with(
    ring: &Ring,
    queries: &[RpqQuery],
    opts: &EngineOptions,
    n_threads: usize,
    eval: &(dyn Fn(&mut RpqEngine, &RpqQuery, &EngineOptions) -> Result<QueryOutput, QueryError>
          + Sync),
) -> Vec<Result<QueryOutput, QueryError>> {
    evaluate_batch_core(&|| RpqEngine::new(ring), queries, opts, n_threads, eval)
}

/// The shared worker loop: one engine per worker (built by
/// `make_engine`), dynamic work claiming, panic containment.
fn evaluate_batch_core<'r>(
    make_engine: &(dyn Fn() -> RpqEngine<'r> + Sync),
    queries: &[RpqQuery],
    opts: &EngineOptions,
    n_threads: usize,
    eval: &(dyn Fn(&mut RpqEngine, &RpqQuery, &EngineOptions) -> Result<QueryOutput, QueryError>
          + Sync),
) -> Vec<Result<QueryOutput, QueryError>> {
    let n = queries.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = n_threads.max(1).min(n);
    let cursor = AtomicUsize::new(0);
    let done: Vec<OnceLock<Result<QueryOutput, QueryError>>> =
        (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        // Helpers run without a panic guard: a panic kills only that
        // worker, and the explicit join below swallows it so the scope
        // does not re-raise. Its in-flight query keeps an empty slot.
        let worker = || {
            let mut engine = make_engine();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let _ = done[i].set(eval(&mut engine, &queries[i], opts));
            }
        };
        // A worker the OS does not start leaves its queries to the
        // others: the caller drains the cursor either way.
        let handles: Vec<_> = (1..workers)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, worker).ok())
            .collect();
        // The caller participates too, but guards each query so one
        // poisoned evaluation cannot sink the whole batch: on a panic the
        // engine (whose mask tables may be mid-update) is replaced by a
        // fresh one, whose tables are reallocated on next use.
        let mut engine = make_engine();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eval(&mut engine, &queries[i], opts)
            }));
            let r = r.unwrap_or_else(|cause| {
                engine = make_engine();
                Err(QueryError::Internal(panic_message(&cause)))
            });
            let _ = done[i].set(r);
        }
        for h in handles {
            // A worker that panicked left its in-flight slot empty; the
            // post-scope sweep converts it. Swallowing the join error is
            // the fix for the old `.expect("worker panicked")` abort.
            let _ = h.join();
        }
    });
    done.into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or_else(|| {
                Err(QueryError::Internal(
                    "batch worker panicked while evaluating this query".to_string(),
                ))
            })
        })
        .collect()
}

/// Best-effort rendering of a panic payload.
fn panic_message(cause: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = cause.downcast_ref::<&str>() {
        format!("evaluation panicked: {s}")
    } else if let Some(s) = cause.downcast_ref::<String>() {
        format!("evaluation panicked: {s}")
    } else {
        "evaluation panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Term;
    use automata::Regex;
    use ring::ring::RingOptions;
    use ring::{Graph, Triple};

    fn ring() -> Ring {
        let triples = (0..200u64)
            .map(|i| Triple::new(i % 40, i % 3, (i * 7 + 1) % 40))
            .collect();
        Ring::build(&Graph::from_triples(triples), RingOptions::default())
    }

    fn queries() -> Vec<RpqQuery> {
        let mut qs = Vec::new();
        for p in 0..3u64 {
            for anchor in 0..10u64 {
                qs.push(RpqQuery::new(
                    Term::Const(anchor),
                    Regex::Plus(Box::new(Regex::label(p))),
                    Term::Var,
                ));
                qs.push(RpqQuery::new(
                    Term::Var,
                    Regex::concat(Regex::label(p), Regex::Star(Box::new(Regex::label(2 - p)))),
                    Term::Const(anchor),
                ));
            }
        }
        qs
    }

    #[test]
    fn parallel_matches_sequential() {
        let r = ring();
        let qs = queries();
        let opts = EngineOptions::default();
        let mut engine = RpqEngine::new(&r);
        let sequential: Vec<_> = qs
            .iter()
            .map(|q| engine.evaluate(q, &opts).unwrap().sorted_pairs())
            .collect();
        for threads in [1, 2, 4, 7] {
            let parallel = evaluate_batch(&r, &qs, &opts, threads);
            assert_eq!(parallel.len(), qs.len());
            for (i, res) in parallel.into_iter().enumerate() {
                assert_eq!(
                    res.unwrap().sorted_pairs(),
                    sequential[i],
                    "query {i} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_errors_propagate() {
        let r = ring();
        let opts = EngineOptions::default();
        assert!(evaluate_batch(&r, &[], &opts, 4).is_empty());
        // Bad query keeps its slot.
        let qs = vec![
            RpqQuery::new(Term::Const(0), Regex::label(0), Term::Var),
            RpqQuery::new(Term::Const(9999), Regex::label(0), Term::Var),
        ];
        let res = evaluate_batch(&r, &qs, &opts, 2);
        assert!(res[0].is_ok());
        assert!(matches!(
            res[1],
            Err(crate::QueryError::NodeOutOfRange(9999))
        ));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let r = ring();
        let qs = queries();
        let opts = EngineOptions::default();
        let res = evaluate_batch(&r, &qs, &opts, 0);
        assert_eq!(res.len(), qs.len());
        assert!(res.into_iter().all(|r| r.is_ok()));
    }

    /// A worker panicking mid-batch must not abort the process: the
    /// poisoned query reports `Internal` and every other query completes
    /// with the right answer.
    #[test]
    fn worker_panic_is_contained() {
        let r = ring();
        let qs = queries();
        let opts = EngineOptions::default();
        let mut engine = RpqEngine::new(&r);
        let sequential: Vec<_> = qs
            .iter()
            .map(|q| engine.evaluate(q, &opts).unwrap().sorted_pairs())
            .collect();
        // Poison one mid-batch query, identified by its content.
        let victim = qs.len() / 2;
        let victim_subject = qs[victim].subject;
        let victim_expr = qs[victim].expr.clone();
        // Quiet the default hook: the injected panics are expected.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [0, 1, 2, 4] {
            let res = evaluate_batch_with(&r, &qs, &opts, threads, &|engine, q, opts| {
                if q.subject == victim_subject && q.expr == victim_expr {
                    panic!("injected worker failure");
                }
                engine.evaluate(q, opts)
            });
            assert_eq!(res.len(), qs.len());
            for (i, r) in res.into_iter().enumerate() {
                if qs[i].subject == victim_subject && qs[i].expr == victim_expr {
                    assert!(
                        matches!(r, Err(QueryError::Internal(_))),
                        "victim {i} with {threads} threads: {r:?}"
                    );
                } else {
                    assert_eq!(
                        r.unwrap().sorted_pairs(),
                        sequential[i],
                        "query {i} with {threads} threads"
                    );
                }
            }
        }
        std::panic::set_hook(prev_hook);
    }

    /// Serializes the tests that observe or drain the global token pool
    /// (the test harness runs tests concurrently).
    static POOL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn helper_tokens_are_returned_on_drop() {
        let _guard = POOL_TEST_LOCK.lock().unwrap();
        // Capacity is machine-dependent; what must hold is conservation.
        let before = tokens().load(Ordering::Acquire);
        {
            let g1 = acquire_helpers(2);
            assert!(g1.count() <= before.min(2));
            let remaining = tokens().load(Ordering::Acquire);
            assert_eq!(remaining, before - g1.count());
            let g2 = acquire_helpers(usize::MAX);
            assert_eq!(g2.count(), remaining);
            assert_eq!(tokens().load(Ordering::Acquire), 0);
        }
        assert_eq!(tokens().load(Ordering::Acquire), before);
        assert_eq!(acquire_helpers(0).count(), 0);
    }

    #[test]
    fn map_chunks_ordered_replays_in_order_and_stops_early() {
        let _guard = POOL_TEST_LOCK.lock().unwrap();
        let items: Vec<usize> = (0..1000).collect();
        for extra in [0, 3] {
            let mut seen = Vec::new();
            map_chunks_ordered(
                &items,
                64,
                extra,
                |c, chunk| (c, chunk.iter().sum::<usize>()),
                |t| {
                    seen.push(t);
                    true
                },
            );
            let expect: Vec<(usize, usize)> = items
                .chunks(64)
                .enumerate()
                .map(|(c, ch)| (c, ch.iter().sum()))
                .collect();
            assert_eq!(seen, expect, "extra={extra}");
            // Early stop after 3 chunks consumes exactly 3.
            let mut n = 0;
            map_chunks_ordered(
                &items,
                64,
                extra,
                |c, _| c,
                |_| {
                    n += 1;
                    n < 3
                },
            );
            assert_eq!(n, 3, "extra={extra}");
        }
    }
}
