//! The workspace's one fork–join helper.
//!
//! Every parallel search site — Monte Carlo draws, SA restarts, the
//! batched `eval_many_parallel` chunks, the portfolio race and the
//! `experiments` sweeps — fans a grid of independent items out through
//! [`run_indexed`]. It spawns `min(workers, n)` scoped threads that each
//! claim the next unclaimed index from a shared atomic counter, so a slow
//! item never strands the rest of the grid behind it.
//!
//! Each worker hands its `(index, value)` pairs back through its join
//! handle and the caller puts them in index order, so the output — and
//! every reduction over it — is identical to the serial order whatever
//! the worker count or claim interleaving. A panicking item re-raises its
//! original payload in the caller.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound of [`default_workers`]: past eight threads the solver
/// layers stop scaling and only add scheduling noise.
const MAX_DEFAULT_WORKERS: usize = 8;

/// Core count the host reports (1 if detection fails).
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Default worker budget of every parallel solver site: the detected
/// core count, capped at eight.
pub fn default_workers() -> usize {
    detected_cores().min(MAX_DEFAULT_WORKERS)
}

/// Run `f(0..n)` on up to `workers` threads and return the results in
/// index order.
///
/// `workers` is clamped to `[1, n]`; at one worker the items run inline
/// on the caller's thread and no thread is spawned. Blocks until the
/// whole grid is done. If an item panics, the panic is re-raised in the
/// caller with its original payload once the other workers have drained
/// the grid.
pub fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    // The counter only hands out indices (`Relaxed`); the values reach
    // the caller through the joins, which order them after the writes.
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    let mut pairs: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = run_indexed(workers, 37, |i| i * i);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_grid_returns_empty() {
        let got: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn claiming_covers_every_index_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let got = run_indexed(3, 100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_reraises_its_original_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(usize);
        for workers in [1, 2] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_indexed(workers, 8, |i| {
                    if i == 5 {
                        std::panic::panic_any(Payload(i));
                    }
                    i
                })
            }));
            let payload = caught.expect_err("item 5 panics");
            assert_eq!(
                payload.downcast_ref::<Payload>(),
                Some(&Payload(5)),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for (workers, n) in [(1, 4), (4, 1)] {
            let ids = run_indexed(workers, n, |_| std::thread::current().id());
            assert!(
                ids.iter().all(|&id| id == caller),
                "workers = {workers}, n = {n}"
            );
        }
    }

    #[test]
    fn default_workers_is_the_core_count_capped_at_eight() {
        assert!(detected_cores() >= 1);
        assert_eq!(default_workers(), detected_cores().min(8));
    }
}
