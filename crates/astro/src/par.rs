//! Deterministic data parallelism: the workspace's one thread pool.
//!
//! Every intra-process parallel loop goes through [`par_map`]: the
//! population grid's row fill, snapshot builds, gravity draws, candidate
//! scoring, attack refinement, the per-slot loops of a network point
//! (intact evaluator build, reference route, degraded pass, λ₂ and
//! percolation sweeps) and the sweep runner itself. Workers
//! claim items off one shared queue and every result is put back at its
//! item's index, so the output is in input order and identical for every
//! thread count: threads change how fast a result arrives, never what it
//! is. The calling thread is one of the workers, so a pool of `n` workers
//! spawns `n - 1` threads.
//!
//! ```
//! use ssplane_astro::par::par_map;
//!
//! let squares = par_map((1..=5).collect(), 3, |x: u64| x * x);
//! assert_eq!(squares, [1, 4, 9, 16, 25]);
//! ```

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Budget used when the machine's parallelism cannot be read.
const FALLBACK_THREADS: usize = 4;

/// The thread budget `threads` stands for: itself, or the machine's
/// available parallelism when `0`.
pub fn budget(threads: usize) -> usize {
    if threads == 0 {
        #[expect(
            clippy::disallowed_methods,
            reason = "this module is the workspace's one thread pool"
        )]
        std::thread::available_parallelism().map_or(FALLBACK_THREADS, NonZeroUsize::get)
    } else {
        threads
    }
}

/// The workers a pool of `threads` (`0` = the machine) runs for `jobs`
/// items: the [`budget`], clamped to `1..=jobs` (at least one worker
/// even for no jobs).
pub fn workers(threads: usize, jobs: usize) -> usize {
    budget(threads).clamp(1, jobs.max(1))
}

/// Maps `f` over `items` on [`workers`]`(threads, items.len())` workers,
/// returning the results in input order.
///
/// The calling thread is a worker too: it runs items next to
/// `workers - 1` scoped threads, and with one worker it runs them all
/// inline. Items move into `f` by value, so disjoint `&mut` chunks of
/// one buffer can be written in place. A `Result`-valued map collects
/// to its lowest-index error, whatever the thread count. A panic in `f`
/// panics the caller once every worker has stopped.
pub fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let workers = workers(threads, n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> =
        std::iter::repeat_with(|| Mutex::new(None)).take(n).collect();
    let worker = || loop {
        // The guard drops at the end of this statement, so `f` runs
        // outside the lock.
        let Some((i, item)) = queue.lock().expect("par_map queue poisoned").next() else {
            break;
        };
        let r = f(item);
        *slots[i].lock().expect("par_map slot poisoned") = Some(r);
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "this module is the workspace's one thread pool"
    )]
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        worker();
        // The scope's implicit wait ends when each closure returns, before
        // its thread has exited and handed its malloc arena back, so the
        // next pool's threads could find no free arena and make new ones:
        // peak memory then depends on timing. An explicit join waits for
        // the exit. A joined panic counts as handled, so it is re-raised.
        for handle in spawned {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("par_map slot poisoned").expect("every item mapped once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn matches_serial_map_for_every_thread_count() {
        let items: Vec<u64> = (0..23).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37_79B9) ^ x).collect();
        for threads in [0, 1, 2, 3, 7, items.len() + 5] {
            let got = par_map(items.clone(), threads, |x| x.wrapping_mul(0x9E37_79B9) ^ x);
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn results_keep_input_order_when_workers_interleave() {
        // Barrier pairs force two workers to finish out of input order:
        // one runs items 0 and 3, the other items 1 and 2.
        let pairs = [Barrier::new(2), Barrier::new(2), Barrier::new(2)];
        let out = par_map(vec![0, 1, 2, 3], 2, |i: usize| {
            match i {
                0 => {
                    pairs[0].wait();
                    pairs[1].wait();
                }
                1 => {
                    pairs[0].wait();
                }
                2 => {
                    pairs[1].wait();
                    pairs[2].wait();
                }
                _ => {
                    pairs[2].wait();
                }
            }
            i
        });
        assert_eq!(out, [0, 1, 2, 3]);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // A barrier pair on items 0 and 1 makes both workers take an
        // item, so the caller must run one whoever reaches the queue
        // first.
        let caller = std::thread::current().id();
        let pair = Barrier::new(2);
        let ids = par_map((0..6).collect(), 2, |i: usize| {
            if i < 2 {
                pair.wait();
            }
            std::thread::current().id()
        });
        assert!(ids.contains(&caller), "no item ran on the calling thread");
        #[expect(
            clippy::disallowed_types,
            reason = "ThreadId has no Ord; only the set's size is read, never its order"
        )]
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() <= workers(2, ids.len()), "{} threads ran items", distinct.len());
    }

    #[test]
    #[should_panic]
    fn a_panicking_item_panics_the_caller() {
        par_map((0..8).collect(), 3, |i: usize| assert!(i != 3, "item {i}"));
    }

    #[test]
    #[should_panic(expected = "spawned worker")]
    fn a_panic_on_a_spawned_worker_panics_the_caller() {
        // The barrier pair puts one of items 0 and 1 on the spawned thread.
        let caller = std::thread::current().id();
        let pair = Barrier::new(2);
        par_map(vec![0, 1], 2, |_: usize| {
            pair.wait();
            assert!(std::thread::current().id() == caller, "spawned worker");
        });
    }

    #[test]
    fn empty_input_returns_empty() {
        for threads in [0, 1, 4] {
            let out: Vec<u8> = par_map(Vec::<u8>::new(), threads, |x| x);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn moved_mut_chunks_are_each_written_once() {
        for threads in [1, 2, 3, 7] {
            let mut buf = vec![0u32; 10 * 4];
            let jobs: Vec<(usize, &mut [u32])> = buf.chunks_mut(4).enumerate().collect();
            par_map(jobs, threads, |(k, chunk)| {
                for v in chunk.iter_mut() {
                    *v += u32::try_from(k).unwrap() + 1;
                }
            });
            let want: Vec<u32> = (1..=10).flat_map(|k| [k; 4]).collect();
            assert_eq!(buf, want, "threads = {threads}");
        }
    }

    #[test]
    fn result_maps_collect_to_the_lowest_index_error() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [0, 1, 2, 3, 7, 45] {
            let out: Result<Vec<usize>, usize> =
                par_map(items.clone(), threads, |i| if i % 9 == 5 { Err(i) } else { Ok(i) })
                    .into_iter()
                    .collect();
            assert_eq!(out, Err(5), "threads = {threads}");
        }
    }

    #[test]
    fn workers_clamp_the_budget_to_the_jobs() {
        assert_eq!(budget(3), 3);
        assert!(budget(0) >= 1);
        assert_eq!(workers(3, 10), 3);
        assert_eq!(workers(8, 2), 2);
        assert_eq!(workers(5, 0), 1);
        assert_eq!(workers(0, 1), 1);
    }
}
