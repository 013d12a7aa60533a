//! The one way shard work fans out: contiguous chunks of shards, the
//! first on the calling thread and the rest on `std::thread::scope`
//! workers that borrow the calling thread's arena.
//!
//! How many threads a fan-out may use is the calling thread's compute
//! budget, held per thread like the [`arena`]'s pool: 1 on every fresh
//! thread, every `scoped_chunks` worker included, and whatever an
//! [`install_budget`] guard alive on the thread set. Nothing else carries
//! a thread count, and no count changes a bit: it only decides how many
//! threads compute the same float operations.

use std::cell::Cell;
use std::marker::PhantomData;

use crate::arena;

thread_local! {
    static BUDGET: Cell<usize> = const { Cell::new(1) };
}

/// The calling thread's compute budget: how many threads its
/// [`scoped_chunks`] calls (and the fused GRU's row ranges) may use.
pub fn compute_budget() -> usize {
    BUDGET.with(Cell::get)
}

/// Sets the calling thread's compute budget to `threads` (at least 1)
/// until the returned guard drops, which restores the value it replaced —
/// on return and on unwinding alike. Guards nest like scopes: drop them
/// in the reverse order of their installs. Threads the caller spawns,
/// `scoped_chunks` workers included, still read 1.
#[must_use = "the budget is restored when the guard drops"]
pub fn install_budget(threads: usize) -> BudgetGuard {
    BudgetGuard {
        previous: BUDGET.with(|b| b.replace(threads.max(1))),
        _thread: PhantomData,
    }
}

/// Restores the calling thread's previous compute budget on drop (see
/// [`install_budget`]). Not `Send`: it belongs to the thread it set.
#[derive(Debug)]
pub struct BudgetGuard {
    previous: usize,
    _thread: PhantomData<*const ()>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        BUDGET.with(|b| b.set(self.previous));
    }
}

/// How many consecutive shards each worker runs when `shards` shards are
/// spread over `threads` workers: contiguous chunks of this length, the
/// last one possibly shorter. A result of `shards` (or more) means one
/// worker — the caller's own thread — runs them all.
pub fn shard_chunk(shards: usize, threads: usize) -> usize {
    let workers = threads.max(1).min(shards.max(1));
    shards.div_ceil(workers).max(1)
}

/// Runs `job(first, chunk)` over `slots` cut into [`shard_chunk`]-long
/// contiguous chunks for the calling thread's [`compute_budget`],
/// `first` being the index of `chunk[0]` in `slots`.
///
/// The calling thread runs the first chunk itself, at its own budget, and
/// every other chunk gets a scoped worker thread, at budget 1, that runs
/// out of the caller's [`arena`](crate::arena): the pool is lent out
/// before the spawn, each worker installs its share and surrenders its
/// pool at the end, and the caller absorbs every share after the join.
/// With one chunk nothing is spawned. A panic in any chunk resumes on the
/// caller.
pub fn scoped_chunks<T: Send>(slots: &mut [T], job: impl Fn(usize, &mut [T]) + Sync) {
    let chunk = shard_chunk(slots.len(), compute_budget());
    if chunk >= slots.len() {
        job(0, slots);
        return;
    }
    let shares = arena::lend(slots.len().div_ceil(chunk));
    let job = &job;
    let returned: Vec<arena::PoolShare> = std::thread::scope(|scope| {
        let (own, rest) = slots.split_at_mut(chunk);
        let handles: Vec<_> = rest
            .chunks_mut(chunk)
            .zip(shares)
            .enumerate()
            .map(|(c, (part, share))| {
                scope.spawn(move || {
                    arena::install(share);
                    job((c + 1) * chunk, part);
                    arena::surrender()
                })
            })
            .collect();
        job(0, own);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    arena::absorb(returned);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_shards_with_at_most_threads_workers() {
        assert_eq!(shard_chunk(8, 1), 8);
        assert_eq!(shard_chunk(8, 2), 4);
        assert_eq!(shard_chunk(8, 3), 3); // 3 + 3 + 2
        assert_eq!(shard_chunk(5, 4), 2); // 2 + 2 + 1: three workers
        assert_eq!(shard_chunk(2, 16), 1);
        assert_eq!(shard_chunk(0, 4), 1);
        for shards in 1..=9 {
            for threads in 1..=9 {
                let chunk = shard_chunk(shards, threads);
                assert!(shards.div_ceil(chunk) <= threads, "{shards} over {threads}");
            }
        }
    }

    #[test]
    fn every_slot_runs_once_with_its_index() {
        for threads in 1..=5 {
            let _budget = install_budget(threads);
            let mut slots: Vec<Option<usize>> = vec![None; 7];
            scoped_chunks(&mut slots, |first, part| {
                for (off, slot) in part.iter_mut().enumerate() {
                    assert!(slot.replace(first + off).is_none());
                }
            });
            let want: Vec<Option<usize>> = (0..7).map(Some).collect();
            assert_eq!(slots, want, "{threads} threads");
        }
    }

    #[test]
    fn workers_draw_from_the_callers_pool() {
        arena::set_enabled(true);
        for _ in 0..4 {
            arena::recycle(Vec::with_capacity(512));
        }
        let before = arena::stats();
        let mut slots = [(); 4];
        let _budget = install_budget(2);
        scoped_chunks(&mut slots, |_, part| {
            for _ in part.iter() {
                arena::recycle(arena::take_zeroed(512));
            }
        });
        let after = arena::stats();
        assert_eq!(
            after.hits - before.hits,
            4,
            "the caller's and the worker's takes hit the pool"
        );
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.resident, before.resident, "every buffer came home");
    }

    #[test]
    fn a_spawned_thread_reads_budget_one() {
        let _budget = install_budget(4);
        assert_eq!(compute_budget(), 4);
        let spawned = std::thread::spawn(compute_budget).join().unwrap();
        assert_eq!(spawned, 1);
    }

    #[test]
    fn the_callers_chunk_reads_its_budget_and_every_worker_reads_one() {
        let _budget = install_budget(3);
        let mut slots = [0usize; 3];
        scoped_chunks(&mut slots, |first, part| {
            assert_eq!(part.len(), 1, "three slots over a budget of three");
            part[0] = compute_budget();
            if first == 0 {
                assert_eq!(part[0], 3, "the caller's own chunk");
            }
        });
        assert_eq!(slots, [3, 1, 1]);
        assert_eq!(compute_budget(), 3);
    }

    #[test]
    fn an_install_restores_the_previous_budget_on_return_and_on_panic() {
        assert_eq!(compute_budget(), 1);
        {
            let _outer = install_budget(4);
            {
                let _inner = install_budget(2);
                assert_eq!(compute_budget(), 2);
            }
            assert_eq!(compute_budget(), 4);
            let caught = std::panic::catch_unwind(|| {
                let _inner = install_budget(3);
                panic!("unwinds through the guard");
            });
            assert!(caught.is_err());
            assert_eq!(compute_budget(), 4);
        }
        assert_eq!(compute_budget(), 1);
        let _zero = install_budget(0);
        assert_eq!(compute_budget(), 1, "clamped to at least one thread");
    }
}
