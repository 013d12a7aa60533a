//! The one way shard work fans out: contiguous chunks of shards, the
//! first on the calling thread and the rest on `std::thread::scope`
//! workers that borrow the calling thread's arena.

use crate::arena;

/// How many consecutive shards each worker runs when `shards` shards are
/// spread over `threads` workers: contiguous chunks of this length, the
/// last one possibly shorter. A result of `shards` (or more) means one
/// worker — the caller's own thread — runs them all.
pub fn shard_chunk(shards: usize, threads: usize) -> usize {
    let workers = threads.max(1).min(shards.max(1));
    shards.div_ceil(workers).max(1)
}

/// Runs `job(first, chunk)` over `slots` cut into [`shard_chunk`]-long
/// contiguous chunks, `first` being the index of `chunk[0]` in `slots`.
///
/// The calling thread runs the first chunk itself and every other chunk
/// gets a scoped worker thread that runs out of the caller's
/// [`arena`](crate::arena): the pool is lent out before the spawn, each
/// worker installs its share and surrenders its pool at the end, and the
/// caller absorbs every share after the join. With one chunk nothing is
/// spawned. A panic in any chunk resumes on the caller.
pub fn scoped_chunks<T: Send>(
    slots: &mut [T],
    threads: usize,
    job: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk = shard_chunk(slots.len(), threads);
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
            let mut slots: Vec<Option<usize>> = vec![None; 7];
            scoped_chunks(&mut slots, threads, |first, part| {
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
        scoped_chunks(&mut slots, 2, |_, part| {
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
}
