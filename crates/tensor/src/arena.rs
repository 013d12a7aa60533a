//! The tape arena: a thread-local recycling pool for tensor buffers.
//!
//! Every op node in the autograd graph owns an output buffer, and every
//! backward pass materializes gradient buffers of the same shapes. Before
//! this module existed each of those was a fresh heap allocation, freed
//! when the batch's graph dropped — the "substrate tax" measured in
//! `bench_results/parallel_compute.json`. The arena turns that churn into
//! reuse: when a tensor's storage dies (see `Inner::drop` in `tensor.rs`)
//! its buffer is parked in a size-bucketed free list, and the next op of a
//! similar size takes it back instead of calling the allocator.
//!
//! # Lifecycle
//!
//! The pool is *thread-local*: the driver thread that builds a batch's
//! graph and runs its backward pass reuses its own buffers batch after
//! batch, with no locking on the hot path. Shard workers are scoped
//! threads that live for one job, so they borrow rather than own: before
//! the spawn the training thread `lend`s its pooled buffers out — it
//! keeps one portion for the chunk of shards it runs itself and hands
//! each worker a `PoolShare` — each worker `install`s its share, runs its
//! job out of it and `surrender`s its whole pool at the end, and after
//! the join the training thread `absorb`s every share back. Its pool thus
//! owns the batch working set across batches — including buffers the
//! workers allocated, which it frees when the graph drops — and the next
//! batch's workers draw from it instead of from the allocator.
//! [`crate::scoped_chunks`] is the one place that does this.
//!
//! [`reset`] is the batch-boundary hook: it trims the pool back to a
//! bounded steady-state working set, releasing whatever surplus an
//! unusually large batch left behind. It must only be called between
//! batches (when no graph from the previous batch is being built) —
//! cascade-lint's `arena-reset-confined` rule pins the one call site to
//! the shared train step's `close` (`cascade-core`'s `step.rs`), which
//! every driver and each dist replica goes through.
//!
//! # Determinism
//!
//! Recycling never changes numerics: every buffer handed out by the pool
//! is fully overwritten (zero-filled or element-filled) before use, so a
//! recycled buffer is observationally identical to a fresh one. The
//! [`set_enabled`] toggle exists so the regression suite can prove it:
//! `crates/models/tests/arena_identity.rs` runs the same seeded batch with
//! the arena on and off and asserts bit-identical gradients, memories, and
//! post-step parameters.

use std::cell::RefCell;

/// Buffers with capacity above `1 << MAX_BUCKET_LOG2` are never pooled:
/// a single outlier allocation must not pin hundreds of megabytes.
const MAX_BUCKET_LOG2: usize = 24; // 16M f32 = 64 MiB
/// Hard cap on pooled floats per thread while training (128 MiB).
const MAX_RESIDENT_F32: usize = 32 << 20;
/// After [`reset`], at most this many buffers stay in each size bucket —
/// per portion of the last [`lend`] for buckets below
/// `PER_PORTION_BELOW_LOG2`.
const RETAIN_PER_BUCKET: usize = 16;
/// Buckets of buffers under `1 << PER_PORTION_BELOW_LOG2` floats (2 KiB)
/// keep `RETAIN_PER_BUCKET` per portion: every portion runs its own set of
/// small transients (bias gradients, per-row vectors), which are most of a
/// batch's takes and little of its memory. Scaling every bucket instead
/// read +6 MiB `peak_rss_mb` on the benchmark's `wide_store` (2-vCPU
/// x86-64 Linux).
const PER_PORTION_BELOW_LOG2: usize = 9;
/// After [`reset`], the pooled working set is at most this many floats
/// (32 MiB) — the steady-state footprint carried across batches.
const RESET_RESIDENT_F32: usize = 8 << 20;

/// Counters describing the pool's behavior since thread start,
/// including the traffic of every shard worker whose share this thread
/// absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Allocations served from the pool.
    pub hits: u64,
    /// Allocations that fell through to the system allocator.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
    /// Floats currently parked in the pool.
    pub resident: usize,
}

struct Pool {
    enabled: bool,
    /// `buckets[b]` holds buffers whose capacity lies in `[2^b, 2^(b+1))`.
    buckets: Vec<Vec<Vec<f32>>>,
    resident: usize,
    /// How many portions the last [`lend`] dealt (1 before any).
    portions: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            enabled: true,
            buckets: Vec::new(),
            resident: 0,
            portions: 1,
            hits: 0,
            misses: 0,
            recycled: 0,
        }
    }

    /// Bucket that holds capacity `cap` (`floor(log2(cap))`).
    fn bucket_of(cap: usize) -> usize {
        (usize::BITS - 1 - cap.leading_zeros()) as usize
    }

    /// Bucket whose every member can hold `len` (`ceil(log2(len))`).
    fn bucket_for(len: usize) -> usize {
        Self::bucket_of(len.next_power_of_two())
    }

    fn pop(&mut self, len: usize) -> Option<Vec<f32>> {
        if !self.enabled || len == 0 {
            return None;
        }
        let b = Self::bucket_for(len);
        let v = self.buckets.get_mut(b).and_then(Vec::pop);
        match v {
            Some(v) => {
                debug_assert!(v.capacity() >= len);
                self.resident -= v.capacity();
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn push(&mut self, v: Vec<f32>) {
        if self.file(v) {
            self.recycled += 1;
        }
    }

    /// Parks `v` in its bucket, or drops it (returning `false`) when the
    /// pool is disabled, full, or `v` is outside the pooled size range.
    fn file(&mut self, mut v: Vec<f32>) -> bool {
        let cap = v.capacity();
        if !self.enabled
            || cap == 0
            || cap > (1 << MAX_BUCKET_LOG2)
            || self.resident + cap > MAX_RESIDENT_F32
        {
            return false; // dropped: the allocator frees it
        }
        let b = Self::bucket_of(cap);
        if self.buckets.len() <= b {
            self.buckets.resize_with(b + 1, Vec::new);
        }
        v.clear();
        self.buckets[b].push(v);
        self.resident += cap;
        true
    }

    /// Trims toward the steady-state working set: per-bucket count first,
    /// then total residency, dropping the largest buffers first.
    fn trim(&mut self) {
        for (b, bucket) in self.buckets.iter_mut().enumerate() {
            let retain = if b < PER_PORTION_BELOW_LOG2 {
                RETAIN_PER_BUCKET * self.portions
            } else {
                RETAIN_PER_BUCKET
            };
            while bucket.len() > retain {
                let v = bucket.pop().expect("bucket length was just checked");
                self.resident -= v.capacity();
            }
        }
        let mut b = self.buckets.len();
        while self.resident > RESET_RESIDENT_F32 && b > 0 {
            b -= 1;
            while let Some(v) = self.buckets[b].pop() {
                self.resident -= v.capacity();
                if self.resident <= RESET_RESIDENT_F32 {
                    break;
                }
            }
        }
    }

    fn drain(&mut self) {
        self.buckets.clear();
        self.resident = 0;
    }
}

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool::new()) };
}

/// Capacity for a pool-miss allocation: the next power of two, so the
/// buffer files back into the exact bucket [`Pool::pop`] will search for
/// this `len` (floor-of-capacity == ceil-of-length). Oversize requests
/// keep their exact capacity — they bypass the pool anyway.
fn alloc_capacity(len: usize) -> usize {
    if len == 0 || len > (1 << MAX_BUCKET_LOG2) {
        len
    } else {
        len.next_power_of_two()
    }
}

/// Takes a zero-filled buffer of exactly `len` elements.
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_empty(len);
    v.resize(len, 0.0);
    v
}

/// Takes an empty buffer with capacity for at least `len` elements —
/// for `push`/`extend`-style fills that overwrite every slot.
pub(crate) fn take_empty(len: usize) -> Vec<f32> {
    match POOL.with(|p| p.borrow_mut().pop(len)) {
        Some(v) => v,
        None => Vec::with_capacity(alloc_capacity(len)),
    }
}

/// Takes a buffer holding a copy of `src`.
pub(crate) fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take_empty(src.len());
    v.extend_from_slice(src);
    v
}

/// Takes a buffer of `len` elements all equal to `fill`.
pub(crate) fn take_filled(len: usize, fill: f32) -> Vec<f32> {
    let mut v = take_empty(len);
    v.resize(len, fill);
    v
}

/// Returns a dead buffer to the pool (or drops it if the pool is full,
/// disabled, or the buffer is outside the pooled size range).
pub(crate) fn recycle(v: Vec<f32>) {
    POOL.with(|p| p.borrow_mut().push(v));
}

/// Batch-boundary maintenance: trims this thread's pool back to its
/// bounded steady-state working set (surplus buffers from an unusually
/// large batch are released to the allocator). Call between batches only —
/// cascade-lint's `arena-reset-confined` rule enforces the call sites.
pub fn reset() {
    POOL.with(|p| p.borrow_mut().trim());
}

/// One shard worker's slice of the lending thread's pool, and on the way
/// back the worker's whole pool with its counters.
///
/// A share carries the lender's `enabled` flag, so a worker of an
/// arena-off run pools nothing either, and its hit, miss and recycle
/// counts, so [`stats`] on the lender counts worker traffic.
pub(crate) struct PoolShare(Pool);

/// Deals this thread's pooled buffers round robin, bucket by bucket, into
/// `parts` portions with a similar spread of sizes: the thread keeps the
/// first portion (it runs a chunk of its own) and lends the other
/// `parts - 1` out as shares, one per worker, until [`absorb`].
///
/// # Panics
///
/// Panics if `parts == 0`.
pub(crate) fn lend(parts: usize) -> Vec<PoolShare> {
    assert!(parts > 0, "lend into zero portions");
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let mut shares: Vec<Pool> = (1..parts)
            .map(|_| Pool {
                enabled: pool.enabled,
                ..Pool::new()
            })
            .collect();
        pool.portions = parts;
        let mut next = 0;
        let mut lent = 0;
        for bucket in &mut pool.buckets {
            for v in std::mem::take(bucket) {
                match next % parts {
                    0 => bucket.push(v),
                    k => {
                        lent += v.capacity();
                        shares[k - 1].file(v);
                    }
                }
                next += 1;
            }
        }
        pool.resident -= lent;
        shares.into_iter().map(PoolShare).collect()
    })
}

/// Makes `share` this thread's pool — a shard worker's first move.
pub(crate) fn install(share: PoolShare) {
    POOL.with(|p| *p.borrow_mut() = share.0);
}

/// Hands over this thread's whole pool, buffers and counters — a shard
/// worker's last move. The thread is left an empty pool.
pub(crate) fn surrender() -> PoolShare {
    POOL.with(|p| PoolShare(std::mem::replace(&mut *p.borrow_mut(), Pool::new())))
}

/// Takes the shares back after the join: their counters add to this
/// thread's, and their buffers refill the pool up to its residency cap
/// (the rest go back to the allocator; a disabled pool drops them all).
pub(crate) fn absorb(shares: Vec<PoolShare>) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        for PoolShare(share) in shares {
            pool.hits += share.hits;
            pool.misses += share.misses;
            pool.recycled += share.recycled;
            for v in share.buckets.into_iter().flatten() {
                pool.file(v);
            }
        }
    });
}

/// Enables or disables pooling on this thread, returning the previous
/// setting. Disabling drains the pool, so every subsequent allocation is
/// fresh — the control arm of the arena-identity regression test.
pub fn set_enabled(on: bool) -> bool {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let was = pool.enabled;
        pool.enabled = on;
        if !on {
            pool.drain();
        }
        was
    })
}

/// This thread's pool counters.
pub fn stats() -> ArenaStats {
    POOL.with(|p| {
        let pool = p.borrow();
        ArenaStats {
            hits: pool.hits,
            misses: pool.misses,
            recycled: pool.recycled,
            resident: pool.resident,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_buffer() {
        set_enabled(true);
        let v = take_zeroed(100);
        let cap = v.capacity();
        let before = stats();
        recycle(v);
        let v2 = take_zeroed(100);
        assert_eq!(v2.len(), 100);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(v2.capacity(), cap, "same buffer must come back");
        let after = stats();
        assert_eq!(after.recycled, before.recycled + 1);
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn recycled_buffers_are_rezeroed() {
        set_enabled(true);
        let mut v = take_zeroed(8);
        v.iter_mut().for_each(|x| *x = 7.0);
        recycle(v);
        assert!(take_zeroed(8).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_filled_and_copy() {
        set_enabled(true);
        assert_eq!(take_filled(3, 2.5), vec![2.5; 3]);
        assert_eq!(take_copy(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn zero_length_is_never_pooled() {
        set_enabled(true);
        recycle(Vec::new());
        assert!(take_zeroed(0).is_empty());
        assert!(take_empty(0).is_empty());
    }

    #[test]
    fn disabled_pool_always_misses() {
        set_enabled(false);
        let before = stats();
        assert_eq!(before.resident, 0, "disabling drains the pool");
        recycle(vec![1.0; 64]);
        let _ = take_zeroed(64);
        let after = stats();
        assert_eq!(after.recycled, before.recycled, "recycle must drop");
        assert_eq!(after.hits, before.hits, "take must not hit");
        set_enabled(true);
    }

    #[test]
    fn reset_trims_to_working_set() {
        set_enabled(true);
        for _ in 0..(RETAIN_PER_BUCKET + 20) {
            recycle(vec![0.0; 1024]);
        }
        reset();
        let per_bucket_cap: usize = RETAIN_PER_BUCKET * 1024;
        assert!(
            stats().resident <= per_bucket_cap.min(RESET_RESIDENT_F32),
            "reset must trim surplus buffers"
        );
    }

    #[test]
    fn reset_keeps_small_buckets_per_portion_of_the_last_lend() {
        set_enabled(false);
        set_enabled(true);
        fill(&[64, 1024], RETAIN_PER_BUCKET * 3);
        absorb(lend(2));
        reset();
        let lens: Vec<usize> = POOL.with(|p| p.borrow().buckets.iter().map(Vec::len).collect());
        assert_eq!(lens[6], 2 * RETAIN_PER_BUCKET, "small: one set per portion");
        assert_eq!(lens[10], RETAIN_PER_BUCKET, "large: one set in all");
    }

    /// Parks `count` fresh buffers of each length in `lens`.
    fn fill(lens: &[usize], count: usize) {
        for &len in lens {
            for _ in 0..count {
                recycle(Vec::with_capacity(len));
            }
        }
    }

    #[test]
    fn lend_deals_every_buffer_and_absorb_takes_them_back() {
        set_enabled(false); // drain whatever earlier tests left
        set_enabled(true);
        fill(&[64, 1024], 5);
        let resident = stats().resident;
        let shares = lend(3);
        assert_eq!(shares.len(), 2, "the lender keeps one portion of three");
        let kept: usize = POOL.with(|p| p.borrow().buckets.iter().map(Vec::len).sum());
        let mut counts: Vec<usize> = shares
            .iter()
            .map(|s| s.0.buckets.iter().map(Vec::len).sum())
            .collect();
        counts.push(kept);
        assert_eq!(counts.iter().sum::<usize>(), 10, "every buffer is dealt");
        assert!(
            counts.iter().all(|&c| c == 3 || c == 4),
            "round robin: {counts:?}"
        );
        let lent: usize = shares.iter().map(|s| s.0.resident).sum();
        assert_eq!(stats().resident + lent, resident);
        for s in &shares {
            for b in [6, 10] {
                assert!(!s.0.buckets[b].is_empty(), "every share gets every size");
            }
        }
        let before = stats();
        absorb(shares);
        let after = stats();
        assert_eq!(after.resident, resident, "every buffer comes back");
        assert_eq!(after.recycled, before.recycled, "a return is not a recycle");
    }

    #[test]
    fn worker_traffic_counts_on_the_lender() {
        set_enabled(false);
        set_enabled(true);
        fill(&[256], 2);
        let before = stats();
        let shares = lend(2); // one buffer stays, one is lent
        let back = std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .into_iter()
                .map(|share| {
                    scope.spawn(move || {
                        install(share);
                        let hit = take_zeroed(256); // the lent buffer
                        let miss = take_zeroed(256); // the share held one
                        recycle(hit);
                        recycle(miss);
                        surrender()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        absorb(back);
        let after = stats();
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.recycled - before.recycled, 2);
        assert_eq!(
            after.resident - before.resident,
            256,
            "the worker's own buffer joins the lender's pool"
        );
    }

    #[test]
    fn absorb_holds_the_residency_cap() {
        set_enabled(false);
        set_enabled(true);
        let big = 1 << MAX_BUCKET_LOG2;
        let mut shares = lend(3);
        for share in &mut shares {
            for _ in 0..(MAX_RESIDENT_F32 / big) {
                assert!(share.0.file(Vec::with_capacity(big)));
            }
        }
        absorb(shares);
        assert_eq!(
            stats().resident,
            MAX_RESIDENT_F32,
            "the surplus share is dropped"
        );
        set_enabled(false);
        set_enabled(true);
    }

    #[test]
    fn a_disabled_lender_lends_disabled_shares() {
        set_enabled(false);
        let shares = lend(2);
        assert!(shares.iter().all(|s| !s.0.enabled));
        let back = std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .into_iter()
                .map(|share| {
                    scope.spawn(move || {
                        install(share);
                        recycle(take_zeroed(64));
                        assert_eq!(stats().resident, 0, "a disabled worker pools nothing");
                        surrender()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        absorb(back);
        assert_eq!(stats().resident, 0, "a disabled lender drops every return");
        set_enabled(true);
    }

    #[test]
    fn oversized_buffers_bypass_pool() {
        set_enabled(true);
        let before = stats();
        recycle(vec![0.0; (1 << MAX_BUCKET_LOG2) + 1]);
        assert_eq!(stats().recycled, before.recycled);
    }
}
