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
//! batch, with no locking and no cross-thread traffic. Shard workers
//! (scoped threads) get private pools that die with them.
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
/// After [`reset`], at most this many buffers stay in each size bucket.
const RETAIN_PER_BUCKET: usize = 16;
/// After [`reset`], the pooled working set is at most this many floats
/// (32 MiB) — the steady-state footprint carried across batches.
const RESET_RESIDENT_F32: usize = 8 << 20;

/// Counters describing the pool's behavior since thread start.
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

    fn push(&mut self, mut v: Vec<f32>) {
        let cap = v.capacity();
        if !self.enabled
            || cap == 0
            || cap > (1 << MAX_BUCKET_LOG2)
            || self.resident + cap > MAX_RESIDENT_F32
        {
            return; // dropped: the allocator frees it
        }
        let b = Self::bucket_of(cap);
        if self.buckets.len() <= b {
            self.buckets.resize_with(b + 1, Vec::new);
        }
        v.clear();
        self.buckets[b].push(v);
        self.resident += cap;
        self.recycled += 1;
    }

    /// Trims toward the steady-state working set: per-bucket count first,
    /// then total residency, dropping the largest buffers first.
    fn trim(&mut self) {
        for bucket in &mut self.buckets {
            while bucket.len() > RETAIN_PER_BUCKET {
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
    fn oversized_buffers_bypass_pool() {
        set_enabled(true);
        let before = stats();
        recycle(vec![0.0; (1 << MAX_BUCKET_LOG2) + 1]);
        assert_eq!(stats().recycled, before.recycled);
    }
}
