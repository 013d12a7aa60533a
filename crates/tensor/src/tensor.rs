//! The core [`Tensor`] type: a reference-counted, row-major, `f32` buffer
//! participating in a dynamically-built reverse-mode autograd graph.
//!
//! # Storage model
//!
//! Each tensor's data lives in an `Arc<Vec<f32>>` behind an `RwLock`. The
//! lock is held only for the instant it takes to clone the `Arc` —
//! [`Tensor::data`] returns an owned [`DataRef`] snapshot, so kernels and
//! backward closures compute over plain slices without ever holding a
//! lock. Writes ([`Tensor::set_data`], [`Tensor::update_data`]) take the
//! write lock and mutate in place when the buffer is unshared, or
//! copy-on-write when snapshots are outstanding — a reader therefore
//! always sees a consistent buffer from some point in time, never a torn
//! mix. Dead buffers are recycled through the thread-local [`crate::arena`]
//! instead of returning to the allocator.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockWriteGuard};

use cascade_util::DetRng;

use crate::arena;
use crate::grad::GradCtx;
use crate::shape::Shape;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Backward function of an op node: given the node itself, the *owned*
/// upstream gradient (taken out of the node's grad slot by the engine),
/// its parents, and the gradient-routing context of the current backward
/// pass, accumulates gradients into the parents via [`GradCtx::accumulate`]
/// or [`GradCtx::accumulate_owned`]. Owning the upstream buffer lets
/// closures transform it in place and pass it along without copies; a
/// closure that does not forward it should hand it back via
/// [`arena::recycle`].
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, Vec<f32>, &[Tensor], &mut GradCtx) + Send + Sync>;

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) shape: Shape,
    pub(crate) data: RwLock<Arc<Vec<f32>>>,
    pub(crate) grad: Mutex<Option<Vec<f32>>>,
    pub(crate) requires_grad: bool,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

impl Drop for Inner {
    /// Returns this node's buffers to the thread-local arena. The data
    /// buffer is only reclaimed when no [`DataRef`] snapshot still holds
    /// it (then the allocator frees it once the last snapshot drops).
    fn drop(&mut self) {
        let data = self.data.get_mut().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = Arc::get_mut(data) {
            arena::recycle(std::mem::take(v));
        }
        let grad = self.grad.get_mut().unwrap_or_else(|e| e.into_inner());
        if let Some(g) = grad.take() {
            arena::recycle(g);
        }
    }
}

/// An owned, lock-free read snapshot of a tensor's storage.
///
/// Produced by [`Tensor::data`]: the read lock is held only long enough to
/// clone the internal `Arc`, after which the snapshot can be read for any
/// length of time — across an entire fused kernel or backward closure —
/// without touching a lock. Writes to the tensor after the snapshot was
/// taken copy-on-write and are not visible through it.
pub struct DataRef {
    data: Arc<Vec<f32>>,
}

impl Deref for DataRef {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl AsRef<[f32]> for DataRef {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl fmt::Debug for DataRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.data.iter().take(8)).finish()
    }
}

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is a cheap-to-clone handle (`Arc` internally); clones alias the
/// same storage and the same autograd node. Operations build a computation
/// graph on the fly; calling [`Tensor::backward`] on a scalar result fills
/// the `grad` buffers of every reachable tensor created with
/// `requires_grad`.
///
/// Tensors are `Send + Sync`: reads snapshot the storage (see [`DataRef`])
/// and writes go through a brief write lock, so shard workers may evaluate
/// independent subgraphs concurrently. Determinism across thread counts is
/// preserved by the engine, not the locks: shared gradients are reduced in
/// a fixed shard-index order (see [`Tensor::sharded_sum_scaled`]).
///
/// # Examples
///
/// ```
/// use cascade_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let b = Tensor::full([2, 2], 2.0);
/// let c = a.matmul(&b);
/// assert_eq!(c.to_vec(), vec![6.0, 6.0, 14.0, 14.0]);
/// ```
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Arc<Inner>,
}

/// Snapshots the storage under a brief read lock (one `Arc` clone).
///
/// Poisoning: recovered with `into_inner` — the data underneath is plain
/// `f32`s behind copy-on-write, so a panicking writer can never leave a
/// buffer visible to readers in a torn state.
fn snapshot_data(lock: &RwLock<Arc<Vec<f32>>>) -> Arc<Vec<f32>> {
    Arc::clone(&lock.read().unwrap_or_else(|e| e.into_inner()))
}

/// Acquires the storage write lock.
///
/// Poisoning: recovered with `into_inner`, same argument as
/// [`snapshot_data`] — every write is a full-buffer overwrite or an
/// elementwise loop over an exclusively-held buffer.
fn write_data(lock: &RwLock<Arc<Vec<f32>>>) -> RwLockWriteGuard<'_, Arc<Vec<f32>>> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Acquires the gradient slot lock.
///
/// Poisoning: recovered with `into_inner` — gradient buffers are replaced
/// or accumulated whole, never left partially written.
fn lock_grad(lock: &Mutex<Option<Vec<f32>>>) -> MutexGuard<'_, Option<Vec<f32>>> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Copy-on-write access to the buffer behind the (held) write lock: in
/// place when unshared, else the buffer is replaced by an arena-sourced
/// copy, leaving outstanding [`DataRef`] snapshots on the old one.
fn cow_mut(d: &mut Arc<Vec<f32>>) -> &mut Vec<f32> {
    if Arc::get_mut(d).is_none() {
        *d = Arc::new(arena::take_copy(d));
    }
    Arc::get_mut(d).expect("buffer is unique after copy-on-write")
}

impl Tensor {
    pub(crate) fn from_op(
        data: Vec<f32>,
        shape: Shape,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        Tensor::from_op_arc(Arc::new(data), shape, parents, backward)
    }

    /// [`Tensor::from_op`] over already-shared storage: zero-copy ops
    /// (`reshape`, full-range slices) alias their parent's buffer instead
    /// of copying it. Writes through either handle copy-on-write, so
    /// aliasing is never observable.
    pub(crate) fn from_op_arc(
        data: Arc<Vec<f32>>,
        shape: Shape,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        debug_assert_eq!(data.len(), shape.len(), "op produced wrong element count");
        let requires_grad = parents.iter().any(|p| p.inner.requires_grad);
        Tensor {
            inner: Arc::new(Inner {
                id: fresh_id(),
                shape,
                data: RwLock::new(data),
                grad: Mutex::new(None),
                requires_grad,
                parents: if requires_grad { parents } else { Vec::new() },
                backward: if requires_grad { Some(backward) } else { None },
            }),
        }
    }

    /// An op node that is a *root* of out-of-graph work: `requires_grad` is
    /// forced on even though `parents` may be empty, because the backward
    /// closure owns subgraphs (shard roots) the engine cannot see. Used by
    /// [`Tensor::sharded_sum_scaled`].
    pub(crate) fn from_op_rooted(
        data: Vec<f32>,
        shape: Shape,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        debug_assert_eq!(data.len(), shape.len(), "op produced wrong element count");
        Tensor {
            inner: Arc::new(Inner {
                id: fresh_id(),
                shape,
                data: RwLock::new(Arc::new(data)),
                grad: Mutex::new(None),
                requires_grad: true,
                parents,
                backward: Some(backward),
            }),
        }
    }

    fn leaf(data: Vec<f32>, shape: Shape, requires_grad: bool) -> Tensor {
        Tensor::leaf_arc(Arc::new(data), shape, requires_grad)
    }

    fn leaf_arc(data: Arc<Vec<f32>>, shape: Shape, requires_grad: bool) -> Tensor {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor {
            inner: Arc::new(Inner {
                id: fresh_id(),
                shape,
                data: RwLock::new(data),
                grad: Mutex::new(None),
                requires_grad,
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the element count of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        Tensor::leaf(data, shape.into(), false)
    }

    /// Creates a tensor filled with zeros. The buffer comes from the
    /// thread-local arena, like an op's output: a zero leaf built per
    /// batch is dropped into the pool, so it must be drawn from it too.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.len();
        Tensor::leaf(arena::take_zeroed(n), shape, false)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Tensor {
        let shape = shape.into();
        let n = shape.len();
        Tensor::leaf(vec![value; n], shape, false)
    }

    /// Creates a tensor with elements drawn uniformly from `[low, high)`,
    /// deterministically seeded.
    pub fn uniform(shape: impl Into<Shape>, low: f32, high: f32, seed: u64) -> Tensor {
        let shape = shape.into();
        let mut rng = DetRng::new(seed);
        let data = (0..shape.len()).map(|_| rng.range_f32(low, high)).collect();
        Tensor::leaf(data, shape, false)
    }

    /// Creates a tensor with standard-normal elements (Box–Muller),
    /// deterministically seeded.
    pub fn randn(shape: impl Into<Shape>, seed: u64) -> Tensor {
        let shape = shape.into();
        let mut rng = DetRng::new(seed);
        let n = shape.len();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            // 1 - f32() lies in (0, 1], keeping ln() finite.
            let u1: f32 = (1.0 - rng.f32()).max(f32::EPSILON);
            let u2: f32 = rng.f32();
            let r = (-2.0f32 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor::leaf(data, shape, false)
    }

    /// Marks this tensor as a trainable leaf: gradients will be accumulated
    /// into it during [`Tensor::backward`].
    ///
    /// Returns a new handle sharing no autograd history (fresh leaf with
    /// the same data, shared copy-on-write).
    pub fn requires_grad(self) -> Tensor {
        if self.inner.requires_grad && self.inner.parents.is_empty() {
            return self;
        }
        let data = snapshot_data(&self.inner.data);
        Tensor::leaf_arc(data, self.inner.shape.clone(), true)
    }

    /// `true` if gradients flow into (or through) this tensor.
    pub fn is_requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// `true` if this tensor has no parents (a graph leaf).
    pub(crate) fn is_leaf(&self) -> bool {
        self.inner.parents.is_empty()
    }

    /// Detaches this tensor from the autograd graph: the result shares the
    /// current values (copy-on-write, so no buffer is copied) but receives
    /// no gradient and holds no history.
    ///
    /// Cascade detaches node memories at batch boundaries, matching the
    /// stop-gradient semantics of memory-based TGNNs.
    pub fn detach(&self) -> Tensor {
        Tensor::leaf_arc(
            snapshot_data(&self.inner.data),
            self.inner.shape.clone(),
            false,
        )
    }

    /// Unique autograd node id (monotonic creation order).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.inner.shape.dims()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.inner.shape.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.inner.shape.is_empty()
    }

    /// Takes a lock-free read snapshot of the flat row-major data.
    ///
    /// The lock is released before this returns; the [`DataRef`] can be
    /// held across arbitrary computation. Writes made to the tensor after
    /// the snapshot are not visible through it.
    pub fn data(&self) -> DataRef {
        DataRef {
            data: snapshot_data(&self.inner.data),
        }
    }

    /// Shares the underlying storage for zero-copy view ops.
    pub(crate) fn share_data(&self) -> Arc<Vec<f32>> {
        snapshot_data(&self.inner.data)
    }

    /// Copies the data out into a `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        snapshot_data(&self.inner.data).as_ref().clone()
    }

    /// The single element of a scalar or 1-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        let data = self.data();
        assert_eq!(
            data.len(),
            1,
            "item() on tensor with {} elements",
            data.len()
        );
        data[0]
    }

    /// Element at flat offset `i`.
    pub fn at(&self, i: usize) -> f32 {
        self.data()[i]
    }

    /// Overwrites the data in place without touching autograd history.
    ///
    /// Intended for optimizer steps and memory-store writes.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the tensor's element count.
    pub fn set_data(&self, data: &[f32]) {
        let mut d = write_data(&self.inner.data);
        assert_eq!(d.len(), data.len(), "set_data length mismatch");
        cow_mut(&mut d).copy_from_slice(data);
    }

    /// Applies `f` to the data in place (optimizer updates).
    pub fn update_data(&self, f: impl FnOnce(&mut [f32])) {
        let mut d = write_data(&self.inner.data);
        f(cow_mut(&mut d));
    }

    /// The accumulated gradient, if any (copied out).
    pub fn grad(&self) -> Option<Vec<f32>> {
        lock_grad(&self.inner.grad).clone()
    }

    /// Applies `f` to the accumulated gradient without copying it out.
    /// Returns `None` (without calling `f`) when no gradient is present.
    pub fn with_grad<R>(&self, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        lock_grad(&self.inner.grad).as_deref().map(f)
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        if let Some(g) = lock_grad(&self.inner.grad).take() {
            arena::recycle(g);
        }
    }

    /// Replaces the accumulated gradient (used by gradient clipping).
    ///
    /// # Panics
    ///
    /// Panics if `g.len()` differs from the element count.
    pub fn set_grad(&self, g: &[f32]) {
        assert_eq!(g.len(), self.len(), "set_grad length mismatch");
        let mut grad = lock_grad(&self.inner.grad);
        match grad.as_mut() {
            Some(existing) => existing.copy_from_slice(g),
            None => *grad = Some(arena::take_copy(g)),
        }
    }

    /// Rescales the accumulated gradient in place; no-op without one.
    pub fn scale_grad(&self, scale: f32) {
        if let Some(g) = lock_grad(&self.inner.grad).as_mut() {
            for x in g.iter_mut() {
                *x *= scale;
            }
        }
    }

    pub(crate) fn accumulate_grad(&self, g: &[f32]) {
        let mut grad = lock_grad(&self.inner.grad);
        match grad.as_mut() {
            Some(existing) => {
                for (e, &v) in existing.iter_mut().zip(g) {
                    *e += v;
                }
            }
            None => *grad = Some(arena::take_copy(g)),
        }
    }

    /// Like [`Tensor::accumulate_grad`] but takes ownership of the buffer:
    /// it becomes the grad slot when empty, else it is added and recycled.
    pub(crate) fn accumulate_grad_owned(&self, g: Vec<f32>) {
        let mut grad = lock_grad(&self.inner.grad);
        match grad.as_mut() {
            Some(existing) => {
                for (e, &v) in existing.iter_mut().zip(g.iter()) {
                    *e += v;
                }
                drop(grad);
                arena::recycle(g);
            }
            None => *grad = Some(g),
        }
    }

    /// Takes the gradient out of the slot, leaving it empty. The engine
    /// uses this to hand each backward closure its owned upstream buffer.
    pub(crate) fn take_grad_raw(&self) -> Option<Vec<f32>> {
        lock_grad(&self.inner.grad).take()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.data();
        let preview: Vec<f32> = data.iter().take(8).copied().collect();
        f.debug_struct("Tensor")
            .field("shape", &self.inner.shape)
            .field("requires_grad", &self.inner.requires_grad)
            .field("data", &preview)
            .finish()
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(v: Vec<f32>) -> Self {
        let n = v.len();
        Tensor::from_vec(v, [n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_wrong_len() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], [2, 2]);
    }

    #[test]
    fn constructors_fill() {
        assert_eq!(Tensor::zeros([3]).to_vec(), vec![0.0; 3]);
        assert_eq!(Tensor::ones([2]).to_vec(), vec![1.0; 2]);
        assert_eq!(Tensor::full([2], 7.0).to_vec(), vec![7.0; 2]);
    }

    #[test]
    fn uniform_is_deterministic_and_bounded() {
        let a = Tensor::uniform([100], -0.5, 0.5, 42);
        let b = Tensor::uniform([100], -0.5, 0.5, 42);
        assert_eq!(a.to_vec(), b.to_vec());
        assert!(a.to_vec().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn randn_is_deterministic() {
        let a = Tensor::randn([64], 7);
        let b = Tensor::randn([64], 7);
        assert_eq!(a.to_vec(), b.to_vec());
        // crude sanity: mean near 0
        let mean: f32 = a.to_vec().iter().sum::<f32>() / 64.0;
        assert!(mean.abs() < 0.5);
    }

    #[test]
    fn detach_shares_values_not_history() {
        let a = Tensor::ones([2]).requires_grad();
        let b = a.mul_scalar(3.0);
        let d = b.detach();
        assert_eq!(d.to_vec(), vec![3.0, 3.0]);
        assert!(!d.is_requires_grad());
    }

    #[test]
    fn detach_is_isolated_from_later_writes() {
        // detach shares storage copy-on-write; writes to either side must
        // not leak into the other.
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let d = a.detach();
        a.set_data(&[9.0, 9.0]);
        assert_eq!(d.to_vec(), vec![1.0, 2.0]);
        d.set_data(&[5.0, 5.0]);
        assert_eq!(a.to_vec(), vec![9.0, 9.0]);
    }

    #[test]
    fn snapshot_survives_later_writes() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let snap = t.data();
        t.set_data(&[7.0, 8.0]);
        assert_eq!(&snap[..], &[1.0, 2.0], "snapshot is frozen at read time");
        assert_eq!(t.to_vec(), vec![7.0, 8.0]);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::from_vec(vec![1.0, 1.5], [2]).sum().item(), 2.5);
    }

    #[test]
    fn set_data_overwrites() {
        let t = Tensor::zeros([2]);
        t.set_data(&[1.0, 2.0]);
        assert_eq!(t.to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn clone_aliases_storage() {
        let t = Tensor::zeros([2]);
        let u = t.clone();
        t.set_data(&[5.0, 6.0]);
        assert_eq!(u.to_vec(), vec![5.0, 6.0]);
    }

    #[test]
    fn requires_grad_roundtrip() {
        let t = Tensor::ones([2]).requires_grad();
        assert!(t.is_requires_grad());
        assert!(t.grad().is_none());
    }

    #[test]
    fn with_grad_borrows_without_copy() {
        let t = Tensor::from_vec(vec![3.0, 4.0], [2]).requires_grad();
        assert!(t.with_grad(|_| ()).is_none());
        t.square().sum().backward();
        let norm2 = t
            .with_grad(|g| g.iter().map(|x| x * x).sum::<f32>())
            .expect("gradient was just accumulated");
        assert!((norm2 - (36.0 + 64.0)).abs() < 1e-4);
    }

    #[test]
    fn scale_grad_rescales_in_place() {
        let t = Tensor::from_vec(vec![3.0], [1]).requires_grad();
        t.square().sum().backward(); // grad 6
        t.scale_grad(0.5);
        assert!((t.grad().expect("grad present")[0] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn tensor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
        assert_send_sync::<DataRef>();
    }

    #[test]
    fn tensors_cross_threads() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let sum: f32 = std::thread::scope(|s| {
            let h = s.spawn(|| t.to_vec().iter().sum());
            h.join().expect("reader thread must not panic")
        });
        assert_eq!(sum, 3.0);
    }
}
