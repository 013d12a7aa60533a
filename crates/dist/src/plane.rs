//! [`SharedPlane`]: the sharded memory plane N worker threads train
//! against concurrently.
//!
//! The plane owns one [`PlaneShard`] per worker behind its own
//! `RwLock`; a cloned [`SharedPlane`] is a *handle* onto the same
//! shards, so every worker's [`MemoryTgnn`](cascade_models::MemoryTgnn)
//! reads and writes the same node state. Slot bookkeeping is the same
//! [`ShardMap`] the single-owner
//! [`ShardedPlane`](cascade_models::ShardedPlane) uses, and uniform
//! neighbor draws hash by **global** node id, so the shared plane is
//! bit-identical to the owned plane for any read sequence.
//!
//! Locking discipline (checked by `conc-lock-order`): shard locks are
//! taken **one at a time** — every method acquires a single shard's
//! lock, copies what it needs, and drops the guard before touching any
//! other shard. No held→acquired edge between shard locks ever exists,
//! so the lock graph is trivially cycle-free. The round protocol in
//! [`runtime`](crate::runtime) partitions *writes* by shard ownership
//! and fences phases with barriers, which is what makes the concurrent
//! write schedule deterministic; the plane itself only guarantees each
//! individual access is atomic.

use std::sync::{Arc, RwLock};

use cascade_models::{MemoryPlane, PlaneGeometry, PlaneShard};
use cascade_tensor::Tensor;
use cascade_tgraph::{NeighborRef, NodeId, ShardMap};

/// A handle to shard-partitioned node state shared by worker threads.
///
/// `Clone` produces another handle to the *same* state (the worker
/// entry point); [`MemoryPlane::clone_plane`] produces an independent
/// deep copy, per the trait contract.
pub struct SharedPlane {
    inner: Arc<Inner>,
}

struct Inner {
    geom: PlaneGeometry,
    map: ShardMap,
    shards: Vec<RwLock<PlaneShard>>,
}

impl Clone for SharedPlane {
    fn clone(&self) -> Self {
        SharedPlane {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl SharedPlane {
    /// Builds zeroed shared state for `geom`, partitioned over
    /// `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn new(geom: &PlaneGeometry, num_shards: usize) -> Self {
        let map = ShardMap::new(geom.num_nodes, num_shards);
        let shards = (0..num_shards)
            .map(|s| RwLock::new(PlaneShard::new(geom, map.shard_size(s))))
            .collect();
        SharedPlane {
            inner: Arc::new(Inner {
                geom: *geom,
                map,
                shards,
            }),
        }
    }

    fn slot(&self, node: NodeId) -> (usize, NodeId) {
        let (shard, slot) = self.inner.map.assignment(node);
        (shard, NodeId(slot as u32))
    }
}

impl MemoryPlane for SharedPlane {
    fn num_nodes(&self) -> usize {
        self.inner.geom.num_nodes
    }

    fn memory_dim(&self) -> usize {
        self.inner.geom.memory_dim
    }

    fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    fn shard_of(&self, node: NodeId) -> usize {
        self.inner.map.shard_of(node)
    }

    fn memory_read(&self, node: NodeId) -> Vec<f32> {
        let (s, slot) = self.slot(node);
        let shard = self.inner.shards[s]
            .read()
            .expect("shard locks are never poisoned");
        shard.memory.snapshot(slot)
    }

    fn memory_last_update(&self, node: NodeId) -> f64 {
        let (s, slot) = self.slot(node);
        let shard = self.inner.shards[s]
            .read()
            .expect("shard locks are never poisoned");
        shard.memory.last_update(slot)
    }

    fn memory_gather(&self, nodes: &[NodeId]) -> Tensor {
        let d = self.inner.geom.memory_dim;
        let mut out = Vec::with_capacity(nodes.len() * d);
        for &n in nodes {
            let (s, slot) = self.slot(n);
            let shard = self.inner.shards[s]
                .read()
                .expect("shard locks are never poisoned");
            out.extend_from_slice(shard.memory.read(slot));
        }
        Tensor::from_vec(out, [nodes.len(), d])
    }

    fn memory_write(&mut self, node: NodeId, values: &[f32], time: f64) {
        let (s, slot) = self.slot(node);
        let mut shard = self.inner.shards[s]
            .write()
            .expect("shard locks are never poisoned");
        shard.memory.write(slot, values, time);
    }

    fn mailbox_capacity(&self) -> usize {
        self.inner.geom.mailbox_capacity
    }

    fn mailbox_msg_dim(&self) -> usize {
        self.inner.geom.raw_msg_dim
    }

    fn mailbox_messages(&self, node: NodeId) -> Vec<Vec<f32>> {
        let (s, slot) = self.slot(node);
        let shard = self.inner.shards[s]
            .read()
            .expect("shard locks are never poisoned");
        shard.mailbox.messages(slot).to_vec()
    }

    fn mailbox_has_messages(&self, node: NodeId) -> bool {
        let (s, slot) = self.slot(node);
        let shard = self.inner.shards[s]
            .read()
            .expect("shard locks are never poisoned");
        shard.mailbox.has_messages(slot)
    }

    fn mailbox_push(&mut self, node: NodeId, msg: Vec<f32>) {
        let (s, slot) = self.slot(node);
        let mut shard = self.inner.shards[s]
            .write()
            .expect("shard locks are never poisoned");
        shard.mailbox.push(slot, msg);
    }

    fn mailbox_clear(&mut self, node: NodeId) {
        let (s, slot) = self.slot(node);
        let mut shard = self.inner.shards[s]
            .write()
            .expect("shard locks are never poisoned");
        shard.mailbox.clear_node(slot);
    }

    fn adj_insert_half(&mut self, owner: NodeId, neighbor: NeighborRef) {
        let (s, slot) = self.slot(owner);
        let mut shard = self.inner.shards[s]
            .write()
            .expect("shard locks are never poisoned");
        shard.adjacency.insert_ref(slot, neighbor);
    }

    fn adj_degree(&self, node: NodeId) -> usize {
        let (s, slot) = self.slot(node);
        let shard = self.inner.shards[s]
            .read()
            .expect("shard locks are never poisoned");
        shard.adjacency.degree(slot)
    }

    fn adj_most_recent(&self, node: NodeId, k: usize) -> Vec<NeighborRef> {
        let (s, slot) = self.slot(node);
        let shard = self.inner.shards[s]
            .read()
            .expect("shard locks are never poisoned");
        shard.adjacency.most_recent(slot, k)
    }

    fn adj_uniform(&self, node: NodeId, k: usize) -> Vec<NeighborRef> {
        let (s, slot) = self.slot(node);
        let shard = self.inner.shards[s]
            .read()
            .expect("shard locks are never poisoned");
        shard.adjacency.uniform_keyed(slot, node, k)
    }

    fn reset(&mut self) {
        // One shard at a time; callers fence concurrent access (the
        // runtime resets between round barriers).
        for lock in &self.inner.shards {
            let mut shard = lock.write().expect("shard locks are never poisoned");
            shard.reset();
        }
    }

    fn memory_size_bytes(&self) -> usize {
        let mut total = 0;
        for lock in &self.inner.shards {
            let shard = lock.read().expect("shard locks are never poisoned");
            total += shard.memory.size_bytes();
        }
        total
    }

    fn mailbox_size_bytes(&self) -> usize {
        let mut total = 0;
        for lock in &self.inner.shards {
            let shard = lock.read().expect("shard locks are never poisoned");
            total += shard.mailbox.size_bytes();
        }
        total
    }

    fn clone_plane(&self) -> Box<dyn MemoryPlane> {
        // Deep copy, per the trait contract: the result shares no state
        // with this plane (used by MemoryTgnn::clone, never by workers —
        // workers clone the handle instead).
        let shards = self
            .inner
            .shards
            .iter()
            .map(|lock| {
                let shard = lock.read().expect("shard locks are never poisoned");
                RwLock::new(shard.clone())
            })
            .collect();
        Box::new(SharedPlane {
            inner: Arc::new(Inner {
                geom: self.inner.geom,
                map: self.inner.map.clone(),
                shards,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_models::ModelConfig;
    use cascade_tgraph::Event;

    fn geom() -> PlaneGeometry {
        PlaneGeometry::for_config(&ModelConfig::tgn().with_dims(4, 2), 16, 3, 9)
    }

    #[test]
    fn shared_reads_match_the_monolith() {
        // The reference is one `PlaneShard` over every node, addressed
        // by global id: the three stores with no map, lock or trait.
        let g = geom();
        let mut mono = PlaneShard::new(&g, g.num_nodes);
        let mut shared = SharedPlane::new(&g, 4);
        let events = [
            Event::new(0u32, 3u32, 1.0),
            Event::new(5u32, 12u32, 2.0),
            Event::new(0u32, 15u32, 3.0),
        ];
        for (i, e) in events.iter().enumerate() {
            let row = [i as f32, 0.5, 1.5, 2.5];
            shared.adj_insert(e, i);
            shared.memory_write(e.src, &row, e.time);
            shared.mailbox_push(e.dst, vec![0.25; 12]);
            mono.adjacency.insert_event(e, i);
            mono.memory.write(e.src, &row, e.time);
            mono.mailbox.push(e.dst, vec![0.25; 12]);
        }
        for n in 0..16u32 {
            let n = NodeId(n);
            assert_eq!(mono.memory.read(n), shared.memory_read(n));
            assert_eq!(mono.mailbox.messages(n), shared.mailbox_messages(n));
            assert_eq!(
                mono.adjacency.most_recent(n, 3),
                shared.adj_most_recent(n, 3)
            );
            assert_eq!(mono.adjacency.uniform(n, 6), shared.adj_uniform(n, 6));
        }
    }

    #[test]
    fn handles_share_state_but_clone_plane_detaches() {
        let g = geom();
        let mut a = SharedPlane::new(&g, 2);
        let b = a.clone();
        a.memory_write(NodeId(7), &[1.0; 4], 5.0);
        assert_eq!(b.memory_read(NodeId(7)), vec![1.0; 4]);

        let mut detached = b.clone_plane();
        detached.memory_write(NodeId(7), &[9.0; 4], 6.0);
        assert_eq!(a.memory_read(NodeId(7)), vec![1.0; 4]);
        assert_eq!(detached.memory_read(NodeId(7)), vec![9.0; 4]);
    }

    #[test]
    fn concurrent_owned_writes_land_in_distinct_shards() {
        let g = geom();
        let plane = SharedPlane::new(&g, 2);
        std::thread::scope(|scope| {
            for w in 0..2usize {
                let mut handle = plane.clone();
                scope.spawn(move || {
                    for id in 0..16u32 {
                        let n = NodeId(id);
                        if handle.shard_of(n) == w {
                            handle.memory_write(n, &[w as f32 + 1.0; 4], 1.0);
                        }
                    }
                });
            }
        });
        for id in 0..16u32 {
            let n = NodeId(id);
            let expect = plane.shard_of(n) as f32 + 1.0;
            assert_eq!(plane.memory_read(n), vec![expect; 4]);
        }
    }
}
