//! Seeded property tests for the shard / chunk partition layer —
//! the coverage guarantees `cascade-tgraph` promises in its docs:
//!
//! * the shard map assigns every node to exactly one (shard, slot),
//!   identically across runs and independent of how many *other* nodes
//!   exist per shard;
//! * the round-robin chunk partition streams every event to exactly one
//!   worker, in order, for any worker count.

use cascade_tgraph::{
    shard_of_node, EventSource, InMemorySource, NodeId, PartitionedSource, ShardMap, SynthConfig,
};
use cascade_util::{check, prop_assert};

#[test]
fn shard_map_covers_every_node_exactly_once() {
    check("shard_map_exactly_once", |g| {
        let nodes = g.usize_in(1..600);
        let shards = g.usize_in(1..9);
        let map = ShardMap::new(nodes, shards);
        let mut seen = vec![0usize; nodes];
        let mut slot_seen: Vec<Vec<bool>> = (0..shards)
            .map(|s| vec![false; map.shard_size(s)])
            .collect();
        for (id, count) in seen.iter_mut().enumerate() {
            let n = NodeId(id as u32);
            let (shard, slot) = map.assignment(n);
            prop_assert!(shard < shards, "shard {} out of range", shard);
            prop_assert!(
                shard == map.shard_of(n) && shard == shard_of_node(n, shards),
                "assignment disagrees with shard_of for node {}",
                id
            );
            prop_assert!(slot < map.shard_size(shard), "slot {} out of range", slot);
            prop_assert!(
                !slot_seen[shard][slot],
                "slot ({}, {}) assigned twice",
                shard,
                slot
            );
            slot_seen[shard][slot] = true;
            *count += 1;
        }
        prop_assert!(
            seen.iter().all(|&c| c == 1),
            "a node was not covered exactly once"
        );
        let total: usize = (0..shards).map(|s| map.shard_size(s)).sum();
        prop_assert!(
            total == nodes,
            "shard sizes sum to {} for {} nodes",
            total,
            nodes
        );

        // Stability: the same node maps to the same shard in a fresh
        // map, and adding workers never reshuffles *within* a run.
        let again = ShardMap::new(nodes, shards);
        for id in 0..nodes {
            let n = NodeId(id as u32);
            prop_assert!(
                map.assignment(n) == again.assignment(n),
                "assignment of node {} changed across identically-built maps",
                id
            );
        }
        Ok(())
    });
}

#[test]
fn chunk_partition_streams_every_event_exactly_once() {
    check("chunk_partition_exactly_once", |g| {
        let scale = g.f64_in(0.001..0.004);
        let data = SynthConfig::wiki().with_scale(scale).generate(g.u64());
        let chunk_size = g.usize_in(16..200);
        let workers = g.usize_in(1..5);

        let mut covered = vec![0usize; data.num_events()];
        for w in 0..workers {
            let mut source =
                PartitionedSource::new(InMemorySource::from_dataset(&data, chunk_size), w, workers);
            let mut last_base = None;
            while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
                prop_assert!(
                    chunk.index % workers == w,
                    "worker {} streamed foreign chunk {}",
                    w,
                    chunk.index
                );
                if let Some(prev) = last_base {
                    prop_assert!(chunk.base > prev, "chunks arrived out of order");
                }
                last_base = Some(chunk.base);
                for (i, e) in chunk.events.iter().enumerate() {
                    let id = chunk.base + i;
                    prop_assert!(id < covered.len(), "event id {} out of range", id);
                    prop_assert!(
                        *e == data.stream().events()[id],
                        "event {} differs from the dataset",
                        id
                    );
                    covered[id] += 1;
                }
            }
        }
        prop_assert!(
            covered.iter().all(|&c| c == 1),
            "union over {} workers missed or duplicated events",
            workers
        );
        Ok(())
    });
}
