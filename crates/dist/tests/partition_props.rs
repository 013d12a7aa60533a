//! Seeded property test for the chunk partition layer — the coverage
//! guarantee `cascade-tgraph` promises in its docs: the round-robin
//! chunk partition streams every event to exactly one worker, in order,
//! for any worker count.

use cascade_tgraph::{EventSource, InMemorySource, PartitionedSource, SynthConfig};
use cascade_util::{check, prop_assert};

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
