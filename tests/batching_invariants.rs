//! Cross-strategy batching invariants, property-tested over generated
//! streams via the in-repo `cascade-util` harness (seeded cases,
//! `CASCADE_PROP_CASES` controls the count, default 64).

use cascade_baselines::{tgl, Etc, NeutronStream};
use cascade_core::{BatchingStrategy, CascadeConfig, CascadeScheduler};
use cascade_tgraph::{DetRng, Event, EventStream, SynthConfig};
use cascade_util::{check, prop_assert, prop_assert_eq, Gen};

fn partition(
    strategy: &mut dyn BatchingStrategy,
    events: &[Event],
    num_nodes: usize,
) -> Vec<usize> {
    strategy.prepare(events, num_nodes);
    strategy.reset_epoch();
    let mut boundaries = Vec::new();
    let mut start = 0;
    while start < events.len() {
        let end = strategy.next_batch_end(start, events.len());
        assert!(end > start, "{} made no progress", strategy.name());
        assert!(
            end <= events.len(),
            "{} overran the stream",
            strategy.name()
        );
        boundaries.push(end);
        start = end;
    }
    boundaries
}

/// [`partition`] through the chunk protocol instead of the one-shot
/// `prepare`: every `chunk`-sized slice is announced just before the
/// first scan that reaches it, as the streaming driver does.
fn partition_chunked(
    strategy: &mut dyn BatchingStrategy,
    events: &[Event],
    num_nodes: usize,
    chunk: usize,
) -> Vec<usize> {
    let n = events.len();
    assert!(strategy.prepare_streaming(n, num_nodes, chunk));
    strategy.reset_epoch();
    let mut boundaries = Vec::new();
    let mut start = 0;
    while start < n {
        if start % chunk == 0 {
            let chunk_end = (start + chunk).min(n);
            strategy.enter_chunk(start / chunk, start, &events[start..chunk_end], None);
        }
        let end = strategy.next_batch_end(start, n);
        assert!(end > start, "{} made no progress", strategy.name());
        assert!(end <= n, "{} overran the stream", strategy.name());
        boundaries.push(end);
        start = end;
    }
    boundaries
}

fn arbitrary_stream(g: &mut Gen) -> (Vec<Event>, usize) {
    let nodes = g.usize_in(2..30);
    let events = g.usize_in(20..200);
    let mut rng = DetRng::new(g.u64());
    let evs: Vec<Event> = (0..events)
        .map(|i| {
            let s = rng.index(nodes) as u32;
            let mut d = rng.index(nodes) as u32;
            if d == s {
                d = (d + 1) % nodes as u32;
            }
            Event::new(s, d, i as f64)
        })
        .collect();
    (evs, nodes)
}

#[test]
fn all_strategies_partition_any_stream() {
    check("all_strategies_partition_any_stream", |g| {
        let (events, nodes) = arbitrary_stream(g);
        let strategies: Vec<Box<dyn BatchingStrategy>> = vec![
            Box::new(tgl(16)),
            Box::new(NeutronStream::new(16)),
            Box::new(Etc::new(16)),
            Box::new(CascadeScheduler::new(CascadeConfig {
                preset_batch_size: 16,
                ..CascadeConfig::default()
            })),
        ];
        for mut s in strategies {
            let b = partition(s.as_mut(), &events, nodes);
            prop_assert_eq!(*b.last().unwrap(), events.len());
            prop_assert!(b.windows(2).all(|w| w[0] < w[1]));
        }
        // The chunk protocol: the strategies that cut batches by a
        // chunk's structure (Cascade_EX, ETC, NeutronStream) fed 37-event
        // chunks partition the stream and end a batch at every chunk end.
        let chunked: Vec<Box<dyn BatchingStrategy>> = vec![
            Box::new(NeutronStream::new(16)),
            Box::new(Etc::new(16)),
            Box::new(CascadeScheduler::new(CascadeConfig {
                preset_batch_size: 16,
                ..CascadeConfig::default()
            })),
        ];
        for mut s in chunked {
            let b = partition_chunked(s.as_mut(), &events, nodes, 37);
            prop_assert_eq!(*b.last().unwrap(), events.len());
            prop_assert!(b.windows(2).all(|w| w[0] < w[1]));
            for chunk_end in (37..events.len()).step_by(37) {
                prop_assert!(
                    b.contains(&chunk_end),
                    "{}: a batch crossed chunk end {}",
                    s.name(),
                    chunk_end
                );
            }
        }
        Ok(())
    });
}

#[test]
fn cascade_boundaries_repeat_across_epochs() {
    check("cascade_boundaries_repeat_across_epochs", |g| {
        let (events, nodes) = arbitrary_stream(g);
        let mut s = CascadeScheduler::new(
            CascadeConfig {
                preset_batch_size: 16,
                ..CascadeConfig::default()
            }
            .without_sg_filter(),
        );
        let first = partition(&mut s, &events, nodes);
        s.reset_epoch();
        let mut second = Vec::new();
        let mut start = 0;
        while start < events.len() {
            let end = s.next_batch_end(start, events.len());
            second.push(end);
            start = end;
        }
        prop_assert_eq!(first, second);
        Ok(())
    });
}

/// The information loss of `events`: every appearance of a node after
/// its first in the batch.
fn information_loss(events: &[Event]) -> usize {
    let mut counts = std::collections::BTreeMap::new();
    let mut loss = 0usize;
    for e in events {
        for n in [e.src, e.dst] {
            let c = counts.entry(n).or_insert(0usize);
            if *c > 0 {
                loss += 1;
            }
            *c += 1;
        }
    }
    loss
}

#[test]
fn etc_never_exceeds_detected_loss() {
    check("etc_never_exceeds_detected_loss", |g| {
        let (events, nodes) = arbitrary_stream(g);
        // One chunk (the whole stream), then 37-event chunks, each with
        // the threshold detected when it was entered.
        for chunk in [events.len(), 37] {
            let mut s = Etc::new(16);
            prop_assert!(s.prepare_streaming(events.len(), nodes, chunk));
            let mut start = 0;
            while start < events.len() {
                if start % chunk == 0 {
                    let chunk_end = (start + chunk).min(events.len());
                    s.enter_chunk(start / chunk, start, &events[start..chunk_end], None);
                }
                let end = s.next_batch_end(start, events.len());
                let loss = information_loss(&events[start..end]);
                // Single-event batches are always admissible (progress).
                if end - start > 1 {
                    prop_assert!(
                        loss <= s.threshold(),
                        "batch {}..{} loss {} > threshold {} (chunk {})",
                        start,
                        end,
                        loss,
                        s.threshold(),
                        chunk
                    );
                }
                start = end;
            }
        }
        Ok(())
    });
}

#[test]
fn neutron_extension_is_node_disjoint() {
    check("neutron_extension_is_node_disjoint", |g| {
        let (events, nodes) = arbitrary_stream(g);
        let base = 8;
        let mut s = NeutronStream::new(base);
        s.prepare(&events, nodes);
        let mut start = 0;
        while start < events.len() {
            let end = s.next_batch_end(start, events.len());
            let base_end = (start + base).min(events.len());
            // Every extension event shares no node with the batch prefix
            // before it.
            let mut seen = std::collections::HashSet::new();
            for e in &events[start..base_end] {
                seen.insert(e.src);
                seen.insert(e.dst);
            }
            for e in &events[base_end..end] {
                prop_assert!(
                    !seen.contains(&e.src) && !seen.contains(&e.dst),
                    "event ({:?}, {:?}) overlaps the batch prefix",
                    e.src,
                    e.dst
                );
                seen.insert(e.src);
                seen.insert(e.dst);
            }
            start = end;
        }
        Ok(())
    });
}

#[test]
fn cascade_average_batch_grows_on_sparse_profile() {
    let data = SynthConfig::wiki_talk()
        .with_scale(0.0006)
        .with_node_scale(0.004)
        .with_feature_dim(0)
        .generate(1);
    let events = data.stream().events();
    let mut s = CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 64,
        ..CascadeConfig::default()
    });
    let b = partition(&mut s, events, data.num_nodes());
    let avg = events.len() as f64 / b.len() as f64;
    assert!(avg > 64.0 * 1.5, "sparse expansion too small: {:.0}", avg);
}

#[test]
fn chunked_and_dense_agree_when_chunk_covers_stream() {
    let data = SynthConfig::wiki()
        .with_scale(0.004)
        .with_node_scale(0.012)
        .with_feature_dim(0)
        .generate(5);
    let events = data.stream().events();

    let cfg = CascadeConfig {
        preset_batch_size: 32,
        ..CascadeConfig::default()
    }
    .without_sg_filter();
    let mut dense = CascadeScheduler::new(cfg.clone());
    let mut chunked = CascadeScheduler::new(cfg);
    let a = partition(&mut dense, events, data.num_nodes());
    let b = partition_chunked(&mut chunked, events, data.num_nodes(), events.len() + 10);
    assert_eq!(a, b);
}

#[test]
fn stream_round_trips_through_event_stream() {
    let data = SynthConfig::mooc()
        .with_scale(0.002)
        .with_feature_dim(0)
        .generate(9);
    let rebuilt = EventStream::new(data.stream().events().to_vec()).unwrap();
    assert_eq!(rebuilt.len(), data.num_events());
    assert_eq!(rebuilt.num_nodes(), data.stream().num_nodes());
}
