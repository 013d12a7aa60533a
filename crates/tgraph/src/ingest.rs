//! Ingest normalization: explicit policies for duplicate and
//! out-of-order event arrival.
//!
//! Every consumer downstream of an [`EventSource`] — the streaming
//! trainer and its loader thread, the dist workers, the serving WAL —
//! assumes chronologically ordered, duplicate-free chunks; `EventStream`
//! construction rejects anything else with an `OrderError`. Real feeds
//! are messier: network replays deliver the same event twice and
//! multi-source collectors interleave slightly stale events. A
//! [`ReorderingSource`] makes the tolerance explicit instead of
//! implicit: wrap any source with a [`ReorderPolicy`] and the output is
//! a normalized stream (re-chunked, re-indexed, ordered, deduplicated)
//! that is *bit-identical* to what the well-behaved stream would have
//! produced — the property the `reorder` scenario in `cascade-scenario`
//! asserts end to end against training loss, and the property tests
//! here prove per chunk.
//!
//! Semantics, per policy:
//!
//! - [`Reject`](ReorderPolicy::Reject): pass-through re-chunker; any
//!   timestamp regression is a [`SourceError`]. Duplicates pass (they
//!   are valid self-consistent streams; rejecting them is the caller's
//!   business).
//! - [`BufferedReorder(w)`](ReorderPolicy::BufferedReorder): holds up to
//!   `w` events in a sorted buffer, releasing the oldest only once the
//!   buffer is full — any event displaced by at most `w` positions is
//!   restored to its sorted slot, and exact duplicates within the
//!   buffer-plus-last-`w`-emitted horizon are dropped. An event older
//!   than the newest already-released timestamp exceeded the window and
//!   is a [`SourceError`].
//!
//! Under every policy an event whose time is NaN or infinite is a
//! [`SourceError`]: the buffer and the dedup ring stay sorted by time,
//! and duplicates are looked up in their range of equal times.
//!
//! "Duplicate" always means bit-identical `(src, dst, time)`: two
//! distinct real events may legitimately share endpoints and differ
//! only in features, but a true replay duplicates all three fields, and
//! timestamps from the generators are strictly increasing, so the
//! triple is a reliable identity.

use std::collections::VecDeque;

use crate::event::Event;
use crate::source::{EventChunk, EventSource, SourceError};

/// Tolerance policy for duplicate / out-of-order arrival on an
/// [`EventSource`]; see the module docs for exact semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReorderPolicy {
    /// Any timestamp regression is an error; duplicates pass through.
    Reject,
    /// Sort within a sliding window of this many events and drop
    /// duplicates inside it; displacement beyond the window is an error.
    BufferedReorder(usize),
}

impl ReorderPolicy {
    /// How many trailing emitted events are checked for duplicates.
    fn dedup_horizon(&self) -> usize {
        match self {
            ReorderPolicy::Reject => 0,
            ReorderPolicy::BufferedReorder(w) => *w,
        }
    }
}

impl std::fmt::Display for ReorderPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReorderPolicy::Reject => write!(f, "reject"),
            ReorderPolicy::BufferedReorder(w) => write!(f, "buffered-reorder({})", w),
        }
    }
}

/// An [`EventSource`] adapter that normalizes a disordered or
/// duplicated inner stream under a [`ReorderPolicy`], yielding ordered,
/// deduplicated, re-indexed chunks of the inner source's chunk size.
pub struct ReorderingSource<S> {
    inner: S,
    policy: ReorderPolicy,
    declared_events: usize,
    /// Sorted (stable by arrival within equal times) reorder buffer.
    pending: VecDeque<(Event, Vec<f32>)>,
    /// Ring of recently emitted events for duplicate suppression, in
    /// release order — which is time order.
    recent: VecDeque<Event>,
    staged_events: Vec<Event>,
    staged_features: Vec<f32>,
    emitted: usize,
    next_index: usize,
    last_time: f64,
    input_done: bool,
    /// Deduplicate by the linear scan over both queues that the
    /// equal-time range lookup replaced: the tests' oracle.
    #[cfg(test)]
    linear_dedup: bool,
}

impl<S: EventSource> ReorderingSource<S> {
    /// Wraps `inner`, declaring that normalization yields exactly
    /// `declared_events` events (the inner count minus known injected
    /// duplicates). Consumers size splits and feature tables off this
    /// number *before* the stream is drained, so it must be exact: a
    /// mismatch at end of stream is a [`SourceError`].
    pub fn with_declared_events(inner: S, policy: ReorderPolicy, declared_events: usize) -> Self {
        ReorderingSource {
            inner,
            policy,
            declared_events,
            pending: VecDeque::new(),
            recent: VecDeque::new(),
            staged_events: Vec::new(),
            staged_features: Vec::new(),
            emitted: 0,
            next_index: 0,
            last_time: f64::NEG_INFINITY,
            input_done: false,
            #[cfg(test)]
            linear_dedup: false,
        }
    }

    fn is_duplicate(&self, ev: &Event) -> bool {
        let horizon = self.policy.dedup_horizon();
        if horizon == 0 {
            return false;
        }
        let same =
            |o: &Event| o.src == ev.src && o.dst == ev.dst && o.time.to_bits() == ev.time.to_bits();
        #[cfg(test)]
        if self.linear_dedup {
            return self.pending.iter().any(|(o, _)| same(o)) || self.recent.iter().any(same);
        }
        // Both queues are sorted by time (`accept` admits finite times
        // only), so a twin can only sit in the range of equal times.
        let from = self.pending.partition_point(|(o, _)| o.time < ev.time);
        let pending = self.pending.range(from..).map(|(o, _)| o);
        if pending.take_while(|o| o.time == ev.time).any(same) {
            return true;
        }
        let from = self.recent.partition_point(|o| o.time < ev.time);
        let recent = self.recent.range(from..);
        recent.take_while(|o| o.time == ev.time).any(same)
    }

    /// Moves one normalized event into the staged output, updating the
    /// order watermark and the dedup ring.
    fn release(&mut self, ev: Event, row: Vec<f32>) {
        self.last_time = ev.time;
        let horizon = self.policy.dedup_horizon();
        if horizon > 0 {
            if self.recent.len() == horizon {
                self.recent.pop_front();
            }
            self.recent.push_back(ev);
        }
        self.staged_events.push(ev);
        self.staged_features.extend_from_slice(&row);
    }

    fn accept(&mut self, chunk_index: usize, ev: Event, row: Vec<f32>) -> Result<(), SourceError> {
        // A NaN compares false both ways: it would pass the watermark
        // check and switch it off for every event after it.
        if !ev.time.is_finite() {
            return Err(SourceError::at_chunk(
                chunk_index,
                format!(
                    "event (src {} dst {}) has non-finite time {}",
                    ev.src.0, ev.dst.0, ev.time
                ),
            ));
        }
        if self.is_duplicate(&ev) {
            return Ok(());
        }
        match self.policy {
            ReorderPolicy::Reject => {
                if ev.time < self.last_time {
                    return Err(SourceError::at_chunk(
                        chunk_index,
                        format!(
                            "out-of-order event (src {} dst {} time {}) under {} policy: \
                             stream watermark is {}",
                            ev.src.0, ev.dst.0, ev.time, self.policy, self.last_time
                        ),
                    ));
                }
                self.release(ev, row);
            }
            ReorderPolicy::BufferedReorder(window) => {
                if ev.time < self.last_time {
                    return Err(SourceError::at_chunk(
                        chunk_index,
                        format!(
                            "event (src {} dst {} time {}) arrived {} behind the released \
                             watermark: displacement exceeds the reorder window of {}",
                            ev.src.0,
                            ev.dst.0,
                            ev.time,
                            self.last_time - ev.time,
                            window
                        ),
                    ));
                }
                // Stable sorted insert: after all entries with time <=
                // ev.time, so equal timestamps keep arrival order.
                let pos = self.pending.partition_point(|(o, _)| o.time <= ev.time);
                self.pending.insert(pos, (ev, row));
                if self.pending.len() > window {
                    let (oldest, oldest_row) = self.pending.pop_front().unwrap_or_else(|| {
                        unreachable!("pending is non-empty: an event was just inserted")
                    });
                    self.release(oldest, oldest_row);
                }
            }
        }
        Ok(())
    }

    /// Pulls inner chunks until a full output chunk is staged or the
    /// inner stream ends.
    fn fill(&mut self) -> Result<(), SourceError> {
        let target = self.chunk_size();
        let dim = self.feature_dim();
        while self.staged_events.len() < target && !self.input_done {
            match self.inner.next_chunk()? {
                Some(chunk) => {
                    for (i, ev) in chunk.events.iter().enumerate() {
                        let row = if dim == 0 {
                            Vec::new()
                        } else {
                            chunk.features[i * dim..(i + 1) * dim].to_vec()
                        };
                        self.accept(chunk.index, *ev, row)?;
                    }
                }
                None => {
                    self.input_done = true;
                    while let Some((ev, row)) = self.pending.pop_front() {
                        self.release(ev, row);
                    }
                }
            }
        }
        Ok(())
    }
}

impl<S: EventSource> EventSource for ReorderingSource<S> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    /// The *normalized* event count (post-dedup), as declared at
    /// construction — not the raw inner count.
    fn num_events(&self) -> usize {
        self.declared_events
    }

    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }

    fn next_chunk(&mut self) -> Result<Option<EventChunk>, SourceError> {
        self.fill()?;
        if self.staged_events.is_empty() {
            if self.emitted != self.declared_events {
                return Err(SourceError::new(format!(
                    "normalized stream ended after {} events but {} were declared \
                     (policy {})",
                    self.emitted, self.declared_events, self.policy
                )));
            }
            return Ok(None);
        }
        let take = self.staged_events.len().min(self.chunk_size());
        let dim = self.feature_dim();
        let events: Vec<Event> = self.staged_events.drain(..take).collect();
        let features: Vec<f32> = self.staged_features.drain(..take * dim).collect();
        let chunk = EventChunk {
            index: self.next_index,
            base: self.emitted,
            events,
            features,
        };
        self.next_index += 1;
        self.emitted += chunk.events.len();
        Ok(Some(chunk))
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.inner.reset()?;
        self.pending.clear();
        self.recent.clear();
        self.staged_events.clear();
        self.staged_features.clear();
        self.emitted = 0;
        self.next_index = 0;
        self.last_time = f64::NEG_INFINITY;
        self.input_done = false;
        Ok(())
    }

    fn name(&self) -> String {
        format!("{}+{}", self.inner.name(), self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_util::{check, prop_assert, DetRng};

    /// A normalizer that declares the inner source's own event count
    /// (right when the stream holds no duplicates to drop).
    fn undeclared<S: EventSource>(inner: S, policy: ReorderPolicy) -> ReorderingSource<S> {
        let declared = inner.num_events();
        ReorderingSource::with_declared_events(inner, policy, declared)
    }

    /// Minimal in-memory source over explicit event/feature vectors —
    /// unlike `InMemorySource` it accepts disordered streams, which is
    /// the whole point here.
    struct VecSource {
        num_nodes: usize,
        feature_dim: usize,
        chunk_size: usize,
        events: Vec<Event>,
        features: Vec<f32>,
        cursor: usize,
    }

    impl VecSource {
        fn new(
            num_nodes: usize,
            feature_dim: usize,
            chunk_size: usize,
            events: Vec<Event>,
            features: Vec<f32>,
        ) -> Self {
            VecSource {
                num_nodes,
                feature_dim,
                chunk_size,
                events,
                features,
                cursor: 0,
            }
        }
    }

    impl EventSource for VecSource {
        fn num_nodes(&self) -> usize {
            self.num_nodes
        }
        fn num_events(&self) -> usize {
            self.events.len()
        }
        fn feature_dim(&self) -> usize {
            self.feature_dim
        }
        fn chunk_size(&self) -> usize {
            self.chunk_size
        }
        fn next_chunk(&mut self) -> Result<Option<EventChunk>, SourceError> {
            if self.cursor >= self.events.len() {
                return Ok(None);
            }
            let base = self.cursor;
            let end = (base + self.chunk_size).min(self.events.len());
            let chunk = EventChunk {
                index: base / self.chunk_size,
                base,
                events: self.events[base..end].to_vec(),
                features: self.features[base * self.feature_dim..end * self.feature_dim].to_vec(),
            };
            self.cursor = end;
            Ok(Some(chunk))
        }
        fn reset(&mut self) -> Result<(), SourceError> {
            self.cursor = 0;
            Ok(())
        }
    }

    /// Strictly increasing timestamps, distinct node pairs per step.
    fn sorted_events(g: &mut cascade_util::Gen, n: usize, nodes: usize) -> Vec<Event> {
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                t += g.f64_in(0.001..1.0);
                Event::new(g.usize_in(0..nodes) as u32, g.usize_in(0..nodes) as u32, t)
            })
            .collect()
    }

    /// Permutes events (and their feature rows) within consecutive
    /// blocks of `window` — max displacement `window - 1`.
    fn shuffle_within_window(
        rng: &mut DetRng,
        events: &mut [Event],
        features: &mut [f32],
        dim: usize,
        window: usize,
    ) {
        let n = events.len();
        let mut start = 0;
        while start < n {
            let end = (start + window).min(n);
            for i in (start + 1..end).rev() {
                let j = start + rng.index(i - start + 1);
                events.swap(i, j);
                for k in 0..dim {
                    features.swap(i * dim + k, j * dim + k);
                }
            }
            start = end;
        }
    }

    fn drain_all(src: &mut impl EventSource) -> Result<(Vec<Event>, Vec<f32>), SourceError> {
        let mut events = Vec::new();
        let mut features = Vec::new();
        let mut next_base = 0usize;
        let mut next_index = 0usize;
        while let Some(chunk) = src.next_chunk()? {
            assert_eq!(chunk.index, next_index, "chunk indices are contiguous");
            assert_eq!(chunk.base, next_base, "chunk bases are contiguous");
            next_index += 1;
            next_base += chunk.events.len();
            events.extend_from_slice(&chunk.events);
            features.extend_from_slice(&chunk.features);
        }
        Ok((events, features))
    }

    fn bits_equal(a: &[Event], fa: &[f32], b: &[Event], fb: &[f32]) -> bool {
        a.len() == b.len()
            && fa.len() == fb.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.src == y.src && x.dst == y.dst && x.time.to_bits() == y.time.to_bits()
            })
            && fa.iter().zip(fb).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn buffered_reorder_restores_shuffled_stream_bit_identically() {
        check("buffered_reorder_restores_sorted", |g| {
            let n = g.usize_in(20..400);
            let dim = g.usize_in(0..5);
            let window = g.usize_in(2..32);
            let chunk = g.usize_in(1..64);
            let events = sorted_events(g, n, 50);
            let features = g.vec_f32(n * dim, -1.0..1.0);

            let mut shuffled = events.clone();
            let mut shuffled_feats = features.clone();
            shuffle_within_window(g.rng(), &mut shuffled, &mut shuffled_feats, dim, window);

            let src = VecSource::new(50, dim, chunk, shuffled, shuffled_feats);
            let mut reorder = undeclared(src, ReorderPolicy::BufferedReorder(window));
            let (got, got_feats) = drain_all(&mut reorder).map_err(|e| e.to_string())?;
            prop_assert!(
                bits_equal(&got, &got_feats, &events, &features),
                "normalized stream differs from the sorted original \
                 (n={} dim={} window={} chunk={})",
                n,
                dim,
                window,
                chunk
            );
            Ok(())
        });
    }

    #[test]
    fn buffered_reorder_drops_injected_duplicates() {
        check("buffered_reorder_drops_duplicates", |g| {
            let n = g.usize_in(30..200);
            let dim = g.usize_in(0..4);
            let window = g.usize_in(3..24);
            let events = sorted_events(g, n, 40);
            let features = g.vec_f32(n * dim, -1.0..1.0);

            let mut shuffled = events.clone();
            let mut shuffled_feats = features.clone();
            shuffle_within_window(g.rng(), &mut shuffled, &mut shuffled_feats, dim, window);

            // Duplicate every k-th event right after itself: the copy is
            // displaced by at most the window like everything else.
            let k = g.usize_in(3..9);
            let mut dirty = Vec::new();
            let mut dirty_feats = Vec::new();
            for (i, ev) in shuffled.iter().enumerate() {
                dirty.push(*ev);
                dirty_feats.extend_from_slice(&shuffled_feats[i * dim..(i + 1) * dim]);
                if i % k == k - 1 {
                    dirty.push(*ev);
                    dirty_feats.extend_from_slice(&shuffled_feats[i * dim..(i + 1) * dim]);
                }
            }

            let src = VecSource::new(40, dim, 32, dirty, dirty_feats);
            let mut reorder = ReorderingSource::with_declared_events(
                src,
                ReorderPolicy::BufferedReorder(window),
                n,
            );
            let (got, got_feats) = drain_all(&mut reorder).map_err(|e| e.to_string())?;
            prop_assert!(
                bits_equal(&got, &got_feats, &events, &features),
                "deduped stream differs from the original (n={} window={} k={})",
                n,
                window,
                k
            );
            Ok(())
        });
    }

    #[test]
    fn reject_policy_errors_on_disorder_and_passes_duplicates() {
        let disordered = vec![Event::new(0u32, 1u32, 2.0), Event::new(1u32, 2u32, 1.0)];
        let src = VecSource::new(3, 0, 8, disordered, Vec::new());
        let mut reject = undeclared(src, ReorderPolicy::Reject);
        let err = drain_all(&mut reject).expect_err("regression must be rejected");
        assert!(err.message.contains("out-of-order"));

        let duplicated = vec![Event::new(0u32, 1u32, 1.0), Event::new(0u32, 1u32, 1.0)];
        let src = VecSource::new(3, 0, 8, duplicated, Vec::new());
        let mut reject = undeclared(src, ReorderPolicy::Reject);
        let (got, _) = drain_all(&mut reject).expect("duplicates pass under Reject");
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn buffered_reorder_errors_when_window_exceeded() {
        // Displacement of 4 against a window of 2: by the time the late
        // event arrives, a newer one has already been released.
        let events = vec![
            Event::new(0u32, 1u32, 2.0),
            Event::new(1u32, 2u32, 3.0),
            Event::new(2u32, 3u32, 4.0),
            Event::new(3u32, 4u32, 5.0),
            Event::new(4u32, 0u32, 1.0),
        ];
        let src = VecSource::new(5, 0, 8, events, Vec::new());
        let mut reorder = undeclared(src, ReorderPolicy::BufferedReorder(2));
        let err = drain_all(&mut reorder).expect_err("window excess must error");
        assert!(err.message.contains("reorder window"));
    }

    #[test]
    fn declared_count_mismatch_is_an_error() {
        let events = vec![Event::new(0u32, 1u32, 1.0), Event::new(0u32, 1u32, 1.0)];
        let src = VecSource::new(2, 0, 8, events, Vec::new());
        // Declares 2 events but dedup yields 1.
        let mut dedup = undeclared(src, ReorderPolicy::BufferedReorder(2));
        let err = drain_all(&mut dedup).expect_err("count mismatch must surface");
        assert!(err.message.contains("declared"));
    }

    /// Every chunk a source yields, and the error that stops it, with
    /// times and features as bits.
    type Yield = Result<(usize, usize, Vec<(u32, u32, u64)>, Vec<u32>), SourceError>;

    fn yields(src: &mut impl EventSource) -> Vec<Yield> {
        let mut out = Vec::new();
        loop {
            match src.next_chunk() {
                Ok(Some(c)) => out.push(Ok((
                    c.index,
                    c.base,
                    c.events
                        .iter()
                        .map(|e| (e.src.0, e.dst.0, e.time.to_bits()))
                        .collect(),
                    c.features.iter().map(|f| f.to_bits()).collect(),
                ))),
                Ok(None) => return out,
                Err(e) => {
                    out.push(Err(e));
                    return out;
                }
            }
        }
    }

    #[test]
    fn range_lookup_dedup_matches_the_linear_scan() {
        check("reorder_range_dedup_oracle", |g| {
            // Few nodes and runs of equal times: equal-time neighbours
            // that are not duplicates, and duplicates by chance.
            let n = g.usize_in(0..1400);
            let dim = g.usize_in(0..3);
            let nodes = g.usize_in(1..6);
            let mut t = 0.0f64;
            let mut events: Vec<Event> = (0..n)
                .map(|_| {
                    if g.usize_in(0..3) > 0 {
                        t += f64::from(g.usize_in(1..4) as u32) * 0.5;
                    }
                    Event::new(g.usize_in(0..nodes) as u32, g.usize_in(0..nodes) as u32, t)
                })
                .collect();
            // Replays of earlier events, some near, some far behind.
            for _ in 0..g.usize_in(0..n / 8 + 1) {
                let from = g.usize_in(0..events.len());
                let to = (from + g.usize_in(0..1200)).min(events.len());
                events.insert(to, events[from]);
            }
            let mut features = g.vec_f32(events.len() * dim, -1.0..1.0);
            let spread = if g.usize_in(0..2) == 0 {
                1
            } else {
                g.usize_in(2..48)
            };
            shuffle_within_window(g.rng(), &mut events, &mut features, dim, spread);
            if !events.is_empty() && g.usize_in(0..8) == 0 {
                let at = g.usize_in(0..events.len());
                events[at].time = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][g.usize_in(0..3)];
            }
            let policy = match g.usize_in(0..2) {
                0 => ReorderPolicy::Reject,
                _ => ReorderPolicy::BufferedReorder(g.usize_in(0..64)),
            };
            let chunk = g.usize_in(1..200);
            let run = |linear_dedup: bool| {
                let src = VecSource::new(nodes, dim, chunk, events.clone(), features.clone());
                let mut reorder = undeclared(src, policy);
                reorder.linear_dedup = linear_dedup;
                yields(&mut reorder)
            };
            let (got, want) = (run(false), run(true));
            prop_assert!(
                got == want,
                "range lookup and linear scan disagree under {} (n={} chunk={}): \
                 {} vs {} yields, last {:?} vs {:?}",
                policy,
                n,
                chunk,
                got.len(),
                want.len(),
                got.last().map(|y| y.as_ref().err()),
                want.last().map(|y| y.as_ref().err())
            );
            Ok(())
        });
    }

    #[test]
    fn non_finite_times_are_refused_under_every_policy() {
        for policy in [ReorderPolicy::Reject, ReorderPolicy::BufferedReorder(4)] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let events = vec![
                    Event::new(0u32, 1u32, 1.0),
                    Event::new(1u32, 2u32, bad),
                    Event::new(2u32, 0u32, 0.5),
                ];
                let src = VecSource::new(3, 0, 8, events, Vec::new());
                let mut reorder = undeclared(src, policy);
                let err = drain_all(&mut reorder).expect_err("a non-finite time is refused");
                assert!(err.message.contains("non-finite"), "{policy}: {err}");
                assert_eq!(err.chunk, Some(0));
            }
        }
    }

    #[test]
    fn reset_replays_the_normalized_stream_identically() {
        check("reorder_reset_replays", |g| {
            let n = g.usize_in(10..120);
            let window = g.usize_in(2..16);
            let events = sorted_events(g, n, 20);
            let mut shuffled = events.clone();
            shuffle_within_window(g.rng(), &mut shuffled, &mut [], 0, window);
            let src = VecSource::new(20, 0, 16, shuffled, Vec::new());
            let mut reorder = undeclared(src, ReorderPolicy::BufferedReorder(window));
            let (first, _) = drain_all(&mut reorder).map_err(|e| e.to_string())?;
            reorder.reset().map_err(|e| e.to_string())?;
            let (second, _) = drain_all(&mut reorder).map_err(|e| e.to_string())?;
            prop_assert!(
                bits_equal(&first, &[], &second, &[]),
                "reset replay diverged (n={} window={})",
                n,
                window
            );
            Ok(())
        });
    }
}
