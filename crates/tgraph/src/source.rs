//! Chunked event sources: the abstraction that lets training consume an
//! event stream without holding it in memory.
//!
//! A [`EventSource`] yields the stream as ordered [`EventChunk`]s — the
//! unit the chunk-based Cascade variant (§4.2) already schedules over.
//! [`InMemorySource`] adapts an in-RAM [`Dataset`]; the on-disk
//! `cascade-store` crate provides a streaming implementation that reads
//! one checksummed frame per chunk. Both must yield byte-identical
//! chunks for the same underlying events, which is what makes
//! out-of-core training bit-identical to in-memory training.

use std::fmt;

use crate::dataset::Dataset;

/// Round-robin chunk partition over any [`EventSource`]: worker `w` of
/// `n` sees exactly the chunks with `index % n == w`, in their original
/// order, and skips the rest.
///
/// The assignment is a pure function of the chunk index, so every
/// worker — thread or TCP peer — agrees on ownership without
/// coordination, and the union over workers streams every event exactly
/// once (asserted by `partition_props` tests in `cascade-dist`). With
/// `n == 1` the adapter is a transparent pass-through, which is what
/// keeps dist training at N=1 bit-identical to serial streaming.
pub struct PartitionedSource<S> {
    inner: S,
    worker: usize,
    workers: usize,
}

impl<S: EventSource> PartitionedSource<S> {
    /// Wraps `inner` as worker `worker` of `workers`.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `worker >= workers`.
    pub fn new(inner: S, worker: usize, workers: usize) -> Self {
        assert!(workers > 0, "PartitionedSource needs at least one worker");
        assert!(
            worker < workers,
            "worker index {} out of range for {} workers",
            worker,
            workers
        );
        PartitionedSource {
            inner,
            worker,
            workers,
        }
    }
}

impl<S: EventSource> EventSource for PartitionedSource<S> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    /// Total events in the underlying stream (not this partition's
    /// share): partition sizes depend on chunk contents, and global
    /// quantities like feature-table sizing key off the full stream.
    fn num_events(&self) -> usize {
        self.inner.num_events()
    }

    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }

    fn next_chunk(&mut self) -> Result<Option<EventChunk>, SourceError> {
        loop {
            match self.inner.next_chunk()? {
                Some(chunk) => {
                    if chunk.index % self.workers == self.worker {
                        return Ok(Some(chunk));
                    }
                }
                None => return Ok(None),
            }
        }
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.inner.reset()
    }

    fn name(&self) -> String {
        format!("{}#{}of{}", self.inner.name(), self.worker, self.workers)
    }
}
use crate::event::Event;

/// One contiguous slice of the event stream, with its edge-feature rows.
///
/// `events[i]` has global stream id `base + i`, and `features` holds
/// `events.len() * feature_dim` floats in the same order (empty when the
/// source carries no features).
#[derive(Clone, Debug, PartialEq)]
pub struct EventChunk {
    /// Chunk index in the stream (0-based).
    pub index: usize,
    /// Global id of `events[0]`.
    pub base: usize,
    /// The chunk's events, chronologically ordered.
    pub events: Vec<Event>,
    /// Row-major feature rows for `events`, `feature_dim` floats each.
    pub features: Vec<f32>,
}

/// Error raised by an event source (I/O failure, corruption, protocol
/// violation). Carries the chunk index when one is known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceError {
    /// Chunk at which the failure occurred, when attributable.
    pub chunk: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl SourceError {
    /// Creates an error not tied to a specific chunk.
    pub fn new(message: impl Into<String>) -> Self {
        SourceError {
            chunk: None,
            message: message.into(),
        }
    }

    /// Creates an error attributed to `chunk`.
    pub fn at_chunk(chunk: usize, message: impl Into<String>) -> Self {
        SourceError {
            chunk: Some(chunk),
            message: message.into(),
        }
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.chunk {
            Some(c) => write!(f, "event source failed at chunk {}: {}", c, self.message),
            None => write!(f, "event source failed: {}", self.message),
        }
    }
}

impl std::error::Error for SourceError {}

/// A chunked, resettable reader over an ordered event stream.
///
/// Implementations yield chunks strictly in stream order; after
/// exhaustion, [`reset`](EventSource::reset) rewinds to chunk 0 so the
/// next epoch re-reads the same sequence.
pub trait EventSource {
    /// Number of nodes the stream covers.
    fn num_nodes(&self) -> usize;

    /// Total number of events in the stream.
    fn num_events(&self) -> usize;

    /// Edge-feature width (0 when the stream has no features).
    fn feature_dim(&self) -> usize;

    /// Nominal chunk size: every chunk except possibly the last holds
    /// exactly this many events.
    fn chunk_size(&self) -> usize;

    /// Yields the next chunk, `Ok(None)` once the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Returns a [`SourceError`] on I/O failure or detected corruption;
    /// chunks before the failure point have already been yielded intact.
    fn next_chunk(&mut self) -> Result<Option<EventChunk>, SourceError>;

    /// Rewinds to chunk 0 (start of a new epoch).
    ///
    /// # Errors
    ///
    /// Returns a [`SourceError`] when the underlying stream cannot be
    /// reopened.
    fn reset(&mut self) -> Result<(), SourceError>;

    /// Human-readable source name (used in reports).
    fn name(&self) -> String {
        "source".to_string()
    }
}

/// An [`EventSource`] over an in-memory [`Dataset`]: the reference
/// implementation streaming code is validated against.
#[derive(Clone, Debug)]
pub struct InMemorySource {
    name: String,
    num_nodes: usize,
    chunk_size: usize,
    feature_dim: usize,
    events: Vec<Event>,
    features: Vec<f32>,
    cursor: usize,
}

impl InMemorySource {
    /// Wraps `data`, yielding chunks of `chunk_size` events.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn from_dataset(data: &Dataset, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let feature_dim = data.features().dim();
        let mut features = Vec::with_capacity(data.num_events() * feature_dim);
        for i in 0..data.num_events() {
            features.extend_from_slice(data.features().row(i));
        }
        InMemorySource {
            name: data.name().to_string(),
            num_nodes: data.num_nodes(),
            chunk_size,
            feature_dim,
            events: data.stream().events().to_vec(),
            features,
            cursor: 0,
        }
    }
}

impl EventSource for InMemorySource {
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

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;

    fn data() -> Dataset {
        SynthConfig::wiki().with_scale(0.003).generate(11)
    }

    #[test]
    fn chunks_partition_the_stream() {
        let d = data();
        let mut src = InMemorySource::from_dataset(&d, 100);
        let mut seen = 0usize;
        let mut idx = 0usize;
        while let Some(chunk) = src.next_chunk().expect("in-memory source never fails") {
            assert_eq!(chunk.index, idx);
            assert_eq!(chunk.base, seen);
            assert_eq!(chunk.features.len(), chunk.events.len() * src.feature_dim());
            assert!(chunk.events.len() <= 100);
            seen += chunk.events.len();
            idx += 1;
        }
        assert_eq!(seen, d.num_events());
        assert_eq!(src.num_events(), d.num_events());
    }

    #[test]
    fn chunk_contents_match_dataset() {
        let d = data();
        let mut src = InMemorySource::from_dataset(&d, 64);
        let chunk = src
            .next_chunk()
            .expect("in-memory source never fails")
            .expect("dataset is non-empty");
        assert_eq!(
            &chunk.events[..],
            &d.stream().events()[..chunk.events.len()]
        );
        assert_eq!(&chunk.features[..d.features().dim()], d.features().row(0));
    }

    #[test]
    fn reset_rewinds() {
        let d = data();
        let mut src = InMemorySource::from_dataset(&d, 64);
        let first = src.next_chunk().expect("never fails");
        while src.next_chunk().expect("never fails").is_some() {}
        src.reset().expect("in-memory reset never fails");
        let again = src.next_chunk().expect("never fails");
        assert_eq!(first, again);
    }

    #[test]
    fn error_display_mentions_chunk() {
        let e = SourceError::at_chunk(3, "crc mismatch");
        assert!(e.to_string().contains("chunk 3"));
        let e = SourceError::new("cannot open");
        assert!(!e.to_string().contains("chunk"));
    }
}
