//! Events and event streams — the CTDG representation of §2.1.

use std::fmt;

/// Identifies a node of the dynamic graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifies an event by its position in the chronological stream.
pub type EventId = usize;

/// One graph change: an edge from `src` to `dst` occurring at `time`.
///
/// In the CTDG formulation `G = {e(t₁), e(t₂), …}` (Equation 1), each
/// event is "typically represented as an edge with a timestamp".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Occurrence timestamp (arbitrary monotone units).
    pub time: f64,
}

impl Event {
    /// Creates an event.
    pub fn new(src: impl Into<NodeId>, dst: impl Into<NodeId>, time: f64) -> Self {
        Event {
            src: src.into(),
            dst: dst.into(),
            time,
        }
    }

    /// `true` if the event touches `node` as source or destination.
    pub fn touches(&self, node: NodeId) -> bool {
        self.src == node || self.dst == node
    }
}

/// A chronologically ordered sequence of events.
///
/// # Examples
///
/// ```
/// use cascade_tgraph::{Event, EventStream};
///
/// let stream = EventStream::new(vec![
///     Event::new(0u32, 1u32, 0.0),
///     Event::new(1u32, 2u32, 1.0),
/// ]).unwrap();
/// assert_eq!(stream.len(), 2);
/// assert_eq!(stream.num_nodes(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventStream {
    events: Vec<Event>,
    num_nodes: usize,
}

/// Error constructing an [`EventStream`] from out-of-order events or
/// an event whose time is NaN or infinite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderError {
    /// Index of the first event whose timestamp is non-finite or
    /// precedes its predecessor's.
    pub at: usize,
    /// `true` when that timestamp is NaN or infinite: a NaN compares
    /// false both ways and would hide any disorder after it.
    pub non_finite: bool,
}

impl fmt::Display for OrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.non_finite {
            write!(f, "event {} has a non-finite time", self.at)
        } else {
            write!(f, "event {} is earlier than its predecessor", self.at)
        }
    }
}

impl std::error::Error for OrderError {}

impl EventStream {
    /// Creates a stream, validating chronological order.
    ///
    /// # Errors
    ///
    /// Returns [`OrderError`] if any timestamp is non-finite or
    /// decreases.
    pub fn new(events: Vec<Event>) -> Result<Self, OrderError> {
        let mut last = f64::NEG_INFINITY;
        for (at, e) in events.iter().enumerate() {
            let non_finite = !e.time.is_finite();
            if non_finite || e.time < last {
                return Err(OrderError { at, non_finite });
            }
            last = e.time;
        }
        let num_nodes = events
            .iter()
            .map(|e| e.src.0.max(e.dst.0) as usize + 1)
            .max()
            .unwrap_or(0);
        Ok(EventStream { events, num_nodes })
    }

    /// Creates a stream, sorting the events by timestamp first (stable).
    ///
    /// # Panics
    ///
    /// Panics if any timestamp is non-finite.
    pub fn from_unsorted(mut events: Vec<Event>) -> Self {
        events.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        EventStream::new(events).expect("sorted finite events are ordered")
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of nodes (max node id + 1 across all events).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The events as a slice.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Event at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn event(&self, idx: EventId) -> &Event {
        &self.events[idx]
    }

    /// Iterates over the events in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// A new stream restricted to `range` (used for chronological splits).
    pub fn restricted(&self, range: std::ops::Range<usize>) -> EventStream {
        EventStream {
            events: self.events[range].to_vec(),
            num_nodes: self.num_nodes,
        }
    }
}

impl<'a> IntoIterator for &'a EventStream {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_accepts_ordered() {
        let s = EventStream::new(vec![
            Event::new(0u32, 1u32, 0.0),
            Event::new(1u32, 0u32, 0.0),
            Event::new(2u32, 3u32, 5.0),
        ])
        .unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.num_nodes(), 4);
    }

    #[test]
    fn stream_rejects_disorder() {
        let err = EventStream::new(vec![
            Event::new(0u32, 1u32, 5.0),
            Event::new(1u32, 0u32, 1.0),
        ])
        .unwrap_err();
        assert_eq!(err.at, 1);
        assert!(!err.non_finite);
    }

    #[test]
    fn stream_rejects_non_finite_times() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = EventStream::new(vec![
                Event::new(0u32, 1u32, 1.0),
                Event::new(1u32, 0u32, bad),
                Event::new(1u32, 2u32, 0.5),
            ])
            .unwrap_err();
            assert_eq!(
                err,
                OrderError {
                    at: 1,
                    non_finite: true
                },
                "{bad}"
            );
            assert!(err.to_string().contains("non-finite"));
        }
    }

    #[test]
    fn from_unsorted_sorts() {
        let s = EventStream::from_unsorted(vec![
            Event::new(0u32, 1u32, 5.0),
            Event::new(1u32, 2u32, 1.0),
        ]);
        assert_eq!(s.event(0).time, 1.0);
        assert_eq!(s.event(1).time, 5.0);
    }

    #[test]
    fn empty_stream() {
        let s = EventStream::new(vec![]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.num_nodes(), 0);
    }

    #[test]
    fn touches_both_endpoints() {
        let e = Event::new(3u32, 7u32, 1.0);
        assert!(e.touches(NodeId(3)));
        assert!(e.touches(NodeId(7)));
        assert!(!e.touches(NodeId(5)));
    }

    #[test]
    fn restricted_keeps_num_nodes() {
        let s = EventStream::new(vec![
            Event::new(0u32, 9u32, 0.0),
            Event::new(1u32, 2u32, 1.0),
        ])
        .unwrap();
        let r = s.restricted(1..2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.num_nodes(), 10);
    }
}
