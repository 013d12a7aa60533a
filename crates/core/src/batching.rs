//! The [`BatchingStrategy`] abstraction every scheduler (Cascade and the
//! baselines) implements, plus the fixed-size strategy used as the
//! universal fallback.

use std::time::Duration;

use cascade_models::MemoryDelta;
use cascade_tgraph::{Event, EventId, SourceError};

use crate::dependency::DependencyTable;

/// Dependency-structure build time spent inside a strategy (the
/// BuildTable share of Figures 13(b) and 14(c)); strategies without
/// auxiliary structures report zeros. Boundary lookup is not here: the
/// train step times every scan (`stages.scan.busy`).
#[derive(Clone, Copy, Debug, Default)]
pub struct StrategyTimers {
    /// Dependency-structure construction on the driver's own thread.
    pub build_table: Duration,
    /// Build work a loader thread performed while training proceeded
    /// (off the critical path in the paper's CPU-builds-while-GPU-trains
    /// deployment; on a single test core it contends with training, so
    /// `cascade-bench`'s modelled latency credits it back).
    pub background_build: Duration,
}

/// Space consumed by a strategy's auxiliary structures (the "DT" and "SF"
/// bars of Figure 13(c)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StrategySpace {
    /// Dependency-table (or dependency-graph) bytes.
    pub dependency_bytes: usize,
    /// Stable-flag bytes.
    pub flag_bytes: usize,
}

/// How a streaming strategy wants per-chunk dependency tables built —
/// enough for a loader thread to construct chunk `k+1`'s table off the
/// critical path while chunk `k` trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableSpec {
    /// Node-count dimension every table is built against.
    pub num_nodes: usize,
    /// Build first-incidence-only tables (the truncated-backprop
    /// variant) instead of full per-node event lists. Only honored for
    /// the chunk at base 0; later chunks always need the range build.
    pub incident_only: bool,
}

impl TableSpec {
    /// Builds the dependency table for a chunk of `events` starting at
    /// global id `base`, exactly as the owning strategy would.
    pub fn build(&self, base: EventId, events: &[Event]) -> DependencyTable {
        if self.incident_only && base == 0 {
            DependencyTable::build_incident_only(events, self.num_nodes)
        } else {
            DependencyTable::build_range(events, self.num_nodes, base)
        }
    }
}

/// A dependency table built ahead of time by a loader thread, with the
/// wall-clock the build cost (credited to the strategy's
/// `background_build` timer rather than the critical path).
#[derive(Clone, Debug)]
pub struct PrebuiltTable {
    /// The finished table.
    pub table: DependencyTable,
    /// Wall-clock the background build took.
    pub work: Duration,
}

/// Decides where each training batch ends.
///
/// Every strategy speaks one protocol, the chunk protocol of the
/// streaming driver (which [`train`](crate::train) runs with the dataset
/// as one chunk). Once per run the driver announces the chunk geometry
/// ([`prepare_streaming`](BatchingStrategy::prepare_streaming), through
/// [`announce_chunks`]); each epoch it calls
/// [`reset_epoch`](BatchingStrategy::reset_epoch), announces chunk `k`
/// ([`enter_chunk`](BatchingStrategy::enter_chunk)) just before the first
/// scan that reaches it, asks
/// [`next_batch_end`](BatchingStrategy::next_batch_end) where each batch
/// ends, and feeds back losses and memory transitions. A strategy builds
/// whatever it needs for a chunk when it enters that chunk; one whose
/// batches depend on that structure ends no batch past the chunk (fixed
/// batching needs none, and straddles). A one-chunk stream is entered
/// once per run: every epoch would announce the same chunk, so the
/// strategy keeps what it built and `reset_epoch` rewinds it.
pub trait BatchingStrategy {
    /// Human-readable strategy name (used in reports).
    fn name(&self) -> String;

    /// The one-chunk case of the protocol: announces `events` as a stream
    /// of one chunk and enters it.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty or the strategy cannot stream.
    fn prepare(&mut self, events: &[Event], num_nodes: usize) {
        announce_chunks(self, events.len(), num_nodes, events.len())
            .expect("prepare drives the chunk protocol, which the strategy must speak");
        self.enter_chunk(0, 0, events, None);
    }

    /// Resets per-epoch state (event pointers, stable flags, convergence
    /// monitors).
    fn reset_epoch(&mut self) {}

    /// Returns the exclusive end of the batch starting at `start`; must
    /// satisfy `start < end <= limit`.
    fn next_batch_end(&mut self, start: EventId, limit: EventId) -> EventId;

    /// Observes the training loss of the batch just processed.
    fn after_batch(&mut self, _batch_idx: usize, _train_loss: f32) {}

    /// Observes the node-memory transitions the batch applied.
    fn observe_updates(&mut self, _deltas: &[MemoryDelta]) {}

    /// Auxiliary-structure space accounting.
    fn space(&self) -> StrategySpace {
        StrategySpace::default()
    }

    /// Fine-grained phase timing, when the strategy tracks it.
    fn timers(&self) -> StrategyTimers {
        StrategyTimers::default()
    }

    // ---- the chunk protocol -----------------------------------------

    /// Starts a run over a training slice of `total_train` events cut
    /// into chunks of `chunk_size` (the last one shorter), dropping
    /// everything derived from a previous run. Returns `false` when the
    /// strategy cannot stream (the driver then refuses the run with a
    /// typed error rather than silently diverging).
    fn prepare_streaming(
        &mut self,
        _total_train: usize,
        _num_nodes: usize,
        _chunk_size: usize,
    ) -> bool {
        false
    }

    /// How this strategy's per-chunk dependency tables are built, so a
    /// loader thread can prebuild them. `None` when the strategy needs
    /// no tables.
    fn table_spec(&self) -> Option<TableSpec> {
        None
    }

    /// Announces that the stream has reached chunk `idx`, whose events
    /// start at global id `base`. `prebuilt` carries a table constructed
    /// off the critical path when a loader thread ran ahead; otherwise
    /// the strategy builds its own.
    fn enter_chunk(
        &mut self,
        _idx: usize,
        _base: EventId,
        _events: &[Event],
        _prebuilt: Option<PrebuiltTable>,
    ) {
    }

    /// Serializes the strategy's adaptive state (convergence monitors,
    /// stable flags, batch counters) for a mid-stream checkpoint.
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by
    /// [`export_state`](BatchingStrategy::export_state).
    ///
    /// # Errors
    ///
    /// Returns a description when the bytes do not match this strategy.
    fn import_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// Announces a run's chunk geometry to `strategy`: the one
/// [`prepare_streaming`](BatchingStrategy::prepare_streaming) call of a
/// run, made by the entry point that owns the run.
///
/// # Errors
///
/// A [`SourceError`] naming the strategy when it cannot stream.
///
/// # Panics
///
/// Panics if `total_train == 0` (an empty training range).
pub fn announce_chunks<S: BatchingStrategy + ?Sized>(
    strategy: &mut S,
    total_train: usize,
    num_nodes: usize,
    chunk_size: usize,
) -> Result<(), SourceError> {
    assert!(total_train > 0, "empty training range");
    if strategy.prepare_streaming(total_train, num_nodes, chunk_size) {
        Ok(())
    } else {
        Err(SourceError::new(format!(
            "strategy {} does not support streaming",
            strategy.name()
        )))
    }
}

/// Fixed-size batching: the discipline of TGL and every conventional
/// TGNN trainer (§2.3). Also reused with a larger size as the paper's
/// "TGL-LB" comparison point (Figure 12(b)).
///
/// # Examples
///
/// ```
/// use cascade_core::{BatchingStrategy, FixedBatching};
///
/// let mut s = FixedBatching::new(900);
/// assert_eq!(s.next_batch_end(0, 10_000), 900);
/// assert_eq!(s.next_batch_end(9_500, 10_000), 10_000);
/// ```
#[derive(Clone, Debug)]
pub struct FixedBatching {
    batch_size: usize,
    label: String,
}

impl FixedBatching {
    /// Creates a fixed-size strategy.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        FixedBatching {
            batch_size,
            label: format!("TGL(bs={})", batch_size),
        }
    }

    /// Overrides the report label (e.g. `TGL-LB`).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl BatchingStrategy for FixedBatching {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn next_batch_end(&mut self, start: EventId, limit: EventId) -> EventId {
        assert!(start < limit, "next_batch_end on empty range");
        (start + self.batch_size).min(limit)
    }

    // Fixed batching ignores chunk ends: it needs no tables and no
    // checkpoint state, and a batch may straddle into the next chunk.
    fn prepare_streaming(
        &mut self,
        _total_train: usize,
        _num_nodes: usize,
        _chunk_size: usize,
    ) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_partitions_stream() {
        let mut s = FixedBatching::new(3);
        let mut start = 0;
        let mut sizes = Vec::new();
        while start < 10 {
            let end = s.next_batch_end(start, 10);
            sizes.push(end - start);
            start = end;
        }
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn label_override() {
        let s = FixedBatching::new(4200).with_label("TGL-LB");
        assert_eq!(s.name(), "TGL-LB");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero() {
        let _ = FixedBatching::new(0);
    }

    #[test]
    fn default_space_is_zero() {
        let s = FixedBatching::new(10);
        assert_eq!(s.space(), StrategySpace::default());
    }
}
