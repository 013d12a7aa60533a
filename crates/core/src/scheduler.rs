//! The Cascade scheduler: TG-Diffuser + SG-Filter + ABS composed into a
//! [`BatchingStrategy`]. Chunk-based preprocessing (Cascade_EX, §4.2 /
//! §5.5) is the chunk protocol: the source owns the chunk geometry, the
//! driver announces one chunk at a time, and only that chunk's
//! dependency table is resident; in-memory Cascade is the one-chunk case.

// cascade-lint: allow-file(det-wallclock): table-build timings feed StrategyTimers telemetry only; chunk boundaries and batch contents are derived purely from event data.
use std::time::Instant;

use cascade_models::MemoryDelta;
use cascade_tgraph::{Event, EventId};
use cascade_util::{ByteReader, ByteWriter, DecodeError};

use crate::abs::{Abs, EnduranceStats};
use crate::batching::{BatchingStrategy, PrebuiltTable, StrategySpace, StrategyTimers, TableSpec};
use crate::diffuser::TgDiffuser;
use crate::sgfilter::SgFilter;

/// Configuration of the [`CascadeScheduler`].
#[derive(Clone, Debug)]
pub struct CascadeConfig {
    /// The preset small batch size used for endurance profiling and as the
    /// quality reference (the paper uses 900).
    pub preset_batch_size: usize,
    /// SG-Filter similarity threshold θ_sim (paper default 0.9).
    pub theta: f32,
    /// Whether the SG-Filter runs; disabling it yields the paper's
    /// Cascade-TB ablation (§5.3).
    pub sg_filter: bool,
    /// Ablation: drop Algorithm 2's neighbor-future step, keeping only
    /// incident events in the dependency table.
    pub incident_only_table: bool,
    /// Ablation: freeze `Max_r` at its initial value (no Equation 5
    /// decay).
    pub freeze_max_r: bool,
    /// Profiling seed.
    pub seed: u64,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            preset_batch_size: 900,
            theta: 0.9,
            sg_filter: true,
            incident_only_table: false,
            freeze_max_r: false,
            seed: 0,
        }
    }
}

impl CascadeConfig {
    /// The Cascade-TB ablation: TG-Diffuser + ABS only (§5.3).
    pub fn without_sg_filter(mut self) -> Self {
        self.sg_filter = false;
        self
    }

    /// Overrides θ_sim.
    pub fn with_theta(mut self, theta: f32) -> Self {
        self.theta = theta;
        self
    }

    /// Ablation: incident-only dependency tables (no neighbor-future
    /// events).
    pub fn with_incident_only_table(mut self) -> Self {
        self.incident_only_table = true;
        self
    }

    /// Ablation: freeze `Max_r` at its initial value.
    pub fn with_frozen_max_r(mut self) -> Self {
        self.freeze_max_r = true;
        self
    }
}

/// The full Cascade batching scheduler (§4.1, Algorithm 1).
///
/// # Examples
///
/// ```
/// use cascade_core::{BatchingStrategy, CascadeConfig, CascadeScheduler};
/// use cascade_tgraph::SynthConfig;
///
/// let data = SynthConfig::wiki().with_scale(0.01).generate(3);
/// let mut s = CascadeScheduler::new(CascadeConfig {
///     preset_batch_size: 64,
///     ..CascadeConfig::default()
/// });
/// s.prepare(data.stream().events(), data.num_nodes());
/// let end = s.next_batch_end(0, data.num_events());
/// assert!(end > 0);
/// ```
pub struct CascadeScheduler {
    cfg: CascadeConfig,
    /// Walks the one resident dependency table: the current chunk's.
    diffuser: Option<TgDiffuser>,
    sg: Option<SgFilter>,
    abs: Option<Abs>,
    no_stable: Vec<bool>,
    num_nodes: usize,
    /// Chunk geometry announced by `prepare_streaming`: chunk `k` covers
    /// events `k * chunk_size .. min((k + 1) * chunk_size, total_train)`.
    /// Zero until the scheduler is prepared.
    chunk_size: usize,
    /// Training-slice length (also drives the ABS batch count,
    /// Equation 6).
    total_train: usize,
    current_chunk: usize,
    timers: StrategyTimers,
    global_batch_idx: usize,
    /// `Max_r` restored from a checkpoint, consumed when the first
    /// post-resume chunk creates the diffuser.
    restored_max_r: Option<usize>,
}

impl CascadeScheduler {
    /// Creates an unprepared scheduler; call
    /// [`prepare`](BatchingStrategy::prepare) before batching.
    pub fn new(cfg: CascadeConfig) -> Self {
        CascadeScheduler {
            cfg,
            diffuser: None,
            sg: None,
            abs: None,
            no_stable: Vec::new(),
            num_nodes: 0,
            chunk_size: 0,
            total_train: 0,
            current_chunk: 0,
            timers: StrategyTimers::default(),
            global_batch_idx: 0,
            restored_max_r: None,
        }
    }

    /// Chunks in the announced geometry (0 when unprepared).
    fn num_chunks(&self) -> usize {
        self.total_train.div_ceil(self.chunk_size.max(1))
    }

    fn spec(&self) -> TableSpec {
        TableSpec {
            num_nodes: self.num_nodes,
            incident_only: self.cfg.incident_only_table,
        }
    }

    /// Decodes and validates all of `bytes`, then restores from it; a
    /// refused blob leaves the scheduler as it was.
    fn decode_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let invalid = |msg: String| Err(DecodeError::Invalid(msg));
        let mut r = ByteReader::new(bytes);
        let global_batch_idx = r.usize()?;
        let max_r = if r.bool()? { Some(r.usize()?) } else { None };
        if max_r == Some(0) {
            return invalid("scheduler state holds Max_r = 0".to_string());
        }
        let abs = if r.bool()? {
            let mut abs = Abs::from_stats(EnduranceStats {
                max: r.usize()?,
                mean: r.f64()?,
                min: r.usize()?,
                batch_count: r.usize()?,
            });
            abs.restore_convergence_state(r.f32()?, r.usize()?);
            Some(abs)
        } else {
            None
        };
        let sg = if r.bool()? {
            let count = r.count(1)?;
            let flags = (0..count).map(|_| r.bool());
            let flags = flags.collect::<Result<Vec<bool>, _>>()?;
            Some((flags, r.usize()?, r.usize()?))
        } else {
            None
        };
        r.finish()?;

        // The filter's restore is the one step that can still refuse
        // (and is itself all-or-nothing), so it goes first.
        if let Some((flags, updates, stable)) = sg {
            let Some(filter) = self.sg.as_mut() else {
                return invalid("SG-Filter state, but the filter is disabled".to_string());
            };
            filter
                .restore(&flags, updates, stable)
                .map_err(DecodeError::Invalid)?;
        }
        self.global_batch_idx = global_batch_idx;
        if max_r.is_some() {
            self.restored_max_r = max_r;
        }
        if abs.is_some() {
            self.abs = abs;
        }
        Ok(())
    }
}

impl BatchingStrategy for CascadeScheduler {
    fn name(&self) -> String {
        let mut n = if self.cfg.sg_filter {
            "Cascade".to_string()
        } else {
            "Cascade-TB".to_string()
        };
        if self.num_chunks() > 1 {
            n.push_str("_EX");
        }
        n
    }

    fn reset_epoch(&mut self) {
        // A multi-chunk run enters chunk 0 again, which swaps its table
        // in; a one-chunk run keeps its table and only rewinds the
        // pointers.
        self.current_chunk = 0;
        if let Some(d) = self.diffuser.as_mut() {
            d.reset();
        }
        if let Some(sg) = self.sg.as_mut() {
            sg.reset();
        }
        if let Some(abs) = self.abs.as_mut() {
            abs.reset_epoch();
        }
    }

    fn next_batch_end(&mut self, start: EventId, limit: EventId) -> EventId {
        assert!(start < limit, "next_batch_end on empty range");
        let diffuser = self.diffuser.as_mut().expect("scheduler not prepared");
        let chunk_end = ((self.current_chunk + 1) * self.chunk_size).min(self.total_train);
        assert!(
            start < chunk_end,
            "next_batch_end at event {start} is past the entered chunk {} (ends at event \
             {chunk_end}): the driver must enter_chunk before scanning into it",
            self.current_chunk
        );
        let stable: &[bool] = match &self.sg {
            Some(sg) => sg.flags(),
            None => &self.no_stable,
        };
        diffuser.next_boundary(start, limit.min(chunk_end), stable)
    }

    fn after_batch(&mut self, _batch_idx: usize, train_loss: f32) {
        self.global_batch_idx += 1;
        if self.cfg.freeze_max_r {
            return;
        }
        let (Some(abs), Some(diffuser)) = (self.abs.as_mut(), self.diffuser.as_mut()) else {
            return;
        };
        if let Some(new_r) = abs.on_batch(self.global_batch_idx, train_loss) {
            diffuser.set_max_r(new_r);
        }
    }

    fn observe_updates(&mut self, deltas: &[MemoryDelta]) {
        if let Some(sg) = self.sg.as_mut() {
            sg.observe(deltas);
        }
    }

    fn prepare_streaming(
        &mut self,
        total_train: usize,
        num_nodes: usize,
        chunk_size: usize,
    ) -> bool {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.total_train = total_train;
        self.num_nodes = num_nodes;
        self.chunk_size = chunk_size;
        self.no_stable = vec![false; num_nodes];
        self.sg = self
            .cfg
            .sg_filter
            .then(|| SgFilter::new(num_nodes, self.cfg.theta));
        self.current_chunk = 0;
        self.abs = None;
        self.diffuser = None;
        self.global_batch_idx = 0;
        self.restored_max_r = None;
        true
    }

    fn table_spec(&self) -> Option<TableSpec> {
        (self.chunk_size > 0).then(|| self.spec())
    }

    fn enter_chunk(
        &mut self,
        idx: usize,
        base: EventId,
        events: &[Event],
        prebuilt: Option<PrebuiltTable>,
    ) {
        assert!(
            idx < self.num_chunks(),
            "enter_chunk {idx} is out of range: {} chunks were announced",
            self.num_chunks()
        );
        let table = match prebuilt {
            Some(p) => {
                self.timers.background_build += p.work;
                p.table
            }
            None => {
                let t0 = Instant::now();
                let t = self.spec().build(base, events);
                self.timers.build_table += t0.elapsed();
                t
            }
        };
        self.current_chunk = idx;
        // The previous chunk's table is dropped here: only the current
        // one stays resident, which is the bound chunking exists to give.
        match self.diffuser.as_mut() {
            Some(d) => d.swap_table(table),
            None => {
                if self.abs.is_none() {
                    // Maximum Endurance Profiling over the first chunk
                    // seen. The batch count `B` entering the decay
                    // schedule (Equation 6) reflects the full training
                    // stream, not just the profiled chunk.
                    let covered = table.end() - table.base();
                    let abs =
                        Abs::profile(&table, covered, self.cfg.preset_batch_size, self.cfg.seed);
                    let mut stats = abs.stats();
                    stats.batch_count = self.total_train.div_ceil(self.cfg.preset_batch_size);
                    self.abs = Some(Abs::from_stats(stats));
                }
                let max_r = self.restored_max_r.take().unwrap_or_else(|| {
                    self.abs
                        .as_ref()
                        .expect("abs was just installed above")
                        .initial_max_r()
                });
                self.diffuser = Some(TgDiffuser::new(table, max_r));
            }
        }
    }

    fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.usize(self.global_batch_idx);
        w.bool(self.diffuser.is_some());
        if let Some(d) = self.diffuser.as_ref() {
            w.usize(d.max_r());
        }
        w.bool(self.abs.is_some());
        if let Some(abs) = self.abs.as_ref() {
            let s = abs.stats();
            w.usize(s.max);
            w.f64(s.mean);
            w.usize(s.min);
            w.usize(s.batch_count);
            let (best, stalled) = abs.convergence_state();
            w.f32(best);
            w.usize(stalled);
        }
        w.bool(self.sg.is_some());
        if let Some(sg) = self.sg.as_ref() {
            w.usize(sg.flags().len());
            sg.flags().iter().for_each(|&f| w.bool(f));
            let (updates, stable) = sg.epoch_counters();
            w.usize(updates);
            w.usize(stable);
        }
        w.into_bytes()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.decode_state(bytes).map_err(|e| e.to_string())
    }

    fn timers(&self) -> StrategyTimers {
        self.timers
    }

    fn space(&self) -> StrategySpace {
        StrategySpace {
            dependency_bytes: self.diffuser.as_ref().map_or(0, |d| d.table().size_bytes()),
            flag_bytes: self.sg.as_ref().map_or(0, SgFilter::size_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::DependencyTable;
    use cascade_tgraph::SynthConfig;

    /// The scheduler's current `Max_r`, if prepared.
    fn current_max_r(s: &CascadeScheduler) -> Option<usize> {
        s.diffuser.as_ref().map(TgDiffuser::max_r)
    }

    fn small_data() -> cascade_tgraph::Dataset {
        SynthConfig::wiki().with_scale(0.01).generate(5)
    }

    fn prepared(cfg: CascadeConfig) -> (CascadeScheduler, usize) {
        let data = small_data();
        let mut s = CascadeScheduler::new(cfg);
        s.prepare(data.stream().events(), data.num_nodes());
        (s, data.num_events())
    }

    fn base_cfg() -> CascadeConfig {
        CascadeConfig {
            preset_batch_size: 50,
            ..CascadeConfig::default()
        }
    }

    /// Drives the chunk protocol over in-memory `events` the way the
    /// streaming driver does — every chunk entered just before the first
    /// scan that reaches it — and returns every batch end.
    fn drive_chunked(
        s: &mut CascadeScheduler,
        events: &[Event],
        num_nodes: usize,
        chunk: usize,
    ) -> Vec<usize> {
        let n = events.len();
        assert!(s.prepare_streaming(n, num_nodes, chunk));
        s.reset_epoch();
        let mut ends = Vec::new();
        let mut start = 0;
        while start < n {
            if start % chunk == 0 {
                let chunk_end = (start + chunk).min(n);
                s.enter_chunk(start / chunk, start, &events[start..chunk_end], None);
            }
            start = s.next_batch_end(start, n);
            ends.push(start);
        }
        ends
    }

    #[test]
    fn batches_partition_the_stream() {
        let (mut s, n) = prepared(base_cfg());
        let mut start = 0;
        while start < n {
            let end = s.next_batch_end(start, n);
            assert!(end > start && end <= n);
            start = end;
        }
        assert_eq!(start, n);
    }

    #[test]
    fn cascade_batches_exceed_preset_on_average() {
        let (mut s, n) = prepared(base_cfg());
        let mut start = 0;
        let mut batches = 0usize;
        while start < n {
            start = s.next_batch_end(start, n);
            batches += 1;
        }
        let avg = n as f64 / batches as f64;
        assert!(
            avg > 50.0,
            "average cascade batch {} not larger than preset 50",
            avg
        );
    }

    #[test]
    fn chunked_equals_unchunked_partition_when_chunks_align() {
        // With chunking, boundaries additionally snap to chunk ends, but
        // the stream is still fully partitioned.
        let data = small_data();
        let n = data.num_events();
        let mut s = CascadeScheduler::new(base_cfg());
        assert_eq!(s.name(), "Cascade", "no geometry announced yet");
        let ends = drive_chunked(&mut s, data.stream().events(), data.num_nodes(), 97);
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ends.last(), Some(&n));
        for chunk_end in (97..n).step_by(97) {
            assert!(ends.contains(&chunk_end), "no batch ends at {chunk_end}");
        }
        assert_eq!(s.name(), "Cascade_EX");
    }

    #[test]
    fn ablation_name_reflects_sg_filter() {
        assert_eq!(CascadeScheduler::new(base_cfg()).name(), "Cascade");
        assert_eq!(
            CascadeScheduler::new(base_cfg().without_sg_filter()).name(),
            "Cascade-TB"
        );
    }

    #[test]
    fn reset_epoch_reproduces_boundaries() {
        let (mut s, n) = prepared(base_cfg().without_sg_filter());
        let first = s.next_batch_end(0, n);
        s.reset_epoch();
        assert_eq!(s.next_batch_end(0, n), first);
    }

    #[test]
    fn space_accounts_tables_and_flags() {
        let (s, _) = prepared(base_cfg());
        let space = s.space();
        assert!(space.dependency_bytes > 0);
        assert!(space.flag_bytes > 0);

        let (s2, _) = prepared(base_cfg().without_sg_filter());
        assert_eq!(s2.space().flag_bytes, 0);
    }

    #[test]
    fn decay_reduces_max_r_under_stalled_loss() {
        let (mut s, _) = prepared(base_cfg());
        let initial = current_max_r(&s).unwrap();
        for i in 0..200 {
            s.after_batch(i, 1.0); // never-improving loss
        }
        assert!(
            current_max_r(&s).unwrap() <= initial,
            "Max_r grew under stalled loss"
        );
    }

    #[test]
    fn timers_accumulate() {
        let (mut s, n) = prepared(base_cfg());
        let _ = s.next_batch_end(0, n);
        let t = s.timers();
        assert!(t.build_table.as_nanos() > 0);
    }

    #[test]
    #[should_panic(expected = "empty training range")]
    fn prepare_rejects_empty() {
        let mut s = CascadeScheduler::new(base_cfg());
        s.prepare(&[], 0);
    }

    #[test]
    fn streaming_boundaries_match_in_memory_chunked() {
        let data = small_data();
        let events = data.stream().events();
        let chunk = 97;

        let mut s = CascadeScheduler::new(base_cfg());
        let ends = drive_chunked(&mut s, events, data.num_nodes(), chunk);

        // Reference: a bare diffuser over each chunk's range table at the
        // profiled `Max_r` (no feedback was given, so it never decayed
        // and no node turned stable).
        let max_r = current_max_r(&s).expect("prepared");
        let no_stable = vec![false; data.num_nodes()];
        let mut reference = Vec::new();
        for (k, slice) in events.chunks(chunk).enumerate() {
            let (base, end) = (k * chunk, k * chunk + slice.len());
            let table = DependencyTable::build_range(slice, data.num_nodes(), base);
            let mut d = TgDiffuser::new(table, max_r);
            let mut start = base;
            while start < end {
                start = d.next_boundary(start, end, &no_stable);
                reference.push(start);
            }
        }
        assert_eq!(ends, reference);

        // Only the last chunk's table is resident, not the whole stream's.
        let last = events.chunks(chunk).last().expect("non-empty stream");
        let last_base = events.len() - last.len();
        let resident = DependencyTable::build_range(last, data.num_nodes(), last_base);
        assert_eq!(s.space().dependency_bytes, resident.size_bytes());
        let (whole, _) = prepared(base_cfg());
        assert!(s.space().dependency_bytes < whole.space().dependency_bytes);
    }

    #[test]
    fn prepare_twice_re_prepares() {
        let data = small_data();
        let (events, nodes) = (data.stream().events(), data.num_nodes());
        let (mut s, n) = prepared(base_cfg());
        let fresh_state = s.export_state();
        let first = s.next_batch_end(0, n);
        for i in 0..200 {
            s.after_batch(i, 1.0); // stalled loss: Max_r decays
        }
        assert_ne!(s.export_state(), fresh_state);

        // Same geometry again: a new run, not the used-up state.
        s.prepare(events, nodes);
        assert_eq!(s.export_state(), fresh_state);
        assert_eq!(s.next_batch_end(0, n), first);

        // A different stream re-profiles.
        s.prepare(&events[..n / 2], nodes);
        let mut half = CascadeScheduler::new(base_cfg());
        half.prepare(&events[..n / 2], nodes);
        assert_eq!(s.export_state(), half.export_state());
        assert_eq!(s.space(), half.space());
    }

    #[test]
    fn reset_epoch_replays_the_one_chunk_path() {
        // Two epochs over a one-chunk stream with no feedback: the same
        // table, rewound, gives the same partition; the chunk protocol
        // fed one whole-stream chunk gives it too.
        let (mut s, n) = prepared(base_cfg());
        let mut epochs = Vec::new();
        for _ in 0..2 {
            s.reset_epoch();
            let mut ends = Vec::new();
            let mut start = 0;
            while start < n {
                start = s.next_batch_end(start, n);
                ends.push(start);
            }
            epochs.push(ends);
        }
        assert_eq!(epochs[0], epochs[1]);
        assert!(epochs[0].len() > 1);

        let data = small_data();
        let mut one = CascadeScheduler::new(base_cfg());
        let fed = drive_chunked(&mut one, data.stream().events(), data.num_nodes(), n);
        assert_eq!(fed, epochs[0]);
        assert_eq!(one.name(), "Cascade");
        assert_eq!(one.space(), s.space());
    }

    #[test]
    #[should_panic(expected = "event 97 is past the entered chunk 0 (ends at event 97)")]
    fn scanning_past_the_entered_chunk_panics() {
        let data = small_data();
        let events = data.stream().events();
        let mut s = CascadeScheduler::new(base_cfg());
        assert!(s.prepare_streaming(events.len(), data.num_nodes(), 97));
        s.enter_chunk(0, 0, &events[..97], None);
        let _ = s.next_batch_end(97, events.len());
    }

    #[test]
    #[should_panic(expected = "enter_chunk 3 is out of range: 3 chunks were announced")]
    fn entering_a_chunk_past_the_geometry_panics() {
        let mut s = CascadeScheduler::new(base_cfg());
        assert!(s.prepare_streaming(250, 10, 100));
        s.enter_chunk(3, 300, &[], None);
    }

    #[test]
    fn state_roundtrip_restores_monitors() {
        let data = small_data();
        let events = data.stream().events();
        let mut s = CascadeScheduler::new(base_cfg());
        assert_eq!(s.table_spec(), None, "no geometry announced yet");
        assert!(s.prepare_streaming(data.num_events(), data.num_nodes(), 200));
        assert_eq!(s.table_spec().map(|t| t.num_nodes), Some(data.num_nodes()));
        s.enter_chunk(0, 0, &events[..200], None);
        for i in 1..=30 {
            let _ = s.next_batch_end(0, 50);
            s.after_batch(i, 1.0); // stalled loss exercises the monitor
        }
        let blob = s.export_state();

        let mut r = CascadeScheduler::new(base_cfg());
        assert!(r.prepare_streaming(data.num_events(), data.num_nodes(), 200));
        r.import_state(&blob).expect("state roundtrips");
        r.enter_chunk(0, 0, &events[..200], None);
        assert_eq!(current_max_r(&r), current_max_r(&s));
        assert_eq!(r.export_state(), s.export_state());
    }

    #[test]
    fn import_survives_the_hostile_input_battery() {
        let data = small_data();
        let events = data.stream().events();
        let fresh = || {
            let mut s = CascadeScheduler::new(base_cfg());
            assert!(s.prepare_streaming(data.num_events(), data.num_nodes(), 200));
            s
        };
        let mut s = fresh();
        s.enter_chunk(0, 0, &events[..200], None);
        for i in 1..=30 {
            let _ = s.next_batch_end(0, 50);
            s.after_batch(i, 1.0);
        }
        assert!(s.import_state(&[9, 9, 9]).is_err());
        cascade_util::check_decoder("scheduler_state", &s.export_state(), |bytes| {
            let mut r = fresh();
            let untouched = r.export_state();
            if r.import_state(bytes).is_err() {
                assert_eq!(r.export_state(), untouched, "failed import mutates nothing");
                return None;
            }
            r.enter_chunk(0, 0, &events[..200], None);
            Some(r.export_state())
        });
    }

    #[test]
    fn import_rejects_a_flag_count_that_wraps_the_offset() {
        // Regression: `off + n > len` with `n` straight from a `u64`
        // wrapped in release builds, and the slice then panicked.
        let mut s = CascadeScheduler::new(base_cfg());
        assert!(s.prepare_streaming(1000, 10, 200));
        let mut state = s.export_state();
        let count_at = state.len() - 10 - 2 * 8 - 8;
        assert_eq!(state[count_at], 10, "test offsets are stale");
        for huge in [u64::MAX, u64::MAX - 8, 1 << 40] {
            state[count_at..count_at + 8].copy_from_slice(&huge.to_le_bytes());
            assert!(s.import_state(&state).is_err(), "{huge}");
        }
    }
}
