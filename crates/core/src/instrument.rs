//! Space accounting (Figure 13(c) / Figure 14) and the per-stage
//! telemetry every training run reports.

use std::fmt;
use std::time::Duration;

use cascade_tensor::shard_chunk;

/// Wall-clock accounting of one stage of the batch loop.
///
/// `busy` is time spent doing the stage's own work, `stall` is time the
/// driver spent waiting for the stage's input, and `items` is the number
/// of batches the stage processed. Every stage runs on the driver
/// thread, so compute and update never stall; the driver charges its
/// waits for the next chunk from `train_streaming`'s loader thread (a
/// store read, a table build, or an in-memory copy) to `scan.stall`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Time spent in the stage's own work.
    pub busy: Duration,
    /// Time spent waiting for the stage's input.
    pub stall: Duration,
    /// Batches processed by the stage.
    pub items: usize,
}

impl StageTiming {
    /// Adds one processed item's busy time.
    pub fn record(&mut self, busy: Duration) {
        self.busy += busy;
        self.items += 1;
    }
}

/// Telemetry of the three steps of every batch (§2.2 / Figure 3):
/// boundary **scan**, model **compute**, and memory **update**, as
/// recorded by the one [`TrainStep`](crate::TrainStep) all drivers share.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Stage A: batch-boundary scan (scheduler lookup + feedback ingest).
    pub scan: StageTiming,
    /// Stage B: embedding, loss, backward, optimizer step.
    pub compute: StageTiming,
    /// Stage C: memory write-back, message generation, adjacency.
    pub update: StageTiming,
    /// Per-shard forward telemetry of stage B's shard-parallel batch
    /// compute: entry `j` accumulates shard `j`'s forward busy time across
    /// all batches. When more than one worker ran, the last shard of each
    /// worker's chunk is charged that worker's straggler gap — its wait
    /// for the batch's slowest worker — as `stall`.
    ///
    /// A sub-division of `compute.busy`, **not** an extra pipeline stage:
    /// shard stalls never reach `compute.stall`, so the stage invariants
    /// (no compute or update stall, `compute.busy + update.busy ==
    /// model_time`) hold at any thread count.
    pub shard_compute: Vec<StageTiming>,
}

impl StageTimings {
    /// Folds one batch's per-shard forward busy times into
    /// `shard_compute`. Workers run contiguous chunks of shards (the
    /// model's [`shard_chunk`]), so a worker's straggler gap is the
    /// slowest chunk's busy sum minus its own, charged as stall to the
    /// chunk's last shard; one worker has no straggler, so its gap is
    /// definitionally zero.
    pub fn record_shards(&mut self, busy: &[Duration], threads: usize) {
        if busy.is_empty() {
            return;
        }
        if self.shard_compute.len() < busy.len() {
            self.shard_compute
                .resize(busy.len(), StageTiming::default());
        }
        for (shard, &b) in self.shard_compute.iter_mut().zip(busy.iter()) {
            shard.record(b);
        }
        let chunk = shard_chunk(busy.len(), threads);
        if chunk >= busy.len() {
            return;
        }
        let sums: Vec<Duration> = busy.chunks(chunk).map(|c| c.iter().sum()).collect();
        let slowest = sums.iter().copied().max().unwrap_or_default();
        for (c, &sum) in sums.iter().enumerate() {
            let last = ((c + 1) * chunk).min(busy.len()) - 1;
            self.shard_compute[last].stall += slowest - sum;
        }
    }

    /// Total forward busy time across compute shards — the portion of
    /// `compute.busy` that was eligible for worker-thread overlap.
    pub fn shard_busy_total(&self) -> Duration {
        self.shard_compute.iter().map(|s| s.busy).sum()
    }

    /// Total straggler gap across compute shards (zero for serial runs).
    fn shard_stall_total(&self) -> Duration {
        self.shard_compute.iter().map(|s| s.stall).sum()
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stage =
            |s: &StageTiming| format!("busy {:?} stall {:?} ({} items)", s.busy, s.stall, s.items);
        write!(
            f,
            "scan {} | compute {} | update {}",
            stage(&self.scan),
            stage(&self.compute),
            stage(&self.update)
        )?;
        if !self.shard_compute.is_empty() {
            write!(
                f,
                " | shards x{} busy {:?} straggler {:?}",
                self.shard_compute.len(),
                self.shard_busy_total(),
                self.shard_stall_total()
            )?;
        }
        Ok(())
    }
}

/// Bytes held by every component of a training run — the stacked bars of
/// Figure 13(c).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceBreakdown {
    /// Dependency table ("DT").
    pub dependency_table: usize,
    /// Node stable flags ("SF").
    pub stable_flags: usize,
    /// Event stream ("Graph").
    pub graph: usize,
    /// Edge features.
    pub edge_features: usize,
    /// Model parameters.
    pub model: usize,
    /// Pending mailbox messages.
    pub mailbox: usize,
    /// Node memory matrix.
    pub memory: usize,
}

impl SpaceBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.dependency_table
            + self.stable_flags
            + self.graph
            + self.edge_features
            + self.model
            + self.mailbox
            + self.memory
    }

    /// `(label, fraction)` pairs in the Figure 13(c) ordering.
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        let total = self.total().max(1) as f64;
        vec![
            ("DT", self.dependency_table as f64 / total),
            ("SF", self.stable_flags as f64 / total),
            ("Graph", self.graph as f64 / total),
            ("EdgeFeature", self.edge_features as f64 / total),
            ("Model", self.model as f64 / total),
            ("Mailbox", self.mailbox as f64 / total),
            ("Memory", self.memory as f64 / total),
        ]
    }
}

impl fmt::Display for SpaceBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (label, frac) in self.fractions() {
            write!(f, "{} {:.1}% | ", label, frac * 100.0)?;
        }
        write!(f, "total {} B", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let s = SpaceBreakdown {
            dependency_table: 10,
            stable_flags: 5,
            graph: 30,
            edge_features: 40,
            model: 10,
            mailbox: 3,
            memory: 2,
        };
        let sum: f64 = s.fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(s.total(), 100);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let s = SpaceBreakdown::default();
        assert_eq!(s.total(), 0);
        let sum: f64 = s.fractions().iter().map(|(_, f)| f).sum();
        assert_eq!(sum, 0.0);
    }

    #[test]
    fn stage_timing_accumulates_and_reports() {
        let mut t = StageTiming::default();
        t.record(Duration::from_millis(10));
        t.record(Duration::from_millis(30));
        t.stall += Duration::from_millis(5);
        assert_eq!(t.items, 2);
        assert_eq!(t.busy, Duration::from_millis(40));
        assert_eq!(t.stall, Duration::from_millis(5));
    }

    #[test]
    fn stage_timings_display() {
        let mut s = StageTimings::default();
        s.scan.record(Duration::from_millis(1));
        s.scan.stall += Duration::from_millis(100);
        s.compute.record(Duration::from_millis(20));
        s.compute.stall += Duration::from_millis(2);
        s.update.record(Duration::from_millis(3));
        let text = s.to_string();
        assert!(text.starts_with("scan busy 1ms stall 100ms"), "{}", text);
        assert!(
            text.ends_with("update busy 3ms stall 0ns (1 items)"),
            "{}",
            text
        );
    }

    #[test]
    fn record_shards_tracks_busy_and_straggler_gap() {
        let mut s = StageTimings::default();
        let busy = [Duration::from_millis(4), Duration::from_millis(10)];
        // Serial evaluation: no straggler gap, busy still recorded.
        s.record_shards(&busy, 1);
        assert_eq!(s.shard_compute.len(), 2);
        assert_eq!(s.shard_busy_total(), Duration::from_millis(14));
        assert_eq!(s.shard_stall_total(), Duration::ZERO);
        // Parallel evaluation: shard 0 waits 6 ms on the slowest shard.
        s.record_shards(&busy, 2);
        assert_eq!(s.shard_busy_total(), Duration::from_millis(28));
        assert_eq!(s.shard_stall_total(), Duration::from_millis(6));
        assert_eq!(s.shard_compute[0].items, 2);
        // Shard telemetry never leaks into the stages.
        assert_eq!(s.compute, StageTiming::default());
        assert!(s.to_string().contains("shards x2"), "{}", s);
    }

    #[test]
    fn record_shards_charges_the_gap_per_worker_chunk() {
        let mut s = StageTimings::default();
        let busy: Vec<Duration> = [4, 1, 1, 1, 2, 2, 2, 2]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        // Two workers run shards 0..4 (7 ms) and 4..8 (8 ms): only the
        // first waits, 1 ms, not the 17 ms of a per-shard gap.
        s.record_shards(&busy, 2);
        assert_eq!(s.shard_stall_total(), Duration::from_millis(1));
        assert_eq!(s.shard_compute[3].stall, Duration::from_millis(1));
        assert_eq!(s.shard_busy_total(), Duration::from_millis(15));
    }

    #[test]
    fn record_shards_ignores_unsharded_batches() {
        let mut s = StageTimings::default();
        s.record_shards(&[], 4);
        assert!(s.shard_compute.is_empty());
    }
}
