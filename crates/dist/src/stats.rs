//! Dist-run telemetry: the one module of `cascade-dist` allowed to read
//! wall clocks (`det-wallclock` allowlist).
//!
//! Everything here flows into reports and bench JSON only — no value
//! derived from a clock ever reaches a batch plan, a gradient, or a
//! memory write. The training modules receive an opaque [`RunClock`]
//! and hand it back for the final [`DistReport`].

use std::fmt;
use std::time::{Duration, Instant};

/// A started wall-clock for one training run.
#[derive(Clone, Copy, Debug)]
pub struct RunClock {
    start: Instant,
}

impl RunClock {
    /// Starts the clock.
    pub fn start() -> Self {
        RunClock {
            start: Instant::now(),
        }
    }

    /// Time since [`start`](Self::start).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// What a dist training run did. Deliberately clock-free: the training
/// path never touches wall time, so its outputs are provably untainted
/// — callers that want throughput hold their own [`RunClock`] and pair
/// it with [`DistReport::events_per_sec`].
#[derive(Clone, Debug)]
pub struct DistReport {
    /// Worker count.
    pub workers: usize,
    /// Epochs trained.
    pub epochs: usize,
    /// Synchronous rounds executed (across all epochs).
    pub rounds: usize,
    /// Events processed (across all workers and epochs).
    pub events: usize,
    /// Event-weighted mean training loss per epoch, aggregated over the
    /// round payloads in worker-index order.
    pub epoch_losses: Vec<f32>,
}

impl DistReport {
    /// Aggregate throughput given an externally-measured wall-clock.
    pub fn events_per_sec(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for DistReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} worker(s) | {} epoch(s) | {} round(s) | {} events",
            self.workers, self.epochs, self.rounds, self.events
        )?;
        if let Some(last) = self.epoch_losses.last() {
            write!(f, " | final epoch loss {:.4}", last)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_handles_zero_elapsed() {
        let r = DistReport {
            workers: 2,
            epochs: 1,
            rounds: 3,
            events: 600,
            epoch_losses: vec![0.7],
        };
        assert_eq!(r.events_per_sec(Duration::ZERO), 0.0);
        let shown = r.to_string();
        assert!(shown.contains("2 worker(s)"));
        assert!(shown.contains("0.7000"));
    }
}
