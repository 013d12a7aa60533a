//! Serving telemetry: counters and latency histograms.
//!
//! This is the one module in `cascade-serve` allowed to read clocks
//! (see the `det-wallclock` allowlist in `cascade-lint`): timings here
//! land in `/stats` payloads and bench reports, never in ingest
//! decisions — the served state is a pure function of the event log,
//! and stays that way.
//!
//! Everything is atomic so predict workers and the ingest thread can
//! record without locks; relaxed ordering is enough because readers
//! only ever want a statistically consistent view, not a linearizable
//! one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cascade_util::Json;

/// Number of log-spaced latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds, so 26 buckets reach ~67 s.
const BUCKETS: usize = 26;

/// Lock-free log-bucketed latency histogram (microsecond samples).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&self, micros: u64) {
        let idx = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile in microseconds (upper bucket bound —
    /// log-bucket resolution, so within 2x of the true sample).
    fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        self.max_micros.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds.
    fn mean_micros(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest sample seen, in microseconds.
    fn max_micros(&self) -> u64 {
        self.max_micros.load(Ordering::Relaxed)
    }

    /// Summary as a JSON object (milliseconds, bench-report friendly).
    pub fn to_json(&self) -> Json {
        let ms = |us: u64| us as f64 / 1000.0;
        Json::Obj(vec![
            ("count".to_string(), Json::from(self.count() as usize)),
            (
                "mean_ms".to_string(),
                Json::from(self.mean_micros() / 1000.0),
            ),
            (
                "p50_ms".to_string(),
                Json::from(ms(self.quantile_micros(0.50))),
            ),
            (
                "p95_ms".to_string(),
                Json::from(ms(self.quantile_micros(0.95))),
            ),
            (
                "p99_ms".to_string(),
                Json::from(ms(self.quantile_micros(0.99))),
            ),
            ("max_ms".to_string(), Json::from(ms(self.max_micros()))),
        ])
    }
}

/// A running latency measurement; drop-free (call [`Timer::stop`]).
pub struct Timer(Instant);

impl Timer {
    /// Starts timing now.
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Stops and records into `hist`.
    pub fn stop(self, hist: &LatencyHistogram) {
        hist.record(self.0.elapsed().as_micros() as u64);
    }
}

/// Shared serving counters, written by workers and the ingest thread,
/// read by `/stats` handlers.
#[derive(Debug, Default)]
pub struct Stats {
    /// Events durably framed in the WAL (the ack watermark).
    pub events_acked: AtomicU64,
    /// Events applied to memory *and published* as a read snapshot.
    pub events_published: AtomicU64,
    /// `/predict` queries answered.
    pub queries_served: AtomicU64,
    /// `/ingest` requests accepted.
    pub ingest_requests: AtomicU64,
    /// Durable state snapshots written.
    pub snapshots_written: AtomicU64,
    /// Ingest requests that deep-copied the published state because a
    /// reader still held the copy they would have reused (and the first
    /// request after start, which has no second copy yet).
    pub publish_copies: AtomicU64,
    /// `/predict` end-to-end handler latency.
    pub predict_latency: LatencyHistogram,
    /// `/ingest` end-to-end handler latency (includes fsync + apply).
    pub ingest_latency: LatencyHistogram,
}

impl Stats {
    /// Memory-staleness lag: acked events not yet visible to readers.
    /// Acked runs ahead of published only transiently (within one
    /// ingest batch), so this is the instantaneous staleness bound.
    pub fn staleness_lag(&self) -> u64 {
        let acked = self.events_acked.load(Ordering::Relaxed);
        let published = self.events_published.load(Ordering::Relaxed);
        acked.saturating_sub(published)
    }

    /// The `/stats` payload.
    pub fn to_json(&self) -> Json {
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed) as usize);
        Json::Obj(vec![
            ("events_acked".to_string(), load(&self.events_acked)),
            ("events_published".to_string(), load(&self.events_published)),
            (
                "staleness_lag".to_string(),
                Json::from(self.staleness_lag() as usize),
            ),
            ("queries_served".to_string(), load(&self.queries_served)),
            ("ingest_requests".to_string(), load(&self.ingest_requests)),
            (
                "snapshots_written".to_string(),
                load(&self.snapshots_written),
            ),
            ("publish_copies".to_string(), load(&self.publish_copies)),
            (
                "predict_latency".to_string(),
                self.predict_latency.to_json(),
            ),
            ("ingest_latency".to_string(), self.ingest_latency.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 100_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_micros(0.50);
        assert!((64..=256).contains(&p50), "p50 {} brackets 80-160us", p50);
        let p99 = h.quantile_micros(0.99);
        assert!(p99 >= 100_000, "p99 {} reaches the outlier", p99);
        assert_eq!(h.max_micros(), 100_000);
        assert!(h.mean_micros() > 0.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.99), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }

    #[test]
    fn staleness_lag_is_acked_minus_published() {
        let s = Stats::default();
        s.events_acked.store(120, Ordering::Relaxed);
        s.events_published.store(100, Ordering::Relaxed);
        assert_eq!(s.staleness_lag(), 20);
        // Published can never exceed acked; saturate instead of wrap.
        s.events_published.store(200, Ordering::Relaxed);
        assert_eq!(s.staleness_lag(), 0);
    }

    #[test]
    fn stats_json_has_the_documented_fields() {
        let s = Stats::default();
        s.predict_latency.record(500);
        let j = s.to_json();
        assert!(j.get("staleness_lag").is_some());
        assert_eq!(j.get("publish_copies").and_then(Json::as_usize), Some(0));
        let p = j.get("predict_latency").expect("predict_latency present");
        assert_eq!(p.get("count").and_then(Json::as_usize), Some(1));
        assert!(p.get("p99_ms").and_then(Json::as_f64).is_some());
    }
}
