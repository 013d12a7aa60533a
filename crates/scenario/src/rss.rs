//! Scenario telemetry: wall-clock stopwatch and resident-set sampling.
//!
//! This is the crate's allowlisted telemetry module (see the
//! `cascade-lint` TELEMETRY scope): clock readings originate here and
//! flow only into [`ScenarioReport`](crate::ScenarioReport)s — never
//! into the generated stream or training state. The raw
//! `/proc/self/status` read lives in the designated I/O module
//! ([`report`](crate::report)); this module only parses it.
//!
//! `VmHWM` (the peak) is process-global and monotone: it never resets,
//! so a bound on *growth* between two samples, not an absolute value,
//! is what the RSS-independence test asserts.

use std::time::Instant;

use crate::report::proc_self_status;

/// A started wall-clock timer.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Seconds since [`start`](Stopwatch::start).
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Peak resident set (`VmHWM`) in bytes, `None` off Linux or when
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> Option<usize> {
    status_field_bytes("VmHWM:")
}

fn status_field_bytes(key: &str) -> Option<usize> {
    parse_status_field(&proc_self_status()?, key)
}

/// Extracts a `kB` field from `/proc/self/status` text.
fn parse_status_field(status: &str, key: &str) -> Option<usize> {
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| {
            l[key.len()..]
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<usize>()
                .ok()
        })
        .map(|kib| kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tcargo\nVmHWM:\t  123456 kB\nVmRSS:\t   7890 kB\n";
        assert_eq!(parse_status_field(status, "VmHWM:"), Some(123456 * 1024));
        assert_eq!(parse_status_field(status, "VmRSS:"), Some(7890 * 1024));
        assert_eq!(parse_status_field(status, "VmPeak:"), None);
    }

    #[test]
    fn live_sampling_works_on_linux() {
        // The repo's CI and dev containers are Linux; elsewhere the
        // samplers degrade to None and reports record zero.
        if let Some(peak) = peak_rss_bytes() {
            assert!(peak > 0);
            let current = status_field_bytes("VmRSS:").expect("VmRSS accompanies VmHWM");
            assert!(current > 0);
            assert!(peak >= current / 2, "peak is near or above current");
        }
    }

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        let spin: u64 = (0..10_000u64).sum();
        assert!(spin > 0);
        assert!(sw.elapsed_secs() >= 0.0);
    }
}
