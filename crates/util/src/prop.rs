//! A seeded property-testing mini-harness replacing `proptest`.
//!
//! A property is a closure over a [`Gen`] that draws random inputs and
//! returns `Err(message)` (usually via [`prop_assert!`] /
//! [`prop_assert_eq!`]) when the property is violated. [`check`] runs the
//! closure for `CASCADE_PROP_CASES` deterministically seeded cases
//! (default 64) and, on failure, reports the exact case seed so the
//! counterexample can be replayed in isolation:
//!
//! ```text
//! CASCADE_PROP_REPLAY=<seed> cargo test <test-name>
//! ```
//!
//! Environment knobs:
//!
//! * `CASCADE_PROP_CASES` — cases per property (default 64).
//! * `CASCADE_PROP_SEED` — base seed mixed into every case (default 0).
//! * `CASCADE_PROP_REPLAY` — run exactly one case with this seed.
//!
//! [`prop_assert!`]: crate::prop_assert
//! [`prop_assert_eq!`]: crate::prop_assert_eq

use std::ops::Range;

use crate::rng::DetRng;

/// The random-input source handed to a property closure.
///
/// Thin convenience wrapper around [`DetRng`] with range-draw helpers;
/// [`Gen::rng`] exposes the raw generator for anything else.
pub struct Gen {
    rng: DetRng,
}

impl Gen {
    /// A generator seeded for one property case.
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: DetRng::new(seed),
        }
    }

    /// The underlying deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// An arbitrary 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform `usize` in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        assert!(!range.is_empty(), "usize_in on empty range");
        range.start + self.rng.index(range.end - range.start)
    }

    /// Uniform `f32` in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn f32_in(&mut self, range: Range<f32>) -> f32 {
        self.rng.range_f32(range.start, range.end)
    }

    /// Uniform `f64` in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "f64_in on empty range");
        range.start + self.rng.f64() * (range.end - range.start)
    }

    /// A vector of `len` uniform `f32` values in `range`.
    pub fn vec_f32(&mut self, len: usize, range: Range<f32>) -> Vec<f32> {
        (0..len).map(|_| self.f32_in(range.clone())).collect()
    }

    /// A vector of `len` uniform `usize` values in `range`.
    pub fn vec_usize(&mut self, len: usize, range: Range<usize>) -> Vec<usize> {
        (0..len).map(|_| self.usize_in(range.clone())).collect()
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// FNV-1a over the property name, so distinct properties draw distinct
/// case seeds even under the same base seed.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn case_seed(base: u64, name: &str, case: usize) -> u64 {
    fnv1a(name) ^ base.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `property` for `CASCADE_PROP_CASES` seeded cases (default 64),
/// panicking with the failing case's seed on the first violation.
///
/// # Panics
///
/// Panics when the property returns `Err`, including the case seed and a
/// ready-to-paste `CASCADE_PROP_REPLAY` command line.
///
/// # Examples
///
/// ```
/// use cascade_util::{check, prop_assert};
///
/// check("reverse_is_involutive", |g| {
///     let len = g.usize_in(0..16);
///     let v = g.vec_usize(len, 0..100);
///     let mut w = v.clone();
///     w.reverse();
///     w.reverse();
///     prop_assert!(w == v, "double reverse changed {:?}", v);
///     Ok(())
/// });
/// ```
pub fn check<F>(name: &str, mut property: F)
where
    F: FnMut(&mut Gen) -> Result<(), String>,
{
    if let Ok(replay) = std::env::var("CASCADE_PROP_REPLAY") {
        let seed: u64 = replay
            .parse()
            .expect("CASCADE_PROP_REPLAY must be a u64 case seed");
        let mut g = Gen::new(seed);
        if let Err(msg) = property(&mut g) {
            panic!(
                "property '{}' failed on replayed seed {}: {}",
                name, seed, msg
            );
        }
        return;
    }

    let cases = env_u64("CASCADE_PROP_CASES", 64).max(1);
    let base = env_u64("CASCADE_PROP_SEED", 0);
    for case in 0..cases as usize {
        let seed = case_seed(base, name, case);
        let mut g = Gen::new(seed);
        if let Err(msg) = property(&mut g) {
            panic!(
                "property '{}' failed at case {}/{}: {}\n\
                 replay with: CASCADE_PROP_REPLAY={} cargo test",
                name, case, cases, msg, seed
            );
        }
    }
}

/// The hostile-input battery every byte decoder in the workspace runs:
/// `valid` must round-trip, and every strict prefix of it, a `u32::MAX`,
/// `u64::MAX` or 2^40 written over every offset (so over every length
/// field), and [`check`]'s seeded random bit flips must each be refused
/// or decode to a value that encodes back to exactly the bytes given.
/// `decode` returns `None` for a refusal and the re-encoding otherwise.
/// A decoder that panics, or reserves what a hostile count asks for,
/// fails the calling test.
///
/// # Panics
///
/// Panics on the first input the decoder mishandles.
pub fn check_decoder<F>(name: &str, valid: &[u8], mut decode: F)
where
    F: FnMut(&[u8]) -> Option<Vec<u8>>,
{
    let mut canonical = |what: &str, bytes: &[u8]| match decode(bytes) {
        Some(again) if again != bytes => Err(format!("{what} decoded, but encodes differently")),
        other => Ok(other.is_some()),
    };
    assert_eq!(canonical("the valid input", valid), Ok(true), "{name}");
    for cut in 0..valid.len() {
        let parsed = canonical("a prefix", &valid[..cut]);
        assert_eq!(parsed, Ok(false), "{name}: prefix of {cut} bytes");
    }
    for at in 0..valid.len() {
        let huge: [&[u8]; 3] = [&[0xff; 4], &[0xff; 8], &(1u64 << 40).to_le_bytes()];
        for value in huge.into_iter().filter(|v| at + v.len() <= valid.len()) {
            let mut bytes = valid.to_vec();
            bytes[at..at + value.len()].copy_from_slice(value);
            let parsed = canonical("a huge value", &bytes);
            assert!(parsed.is_ok(), "{name}: {value:?} at {at}: {parsed:?}");
        }
    }
    check(name, |g| {
        let mut bytes = valid.to_vec();
        for _ in 0..g.usize_in(1..4) {
            let at = g.usize_in(0..bytes.len());
            bytes[at] ^= 1 << g.usize_in(0..8);
        }
        canonical("a bit flip", &bytes).map(drop)
    });
}

/// Early-returns `Err` from a property closure when a condition fails.
///
/// With a single argument the message is the stringified condition; extra
/// arguments are a `format!` message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Early-returns `Err` from a property closure when two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{}` != `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0usize;
        check("counting", |_| {
            ran += 1;
            Ok(())
        });
        assert_eq!(ran, 64);
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        check("det", |g| {
            first.push(g.u64());
            Ok(())
        });
        let mut second = Vec::new();
        check("det", |g| {
            second.push(g.u64());
            Ok(())
        });
        assert_eq!(first, second);
        // Distinct property names see distinct streams.
        let mut other = Vec::new();
        check("det2", |g| {
            other.push(g.u64());
            Ok(())
        });
        assert_ne!(first, other);
    }

    #[test]
    #[should_panic(expected = "replay with")]
    fn failure_reports_seed() {
        check("always_fails", |_| Err("nope".into()));
    }

    #[test]
    fn draws_respect_ranges() {
        check("ranges", |g| {
            let u = g.usize_in(3..9);
            prop_assert!((3..9).contains(&u), "usize {} out of range", u);
            let x = g.f32_in(-2.0..2.0);
            prop_assert!((-2.0..2.0).contains(&x), "f32 {} out of range", x);
            let v = g.vec_f32(7, 0.0..1.0);
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
            Ok(())
        });
    }

    #[test]
    fn prop_assert_eq_formats_both_sides() {
        let result: Result<(), String> = (|| {
            prop_assert_eq!(1 + 1, 3);
            Ok(())
        })();
        let msg = result.unwrap_err();
        assert!(msg.contains("left: 2"), "{}", msg);
        assert!(msg.contains("right: 3"), "{}", msg);
    }
}
