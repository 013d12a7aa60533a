#![warn(missing_docs)]
//! # cascade-util
//!
//! Std-only support utilities shared by every crate in the Cascade
//! workspace. The workspace builds with **zero external dependencies**
//! (no crates.io access, one toolchain, deterministic seeds end to end),
//! so the handful of library features the framework needs are vendored
//! here in minimal, purpose-built form:
//!
//! * [`DetRng`] — a tiny cloneable deterministic RNG (splitmix64 +
//!   xorshift*), the single source of randomness in the workspace.
//! * [`Json`] — a minimal JSON value with a compact writer, built over
//!   [`JsonReader`], the one strict pull reader, replacing `serde` for
//!   recipes, bench reports and serve's request bodies.
//! * [`bytes`] — the one little-endian byte codec ([`ByteWriter`], the
//!   bounds-checked [`ByteReader`], [`DecodeError`]) and the one
//!   checkpoint container every crate serializes state through.
//! * [`check`] / [`Gen`] — a seeded property-testing mini-harness
//!   replacing `proptest`: case counts from `CASCADE_PROP_CASES`
//!   (default 64), failing-seed reporting, single-seed replay via
//!   `CASCADE_PROP_REPLAY`; [`check_decoder`] is the hostile-input
//!   battery each byte decoder runs.
//! * [`BenchSuite`] — a micro-bench harness replacing `criterion`:
//!   warmup + timed iterations, median/p10/p90 statistics, JSON reports
//!   under `bench_results/`.
//!
//! # Examples
//!
//! ```
//! use cascade_util::{check, DetRng, Json};
//!
//! // Deterministic RNG.
//! let mut a = DetRng::new(42);
//! let mut b = DetRng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! // JSON round-trip.
//! let v = Json::parse("{\"x\": [1, 2.5, true]}").unwrap();
//! assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
//!
//! // Property check (64 seeded cases by default).
//! check("addition_commutes", |g| {
//!     let (a, b) = (g.usize_in(0..100), g.usize_in(0..100));
//!     cascade_util::prop_assert_eq!(a + b, b + a);
//!     Ok(())
//! });
//! ```

mod bench;
pub mod bytes;
mod json;
mod prop;
mod rng;

pub use bench::{BenchStats, BenchSuite};
pub use bytes::{ByteReader, ByteWriter, DecodeError};
pub use json::{Json, JsonError, JsonKind, JsonReader};
pub use prop::{check, check_decoder, Gen};
pub use rng::DetRng;
