//! The rule registry: every invariant `cascade-lint` enforces, with its
//! identifier, rationale, and path scope.
//!
//! Rules are named and configurable on purpose: a finding always carries
//! a rule id that can be suppressed in place with
//! `// cascade-lint: allow(<rule>): <reason>` (the reason is mandatory —
//! a suppression without one is itself a finding). Scopes are path
//! prefixes relative to the workspace root, so e.g. determinism rules
//! bind only the compute-path crates whose schedules must stay
//! bit-identical across drivers (serial ≡ streamed ≡ dist N=1, see
//! DESIGN.md §6 and §8), while telemetry (`core/src/instrument.rs`) and
//! the measurement crates are allowlisted.

/// Identifier, scope, and documentation of one lint rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleSpec {
    /// Stable rule id, used in findings, baselines, and suppressions.
    pub id: &'static str,
    /// Path prefixes (workspace-relative, `/`-separated) the rule binds.
    /// Empty means every scanned file.
    pub scopes: &'static [&'static str],
    /// Path prefixes exempted even inside a scope.
    pub allowed_paths: &'static [&'static str],
    /// Whether the rule also fires inside `#[cfg(test)]` / `#[test]`
    /// code. Panic-safety rules don't: tests are supposed to unwrap.
    pub applies_to_tests: bool,
    /// One-line rationale shown with each finding.
    pub why: &'static str,
}

/// Crates whose compute paths must stay deterministic: the identity
/// contract between the drivers (in-memory ≡ streamed ≡ dist N=1,
/// DESIGN.md §6) is only checkable if no iteration-order or wall-clock
/// dependence leaks into the schedule these crates produce. The serving engine is bound too —
/// its restart guarantee (snapshot + WAL replay reproduces memories
/// bit-for-bit, DESIGN.md §11) dies the moment a clock or hash order
/// leaks into ingest; only its telemetry module may read clocks.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/dist/src/",
    "crates/exec/src/",
    "crates/models/src/",
    "crates/nn/src/",
    // The scenario generator's whole contract is seed-addressable
    // regeneration (leader and follower re-synthesize the same recipe
    // bit-identically, DESIGN.md §13); a clock or hash order anywhere in
    // it breaks replay across hosts. Only its RSS/stopwatch sampler may
    // read clocks.
    "crates/scenario/src/",
    "crates/serve/src/",
    "crates/store/src/",
    "crates/tensor/src/",
    // Examples and the top-level integration tests exercise the same
    // compute paths; a wall-clock or hash-order dependence there would
    // teach users the exact pattern the compute crates ban. (`#[test]`
    // bodies stay exempt via `applies_to_tests: false`.)
    "examples/",
    "tests/",
];

/// Hot-path crates where an unexpected panic kills a training thread
/// mid-run (a loader panic is reported, but the run is lost). The
/// serving crate is held to the same bar: a panic there drops a client
/// connection at best and the ingest thread — the whole server — at
/// worst.
const PANIC_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/dist/src/",
    "crates/exec/src/",
    "crates/models/src/",
    "crates/nn/src/",
    "crates/serve/src/",
    "crates/store/src/",
];

/// Crates whose compute paths must not touch the filesystem directly:
/// all I/O belongs in the designated storage modules below, so that
/// out-of-core behavior, error typing, and corruption handling live in
/// one audited place (`cascade-store`) instead of leaking ad-hoc
/// `std::fs` calls into schedulers and models.
const IO_CONFINED_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/dist/src/",
    "crates/exec/src/",
    "crates/models/src/",
    "crates/nn/src/",
    // Scenario generation streams gigabytes through cascade-store; the
    // only ad-hoc fs access it is allowed is the report/recipe module
    // (and, via that module, the /proc/self/status read for peak RSS).
    "crates/scenario/src/",
    "crates/serve/src/",
    "crates/tensor/src/",
    "crates/tgraph/src/",
];

/// The designated I/O modules: parameter checkpointing, CSV ingest, and
/// the serving persistence layer (WAL + snapshot paths).
/// (`crates/store` is the storage layer itself and sits outside the
/// confinement scope entirely.)
const IO_MODULES: &[&str] = &[
    "crates/models/src/checkpoint.rs",
    "crates/scenario/src/report.rs",
    "crates/serve/src/persist.rs",
    "crates/tgraph/src/dataset.rs",
];

/// Telemetry modules: timing/space instrumentation whose whole job is
/// reading clocks; their outputs land in reports and `/stats` payloads,
/// never in schedules or ingested state.
const TELEMETRY: &[&str] = &[
    "crates/core/src/instrument.rs",
    "crates/dist/src/stats.rs",
    "crates/scenario/src/rss.rs",
    "crates/serve/src/stats.rs",
];

/// Modules allowed to call `arena::reset()`: the one train step every
/// driver calls (trainer, streaming driver, and the dist replica, which
/// calls the step's `close` after its fenced apply), and the arena
/// implementation itself.
const ARENA_RESET_SITES: &[&str] = &["crates/core/src/step.rs", "crates/tensor/src/arena.rs"];

/// All rules, in reporting order.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        id: "det-hash-iter",
        scopes: DETERMINISM_SCOPE,
        allowed_paths: TELEMETRY,
        applies_to_tests: false,
        why: "HashMap/HashSet iteration order is randomized per process; any batch \
              schedule or float accumulation derived from it breaks the serial ≡ \
              streamed ≡ dist N=1 bit-identity. Use Vec/BTreeMap, or suppress with proof the \
              container is never iterated.",
    },
    RuleSpec {
        id: "det-wallclock",
        scopes: DETERMINISM_SCOPE,
        allowed_paths: TELEMETRY,
        applies_to_tests: false,
        why: "Instant::now/SystemTime readings differ across runs; feeding them into \
              batching or learning decisions makes training irreproducible. Telemetry \
              that only fills reports must say so in a suppression.",
    },
    RuleSpec {
        id: "det-float-accum",
        scopes: DETERMINISM_SCOPE,
        allowed_paths: TELEMETRY,
        applies_to_tests: false,
        why: "Reducing floats in hash-container iteration order re-associates the sum \
              differently on every run; accumulate over an ordered container instead.",
    },
    RuleSpec {
        id: "panic-unwrap",
        scopes: PANIC_SCOPE,
        allowed_paths: &[],
        applies_to_tests: false,
        why: "A bare unwrap() in a hot path turns a recoverable condition into a dead \
              training thread. Convert to a typed error, or use expect() with a message \
              stating the invariant that makes failure impossible.",
    },
    RuleSpec {
        id: "panic-expect",
        scopes: PANIC_SCOPE,
        allowed_paths: &[],
        applies_to_tests: false,
        why: "expect() is only better than unwrap() when the message states the \
              violated invariant; one-word messages explain nothing in a crash log.",
    },
    RuleSpec {
        id: "panic-macro",
        scopes: PANIC_SCOPE,
        allowed_paths: &[],
        applies_to_tests: false,
        why: "panic!/todo!/unreachable!/unimplemented! in hot paths abort a training \
              run; return an error or prove unreachability via types.",
    },
    RuleSpec {
        id: "panic-index",
        scopes: &["crates/core/src/streaming.rs"],
        allowed_paths: &[],
        applies_to_tests: false,
        why: "Unchecked indexing in the streaming driver kills the run, or its loader \
              thread, on the first off-by-one; use get()/get_mut() and surface a \
              SourceError.",
    },
    RuleSpec {
        id: "conc-spawn",
        scopes: &[
            "crates/core/src/",
            "crates/dist/src/",
            "crates/exec/src/",
            "crates/serve/src/",
        ],
        allowed_paths: &["crates/dist/src/runtime.rs", "crates/serve/src/server.rs"],
        applies_to_tests: false,
        why: "Detached thread::spawn outside the designated concurrency modules \
              escapes the panic-safe shutdown protocols (scoped threads + channel \
              disconnection); serving threads (accept loop, workers, ingest) belong \
              in serve/server.rs and dist worker threads in dist/runtime.rs. The \
              training loader in core/streaming.rs is a thread::scope spawn, joined \
              on every path, which this thread::spawn pattern does not match; \
              cascade-core spawns no detached thread.",
    },
    RuleSpec {
        id: "conc-static-mut",
        scopes: &[],
        allowed_paths: &[],
        applies_to_tests: true,
        why: "static mut is unsynchronized shared state (and unsafe to touch); use \
              atomics or pass state explicitly.",
    },
    RuleSpec {
        id: "arena-reset-confined",
        scopes: DETERMINISM_SCOPE,
        allowed_paths: ARENA_RESET_SITES,
        applies_to_tests: false,
        why: "arena::reset() trims the thread-local tensor buffer pool and is only \
              safe at a batch boundary, after the optimizer step and memory apply; \
              mid-batch calls silently degrade recycling. The one call site is the \
              shared train step's close (core/step.rs), which every driver and the \
              dist replica go through.",
    },
    RuleSpec {
        id: "io-fs-confined",
        scopes: IO_CONFINED_SCOPE,
        allowed_paths: IO_MODULES,
        applies_to_tests: false,
        why: "std::fs access outside the designated storage modules scatters \
              untyped I/O errors and corruption handling across compute crates; \
              route file access through cascade-store (event data), \
              models/checkpoint.rs (parameters), or tgraph/dataset.rs (CSV).",
    },
    RuleSpec {
        id: "policy-clippy-allow",
        scopes: &[],
        allowed_paths: &[],
        applies_to_tests: true,
        why: "#[allow(clippy::…)] without an adjacent comment explaining why hides \
              the tradeoff from the next reader; justify it or fix the lint.",
    },
    RuleSpec {
        id: "policy-bare-suppression",
        scopes: &[],
        allowed_paths: &[],
        applies_to_tests: true,
        why: "cascade-lint suppressions must name a known rule and carry a reason; a \
              bare allow() is indistinguishable from silencing a real bug.",
    },
    RuleSpec {
        id: "policy-registry-dep",
        scopes: &[],
        allowed_paths: &[],
        applies_to_tests: true,
        why: "The workspace builds fully offline (DESIGN.md zero-dependency policy); \
              every manifest dependency must be a path-internal cascade-* crate.",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `path` (workspace-relative, `/`-separated) is in `spec`'s
/// scope and not allowlisted.
pub fn in_scope(spec: &RuleSpec, path: &str) -> bool {
    if spec.allowed_paths.iter().any(|p| path.starts_with(p)) {
        return false;
    }
    spec.scopes.is_empty() || spec.scopes.iter().any(|p| path.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_resolvable() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(rule(r.id).is_some());
            assert!(
                !RULES[..i].iter().any(|o| o.id == r.id),
                "duplicate rule id {}",
                r.id
            );
        }
    }

    #[test]
    fn scope_honors_allowlists() {
        let wall = rule("det-wallclock").expect("det-wallclock is registered");
        assert!(in_scope(wall, "crates/core/src/trainer.rs"));
        assert!(!in_scope(wall, "crates/core/src/instrument.rs"));
        assert!(!in_scope(wall, "crates/bench/src/experiments/session.rs"));
        assert!(!in_scope(wall, "crates/util/src/bench.rs"));

        let spawn = rule("conc-spawn").expect("conc-spawn is registered");
        assert!(in_scope(spawn, "crates/exec/src/lib.rs"));
        assert!(in_scope(spawn, "crates/core/src/streaming.rs"));
        assert!(in_scope(spawn, "crates/core/src/scheduler.rs"));
        assert!(!in_scope(spawn, "crates/store/src/source.rs"));

        let index = rule("panic-index").expect("panic-index is registered");
        assert!(in_scope(index, "crates/core/src/streaming.rs"));
        assert!(!in_scope(index, "crates/core/src/scheduler.rs"));
        assert!(!in_scope(index, "crates/exec/src/lib.rs"));
    }

    #[test]
    fn serve_crate_is_bound_with_its_designated_escapes() {
        // The engine is determinism/panic/io bound like any compute path.
        let wall = rule("det-wallclock").expect("det-wallclock is registered");
        assert!(in_scope(wall, "crates/serve/src/engine.rs"));
        // … but the telemetry module may read clocks for latency stats.
        assert!(!in_scope(wall, "crates/serve/src/stats.rs"));

        let fs = rule("io-fs-confined").expect("io-fs-confined is registered");
        assert!(in_scope(fs, "crates/serve/src/engine.rs"));
        assert!(!in_scope(fs, "crates/serve/src/persist.rs"));

        // Threads are confined to the server module.
        let spawn = rule("conc-spawn").expect("conc-spawn is registered");
        assert!(in_scope(spawn, "crates/serve/src/engine.rs"));
        assert!(!in_scope(spawn, "crates/serve/src/server.rs"));

        let unwrap = rule("panic-unwrap").expect("panic-unwrap is registered");
        assert!(in_scope(unwrap, "crates/serve/src/http.rs"));
        assert!(in_scope(unwrap, "crates/serve/src/bin/cascade_serve.rs"));
    }

    #[test]
    fn dist_crate_is_bound_with_its_designated_escapes() {
        // Determinism rules bind the whole dist runtime; only the
        // telemetry module may read clocks.
        let wall = rule("det-wallclock").expect("det-wallclock is registered");
        assert!(in_scope(wall, "crates/dist/src/runtime.rs"));
        assert!(in_scope(wall, "crates/dist/src/grad.rs"));
        assert!(!in_scope(wall, "crates/dist/src/stats.rs"));

        // Worker threads are confined to the runtime module.
        let spawn = rule("conc-spawn").expect("conc-spawn is registered");
        assert!(in_scope(spawn, "crates/dist/src/tcp.rs"));
        assert!(!in_scope(spawn, "crates/dist/src/runtime.rs"));

        // Arena resets happen only inside the shared train step, for
        // the dist replica as for every other driver.
        let arena = rule("arena-reset-confined").expect("rule is registered");
        assert!(in_scope(arena, "crates/dist/src/grad.rs"));
        assert!(in_scope(arena, "crates/dist/src/runtime.rs"));
        assert!(!in_scope(arena, "crates/core/src/step.rs"));
        assert!(in_scope(arena, "crates/core/src/trainer.rs"));
        assert!(in_scope(arena, "crates/core/src/streaming.rs"));

        // No ad-hoc fs access: checkpoints go through models/checkpoint.rs.
        let fs = rule("io-fs-confined").expect("io-fs-confined is registered");
        assert!(in_scope(fs, "crates/dist/src/round.rs"));

        let unwrap = rule("panic-unwrap").expect("panic-unwrap is registered");
        assert!(in_scope(unwrap, "crates/dist/src/tcp.rs"));
    }

    #[test]
    fn scenario_crate_is_bound_with_its_designated_escapes() {
        // The generator and runner are determinism-bound: a recipe must
        // regenerate bit-identically on leader and follower hosts.
        let wall = rule("det-wallclock").expect("det-wallclock is registered");
        assert!(in_scope(wall, "crates/scenario/src/gen.rs"));
        assert!(in_scope(wall, "crates/scenario/src/runner.rs"));
        // … but the RSS/stopwatch sampler may read clocks: its outputs
        // land in scenario reports, never in the generated stream.
        assert!(!in_scope(wall, "crates/scenario/src/rss.rs"));

        let hash = rule("det-hash-iter").expect("det-hash-iter is registered");
        assert!(in_scope(hash, "crates/scenario/src/gen.rs"));

        // All fs access — recipe loading, report writing, the
        // /proc/self/status read — is confined to the report module.
        let fs = rule("io-fs-confined").expect("io-fs-confined is registered");
        assert!(in_scope(fs, "crates/scenario/src/gen.rs"));
        assert!(in_scope(fs, "crates/scenario/src/bin/cascade_scenario.rs"));
        assert!(!in_scope(fs, "crates/scenario/src/report.rs"));
    }

    #[test]
    fn global_rules_bind_everywhere() {
        let smut = rule("conc-static-mut").expect("conc-static-mut is registered");
        assert!(in_scope(smut, "crates/util/src/rng.rs"));
        assert!(in_scope(smut, "src/lib.rs"));
    }
}
