//! One benchmark run: set a workload up from its spec and seed, drive
//! train → serve, check the outputs, and name every metric.
//!
//! An untraced run yields the end-to-end metrics; a traced run repeats
//! the training through the traced driver, takes the serve probes, and
//! yields the per-layer metrics and the trace file.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cascade_models::MemoryTgnn;
use cascade_scenario::peak_rss_bytes;
use cascade_store::{import_dataset, ChunkReader};

use crate::inputs::{set_up, Inputs};
use crate::serve::{run_serve, ServeOutcome, PREDICT_LIMIT_US};
use crate::spec::{MetricDef, Spec, END_TO_END, PER_LAYER};
use crate::stats::{fastest, highest_supported, median, percentile, sort, undisturbed};
use crate::trace::{self_seconds_by_name, Trace};
use crate::train::{
    build_model, check_identical, train_dist_probe, train_store, train_store_traced, Driver,
    TrainOutcome,
};

/// Times the untraced run sets the workload up (once before each of
/// its first passes); `setup_s` is the fastest.
const SETUP_REPS: usize = 5;

/// What one run reports, in the shape of the harness's result line.
#[derive(Debug)]
pub struct RunResult {
    /// Every output check held and nothing failed.
    pub correct: bool,
    /// Operations attempted: training and validation batches, requests.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// The registry the run reports against: end-to-end or per-layer.
    pub registry: &'static [MetricDef],
    /// `(name, value)` of every metric of `registry`, in its order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The output checks that did not hold.
    pub problems: Vec<String>,
}

/// A scratch directory under `out/`, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path, name: &str) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("scratch_{}_{}", name, std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {}", dir.display(), e))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless and
        // `out/` is ignored by git.
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Trains a fresh model out of core through `core::train_streaming`,
/// untraced; returns the outcome and the trained model.
fn train_untraced(spec: &Spec, inputs: &Inputs) -> Result<(TrainOutcome, MemoryTgnn), String> {
    let mut model = build_model(spec);
    let outcome = train_store(spec, &inputs.store, &mut model, Driver::Serial)?;
    Ok((outcome, model))
}

/// Checks that hold for any training outcome.
fn train_problems(spec: &Spec, outcome: &TrainOutcome, problems: &mut Vec<String>) {
    let (n_train, _) = crate::train::splits(spec.recipe.base_events());
    let trained: usize = outcome.batch_sizes.iter().map(|s| *s as usize).sum();
    if trained != n_train {
        problems.push(format!(
            "batches cover {} events, the training split has {}",
            trained, n_train
        ));
    }
    if !outcome.train_loss.is_finite() || !outcome.val_loss.is_finite() {
        problems.push(format!(
            "non-finite loss (train {}, validation {})",
            outcome.train_loss, outcome.val_loss
        ));
    }
}

/// Sorted per-request latencies and the checks on their sample counts.
struct Latencies {
    ingest_ms: Vec<f64>,
    predict_us: Vec<f64>,
    late_ms: Vec<f64>,
}

impl Latencies {
    /// The mixed phase's queries answered within [`PREDICT_LIMIT_US`]
    /// of their due time.
    fn on_time(&self) -> usize {
        self.predict_us
            .partition_point(|us| *us <= PREDICT_LIMIT_US)
    }
}

/// A generator that ran late did not apply the stated load: the median
/// lateness over all of a run's open-loop queries (ascending) must stay
/// under a millisecond. Over the whole run, not per pass: a pass's mixed
/// phase is a fraction of a second, which one hiccup of the host covers.
fn check_lateness(late_ms: &[f64], problems: &mut Vec<String>) {
    let late = percentile(late_ms, 50.0);
    if late > 1.0 {
        problems.push(format!(
            "the open-loop generator ran {} ms late at the median",
            late
        ));
    }
}

fn latencies(serve: &ServeOutcome, problems: &mut Vec<String>) -> Latencies {
    let mut ingest_ms = serve.ingest_ms.clone();
    let mut predict_us: Vec<f64> = serve
        .predict
        .iter()
        .map(|s| s.latency_ns() as f64 * 1e-3)
        .collect();
    let mut late_ms: Vec<f64> = serve
        .predict
        .iter()
        .map(|s| s.late_ns() as f64 * 1e-6)
        .collect();
    sort(&mut ingest_ms);
    sort(&mut predict_us);
    sort(&mut late_ms);
    // A percentile is only reported with at least ten samples beyond
    // it: the median of the replay's round trips, the p90 of the mixed
    // phase's queries.
    for (what, n, p) in [
        ("ingest", ingest_ms.len(), 50.0),
        ("predict", predict_us.len(), 90.0),
    ] {
        if highest_supported(n).is_none_or(|supported| supported < p) {
            problems.push(format!("{} {} samples do not support a p{}", n, what, p));
        }
    }
    problems.extend(serve.problems.iter().cloned());
    Latencies {
        ingest_ms,
        predict_us,
        late_ms,
    }
}

fn finish(
    registry: &'static [MetricDef],
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    mut problems: Vec<String>,
) -> RunResult {
    let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = registry.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "metrics must follow the registry");
    for (name, value) in &values {
        if !value.is_finite() {
            problems.push(format!("metric {} is {}", name, value));
        }
    }
    if failed > 0 {
        problems.push(format!("{} of {} operations failed", failed, attempted));
    }
    RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        registry,
        metrics: values,
        problems,
    }
}

/// Runs `spec` once. An untraced run measures for `seconds`: it repeats
/// the workload's fixed train → serve pass while another fits, and
/// makes at least one. A traced run makes one. Scratch files and the
/// trace file go under `out_dir`.
///
/// # Errors
///
/// Anything that keeps the run from producing numbers at all. Failed
/// operations and failed output checks come back in the result.
pub fn run(spec: &Spec, seconds: f64, traced: bool, out_dir: &Path) -> Result<RunResult, String> {
    let scratch = Scratch::create(out_dir, &spec.name)?;
    if traced {
        run_traced(spec, &scratch.0, out_dir)
    } else {
        run_untraced(spec, seconds, &scratch.0)
    }
}

/// One pass over the fixed work of a workload: train, then serve.
struct Pass {
    train: TrainOutcome,
    serve: ServeOutcome,
    lat: Latencies,
}

fn measure_pass(
    spec: &Spec,
    inputs: &Inputs,
    scratch: &Path,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create {}: {}", scratch.display(), e))?;
    let (train, model) = train_untraced(spec, inputs)?;
    train_problems(spec, &train, problems);
    let serve = run_serve(spec, model, &inputs.serve, scratch, false, None)?;
    let lat = latencies(&serve, problems);
    // The pass's WAL and snapshot are not read again.
    std::fs::remove_dir_all(scratch).ok();
    Ok(Pass { train, serve, lat })
}

/// Each unit's undisturbed time over the passes, or — with a reason in
/// `problems` — the first pass's own times when the passes did not do
/// the same units of work.
fn unit_times(
    what: &str,
    passes: &[Pass],
    of: impl Fn(&Pass) -> &[f64],
    problems: &mut Vec<String>,
) -> Vec<f64> {
    let samples: Vec<&[f64]> = passes.iter().map(&of).collect();
    undisturbed(&samples).unwrap_or_else(|| {
        problems.push(format!("the passes differ in their {} count", what));
        samples[0].to_vec()
    })
}

fn run_untraced(spec: &Spec, seconds: f64, scratch: &Path) -> Result<RunResult, String> {
    let mut problems = Vec::new();
    // The work of one pass is fixed by the spec and the seed, so that
    // losses, counts and the resident set repeat and a unit of work (a
    // training batch, a request) is the same unit in every pass. The
    // run measures for `seconds` by making as many passes as fit, always
    // one; it stops when another pass as long as the longest so far
    // would overrun. The first `SETUP_REPS` passes set the workload up
    // again first (the same inputs each time), so that the set-ups, too,
    // are spread over the run and not taken in one moment of the host's.
    let measured = Instant::now();
    let mut longest = 0.0f64;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = None;
    loop {
        let started = Instant::now();
        if setup_s.len() < SETUP_REPS {
            // One set of inputs at a time, so repeating set-up does not
            // raise the peak resident set.
            drop(inputs.take());
            let t = Instant::now();
            let made = set_up(spec, scratch, None)?;
            std::hint::black_box(build_model(spec));
            setup_s.push(t.elapsed().as_secs_f64());
            inputs = Some(made);
        }
        let pass = measure_pass(
            spec,
            inputs.as_ref().expect("the first pass sets up"),
            &scratch.join(format!("pass{}", passes.len())),
            &mut problems,
        )?;
        if let Some(first) = passes.first() {
            if let Err(why) = check_identical(&first.train, &pass.train) {
                problems.push(format!("training does not repeat: {}", why));
            }
        }
        passes.push(pass);
        // The high-water mark of set-up and one whole pass: what the
        // workload needs, whatever number of passes the run has time for.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_bytes().ok_or("cannot read VmHWM from /proc/self/status")?);
        }
        longest = longest.max(started.elapsed().as_secs_f64());
        if measured.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    let peak_rss = peak_rss.expect("the loop makes at least one pass");

    // Every timing is taken over the undisturbed unit times (see
    // `stats::undisturbed`), not over any one pass's wall clock.
    let first = &passes[0];
    let train_s: f64 = unit_times(
        "training batch",
        &passes,
        |p| &p.train.unit_s,
        &mut problems,
    )
    .iter()
    .sum();
    let replay_s: f64 = unit_times(
        "replay request",
        &passes,
        |p| &p.serve.ingest_ms,
        &mut problems,
    )
    .iter()
    .sum::<f64>()
        * 1e-3;
    let quiet_us = unit_times("quiet query", &passes, |p| &p.serve.quiet_us, &mut problems);
    let mut late_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lat.late_ms.iter().copied())
        .collect();
    sort(&mut late_ms);
    check_lateness(&late_ms, &mut problems);
    let on_time: usize = passes.iter().map(|p| p.lat.on_time()).sum();
    let open_loop: usize = passes.iter().map(|p| p.lat.predict_us.len()).sum();
    let start_s: Vec<f64> = passes.iter().map(|p| p.serve.start_s).collect();
    eprintln!(
        "{}: {} passes; training {:.3} s undisturbed, {:.3} s in the median pass; replay {:.3} s undisturbed, {:.3} s in the median pass",
        spec.name,
        passes.len(),
        train_s,
        median(&passes.iter().map(|p| p.train.wall_s).collect::<Vec<_>>()),
        replay_s,
        median(&passes.iter().map(|p| p.serve.replay_wall_s).collect::<Vec<_>>()),
    );

    let values = vec![
        ("setup_s", fastest(&setup_s) + fastest(&start_s)),
        ("train_events_per_s", first.train.events as f64 / train_s),
        ("val_loss", first.train.val_loss as f64),
        ("train_loss", first.train.train_loss as f64),
        ("peak_rss_mb", peak_rss as f64 / (1024.0 * 1024.0)),
        (
            "ingest_events_per_s",
            first.serve.replay_events as f64 / replay_s,
        ),
        ("predict_p50_us", median(&quiet_us)),
        ("predict_on_time_share", on_time as f64 / open_loop as f64),
    ];
    let attempted: u64 = passes
        .iter()
        .map(|u| u.train.batch_sizes.len() as u64 + u.serve.attempted)
        .sum();
    let failed: u64 = passes
        .iter()
        .map(|u| u.train.non_finite_batches() as u64 + u.serve.failed)
        .sum();
    Ok(finish(&END_TO_END, values, attempted, failed, problems))
}

/// Span names of the traced training loop; their self times plus the
/// unattributed share make up the traced loop's wall time.
const TRAIN_SPANS: [&str; 11] = [
    "store.next_chunk",
    "tgraph.next_chunk",
    "core.table_build",
    "core.scan",
    "core.feedback",
    "models.forward",
    "models.apply",
    "models.eval",
    "tensor.backward",
    "tensor.arena_reset",
    "nn.optim",
];

fn run_traced(spec: &Spec, scratch: &Path, out_dir: &Path) -> Result<RunResult, String> {
    let mut problems = Vec::new();
    let trace = Trace::new();
    let inputs = set_up(spec, scratch, Some(&trace))?;

    // The read side of the store on its own: one serial pass of
    // read + CRC + decode over the (cache-warm) file.
    let bytes = std::fs::metadata(&inputs.store)
        .map_err(|e| e.to_string())?
        .len();
    let t = Instant::now();
    trace.span("store.read_pass", None, || -> Result<(), String> {
        let mut reader = ChunkReader::open(&inputs.store).map_err(|e| e.to_string())?;
        while let Some(frame) = reader.next_frame().map_err(|e| e.to_string())? {
            std::hint::black_box(frame);
        }
        Ok(())
    })?;
    let store_read_s = t.elapsed().as_secs_f64();
    let store_read_mb_s = bytes as f64 / 1e6 / store_read_s;

    // Untraced first: it is the reference the traced loop is held to,
    // and the wall time the spans are compared against.
    let (untraced, model) = train_untraced(spec, &inputs)?;
    train_problems(spec, &untraced, &mut problems);
    drop(model);
    let mut served_model = build_model(spec);
    let (traced, counts) = train_store_traced(spec, &inputs.store, &mut served_model, &trace)?;
    if let Err(why) = check_identical(&untraced, &traced) {
        problems.push(format!("traced run is not the untraced run: {}", why));
    }
    let traced_wall_s = traced.wall_s;
    let mut pipelined_speedup = 0.0;
    if spec.compare_pipelined {
        let mut other = build_model(spec);
        let pipelined = train_store(spec, &inputs.store, &mut other, Driver::Pipelined)?;
        if let Err(why) = check_identical(&untraced, &pipelined) {
            problems.push(format!("pipelined run is not the serial run: {}", why));
        }
        pipelined_speedup = untraced.wall_s / pipelined.wall_s;
    }

    // The dist layer: the training split through `train_dist`, at one
    // worker and at two.
    let mut dist = (0.0, 0.0, 0.0, 0.0);
    if spec.compare_dist {
        let data = import_dataset(&inputs.store, &spec.name)
            .map_err(|e| format!("the dist probe needs an ordered store: {}", e))?;
        let single = train_dist_probe(spec, &data, 1)?;
        let many = train_dist_probe(spec, &data, 2)?;
        dist = (
            many.events_per_s,
            many.events_per_s / single.events_per_s,
            many.rounds as f64,
            (many.train_loss as f64 - single.train_loss as f64).abs(),
        );
    }
    let (dist_events_per_s, dist_speedup, dist_rounds, dist_loss_gap) = dist;

    // The serve phase again, with the probes and the request spans on.
    let serve = run_serve(
        spec,
        served_model,
        &inputs.serve,
        scratch,
        true,
        Some(&trace),
    )?;
    // One pass's lateness is reported, not checked: see `check_lateness`.
    let lat = latencies(&serve, &mut problems);
    let probes = serve
        .probes
        .as_ref()
        .ok_or("the serve phase took no probes")?;
    let mut score_us = probes.score_us.clone();
    sort(&mut score_us);

    let spans = trace.spans();
    let own = self_seconds_by_name(&spans);
    let secs = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let attributed: f64 = TRAIN_SPANS.iter().map(|n| secs(n)).sum();
    let batches = untraced.batch_sizes.len();
    let trained: usize = untraced.batch_sizes.iter().map(|s| *s as usize).sum();
    let arena_takes = counts.arena_hits + counts.arena_misses;

    let values = vec![
        (
            "scenario.generate_events_per_s",
            inputs.generate_events_per_s,
        ),
        ("store.read_s", store_read_s),
        ("store.read_mb_s", store_read_mb_s),
        ("store.wait_s", secs("store.next_chunk")),
        ("tgraph.reorder_s", secs("tgraph.next_chunk")),
        ("tgraph.dropped_events", inputs.dropped_events as f64),
        ("core.table_build_s", secs("core.table_build")),
        ("core.table_entries", counts.table_entries as f64),
        ("core.scan_s", secs("core.scan")),
        ("core.feedback_s", secs("core.feedback")),
        ("core.batches", batches as f64),
        (
            "core.mean_batch_events",
            trained as f64 / batches.max(1) as f64,
        ),
        ("core.train_wall_s", untraced.wall_s),
        (
            "core.unattributed_share",
            (traced_wall_s - attributed) / traced_wall_s,
        ),
        ("models.forward_s", secs("models.forward")),
        ("models.apply_s", secs("models.apply")),
        ("models.eval_s", secs("models.eval")),
        ("tensor.backward_s", secs("tensor.backward")),
        ("tensor.arena_reset_s", secs("tensor.arena_reset")),
        (
            "tensor.arena_hit_ratio",
            counts.arena_hits as f64 / arena_takes.max(1) as f64,
        ),
        ("nn.optim_s", secs("nn.optim")),
        (
            "trace_overhead_share",
            (traced_wall_s - untraced.wall_s) / untraced.wall_s,
        ),
        ("exec.pipelined_speedup", pipelined_speedup),
        ("dist.events_per_s", dist_events_per_s),
        ("dist.speedup_2_over_1", dist_speedup),
        ("dist.rounds", dist_rounds),
        ("dist.loss_gap", dist_loss_gap),
        ("serve.start_s", serve.start_s),
        (
            "serve.engine_ingest_events_per_s",
            probes.engine_ingest_events_per_s,
        ),
        ("serve.ingest_p50_ms", percentile(&lat.ingest_ms, 50.0)),
        ("serve.ingest_growth", serve.ingest_growth()),
        ("serve.ingest_samples", lat.ingest_ms.len() as f64),
        ("serve.score_p50_us", percentile(&score_us, 50.0)),
        (
            "serve.predict_mixed_p50_us",
            percentile(&lat.predict_us, 50.0),
        ),
        ("serve.predict_p90_us", percentile(&lat.predict_us, 90.0)),
        ("serve.predict_samples", lat.predict_us.len() as f64),
        (
            "serve.generator_late_p50_ms",
            percentile(&lat.late_ms, 50.0),
        ),
        (
            "serve.generator_late_max_ms",
            percentile(&lat.late_ms, 100.0),
        ),
        ("serve.failed_requests", serve.failed as f64),
    ];

    let path = out_dir.join(format!("trace_{}.jsonl", spec.name));
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;

    let attempted = batches as u64 + serve.attempted;
    let failed = untraced.non_finite_batches() as u64 + serve.failed;
    Ok(finish(&PER_LAYER, values, attempted, failed, problems))
}
