//! Set-up: a workload's inputs, generated from its spec and the run's
//! seed before any clock that feeds a metric other than `setup_s`
//! starts.
//!
//! The temporal graph's *shape* — who interacts with whom, when —
//! comes from the committed recipe (its own `seed` included), because
//! Cascade's batch sizes are a step function of that shape: two shapes
//! drawn from the one `flash_crowd` recipe train in 3 500 or in 7 500
//! batches, a 25 % swing in events/s with no change in the code, and a
//! workload that changes regime with the seed can resolve no
//! regression. The run's seed varies everything else the program
//! consumes: the node ids (a seeded relabelling, so every event, memory
//! row and shard assignment differs while the dependency structure is
//! the same graph), every edge-feature row, model initialisation, the
//! scheduler's profiling sample and the query pool.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cascade_scenario::{feature_row_into, ScenarioSource};
use cascade_store::ChunkWriter;
use cascade_tgraph::{Event, EventSource};
use cascade_util::DetRng;

use crate::serve::{render_inputs, ServeInputs};
use crate::spec::Spec;
use crate::trace::{spanned, Trace};
use crate::train::open_normalized;

/// Everything set-up produces.
pub struct Inputs {
    /// The CEVT file of the delivered (un-normalized) stream.
    pub store: PathBuf,
    /// The rendered serve phase.
    pub serve: ServeInputs,
    /// Delivered events per second of generating and writing the store.
    pub generate_events_per_s: f64,
    /// Duplicates the normalizing pass dropped (exact).
    pub dropped_events: usize,
}

/// A seeded permutation of `0..nodes` (Fisher–Yates).
fn relabelling(nodes: usize, seed: u64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..nodes as u32).collect();
    let mut rng = DetRng::new(seed ^ 0x7265_6c61_6265_6c21);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.index(i + 1));
    }
    ids
}

/// Generates the recipe's delivered stream into a CEVT file at `path`,
/// relabelled and re-featured by the run's seed. A feature row is a
/// function of the seed and the event's timestamp (timestamps are
/// strictly increasing in the base stream), so a duplicate delivery
/// carries its original's row.
fn generate_store(spec: &Spec, path: &Path) -> Result<usize, String> {
    let recipe = &spec.recipe;
    let dim = recipe.feature_dim;
    let relabel = relabelling(recipe.nodes, spec.seed);
    let mut source = ScenarioSource::new(recipe.clone()).map_err(|e| e.to_string())?;
    let mut writer = ChunkWriter::create(path, recipe.nodes, dim, recipe.chunk_size)
        .map_err(|e| format!("cannot create store {}: {}", path.display(), e))?;
    let mut row = Vec::with_capacity(dim);
    while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
        for e in &chunk.events {
            let event = Event::new(relabel[e.src.index()], relabel[e.dst.index()], e.time);
            feature_row_into(spec.seed, e.time.to_bits(), dim, &mut row);
            writer
                .push(event, &row)
                .map_err(|e| format!("store write failed: {}", e))?;
        }
    }
    let summary = writer
        .finish()
        .map_err(|e| format!("store finish failed: {}", e))?;
    Ok(summary.events)
}

/// Generates the workload's inputs: the store, one normalizing pass
/// over it (which checks both event counts, leaves the page cache warm
/// and collects the stream prefix the serve phase sends), and the
/// rendered serve bodies.
///
/// # Errors
///
/// I/O failures and event counts that do not match the recipe.
pub fn set_up(spec: &Spec, scratch: &Path, trace: Option<&Trace>) -> Result<Inputs, String> {
    let recipe = &spec.recipe;
    let dim = recipe.feature_dim;
    let store = scratch.join("stream.cevt");
    let generated = Instant::now();
    let delivered = spanned(trace, "scenario.generate_store", || {
        generate_store(spec, &store)
    })?;
    let generate_s = generated.elapsed().as_secs_f64();
    if delivered != recipe.delivered_events() {
        return Err(format!(
            "store holds {} events, the recipe delivers {}",
            delivered,
            recipe.delivered_events()
        ));
    }

    // The serve phase sends a prefix of the normalized stream.
    let keep = spec.serve_events();
    let mut events: Vec<Event> = Vec::with_capacity(keep);
    let mut features: Vec<f32> = Vec::with_capacity(keep * dim);
    let normalized = spanned(trace, "tgraph.normalize_pass", || {
        let mut source = open_normalized(spec, &store)?;
        let mut normalized = 0usize;
        while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
            let take = chunk.events.len().min(keep - events.len());
            events.extend_from_slice(&chunk.events[..take]);
            features.extend_from_slice(&chunk.features[..take * dim]);
            normalized += chunk.events.len();
        }
        Ok::<usize, String>(normalized)
    })?;
    if normalized != recipe.base_events() {
        return Err(format!(
            "normalization yields {} events, the recipe has {} base events",
            normalized,
            recipe.base_events()
        ));
    }

    let serve = spanned(trace, "scenario.render_bodies", || {
        render_inputs(spec, &events, &features, recipe.nodes)
    });
    Ok(Inputs {
        store,
        serve,
        generate_events_per_s: delivered as f64 / generate_s,
        dropped_events: delivered - normalized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_store::import_dataset;

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test_inputs_{}_{}", tag, std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn relabelling_is_a_seeded_bijection() {
        let a = relabelling(1000, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        assert_eq!(a, relabelling(1000, 7));
        assert_ne!(a, relabelling(1000, 8));
    }

    #[test]
    fn the_seed_changes_labels_and_features_but_not_the_shape() {
        let dir = scratch("shape");
        let load = |seed: u64| {
            let spec = Spec::load("wide_store", Some(seed))
                .expect("committed spec")
                .scaled(0.02);
            let path = dir.join(format!("s{}.cevt", seed));
            let n = generate_store(&spec, &path).expect("generates");
            assert_eq!(n, spec.recipe.delivered_events());
            (spec, std::fs::read(&path).expect("store bytes"), path)
        };
        let (spec, bytes_a, path_a) = load(3);
        let (_, bytes_a_again, _) = load(3);
        let (_, bytes_b, path_b) = load(4);
        assert_eq!(
            bytes_a, bytes_a_again,
            "the same seed gives the same inputs"
        );
        assert_ne!(bytes_a, bytes_b, "another seed gives other inputs");

        // Same shape: undoing the relabelling maps one stream onto the
        // other, event for event (delivery order included).
        let a = import_dataset_unordered(&path_a);
        let b = import_dataset_unordered(&path_b);
        let (ra, rb) = (
            relabelling(spec.recipe.nodes, 3),
            relabelling(spec.recipe.nodes, 4),
        );
        let invert = |perm: &[u32]| {
            let mut inv = vec![0u32; perm.len()];
            for (from, to) in perm.iter().enumerate() {
                inv[*to as usize] = from as u32;
            }
            inv
        };
        let (ia, ib) = (invert(&ra), invert(&rb));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time.to_bits(), y.time.to_bits());
            assert_eq!(ia[x.src.index()], ib[y.src.index()]);
            assert_eq!(ia[x.dst.index()], ib[y.dst.index()]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The delivered stream is not time-ordered (that is the point of a
    /// reorder phase), so read the frames directly.
    fn import_dataset_unordered(path: &Path) -> Vec<Event> {
        let mut reader = cascade_store::ChunkReader::open(path).expect("opens");
        let mut events = Vec::new();
        while let Some(frame) = reader.next_frame().expect("reads") {
            events.extend_from_slice(&frame.events);
        }
        events
    }

    #[test]
    fn set_up_counts_duplicates_and_renders_the_serve_prefix() {
        let dir = scratch("setup");
        let narrow = Spec::load("steady_narrow", Some(5))
            .expect("spec")
            .scaled(0.02);
        let inputs = set_up(&narrow, &dir, None).expect("sets up");
        assert_eq!(inputs.dropped_events, 0);
        assert_eq!(inputs.serve.batches.len(), narrow.serve_requests());
        // A store of an ordered stream imports as a dataset whose head
        // is what the serve phase sends.
        let imported = import_dataset(&inputs.store, "x").expect("ordered store");
        assert_eq!(imported.num_events(), narrow.recipe.base_events());
        assert_eq!(
            imported.stream().events()[..narrow.serve.request_events],
            inputs.serve.batches[0].events[..]
        );

        let wide = Spec::load("wide_store", Some(5))
            .expect("spec")
            .scaled(0.02);
        let inputs = set_up(&wide, &dir, None).expect("sets up");
        assert_eq!(
            inputs.dropped_events,
            wide.recipe.delivered_events() - wide.recipe.base_events()
        );
        assert!(inputs.dropped_events > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
