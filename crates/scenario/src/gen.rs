//! The streaming scenario generator: turns a [`Recipe`] into a
//! delivered event stream, one chunk at a time, in bounded memory.
//!
//! Two properties carry the whole subsystem:
//!
//! 1. **Seed-addressable determinism.** Generation is a pure function
//!    of `(recipe, seed)`: every draw comes from one of two `DetRng`
//!    streams (base dynamics; delivery scrambling), timestamps are
//!    forced strictly increasing bit-deterministically, and feature
//!    rows are a pure hash of `(seed, base event id)` — so a duplicate
//!    delivery carries bit-identical features to its original, and a
//!    dist follower regenerating the recipe produces byte-identical
//!    CEVT chunks to the leader's file.
//! 2. **Bounded state.** Generator memory is O(active-node slots +
//!    reorder window + one chunk): a direct-mapped recent-partner table
//!    (capped at [`PARTNER_SLOTS_MAX`] slots), one scramble block, and
//!    the staged chunk. Event count never enters the footprint, which
//!    is what the RSS-independence test asserts by generating a recipe
//!    pair 16x apart in length.
//!
//! Base dynamics follow the `tgraph::synth` family: a sliding
//! active-node window sweeps the id space (churn = faster sweep),
//! sources are drawn power-law-skewed inside the window (flash crowd =
//! tiny hub set + compressed inter-arrivals; skew shift = exponent
//! jump), and destinations preferentially repeat recent partners.
//! Delivery perturbation (reorder/duplication) is a pure post-stage: it
//! permutes a block and re-delivers marked events without touching base
//! dynamics or the base RNG, so a recipe's
//! [`presorted_control`](Recipe::presorted_control) generates the
//! bit-identical base stream.

use std::collections::VecDeque;
use std::path::Path;

use cascade_store::{ChunkWriter, StoreSummary};
use cascade_tgraph::{Event, EventChunk, EventSource, SourceError};
use cascade_util::DetRng;

use crate::recipe::{PhaseKind, Recipe};
use crate::ScenarioError;

/// Upper bound on recent-partner table slots: above this node count,
/// slots are shared by `id % slots` (deterministic, and bounded memory
/// on million-node recipes).
pub const PARTNER_SLOTS_MAX: usize = 65_536;

/// Stream-seed split between base dynamics and delivery scrambling:
/// the scrambler must not consume base draws, or disabling a reorder
/// phase would shift every later event.
const SCRAMBLE_SEED_XOR: u64 = 0x05ca_1ab1_e0dd_ba11;

/// Burst gaps are this fraction of a normal inter-arrival gap.
const BURST_GAP_SCALE: f64 = 0.05;

/// Writes the deterministic feature row of base event `idx` into `out`
/// (cleared first). A splitmix64-seeded xorshift per row: random access
/// by event id, no per-stream state.
pub fn feature_row_into(seed: u64, idx: u64, dim: usize, out: &mut Vec<f32>) {
    out.clear();
    if dim == 0 {
        return;
    }
    // splitmix64 of (seed, idx) decorrelates consecutive rows.
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(idx.wrapping_add(1)));
    state ^= state >> 30;
    state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    state ^= state >> 27;
    state = state.wrapping_mul(0x94d0_49bb_1331_11eb);
    state |= 1;
    for _ in 0..dim {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = (state >> 40) as f32 / (1u64 << 24) as f32;
        out.push(v * 2.0 - 1.0);
    }
}

fn skewed_index(rng: &mut DetRng, n: usize, k: f64) -> usize {
    let u: f64 = rng.f64();
    let idx = (u.powf(k) * n as f64) as usize;
    idx.min(n.saturating_sub(1))
}

/// A delivered event plus the base event id its feature row hashes
/// from (duplicates share their original's id).
#[derive(Clone, Copy, Debug)]
struct Delivered {
    event: Event,
    base_id: u64,
}

/// An [`EventSource`] that generates a recipe's delivered stream on the
/// fly. `num_events` is [`Recipe::delivered_events`] — the raw stream
/// including injected duplicates; wrap in a
/// [`ReorderingSource`](cascade_tgraph::ReorderingSource) to normalize.
pub struct ScenarioSource {
    recipe: Recipe,
    delivered_total: usize,
    partner_slots: usize,
    // --- generation state, reset() re-derives all of it ---
    rng: DetRng,
    scramble_rng: DetRng,
    t: f64,
    frontier: f64,
    partner: Vec<u32>,
    partner_len: Vec<u8>,
    partner_next: Vec<u8>,
    phase_idx: usize,
    phase_pos: usize,
    hub_base: usize,
    base_idx: u64,
    out: VecDeque<Delivered>,
    emitted: usize,
    next_chunk_index: usize,
    feat_scratch: Vec<f32>,
}

impl ScenarioSource {
    /// Builds the generator for `recipe`.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the recipe's node count exceeds
    /// the `u32` id space or its partner cap exceeds 255.
    pub fn new(recipe: Recipe) -> Result<Self, ScenarioError> {
        if recipe.nodes > u32::MAX as usize {
            return Err(ScenarioError::new(format!(
                "recipe '{}' declares {} nodes; node ids are u32",
                recipe.name, recipe.nodes
            )));
        }
        if recipe.partner_cap == 0 || recipe.partner_cap > u8::MAX as usize {
            return Err(ScenarioError::new(format!(
                "recipe '{}' partner_cap {} out of range (1..=255)",
                recipe.name, recipe.partner_cap
            )));
        }
        let delivered_total = recipe.delivered_events();
        let partner_slots = recipe.nodes.min(PARTNER_SLOTS_MAX);
        let mut src = ScenarioSource {
            delivered_total,
            partner_slots,
            rng: DetRng::new(0),
            scramble_rng: DetRng::new(0),
            t: 0.0,
            frontier: 0.0,
            partner: Vec::new(),
            partner_len: Vec::new(),
            partner_next: Vec::new(),
            phase_idx: 0,
            phase_pos: 0,
            hub_base: 0,
            base_idx: 0,
            out: VecDeque::new(),
            emitted: 0,
            next_chunk_index: 0,
            feat_scratch: Vec::new(),
            recipe,
        };
        src.rewind();
        Ok(src)
    }

    fn span(&self) -> usize {
        ((self.recipe.nodes as f64 * self.recipe.pool_fraction) as usize)
            .clamp(2.min(self.recipe.nodes), self.recipe.nodes)
    }

    fn rewind(&mut self) {
        self.rng = DetRng::new(self.recipe.seed);
        self.scramble_rng = DetRng::new(self.recipe.seed ^ SCRAMBLE_SEED_XOR);
        self.t = 0.0;
        self.frontier = self.span() as f64;
        let cap = self.recipe.partner_cap;
        self.partner = vec![u32::MAX; self.partner_slots * cap];
        self.partner_len = vec![0; self.partner_slots];
        self.partner_next = vec![0; self.partner_slots];
        self.phase_idx = 0;
        self.phase_pos = 0;
        self.hub_base = 0;
        self.base_idx = 0;
        self.out.clear();
        self.emitted = 0;
        self.next_chunk_index = 0;
    }

    /// Advances past exhausted phases; false when the stream is done.
    fn seek_phase(&mut self) -> bool {
        while self.phase_idx < self.recipe.phases.len() {
            if self.phase_pos < self.recipe.phases[self.phase_idx].events {
                return true;
            }
            self.phase_idx += 1;
            self.phase_pos = 0;
        }
        false
    }

    /// Generates the next base event under the current phase's
    /// dynamics. Caller must have positioned a live phase.
    fn next_base_event(&mut self) -> Delivered {
        let phase = &self.recipe.phases[self.phase_idx];
        let kind = phase.kind;
        let base_total = self.recipe.base_events().max(1);
        let span = self.span();
        let nodes = self.recipe.nodes;

        // Inter-arrival gap: exponential with mean 1, bursty tail,
        // flash-crowd compression.
        let u: f64 = self.rng.f64();
        let mut dt = -(u.max(1e-12)).ln();
        if self.recipe.burstiness > 0.0 && self.rng.chance(self.recipe.burstiness) {
            dt *= BURST_GAP_SCALE;
        }
        if let PhaseKind::FlashCrowd { compression, .. } = kind {
            dt /= compression.max(1.0);
        }
        // Strictly increasing timestamps, bit-deterministically: when
        // the gap underflows the f64 resolution at the current
        // magnitude, step to the next representable value instead.
        let stepped = self.t + dt;
        self.t = if stepped > self.t {
            stepped
        } else {
            f64::from_bits(self.t.to_bits() + 1)
        };

        // Active-node window sweep; churn sweeps faster.
        let mut advance = (nodes.saturating_sub(span)) as f64 / base_total as f64;
        if let PhaseKind::Churn { rotate } = kind {
            advance += rotate.max(0.0) * span as f64 / phase.events as f64;
        }
        self.frontier = (self.frontier + advance).min(nodes as f64);
        let window_base = (self.frontier as usize).saturating_sub(span).min(nodes - 1);

        let skew = match kind {
            PhaseKind::SkewShift { skew } => skew,
            _ => self.recipe.skew,
        };
        // Flash crowds pin their hub set to the active window as it
        // stood when the phase began — the crowd hammers a fixed set
        // of hot nodes even while the window keeps sweeping.
        if self.phase_pos == 0 {
            self.hub_base = window_base;
        }
        let src = match kind {
            PhaseKind::FlashCrowd { hubs, .. } => {
                self.hub_base + skewed_index(&mut self.rng, hubs.min(span).max(1), skew)
            }
            _ => window_base + skewed_index(&mut self.rng, span, skew),
        };

        // Destination: repeat a recent partner, else a fresh skewed
        // draw from the window.
        let cap = self.recipe.partner_cap;
        let slot = src % self.partner_slots;
        let occupied = self.partner_len[slot] as usize;
        let repeat = self.recipe.repeat_prob > 0.0 && self.rng.chance(self.recipe.repeat_prob);
        let dst = if repeat && occupied > 0 {
            self.partner[slot * cap + self.rng.index(occupied)] as usize
        } else {
            let mut d = window_base + skewed_index(&mut self.rng, span, skew);
            if d == src {
                d = window_base + (d - window_base + 1) % span;
            }
            d
        };

        // Remember the partner (fixed-size ring per slot).
        let next = self.partner_next[slot] as usize;
        self.partner[slot * cap + next] = dst as u32;
        self.partner_next[slot] = ((next + 1) % cap) as u8;
        if occupied < cap {
            self.partner_len[slot] = (occupied + 1) as u8;
        }

        let ev = Event::new(src as u32, dst as u32, self.t);
        let id = self.base_idx;
        self.base_idx += 1;
        self.phase_pos += 1;
        Delivered {
            event: ev,
            base_id: id,
        }
    }

    /// Generates one delivery block into `self.out`: a scrambled,
    /// duplicate-injected window for reorder phases, a plain run of
    /// base events otherwise.
    fn fill_block(&mut self) -> bool {
        if !self.seek_phase() {
            return false;
        }
        let phase = &self.recipe.phases[self.phase_idx];
        let remaining = phase.events - self.phase_pos;
        match phase.kind {
            PhaseKind::Reorder {
                window,
                duplicate_every,
            } => {
                let take = window.min(remaining);
                let phase_start = self.phase_pos;
                let mut block: Vec<Delivered> = Vec::with_capacity(take);
                for _ in 0..take {
                    block.push(self.next_base_event());
                }
                // Fisher-Yates on the block with the dedicated scramble
                // stream: max displacement `window - 1`, within the
                // consumer's BufferedReorder(window) tolerance.
                for i in (1..block.len()).rev() {
                    let j = self.scramble_rng.index(i + 1);
                    block.swap(i, j);
                }
                for (off, d) in block.iter().enumerate() {
                    self.out.push_back(*d);
                    // Cadence is in *base* phase positions, so the
                    // duplicate count is exact and declared up front.
                    if duplicate_every > 0 {
                        let phase_pos = phase_start + off;
                        if phase_pos % duplicate_every == duplicate_every - 1 {
                            self.out.push_back(*d);
                        }
                    }
                }
            }
            _ => {
                let take = remaining.min(self.recipe.chunk_size.max(64));
                for _ in 0..take {
                    let d = self.next_base_event();
                    self.out.push_back(d);
                }
            }
        }
        true
    }
}

impl EventSource for ScenarioSource {
    fn num_nodes(&self) -> usize {
        self.recipe.nodes
    }

    /// Delivered events (base + injected duplicates).
    fn num_events(&self) -> usize {
        self.delivered_total
    }

    fn feature_dim(&self) -> usize {
        self.recipe.feature_dim
    }

    fn chunk_size(&self) -> usize {
        self.recipe.chunk_size
    }

    fn next_chunk(&mut self) -> Result<Option<EventChunk>, SourceError> {
        let target = self.recipe.chunk_size;
        while self.out.len() < target && self.fill_block() {}
        if self.out.is_empty() {
            return Ok(None);
        }
        let take = self.out.len().min(target);
        let dim = self.recipe.feature_dim;
        let mut events = Vec::with_capacity(take);
        let mut features = Vec::with_capacity(take * dim);
        for _ in 0..take {
            let d = self
                .out
                .pop_front()
                .unwrap_or_else(|| unreachable!("out holds at least `take` events"));
            events.push(d.event);
            feature_row_into(self.recipe.seed, d.base_id, dim, &mut self.feat_scratch);
            features.extend_from_slice(&self.feat_scratch);
        }
        let chunk = EventChunk {
            index: self.next_chunk_index,
            base: self.emitted,
            events,
            features,
        };
        self.next_chunk_index += 1;
        self.emitted += chunk.events.len();
        Ok(Some(chunk))
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.rewind();
        Ok(())
    }

    fn name(&self) -> String {
        self.recipe.name.clone()
    }
}

/// Streams `recipe`'s delivered events straight into a CEVT store file
/// at `path` — one chunk resident at a time, so generation memory is
/// independent of stream length.
///
/// # Errors
///
/// Returns a [`ScenarioError`] on recipe misuse or any store I/O
/// failure.
pub fn generate_to_store(recipe: &Recipe, path: &Path) -> Result<StoreSummary, ScenarioError> {
    let mut source = ScenarioSource::new(recipe.clone())?;
    let mut writer = ChunkWriter::create(path, recipe.nodes, recipe.feature_dim, recipe.chunk_size)
        .map_err(|e| {
            ScenarioError::new(format!("cannot create store {}: {}", path.display(), e))
        })?;
    let dim = recipe.feature_dim;
    while let Some(chunk) = source
        .next_chunk()
        .map_err(|e| ScenarioError::new(format!("generation failed: {}", e)))?
    {
        for (i, ev) in chunk.events.iter().enumerate() {
            writer
                .push(*ev, &chunk.features[i * dim..(i + 1) * dim])
                .map_err(|e| ScenarioError::new(format!("store write failed: {}", e)))?;
        }
    }
    writer
        .finish()
        .map_err(|e| ScenarioError::new(format!("store finish failed: {}", e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::Phase;

    fn small_recipe() -> Recipe {
        Recipe {
            name: "gen-test".into(),
            seed: 11,
            nodes: 200,
            feature_dim: 4,
            skew: 1.8,
            burstiness: 0.3,
            repeat_prob: 0.5,
            pool_fraction: 0.3,
            partner_cap: 4,
            chunk_size: 64,
            train: crate::recipe::TrainSpec::default(),
            phases: vec![
                Phase {
                    name: "warm".into(),
                    events: 300,
                    kind: PhaseKind::Baseline,
                },
                Phase {
                    name: "storm".into(),
                    events: 200,
                    kind: PhaseKind::Reorder {
                        window: 16,
                        duplicate_every: 10,
                    },
                },
                Phase {
                    name: "crowd".into(),
                    events: 100,
                    kind: PhaseKind::FlashCrowd {
                        compression: 10.0,
                        hubs: 4,
                    },
                },
            ],
        }
    }

    fn drain(src: &mut ScenarioSource) -> (Vec<Event>, Vec<f32>) {
        let mut events = Vec::new();
        let mut features = Vec::new();
        while let Some(c) = src.next_chunk().expect("generation never fails") {
            events.extend_from_slice(&c.events);
            features.extend_from_slice(&c.features);
        }
        (events, features)
    }

    #[test]
    fn delivered_count_matches_declaration() {
        let r = small_recipe();
        let mut src = ScenarioSource::new(r.clone()).expect("recipe is valid");
        let (events, features) = drain(&mut src);
        assert_eq!(events.len(), r.delivered_events());
        assert_eq!(events.len(), 600 + 20);
        assert_eq!(features.len(), events.len() * r.feature_dim);
        assert!(events
            .iter()
            .all(|e| (e.src.0 as usize) < r.nodes && (e.dst.0 as usize) < r.nodes));
    }

    #[test]
    fn regeneration_is_bit_identical() {
        let r = small_recipe();
        let mut a = ScenarioSource::new(r.clone()).expect("recipe is valid");
        let mut b = ScenarioSource::new(r).expect("recipe is valid");
        let (ea, fa) = drain(&mut a);
        let (eb, fb) = drain(&mut b);
        assert_eq!(ea.len(), eb.len());
        assert!(ea.iter().zip(&eb).all(|(x, y)| x.src == y.src
            && x.dst == y.dst
            && x.time.to_bits() == y.time.to_bits()));
        assert!(fa.iter().zip(&fb).all(|(x, y)| x.to_bits() == y.to_bits()));

        // reset() replays identically too.
        a.reset().expect("reset never fails");
        let (er, fr) = drain(&mut a);
        assert_eq!(er.len(), ea.len());
        assert!(fr.iter().zip(&fa).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn base_times_are_strictly_increasing_outside_reorder_phases() {
        let mut r = small_recipe();
        r.phases
            .retain(|p| !matches!(p.kind, PhaseKind::Reorder { .. }));
        let mut src = ScenarioSource::new(r).expect("recipe is valid");
        let (events, _) = drain(&mut src);
        for w in events.windows(2) {
            assert!(w[1].time > w[0].time, "timestamps must strictly increase");
        }
    }

    #[test]
    fn control_recipe_generates_the_sorted_base_stream() {
        let r = small_recipe();
        let control = r.presorted_control();
        let mut perturbed = ScenarioSource::new(r.clone()).expect("valid");
        let mut sorted = ScenarioSource::new(control).expect("valid");
        let (mut ep, _) = drain(&mut perturbed);
        let (ec, _) = drain(&mut sorted);
        // Normalize the perturbed stream by hand: drop duplicates, sort.
        ep.dedup_by(|a, b| {
            a.src == b.src && a.dst == b.dst && a.time.to_bits() == b.time.to_bits()
        });
        ep.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("times are finite"));
        ep.dedup_by(|a, b| {
            a.src == b.src && a.dst == b.dst && a.time.to_bits() == b.time.to_bits()
        });
        assert_eq!(ep.len(), ec.len());
        assert!(ep.iter().zip(&ec).all(|(x, y)| x.src == y.src
            && x.dst == y.dst
            && x.time.to_bits() == y.time.to_bits()));
    }

    #[test]
    fn flash_crowd_compresses_interarrivals_and_concentrates_sources() {
        let mut r = small_recipe();
        r.burstiness = 0.0;
        r.phases = vec![
            Phase {
                name: "calm".into(),
                events: 500,
                kind: PhaseKind::Baseline,
            },
            Phase {
                name: "crowd".into(),
                events: 500,
                kind: PhaseKind::FlashCrowd {
                    compression: 50.0,
                    hubs: 2,
                },
            },
        ];
        let mut src = ScenarioSource::new(r).expect("valid");
        let (events, _) = drain(&mut src);
        let calm_span = events[499].time - events[0].time;
        let crowd_span = events[999].time - events[500].time;
        assert!(
            crowd_span * 5.0 < calm_span,
            "flash crowd must compress time: calm {} vs crowd {}",
            calm_span,
            crowd_span
        );
        let crowd_srcs: std::collections::BTreeSet<u32> =
            events[500..].iter().map(|e| e.src.0).collect();
        assert!(
            crowd_srcs.len() <= 4,
            "sources must concentrate on the hub set, got {}",
            crowd_srcs.len()
        );
    }

    #[test]
    fn feature_rows_are_random_access_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        feature_row_into(7, 123, 8, &mut a);
        feature_row_into(7, 123, 8, &mut b);
        assert_eq!(a, b);
        feature_row_into(7, 124, 8, &mut b);
        assert_ne!(a, b, "adjacent rows must differ");
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        feature_row_into(7, 123, 0, &mut a);
        assert!(a.is_empty());
    }
}
