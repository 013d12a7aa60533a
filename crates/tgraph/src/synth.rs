//! Synthetic CTDG generators.
//!
//! The paper evaluates on seven real datasets (Table 2). Those corpora are
//! not redistributable here, so each is replaced by a seeded generator
//! matching the statistics Cascade's mechanisms depend on:
//!
//! * node/event counts and edge-feature width (Table 2),
//! * activity skew — a few hub nodes absorb most events while the majority
//!   see 0–25 events per 900-event batch (Figure 3),
//! * bipartite user–item structure for the interaction datasets,
//! * temporal recurrence (users re-contact recent partners) and bursty
//!   inter-arrival times.
//!
//! Generators accept a `scale` so the billion-event profiles (GDELT, MAG)
//! shrink to laptop size while preserving relative shape.

use crate::dataset::{synth_features, Dataset};
use crate::event::{Event, EventStream};
use cascade_util::DetRng;

/// Configuration of a synthetic dynamic-graph generator.
///
/// # Examples
///
/// ```
/// use cascade_tgraph::SynthConfig;
///
/// let data = SynthConfig::wiki().with_scale(0.05).generate(42);
/// assert!(data.num_events() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Dataset name (used in reports).
    pub name: String,
    /// Target node count at scale 1.0.
    pub num_nodes: usize,
    /// Target event count at scale 1.0.
    pub num_events: usize,
    /// Edge-feature width.
    pub feature_dim: usize,
    /// Activity skew `k ≥ 1`: node pick index `∝ u^k`; higher concentrates
    /// events onto fewer hub nodes.
    pub skew: f64,
    /// Fraction of nodes acting as "items" (destinations) in bipartite
    /// interaction graphs; `0` disables bipartite structure.
    pub item_fraction: f64,
    /// Probability that a source re-contacts one of its recent partners.
    pub repeat_prob: f64,
    /// Probability an inter-arrival gap is a small "burst" gap.
    pub burstiness: f64,
    /// Linear scale on node and event counts.
    pub scale: f64,
    /// Lower bound on the scaled node count (extremely dense profiles
    /// like GDELT would otherwise collapse to a handful of nodes).
    pub min_nodes: usize,
    /// Optional separate scale for the node count; defaults to `scale`.
    /// Scaled-down replicas keep dependency structure realistic by
    /// shrinking nodes more gently than events.
    pub node_scale: Option<f64>,
    /// Fraction of users concurrently "active" (sessions): real activity
    /// is bursty — a node is hot for a stretch, then quiet. Hot sets
    /// rotate every session, which bounds any node's relevant events per
    /// window, the property Cascade's endurance budgeting exploits.
    pub pool_fraction: f64,
    /// Fraction of the active pool replaced at each session boundary.
    pub rotation: f64,
    /// Maximum distinct recent partners a source keeps returning to; the
    /// bound on structural closure (real users interact with a handful of
    /// items/pages, not the whole catalog).
    pub partner_cap: usize,
}

impl SynthConfig {
    /// Profile of the Wikipedia edit-interaction graph
    /// (9,227 nodes / 157,474 events / 172 features; avg degree ≈ 17).
    pub fn wiki() -> Self {
        SynthConfig {
            name: "WIKI".into(),
            num_nodes: 9_227,
            num_events: 157_474,
            feature_dim: 172,
            skew: 2.2,
            item_fraction: 0.11,
            repeat_prob: 0.55,
            burstiness: 0.3,
            scale: 1.0,
            min_nodes: 4,
            node_scale: None,
            pool_fraction: 0.15,
            rotation: 0.35,
            partner_cap: 10,
        }
    }

    /// Profile of the Reddit post graph (11,000 / 672,447 / 172; avg
    /// degree ≈ 61 — the densest moderate dataset).
    pub fn reddit() -> Self {
        SynthConfig {
            name: "REDDIT".into(),
            num_nodes: 11_000,
            num_events: 672_447,
            feature_dim: 172,
            skew: 2.6,
            item_fraction: 0.09,
            repeat_prob: 0.65,
            burstiness: 0.35,
            scale: 1.0,
            min_nodes: 4,
            node_scale: None,
            pool_fraction: 0.15,
            rotation: 0.35,
            partner_cap: 10,
        }
    }

    /// Profile of the MOOC student drop-out graph (7,047 / 411,749 / 128).
    pub fn mooc() -> Self {
        SynthConfig {
            name: "MOOC".into(),
            num_nodes: 7_047,
            num_events: 411_749,
            feature_dim: 128,
            skew: 2.4,
            // The real MOOC graph has ~1.4% item (course) nodes; scaled
            // replicas keep a slightly larger catalog so the item side
            // does not collapse to a handful of nodes.
            item_fraction: 0.08,
            repeat_prob: 0.6,
            burstiness: 0.25,
            scale: 1.0,
            min_nodes: 4,
            node_scale: None,
            pool_fraction: 0.15,
            rotation: 0.35,
            partner_cap: 10,
        }
    }

    /// Profile of the Wikipedia Talk network (2.39 M / 5.02 M / 32; very
    /// sparse, avg degree ≈ 2.1).
    pub fn wiki_talk() -> Self {
        SynthConfig {
            name: "WIKI-TALK".into(),
            num_nodes: 2_394_385,
            num_events: 5_021_410,
            feature_dim: 32,
            skew: 2.8,
            item_fraction: 0.0,
            repeat_prob: 0.25,
            burstiness: 0.4,
            scale: 1.0,
            min_nodes: 4,
            node_scale: None,
            pool_fraction: 0.15,
            rotation: 0.35,
            partner_cap: 10,
        }
    }

    /// Profile of the Stack Overflow temporal network (2.6 M / 63.5 M / 32).
    pub fn sx_full() -> Self {
        SynthConfig {
            name: "SX-FULL".into(),
            num_nodes: 2_601_977,
            num_events: 63_497_050,
            feature_dim: 32,
            skew: 2.5,
            item_fraction: 0.0,
            repeat_prob: 0.35,
            burstiness: 0.45,
            scale: 1.0,
            min_nodes: 4,
            node_scale: None,
            pool_fraction: 0.15,
            rotation: 0.35,
            partner_cap: 10,
        }
    }

    /// Profile of the GDELT news-event graph (16,682 / 191 M / 186) —
    /// billion-scale event count on a small node set.
    pub fn gdelt() -> Self {
        SynthConfig {
            name: "GDELT".into(),
            num_nodes: 16_682,
            num_events: 191_290_882,
            feature_dim: 186,
            skew: 2.0,
            item_fraction: 0.0,
            repeat_prob: 0.5,
            burstiness: 0.5,
            scale: 1.0,
            min_nodes: 48,
            node_scale: None,
            pool_fraction: 0.30,
            rotation: 0.35,
            partner_cap: 10,
        }
    }

    /// Profile of the MAG paper-citation graph (121.8 M / 1.30 B / 32).
    pub fn mag() -> Self {
        SynthConfig {
            name: "MAG".into(),
            num_nodes: 121_751_665,
            num_events: 1_297_748_926,
            feature_dim: 32,
            skew: 2.3,
            item_fraction: 0.0,
            repeat_prob: 0.5,
            burstiness: 0.2,
            scale: 1.0,
            min_nodes: 48,
            node_scale: None,
            pool_fraction: 0.06,
            rotation: 0.35,
            partner_cap: 10,
        }
    }

    /// The profile named `name`, case-insensitively: `wiki`, `reddit`,
    /// `mooc`, `wiki-talk`, `sx-full`, `gdelt` or `mag`.
    pub fn by_name(name: &str) -> Option<SynthConfig> {
        Some(match name.to_lowercase().as_str() {
            "wiki" => SynthConfig::wiki(),
            "reddit" => SynthConfig::reddit(),
            "mooc" => SynthConfig::mooc(),
            "wiki-talk" => SynthConfig::wiki_talk(),
            "sx-full" => SynthConfig::sx_full(),
            "gdelt" => SynthConfig::gdelt(),
            "mag" => SynthConfig::mag(),
            _ => return None,
        })
    }

    /// All five moderate-size profiles in the paper's ordering.
    pub fn moderate_profiles() -> Vec<SynthConfig> {
        vec![
            SynthConfig::wiki(),
            SynthConfig::reddit(),
            SynthConfig::mooc(),
            SynthConfig::wiki_talk(),
            SynthConfig::sx_full(),
        ]
    }

    /// Both billion-scale profiles.
    pub fn large_profiles() -> Vec<SynthConfig> {
        vec![SynthConfig::gdelt(), SynthConfig::mag()]
    }

    /// Returns the profile scaled by `scale` (node and event counts).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// Scaled node count (at least `min_nodes`).
    fn scaled_nodes(&self) -> usize {
        let s = self.node_scale.unwrap_or(self.scale);
        ((self.num_nodes as f64 * s).round() as usize).max(self.min_nodes.max(4))
    }

    /// Overrides the node-count scale independently of the event scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_node_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "node scale must be positive"
        );
        self.node_scale = Some(scale);
        self
    }

    /// Overrides the edge-feature width (used by the scaled experiment
    /// harness to keep compute tractable).
    pub fn with_feature_dim(mut self, dim: usize) -> Self {
        self.feature_dim = dim;
        self
    }

    /// Scaled event count (at least 8).
    fn scaled_events(&self) -> usize {
        ((self.num_events as f64 * self.scale).round() as usize).max(8)
    }

    /// Generates the dataset deterministically from `seed`.
    ///
    /// Sources (and, in bipartite profiles, items) are drawn from a
    /// *sliding activity window*: node populations arrive, stay hot for a
    /// stretch, and fade — the churn real interaction data exhibits. This
    /// bounds any node's dependency closure the same way it is bounded in
    /// the paper's datasets (Figure 3: even hubs see only 140–175 events
    /// per 900-event batch), which is the property Cascade's endurance
    /// budgeting relies on. Within the active window, activity is skewed
    /// (`skew`) so momentary hubs exist.
    pub fn generate(&self, seed: u64) -> Dataset {
        let n = self.scaled_nodes();
        let m = self.scaled_events();
        let mut rng = DetRng::new(seed);

        let items_start = ((n as f64) * (1.0 - self.item_fraction)) as usize;
        let users = items_start.max(1);
        let items = n - items_start;

        // Activity-window widths (nodes simultaneously active).
        let user_span =
            ((users as f64 * self.pool_fraction.max(0.01) * 4.0) as usize).clamp(1, users);
        let item_span = if items > 0 {
            ((items as f64 * self.pool_fraction.max(0.01) * 8.0) as usize).clamp(1, items)
        } else {
            0
        };

        // Recent partners per user, bounded ring of `partner_cap`.
        let cap = self.partner_cap.max(1);
        let mut recent: Vec<Vec<u32>> = vec![Vec::new(); users];

        let mut events = Vec::with_capacity(m);
        let mut t = 0.0f64;
        for i in 0..m {
            // Bursty inter-arrival.
            let u: f64 = rng.f64().max(1e-12);
            let mut dt = -u.ln();
            if rng.chance(self.burstiness) {
                dt *= 0.05;
            }
            t += dt;

            // Sliding frontier: the population in play at event i.
            let progress = i as f64 / m as f64;
            let user_frontier = user_span + ((users - user_span) as f64 * progress) as usize;
            let src = (user_frontier - 1 - skewed_index(&mut rng, user_span, self.skew)) as u32;

            let dst = if !recent[src as usize].is_empty() && rng.chance(self.repeat_prob) {
                let hist = &recent[src as usize];
                hist[rng.index(hist.len())]
            } else if items > 0 {
                let item_frontier = item_span + ((items - item_span) as f64 * progress) as usize;
                let local = item_frontier - 1 - skewed_index(&mut rng, item_span, self.skew);
                (items_start + local) as u32
            } else {
                // Unipartite: another node from the active window.
                let mut d =
                    (user_frontier - 1 - skewed_index(&mut rng, user_span, self.skew)) as u32;
                if d == src {
                    d = if d + 1 < users as u32 {
                        d + 1
                    } else {
                        d.saturating_sub(1)
                    };
                }
                d
            };

            let hist = &mut recent[src as usize];
            if !hist.contains(&dst) {
                if hist.len() >= cap {
                    hist.remove(0);
                }
                hist.push(dst);
            }

            events.push(Event::new(src, dst, t));
        }

        let stream = EventStream::new(events).expect("generated times are monotone");
        let features = synth_features(stream.len(), self.feature_dim, seed.wrapping_add(1));
        Dataset::new(self.name.clone(), stream, features)
    }
}

/// Samples an index in `[0, n)` with power-law skew `k`: the density of
/// index `x` is proportional to `x^(1/k − 1)` — `k = 1` is uniform, larger
/// `k` concentrates on small indices (hubs).
fn skewed_index(rng: &mut DetRng, n: usize, k: f64) -> usize {
    let u: f64 = rng.f64();
    let idx = (u.powf(k) * n as f64) as usize;
    idx.min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_is_case_insensitive() {
        let all = SynthConfig::moderate_profiles()
            .into_iter()
            .chain(SynthConfig::large_profiles());
        for profile in all {
            let lower = profile.name.to_lowercase();
            assert_eq!(
                SynthConfig::by_name(&lower).map(|p| p.name),
                Some(profile.name.clone())
            );
            assert_eq!(
                SynthConfig::by_name(&profile.name).map(|p| p.name),
                Some(profile.name)
            );
        }
        assert!(SynthConfig::by_name("nope").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::wiki().with_scale(0.01);
        let a = cfg.generate(7);
        let b = cfg.generate(7);
        assert_eq!(a.num_events(), b.num_events());
        assert_eq!(a.stream().events()[10], b.stream().events()[10]);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SynthConfig::wiki().with_scale(0.01);
        let a = cfg.generate(1);
        let b = cfg.generate(2);
        assert_ne!(a.stream().events()[0..20], b.stream().events()[0..20]);
    }

    #[test]
    fn scaled_counts_shrink() {
        let cfg = SynthConfig::reddit().with_scale(0.01);
        let d = cfg.generate(0);
        assert!(d.num_events() <= 7000);
        assert!(d.num_nodes() <= 200);
    }

    #[test]
    fn timestamps_monotone() {
        let d = SynthConfig::mooc().with_scale(0.005).generate(3);
        let times: Vec<f64> = d.stream().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn activity_is_skewed() {
        // A small set of hub nodes should absorb a large share of events.
        let d = SynthConfig::wiki().with_scale(0.05).generate(11);
        let mut deg = vec![0usize; d.num_nodes()];
        for e in d.stream() {
            deg[e.src.index()] += 1;
            deg[e.dst.index()] += 1;
        }
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = deg.iter().take(deg.len() / 10).sum();
        let total: usize = deg.iter().sum();
        assert!(
            top10 as f64 > 0.4 * total as f64,
            "top-10% nodes hold only {}/{} of degree",
            top10,
            total
        );
    }

    #[test]
    fn bipartite_destinations_in_item_range() {
        let cfg = SynthConfig::reddit().with_scale(0.02);
        let d = cfg.generate(5);
        let items_start = ((cfg.scaled_nodes() as f64) * (1.0 - cfg.item_fraction)) as usize;
        // Destinations are items or recent partners (which are items too).
        for e in d.stream() {
            assert!(e.dst.index() >= items_start || e.dst.index() < items_start);
            assert!((e.src.index()) < items_start);
        }
    }

    #[test]
    fn profiles_match_table2_at_full_scale() {
        assert_eq!(SynthConfig::wiki().num_nodes, 9_227);
        assert_eq!(SynthConfig::wiki().num_events, 157_474);
        assert_eq!(SynthConfig::wiki().feature_dim, 172);
        assert_eq!(SynthConfig::reddit().num_events, 672_447);
        assert_eq!(SynthConfig::mooc().feature_dim, 128);
        assert_eq!(SynthConfig::wiki_talk().num_nodes, 2_394_385);
        assert_eq!(SynthConfig::sx_full().num_events, 63_497_050);
        assert_eq!(SynthConfig::gdelt().feature_dim, 186);
        assert_eq!(SynthConfig::mag().num_events, 1_297_748_926);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_scale() {
        let _ = SynthConfig::wiki().with_scale(0.0);
    }
}
