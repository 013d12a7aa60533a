//! Dataset statistics: Table 2 rows and the Figure 3 intra-batch degree
//! distribution.

use std::fmt;

use crate::dataset::Dataset;
use crate::event::EventStream;

/// Summary statistics of a dataset (one row of Table 2).
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Event (edge) count.
    pub events: usize,
    /// Edge-feature width.
    pub feature_dim: usize,
    /// Events per node.
    pub avg_degree: f64,
}

impl DatasetStats {
    /// Computes statistics for a dataset.
    pub fn of(dataset: &Dataset) -> Self {
        DatasetStats {
            name: dataset.name().to_string(),
            nodes: dataset.num_nodes(),
            events: dataset.num_events(),
            feature_dim: dataset.features().dim(),
            avg_degree: if dataset.num_nodes() == 0 {
                0.0
            } else {
                dataset.num_events() as f64 / dataset.num_nodes() as f64
            },
        }
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>10} {:>12} {:>8} {:>8.1}",
            self.name, self.nodes, self.events, self.feature_dim, self.avg_degree
        )
    }
}

/// Histogram of per-node event counts inside fixed-size batches
/// (Figure 3).
///
/// Splits the stream into consecutive `batch_size` windows; within each
/// window counts how many events touch each involved node, then buckets
/// those counts by `bucket_edges` (right-open; a final unbounded bucket is
/// appended). Returns the fraction of (node, batch) observations per
/// bucket.
///
/// # Panics
///
/// Panics if `batch_size == 0` or `bucket_edges` is not strictly
/// increasing.
pub fn batch_degree_histogram(
    stream: &EventStream,
    batch_size: usize,
    bucket_edges: &[usize],
) -> Vec<f64> {
    assert!(batch_size > 0, "batch_size must be positive");
    assert!(
        bucket_edges.windows(2).all(|w| w[0] < w[1]),
        "bucket_edges must be strictly increasing"
    );
    let mut counts = vec![0usize; bucket_edges.len() + 1];
    let mut total = 0usize;
    let mut degree = vec![0u32; stream.num_nodes()];
    let mut touched: Vec<usize> = Vec::new();

    for chunk in stream.events().chunks(batch_size) {
        for e in chunk {
            for node in [e.src.index(), e.dst.index()] {
                if degree[node] == 0 {
                    touched.push(node);
                }
                degree[node] += 1;
            }
        }
        for &node in &touched {
            let d = degree[node] as usize;
            let bucket = bucket_edges
                .iter()
                .position(|&edge| d < edge)
                .unwrap_or(bucket_edges.len());
            counts[bucket] += 1;
            total += 1;
            degree[node] = 0;
        }
        touched.clear();
    }

    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// The maximum per-node event count observed in any `batch_size` window —
/// the quantity Figure 3 reports as "even the most connected nodes have
/// only 140–175 events".
pub fn max_batch_degree(stream: &EventStream, batch_size: usize) -> usize {
    assert!(batch_size > 0, "batch_size must be positive");
    let mut max = 0usize;
    let mut degree = vec![0u32; stream.num_nodes()];
    let mut touched: Vec<usize> = Vec::new();
    for chunk in stream.events().chunks(batch_size) {
        for e in chunk {
            for node in [e.src.index(), e.dst.index()] {
                if degree[node] == 0 {
                    touched.push(node);
                }
                degree[node] += 1;
                max = max.max(degree[node] as usize);
            }
        }
        for &node in &touched {
            degree[node] = 0;
        }
        touched.clear();
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::EdgeFeatures;
    use crate::event::Event;

    fn stream(pairs: &[(u32, u32)]) -> EventStream {
        EventStream::new(
            pairs
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| Event::new(s, d, i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn stats_row() {
        let d = Dataset::new("T", stream(&[(0, 1), (1, 2)]), EdgeFeatures::none());
        let s = DatasetStats::of(&d);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.events, 2);
        assert!((s.avg_degree - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_fractions_sum_to_one() {
        let s = stream(&[(0, 1), (0, 2), (0, 3), (1, 2), (4, 5), (4, 5)]);
        let h = batch_degree_histogram(&s, 3, &[2, 4]);
        let sum: f64 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_correctly() {
        // One batch of 3 events: degrees — n0: 3, n1: 2, n2: 2, n3: 1.
        let s = stream(&[(0, 1), (0, 2), (0, 3)]);
        let h = batch_degree_histogram(&s, 3, &[2, 3]);
        // n3 (1) < 2 -> bucket 0; n1, n2 (1 each? no: n1:1, n2:1, n3:1)
        // degrees: n0 appears 3×, n1 1×, n2 1×, n3 1×.
        // bucket <2: n1, n2, n3 (3 obs); bucket <3: none; last: n0.
        assert!((h[0] - 0.75).abs() < 1e-9);
        assert!((h[1] - 0.0).abs() < 1e-9);
        assert!((h[2] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn degree_resets_between_batches() {
        // Same hot node in two batches: per-batch max stays 2, not 4.
        let s = stream(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(max_batch_degree(&s, 2), 2);
        assert_eq!(max_batch_degree(&s, 4), 4);
    }

    #[test]
    fn empty_stream_histogram() {
        let s = EventStream::new(vec![]).unwrap();
        let h = batch_degree_histogram(&s, 10, &[5]);
        assert_eq!(h, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_bad_buckets() {
        let s = stream(&[(0, 1)]);
        let _ = batch_degree_histogram(&s, 2, &[5, 5]);
    }
}

#[cfg(test)]
mod temporal_tests {
    use super::*;
    use crate::event::Event;
    use crate::synth::SynthConfig;

    /// Temporal-structure statistics of an event stream — the properties the
    /// synthetic generators must reproduce for Cascade's mechanisms to behave
    /// as on real data (DESIGN.md §2).
    #[derive(Clone, Debug, PartialEq)]
    struct TemporalStats {
        /// Fraction of events whose (src, dst) pair occurred before —
        /// temporal recurrence (users re-contacting partners).
        recurrence_ratio: f64,
        /// Coefficient of variation of inter-event times; > 1 indicates
        /// burstiness beyond a Poisson process.
        interarrival_cv: f64,
        /// Fraction of all endpoint slots occupied by the top 1% most active
        /// nodes — hub concentration.
        hub_share_top1pct: f64,
        /// Mean number of distinct partners per active node.
        mean_distinct_partners: f64,
    }

    impl TemporalStats {
        /// Computes the statistics for a stream.
        ///
        /// Returns zeros for streams with fewer than two events.
        fn of(stream: &EventStream) -> Self {
            if stream.len() < 2 {
                return TemporalStats {
                    recurrence_ratio: 0.0,
                    interarrival_cv: 0.0,
                    hub_share_top1pct: 0.0,
                    mean_distinct_partners: 0.0,
                };
            }

            // Recurrence: repeated (src, dst) pairs.
            let mut seen = std::collections::HashSet::new();
            let mut repeats = 0usize;
            for e in stream {
                if !seen.insert((e.src, e.dst)) {
                    repeats += 1;
                }
            }
            let recurrence_ratio = repeats as f64 / stream.len() as f64;

            // Inter-arrival coefficient of variation.
            let times: Vec<f64> = stream.iter().map(|e| e.time).collect();
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            let interarrival_cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

            // Hub share and distinct partners.
            let mut degree = vec![0usize; stream.num_nodes()];
            let mut partners: Vec<std::collections::HashSet<u32>> =
                vec![std::collections::HashSet::new(); stream.num_nodes()];
            for e in stream {
                degree[e.src.index()] += 1;
                degree[e.dst.index()] += 1;
                partners[e.src.index()].insert(e.dst.0);
                partners[e.dst.index()].insert(e.src.0);
            }
            let mut sorted = degree.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let top = (stream.num_nodes() / 100).max(1);
            let hub_share_top1pct =
                sorted.iter().take(top).sum::<usize>() as f64 / (2 * stream.len()) as f64;

            let active = partners.iter().filter(|p| !p.is_empty()).count().max(1);
            let mean_distinct_partners =
                partners.iter().map(|p| p.len()).sum::<usize>() as f64 / active as f64;

            TemporalStats {
                recurrence_ratio,
                interarrival_cv,
                hub_share_top1pct,
                mean_distinct_partners,
            }
        }
    }

    #[test]
    fn trivial_streams_are_zero() {
        let s = EventStream::new(vec![Event::new(0u32, 1u32, 0.0)]).unwrap();
        assert_eq!(TemporalStats::of(&s).recurrence_ratio, 0.0);
    }

    #[test]
    fn recurrence_counts_repeated_pairs() {
        let s = EventStream::new(vec![
            Event::new(0u32, 1u32, 0.0),
            Event::new(0u32, 1u32, 1.0),
            Event::new(1u32, 2u32, 2.0),
            Event::new(0u32, 1u32, 3.0),
        ])
        .unwrap();
        assert!((TemporalStats::of(&s).recurrence_ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn generated_wiki_has_recurrence_and_burstiness() {
        let d = SynthConfig::wiki().with_scale(0.02).generate(4);
        let t = TemporalStats::of(d.stream());
        assert!(
            t.recurrence_ratio > 0.2,
            "recurrence too low: {}",
            t.recurrence_ratio
        );
        assert!(t.interarrival_cv > 1.0, "not bursty: {}", t.interarrival_cv);
        assert!(t.hub_share_top1pct > 0.01);
        assert!(t.mean_distinct_partners >= 1.0);
    }

    #[test]
    fn sparse_profile_has_low_hub_share() {
        let talk = SynthConfig::wiki_talk().with_scale(0.001).generate(4);
        let reddit = SynthConfig::reddit().with_scale(0.006).generate(4);
        let t_talk = TemporalStats::of(talk.stream());
        let t_reddit = TemporalStats::of(reddit.stream());
        assert!(
            t_talk.hub_share_top1pct < t_reddit.hub_share_top1pct,
            "talk {} vs reddit {}",
            t_talk.hub_share_top1pct,
            t_reddit.hub_share_top1pct
        );
    }
}
