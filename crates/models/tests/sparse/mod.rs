//! A stream whose second half is one batch that computes few of the rows
//! a padded layout would: about half of its 4-neighbour slots are padding
//! and about a third of its centers have no mail. The identity suites run
//! it to hold the compacted updater and ragged attention to their
//! contracts where compaction actually drops rows.

use cascade_models::MemoryTgnn;
use cascade_tgraph::{Event, NodeId};
use cascade_util::Gen;

/// Nodes of the stream: the warm-up half touches the first two thirds.
pub const NODES: usize = 360;
/// Events per half.
pub const HALF: usize = 360;
/// Neighbour slots per center.
pub const K: usize = 4;

/// 360 warm-up events among nodes `0..240` (three per node on average,
/// so a `MostRecent(4)` sampler fills some two thirds of their slots),
/// then 360 events over all 360 nodes, a third of whose endpoints have
/// neither history nor mail.
pub fn stream() -> Vec<Event> {
    let mut g = Gen::new(31);
    let mut t = 0.0f64;
    let mut event = |g: &mut Gen, nodes: usize| {
        t += g.f64_in(0.01..1.0);
        Event::new(g.usize_in(0..nodes) as u32, g.usize_in(0..nodes) as u32, t)
    };
    let mut events: Vec<Event> = (0..HALF).map(|_| event(&mut g, 2 * NODES / 3)).collect();
    events.extend((0..HALF).map(|_| event(&mut g, NODES)));
    events
}

/// Shares of the second batch's `MostRecent(K)` src/dst neighbour slots
/// that are padding, and of its centers that have no mail, read off a
/// model that has applied the warm-up half.
#[allow(dead_code)] // not every suite that includes this module asserts the shares
pub fn shares(model: &MemoryTgnn, batch: &[Event]) -> (f64, f64) {
    let slots = 2 * batch.len() * K;
    let valid: usize = batch
        .iter()
        .flat_map(|e| [e.src, e.dst])
        .map(|n| model.plane().adj_degree(n).min(K))
        .sum();
    let mut centers: Vec<NodeId> = batch.iter().flat_map(|e| [e.src, e.dst]).collect();
    centers.sort_unstable_by_key(|n| n.0);
    centers.dedup();
    let mailless = centers
        .iter()
        .filter(|&&n| !model.plane().mailbox_has_messages(n))
        .count();
    (
        1.0 - valid as f64 / slots as f64,
        mailless as f64 / centers.len() as f64,
    )
}
