//! The serve phase every workload ends with: the trained model goes
//! behind `serve::Server`, a stream prefix is replayed through
//! `/ingest` (closed loop), then `/predict` runs closed loop on its
//! own, then ingest continues at a paced rate while `/predict` runs
//! open loop beside it. One process
//! generates the load, with two connections at most.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use cascade_models::MemoryTgnn;
use cascade_serve::{Engine, EngineConfig, Server, SharedState};
use cascade_tgraph::{Event, NodeId};
use cascade_util::{DetRng, Json};

use crate::client::{run_open_loop, Client, OpenLoop, Sample, WallClock};
use crate::spec::Spec;
use crate::stats::median;
use crate::trace::Trace;

/// One `/ingest` request: the events, and the body rendered from them.
pub struct IngestBatch {
    /// The request's events, in stream order.
    pub events: Vec<Event>,
    /// Their feature rows, row-major.
    pub features: Vec<f32>,
    /// The JSON body, rendered at set-up.
    pub body: String,
}

/// One `/predict` query and its rendered body.
pub struct Query {
    /// Source node.
    pub src: NodeId,
    /// Candidate destinations.
    pub dsts: Vec<NodeId>,
    /// Query time.
    pub time: f64,
    /// The JSON body, rendered at set-up.
    pub body: String,
}

/// Everything the serve phase sends, rendered before the clock starts.
pub struct ServeInputs {
    /// Ingest requests covering the stream prefix, in order.
    pub batches: Vec<IngestBatch>,
    /// The query pool the predict loops cycle through.
    pub queries: Vec<Query>,
}

/// Queries in the pool. The loops cycle through it, so it only has to
/// be large enough that no source node's rows stay hot in cache.
const QUERY_POOL: usize = 512;
/// Post-quiesce answers compared bit for bit with in-process scoring.
const CHECKED_ANSWERS: usize = 100;
/// Times the closed-loop quiet phase goes through the query pool. No
/// ingest runs beside it, so a query is the same work each time, and
/// what is kept is its fastest round trip; the rounds are there to
/// spread the phase over more of the pass's time, so that more of it
/// meets the host in a quiet moment.
const QUIET_ROUNDS: usize = 3;
/// A query answered within this long of its due time is on time. The
/// fast mode of `/predict` sits well under it and the slow mode (a
/// query that meets a snapshot swap, and the queries queued behind it)
/// well over, so the on-time share moves smoothly where a fixed
/// percentile would jump between the two modes.
pub const PREDICT_LIMIT_US: f64 = 1000.0;

/// Renders one event as the `/ingest` wire object. Floats are written
/// through `f64`'s shortest round-trip form, so the server's
/// `f64 → f32` parse gives back the exact bits the trainer saw.
fn render_event(out: &mut String, e: &Event, row: &[f32]) {
    use std::fmt::Write;
    write!(
        out,
        "{{\"src\":{},\"dst\":{},\"time\":{},\"features\":[",
        e.src.0, e.dst.0, e.time
    )
    .expect("writing to a String cannot fail");
    for (i, x) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{}", *x as f64).expect("writing to a String cannot fail");
    }
    out.push_str("]}");
}

/// Cuts the normalized stream prefix into the spec's ingest requests
/// and draws the query pool over the served model's `nodes` from the
/// run's seed.
///
/// # Panics
///
/// Panics when the prefix is shorter than the spec's serve phase.
pub fn render_inputs(spec: &Spec, events: &[Event], features: &[f32], nodes: usize) -> ServeInputs {
    let dim = spec.recipe.feature_dim;
    let per_request = spec.serve.request_events;
    assert!(
        events.len() >= spec.serve_events(),
        "serve prefix too short"
    );
    assert_eq!(features.len(), events.len() * dim, "feature rows mismatch");
    let batches: Vec<IngestBatch> = (0..spec.serve_requests())
        .map(|r| {
            let range = r * per_request..(r + 1) * per_request;
            let mut body = String::from("{\"events\":[");
            for i in range.clone() {
                if i > range.start {
                    body.push(',');
                }
                render_event(&mut body, &events[i], &features[i * dim..(i + 1) * dim]);
            }
            body.push_str("]}");
            IngestBatch {
                events: events[range.clone()].to_vec(),
                features: features[range.start * dim..range.end * dim].to_vec(),
                body,
            }
        })
        .collect();

    // Sources are endpoints of replayed events, so their memories and
    // neighbourhoods are populated when the queries run; candidates are
    // uniform over the node space.
    let replayed = spec.serve.replay_requests * per_request;
    let time = events[spec.serve_events() - 1].time;
    let mut rng = DetRng::new(spec.seed ^ 0x5e72_7665);
    let queries = (0..QUERY_POOL)
        .map(|_| {
            let src = events[rng.index(replayed)].src;
            let dsts: Vec<NodeId> = (0..spec.serve.candidates)
                .map(|_| NodeId(rng.index(nodes) as u32))
                .collect();
            let list: Vec<String> = dsts.iter().map(|d| d.0.to_string()).collect();
            Query {
                src,
                body: format!(
                    "{{\"src\":{},\"dsts\":[{}],\"time\":{}}}",
                    src.0,
                    list.join(","),
                    time
                ),
                dsts,
                time,
            }
        })
        .collect();
    ServeInputs { batches, queries }
}

/// The in-process probes only a traced run takes.
pub struct Probes {
    /// In-process `snapshot()` + `score_links` on the quiet phase's
    /// queries, microseconds.
    pub score_us: Vec<f64>,
    /// The replay batches through `Engine::ingest` on a fresh WAL, no
    /// HTTP and no JSON: events per second.
    pub engine_ingest_events_per_s: f64,
}

/// What the serve phase measured.
pub struct ServeOutcome {
    /// `Engine::open` + `Server::start`, seconds.
    pub start_s: f64,
    /// Events the replay phase sent.
    pub replay_events: usize,
    /// Wall seconds of the replay phase.
    pub replay_wall_s: f64,
    /// Round trip of each replay request, milliseconds, in send order.
    pub ingest_ms: Vec<f64>,
    /// The mixed phase's open-loop `/predict` samples.
    pub predict: Vec<Sample>,
    /// Each pool query's fastest `/predict` round trip of the quiet
    /// phase, microseconds, in pool order.
    pub quiet_us: Vec<f64>,
    /// Requests sent (ingest and predict, every phase).
    pub attempted: u64,
    /// Requests that failed: transport error, non-200, or short ack.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Traced runs only.
    pub probes: Option<Probes>,
}

impl ServeOutcome {
    /// Last-decile over first-decile median of the replay latencies:
    /// 1.0 means ingest cost is flat in uptime.
    pub fn ingest_growth(&self) -> f64 {
        let decile = (self.ingest_ms.len() / 10).max(1);
        let first = median(&self.ingest_ms[..decile]);
        let last = median(&self.ingest_ms[self.ingest_ms.len() - decile..]);
        last / first
    }
}

/// Posts one ingest body; the request fails unless it is answered 200
/// with every event acked.
fn post_ingest(client: &mut Client, batch: &IngestBatch) -> bool {
    match client.request("POST", "/ingest", &batch.body) {
        Ok((200, text)) => {
            Json::parse(&text)
                .ok()
                .and_then(|j| j.get("acked").and_then(Json::as_usize))
                == Some(batch.events.len())
        }
        _ => false,
    }
}

/// Posts one query; `None` unless it is answered 200 with one score
/// per candidate.
fn post_predict(client: &mut Client, query: &Query) -> Option<Vec<f32>> {
    let (status, text) = client.request("POST", "/predict", &query.body).ok()?;
    if status != 200 {
        return None;
    }
    let json = Json::parse(&text).ok()?;
    let scores: Vec<f32> = json
        .get("scores")?
        .as_arr()?
        .iter()
        .filter_map(|s| s.as_f64().map(|x| x as f32))
        .collect();
    (scores.len() == query.dsts.len()).then_some(scores)
}

fn connect(addr: SocketAddr, poll: bool) -> Result<Client, String> {
    Client::connect(addr, poll).map_err(|e| format!("cannot connect to {}: {}", addr, e))
}

/// Puts `model` (trained parameters, cold state) behind a server and
/// runs the replay, quiet and mixed phases, the output checks, and —
/// when `probe` is set — the traced run's in-process probes. Request spans go to `trace` when one is given. The WAL and snapshot are created
/// under `scratch`, which must not hold an earlier run's.
///
/// # Errors
///
/// Failures to start or reach the server. Failed requests and failed
/// checks are *results* (`failed`, `problems`), not errors.
pub fn run_serve(
    spec: &Spec,
    mut model: MemoryTgnn,
    inputs: &ServeInputs,
    scratch: &Path,
    probe: bool,
    trace: Option<&Trace>,
) -> Result<ServeOutcome, String> {
    model.reset_state();
    let engine_ingest_events_per_s = if probe {
        Some(engine_only_replay(spec, model.clone(), inputs, scratch)?)
    } else {
        None
    };

    let started = Instant::now();
    let engine = Engine::open(
        model,
        EngineConfig::new(scratch.join("serve.wal"), scratch.join("serve.csc")),
    )
    .map_err(|e| format!("cannot open serve engine: {}", e))?;
    let server = Server::start(engine, "127.0.0.1:0", 2)
        .map_err(|e| format!("cannot start server: {}", e))?;
    let start_s = started.elapsed().as_secs_f64();

    let shared = server.shared();
    let outcome = drive(
        spec,
        server.addr(),
        &shared,
        inputs,
        engine_ingest_events_per_s,
        trace,
    );
    server.shutdown();
    outcome.map(|measured| ServeOutcome {
        start_s,
        ..measured
    })
}

/// The replay batches through `Engine::ingest` in this thread, on a WAL
/// of their own: events per second with no HTTP and no JSON.
fn engine_only_replay(
    spec: &Spec,
    model: MemoryTgnn,
    inputs: &ServeInputs,
    scratch: &Path,
) -> Result<f64, String> {
    let mut engine = Engine::open(
        model,
        EngineConfig::new(scratch.join("probe.wal"), scratch.join("probe.csc")),
    )
    .map_err(|e| format!("cannot open probe engine: {}", e))?;
    let replay = &inputs.batches[..spec.serve.replay_requests];
    let started = Instant::now();
    let mut events = 0usize;
    for batch in replay {
        events += engine
            .ingest(&batch.events, &batch.features)
            .map_err(|e| format!("in-process ingest failed: {}", e))?
            .acked;
    }
    Ok(events as f64 / started.elapsed().as_secs_f64())
}

fn drive(
    spec: &Spec,
    addr: SocketAddr,
    shared: &SharedState,
    inputs: &ServeInputs,
    engine_ingest_events_per_s: Option<f64>,
    trace: Option<&Trace>,
) -> Result<ServeOutcome, String> {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let (replay, paced) = inputs.batches.split_at(spec.serve.replay_requests);

    // Phase replay: one connection, the next request leaves when the
    // previous one is acked.
    let mut ingest_client = connect(addr, false)?;
    let mut ingest_ms = Vec::with_capacity(replay.len());
    let phase_ns = trace.map(Trace::now_ns);
    let replay_started = Instant::now();
    for (i, batch) in replay.iter().enumerate() {
        let t = Instant::now();
        let ok = post_ingest(&mut ingest_client, batch);
        let took = t.elapsed();
        attempted += 1;
        failed += u64::from(!ok);
        ingest_ms.push(took.as_secs_f64() * 1e3);
        if let (Some(trace), Some(base)) = (trace, phase_ns) {
            let start = base + (t - replay_started).as_nanos() as u64;
            trace.add(
                "serve.ingest_request",
                start,
                start + took.as_nanos() as u64,
                Some(i as u64),
            );
        }
    }
    let replay_wall_s = replay_started.elapsed().as_secs_f64();
    let mut sent_events: usize = replay.iter().map(|b| b.events.len()).sum();
    let replay_events = sent_events;

    // Phase quiet: closed loop, nothing else running, the client
    // polling. Back-to-back queries from a client that never sleeps
    // keep both ends awake and on their own cores, so a round trip is
    // the service time plus the HTTP exchange, not the guest's wake-up
    // from idle or the scheduler's choice of core. It runs on the state
    // the replay left, which is the same in every pass. The server has
    // two workers and a keep-alive connection holds one, so this
    // connection closes before the mixed phase opens its second.
    let pool = inputs.queries.len();
    let mut quiet_us = vec![f64::INFINITY; pool];
    {
        let mut quiet_client = connect(addr, true)?;
        for i in 0..QUIET_ROUNDS * pool {
            let t = Instant::now();
            let ok = post_predict(&mut quiet_client, &inputs.queries[i % pool]).is_some();
            let us = t.elapsed().as_secs_f64() * 1e6;
            quiet_us[i % pool] = quiet_us[i % pool].min(us);
            attempted += 1;
            failed += u64::from(!ok);
        }
    }

    // Phase mixed: the ingest connection keeps going at the paced rate
    // while a second connection sends queries on an open-loop schedule.
    let mut predict_client = connect(addr, false)?;
    let duration_ns = (spec.serve.mixed_seconds * 1e9) as u64;
    let ingest_schedule =
        OpenLoop::at_rate(spec.serve.ingest_rate / spec.serve.request_events as f64);
    let paced_count = ingest_schedule.planned(duration_ns).min(paced.len() as u64);
    let predict_schedule = OpenLoop::at_rate(spec.serve.predict_rate);
    let predict_count = predict_schedule.planned(duration_ns);
    let phase_ns = trace.map(Trace::now_ns);
    let clock = WallClock(Instant::now());
    let mut predict_failed = 0u64;
    let (paced_failed, predict) = std::thread::scope(|scope| {
        let pacer = scope.spawn(|| {
            let mut paced_failed = 0u64;
            run_open_loop(ingest_schedule, paced_count, &clock, |i| {
                paced_failed += u64::from(!post_ingest(&mut ingest_client, &paced[i as usize]));
            });
            paced_failed
        });
        let samples = run_open_loop(predict_schedule, predict_count, &clock, |i| {
            let query = &inputs.queries[i as usize % inputs.queries.len()];
            predict_failed += u64::from(post_predict(&mut predict_client, query).is_none());
        });
        (pacer.join(), samples)
    });
    let paced_failed = paced_failed.map_err(|_| "the ingest pacer panicked".to_string())?;
    attempted += paced_count + predict_count;
    failed += paced_failed + predict_failed;
    sent_events += paced[..paced_count as usize]
        .iter()
        .map(|b| b.events.len())
        .sum::<usize>();
    if let (Some(trace), Some(base)) = (trace, phase_ns) {
        for (i, s) in predict.iter().enumerate() {
            trace.add(
                "serve.predict_request",
                base + s.sent_ns,
                base + s.done_ns,
                Some(i as u64),
            );
        }
    }

    // Quiesce: both loops have returned, so nothing is in flight.
    let acked = shared.stats.events_acked.load(Ordering::Relaxed) as usize;
    if failed == 0 && acked != sent_events {
        problems.push(format!("acked {} of {} events sent", acked, sent_events));
    }
    if shared.stats.staleness_lag() != 0 {
        problems.push(format!(
            "staleness lag is {} at quiesce",
            shared.stats.staleness_lag()
        ));
    }
    let published = predict_client
        .request("GET", "/stats", "")
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, text)| Json::parse(&text).ok())
        .and_then(|j| j.get("events_published").and_then(Json::as_usize));
    if published != Some(acked) || shared.snapshot().events != acked {
        problems.push(format!(
            "/stats publishes {:?} events, snapshot holds {}, acked {}",
            published,
            shared.snapshot().events,
            acked
        ));
    }

    // Served answers must be the in-process scores, bit for bit.
    let snapshot = shared.snapshot();
    for (i, query) in inputs.queries.iter().take(CHECKED_ANSWERS).enumerate() {
        attempted += 1;
        let served = post_predict(&mut predict_client, query);
        let local = snapshot
            .model
            .score_links(query.src, &query.dsts, query.time, &snapshot.feats);
        let same = served.as_ref().is_some_and(|s| {
            s.iter()
                .zip(&local)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if served.is_none() {
            failed += 1;
        } else if !same {
            problems.push(format!(
                "query {}: served scores differ from score_links",
                i
            ));
            break;
        }
    }

    let probes = engine_ingest_events_per_s.map(|engine_ingest_events_per_s| {
        let mut score_us = Vec::with_capacity(QUIET_ROUNDS * pool);
        for i in 0..QUIET_ROUNDS * pool {
            let query = &inputs.queries[i % pool];
            let t = Instant::now();
            let snap = shared.snapshot();
            let scores = snap
                .model
                .score_links(query.src, &query.dsts, query.time, &snap.feats);
            std::hint::black_box(scores);
            score_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Probes {
            score_us,
            engine_ingest_events_per_s,
        }
    });

    Ok(ServeOutcome {
        // The caller started the server and knows how long that took.
        start_s: 0.0,
        replay_events,
        replay_wall_s,
        ingest_ms,
        predict,
        quiet_us,
        attempted,
        failed,
        problems,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_bodies_parse_back_to_the_same_bits() {
        let spec = Spec::load("wide_store", Some(3))
            .expect("committed spec")
            .scaled(0.02);
        let dim = spec.recipe.feature_dim;
        let n = spec.serve_events();
        let events: Vec<Event> = (0..n)
            .map(|i| Event::new((i % 97) as u32, (i % 89) as u32, 0.1 + i as f64 / 3.0))
            .collect();
        // Awkward floats: subnormals, values with long decimal tails.
        let features: Vec<f32> = (0..n * dim)
            .map(|i| f32::from_bits(0x3d00_0001u32.wrapping_mul(i as u32 | 1)))
            .map(|x| if x.is_finite() { x } else { 0.333_333_34 })
            .collect();
        let inputs = render_inputs(&spec, &events, &features, spec.recipe.nodes);
        assert_eq!(inputs.batches.len(), spec.serve_requests());
        assert_eq!(inputs.queries.len(), QUERY_POOL);
        for batch in &inputs.batches {
            let parsed = Json::parse(&batch.body).expect("body is JSON");
            let wire = parsed.get("events").and_then(Json::as_arr).expect("events");
            assert_eq!(wire.len(), batch.events.len());
            for (k, (w, e)) in wire.iter().zip(&batch.events).enumerate() {
                let time = w.get("time").and_then(Json::as_f64).expect("time");
                assert_eq!(time.to_bits(), e.time.to_bits());
                let row = w.get("features").and_then(Json::as_arr).expect("row");
                for (j, x) in row.iter().enumerate() {
                    let back = x.as_f64().expect("number") as f32;
                    assert_eq!(back.to_bits(), batch.features[k * dim + j].to_bits());
                }
            }
        }
        let q = &inputs.queries[0];
        let parsed = Json::parse(&q.body).expect("query is JSON");
        assert_eq!(
            parsed.get("dsts").and_then(Json::as_arr).map(<[Json]>::len),
            Some(spec.serve.candidates)
        );
    }

    #[test]
    fn growth_compares_the_outer_deciles() {
        let mut outcome = ServeOutcome {
            start_s: 0.0,
            replay_events: 0,
            replay_wall_s: 1.0,
            ingest_ms: (0..100).map(|i| if i < 10 { 2.0 } else { 3.0 }).collect(),
            predict: Vec::new(),
            quiet_us: Vec::new(),
            attempted: 100,
            failed: 0,
            problems: Vec::new(),
            probes: None,
        };
        assert_eq!(outcome.ingest_growth(), 1.5);
        outcome.ingest_ms = vec![4.0; 7];
        assert_eq!(outcome.ingest_growth(), 1.0);
    }
}
