//! The TCP server: accept loop, predict workers, and the single ingest
//! thread.
//!
//! This is the designated concurrency module of `cascade-serve` (see
//! the `conc-spawn` allowlist in `cascade-lint`): every thread the
//! serving stack spawns is created — and joined — here.
//!
//! Thread topology:
//!
//! * **ingest** (1): owns the [`Engine`] and with it all memory writes;
//!   drains [`IngestJob`]s from an mpsc queue, acks each one after its
//!   WAL sync + apply.
//! * **accept** (1): blocks on `TcpListener::accept`, hands streams to
//!   the worker queue.
//! * **workers** (N): pull connections, answer `/predict` and `/stats`
//!   against lock-free snapshots, forward `/ingest` to the ingest
//!   thread and relay its ack. A keep-alive connection occupies its
//!   worker until the client closes it, so size the pool to the
//!   expected concurrent connections.
//!
//! Shutdown: a shared flag plus a self-connection to unblock `accept`;
//! workers notice the flag at their next read-timeout tick, the stream
//! queue disconnects, and when the last worker (each holding a job
//! sender) exits, the ingest queue disconnects and the ingest thread
//! drains out. [`Server::shutdown`] joins everything.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use cascade_tgraph::{Event, NodeId};
use cascade_util::Json;

use crate::engine::{Engine, IngestAck, SharedState};
use crate::error::ServeError;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::proto::{
    error_response, ingest_response, parse_ingest, parse_predict, predict_response,
};
use crate::stats::Timer;

/// Poll interval at which idle connections re-check the shutdown flag.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// One ingest request in flight to the ingest thread.
struct IngestJob {
    events: Vec<Event>,
    features: Vec<f32>,
    reply: Sender<Result<IngestAck, ServeError>>,
}

/// A running server; dropping it without [`Server::shutdown`] detaches
/// the threads (they exit when the process does).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<SharedState>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// thread pool around `engine`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the listener cannot bind.
    pub fn start(engine: Engine, addr: &str, workers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = engine.shared();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        let (job_tx, job_rx) = channel::<IngestJob>();
        threads.push(std::thread::spawn(move || ingest_loop(engine, job_rx)));

        let (conn_tx, conn_rx) = channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        for _ in 0..workers.max(1) {
            let rx = conn_rx.clone();
            let shared = shared.clone();
            let job_tx = job_tx.clone();
            let stop = shutdown.clone();
            threads.push(std::thread::spawn(move || {
                worker_loop(&rx, &shared, &job_tx, &stop)
            }));
        }
        // The workers hold the only long-lived job senders: when they
        // exit, the ingest queue disconnects and the ingest thread
        // finishes. Drop the original here-held sender accordingly.
        drop(job_tx);

        let stop = shutdown.clone();
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &conn_tx, &stop)
        }));

        Ok(Server {
            addr,
            shared,
            shutdown,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The state shared with this server's workers — for reading stats
    /// in tests and benches.
    pub fn shared(&self) -> Arc<SharedState> {
        self.shared.clone()
    }

    /// Stops accepting, drains the threads, and joins them. All acked
    /// ingests are durable before this returns (they were durable
    /// before they were acked).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        TcpStream::connect(self.addr).ok();
        for t in self.threads.drain(..) {
            t.join().ok();
        }
    }
}

fn ingest_loop(mut engine: Engine, jobs: Receiver<IngestJob>) {
    while let Ok(job) = jobs.recv() {
        let result = engine.ingest(&job.events, &job.features);
        // A dropped reply receiver means the worker gave up on the
        // connection; the events are still durably applied.
        job.reply.send(result).ok();
    }
}

fn accept_loop(listener: &TcpListener, conns: &Sender<TcpStream>, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // Responses are written whole; Nagle would still delay
                // the final segment of multi-segment bodies behind the
                // client's delayed ACK.
                stream.set_nodelay(true).ok();
                if conns.send(stream).is_err() {
                    return;
                }
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake);
                // keep serving.
            }
        }
    }
}

fn worker_loop(
    conns: &Mutex<Receiver<TcpStream>>,
    shared: &Arc<SharedState>,
    jobs: &Sender<IngestJob>,
    stop: &AtomicBool,
) {
    loop {
        let next = {
            let rx = conns.lock().unwrap_or_else(PoisonError::into_inner);
            // The shared-Receiver-behind-Mutex idiom: the lock exists to
            // serialize recv_timeout among workers, the timeout bounds the
            // hold, and no other lock is ever taken with it.
            rx.recv_timeout(IDLE_TICK)
        };
        match next {
            Ok(stream) => handle_connection(stream, shared, jobs, stop),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    shared: &Arc<SharedState>,
    jobs: &Sender<IngestJob>,
    stop: &AtomicBool,
) {
    if stream.set_read_timeout(Some(IDLE_TICK)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_request(&mut reader) {
            Ok(r) => r,
            Err(HttpError::Closed) => return,
            Err(HttpError::Idle) => continue,
            Err(HttpError::Malformed(msg)) => {
                write_response(&mut writer, 400, &error_response(&msg).to_string(), false).ok();
                return;
            }
            Err(HttpError::TooLarge(n)) => {
                let msg = format!("body of {} bytes exceeds the limit", n);
                write_response(&mut writer, 400, &error_response(&msg).to_string(), false).ok();
                return;
            }
            Err(HttpError::Io(_)) => return,
        };
        let keep_alive = request.keep_alive;
        let (status, body) = route(&request, shared, jobs);
        if write_response(&mut writer, status, &body.to_string(), keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

fn route(request: &Request, shared: &Arc<SharedState>, jobs: &Sender<IngestJob>) -> (u16, Json) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => handle_predict(&request.body, shared),
        ("POST", "/ingest") => handle_ingest(&request.body, shared, jobs),
        ("GET", "/stats") => (200, shared.stats.to_json()),
        ("POST" | "GET", _) => (404, error_response("no such endpoint")),
        _ => (405, error_response("method not allowed")),
    }
}

fn handle_predict(body: &str, shared: &Arc<SharedState>) -> (u16, Json) {
    let timer = Timer::start();
    let req = match parse_predict(body) {
        Ok(r) => r,
        Err(e) => return (400, error_response(&e.to_string())),
    };
    let snap = shared.snapshot();
    let num_nodes = snap.model.num_nodes();
    if req.src as usize >= num_nodes || req.dsts.iter().any(|d| *d as usize >= num_nodes) {
        return (
            400,
            error_response(&format!("node ids must be below {}", num_nodes)),
        );
    }
    let dsts: Vec<NodeId> = req.dsts.iter().map(|d| NodeId(*d)).collect();
    let scores = snap
        .model
        .score_links(NodeId(req.src), &dsts, req.time, &snap.feats);
    shared.stats.queries_served.fetch_add(1, Ordering::Relaxed);
    timer.stop(&shared.stats.predict_latency);
    (200, predict_response(&scores, snap.events))
}

fn handle_ingest(body: &str, shared: &Arc<SharedState>, jobs: &Sender<IngestJob>) -> (u16, Json) {
    let timer = Timer::start();
    let feature_dim = shared.snapshot().model.edge_feat_dim();
    let req = match parse_ingest(body, feature_dim) {
        Ok(r) => r,
        Err(e) => return (400, error_response(&e.to_string())),
    };
    let (reply_tx, reply_rx) = channel();
    let job = IngestJob {
        events: req.events,
        features: req.features,
        reply: reply_tx,
    };
    if jobs.send(job).is_err() {
        return (503, error_response("ingest pipeline is shut down"));
    }
    match reply_rx.recv() {
        Ok(Ok(ack)) => {
            shared.stats.ingest_requests.fetch_add(1, Ordering::Relaxed);
            timer.stop(&shared.stats.ingest_latency);
            (200, ingest_response(ack.acked, ack.total_acked))
        }
        Ok(Err(ServeError::BadRequest(msg))) => (400, error_response(&msg)),
        Ok(Err(e)) => (500, error_response(&e.to_string())),
        Err(_) => (503, error_response("ingest pipeline is shut down")),
    }
}
