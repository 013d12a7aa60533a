//! End-to-end over real sockets: a raw HTTP/1.1 client (std::net only)
//! exercising ingest → predict → stats, error paths, keep-alive, and a
//! full server restart from the write-ahead log.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_serve::{Engine, EngineConfig, Server, MAX_BODY, MAX_HEADERS, MAX_LINE};
use cascade_util::Json;

const NODES: usize = 8;
const FEAT_DIM: usize = 2;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cascade_serve_e2e_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{}_{}", std::process::id(), name));
    std::fs::remove_file(&p).ok();
    p
}

fn base_model() -> MemoryTgnn {
    MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), NODES, FEAT_DIM, 3)
}

fn start_server(wal: &std::path::Path, snap: &std::path::Path) -> Server {
    let engine =
        Engine::open(base_model(), EngineConfig::new(wal, snap).with_wal_chunk(4)).unwrap();
    Server::start(engine, "127.0.0.1:0", 2).unwrap()
}

/// Reads one HTTP response off `reader`, returning (status, body).
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Json) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status line has a code")
        .parse()
        .unwrap();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (
        status,
        Json::parse(&String::from_utf8(body).unwrap()).unwrap(),
    )
}

fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let req = format!(
        "{} {} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{}",
        method,
        path,
        body.len(),
        body
    );
    stream.write_all(req.as_bytes()).unwrap();
    stream.flush().unwrap();
}

/// One-shot request on a fresh connection.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).unwrap();
    send_request(&mut stream, method, path, body);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    read_response(&mut reader)
}

/// Sends `raw` unchanged on a fresh connection and reads the response.
/// Each refusal below is pinned with input the server reads to its last
/// byte before refusing: closing a socket with unread input resets the
/// connection, which could discard the response in flight.
fn raw_request(addr: std::net::SocketAddr, raw: &[u8]) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

fn ingest_body(range: std::ops::Range<usize>) -> String {
    let events: Vec<String> = range
        .map(|i| {
            format!(
                r#"{{"src": {}, "dst": {}, "time": {}.0, "features": [{}, {}]}}"#,
                i % NODES,
                (i * 3 + 1) % NODES,
                i,
                i as f64 * 0.1,
                0.5
            )
        })
        .collect();
    format!(r#"{{"events": [{}]}}"#, events.join(","))
}

const PREDICT: &str = r#"{"src": 1, "dsts": [2, 3, 4], "time": 1000.0}"#;

#[test]
fn serve_ingest_predict_stats_roundtrip() {
    let wal = tmp("roundtrip.wal");
    let snap = tmp("roundtrip.ckpt");
    let server = start_server(&wal, &snap);
    let addr = server.addr();

    // Ingest two batches; acks carry the durable watermark.
    let (status, body) = request(addr, "POST", "/ingest", &ingest_body(0..6));
    assert_eq!(status, 200, "ingest failed: {}", body);
    assert_eq!(body.get("acked").and_then(Json::as_usize), Some(6));
    assert_eq!(body.get("total_acked").and_then(Json::as_usize), Some(6));
    let (status, body) = request(addr, "POST", "/ingest", &ingest_body(6..10));
    assert_eq!(status, 200);
    assert_eq!(body.get("total_acked").and_then(Json::as_usize), Some(10));

    // Predict sees the full ingested watermark.
    let (status, body) = request(addr, "POST", "/predict", PREDICT);
    assert_eq!(status, 200, "predict failed: {}", body);
    assert_eq!(
        body.get("snapshot_events").and_then(Json::as_usize),
        Some(10)
    );
    let scores = body.get("scores").and_then(Json::as_arr).unwrap();
    assert_eq!(scores.len(), 3);
    assert!(scores.iter().all(|s| s.as_f64().unwrap().is_finite()));

    // Stats reflect the traffic.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("events_acked").and_then(Json::as_usize), Some(10));
    assert_eq!(
        stats.get("events_published").and_then(Json::as_usize),
        Some(10)
    );
    assert_eq!(stats.get("staleness_lag").and_then(Json::as_usize), Some(0));
    assert_eq!(
        stats.get("queries_served").and_then(Json::as_usize),
        Some(1)
    );
    assert_eq!(
        stats.get("ingest_requests").and_then(Json::as_usize),
        Some(2)
    );
    let lat = stats.get("predict_latency").unwrap();
    assert_eq!(lat.get("count").and_then(Json::as_usize), Some(1));
    assert!(lat.get("p99_ms").and_then(Json::as_f64).unwrap() > 0.0);

    server.shutdown();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn error_paths_return_typed_statuses() {
    let wal = tmp("errors.wal");
    let snap = tmp("errors.ckpt");
    let server = start_server(&wal, &snap);
    let addr = server.addr();

    let (status, body) = request(addr, "POST", "/predict", "this is not json");
    assert_eq!(status, 400);
    assert!(body.get("error").is_some());

    // Out-of-range node id: caught against the live snapshot.
    let (status, _) = request(
        addr,
        "POST",
        "/predict",
        r#"{"src": 99, "dsts": [1], "time": 1.0}"#,
    );
    assert_eq!(status, 400);

    // Engine-level rejection surfaces as 400 too (wrong feature width).
    let (status, _) = request(
        addr,
        "POST",
        "/ingest",
        r#"{"events": [{"src": 0, "dst": 1, "time": 1.0, "features": [0.1]}]}"#,
    );
    assert_eq!(status, 400);

    let (status, _) = request(addr, "GET", "/no-such-endpoint", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/predict", "");
    assert_eq!(status, 405);

    // Nothing bad was acked.
    let (_, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(stats.get("events_acked").and_then(Json::as_usize), Some(0));

    server.shutdown();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let wal = tmp("keepalive.wal");
    let snap = tmp("keepalive.ckpt");
    let server = start_server(&wal, &snap);

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    send_request(&mut stream, "POST", "/ingest", &ingest_body(0..4));
    let (status, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    send_request(&mut stream, "POST", "/predict", PREDICT);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(
        body.get("snapshot_events").and_then(Json::as_usize),
        Some(4)
    );

    send_request(&mut stream, "GET", "/stats", "");
    let (status, stats) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("ingest_requests").and_then(Json::as_usize),
        Some(1)
    );

    server.shutdown();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn restart_from_wal_serves_identical_scores() {
    let wal = tmp("restart.wal");
    let snap = tmp("restart.ckpt");

    let server = start_server(&wal, &snap);
    let addr = server.addr();
    let (status, _) = request(addr, "POST", "/ingest", &ingest_body(0..10));
    assert_eq!(status, 200);
    let (_, before) = request(addr, "POST", "/predict", PREDICT);
    server.shutdown();

    // New process, same WAL: scores at the same watermark are
    // bit-identical, and ingest continues where the log left off.
    let server = start_server(&wal, &snap);
    let addr = server.addr();
    let (status, after) = request(addr, "POST", "/predict", PREDICT);
    assert_eq!(status, 200);
    assert_eq!(
        after.get("snapshot_events").and_then(Json::as_usize),
        Some(10)
    );
    assert_eq!(
        after.get("scores").map(Json::to_string),
        before.get("scores").map(Json::to_string),
        "restarted server must score the acked prefix identically"
    );

    let (status, body) = request(addr, "POST", "/ingest", &ingest_body(10..14));
    assert_eq!(status, 200);
    assert_eq!(body.get("total_acked").and_then(Json::as_usize), Some(14));

    server.shutdown();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn request_framing_limits_hold_over_the_socket() {
    let wal = tmp("framing.wal");
    let snap = tmp("framing.ckpt");
    let server = start_server(&wal, &snap);
    let addr = server.addr();
    let padded = |prefix: &str, len: usize| {
        let mut line = prefix.as_bytes().to_vec();
        line.resize(len, b'a');
        line
    };

    // A request line or header line that fills MAX_LINE without ending
    // is refused at the cap — not later, when the read times out.
    let mut long_header = b"GET /stats HTTP/1.1\r\n".to_vec();
    long_header.extend(padded("x-long: ", MAX_LINE));
    for raw in [padded("GET /", MAX_LINE), long_header] {
        let (status, body) = raw_request(addr, &raw);
        assert_eq!(status, 400);
        assert!(body.to_string().contains("longer than"), "{}", body);
    }
    // A header of exactly MAX_LINE bytes, CRLF included, is a line.
    let mut full_header = b"GET /stats HTTP/1.1\r\n".to_vec();
    full_header.extend(padded("x-full: ", MAX_LINE - 2));
    full_header.extend(b"\r\n\r\n");
    assert_eq!(raw_request(addr, &full_header).0, 200);

    // MAX_HEADERS headers are accepted, one more is refused (before the
    // blank line would be read, so none is sent).
    let headers = |n: usize| {
        (0..n)
            .map(|i| format!("x-h{}: v\r\n", i))
            .collect::<String>()
    };
    let at_cap = format!("GET /stats HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS));
    assert_eq!(raw_request(addr, at_cap.as_bytes()).0, 200);
    let over_cap = format!("GET /stats HTTP/1.1\r\n{}", headers(MAX_HEADERS + 1));
    let (status, body) = raw_request(addr, over_cap.as_bytes());
    assert_eq!(status, 400);
    assert!(body.to_string().contains("too many headers"), "{}", body);

    // A body one byte over MAX_BODY is refused from its declared length.
    let too_large = format!(
        "POST /ingest HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    let (status, body) = raw_request(addr, too_large.as_bytes());
    assert_eq!(status, 400);
    assert!(body.to_string().contains("exceeds the limit"), "{}", body);

    // None of it reached the engine, and the server still serves.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("events_acked").and_then(Json::as_usize), Some(0));
    server.shutdown();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn ambiguous_body_framing_is_refused_and_closes_the_connection() {
    let wal = tmp("ambiguous.wal");
    let snap = tmp("ambiguous.ckpt");
    let server = start_server(&wal, &snap);
    let addr = server.addr();

    // Each is refused at the header that makes the framing ambiguous, so
    // no blank line or body follows it: a chunked body's chunks, read as
    // an empty body, would otherwise be parsed as the next request.
    for (raw, why) in [
        (
            "POST /ingest HTTP/1.1\r\ntransfer-encoding: chunked\r\n",
            "transfer-encoding",
        ),
        (
            "POST /ingest HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 6\r\n",
            "conflicting content-length",
        ),
        (
            "POST /ingest HTTP/1.1\r\ncontent-length: +5\r\n",
            "bad content-length",
        ),
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 400, "{:?}", raw);
        assert!(body.to_string().contains(why), "{:?}: {}", raw, body);
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "{:?}", raw);
    }

    // Agreeing duplicates frame the body one way, so they are accepted.
    let agreeing = "GET /stats HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\n{}";
    assert_eq!(raw_request(addr, agreeing.as_bytes()).0, 200);
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("events_acked").and_then(Json::as_usize), Some(0));
    server.shutdown();
    std::fs::remove_file(&wal).ok();
}
