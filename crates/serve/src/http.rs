//! A deliberately small HTTP/1.1 subset: request parsing and response
//! writing over a [`TcpStream`], enough for the serving endpoints and
//! nothing more (no transfer codings, no continuations, no TLS).
//!
//! Zero-dependency policy: this replaces an HTTP crate, not the
//! protocol — requests are `METHOD PATH HTTP/1.x`, headers until a
//! blank line, and an optional `Content-Length` body. A request whose
//! body could be framed two ways — any `Transfer-Encoding`, or two
//! `Content-Length`s that disagree — is refused, not guessed at. Every
//! deviation is a typed [`HttpError`], never a panic, so a hostile or
//! broken client can at worst get its own connection closed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Longest accepted request body, in bytes (a 16 MiB ingest batch).
pub const MAX_BODY: usize = 16 << 20;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Longest accepted request or header line, in bytes, its `\n`
/// included: a client that never ends a line costs a worker at most
/// this much buffer.
pub const MAX_LINE: usize = 8 << 10;

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/predict`.
    pub path: String,
    /// Decoded body (empty without `Content-Length`).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure.
    Io(std::io::Error),
    /// The bytes were not a well-formed request.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`].
    TooLarge(usize),
    /// The client closed the connection cleanly at a request boundary.
    Closed,
    /// A read timeout fired at a request boundary (nothing of a next
    /// request read yet) — the connection is idle, not broken; the
    /// caller may poll again.
    Idle,
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one request from `reader` (a buffered wrapper the caller keeps
/// alive across keep-alive requests, so pipelined bytes are not lost).
///
/// # Errors
///
/// [`HttpError::Closed`] when the connection ends cleanly at a request
/// boundary (the normal end of a keep-alive connection) and
/// [`HttpError::Idle`] when a read timeout fires there — poll again.
/// Everything else is a real error: [`HttpError::Malformed`] for
/// protocol violations (including a timeout mid-request, a line longer
/// than [`MAX_LINE`], more than [`MAX_HEADERS`] headers, any
/// `Transfer-Encoding`, and a `Content-Length` that is not plain digits
/// or disagrees with an earlier one),
/// [`HttpError::TooLarge`] for oversized bodies, [`HttpError::Io`] for
/// transport failures.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, HttpError> {
    let mut line = Vec::new();
    match read_line(reader, &mut line) {
        Ok(0) => return Err(HttpError::Closed),
        Ok(_) => {}
        Err(e) if is_timeout(&e) && line.is_empty() => return Err(HttpError::Idle),
        Err(e) if is_timeout(&e) => {
            return Err(HttpError::Malformed("timed out mid-request".to_string()))
        }
        Err(e) => return Err(HttpError::Io(e)),
    }
    let line = decode_line(&line)?;
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_string(), p.to_string(), v)
        }
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line: {:?}",
                line
            )))
        }
    };
    // HTTP/1.1 defaults to keep-alive, 1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length = None;
    // Up to MAX_HEADERS header lines, then the blank line ending them.
    for _ in 0..=MAX_HEADERS {
        let mut header = Vec::new();
        match read_line(reader, &mut header) {
            Ok(0) => return Err(HttpError::Malformed("eof inside headers".to_string())),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::Malformed("timed out in headers".to_string()))
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
        let header = decode_line(&header)?;
        if header.is_empty() {
            let content_length = content_length.unwrap_or(0);
            if content_length > MAX_BODY {
                return Err(HttpError::TooLarge(content_length));
            }
            let mut body = vec![0u8; content_length];
            if content_length > 0 {
                read_exact_with_timeout(reader, &mut body)?;
            }
            let body = String::from_utf8(body)
                .map_err(|_| HttpError::Malformed("body is not UTF-8".to_string()))?;
            return Ok(Request {
                method,
                path,
                body,
                keep_alive,
            });
        }
        let (name, value) = match header.split_once(':') {
            Some((n, v)) => (n.trim(), v.trim()),
            None => return Err(HttpError::Malformed(format!("bad header: {:?}", header))),
        };
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only: `usize::from_str` would also take a `+` sign.
            let length = Some(value)
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| HttpError::Malformed(format!("bad content-length: {:?}", value)))?;
            // Two lengths that disagree leave the body's end ambiguous to
            // anything in front of the server that framed it by the other.
            if content_length.is_some_and(|n| n != length) {
                return Err(HttpError::Malformed(
                    "conflicting content-length headers".to_string(),
                ));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // No transfer coding is supported: a chunked body read as
            // empty would have its chunks parsed as the next request.
            return Err(HttpError::Malformed(format!(
                "unsupported transfer-encoding: {:?}",
                value
            )));
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    Err(HttpError::Malformed("too many headers".to_string()))
}

/// Reads one `\n`-terminated line into `line`, buffering at most
/// [`MAX_LINE`] bytes of it.
fn read_line(reader: &mut BufReader<TcpStream>, line: &mut Vec<u8>) -> std::io::Result<usize> {
    reader
        .by_ref()
        .take(MAX_LINE as u64)
        .read_until(b'\n', line)
}

/// A line [`read_line`] returned, as text without its line ending;
/// refused when it filled [`MAX_LINE`] without ending or is not UTF-8.
fn decode_line(line: &[u8]) -> Result<&str, HttpError> {
    if line.len() >= MAX_LINE && line.last() != Some(&b'\n') {
        return Err(HttpError::Malformed(format!(
            "line longer than {} bytes",
            MAX_LINE
        )));
    }
    std::str::from_utf8(line)
        .map(str::trim_end)
        .map_err(|_| HttpError::Malformed("line is not UTF-8".to_string()))
}

fn read_exact_with_timeout(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
) -> Result<(), HttpError> {
    let mut got = 0usize;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) => return Err(HttpError::Malformed("eof inside body".to_string())),
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::Malformed("timed out in body".to_string()))
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(())
}

/// Writes one response with a JSON body.
///
/// # Errors
///
/// [`std::io::Error`] on transport failure (the caller drops the
/// connection).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    // One write per response: splitting head and body into separate
    // segments interacts with Nagle + delayed ACK and costs ~40ms per
    // round-trip on loopback.
    let response = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{}",
        status,
        reason,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body,
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
