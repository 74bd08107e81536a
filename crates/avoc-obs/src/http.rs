//! A minimal, hostile-input-hardened HTTP/1.1 substrate.
//!
//! Just enough protocol for an admin plane: a GET-only request parser with
//! a hard size cap (no allocation proportional to attacker input beyond the
//! capped read buffer), a response writer that always sends
//! `Content-Length` and `Connection: close`, the one admin [`serve`] loop
//! every admin plane runs its routes on, and a tiny blocking GET client
//! for tests, benches and CI smoke probes. The parser returns typed errors
//! — [`ParseError::TooLarge`] maps to `431`, [`ParseError::BadMethod`] to
//! `405`, [`ParseError::BadRequest`] to `400` — and never panics, whatever
//! the bytes (property-tested in `tests/proptests.rs`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on the request head (request line + headers). Anything longer
/// is rejected with `431 Request Header Fields Too Large`.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long an admin connection may dribble its request head before being
/// dropped (scrapers send the whole head at once; anything slower is a
/// stuck or hostile peer).
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Most connection handlers one [`serve`] loop runs at once. A connection
/// accepted while this many are in flight is answered `503` and closed on
/// the accept thread, so idle sockets cannot pin unbounded threads.
pub const MAX_IN_FLIGHT: usize = 16;

/// Why a request head failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The head is not complete yet — read more bytes and retry.
    Incomplete,
    /// The head exceeds [`MAX_REQUEST_BYTES`] → respond `431`.
    TooLarge,
    /// Syntactically valid enough to see a method, but not GET → `405`.
    BadMethod,
    /// Anything else malformed → `400`.
    BadRequest,
}

impl ParseError {
    /// The HTTP status code this error maps to (`Incomplete` has none and
    /// returns 400 as a terminal fallback).
    pub fn status(self) -> u16 {
        match self {
            ParseError::Incomplete | ParseError::BadRequest => 400,
            ParseError::TooLarge => 431,
            ParseError::BadMethod => 405,
        }
    }
}

/// A parsed GET request head, borrowing from the read buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    target: &'a str,
}

impl<'a> Request<'a> {
    /// The request target's path component (before any `?`).
    pub fn path(&self) -> &'a str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => self.target,
        }
    }

    /// The first value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&'a str> {
        let (_, query) = self.target.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Parses an HTTP/1.1 request head from `buf`.
///
/// Returns [`ParseError::Incomplete`] until the blank line terminating the
/// head has arrived (callers keep reading), and a terminal error otherwise.
/// Only `GET` is accepted; the target must be an ASCII path starting with
/// `/`; headers are ignored beyond delimiting the head.
pub fn parse_request(buf: &[u8]) -> Result<Request<'_>, ParseError> {
    let head_end = find_head_end(buf);
    if head_end.is_none() && buf.len() > MAX_REQUEST_BYTES {
        return Err(ParseError::TooLarge);
    }
    let Some(head_end) = head_end else {
        return Err(ParseError::Incomplete);
    };
    if head_end > MAX_REQUEST_BYTES {
        return Err(ParseError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ParseError::BadRequest)?;
    let request_line = head.lines().next().ok_or(ParseError::BadRequest)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or(ParseError::BadRequest)?;
    let target = parts.next().ok_or(ParseError::BadRequest)?;
    let version = parts.next().ok_or(ParseError::BadRequest)?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequest);
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::BadRequest);
    }
    if method != "GET" {
        return Err(ParseError::BadMethod);
    }
    if !target.starts_with('/')
        || !target
            .bytes()
            .all(|b| b.is_ascii_graphic() && b != b'"' && b != b'\\')
    {
        return Err(ParseError::BadRequest);
    }
    Ok(Request { target })
}

/// Position just past the `\r\n\r\n` (or bare `\n\n`) terminating the head.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// The reason phrase for the handful of status codes the admin plane uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one complete HTTP/1.1 response with `Content-Length` and
/// `Connection: close`, then flushes.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A running [`serve`] loop.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl Server {
    /// The address scrapers should hit.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the accept thread. In-flight responses
    /// finish; new connections are refused.
    pub fn stop(self) {
        self.running.store(false, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.join.join();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves GET requests with
/// `route` on an accept thread named `thread_name`, one short-lived
/// handler thread per connection (at most [`MAX_IN_FLIGHT`]).
///
/// `route` maps a parsed request to `(status, content type, body)`. The
/// loop answers hostile input itself: oversized heads `431`, non-GET
/// methods `405`, malformed heads `400`; a head not complete within five
/// seconds is dropped.
///
/// # Errors
///
/// Propagates bind errors.
pub fn serve<F>(addr: &str, thread_name: &str, route: F) -> io::Result<Server>
where
    F: Fn(&Request) -> (u16, &'static str, String) + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let running = Arc::new(AtomicBool::new(true));
    let join = {
        let running = Arc::clone(&running);
        let route = Arc::new(route);
        std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || accept_loop(&listener, &running, &route))?
    };
    Ok(Server {
        local_addr,
        running,
        join,
    })
}

fn accept_loop<F>(listener: &TcpListener, running: &AtomicBool, route: &Arc<F>)
where
    F: Fn(&Request) -> (u16, &'static str, String) + Send + Sync + 'static,
{
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while running.load(Ordering::SeqCst) {
        let Ok((mut stream, _)) = listener.accept() else {
            break;
        };
        if !running.load(Ordering::SeqCst) {
            break; // the stop() wake-up connection
        }
        // Reap finished handlers so a long-lived daemon under periodic
        // scraping does not accumulate join handles.
        conns.retain(|c| !c.is_finished());
        if conns.len() >= MAX_IN_FLIGHT {
            let _ = respond_status(&mut stream, 503);
            continue;
        }
        let route = Arc::clone(route);
        conns.push(std::thread::spawn(move || {
            let _ = serve_connection(stream, &*route);
        }));
    }
    for c in conns {
        let _ = c.join();
    }
}

/// Reads one request (bounded by [`MAX_REQUEST_BYTES`]), answers it, closes.
fn serve_connection(
    mut stream: TcpStream,
    route: &impl Fn(&Request) -> (u16, &'static str, String),
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        match parse_request(&buf) {
            Ok(req) => {
                let (status, content_type, body) = route(&req);
                return write_response(&mut stream, status, content_type, &body);
            }
            Err(ParseError::Incomplete) => {}
            Err(e) => return respond_status(&mut stream, e.status()),
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(()); // peer went away mid-request
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A plain-text response whose body is the status's reason phrase.
fn respond_status(stream: &mut TcpStream, status: u16) -> io::Result<()> {
    write_response(
        stream,
        status,
        "text/plain; charset=utf-8",
        &format!("{}\n", reason(status)),
    )
}

/// A blocking GET against `addr` (e.g. `127.0.0.1:9200`), returning the
/// status code and body. Five-second timeouts on every phase; used by
/// tests, `bench_serve`'s live scrape, and the CI smoke probe.
pub fn get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = match raw.find("\r\n\r\n") {
        Some(i) => raw[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_get() {
        let req = parse_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/metrics");
        assert_eq!(req.query_param("session"), None);
    }

    #[test]
    fn parses_query_parameters() {
        let req = parse_request(b"GET /trace?session=7&format=json HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/trace");
        assert_eq!(req.query_param("session"), Some("7"));
        assert_eq!(req.query_param("format"), Some("json"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn incomplete_head_asks_for_more() {
        assert_eq!(
            parse_request(b"GET /metrics HTTP/1.1\r\nHost:"),
            Err(ParseError::Incomplete)
        );
    }

    #[test]
    fn oversized_request_line_is_431() {
        let mut buf = b"GET /".to_vec();
        buf.extend(std::iter::repeat_n(b'a', MAX_REQUEST_BYTES + 1));
        assert_eq!(parse_request(&buf), Err(ParseError::TooLarge));
        assert_eq!(ParseError::TooLarge.status(), 431);
    }

    #[test]
    fn non_get_methods_are_405() {
        for head in [
            &b"POST /metrics HTTP/1.1\r\n\r\n"[..],
            b"DELETE / HTTP/1.1\r\n\r\n",
            b"PUT /x HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(parse_request(head), Err(ParseError::BadMethod), "{head:?}");
        }
        assert_eq!(ParseError::BadMethod.status(), 405);
    }

    #[test]
    fn malformed_heads_are_400_never_panics() {
        for head in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /\x01 HTTP/1.1\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"\xff\xfe\x00\x01\r\n\r\n",
        ] {
            assert_eq!(parse_request(head), Err(ParseError::BadRequest), "{head:?}");
        }
    }

    #[test]
    fn response_writer_frames_the_body() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", "hello").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn client_and_parser_round_trip_over_tcp() {
        let server = serve("127.0.0.1:0", "http-test", |req| {
            (200, "text/plain", format!("path={}", req.path()))
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let (status, body) = get(&addr, "/healthz").unwrap();
        server.stop();
        assert_eq!(status, 200);
        assert_eq!(body, "path=/healthz");
    }
}
