//! A deliberately minimal HTTP/1.1 subset over `std::net` — just enough to
//! serve the endpoints without any external dependency (the build
//! container is offline).
//!
//! Supported: persistent connections. A [`Conn`] reads requests one after
//! another out of a per-connection buffer, so bytes past one request's body
//! are the start of the next (pipelined requests are answered in order).
//! Every response goes out in one `write`, head and body together, and says
//! `Connection: keep-alive` unless the server is about to close — because
//! the client asked (`Connection: close`, or HTTP/1.0), the request was
//! malformed, or the worker yields the connection (see [`crate::server`]).
//! Request line + headers are capped at 16 KiB, bodies at 4 MiB and sized by
//! `Content-Length`; `Transfer-Encoding` is refused. Anything outside that
//! subset parses to [`HttpError::Malformed`], is answered with 400, and
//! closes the connection: past a framing error the next request's start is
//! unknown.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Head (request line + headers) size cap.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Body size cap.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// How long a worker keeps an idle connection open for the next request's
/// first byte. A client reuses a connection only while it has been idle for
/// less than half of this ([`crate::client`]), so a request is never written
/// into a connection the server is closing for idleness.
pub const KEEPALIVE_IDLE: Duration = Duration::from_millis(100);

/// Upper bound on the drain after a `Connection: close` response: reading
/// what the peer still sends until it closes keeps the kernel from answering
/// unread bytes with a reset that would discard the response in flight.
const LINGER: Duration = Duration::from_millis(250);

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased as received).
    pub method: String,
    /// Path without the query string, percent-decoded.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// The client asked for the connection to end with this response
    /// (`Connection: close`, or HTTP/1.0 without `Connection: keep-alive`).
    pub close: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be served.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not the HTTP subset we speak; the static
    /// string names the first violation.
    Malformed(&'static str),
    /// The socket failed (timeout, reset); no response is possible.
    Io(std::io::Error),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Every status the server writes. A status outside this enum cannot be
/// written, so none goes out without its reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// 200
    Ok,
    /// 202 — an accepted `/update` batch.
    Accepted,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 409 — a second concurrent `/debug/profile` capture.
    Conflict,
    /// 503 — a full admission or update queue, or no durable ack.
    ServiceUnavailable,
    /// 504 — written only by the deadline gate, before scoring.
    GatewayTimeout,
}

impl Status {
    /// Every variant, in code order.
    #[cfg(test)]
    const ALL: [Status; 7] = [
        Status::Ok,
        Status::Accepted,
        Status::BadRequest,
        Status::NotFound,
        Status::Conflict,
        Status::ServiceUnavailable,
        Status::GatewayTimeout,
    ];

    /// The numeric code.
    pub(crate) fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Accepted => 202,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::Conflict => 409,
            Status::ServiceUnavailable => 503,
            Status::GatewayTimeout => 504,
        }
    }

    /// The reason phrase of the status line.
    fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Accepted => "Accepted",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::Conflict => "Conflict",
            Status::ServiceUnavailable => "Service Unavailable",
            Status::GatewayTimeout => "Gateway Timeout",
        }
    }
}

/// One server-side connection: the socket, the bytes read but not yet
/// parsed (the start of the next request, when the client pipelines), and
/// a reused response buffer.
pub(crate) struct Conn {
    stream: TcpStream,
    io_timeout: Duration,
    /// The read timeout the socket carries now: set only when it changes,
    /// so a kept connection's steady state costs no `setsockopt`.
    read_timeout: Duration,
    buf: Vec<u8>,
    /// Bytes of `buf` already searched for the end of the head.
    scanned: usize,
    out: Vec<u8>,
}

impl Conn {
    /// Wraps an accepted stream: `io_timeout` bounds every read inside a
    /// request and every write. Nagle is off — a response is one write, and
    /// a pipelined second one must not wait for the ACK of the first.
    pub(crate) fn new(stream: TcpStream, io_timeout: Duration) -> Self {
        let _ = stream.set_read_timeout(Some(io_timeout));
        let _ = stream.set_write_timeout(Some(io_timeout));
        let _ = stream.set_nodelay(true);
        Self {
            stream,
            io_timeout,
            read_timeout: io_timeout,
            buf: Vec::with_capacity(1024),
            scanned: 0,
            out: Vec::with_capacity(1024),
        }
    }

    /// Waits up to `wait` for the first byte of the next request: `Ok(true)`
    /// once one is buffered, `Ok(false)` when the peer closed first, and an
    /// error of kind `WouldBlock` or `TimedOut` when `wait` passed.
    pub(crate) fn await_request(&mut self, wait: Duration) -> std::io::Result<bool> {
        if !self.buf.is_empty() {
            return Ok(true);
        }
        Ok(self.fill(wait)? > 0)
    }

    /// Parses the next request, reading more bytes as it needs them. Bytes
    /// past the request's body stay buffered for the next call.
    pub(crate) fn read_request(&mut self) -> Result<Request, HttpError> {
        // --- read until the blank line ends the head ---
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf, self.scanned) {
                break pos;
            }
            // A terminator may straddle the next read: rescan its first 3.
            self.scanned = self.buf.len().saturating_sub(3);
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("request head too large"));
            }
            if self.fill(self.io_timeout)? == 0 {
                return Err(HttpError::Malformed("connection closed mid-head"));
            }
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("request head too large"));
        }
        let head = parse_head(&self.buf[..head_end])?;

        // --- body ---
        let body_start = head_end + 4;
        let end = body_start + head.content_length;
        while self.buf.len() < end {
            if self.fill(self.io_timeout)? == 0 {
                return Err(HttpError::Malformed("connection closed mid-body"));
            }
        }
        let body = self.buf[body_start..end].to_vec();
        self.buf.drain(..end);
        self.scanned = 0;

        Ok(Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body,
            close: head.close,
        })
    }

    /// Writes one complete response — head and body in one `write` — that
    /// announces `Connection: keep-alive` or `Connection: close`.
    pub(crate) fn write_response(
        &mut self,
        status: Status,
        content_type: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
        keep_alive: bool,
    ) -> std::io::Result<()> {
        self.out.clear();
        encode_response(
            &mut self.out,
            status,
            content_type,
            extra_headers,
            body,
            keep_alive,
        );
        self.stream.write_all(&self.out)
    }

    /// Ends a connection whose last response announced `Connection: close`:
    /// half-close, then drain whatever the peer still sends until it closes
    /// (at most [`LINGER`]), so unread bytes cannot turn the close into a
    /// reset that discards the response before the peer reads it.
    pub(crate) fn close(self) {
        let mut stream = self.stream;
        let _ = stream.shutdown(Shutdown::Write);
        let until = Instant::now() + LINGER;
        let mut sink = [0u8; 4096];
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                return;
            }
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    }

    /// One `read`, waiting at most `timeout`, appended to the buffer;
    /// returns the byte count (0 at EOF).
    fn fill(&mut self, timeout: Duration) -> std::io::Result<usize> {
        if self.read_timeout != timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.read_timeout = timeout;
        }
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }
}

/// What the head says, owned so the buffer it came from can move on.
struct Head {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    content_length: usize,
    close: bool,
}

fn parse_head(raw: &[u8]) -> Result<Head, HttpError> {
    let head = std::str::from_utf8(raw).map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed("bad request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("bad request line"));
    }
    if method.is_empty() || target.is_empty() {
        return Err(HttpError::Malformed("bad request line"));
    }

    // --- headers: framing (Content-Length) and Connection ---
    let mut content_length: Option<usize> = None;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("bad header line"));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if n > MAX_BODY_BYTES {
                return Err(HttpError::Malformed("body too large"));
            }
            // Two disagreeing lengths leave the next request's start unknown.
            if content_length.is_some_and(|m| m != n) {
                return Err(HttpError::Malformed("conflicting content-length"));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed("transfer-encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',').map(str::trim) {
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }

    // --- split target into path + query ---
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();

    Ok(Head {
        method: method.to_ascii_uppercase(),
        path: percent_decode(raw_path),
        query,
        content_length: content_length.unwrap_or(0),
        close,
    })
}

/// Position of the `\r\n\r\n` that ends the head, searching from `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| from + pos)
}

/// Decodes `%XX` escapes and `+` (as space). Invalid escapes pass through
/// verbatim, which is the lenient behaviour clients expect from debug
/// servers.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Appends one complete response to `out`: status line, `Content-Type`,
/// `Content-Length`, the `extra_headers` (e.g. the `X-Trace-Id` a traced
/// `/recommend` response carries), `Connection`, then the body.
pub(crate) fn encode_response(
    out: &mut Vec<u8>,
    status: Status,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status.code(),
        status.reason(),
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
    out.extend_from_slice(body);
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("no-escapes"), "no-escapes");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("%41%42"), "AB");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest", 0), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest", 13), Some(14));
        assert_eq!(find_head_end(b"partial\r\n", 0), None);
        assert_eq!(find_head_end(b"short", 9), None);
    }

    /// The status line of every status the server can write carries the
    /// standard reason phrase (RFC 9110 §15), never a placeholder.
    #[test]
    fn every_written_status_has_its_standard_reason_phrase() {
        let standard = |code: u16| match code {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            409 => "Conflict",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => panic!("status {code} is written but has no entry here"),
        };
        for status in Status::ALL {
            let mut out = Vec::new();
            encode_response(&mut out, status, "text/plain", &[], b"", true);
            let line = String::from_utf8(out).unwrap();
            let line = line.lines().next().unwrap().to_string();
            assert_eq!(
                line,
                format!("HTTP/1.1 {} {}", status.code(), standard(status.code()))
            );
        }
        let codes: Vec<u16> = Status::ALL.iter().map(|s| s.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "ALL lists each status once, in code order");
    }

    #[test]
    fn a_response_is_framed_by_content_length_and_names_its_connection() {
        let mut out = Vec::new();
        encode_response(
            &mut out,
            Status::Ok,
            "application/json",
            &[("X-Trace-Id", "00ab")],
            b"{}",
            true,
        );
        encode_response(&mut out, Status::NotFound, "text/plain", &[], b"no", false);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             X-Trace-Id: 00ab\r\nConnection: keep-alive\r\n\r\n{}\
             HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\
             Connection: close\r\n\r\nno"
        );
    }

    fn head(raw: &str) -> Result<Head, HttpError> {
        parse_head(raw.as_bytes())
    }

    #[test]
    fn connection_header_and_version_decide_close() {
        assert!(!head("GET / HTTP/1.1").unwrap().close);
        assert!(head("GET / HTTP/1.1\r\nConnection: close").unwrap().close);
        assert!(
            head("GET / HTTP/1.1\r\nconnection: Keep-Alive, Close")
                .unwrap()
                .close
        );
        assert!(head("GET / HTTP/1.0").unwrap().close);
        assert!(
            !head("GET / HTTP/1.0\r\nConnection: keep-alive")
                .unwrap()
                .close
        );
    }

    #[test]
    fn framing_ambiguities_are_malformed() {
        for raw in [
            "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked",
            "POST / HTTP/1.1\r\nContent-Length: -1",
            "POST / HTTP/1.1\r\nContent-Length: 99999999999",
        ] {
            assert!(
                matches!(head(raw), Err(HttpError::Malformed(_))),
                "accepted {raw:?}"
            );
        }
        let same_twice = "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3";
        assert_eq!(head(same_twice).unwrap().content_length, 3);
    }
}
