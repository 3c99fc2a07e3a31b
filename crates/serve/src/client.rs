//! A minimal blocking HTTP/1.1 client that keeps its connections: each
//! thread holds at most one open connection per server address and sends its
//! next request on it, framing every response by `Content-Length`. Shared by
//! the e2e suite, the demo example, the load generators and `reqbench`.
//!
//! A kept connection is reused only while less than half the server's
//! [`KEEPALIVE_IDLE`] has passed since its last request was *sent* — an
//! upper bound on how long the server has been waiting on it, whatever
//! delayed the response's delivery or this thread — so a request is never
//! written into a connection the server is closing for idleness; one whose
//! last response said `Connection: close` is dropped. If a reused connection turns out
//! closed or reset, a `GET` is retried once on a fresh connection; any other
//! method returns the error, since the server may have applied it.

use crate::http::KEEPALIVE_IDLE;
use std::cell::RefCell;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, as UTF-8 (lossy).
    pub body: String,
}

/// An open connection this thread may send its next request on.
struct Kept {
    addr: SocketAddr,
    stream: TcpStream,
    /// The read/write timeout the socket carries.
    timeout: Duration,
    /// When its last request was sent: the server's idle clock starts
    /// later, after it wrote the response.
    sent_at: Instant,
}

thread_local! {
    /// At most one kept connection per server address.
    static KEPT: RefCell<Vec<Kept>> = const { RefCell::new(Vec::new()) };
}

/// Performs one request and reads its response, on this thread's kept
/// connection to `addr` when one is fresh enough, else on a new one.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<Response> {
    let kept = KEPT.with(|k| {
        let mut k = k.borrow_mut();
        let i = k.iter().position(|c| c.addr == addr)?;
        let conn = k.swap_remove(i);
        (conn.sent_at.elapsed() < KEEPALIVE_IDLE / 2).then_some(conn)
    });
    if let Some(conn) = kept {
        match exchange(conn, method, target, body, timeout) {
            Err(e) if method == "GET" && stale(&e) => {}
            done => return done,
        }
    }
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    let conn = Kept {
        addr,
        stream,
        timeout: Duration::ZERO,
        sent_at: Instant::now(),
    };
    exchange(conn, method, target, body, timeout)
}

/// Convenience GET.
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> std::io::Result<Response> {
    request(addr, "GET", target, "", timeout)
}

/// Convenience POST.
pub fn post(
    addr: SocketAddr,
    target: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<Response> {
    request(addr, "POST", target, body, timeout)
}

/// The failures of a reused connection the server closed or reset under
/// us: safe to retry for an idempotent method.
fn stale(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

/// Sends one request on `conn` — head and body in one write — reads the
/// response, and keeps the connection for this thread unless the server
/// announced `Connection: close`.
fn exchange(
    mut conn: Kept,
    method: &str,
    target: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<Response> {
    if conn.timeout != timeout {
        conn.stream.set_read_timeout(Some(timeout))?;
        conn.stream.set_write_timeout(Some(timeout))?;
        conn.timeout = timeout;
    }
    let mut out = Vec::with_capacity(128 + target.len() + body.len());
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
        conn.addr,
        body.len()
    );
    out.extend_from_slice(body.as_bytes());
    conn.sent_at = Instant::now();
    conn.stream.write_all(&out)?;

    let (response, keep) = read_response(&mut conn.stream)?;
    if keep {
        KEPT.with(|k| {
            let mut k = k.borrow_mut();
            // Connections to servers this thread no longer talks to.
            k.retain(|c| c.sent_at.elapsed() < KEEPALIVE_IDLE / 2);
            k.push(conn);
        });
    }
    Ok(response)
}

/// Reads one response framed by `Content-Length` (to EOF without one) and
/// says whether the connection may carry another request.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(Response, bool)> {
    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            let what = if raw.is_empty() {
                "connection closed before a response"
            } else {
                "connection closed mid-head"
            };
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, what));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = parse_head(&raw[..head_end])?;
    let body_start = head_end + 4;
    let (end, keep) = match head.content_length {
        Some(len) => {
            let end = body_start
                .checked_add(len)
                .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad content-length"))?;
            while raw.len() < end {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed mid-body",
                    ));
                }
                raw.extend_from_slice(&chunk[..n]);
            }
            // Bytes past the body answer nothing this client sent.
            (end, raw.len() == end && !head.close)
        }
        None => {
            stream.read_to_end(&mut raw)?;
            (raw.len(), false)
        }
    };
    let response = Response {
        status: head.status,
        body: String::from_utf8_lossy(&raw[body_start..end]).into_owned(),
    };
    Ok((response, keep))
}

/// What a response head says about the status and the framing.
struct Head {
    status: u16,
    content_length: Option<usize>,
    close: bool,
}

fn parse_head(raw: &[u8]) -> std::io::Result<Head> {
    let bad = |msg: &str| std::io::Error::new(ErrorKind::InvalidData, msg.to_string());
    let head = std::str::from_utf8(raw).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = None;
    let mut close = status_line.starts_with("HTTP/1.0");
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok(Head {
        status,
        content_length,
        close,
    })
}

/// Pulls the first `"key":<integer>` out of a flat JSON body — enough to
/// read the tiny documents this server emits without a JSON dependency.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pulls the first `"key":"value"` string out of a flat JSON body (no
/// unescaping — the callers read hex ids and labels that never contain
/// escapes).
pub fn json_str(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = body.find(&needle)? + needle.len();
    let end = body[start..].find('"')?;
    Some(body[start..start + end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_head() {
        let head = parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 2").unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, Some(2));
        assert!(!head.close);
        let head = parse_head(b"HTTP/1.1 503 Service Unavailable\r\nConnection: close").unwrap();
        assert_eq!(
            (head.status, head.content_length, head.close),
            (503, None, true)
        );
        assert!(parse_head(b"garbage").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: x").is_err());
    }

    #[test]
    fn json_u64_extracts_integers() {
        let body = "{\"accepted\":3,\"epoch_at_enqueue\":12}";
        assert_eq!(json_u64(body, "accepted"), Some(3));
        assert_eq!(json_u64(body, "epoch_at_enqueue"), Some(12));
        assert_eq!(json_u64(body, "missing"), None);
    }

    #[test]
    fn json_str_extracts_strings() {
        let body = "{\"trace\":\"00000000000000ab\",\"strategy\":\"csf-sar-h\"}";
        assert_eq!(json_str(body, "trace"), Some("00000000000000ab".into()));
        assert_eq!(json_str(body, "strategy"), Some("csf-sar-h".into()));
        assert_eq!(json_str(body, "missing"), None);
    }
}
