//! A tiny blocking HTTP/1.1 client for the daemon's own traffic: the
//! integration tests and the repository benchmark's load generator
//! speak to `mmvc serve` through this one code path.
//!
//! [`Conn`] is the persistent form — one TCP connection carrying many
//! requests under keep-alive, reading each response by its
//! `Content-Length` frame (never `read_to_end`, which would block until
//! the server hangs up). The free [`request`]/[`get`] helpers keep the
//! old one-shot shape (they send `Connection: close`) for callers that
//! genuinely want a fresh connection per request.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server will keep the connection open for another
    /// request (`connection: keep-alive`).
    pub fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

/// A persistent keep-alive connection to the daemon.
///
/// ```no_run
/// let mut conn = mmvc_serve::client::Conn::connect("127.0.0.1:7411")?;
/// let a = conn.request("GET", "/healthz", b"")?;
/// let b = conn.request("GET", "/metrics", b"")?; // same TCP connection
/// assert_eq!(a.status, 200);
/// assert_eq!(b.status, 200);
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Conn {
    stream: BufReader<TcpStream>,
    /// How many requests this connection has carried.
    sent: u64,
}

impl Conn {
    /// Opens a connection with 30-second read/write timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream: BufReader::new(stream),
            sent: 0,
        })
    }

    /// Requests carried by this connection so far.
    pub fn requests_sent(&self) -> u64 {
        self.sent
    }

    /// Sends one request and reads its framed response, leaving the
    /// connection open for the next call (as long as the server answered
    /// `connection: keep-alive` — check [`Response::keep_alive`]).
    ///
    /// # Errors
    ///
    /// I/O failures writing or reading, or an unparseable response. The
    /// connection should be dropped and reopened after any error — the
    /// stream position is no longer trustworthy.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: mmvc\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let stream = self.stream.get_mut();
        stream.write_all(&wire)?;
        stream.flush()?;
        self.sent += 1;
        read_response(&mut self.stream)
    }
}

/// Sends one request on a fresh connection (`Connection: close`) and
/// reads the full response.
///
/// # Errors
///
/// I/O failures connecting, writing, or reading; or a response that is
/// not parseable HTTP/1.1.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream))
}

/// Convenience: `GET` with no body on a fresh connection.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: &str, path: &str) -> std::io::Result<Response> {
    request(addr, "GET", path, b"")
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("bad response: {what}"),
    )
}

/// Reads exactly one framed response from the stream: the head up to
/// `\r\n\r\n`, then `Content-Length` body bytes — no more, so the next
/// pipelined/keep-alive response stays in the stream.
///
/// # Errors
///
/// I/O failures or an unparseable head.
pub fn read_response<R: BufRead>(stream: &mut R) -> std::io::Result<Response> {
    let mut head = Vec::with_capacity(256);
    'collect: loop {
        // Scan the reader's internal buffer instead of issuing one
        // read() per byte; consume only up to the head terminator so
        // body bytes (and any pipelined next response) stay unread.
        let buf = stream.fill_buf()?;
        if buf.is_empty() {
            return Err(bad("connection closed mid-head"));
        }
        let mut taken = 0;
        for &byte in buf {
            head.push(byte);
            taken += 1;
            if head.ends_with(b"\r\n\r\n") {
                stream.consume(taken);
                break 'collect;
            }
        }
        stream.consume(taken);
        if head.len() > 64 * 1024 {
            return Err(bad("head too large"));
        }
    }
    let head = std::str::from_utf8(&head[..head.len() - 4]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
    // Interim "100 Continue" responses are not sent by the daemon unless
    // asked for; this client never asks.
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("header line"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| bad("content-length"))?;
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn parses_a_response_without_consuming_past_its_frame() {
        let raw: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 3\r\nx-cache: hit\r\nconnection: keep-alive\r\n\r\n{}\nNEXT";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let r = read_response(&mut cursor).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-cache"), Some("hit"));
        assert_eq!(r.body, b"{}\n");
        assert_eq!(r.text(), "{}\n");
        assert!(r.keep_alive());
        // The next response's bytes are still unread.
        let mut rest = Vec::new();
        cursor.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"NEXT");
    }

    #[test]
    fn reads_consecutive_framed_responses() {
        let raw: &[u8] =
            b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\n\r\naHTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nconnection: close\r\n\r\nbc";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let first = read_response(&mut cursor).unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"a"[..]));
        let second = read_response(&mut cursor).unwrap();
        assert_eq!((second.status, second.body.as_slice()), (404, &b"bc"[..]));
        assert!(!second.keep_alive());
    }

    #[test]
    fn rejects_garbage() {
        for raw in [
            &b"garbage"[..],
            b"HTTP/1.1 abc\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\nbroken header\r\n\r\n",
        ] {
            let mut cursor = std::io::Cursor::new(raw.to_vec());
            assert!(
                read_response(&mut cursor).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }
}
