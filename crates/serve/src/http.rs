//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for
//! the live service: request-line + header parsing, `Content-Length`
//! and `chunked` body readers (both expose [`std::io::Read`], so ingest
//! can stream line-at-a-time without buffering the whole body), and a
//! one-shot response writer. Zero dependencies by design; every
//! connection is `Connection: close`, one request per socket.

use std::io::{BufRead, Read, Write};

/// Longest accepted request/header/chunk-size line, in bytes, not
/// counting its `\n` or `\r\n` terminator. Longer lines abort the
/// request (they would otherwise buffer unboundedly).
pub const MAX_LINE: usize = 8 * 1024;

/// Maximum number of request headers.
pub const MAX_HEADERS: usize = 64;

/// A parsed request head: the request line plus headers. Bodies are
/// read separately through [`Body`], so huge ingest payloads never
/// live in memory.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component of the target, query string excluded.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers as `(lower-case name, value)` pairs, in arrival order.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First query parameter named `name`, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Parsed `Content-Length`, if present and numeric.
    pub fn content_length(&self) -> Option<u64> {
        self.header("content-length")?.trim().parse().ok()
    }

    /// Whether the body arrives with `Transfer-Encoding: chunked`.
    pub fn is_chunked(&self) -> bool {
        self.header("transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
    }
}

/// Reads one request head from `reader`. Returns `Ok(None)` when the
/// peer closed the socket before sending anything (a clean no-request
/// connection, e.g. a liveness probe).
pub fn read_request<R: BufRead>(reader: &mut R) -> std::io::Result<Option<Request>> {
    let line = match read_line(reader)? {
        Some(l) => l,
        None => return Ok(None),
    };
    let mut parts = line.split_ascii_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_ascii_uppercase(), t.to_string()),
        _ => return Err(bad("malformed request line")),
    };
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    let path = percent_decode(raw_path, false);
    let query = raw_query.map(parse_query).unwrap_or_default();

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or_else(|| bad("eof inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
    }))
}

/// A request body exposed as a byte stream: either `Content-Length`
/// delimited, `chunked` decoded on the fly, or empty.
pub enum Body<'a, R: BufRead> {
    /// No body (no framing headers on the request).
    Empty,
    /// `Content-Length` framing: exactly `remaining` bytes follow.
    Length {
        /// The connection's buffered reader.
        inner: &'a mut R,
        /// Bytes of body not yet consumed.
        remaining: u64,
    },
    /// `Transfer-Encoding: chunked` framing, decoded incrementally.
    Chunked {
        /// The connection's buffered reader.
        inner: &'a mut R,
        /// Bytes left in the current chunk.
        chunk_remaining: u64,
        /// Whether at least one chunk header was consumed (the CRLF
        /// terminating the previous chunk must be skipped from then on).
        started: bool,
        /// Whether the terminal `0` chunk has been seen.
        done: bool,
    },
}

impl<'a, R: BufRead> Body<'a, R> {
    /// Picks the correct body framing for `req` over `reader`.
    pub fn for_request(req: &Request, reader: &'a mut R) -> Body<'a, R> {
        if req.is_chunked() {
            Body::Chunked {
                inner: reader,
                chunk_remaining: 0,
                started: false,
                done: false,
            }
        } else if let Some(n) = req.content_length() {
            Body::Length {
                inner: reader,
                remaining: n,
            }
        } else {
            Body::Empty
        }
    }
}

impl<R: BufRead> Read for Body<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Body::Empty => Ok(0),
            Body::Length { inner, remaining } => {
                if *remaining == 0 || buf.is_empty() {
                    return Ok(0);
                }
                let want = buf.len().min(*remaining as usize);
                let n = inner.read(&mut buf[..want])?;
                if n == 0 {
                    return Err(bad("eof before content-length satisfied"));
                }
                *remaining -= n as u64;
                Ok(n)
            }
            Body::Chunked {
                inner,
                chunk_remaining,
                started,
                done,
            } => {
                if *done || buf.is_empty() {
                    return Ok(0);
                }
                if *chunk_remaining == 0 {
                    if *started {
                        // CRLF that terminates the previous chunk body.
                        let sep = read_line(&mut *inner)?.ok_or_else(|| bad("eof in chunk"))?;
                        if !sep.is_empty() {
                            return Err(bad("missing chunk terminator"));
                        }
                    }
                    *started = true;
                    let size_line =
                        read_line(&mut *inner)?.ok_or_else(|| bad("eof before chunk size"))?;
                    let hex = size_line.split(';').next().unwrap_or("").trim();
                    let size = u64::from_str_radix(hex, 16).map_err(|_| bad("bad chunk size"))?;
                    if size == 0 {
                        // Trailer section: lines until the blank line.
                        loop {
                            let l =
                                read_line(&mut *inner)?.ok_or_else(|| bad("eof in trailers"))?;
                            if l.is_empty() {
                                break;
                            }
                        }
                        *done = true;
                        return Ok(0);
                    }
                    *chunk_remaining = size;
                }
                let want = buf.len().min(*chunk_remaining as usize);
                let n = inner.read(&mut buf[..want])?;
                if n == 0 {
                    return Err(bad("eof inside chunk"));
                }
                *chunk_remaining -= n as u64;
                Ok(n)
            }
        }
    }
}

/// Writes one complete response and flushes. `extra_headers` are
/// emitted verbatim after the standard set.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(status),
        body.len(),
    )?;
    for (k, v) in extra_headers {
        write!(w, "{k}: {v}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Reason phrase for the handful of statuses the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Splits and percent-decodes a query string into `(key, value)` pairs
/// (`+` decodes to space, as form encoding does).
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k, true), percent_decode(v, true))
        })
        .collect()
}

/// Percent-decodes `s`; `plus_is_space` additionally maps `+` to a
/// space (query-string convention). Invalid escapes pass through.
pub fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
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
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads one CRLF (or bare-LF) terminated line, stripped. `Ok(None)`
/// on clean EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R) -> std::io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(bad("eof mid-line"));
            }
            _ => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
                }
                line.push(byte[0]);
                // A `\r` right past the limit may still be the CRLF
                // terminator, which does not count toward the line.
                let pending_cr = line.len() == MAX_LINE + 1 && byte[0] == b'\r';
                if line.len() > MAX_LINE && !pending_cr {
                    return Err(bad("line too long"));
                }
            }
        }
    }
}

fn bad(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn req(raw: &str) -> (Request, BufReader<std::io::Cursor<Vec<u8>>>) {
        let mut r = BufReader::new(std::io::Cursor::new(raw.as_bytes().to_vec()));
        let parsed = read_request(&mut r).unwrap().unwrap();
        (parsed, r)
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let (r, _) = req(
            "GET /query?filter=call%20%3D%3D%20%22read%22&emit=events HTTP/1.1\r\n\
             Host: localhost\r\nX-Thing: 7\r\n\r\n",
        );
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/query");
        assert_eq!(r.query_param("filter"), Some("call == \"read\""));
        assert_eq!(r.query_param("emit"), Some("events"));
        assert_eq!(r.header("x-thing"), Some("7"));
        assert_eq!(r.content_length(), None);
        assert!(!r.is_chunked());
    }

    #[test]
    fn plus_decodes_to_space_in_query_only() {
        let (r, _) = req("GET /a+b?x=1+2 HTTP/1.1\r\n\r\n");
        assert_eq!(r.path, "/a+b");
        assert_eq!(r.query_param("x"), Some("1 2"));
    }

    #[test]
    fn content_length_body_reads_exactly() {
        let (r, mut rd) =
            req("POST /ingest/a_h_1.st HTTP/1.1\r\nContent-Length: 5\r\n\r\nhellorest");
        let mut body = Body::for_request(&r, &mut rd);
        let mut s = String::new();
        body.read_to_string(&mut s).unwrap();
        assert_eq!(s, "hello");
    }

    #[test]
    fn chunked_body_decodes_across_chunks() {
        let (r, mut rd) = req(
            "POST /ingest/a_h_1.st HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             4\r\nline\r\n7\r\n one\ntw\r\n1\r\no\r\n0\r\n\r\n",
        );
        let mut body = Body::for_request(&r, &mut rd);
        let mut s = String::new();
        body.read_to_string(&mut s).unwrap();
        assert_eq!(s, "line one\ntwo");
    }

    #[test]
    fn eof_on_empty_connection_is_none() {
        let mut r = BufReader::new(std::io::Cursor::new(Vec::new()));
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn response_writer_emits_frame() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", &[("x-st-next", "4")], b"ok\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("x-st-next: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }
}
