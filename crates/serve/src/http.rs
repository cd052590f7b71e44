//! A deliberately small HTTP/1.1 implementation — just enough protocol
//! for the daemon's JSON API and the loadtest client, with no external
//! dependencies.
//!
//! Scope: request line + headers + `Content-Length` bodies. No chunked
//! transfer encoding, no keep-alive pipelining (every response carries
//! `Connection: close` and the server closes the socket), no TLS.
//! Streaming endpoints (`GET /jobs/<id>/events`) write a head without
//! `Content-Length` and delimit the newline-delimited JSON body by
//! closing the connection — the one HTTP/1.0-style framing that needs
//! no encoder on either side.

use std::io::{self, BufRead, Read, Write};

/// Largest accepted request head (request line + headers) in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body in bytes (scenario specs are small).
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request: method, path, and raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request target, e.g. `/jobs/7/events` (query strings are
    /// kept verbatim; the daemon's routes don't use them).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// A malformed or oversized request, reported to the client as a 400.
#[derive(Debug)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

/// Reads one head line (request line or header), consuming at most
/// `budget` bytes from `stream`. A line cut off by the budget comes back
/// without its newline; the caller's byte count then exceeds the head
/// limit. Empty at EOF.
fn read_head_line<R: BufRead>(stream: &mut R, budget: usize) -> io::Result<Vec<u8>> {
    let mut line = Vec::new();
    stream.take(budget as u64).read_until(b'\n', &mut line)?;
    Ok(line)
}

/// Reads one request from `stream`. `Ok(None)` means the peer closed
/// the connection before sending a request line (a clean EOF, not an
/// error — load balancers and health probes do this). The request line
/// and headers together may not exceed `MAX_HEAD_BYTES`; no more than
/// one byte past that is read before the request is refused.
pub fn read_request<R: BufRead>(stream: &mut R) -> io::Result<Result<Option<Request>, BadRequest>> {
    let line = read_head_line(stream, MAX_HEAD_BYTES + 1)?;
    if line.is_empty() {
        return Ok(Ok(None));
    }
    let mut head_bytes = line.len();
    if head_bytes > MAX_HEAD_BYTES {
        return Ok(Err(bad("request head too large")));
    }
    let Ok(line) = String::from_utf8(line) else {
        return Ok(Err(bad("request line is not UTF-8")));
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(Err(bad(format!("malformed request line {line:?}"))));
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(Err(bad(format!("unsupported protocol {version:?}"))));
    }
    let (method, path) = (method.to_string(), path.to_string());

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(stream, MAX_HEAD_BYTES + 1 - head_bytes)?;
        if header.is_empty() {
            return Ok(Err(bad("connection closed mid-headers")));
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Ok(Err(bad("request head too large")));
        }
        let Ok(header) = String::from_utf8(header) else {
            return Ok(Err(bad("header is not UTF-8")));
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Ok(Err(bad(format!("malformed header {header:?}"))));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = match value.trim().parse::<usize>() {
                Ok(n) if n <= MAX_BODY_BYTES => n,
                Ok(_) => return Ok(Err(bad("request body too large"))),
                Err(_) => return Ok(Err(bad("malformed Content-Length"))),
            };
        }
    }

    // The buffer grows with the bytes that arrive, not with the declared
    // length, so a client that promises 4 MiB and sends nothing costs
    // nothing.
    let mut body = Vec::new();
    if stream.take(content_length as u64).read_to_end(&mut body)? < content_length {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "request body shorter than its Content-Length",
        ));
    }
    Ok(Ok(Some(Request { method, path, body })))
}

/// The standard reason phrase for the handful of status codes the
/// daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response (`Content-Length` framing) and
/// flushes. The connection is expected to close afterwards.
pub fn write_response<W: Write>(stream: &mut W, status: u16, body: &str) -> io::Result<()> {
    write_response_typed(stream, status, "application/json", body)
}

/// [`write_response`] with an explicit `Content-Type` — the `/metrics`
/// exposition is `text/plain` and `/metrics/history` is NDJSON. The
/// head and body are rendered into one buffer and sent with one
/// `write_all`, so the socket sees one `write` rather than one per
/// formatted piece.
pub fn write_response_typed<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let wire = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    );
    stream.write_all(wire.as_bytes())?;
    stream.flush()
}

/// Writes a streaming-response head: NDJSON content, no
/// `Content-Length` — the body ends when the server closes the socket.
pub fn write_stream_head<W: Write>(stream: &mut W) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// A parsed response, as consumed by the loadtest client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body. For close-delimited streams this is everything read
    /// until EOF.
    pub body: Vec<u8>,
}

/// Reads one response (status line, headers, then either a
/// `Content-Length` body or everything until EOF).
pub fn read_response<R: BufRead>(stream: &mut R) -> io::Result<Response> {
    let mut line = String::new();
    if stream.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no status line"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad status line {line:?}")))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if stream.read_line(&mut header)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            stream.read_exact(&mut body)?;
        }
        None => {
            stream.read_to_end(&mut body)?;
        }
    }
    Ok(Response { status, body })
}

/// A writer that records every `write` call it receives.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) writes: usize,
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trips_with_body() {
        let wire = "POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let req = read_request(&mut BufReader::new(wire.as_bytes()))
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/runs");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_bad_request() {
        assert!(read_request(&mut BufReader::new(&b""[..])).unwrap().unwrap().is_none());
        assert!(read_request(&mut BufReader::new(&b"nonsense\r\n\r\n"[..]))
            .unwrap()
            .is_err());
        let oversized = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(read_request(&mut BufReader::new(oversized.as_bytes()))
            .unwrap()
            .is_err());
    }

    #[test]
    fn unterminated_request_line_is_refused_after_the_head_limit() {
        // 1 MiB with no newline: the request line alone overruns the
        // head limit, and reading stops one byte past it.
        let mut wire = io::Cursor::new(vec![b'a'; 1 << 20]);
        let err = read_request(&mut wire).unwrap().unwrap_err();
        assert_eq!(err.0, "request head too large");
        assert!(
            wire.position() <= (MAX_HEAD_BYTES + 1) as u64,
            "consumed {} bytes",
            wire.position()
        );

        // The same bound holds for a header line after a valid request line.
        let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(1 << 20, b'b');
        let mut wire = io::Cursor::new(head);
        let err = read_request(&mut wire).unwrap().unwrap_err();
        assert_eq!(err.0, "request head too large");
        assert!(wire.position() <= (MAX_HEAD_BYTES + 1) as u64);
    }

    #[test]
    fn short_body_is_an_unexpected_eof() {
        let wire = format!("POST /runs HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n{{}}");
        let err = read_request(&mut BufReader::new(wire.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A request head with a random `Content-Length` and one more header
    /// line, either well formed or raw bytes, then a random body that may
    /// be shorter or longer than declared.
    fn framed_request() -> impl Strategy<Value = Vec<u8>> {
        (
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..64),
            0usize..96,
            proptest::collection::vec(any::<u8>(), 0..96),
        )
            .prop_map(|(well_formed, header, len, body)| {
                let mut wire = format!("POST /runs HTTP/1.1\r\nContent-Length: {len}\r\n")
                    .into_bytes();
                if well_formed {
                    wire.extend(format!("X-Pad: {}", header.len()).into_bytes());
                } else {
                    wire.extend(header);
                }
                wire.extend(b"\r\n\r\n");
                wire.extend(body);
                wire
            })
    }

    /// A valid request line, then `X-Pad` header lines of `line` bytes
    /// each up to about `len` bytes of head, so the head lands on either
    /// side of the cap.
    fn long_head() -> impl Strategy<Value = Vec<u8>> {
        (MAX_HEAD_BYTES - 64..MAX_HEAD_BYTES + 64, 10usize..2048).prop_map(|(len, line)| {
            let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
            while wire.len() + line <= len {
                wire.extend(b"X-Pad: ");
                wire.resize(wire.len() + line - 9, b'a');
                wire.extend(b"\r\n");
            }
            wire.resize(len, b'b');
            wire.extend(b"\r\n\r\n");
            wire
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_or_read_past_the_head_cap(
            wire in prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..2048),
                long_head(),
                framed_request(),
            ],
        ) {
            let mut cursor = io::Cursor::new(&wire[..]);
            match read_request(&mut cursor) {
                Ok(Err(_)) => prop_assert!(
                    cursor.position() <= (MAX_HEAD_BYTES + 1) as u64,
                    "refused after reading {} bytes",
                    cursor.position()
                ),
                Ok(Ok(Some(req))) => {
                    prop_assert!(req.body.len() <= MAX_BODY_BYTES);
                    prop_assert!(cursor.position() <= (MAX_HEAD_BYTES + req.body.len()) as u64);
                }
                Ok(Ok(None)) => prop_assert_eq!(cursor.position(), 0),
                Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            }
        }
    }

    #[test]
    fn each_response_is_one_write_with_unchanged_framing() {
        let mut w = CountingWriter::default();
        write_response(&mut w, 202, "{\"job\":1}").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            w.bytes,
            b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{\"job\":1}"
        );

        let mut w = CountingWriter::default();
        write_response_typed(&mut w, 200, "text/plain; version=0.0.4", "").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            w.bytes,
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );

        let mut w = CountingWriter::default();
        write_stream_head(&mut w).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            w.bytes,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn response_round_trips_both_framings() {
        let mut wire = Vec::new();
        write_response(&mut wire, 202, "{\"job\":1}").unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 202);
        assert_eq!(resp.body, b"{\"job\":1}");

        // Close-delimited stream: the body is everything after the head.
        let mut wire = Vec::new();
        write_stream_head(&mut wire).unwrap();
        wire.extend_from_slice(b"{\"event\":\"x\"}\n{\"event\":\"y\"}\n");
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"event\":\"x\"}\n{\"event\":\"y\"}\n");
    }
}
