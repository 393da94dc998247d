//! A minimal HTTP/1.1 subset over `std::io` streams.
//!
//! Just enough protocol for the tevot-serve endpoints: request-line +
//! headers + `Content-Length` bodies in, fixed-status responses with a
//! byte body out. Keep-alive is the default (HTTP/1.1 semantics); a
//! `Connection: close` header on either side ends the connection after
//! the in-flight exchange. Chunked transfer encoding, continuation
//! lines, and multi-value header folding are deliberately out of scope —
//! requests using them are rejected with a typed error rather than
//! misparsed.

use std::io::{self, BufRead, Write};

/// Upper bound on the request line + header section, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on the number of header fields per request.
pub const MAX_HEADERS: usize = 64;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, uppercase as received (`GET`, `POST`...).
    pub method: String,
    /// The request target path, e.g. `/predict` (query strings are kept
    /// verbatim; no endpoint currently uses them).
    pub path: String,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A failure while reading one request off the wire.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// The read timed out with no bytes consumed (idle keep-alive
    /// connection); the caller may poll for shutdown and retry.
    IdleTimeout,
    /// The request is malformed; the message is safe to echo to the
    /// client in a 400 response.
    Malformed(String),
    /// The declared body exceeds the configured limit (HTTP 413).
    BodyTooLarge(usize),
    /// The request line + headers exceed [`MAX_HEAD_BYTES`]; detected
    /// *before* the excess is buffered, so a malicious or broken peer
    /// cannot make the server read an unbounded head (HTTP 431).
    HeadTooLarge(usize),
    /// The request carries more than [`MAX_HEADERS`] header fields
    /// (HTTP 431).
    TooManyHeaders(usize),
    /// Any other I/O failure (reset mid-request, timeout mid-body...).
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Eof => write!(f, "connection closed"),
            ReadError::IdleTimeout => write!(f, "idle timeout"),
            ReadError::Malformed(m) => write!(f, "malformed request: {m}"),
            ReadError::BodyTooLarge(n) => write!(f, "request body of {n} bytes exceeds the limit"),
            ReadError::HeadTooLarge(n) => {
                write!(f, "request head exceeds the {n}-byte limit")
            }
            ReadError::TooManyHeaders(n) => {
                write!(f, "request carries more than {n} header fields")
            }
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads one request from `stream`.
///
/// Returns [`ReadError::Eof`] on a clean close before the first byte and
/// [`ReadError::IdleTimeout`] when a read timeout configured on the
/// underlying socket fires before the first byte — both mean "no request
/// in flight". A timeout or EOF *mid-request* is an I/O error: the
/// exchange is unrecoverable.
///
/// # Errors
///
/// See [`ReadError`]; `Malformed` and `BodyTooLarge` should be answered
/// with 400/413 before closing.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, ReadError> {
    let mut line = Vec::new();
    let mut budget = MAX_HEAD_BYTES;
    match read_line(stream, &mut line, &mut budget) {
        Ok(0) => return Err(ReadError::Eof),
        Ok(_) => {}
        Err(ReadError::Io(e)) if is_timeout(&e) && line.is_empty() => {
            return Err(ReadError::IdleTimeout)
        }
        Err(e) => return Err(e),
    }
    let request_line = String::from_utf8(line.clone())
        .map_err(|_| ReadError::Malformed("request line is not UTF-8".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(ReadError::Malformed(format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported protocol {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        line.clear();
        match read_line(stream, &mut line, &mut budget) {
            Ok(0) => return Err(ReadError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(_) => {}
            Err(e) => return Err(e),
        }
        if line.is_empty() {
            break; // end of the header section
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::TooManyHeaders(MAX_HEADERS));
        }
        let text = String::from_utf8(line.clone())
            .map_err(|_| ReadError::Malformed("header is not UTF-8".into()))?;
        let Some((name, value)) = text.split_once(':') else {
            return Err(ReadError::Malformed(format!("header without ':': {text:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request { method, path, headers, body: Vec::new() };
    if let Some(len) = request.header("content-length") {
        let len: usize =
            len.parse().map_err(|_| ReadError::Malformed(format!("bad Content-Length {len:?}")))?;
        if len > max_body {
            return Err(ReadError::BodyTooLarge(len));
        }
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).map_err(ReadError::Io)?;
        request.body = body;
    }
    Ok(request)
}

/// Reads one CRLF- (or bare-LF-) terminated line, stripping the
/// terminator. `budget` is the remaining head allowance; the read stops
/// with [`ReadError::HeadTooLarge`] the moment a chunk would exceed it,
/// so at most [`MAX_HEAD_BYTES`] of head are ever buffered — a peer
/// streaming an endless header line cannot grow memory past the cap.
fn read_line(
    stream: &mut impl BufRead,
    line: &mut Vec<u8>,
    budget: &mut usize,
) -> Result<usize, ReadError> {
    let mut consumed = 0usize;
    loop {
        let buf = match stream.fill_buf() {
            Ok(buf) => buf,
            Err(e) => return Err(ReadError::Io(e)),
        };
        if buf.is_empty() {
            break; // EOF
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |pos| pos + 1);
        if take > *budget {
            return Err(ReadError::HeadTooLarge(MAX_HEAD_BYTES));
        }
        *budget -= take;
        consumed += take;
        line.extend_from_slice(&buf[..take]);
        stream.consume(take);
        if newline.is_some() {
            break;
        }
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    Ok(consumed)
}

/// One HTTP response, written with `Content-Length` framing.
#[derive(Debug, Clone)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Extra headers beyond the always-present `Content-Type` /
    /// `Content-Length` / `Connection`.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        let body: String = body.into();
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            431 => "Request Header Fields Too Large",
            502 => "Bad Gateway",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

/// Serializes `response` to `stream`. `close` controls the `Connection`
/// header (the caller decides keep-alive vs close).
///
/// # Errors
///
/// Propagates I/O errors from the stream.
pub fn write_response(stream: &mut impl Write, response: &Response, close: bool) -> io::Result<()> {
    write!(stream, "HTTP/1.1 {} {}\r\n", response.status, response.reason())?;
    for (name, value) in &response.headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "Content-Length: {}\r\n", response.body.len())?;
    write!(stream, "Connection: {}\r\n\r\n", if close { "close" } else { "keep-alive" })?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// A one-shot blocking `GET` against a tevot-serve endpoint: connects,
/// sends `Connection: close`, and returns `(status, body)`. Used by the
/// CLI's `prom-check` command; not a general HTTP client
/// (no redirects, no chunked bodies, no TLS).
///
/// # Errors
///
/// Propagates connect/read failures and malformed responses as
/// [`io::Error`].
pub fn get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without header end"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(text.as_bytes()), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_close_header() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let req = parse("GET /metrics HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn clean_eof_is_distinguished() {
        assert!(matches!(parse(""), Err(ReadError::Eof)));
    }

    #[test]
    fn malformed_requests_are_typed() {
        assert!(matches!(parse("NONSENSE\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(parse("GET / SPDY/3\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(e, ReadError::BodyTooLarge(9999)));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(e, ReadError::Io(_)));
    }

    #[test]
    fn oversized_head_is_typed_431() {
        let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&huge), Err(ReadError::HeadTooLarge(MAX_HEAD_BYTES))));
    }

    #[test]
    fn endless_header_line_stops_at_the_cap() {
        // A single header line with no terminator at all: the reader must
        // give up at MAX_HEAD_BYTES instead of buffering the whole thing.
        let mut huge = String::from("GET / HTTP/1.1\r\nX-Pad: ");
        huge.push_str(&"b".repeat(4 * MAX_HEAD_BYTES));
        assert!(matches!(parse(&huge), Err(ReadError::HeadTooLarge(MAX_HEAD_BYTES))));
    }

    #[test]
    fn too_many_header_fields_are_rejected() {
        let mut req = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            req.push_str(&format!("X-H{i}: v\r\n"));
        }
        req.push_str("\r\n");
        assert!(matches!(parse(&req), Err(ReadError::TooManyHeaders(MAX_HEADERS))));
    }

    #[test]
    fn exactly_max_headers_is_accepted() {
        let mut req = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            req.push_str(&format!("X-H{i}: v\r\n"));
        }
        req.push_str("\r\n");
        let parsed = parse(&req).expect("a request at the cap parses");
        assert_eq!(parsed.headers.len(), MAX_HEADERS);
    }

    #[test]
    fn response_round_trips_status_and_headers() {
        let mut out = Vec::new();
        let resp = Response::json(503, "{\"error\":\"shed\"}").with_header("Retry-After", "1");
        write_response(&mut out, &resp, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Content-Length: 16\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"shed\"}"), "{text}");
    }

    #[test]
    fn reason_phrases_cover_the_status_table() {
        for (code, phrase) in [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (431, "Request Header Fields Too Large"),
            (502, "Bad Gateway"),
            (504, "Gateway Timeout"),
        ] {
            assert_eq!(Response::json(code, "").reason(), phrase);
        }
    }
}
