//! Hand-rolled HTTP/1.1 request reading and response writing.
//!
//! The build is offline (no axum/hyper), so the network front door speaks
//! a deliberately small, strictly validated slice of HTTP/1.1 over
//! `std::net` primitives:
//!
//! * request line + headers, terminated by an empty line (CRLF or bare LF);
//! * bodies sized by one `Content-Length` of ASCII digits only
//!   (`Transfer-Encoding` is rejected — chunked uploads are out of scope
//!   for a JSON inference API);
//! * keep-alive by default for HTTP/1.1 and on request for HTTP/1.0, and
//!   a `close` token in `Connection` ends the connection;
//! * `Expect: 100-continue` answered before the body is read;
//! * hard caps on head and body size, so a misbehaving client cannot make
//!   the server buffer unbounded memory.
//!
//! Anything malformed or over the caps maps to a [`HttpError`] that the
//! server layer renders as a `400` with a JSON error body — a bad request
//! must never tear the connection down silently (see
//! `crates/serve/tests/http_e2e.rs` for the negative-path contract).

use std::fmt;
use std::io::{BufRead, Write};

/// Default cap on the request line + headers, in bytes.
pub const DEFAULT_MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default cap on request bodies, in bytes (a ~100k-line AIGER fits).
pub const DEFAULT_MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Size caps applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body (`Content-Length` above this is rejected
    /// before any body byte is read).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: DEFAULT_MAX_HEAD_BYTES,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, uppercase as sent (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (before `?`).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes (empty without one).
    pub body: Vec<u8>,
    /// True for an `HTTP/1.0` request line, false for `HTTP/1.1`.
    pub(crate) http10: bool,
}

impl HttpRequest {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the connection closes after this request: a `close`
    /// token in any `Connection` header, or an HTTP/1.0 request that does
    /// not list `keep-alive` (RFC 9112 §9.3).
    pub fn wants_close(&self) -> bool {
        let lists = |token: &str| {
            self.headers
                .iter()
                .filter(|(name, _)| name == "connection")
                .flat_map(|(_, value)| value.split(','))
                .any(|listed| listed.trim().eq_ignore_ascii_case(token))
        };
        lists("close") || (self.http10 && !lists("keep-alive"))
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed cleanly before a request line arrived —
    /// normal end of a keep-alive connection, not a protocol error.
    Closed,
    /// Malformed request line, header, or length field — or a head/body
    /// over the configured caps. Maps to status `400`.
    BadRequest(String),
    /// A protocol feature this server deliberately does not implement
    /// (currently only `Transfer-Encoding`). Maps to status `501`.
    NotImplemented(String),
    /// The underlying socket failed or timed out mid-request.
    Io(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::NotImplemented(msg) => write!(f, "not implemented: {msg}"),
            HttpError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one request head + body from `reader`.
///
/// When the head announces `Expect: 100-continue`, an interim
/// `100 Continue` is written to `writer` before the body is read (curl
/// sends the expectation for multi-kilobyte uploads and stalls without the
/// interim response).
pub fn read_request(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    limits: &HttpLimits,
) -> Result<HttpRequest, HttpError> {
    read_request_with(reader, writer, limits, |_| {})
}

/// [`read_request`] with an `on_head` hook, called once after the head is
/// parsed and validated but before any body byte is read.
///
/// The hook is how the server distinguishes *idle* time (waiting for the
/// next request line on a keep-alive connection) from *mid-request* time
/// (a client trickling a `Content-Length` body): it fires exactly at that
/// boundary, so the caller can switch the socket from its idle-keepalive
/// timeout to the request's remaining deadline budget.
pub fn read_request_with(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    limits: &HttpLimits,
    on_head: impl FnOnce(&HttpRequest),
) -> Result<HttpRequest, HttpError> {
    let head = read_head(reader, limits.max_head_bytes)?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !method.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(HttpError::BadRequest(format!(
            "malformed method {method:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line {line:?}"
            )));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!(
                "malformed header name {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = parse_target(target)?;
    let mut request = HttpRequest {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
        http10: version == "HTTP/1.0",
    };

    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::NotImplemented(
            "Transfer-Encoding is not supported; send a Content-Length body".into(),
        ));
    }
    // One length of plain digits (RFC 9112 §6.3): a second length, or a
    // sign the integer parser would accept, leaves the body's end in doubt
    // and with it where the next request on the connection starts.
    let mut lengths = request
        .headers
        .iter()
        .filter(|(name, _)| name == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0usize,
        (Some(_), Some(_)) => {
            return Err(HttpError::BadRequest("repeated Content-Length".into()));
        }
        (Some((_, v)), None) => match v.parse() {
            Ok(length) if v.bytes().all(|b| b.is_ascii_digit()) => length,
            _ => {
                return Err(HttpError::BadRequest(format!(
                    "malformed Content-Length {v:?}"
                )))
            }
        },
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BadRequest(format!(
            "body of {content_length} bytes exceeds the {} byte limit",
            limits.max_body_bytes
        )));
    }
    on_head(&request);
    if content_length > 0 {
        if request
            .header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
        {
            writer
                .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                .and_then(|()| writer.flush())
                .map_err(|e| HttpError::Io(e.to_string()))?;
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(|e| {
            HttpError::BadRequest(format!(
                "body shorter than Content-Length {content_length}: {e}"
            ))
        })?;
        request.body = body;
    }
    Ok(request)
}

/// Reads up to and including the blank line terminating the head; `cap`
/// bounds the buffered bytes. Returns the head without its terminator.
fn read_head(reader: &mut impl BufRead, cap: usize) -> Result<String, HttpError> {
    let mut head: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        };
        if available.is_empty() {
            return if head.is_empty() {
                Err(HttpError::Closed)
            } else {
                Err(HttpError::BadRequest(
                    "connection closed mid-request head".into(),
                ))
            };
        }
        // Consume up to (and including) the first newline of this chunk;
        // the head terminator check below works line by line.
        let take = match available.iter().position(|&b| b == b'\n') {
            Some(at) => at + 1,
            None => available.len(),
        };
        head.extend_from_slice(&available[..take]);
        reader.consume(take);
        if head.len() > cap {
            return Err(HttpError::BadRequest(format!(
                "request head exceeds the {cap} byte limit"
            )));
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            let text = String::from_utf8(head)
                .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
            return Ok(text.trim_end_matches(['\r', '\n']).to_string());
        }
        // A lone newline first line (empty request line) is malformed.
        if head == b"\r\n" || head == b"\n" {
            return Err(HttpError::BadRequest("empty request line".into()));
        }
    }
}

/// Splits a request target into path and decoded query pairs.
fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target {target:?} is not an absolute path"
        )));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = Vec::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((percent_decode(key)?, percent_decode(value)?));
    }
    Ok((percent_decode(path)?, query))
}

/// Decodes `%XX` escapes and `+`-for-space in a query component.
fn percent_decode(s: &str) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        return Err(HttpError::BadRequest(format!(
                            "malformed percent escape in {s:?}"
                        )))
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| HttpError::BadRequest(format!("percent-decoded {s:?} is not UTF-8")))
}

/// One response to serialize.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (`200`, `400`, …).
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra `(name, value)` headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// Announce + perform connection close after this response.
    pub close: bool,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A JSON error body `{"error": …}` with the given status.
    pub fn error(status: u16, message: &str) -> HttpResponse {
        HttpResponse::json(
            status,
            format!("{{\"error\":\"{}\"}}", crate::json::escape(message)),
        )
    }

    /// A plain-text response (the `/metrics` exposition format).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// Returns `self` with the close flag set.
    pub fn closing(mut self) -> HttpResponse {
        self.close = true;
        self
    }

    /// Returns `self` with an extra header appended.
    pub fn with_header(mut self, name: &str, value: String) -> HttpResponse {
        self.extra_headers.push((name.to_string(), value));
        self
    }
}

/// Canonical reason phrase of the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes `response` onto `writer` (status line, headers,
/// `Content-Length`, body) and flushes.
pub fn write_response(writer: &mut impl Write, response: &HttpResponse) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if response.close {
        "connection: close\r\n\r\n"
    } else {
        "connection: keep-alive\r\n\r\n"
    });
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<HttpRequest, HttpError> {
        parse_limited(raw, &HttpLimits::default())
    }

    fn parse_limited(raw: &[u8], limits: &HttpLimits) -> Result<HttpRequest, HttpError> {
        let mut reader = Cursor::new(raw.to_vec());
        let mut sink = Vec::new();
        read_request(&mut reader, &mut sink, limits)
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse(b"GET /v1/embed?p1=0.25&name=a%20b HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/embed");
        assert_eq!(req.query_param("p1"), Some("0.25"));
        assert_eq!(req.query_param("name"), Some("a b"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/embed HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn bare_lf_heads_are_accepted() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn clean_eof_is_closed_not_bad_request() {
        assert_eq!(parse(b"").unwrap_err(), HttpError::Closed);
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET /x HTTP/1.1 EXTRA\r\n\r\n",
            b"GET /x SMTP/1.0\r\n\r\n",
            b"G=T /x HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn malformed_headers_and_lengths_are_rejected() {
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Truncated body: fewer bytes than announced.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(HttpError::BadRequest(_))
        ));
        // A signed length, and a second length in either order: where the
        // body ends is in doubt, even with every byte present.
        let body = "x".repeat(20);
        for lengths in [
            "Content-Length: +20\r\n",
            "Content-Length: 3\r\nContent-Length: 20\r\n",
            "Content-Length: 20\r\ncontent-length: 20\r\n",
            "Content-Length: 20, 20\r\n",
        ] {
            let raw = format!("POST / HTTP/1.1\r\n{lengths}\r\n{body}");
            assert!(
                matches!(parse(raw.as_bytes()), Err(HttpError::BadRequest(_))),
                "{lengths:?}"
            );
        }
    }

    #[test]
    fn connection_close_follows_version_and_token_list() {
        for (raw, close) in [
            (&b"GET / HTTP/1.1\r\n\r\n"[..], false),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", true),
            (
                b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
                true,
            ),
            (b"GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", false),
            (
                b"GET / HTTP/1.0\r\nConnection: upgrade, Keep-Alive\r\n\r\n",
                false,
            ),
            (
                b"GET / HTTP/1.0\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n",
                true,
            ),
        ] {
            let request = parse(raw).unwrap();
            assert_eq!(
                request.wants_close(),
                close,
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        assert!(matches!(
            parse_limited(long_target.as_bytes(), &limits),
            Err(HttpError::BadRequest(_))
        ));
        // Over-cap Content-Length is rejected before any body read.
        assert!(matches!(
            parse_limited(
                b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789",
                &limits
            ),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn transfer_encoding_is_not_implemented() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::NotImplemented(_))
        ));
    }

    #[test]
    fn expect_100_continue_gets_an_interim_response() {
        let mut reader = Cursor::new(
            b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok".to_vec(),
        );
        let mut interim = Vec::new();
        let req = read_request(&mut reader, &mut interim, &HttpLimits::default()).unwrap();
        assert_eq!(req.body, b"ok");
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    #[test]
    fn on_head_fires_after_the_head_but_before_the_body() {
        let mut reader =
            Cursor::new(b"POST /v1/embed HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec());
        let mut sink = Vec::new();
        let mut seen_at = None;
        let req = read_request_with(&mut reader, &mut sink, &HttpLimits::default(), |head| {
            assert_eq!(head.path, "/v1/embed");
            assert!(head.body.is_empty(), "hook must run before the body read");
            seen_at = Some(head.header("content-length").unwrap().to_string());
        })
        .unwrap();
        assert_eq!(seen_at.as_deref(), Some("5"));
        assert_eq!(req.body, b"hello");
        // Malformed heads never reach the hook.
        let mut reader = Cursor::new(b"GARBAGE\r\n\r\n".to_vec());
        let mut fired = false;
        let result = read_request_with(&mut reader, &mut sink, &HttpLimits::default(), |_| {
            fired = true;
        });
        assert!(result.is_err());
        assert!(!fired);
    }

    #[test]
    fn responses_carry_length_and_connection_headers() {
        let mut out = Vec::new();
        write_response(&mut out, &HttpResponse::json(200, "{}").closing()).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        let resp = HttpResponse::error(429, "queue full").with_header("retry-after", "1".into());
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("HTTP/1.1 429 Too Many Requests"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert_eq!(percent_decode("a%2Fb+c").unwrap(), "a/b c");
        assert!(percent_decode("bad%2").is_err());
        assert!(percent_decode("bad%zz").is_err());
    }
}
