//! Minimal HTTP/1.1 framing over `std::net` — just enough for a local JSON
//! service and its test/CI client: request-line + headers + Content-Length
//! bodies, persistent connections (`Connection: keep-alive` by default,
//! honoring `Connection: close` from either side).
//!
//! Request parsing is **sans-IO**: [`RequestParser`] is an incremental
//! state machine fed raw byte slices, reporting [`ParseStatus::NeedMore`]
//! or [`ParseStatus::Complete`] with the number of bytes consumed. The
//! server's event-driven reactor feeds it whatever a nonblocking read
//! produced, so a request split at any byte boundary parses identically
//! to one that arrived whole. Response serialization is buffer-producing
//! ([`Response::to_bytes`]); writing the buffer to a socket is the
//! caller's business.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (query strings are not split off; the service does not
    /// use them).
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no Content-Length).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "body is not valid UTF-8".to_string())
    }

    /// Whether the client asked for the connection to be closed after this
    /// request (`Connection: close`; HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(connection_has_close)
            .unwrap_or(false)
    }
}

/// Outcome of feeding bytes to a [`RequestParser`].
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer does not yet hold a complete request; feed a longer
    /// prefix of the same stream.
    NeedMore,
    /// One complete request. `consumed` is how many bytes of the buffer it
    /// occupied; the remainder (if any) starts the next request.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer belonging to this request.
        consumed: usize,
    },
}

#[derive(Debug)]
enum ParseState {
    /// Still hunting for the blank line ending the head. `scanned` is how
    /// far the terminator scan got on previous feeds, so re-feeding a
    /// growing buffer stays O(head), not O(head²).
    Head { scanned: usize },
    /// Head parsed; waiting for `head_len + body_len` total bytes.
    Body {
        method: String,
        path: String,
        headers: Vec<(String, String)>,
        head_len: usize,
        body_len: usize,
    },
}

/// Incremental, sans-IO HTTP/1.1 request parser.
///
/// Feed it the unconsumed prefix of a connection's byte stream (the same
/// buffer, growing, until [`ParseStatus::Complete`]); it never does I/O
/// and never consumes implicitly — the caller drains `consumed` bytes on
/// completion and may immediately re-feed the remainder (pipelining).
/// Errors (oversized head/body, malformed request line, conflicting
/// Content-Length) are terminal: the connection should be closed.
///
/// A torn or truncated prefix of a valid request is always classified
/// [`ParseStatus::NeedMore`], never an error and never a panic — at EOF
/// the caller decides what a leftover torn prefix means (the reactor
/// drops it and closes the connection).
#[derive(Debug)]
pub struct RequestParser {
    state: ParseState,
}

impl Default for RequestParser {
    fn default() -> Self {
        RequestParser::new()
    }
}

impl RequestParser {
    /// A parser positioned at the start of a request.
    pub fn new() -> RequestParser {
        RequestParser {
            state: ParseState::Head { scanned: 0 },
        }
    }

    /// Parses the request starting at `buf[0]`. See the type docs for the
    /// buffer contract.
    pub fn parse(&mut self, buf: &[u8]) -> io::Result<ParseStatus> {
        loop {
            match &mut self.state {
                ParseState::Head { scanned } => {
                    // Resume the terminator scan two bytes early: the
                    // blank line ("\n\n" or "\n\r\n") may straddle the
                    // previous feed boundary.
                    let from = scanned.saturating_sub(2);
                    let Some(head_len) = find_head_end(buf, from) else {
                        if buf.len() >= MAX_HEAD_BYTES {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "request head too large",
                            ));
                        }
                        *scanned = buf.len();
                        return Ok(ParseStatus::NeedMore);
                    };
                    if head_len > MAX_HEAD_BYTES {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "request head too large",
                        ));
                    }
                    let (method, path, headers, body_len) = parse_head(&buf[..head_len])?;
                    self.state = ParseState::Body {
                        method,
                        path,
                        headers,
                        head_len,
                        body_len,
                    };
                }
                ParseState::Body {
                    head_len, body_len, ..
                } => {
                    let total = *head_len + *body_len;
                    if buf.len() < total {
                        return Ok(ParseStatus::NeedMore);
                    }
                    let ParseState::Body {
                        method,
                        path,
                        headers,
                        head_len,
                        body_len,
                    } = std::mem::replace(&mut self.state, ParseState::Head { scanned: 0 })
                    else {
                        unreachable!()
                    };
                    let body = buf[head_len..head_len + body_len].to_vec();
                    return Ok(ParseStatus::Complete {
                        request: Request {
                            method,
                            path,
                            headers,
                            body,
                        },
                        consumed: head_len + body_len,
                    });
                }
            }
        }
    }
}

/// Finds the end of the request head (index one past the blank line) in
/// `buf`, scanning from `from`. The head terminator is an empty line:
/// `\n\n` or `\n\r\n`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses a complete head (request line + headers + blank line) into
/// `(method, path, headers, body_len)`.
#[allow(clippy::type_complexity)]
fn parse_head(head: &[u8]) -> io::Result<(String, String, Vec<(String, String)>, usize)> {
    let text = std::str::from_utf8(head)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request head is not UTF-8"))?;
    let mut lines = text.split('\n');
    let line = lines.next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_ascii_uppercase(), p.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed request line {line:?}"),
            ))
        }
    };

    let mut headers = Vec::new();
    for line in lines {
        let trimmed = line.trim_end_matches('\r');
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    // Exactly one Content-Length may appear. Taking "the first" of several
    // (even several *agreeing* ones) is how request-smuggling splits
    // happen on persistent connections: an intermediary that picks the
    // other copy would desynchronize on where this request's body ends
    // and parse attacker-controlled body bytes as the next request.
    let mut content_length: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        if content_length.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "multiple Content-Length headers",
            ));
        }
        content_length = Some(
            v.parse::<usize>()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?,
        );
    }
    let body_len = content_length.unwrap_or(0);
    if body_len > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    Ok((method, path, headers, body_len))
}

/// An HTTP response about to be written. Every response is JSON.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, ...).
    pub status: u16,
    /// Extra headers beyond Content-Type/Content-Length/Connection.
    pub headers: Vec<(String, String)>,
    /// Body bytes (JSON text).
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// The body as text (for logs and tests).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes the response into one contiguous buffer. `keep_alive`
    /// selects the `Connection` header; the server passes `false` on the
    /// last response of a connection (client asked to close,
    /// per-connection request cap hit, or shutdown) so well-behaved
    /// clients stop reusing it.
    ///
    /// Buffer-producing on purpose: the reactor queues these bytes whole
    /// into a per-connection write buffer and drains them as the socket
    /// accepts them — on a persistent connection, trickling header
    /// fragments as separate small segments triggers the Nagle/delayed-ACK
    /// interaction (~40 ms per request once the socket leaves quickack
    /// mode), which would erase the keep-alive win entirely.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let _ = write!(out, "\r\n");
        let mut out = out.into_bytes();
        out.reserve(self.body.len());
        out.extend_from_slice(&self.body);
        out
    }
}

/// Reason phrase for the status codes the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response as seen by the client helper.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body text.
    pub body: String,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP client holding one pooled persistent connection to the service.
///
/// The first request dials the server; subsequent requests reuse the same
/// TCP connection (`Connection: keep-alive`), which removes the per-request
/// TCP setup cost from the cache-hit path. The connection is dropped when
/// the server answers `Connection: close` (per-connection request cap, or
/// shutdown) or the response has no `Content-Length`; the next request
/// transparently redials. A request that fails on a *reused* connection is
/// retried once on a fresh one — the pooled connection may have been closed
/// by the server's idle timeout between requests.
#[derive(Debug)]
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
    timeout: Duration,
}

impl Client {
    /// A client for the service at `addr` (e.g. `"127.0.0.1:8471"`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            conn: None,
            timeout: Duration::from_secs(120),
        }
    }

    /// Overrides the per-request read/write timeout (default 120 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Sends one request over the pooled connection (dialing or redialing
    /// as needed) and reads the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        if self.conn.is_some() {
            // The pooled connection may be stale (server idle timeout or
            // request cap raced our send): retry once on a fresh dial —
            // but only for errors that mean "the server had already closed
            // this connection". Anything else (most importantly a read
            // timeout: the server may still be computing) is surfaced, not
            // retried, so a request is never silently executed twice.
            match self.request_once(method, path, body, true) {
                Ok(resp) => return Ok(resp),
                Err(e) if stale_connection(&e) => {} // request_once dropped conn
                Err(e) => return Err(e),
            }
        }
        self.request_once(method, path, body, true)
    }

    /// Sends every request back-to-back over one persistent connection
    /// **before reading any response** (HTTP/1.1 pipelining), then reads
    /// all responses in order. The server guarantees responses come back
    /// in request order, so `result[i]` answers `requests[i]`.
    ///
    /// No stale-connection retry: a pipelined batch is all-or-nothing —
    /// on any error the pooled connection is dropped and the error
    /// surfaced, so a request is never silently executed twice.
    pub fn pipeline(
        &mut self,
        requests: &[(&str, &str, Option<&str>)],
    ) -> io::Result<Vec<ClientResponse>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = String::new();
        for &(method, path, body) in requests {
            write_request_head(&mut out, &self.addr, method, path, body, true);
        }
        let reader = self.ensure_conn()?;
        let run = |reader: &mut BufReader<TcpStream>| -> io::Result<(Vec<ClientResponse>, bool)> {
            reader.get_mut().write_all(out.as_bytes())?;
            reader.get_mut().flush()?;
            let mut responses = Vec::with_capacity(requests.len());
            let mut reusable = true;
            for _ in 0..requests.len() {
                if !reusable {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-pipeline",
                    ));
                }
                let (resp, r) = read_response(reader)?;
                reusable = r;
                responses.push(resp);
            }
            Ok((responses, reusable))
        };
        match run(reader) {
            Ok((responses, reusable)) => {
                if !reusable {
                    self.conn = None;
                }
                Ok(responses)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        keep_alive: bool,
    ) -> io::Result<ClientResponse> {
        let mut head = String::new();
        write_request_head(&mut head, &self.addr, method, path, body, keep_alive);
        let reader = self.ensure_conn()?;
        let result = reader
            .get_mut()
            .write_all(head.as_bytes())
            .and_then(|()| reader.get_mut().flush())
            .and_then(|()| read_response(reader));
        match result {
            Ok((resp, reusable)) => {
                if !keep_alive || !reusable {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// The pooled connection, dialing the server if none is live.
    fn ensure_conn(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        let conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_read_timeout(Some(self.timeout))?;
                stream.set_write_timeout(Some(self.timeout))?;
                // Requests are written whole and are latency-sensitive:
                // never let Nagle hold a segment back waiting for a
                // delayed ACK.
                stream.set_nodelay(true)?;
                BufReader::new(stream)
            }
        };
        Ok(self.conn.insert(conn))
    }
}

/// Serializes one request (head + body) into `out`. Shared by the
/// request-response and pipelined paths so their wire format cannot
/// diverge; the caller sends the buffer in a single write — see
/// [`Response::to_bytes`] on why fragmenting the head is pathological on
/// persistent connections.
fn write_request_head(
    out: &mut String,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    keep_alive: bool,
) {
    use std::fmt::Write as _;
    let body = body.unwrap_or("");
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
}

/// Whether an error from a reused pooled connection means the server had
/// already closed it (making a one-shot retry on a fresh dial safe).
fn stale_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Whether a `Connection` header value asks for the connection to close.
fn connection_has_close(value: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case("close"))
}

/// Reads one response with a UTF-8 body. The boolean says whether the
/// connection can carry another request (the server did not answer
/// `Connection: close`, and the body had an explicit length so the stream
/// position is known).
fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(ClientResponse, bool)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    if status_line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line {status_line:?}"),
            )
        })?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                // A malformed length must fail loudly: `.parse().ok()`
                // would silently drop into the read-to-EOF path, blocking
                // until the server's idle timeout and desyncing the
                // persistent connection.
                content_length = Some(value.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed response Content-Length {value:?}"),
                    )
                })?);
            }
            headers.push((name, value));
        }
    }

    let sized = content_length.is_some();
    let body = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };

    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body not UTF-8"))?;
    let resp = ClientResponse {
        status,
        headers,
        body,
    };
    let server_close = resp
        .header("connection")
        .map(connection_has_close)
        .unwrap_or(false);
    let reusable = sized && !server_close;
    Ok((resp, reusable))
}

/// One-shot HTTP client: connects, sends a single `Connection: close`
/// request, reads the full response. [`Client`] amortizes the dial across
/// requests; this helper is for callers that genuinely send one request.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    Client::new(addr).request_once(method, path, body, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One parse over the whole of `raw`.
    fn parse(raw: &[u8]) -> io::Result<ParseStatus> {
        RequestParser::new().parse(raw)
    }

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /rank HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let ParseStatus::Complete {
            request: req,
            consumed,
        } = parse(raw).unwrap()
        else {
            panic!("whole request did not complete");
        };
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/rank");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body_str().unwrap(), "{\"a\":1}");
    }

    #[test]
    fn parser_is_incremental_and_tracks_consumed() {
        let raw = b"POST /rank HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}extra";
        let mut parser = RequestParser::new();
        // Every strict prefix of the request proper is NeedMore.
        let request_len = raw.len() - 5;
        for cut in 0..request_len {
            let mut p = RequestParser::new();
            assert!(
                matches!(p.parse(&raw[..cut]).unwrap(), ParseStatus::NeedMore),
                "cut {cut}"
            );
        }
        // Byte-at-a-time feeding of one parser instance completes exactly
        // once, at exactly the request boundary, leaving "extra" alone.
        let mut done = None;
        for cut in 0..=raw.len() {
            match parser.parse(&raw[..cut]).unwrap() {
                ParseStatus::NeedMore => assert!(done.is_none()),
                ParseStatus::Complete { request, consumed } => {
                    done = Some((request, consumed));
                    break;
                }
            }
        }
        let (req, consumed) = done.expect("never completed");
        assert_eq!(consumed, request_len);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/rank");
        assert_eq!(req.body_str().unwrap(), "{\"a\":1}");
        // The parser reset itself: the remainder parses as a new head.
        assert!(matches!(
            parser.parse(&raw[consumed..]).unwrap(),
            ParseStatus::NeedMore
        ));
    }

    #[test]
    fn parser_carves_pipelined_requests_at_exact_boundaries() {
        let raw: &[u8] = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        let mut start = 0;
        let mut got = Vec::new();
        while start < raw.len() {
            match parser.parse(&raw[start..]).unwrap() {
                ParseStatus::Complete { request, consumed } => {
                    start += consumed;
                    got.push(request.path);
                }
                ParseStatus::NeedMore => panic!("incomplete at {start}"),
            }
        }
        assert_eq!(got, ["/a", "/b", "/c"]);
        assert_eq!(start, raw.len());
    }

    #[test]
    fn parser_errors_match_one_shot_classification() {
        // Oversized declared body.
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = RequestParser::new().parse(raw.as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "request body too large");
        // Conflicting Content-Length.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 2\r\n\r\n";
        let err = RequestParser::new().parse(raw).unwrap_err();
        assert_eq!(err.to_string(), "multiple Content-Length headers");
        // Unterminated head at the cap.
        let flood = format!("GET /{} HTTP/1.1", "a".repeat(MAX_HEAD_BYTES * 2));
        let err = RequestParser::new().parse(flood.as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "request head too large");
        // Bare-\n framing parses like \r\n framing.
        let mut p = RequestParser::new();
        let raw = b"GET /x HTTP/1.1\nhost: h\n\n";
        let ParseStatus::Complete { request, consumed } = p.parse(raw).unwrap() else {
            panic!("bare-newline head did not complete");
        };
        assert_eq!(consumed, raw.len());
        assert_eq!(request.header("host"), Some("h"));
    }

    #[test]
    fn empty_stream_is_none() {
        // An empty stream holds no request, and no error either.
        assert!(matches!(parse(b"").unwrap(), ParseStatus::NeedMore));
    }

    #[test]
    fn rejects_request_line_without_newline() {
        // A head truncated mid-request-line (no terminating newline) must
        // be classified as truncation (NeedMore), never parsed as a
        // method/path fragment. Pre-fix, `b"POST"` was fed to the
        // request-line parser and misreported as InvalidData
        // "malformed request line".
        for raw in [
            &b"POST"[..],
            &b"POST /rank"[..],
            &b"POST /rank HTTP/1.1"[..],
        ] {
            assert!(
                matches!(parse(raw).unwrap(), ParseStatus::NeedMore),
                "{raw:?}"
            );
        }
        // An endless request line hitting the head cap reports the cap.
        let flood = format!("GET /{} HTTP/1.1", "a".repeat(MAX_HEAD_BYTES * 2));
        let err = parse(flood.as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "request head too large");
    }

    #[test]
    fn rejects_oversized_head_without_buffering_it() {
        // One endless header line (no newline anywhere): the take() cap
        // must fail the request at MAX_HEAD_BYTES, not buffer it all.
        let flood = format!(
            "GET / HTTP/1.1\r\nX-Flood: {}",
            "a".repeat(MAX_HEAD_BYTES * 2)
        );
        let err = parse(flood.as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "request head too large");
        // Many small header lines exceeding the cap in aggregate.
        let mut flood = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEAD_BYTES / 8) {
            flood.push_str(&format!("h{i}: v\r\n"));
        }
        assert!(parse(flood.as_bytes()).is_err());
    }

    #[test]
    fn rejects_duplicate_or_conflicting_content_length() {
        // Two CONFLICTING lengths: whichever one a naive parser picks, an
        // intermediary picking the other desynchronizes the connection —
        // the request-smuggling primitive. Pre-fix the first match won
        // silently.
        let raw = b"POST /rank HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 2\r\n\r\n{\"a\":1}";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "multiple Content-Length headers");
        // Duplicates that AGREE are rejected too (RFC 9112 §6.3 allows
        // coalescing them, but nothing legitimate sends them — and every
        // accepted duplicate is smuggling surface).
        let raw = b"POST /rank HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.to_string(), "multiple Content-Length headers");
        // One well-formed length still parses, whatever its position.
        let raw = b"POST /rank HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        assert!(matches!(parse(raw).unwrap(), ParseStatus::Complete { .. }));
    }

    #[test]
    fn client_rejects_malformed_response_content_length() {
        // Pre-fix: `.parse().ok()` turned garbage into None and the client
        // fell into the read-to-EOF path — silently mis-framing the body
        // and poisoning the persistent connection.
        for bad in ["x", "-1", "18446744073709551616", "1 2"] {
            let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {bad}\r\n\r\n{{}}");
            let err = read_response(&mut raw.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
            assert!(err.to_string().contains("Content-Length"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn rejects_oversized_body_and_bad_length() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse(raw.as_bytes()).is_err());
        let raw = "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n";
        assert!(parse(raw.as_bytes()).is_err());
    }

    #[test]
    fn response_serialization() {
        let out = Response::json(200, "{}")
            .with_header("X-Saphyra-Cache", "hit")
            .to_bytes(true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Saphyra-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let out = Response::json(200, "{}").to_bytes(false);
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: close\r\n"));
    }

    #[test]
    fn connection_close_detection() {
        let req = |headers: &[(&str, &str)]| Request {
            method: "GET".to_string(),
            path: "/".to_string(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        };
        assert!(!req(&[]).wants_close());
        assert!(!req(&[("connection", "keep-alive")]).wants_close());
        assert!(req(&[("connection", "close")]).wants_close());
        assert!(req(&[("connection", "Keep-Alive, Close")]).wants_close());
    }

    #[test]
    fn read_response_reports_reusability() {
        let raw: &[u8] =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        let (resp, reusable) = read_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{}");
        assert!(reusable);

        let raw: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert!(!read_response(&mut &raw[..]).unwrap().1);

        // No Content-Length: body runs to EOF, the connection is spent.
        let raw: &[u8] = b"HTTP/1.1 200 OK\r\n\r\n{}";
        let (resp, reusable) = read_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.body, "{}");
        assert!(!reusable);
    }
}
