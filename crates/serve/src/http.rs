//! A minimal HTTP/1.1 wire implementation: the incremental request
//! parser the event loop feeds, response emission (full or chunked), and
//! the blocking client-side reader the integration tests and experiment
//! probes share (a thin loop over [`ee_util::http1::ResponseDecoder`],
//! the one response decoder; the load generator's nonblocking fleet
//! drives the same decoder through [`ee_util::http1::ClientConn`]).
//!
//! Deliberately small — exactly the subset the serving tier needs:
//! request line + headers + `Content-Length` request bodies,
//! percent-decoded paths and query strings, keep-alive semantics
//! (HTTP/1.1 persistent by default, `Connection: close` honoured both
//! ways), and `Transfer-Encoding: chunked` on the **response** side so
//! large bodies stream incrementally instead of materialising in one
//! `Vec<u8>`. Requests framed any other way (`Transfer-Encoding`,
//! conflicting `Content-Length`s) are refused; no trailers, no upgrade.
//!
//! A response body is a [`Body`]: sized (`Content-Length`; owned
//! [`Body::Full`] or cache-shared [`Body::Shared`]) or
//! [`Body::Streamed`] (a pull-based [`BodyStream`] producer, chunked
//! framing). The request-side 1 MiB cap stays; there is no
//! response-side cap — that is the point of streaming.

use ee_util::http1::ResponseDecoder;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Largest accepted **request** body. Anything bigger is refused with
/// 413 rather than buffered — the serving tier fronts read-mostly
/// analytics. Responses are uncapped: large bodies stream chunked.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted header section (request line + all headers).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A request [`RequestParser::poll_request`] refuses; the server answers
/// it (400 or 413) and closes the connection.
#[derive(Debug)]
pub enum RequestError {
    /// Bad request line, header, length or framing.
    Malformed(String),
    /// Declared body longer than [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::BodyTooLarge(n) => write!(f, "body of {n} bytes too large"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A response [`read_response`] could not read.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before the first byte of a response — the server closed
    /// the connection between keep-alive exchanges.
    ConnectionClosed,
    /// Malformed response (bad status line, header, length or framing).
    Malformed(String),
    /// Underlying socket error (including read timeouts) mid-response.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::Malformed(m) => write!(f, "malformed message: {m}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path component, e.g. `/tiles/2/0/1`.
    pub path: String,
    /// Decoded query parameters in document order.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// True when the request used HTTP/1.1 (keep-alive by default).
    pub http11: bool,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// A query parameter parsed as `T` and checked against `range`, or
    /// `default` when the parameter is absent. A value that does not
    /// parse, or falls outside `range`, is refused with a 400 that names
    /// the parameter and the range: never replaced or clamped.
    pub fn param_in<T, R>(&self, name: &str, default: T, range: R) -> Result<T, Response>
    where
        T: std::str::FromStr + PartialOrd,
        R: std::ops::RangeBounds<T> + std::fmt::Debug,
    {
        use std::ops::Bound::Unbounded;
        let Some(raw) = self.param(name) else {
            return Ok(default);
        };
        match raw.parse::<T>() {
            Ok(v) if range.contains(&v) => Ok(v),
            _ => {
                let float = std::any::type_name::<T>().starts_with('f');
                let kind = if float { "a number" } else { "an integer" };
                let within = match (range.start_bound(), range.end_bound()) {
                    (Unbounded, Unbounded) => String::new(),
                    _ => format!(" in {range:?}"),
                };
                let msg = format!("{name} must be {kind}{within}, got {raw:?}");
                Err(Response::error(400, &msg))
            }
        }
    }

    /// Whether the connection should stay open after this exchange.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

fn malformed(msg: impl Into<String>) -> RequestError {
    RequestError::Malformed(msg.into())
}

/// Parse a request head — request line, headers and the blank line
/// ending them, as located by [`find_head_end`] — into a bodiless
/// request plus the body length its `Content-Length` declares.
///
/// Lines end in CRLF or a bare LF. A request carrying
/// `Transfer-Encoding`, or `Content-Length` headers that disagree, is
/// refused: its body would otherwise be read as the next pipelined
/// request on the connection.
fn parse_head(head: &[u8]) -> Result<(Request, usize), RequestError> {
    let mut lines = head.split(|&b| b == b'\n').map(|line| {
        if line.len() > MAX_HEADER_BYTES {
            return Err(malformed("line too long"));
        }
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        std::str::from_utf8(line).map_err(|_| malformed("non-UTF-8 header bytes"))
    });
    let line = lines.next().expect("split yields at least one line")?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| malformed("missing request target"))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    if parts.next().is_some() {
        return Err(malformed("extra tokens in request line"));
    }

    let mut headers = Vec::new();
    let mut header_bytes = line.len();
    let mut content_length: Option<&str> = None;
    for h in lines {
        let h = h?;
        if h.is_empty() {
            break;
        }
        header_bytes += h.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(malformed("header section too large"));
        }
        let (name, value) = h
            .split_once(':')
            .ok_or_else(|| malformed(format!("header without ':': {h:?}")))?;
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        match name.as_str() {
            "transfer-encoding" => {
                return Err(malformed("transfer-encoding on a request is not supported"))
            }
            "content-length" if content_length.is_some_and(|first| first != value) => {
                return Err(malformed("conflicting content-length headers"))
            }
            "content-length" => content_length = Some(value),
            _ => {}
        }
        headers.push((name, value.to_string()));
    }

    let content_length = content_length
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::BodyTooLarge(content_length));
    }
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let req = Request {
        method,
        path: percent_decode(path_raw),
        query: query_raw.map(parse_query).unwrap_or_default(),
        headers,
        body: Vec::new(),
        http11: version == "HTTP/1.1",
    };
    Ok((req, content_length))
}

/// Decode `%XX` sequences and `+`-as-space.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
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
    String::from_utf8_lossy(&out).into_owned()
}

/// Split a raw query string into decoded key/value pairs.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// A pull-based producer of response-body bytes.
///
/// `next_chunk` returns `Some(chunk)` until the body is exhausted, then
/// `None`. The returned slice borrows the producer's internal buffer and
/// is valid until the next call. Empty chunks are permitted (the writer
/// skips them — an empty chunk would terminate chunked framing early).
/// Errors abort the response mid-stream; with chunked framing the peer
/// observes the truncation (no terminating `0\r\n\r\n`).
pub trait BodyStream: Send {
    /// Produce the next chunk of body bytes, or `None` when done.
    fn next_chunk(&mut self) -> std::io::Result<Option<&[u8]>>;
}

/// A [`BodyStream`] over a fixed sequence of chunks — the simplest
/// producer, used by tests and anywhere the chunking is precomputed.
pub struct ChunkedSlices {
    chunks: Vec<Vec<u8>>,
    next: usize,
}

impl ChunkedSlices {
    /// A stream yielding `chunks` in order.
    pub fn new(chunks: Vec<Vec<u8>>) -> Self {
        ChunkedSlices { chunks, next: 0 }
    }
}

impl BodyStream for ChunkedSlices {
    fn next_chunk(&mut self) -> std::io::Result<Option<&[u8]>> {
        if self.next >= self.chunks.len() {
            return Ok(None);
        }
        self.next += 1;
        Ok(Some(&self.chunks[self.next - 1]))
    }
}

/// A response body: fully materialised (`Content-Length` framing) or an
/// incremental producer (`Transfer-Encoding: chunked` framing).
pub enum Body {
    /// Sized body, written in one piece.
    Full(Vec<u8>),
    /// Sized body whose bytes stay owned elsewhere (a response-cache
    /// entry), so replaying it copies nothing into the response.
    Shared(Arc<dyn AsRef<[u8]> + Send + Sync>),
    /// Incremental body, written chunk by chunk as the producer yields.
    Streamed(Box<dyn BodyStream>),
}

impl Body {
    /// An empty sized body (304s, HEAD-ish replies).
    pub fn empty() -> Body {
        Body::Full(Vec::new())
    }

    /// The bytes of a sized body ([`Body::Full`] or [`Body::Shared`]);
    /// `None` for streams.
    pub fn as_full(&self) -> Option<&[u8]> {
        match self {
            Body::Full(b) => Some(b),
            Body::Shared(b) => Some((**b).as_ref()),
            Body::Streamed(_) => None,
        }
    }

    /// Drain the body into one `Vec<u8>` (tests and non-wire callers).
    /// Full bodies move out; streams are pulled to exhaustion.
    pub fn collect(self) -> std::io::Result<Vec<u8>> {
        match self {
            Body::Full(b) => Ok(b),
            Body::Shared(b) => Ok((*b).as_ref().to_vec()),
            Body::Streamed(mut s) => {
                let mut out = Vec::new();
                while let Some(chunk) = s.next_chunk()? {
                    out.extend_from_slice(chunk);
                }
                Ok(out)
            }
        }
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Full(b) => write!(f, "Body::Full({} bytes)", b.len()),
            Body::Shared(b) => write!(f, "Body::Shared({} bytes)", (**b).as_ref().len()),
            Body::Streamed(_) => write!(f, "Body::Streamed(..)"),
        }
    }
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: String,
    /// Extra headers (`Content-Length` / `Transfer-Encoding`,
    /// `Connection` and `Content-Type` are emitted automatically).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, v: &ee_util::json::Json) -> Response {
        Response {
            status,
            content_type: "application/json".into(),
            headers: Vec::new(),
            body: Body::Full(v.emit().into_bytes()),
        }
    }

    /// A JSON error body `{"error": ...}`.
    pub fn error(status: u16, message: &str) -> Response {
        let v = ee_util::json::Json::obj(vec![(
            "error",
            ee_util::json::Json::Str(message.to_string()),
        )]);
        Response::json(status, &v)
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            headers: Vec::new(),
            body: Body::Full(body.into().into_bytes()),
        }
    }

    /// A binary response.
    pub fn octets(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/octet-stream".into(),
            headers: Vec::new(),
            body: Body::Full(body),
        }
    }

    /// A streamed response: the body is produced incrementally by
    /// `stream` and transmitted with chunked framing.
    pub fn streamed(
        status: u16,
        content_type: impl Into<String>,
        stream: Box<dyn BodyStream>,
    ) -> Response {
        Response {
            status,
            content_type: content_type.into(),
            headers: Vec::new(),
            body: Body::Streamed(stream),
        }
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialise onto the wire. `keep_alive` controls the `Connection`
    /// header; the caller decides whether to actually reuse the socket.
    /// Streamed bodies are pulled to exhaustion (hence `&mut self`).
    pub fn write_to<W: Write>(&mut self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        w.write_all(&self.head_bytes(keep_alive))?;
        match &mut self.body {
            Body::Streamed(s) => {
                let mut frame = Vec::new();
                while let Some(chunk) = s.next_chunk()? {
                    frame.clear();
                    frame_chunk(chunk, &mut frame);
                    w.write_all(&frame)?;
                }
                w.write_all(CHUNK_TERMINATOR)?;
            }
            sized => w.write_all(sized.as_full().expect("non-streamed bodies are sized"))?,
        }
        w.flush()
    }

    /// The serialised status line + headers + blank line, exactly as
    /// [`write_to`](Response::write_to) emits them and the event loop
    /// queues them.
    pub fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = Vec::new();
        self.write_head(keep_alive, &mut head);
        head
    }

    /// Append [`head_bytes`](Response::head_bytes) to `out` in place.
    pub(crate) fn write_head(&self, keep_alive: bool, out: &mut Vec<u8>) {
        const INFALLIBLE: &str = "write into Vec cannot fail";
        write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status)).expect(INFALLIBLE);
        match self.body.as_full() {
            Some(b) => write!(out, "content-length: {}\r\n", b.len()).expect(INFALLIBLE),
            None => out.extend_from_slice(b"transfer-encoding: chunked\r\n"),
        }
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let fixed = [
            ("content-type", self.content_type.as_str()),
            ("connection", connection),
        ];
        let extra = self.headers.iter().map(|(n, v)| (n.as_str(), v.as_str()));
        for (n, v) in fixed.into_iter().chain(extra) {
            out.extend_from_slice(n.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }
}

/// The final frame of a chunked body: zero-size chunk + empty trailers.
pub const CHUNK_TERMINATOR: &[u8] = b"0\r\n\r\n";

/// Append one chunked-framing frame (`{len:x}\r\n{chunk}\r\n`) to `out`.
/// Empty chunks are skipped — framing one would terminate the body early.
/// Shared by [`Response::write_to`] and the event loop's chunk producer.
pub fn frame_chunk(chunk: &[u8], out: &mut Vec<u8>) {
    if chunk.is_empty() {
        return;
    }
    use std::io::Write as _;
    write!(out, "{:x}\r\n", chunk.len()).expect("write into Vec cannot fail");
    out.extend_from_slice(chunk);
    out.extend_from_slice(b"\r\n");
}

/// An incremental request parser for nonblocking sockets: feed it bytes
/// as they arrive, poll it for a complete request.
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// A parser with no buffered bytes.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// True when no partial request is buffered — the connection is idle
    /// between requests (idle-timeout territory) rather than mid-message
    /// (slow-loris / read-deadline territory).
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append freshly-read socket bytes; follow with
    /// [`poll_request`](RequestParser::poll_request).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Try to extract one complete request from the buffer. `Ok(None)`
    /// means "need more bytes". Leftover bytes (pipelined requests) stay
    /// buffered for the next call. Errors are terminal for the
    /// connection.
    pub fn poll_request(&mut self) -> Result<Option<Request>, RequestError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            // No blank line yet. Cap the raw accumulation: a legal head
            // holds at most MAX_HEADER_BYTES of line payload, so 2x raw
            // bytes is unreachable for one and a slow-loris head must not
            // grow without bound.
            if self.buf.len() > 2 * MAX_HEADER_BYTES {
                return Err(malformed("header section too large"));
            }
            return Ok(None);
        };
        let (mut req, content_length) = parse_head(&self.buf[..head_end])?;
        let total = head_end + content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        req.body = self.buf[head_end..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(req))
    }
}

/// Index one past the blank line ending a request head, if present.
/// Accepts both CRLF and bare-LF line endings, like [`parse_head`].
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                Some(b'\n') => return Some(i + 2),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// An outgoing byte queue for a nonblocking socket: push serialised
/// response bytes in, drain them out as the socket reports writable.
#[derive(Default)]
pub struct SendBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl SendBuf {
    /// An empty send buffer.
    pub fn new() -> SendBuf {
        SendBuf::default()
    }

    /// Queue bytes for transmission.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Queue a response's head, serialised in place, followed by its
    /// body if sized (copied once); a streamed body's chunks follow
    /// separately.
    pub(crate) fn push_response(&mut self, resp: &Response, keep_alive: bool) {
        self.compact();
        resp.write_head(keep_alive, &mut self.buf);
        if let Some(body) = resp.body.as_full() {
            self.buf.extend_from_slice(body);
        }
    }

    /// Compact lazily: reclaim the consumed prefix before growing.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Unsent bytes still queued.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when everything pushed has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Write as much as the socket will take. `Ok(true)` when the queue
    /// drained, `Ok(false)` when the socket would block with bytes still
    /// pending (re-arm `POLLOUT`). Other errors are terminal.
    pub fn write_some<W: Write>(&mut self, w: &mut W) -> std::io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// Canonical reason phrase for the status codes this tier emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// A client-side response, as read by [`read_response`].
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Lower-cased header pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open afterwards.
    pub keep_alive: bool,
}

impl ClientResponse {
    /// First value of a header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one response from a buffered stream (client side: tests and
/// experiment probes), decoding `Content-Length` and chunked framing.
/// Consumes exactly the message's bytes, so a keep-alive reader is left
/// at the start of the next response.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<ClientResponse, HttpError> {
    let mut dec = ResponseDecoder::new();
    let mut started = false;
    loop {
        let avail = match r.fill_buf() {
            Ok(avail) => avail,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if avail.is_empty() {
            return Err(if started {
                HttpError::Malformed("unexpected EOF in response".into())
            } else {
                HttpError::ConnectionClosed
            });
        }
        started = true;
        let n = avail.len();
        let done = dec.feed(avail).map_err(|e| HttpError::Malformed(e.0))?;
        let Some(status) = done else {
            r.consume(n);
            continue;
        };
        r.consume(n - dec.excess());
        return Ok(ClientResponse {
            status,
            headers: dec.headers().to_vec(),
            body: dec.body(),
            keep_alive: dec.is_keep_alive(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Parse one complete request through the incremental parser.
    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        parser.poll_request().map(|r| r.expect("complete request"))
    }

    #[test]
    fn parses_request_line_headers_and_query() {
        let raw = b"GET /query?x0=1.5&y0=2&mode=a%20b HTTP/1.1\r\nHost: x\r\nX-Trace: 7\r\n\r\n";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("x0"), Some("1.5"));
        assert_eq!(req.param("mode"), Some("a b"));
        assert_eq!(req.param_in("y0", 0.0, ..).unwrap(), 2.0);
        assert_eq!(req.param_in("missing", 9usize, 0..=10).unwrap(), 9);
        let refused = |r: Result<usize, Response>| {
            let resp = r.expect_err("a 400");
            assert_eq!(resp.status, 400);
            String::from_utf8(resp.body.collect().unwrap()).unwrap()
        };
        assert!(refused(req.param_in("x0", 0usize, 0..))
            .contains("x0 must be an integer in 0.., got \\\"1.5\\\""));
        assert!(
            refused(req.param_in("y0", 0usize, 3..=9)).contains("y0 must be an integer in 3..=9")
        );
        assert_eq!(req.header("x-trace"), Some("7"));
        assert!(req.http11);
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn body_via_content_length() {
        let req = parse(b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.body, b"hello");
        // Repeating the same length is harmless.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi";
        assert_eq!(parse(raw).unwrap().body, b"hi");
        // Oversized bodies are refused before allocation.
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        match parse(raw.as_bytes()) {
            Err(RequestError::BodyTooLarge(_)) => {}
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bodies_framed_another_way_are_refused() {
        // Honouring only Content-Length here would dispatch an empty
        // body and parse the chunk bytes as the next pipelined request.
        for te in ["chunked", "gzip, chunked", "identity"] {
            let raw = format!(
                "POST /query HTTP/1.1\r\nTransfer-Encoding: {te}\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            );
            assert!(
                matches!(parse(raw.as_bytes()), Err(RequestError::Malformed(_))),
                "{te}"
            );
        }
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 30\r\n\r\nabc";
        assert!(matches!(parse(raw), Err(RequestError::Malformed(_))));
    }

    #[test]
    fn eof_at_boundary_is_connection_closed() {
        match read_response(&mut &b""[..]) {
            Err(HttpError::ConnectionClosed) => {}
            other => panic!("expected ConnectionClosed, got {other:?}"),
        }
        // EOF mid-message is malformed instead.
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhel";
        assert!(matches!(
            read_response(&mut &raw[..]),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn response_roundtrips_through_client_reader() {
        let mut resp = Response::json(
            200,
            &ee_util::json::Json::obj(vec![("ok", ee_util::json::Json::Bool(true))]),
        )
        .with_header("x-cache", "HIT");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        let got = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.header("x-cache"), Some("HIT"));
        assert_eq!(got.header("connection"), Some("keep-alive"));
        assert_eq!(got.body, br#"{"ok":true}"#);
    }

    /// Write `chunks` as a streamed response, return (wire bytes, decoded
    /// client response).
    fn stream_roundtrip(chunks: Vec<Vec<u8>>) -> (Vec<u8>, ClientResponse) {
        let mut resp = Response::streamed(
            200,
            "application/octet-stream",
            Box::new(ChunkedSlices::new(chunks)),
        );
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        let got = read_response(&mut BufReader::new(&wire[..])).unwrap();
        (wire, got)
    }

    #[test]
    fn chunked_empty_body_roundtrips() {
        let (wire, got) = stream_roundtrip(vec![]);
        assert_eq!(got.status, 200);
        assert_eq!(got.header("transfer-encoding"), Some("chunked"));
        assert!(got.header("content-length").is_none());
        assert!(got.body.is_empty());
        // The wire carries exactly the last-chunk marker.
        assert!(wire.ends_with(b"\r\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn chunked_one_byte_chunks_roundtrip() {
        let payload = b"streaming, one byte at a time";
        let chunks: Vec<Vec<u8>> = payload.iter().map(|&b| vec![b]).collect();
        let (_, got) = stream_roundtrip(chunks);
        assert_eq!(got.body, payload);
    }

    #[test]
    fn chunked_empty_chunks_are_skipped_not_terminators() {
        let (_, got) = stream_roundtrip(vec![
            Vec::new(),
            b"alpha".to_vec(),
            Vec::new(),
            b"beta".to_vec(),
            Vec::new(),
        ]);
        assert_eq!(got.body, b"alphabeta");
    }

    #[test]
    fn chunked_body_straddles_small_read_buffer() {
        // Chunks larger than the reader's internal buffer force every
        // read_exact path to loop across buffer refills.
        let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut resp = Response::streamed(
            200,
            "application/octet-stream",
            Box::new(ChunkedSlices::new(vec![
                big.clone(),
                b"tail".to_vec(),
                big.clone(),
            ])),
        );
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        // A second, sized response pipelined right behind the first.
        Response::octets(200, big.clone())
            .write_to(&mut wire, true)
            .unwrap();
        let mut reader = BufReader::with_capacity(7, &wire[..]);
        let got = read_response(&mut reader).unwrap();
        let mut want = big.clone();
        want.extend_from_slice(b"tail");
        want.extend_from_slice(&big);
        assert_eq!(got.body, want);
        assert!(!got.keep_alive);
        let next = read_response(&mut reader).unwrap();
        assert_eq!(next.body, big);
        assert!(next.keep_alive);
        assert!(reader.fill_buf().unwrap().is_empty(), "both read whole");
    }

    #[test]
    fn chunk_extensions_are_ignored_by_decoder() {
        let wire = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\n\r\n";
        let got = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(got.body, b"hello");
    }

    #[test]
    fn body_collect_drains_streams() {
        let body = Body::Streamed(Box::new(ChunkedSlices::new(vec![
            b"a".to_vec(),
            b"bc".to_vec(),
        ])));
        assert!(matches!(body, Body::Streamed(_)));
        assert_eq!(body.collect().unwrap(), b"abc");
        assert_eq!(Body::Full(b"xy".to_vec()).collect().unwrap(), b"xy");
        assert_eq!(Body::empty().as_full(), Some(&b""[..]));
    }

    #[test]
    fn incremental_parser_parses_byte_at_a_time() {
        let raw: &[u8] =
            b"POST /query?mode=a%20b HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let want = parse(raw).unwrap();
        let mut parser = RequestParser::new();
        let mut got = None;
        for (i, b) in raw.iter().enumerate() {
            parser.feed(&[*b]);
            if let Some(req) = parser.poll_request().unwrap() {
                assert_eq!(i, raw.len() - 1, "parsed before all bytes arrived");
                got = Some(req);
            }
        }
        let got = got.expect("request parsed");
        assert_eq!(got.method, want.method);
        assert_eq!(got.path, want.path);
        assert_eq!(got.query, want.query);
        assert_eq!(got.headers, want.headers);
        assert_eq!(got.body, want.body);
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let a = parser.poll_request().unwrap().unwrap();
        assert_eq!(a.path, "/a");
        assert!(!parser.is_idle());
        let b = parser.poll_request().unwrap().unwrap();
        assert_eq!(b.path, "/b");
        assert!(parser.is_idle());
        assert!(parser.poll_request().unwrap().is_none());
    }

    #[test]
    fn incremental_parser_rejects_oversize_heads_and_bodies() {
        // A never-terminated head stops accumulating at the cap.
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; 2 * MAX_HEADER_BYTES + 16];
        parser.feed(&filler);
        assert!(matches!(
            parser.poll_request(),
            Err(RequestError::Malformed(_))
        ));
        // An oversized declared body is refused as soon as the head is
        // complete, without waiting for the body bytes.
        let mut parser = RequestParser::new();
        parser.feed(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        assert!(matches!(
            parser.poll_request(),
            Err(RequestError::BodyTooLarge(_))
        ));
    }

    #[test]
    fn head_bytes_and_frame_chunk_match_blocking_writer() {
        let chunks = vec![b"alpha".to_vec(), Vec::new(), b"beta-gamma".to_vec()];
        let mut resp = Response::streamed(
            200,
            "application/json",
            Box::new(ChunkedSlices::new(chunks.clone())),
        )
        .with_header("etag", "\"abc\"");
        let head = resp.head_bytes(true);
        assert_eq!(
            String::from_utf8_lossy(&head),
            "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\ncontent-type: application/json\r\n\
             connection: keep-alive\r\netag: \"abc\"\r\n\r\n"
        );
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        assert!(wire.starts_with(&head));
        let mut rebuilt = head;
        for c in &chunks {
            frame_chunk(c, &mut rebuilt);
        }
        rebuilt.extend_from_slice(CHUNK_TERMINATOR);
        assert_eq!(rebuilt, wire);

        // Sized bodies, owned or shared: the blocking writer and the send
        // buffer emit the same, pinned, bytes.
        let tile = || Response::octets(200, b"tile-bytes".to_vec()).with_header("etag", "\"t\"");
        let shared = Response {
            body: Body::Shared(Arc::new(b"tile-bytes".to_vec())),
            ..tile()
        };
        let want =
            b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\ncontent-type: application/octet-stream\r\n\
              connection: close\r\netag: \"t\"\r\n\r\ntile-bytes";
        for mut resp in [tile(), shared] {
            let mut sb = SendBuf::new();
            sb.push_response(&resp, false);
            let mut queued = Vec::new();
            assert!(sb.write_some(&mut queued).unwrap());
            assert_eq!(queued, want, "{:?}", resp.body);
            let mut wire = Vec::new();
            resp.write_to(&mut wire, false).unwrap();
            assert_eq!(wire, want, "{:?}", resp.body);
        }
    }

    /// A writer that accepts a fixed quota of bytes per call, then
    /// reports `WouldBlock` — a nonblocking socket in miniature.
    struct Trickle {
        out: Vec<u8>,
        quota: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "later"));
            }
            let n = buf.len().min(self.quota);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_buf_resumes_across_would_block() {
        let mut sb = SendBuf::new();
        sb.push(b"hello ");
        sb.push(b"world");
        let mut w = Trickle {
            out: Vec::new(),
            quota: 3,
            calls: 0,
        };
        let mut rounds = 0;
        while !sb.write_some(&mut w).unwrap() {
            rounds += 1;
            assert!(rounds < 100, "never drained");
        }
        assert!(sb.is_empty());
        assert_eq!(w.out, b"hello world");
        assert!(rounds > 0, "Trickle must have exercised WouldBlock");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%2Fb+c%zz%"), "a/b c%zz%");
        let q = parse_query("a=1&b&=x&c=%E2%82%AC");
        assert_eq!(q[0], ("a".into(), "1".into()));
        assert_eq!(q[1], ("b".into(), "".into()));
        assert_eq!(q[3], ("c".into(), "€".into()));
    }
}
