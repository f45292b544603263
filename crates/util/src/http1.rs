//! An incremental HTTP/1.1 **response** decoder — the workspace's only
//! one.
//!
//! Nonblocking clients (the open-loop loadgen, the serve tier's
//! scatter-gather shard pool, the federation client) feed it bytes as
//! they arrive and learn when a full message (content-length or chunked
//! framing) is present, then extract the de-chunked body;
//! `ee_serve::http::read_response` drives the same decoder from a
//! blocking reader.
//!
//! Each [`feed`](ResponseDecoder::feed) resumes where the previous one
//! stopped — the head search a few bytes before the new data, the chunk
//! walk at the first chunk not yet walked — so decoding a message costs
//! time linear in its size however it is split.

use std::ops::Range;

/// A malformed response: bad status line, unparsable framing headers, or
/// broken chunk framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadResponse(pub String);

impl std::fmt::Display for BadResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed HTTP response: {}", self.0)
    }
}

impl std::error::Error for BadResponse {}

/// Incremental HTTP/1.1 response decoder: feed bytes as they arrive,
/// get `Some(status)` once the full message is present.
#[derive(Default)]
pub struct ResponseDecoder {
    buf: Vec<u8>,
    /// One past the blank line ending the head; 0 until it arrives.
    head_end: usize,
    status: u16,
    chunked: bool,
    content_length: usize,
    headers: Vec<(String, String)>,
    /// Chunked framing: where the next unwalked chunk-size line starts.
    walk: usize,
    /// Chunked framing: the data of every chunk walked so far.
    chunks: Vec<Range<usize>>,
    /// One past the message's last byte; 0 until it is complete.
    end: usize,
}

/// Offset of the first `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl ResponseDecoder {
    /// A decoder at the start of a message.
    pub fn new() -> ResponseDecoder {
        ResponseDecoder::default()
    }

    /// Append bytes; `Ok(Some(status))` when the response is complete,
    /// `Err` on malformed framing. Bytes fed past the end of the message
    /// are kept aside (see [`excess`](Self::excess)), never decoded.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<u16>, BadResponse> {
        let searched = self.buf.len();
        self.buf.extend_from_slice(bytes);
        if self.end > 0 {
            return Ok(Some(self.status));
        }
        if self.head_end == 0 {
            // The blank line may straddle the previous feed.
            let from = searched.saturating_sub(3);
            let Some(pos) = find(&self.buf[from..], b"\r\n\r\n") else {
                return Ok(None);
            };
            self.parse_head(from + pos)?;
        }
        if self.chunked {
            self.walk_chunks()?;
        } else if self.buf.len() >= self.head_end + self.content_length {
            self.end = self.head_end + self.content_length;
        }
        Ok((self.end > 0).then_some(self.status))
    }

    /// Parse the status line and headers in `buf[..pos]`.
    fn parse_head(&mut self, pos: usize) -> Result<(), BadResponse> {
        let head = std::str::from_utf8(&self.buf[..pos])
            .map_err(|_| BadResponse("head is not UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        self.status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| BadResponse(format!("bad status line {status_line:?}")))?;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "transfer-encoding" && value.to_ascii_lowercase().contains("chunked") {
                self.chunked = true;
            } else if name == "content-length" {
                self.content_length = value
                    .parse()
                    .map_err(|_| BadResponse(format!("bad content-length {value:?}")))?;
            }
            self.headers.push((name, value.to_string()));
        }
        self.head_end = pos + 4;
        self.walk = self.head_end;
        Ok(())
    }

    /// Walk every chunk that has fully arrived since the last call,
    /// setting `end` at the last chunk.
    fn walk_chunks(&mut self) -> Result<(), BadResponse> {
        loop {
            let Some(nl) = find(&self.buf[self.walk..], b"\r\n") else {
                return Ok(());
            };
            let size_line = std::str::from_utf8(&self.buf[self.walk..self.walk + nl])
                .map_err(|_| BadResponse("chunk size is not UTF-8".into()))?;
            // Ignore chunk extensions (";…") per RFC 9112 §7.1.1.
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16)
                .map_err(|_| BadResponse(format!("bad chunk size {size_line:?}")))?;
            let data = self.walk + nl + 2;
            // Chunk data ends in CRLF; so does the last chunk's trailer
            // section, which must be empty (this tier sends none).
            let Some(crlf) = data
                .checked_add(size)
                .and_then(|at| self.buf.get(at..)?.get(..2))
            else {
                return Ok(());
            };
            if crlf != b"\r\n" {
                let what = if size == 0 {
                    "unexpected trailer"
                } else {
                    "chunk not CRLF-terminated"
                };
                return Err(BadResponse(what.into()));
            }
            if size == 0 {
                self.end = data + 2;
                return Ok(());
            }
            self.chunks.push(data..data + size);
            self.walk = data + size + 2;
        }
    }

    /// Status code, valid once the head has been parsed (`0` before).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// True once the status line and headers have been parsed.
    pub fn has_head(&self) -> bool {
        self.head_end > 0
    }

    /// True once [`feed`](Self::feed) has seen the whole message.
    pub fn is_complete(&self) -> bool {
        self.end > 0
    }

    /// Bytes fed after the end of a complete message — the start of
    /// whatever follows it on the connection; `0` while incomplete.
    pub fn excess(&self) -> usize {
        if self.end == 0 {
            0
        } else {
            self.buf.len() - self.end
        }
    }

    /// True when any body byte (anything past the head) has arrived —
    /// the point past which a failed upstream exchange can no longer be
    /// transparently retried on a fresh connection.
    pub fn started_body(&self) -> bool {
        self.head_end > 0 && self.buf.len() > self.head_end
    }

    /// First value of a (lower-cased) header, once the head is parsed.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// All parsed headers (lower-cased names), in wire order.
    pub fn headers(&self) -> &[(String, String)] {
        &self.headers
    }

    /// Whether the server keeps the connection open after this response
    /// (HTTP/1.1 default unless `connection: close`).
    pub fn is_keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The de-chunked body of a **complete** response. Returns the body
    /// bytes with all transfer framing removed; panics if the message is
    /// not complete yet (a state error in the caller, not a wire error).
    pub fn body(&self) -> Vec<u8> {
        assert!(self.is_complete(), "body() before the response completed");
        if !self.chunked {
            return self.buf[self.head_end..self.end].to_vec();
        }
        let mut body = Vec::with_capacity(self.chunks.iter().map(Range::len).sum());
        for chunk in &self.chunks {
            body.extend_from_slice(&self.buf[chunk.clone()]);
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_bodies_decode_byte_at_a_time() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\ncontent-type: text/plain\r\n\r\nhello";
        let mut dec = ResponseDecoder::new();
        let mut done = None;
        for b in wire.iter() {
            if let Some(s) = dec.feed(std::slice::from_ref(b)).unwrap() {
                done = Some(s);
            }
        }
        assert_eq!(done, Some(200));
        assert!(dec.is_complete());
        assert_eq!(dec.body(), b"hello");
        assert_eq!(dec.header("content-type"), Some("text/plain"));
        assert!(dec.is_keep_alive());
    }

    #[test]
    fn chunked_bodies_decode_and_dechunk() {
        let wire =
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n3\r\nwor\r\n0\r\n\r\n";
        // All at once.
        let mut dec = ResponseDecoder::new();
        assert_eq!(dec.feed(wire).unwrap(), Some(200));
        assert_eq!(dec.body(), b"hellowor");
        // Split mid-chunk.
        let mut dec = ResponseDecoder::new();
        assert_eq!(dec.feed(&wire[..40]).unwrap(), None);
        assert_eq!(dec.feed(&wire[40..]).unwrap(), Some(200));
        assert_eq!(dec.body(), b"hellowor");
        // Chunk extensions are ignored.
        let ext = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5;x=1\r\nhello\r\n0\r\n\r\n";
        let mut dec = ResponseDecoder::new();
        assert_eq!(dec.feed(ext).unwrap(), Some(200));
        assert_eq!(dec.body(), b"hello");
        // Chunked as the last of several codings is still chunked.
        let coded =
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: gzip, chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let mut dec = ResponseDecoder::new();
        assert_eq!(dec.feed(coded).unwrap(), Some(200));
        assert_eq!(dec.body(), b"abc");
        // Byte at a time: the walk resumes, and bytes past the message
        // are left over, not decoded.
        let mut dec = ResponseDecoder::new();
        for (i, b) in wire.iter().enumerate() {
            let done = dec.feed(std::slice::from_ref(b)).unwrap();
            assert_eq!(done.is_some(), i == wire.len() - 1, "byte {i}");
        }
        assert_eq!(dec.body(), b"hellowor");
        assert_eq!(dec.excess(), 0);
        assert_eq!(dec.feed(b"HTTP/1.1").unwrap(), Some(200));
        assert_eq!(dec.excess(), 8);
        assert_eq!(dec.body(), b"hellowor");
    }

    #[test]
    fn malformed_framing_errors_instead_of_hanging() {
        let mut dec = ResponseDecoder::new();
        assert!(dec
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n")
            .is_err());
        let mut dec = ResponseDecoder::new();
        assert!(dec.feed(b"NONSENSE\r\n\r\n").is_err());
        let mut dec = ResponseDecoder::new();
        assert!(dec
            .feed(b"HTTP/1.1 200 OK\r\ncontent-length: pony\r\n\r\n")
            .is_err());
        // Chunk data must end in CRLF, and the trailer section be empty.
        let mut dec = ResponseDecoder::new();
        assert!(dec
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhelloXX0\r\n\r\n")
            .is_err());
        let mut dec = ResponseDecoder::new();
        assert!(dec
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\nx-trailer: 1\r\n\r\n")
            .is_err());
    }

    #[test]
    fn connection_close_and_body_progress_are_visible() {
        let mut dec = ResponseDecoder::new();
        dec.feed(b"HTTP/1.1 503 Service Unavailable\r\nconnection: close\r\ncontent-length: 2\r\n\r\n")
            .unwrap();
        assert!(!dec.is_complete());
        assert!(!dec.started_body());
        assert_eq!(dec.status(), 503);
        assert!(!dec.is_keep_alive());
        assert_eq!(dec.feed(b"no").unwrap(), Some(503));
        assert!(dec.started_body());
        assert_eq!(dec.body(), b"no");
    }

    #[test]
    fn empty_sized_body_completes_at_head_end() {
        let mut dec = ResponseDecoder::new();
        assert_eq!(
            dec.feed(b"HTTP/1.1 304 Not Modified\r\ncontent-length: 0\r\n\r\n")
                .unwrap(),
            Some(304)
        );
        assert_eq!(dec.body(), b"");
    }
}
