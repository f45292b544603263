//! Low-level wire format shared by snapshots and the commit log.
//!
//! Everything on disk is a sequence of **records**:
//!
//! ```text
//! [u32 LE payload_len][payload bytes][u64 LE FNV-1a(payload)]
//! ```
//!
//! Inside payloads, integers are LEB128 uvarints and terms are a tag
//! byte (`0` = IRI, `1` = literal) followed by length-prefixed UTF-8.
//! The framing lets a reader distinguish three outcomes: a complete
//! record, a clean end-of-file, and a torn tail (truncated or
//! checksum-corrupt trailing bytes from a crashed writer) — the last of
//! which is reported with the byte offset of the clean prefix so log
//! recovery can truncate it away.

use crate::term::{Term, TermRef};
use std::io::{self, Read, Write};

/// The record checksum (and commit id) hash.
pub use ee_util::ring::fnv1a;

/// Append a LEB128 uvarint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 uvarint from `buf` starting at `*pos`, advancing it.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = buf
            .get(*pos)
            .ok_or_else(|| bad_data("truncated uvarint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(bad_data("uvarint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Append a length-prefixed string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> io::Result<String> {
    let len = get_uvarint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| bad_data("truncated string"))?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| bad_data("non-UTF-8 string"))?
        .to_string();
    *pos = end;
    Ok(s)
}

const TAG_IRI: u8 = 0;
const TAG_LITERAL: u8 = 1;

/// Append one term.
pub fn put_term<'t>(out: &mut Vec<u8>, t: impl Into<TermRef<'t>>) {
    match t.into() {
        TermRef::Iri(i) => {
            out.push(TAG_IRI);
            put_str(out, i);
        }
        TermRef::Literal { lexical, datatype } => {
            out.push(TAG_LITERAL);
            put_str(out, lexical);
            put_str(out, datatype);
        }
    }
}

/// Read one term.
pub fn get_term(buf: &[u8], pos: &mut usize) -> io::Result<Term> {
    let &tag = buf.get(*pos).ok_or_else(|| bad_data("truncated term"))?;
    *pos += 1;
    match tag {
        TAG_IRI => Ok(Term::Iri(get_str(buf, pos)?)),
        TAG_LITERAL => Ok(Term::Literal {
            lexical: get_str(buf, pos)?,
            datatype: get_str(buf, pos)?,
        }),
        other => Err(bad_data(&format!("unknown term tag {other}"))),
    }
}

/// An `InvalidData` error (corrupt bytes, as opposed to a torn tail).
pub fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Frame and write one record.
pub fn write_record(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len: u32 = payload
        .len()
        .try_into()
        .map_err(|_| bad_data("record over 4 GiB"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a(payload).to_le_bytes())?;
    Ok(())
}

/// Total on-disk size of a record with this payload length.
pub fn record_len(payload_len: usize) -> u64 {
    4 + payload_len as u64 + 8
}

/// One read attempt from a [`RecordReader`].
#[derive(Debug)]
pub enum RecordOutcome {
    /// A complete, checksum-verified payload.
    Record(Vec<u8>),
    /// Clean end of input exactly at a record boundary.
    Eof,
    /// Trailing bytes that do not form a complete valid record — a torn
    /// write. `valid_len` is the offset of the end of the last good
    /// record; recovery truncates the file there.
    Torn {
        /// Byte length of the clean prefix.
        valid_len: u64,
    },
}

/// Streaming record reader that tracks how many bytes of clean records
/// it has consumed (for torn-tail truncation).
pub struct RecordReader<R: Read> {
    inner: R,
    valid_len: u64,
}

impl<R: Read> RecordReader<R> {
    /// Wrap a reader positioned at a record boundary.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            valid_len: 0,
        }
    }

    /// Byte length of the clean record prefix read so far.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Read the next record. A short read or checksum mismatch yields
    /// [`RecordOutcome::Torn`], never an error — only genuine I/O
    /// failures surface as `Err`.
    pub fn next_record(&mut self) -> io::Result<RecordOutcome> {
        let mut len_buf = [0u8; 4];
        match read_exact_or_eof(&mut self.inner, &mut len_buf)? {
            Fill::Empty => return Ok(RecordOutcome::Eof),
            Fill::Partial => {
                return Ok(RecordOutcome::Torn {
                    valid_len: self.valid_len,
                })
            }
            Fill::Full => {}
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut payload = vec![0u8; len];
        if read_exact_or_eof(&mut self.inner, &mut payload)? != Fill::Full {
            return Ok(RecordOutcome::Torn {
                valid_len: self.valid_len,
            });
        }
        let mut sum_buf = [0u8; 8];
        if read_exact_or_eof(&mut self.inner, &mut sum_buf)? != Fill::Full {
            return Ok(RecordOutcome::Torn {
                valid_len: self.valid_len,
            });
        }
        if u64::from_le_bytes(sum_buf) != fnv1a(&payload) {
            return Ok(RecordOutcome::Torn {
                valid_len: self.valid_len,
            });
        }
        self.valid_len += record_len(len);
        Ok(RecordOutcome::Record(payload))
    }
}

#[derive(PartialEq)]
enum Fill {
    /// EOF before any byte.
    Empty,
    /// EOF mid-buffer.
    Partial,
    /// Buffer filled.
    Full,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<Fill> {
    let mut read = 0;
    while read < buf.len() {
        match r.read(&mut buf[read..]) {
            Ok(0) => {
                return Ok(if read == 0 { Fill::Empty } else { Fill::Partial });
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn term_round_trips() {
        let terms = [
            Term::iri("http://example.org/thing"),
            Term::string("hello \"quoted\" \\ world\n"),
            Term::integer(-42),
            Term::wkt("POINT (3.5 -7.25)"),
        ];
        let mut buf = Vec::new();
        for t in &terms {
            put_term(&mut buf, t);
        }
        let mut pos = 0;
        for t in &terms {
            assert_eq!(&get_term(&buf, &mut pos).unwrap(), t);
        }
    }

    #[test]
    fn records_round_trip_and_detect_torn_tails() {
        let mut file = Vec::new();
        write_record(&mut file, b"first").unwrap();
        write_record(&mut file, b"second record").unwrap();
        let clean_len = file.len() as u64;

        // Clean read.
        let mut r = RecordReader::new(&file[..]);
        assert!(matches!(r.next_record().unwrap(), RecordOutcome::Record(p) if p == b"first"));
        assert!(matches!(r.next_record().unwrap(), RecordOutcome::Record(_)));
        assert!(matches!(r.next_record().unwrap(), RecordOutcome::Eof));
        assert_eq!(r.valid_len(), clean_len);

        // Every truncation point inside the second record is torn, with
        // valid_len pointing at the end of the first record.
        let first_len = record_len(5);
        for cut in (first_len as usize)..file.len() {
            let mut r = RecordReader::new(&file[..cut]);
            assert!(matches!(r.next_record().unwrap(), RecordOutcome::Record(_)));
            match r.next_record().unwrap() {
                RecordOutcome::Torn { valid_len } => assert_eq!(valid_len, first_len),
                RecordOutcome::Eof if cut == first_len as usize => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }

        // A flipped payload bit is a checksum failure, reported as torn.
        let mut corrupt = file.clone();
        corrupt[first_len as usize + 4] ^= 0x40;
        let mut r = RecordReader::new(&corrupt[..]);
        assert!(matches!(r.next_record().unwrap(), RecordOutcome::Record(_)));
        assert!(matches!(
            r.next_record().unwrap(),
            RecordOutcome::Torn { valid_len } if valid_len == first_len
        ));
    }
}
