//! Snapshot building blocks: dictionary blocks and triple segments.
//!
//! A **dictionary block** holds a contiguous run of terms in id order —
//! ids are implicit (the reader assigns them by position), which works
//! because [`crate::dict::Dictionary`] ids are dense, append-only and
//! never reclaimed.
//!
//! A **triple segment** holds a run of id-triples sorted in SPO order,
//! delta-encoded: the subject is stored as a delta against the previous
//! triple's subject (non-negative by sort order), predicate and object
//! as raw uvarints. Sorting is what makes the deltas small and lets a
//! future reader binary-search segment boundaries.

use super::encode::{bad_data, get_term, get_uvarint, put_term, put_uvarint};
use crate::store::IdTriple;
use crate::term::{Term, TermRef};
use std::io;

/// Terms per dictionary record.
pub const DICT_CHUNK: usize = 4096;
/// Triples per segment record.
pub const TRIPLE_CHUNK: usize = 8192;

/// Encode one dictionary block (terms in id order).
pub fn encode_dict_block(terms: &[TermRef<'_>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(terms.len() * 16);
    put_uvarint(&mut out, terms.len() as u64);
    for &t in terms {
        put_term(&mut out, t);
    }
    out
}

/// Decode a dictionary block.
pub fn decode_dict_block(payload: &[u8]) -> io::Result<Vec<Term>> {
    let mut pos = 0;
    let n = get_uvarint(payload, &mut pos)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_term(payload, &mut pos)?);
    }
    if pos != payload.len() {
        return Err(bad_data("trailing bytes in dictionary block"));
    }
    Ok(out)
}

/// Encode one triple segment. `triples` must be sorted ascending (SPO)
/// and `prev_s` is the subject id of the last triple of the previous
/// segment (0 for the first).
pub fn encode_triple_segment(triples: &[IdTriple], prev_s: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(triples.len() * 6);
    put_uvarint(&mut out, triples.len() as u64);
    let mut last_s = prev_s;
    for &(s, p, o) in triples {
        debug_assert!(s >= last_s, "triple segments must be SPO-sorted");
        put_uvarint(&mut out, s - last_s);
        put_uvarint(&mut out, p);
        put_uvarint(&mut out, o);
        last_s = s;
    }
    out
}

/// Decode a triple segment into `out`, returning the last subject id
/// (the next segment's delta base).
pub fn decode_triple_segment(
    payload: &[u8],
    prev_s: u64,
    out: &mut Vec<IdTriple>,
) -> io::Result<u64> {
    let mut pos = 0;
    let n = get_uvarint(payload, &mut pos)? as usize;
    out.reserve(n);
    let mut last_s = prev_s;
    for _ in 0..n {
        last_s += get_uvarint(payload, &mut pos)?;
        let p = get_uvarint(payload, &mut pos)?;
        let o = get_uvarint(payload, &mut pos)?;
        out.push((last_s, p, o));
    }
    if pos != payload.len() {
        return Err(bad_data("trailing bytes in triple segment"));
    }
    Ok(last_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_block_round_trips() {
        let terms: Vec<Term> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    Term::iri(format!("http://e/{i}"))
                } else {
                    Term::integer(i)
                }
            })
            .collect();
        let refs: Vec<TermRef> = terms.iter().map(Term::as_ref).collect();
        let back = decode_dict_block(&encode_dict_block(&refs)).unwrap();
        assert_eq!(back, terms);
    }

    #[test]
    fn triple_segments_round_trip_across_chunks() {
        let mut triples: Vec<IdTriple> = (0..1000u64).map(|i| (i / 3, i % 7, i)).collect();
        triples.sort_unstable();
        let mut prev_s = 0;
        let mut encoded = Vec::new();
        for chunk in triples.chunks(137) {
            encoded.push(encode_triple_segment(chunk, prev_s));
            prev_s = chunk.last().unwrap().0;
        }
        let mut back = Vec::new();
        let mut base = 0;
        for seg in &encoded {
            base = decode_triple_segment(seg, base, &mut back).unwrap();
        }
        assert_eq!(back, triples);
    }
}
