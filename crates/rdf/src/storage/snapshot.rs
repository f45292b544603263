//! Snapshot files: a complete store image at one generation.
//!
//! ```text
//! record 0           header: "EESNAP01" magic, index-mode byte (always
//!                    0; any other value is refused), generation, term
//!                    count, triple count
//! records 1..=D      dictionary blocks (terms in id order, DICT_CHUNK each)
//! records D+1..=D+S  triple segments (SPO-sorted, TRIPLE_CHUNK each)
//! ```
//!
//! Snapshots are immutable once published: the writer streams to
//! `snapshot.tmp`, fsyncs, then renames over `snapshot.bin` and fsyncs
//! the directory — a crash mid-write leaves the previous snapshot (or
//! none) fully intact, never a half-written one. Any torn or corrupt
//! record while *reading* is therefore a hard error, unlike the commit log
//! where a torn tail is expected after a crash.

use super::encode::{bad_data, get_uvarint, put_uvarint, write_record, RecordOutcome, RecordReader};
use super::segment::{
    decode_dict_block, decode_triple_segment, encode_dict_block, encode_triple_segment,
    DICT_CHUNK, TRIPLE_CHUNK,
};
use crate::store::{IdTriple, TripleStore};
use crate::term::Term;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"EESNAP01";

/// Published snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// The header's index-mode byte: always `0`, the indexed layout. Any
/// other value names a layout this store does not have, and the snapshot
/// is refused rather than opened as something it is not.
const INDEXED_MODE_BYTE: u8 = 0;

/// A decoded snapshot: everything needed to rebuild a store.
pub struct SnapshotData {
    /// Generation the snapshot captures.
    pub generation: u64,
    /// All terms, position = dictionary id.
    pub terms: Vec<Term>,
    /// All triples, SPO-sorted.
    pub triples: Vec<IdTriple>,
}

/// Write a snapshot of `store` at `generation` into `dir`, atomically
/// replacing any previous one.
pub fn write_snapshot(dir: &Path, store: &TripleStore, generation: u64) -> io::Result<()> {
    let tmp_path = dir.join(SNAPSHOT_TMP);
    let final_path = dir.join(SNAPSHOT_FILE);
    {
        let file = File::create(&tmp_path)?;
        let mut w = BufWriter::new(file);

        let n_terms = store.dict.len();
        let mut header = Vec::with_capacity(32);
        header.extend_from_slice(MAGIC);
        header.push(INDEXED_MODE_BYTE);
        put_uvarint(&mut header, generation);
        put_uvarint(&mut header, n_terms as u64);
        put_uvarint(&mut header, store.len() as u64);
        write_record(&mut w, &header)?;

        let mut block: Vec<&Term> = Vec::with_capacity(DICT_CHUNK);
        for id in 0..n_terms as u64 {
            block.push(store.dict.term(id));
            if block.len() == DICT_CHUNK {
                write_record(&mut w, &encode_dict_block(&block))?;
                block.clear();
            }
        }
        if !block.is_empty() {
            write_record(&mut w, &encode_dict_block(&block))?;
        }

        // Triples stream in SPO order, one segment buffered at a time.
        let mut prev_s = 0;
        let mut segment: Vec<IdTriple> = Vec::with_capacity(TRIPLE_CHUNK.min(store.len()));
        for t in store.id_triples() {
            segment.push(t);
            if segment.len() == TRIPLE_CHUNK {
                write_record(&mut w, &encode_triple_segment(&segment, prev_s))?;
                prev_s = t.0;
                segment.clear();
            }
        }
        if !segment.is_empty() {
            write_record(&mut w, &encode_triple_segment(&segment, prev_s))?;
        }

        w.flush()?;
        w.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    // Persist the rename itself (directory metadata).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Read and verify a snapshot file.
pub fn read_snapshot(path: &Path) -> io::Result<SnapshotData> {
    let mut r = RecordReader::new(BufReader::new(File::open(path)?));
    let header = must_record(&mut r, "snapshot header")?;
    if header.len() < 9 || &header[..8] != MAGIC {
        return Err(bad_data("not a snapshot file (bad magic)"));
    }
    if header[8] != INDEXED_MODE_BYTE {
        return Err(bad_data(&format!("unknown index mode byte {}", header[8])));
    }
    let mut pos = 9;
    let generation = get_uvarint(&header, &mut pos)?;
    let n_terms = get_uvarint(&header, &mut pos)? as usize;
    let n_triples = get_uvarint(&header, &mut pos)? as usize;

    let mut terms = Vec::with_capacity(n_terms);
    while terms.len() < n_terms {
        let block = must_record(&mut r, "dictionary block")?;
        terms.extend(decode_dict_block(&block)?);
    }
    if terms.len() != n_terms {
        return Err(bad_data("dictionary block overshoots declared term count"));
    }

    let mut triples = Vec::with_capacity(n_triples);
    let mut prev_s = 0;
    while triples.len() < n_triples {
        let seg = must_record(&mut r, "triple segment")?;
        prev_s = decode_triple_segment(&seg, prev_s, &mut triples)?;
    }
    if triples.len() != n_triples {
        return Err(bad_data("triple segment overshoots declared count"));
    }
    match r.next_record()? {
        RecordOutcome::Eof => {}
        _ => return Err(bad_data("trailing records after snapshot body")),
    }
    Ok(SnapshotData {
        generation,
        terms,
        triples,
    })
}

fn must_record<R: io::Read>(r: &mut RecordReader<R>, what: &str) -> io::Result<Vec<u8>> {
    match r.next_record()? {
        RecordOutcome::Record(p) => Ok(p),
        _ => Err(bad_data(&format!("snapshot truncated or corrupt in {what}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::test_dir;

    fn sample_store() -> TripleStore {
        let mut st = TripleStore::new();
        for i in 0..5000u64 {
            st.insert(
                &Term::iri(format!("http://e/f{i}")),
                &Term::iri("http://e/v"),
                &Term::integer(i as i64 % 97),
            );
        }
        st.insert(
            &Term::iri("http://e/g"),
            &Term::iri("http://e/geo"),
            &Term::wkt("POINT (4 4)"),
        );
        st
    }

    #[test]
    fn snapshot_round_trips_multi_chunk_store() {
        let dir = test_dir("snap-roundtrip");
        let st = sample_store();
        write_snapshot(&dir, &st, 7).unwrap();
        let data = read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(data.generation, 7);
        assert_eq!(data.terms.len(), st.dict.len());
        assert_eq!(data.triples.len(), st.len());
        let want: Vec<IdTriple> = st.id_triples().collect();
        assert_eq!(data.triples, want);
        // Term ids are positional: term 0 decodes to the first interned term.
        for id in 0..data.terms.len() as u64 {
            assert_eq!(&data.terms[id as usize], st.dict.term(id));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// FNV-1a and length of the snapshot of a two-segment store whose
    /// insertion order is far from SPO order: descending subjects,
    /// deletes that move the tail around, then re-inserts.
    fn pinned_snapshot() -> (u64, usize) {
        let iri = |s: String| Term::iri(format!("http://e/{s}"));
        let mut st = TripleStore::new();
        for i in (0..9000u64).rev() {
            st.insert(
                &iri(format!("f{i}")),
                &iri("v".into()),
                &Term::integer(i as i64 % 89),
            );
        }
        for i in (0..9000u64).step_by(7) {
            st.remove(
                &iri(format!("f{i}")),
                &iri("v".into()),
                &Term::integer(i as i64 % 89),
            );
        }
        for i in (0..9000u64).step_by(14) {
            st.insert(
                &iri(format!("f{i}")),
                &iri("geo".into()),
                &Term::wkt(format!("POINT ({i} 1)")),
            );
        }
        let dir = test_dir("snap-pinned");
        write_snapshot(&dir, &st, 3).unwrap();
        let bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (crate::storage::encode::fnv1a(&bytes), bytes.len())
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // Golden values recorded before the writer streamed from the SPO
        // index; any change to the on-disk bytes must be deliberate.
        assert_eq!(pinned_snapshot(), (0xe9a9_ae4f_a57f_e583, 216_686));
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let dir = test_dir("snap-corrupt");
        write_snapshot(&dir, &sample_store(), 1).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
