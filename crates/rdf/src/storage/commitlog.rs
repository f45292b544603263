//! The commit log: the store's write-ahead log and its immutable,
//! hash-chained history of every commit it has ever applied.
//!
//! `commits.log` is a sequence of framed records
//! ([`super::encode::write_record`]), one per commit:
//!
//! ```text
//! record payload := [u64 LE parent commit id][commit payload]
//! commit payload := uvarint generation
//!                   uvarint n_delete, n_delete × (term term term)
//!                   uvarint n_insert, n_insert × (term term term)
//! ```
//!
//! Commits log **terms, not dictionary ids**: replay re-interns against
//! whatever dictionary the snapshot produced, so a record written before
//! a compaction stays meaningful. Deltas are stored delete-first,
//! matching application order.
//!
//! A record's **commit id** is `fnv1a(payload)` — the same value the
//! framing already stores as the record checksum. Because the parent id is
//! folded into the payload, ids form a hash chain rooted at
//! [`ROOT_COMMIT_ID`] (the FNV offset basis, i.e. `fnv1a("")`): a commit id
//! names not just one delta but the entire history that produced it, which
//! is what makes it safe to use as an ETag and a cache key upstream.
//!
//! Recovery contract: the store appends (and, with [`Durability::Sync`],
//! fdatasyncs) a record *before* applying it, and `CommitLog::open`
//! keeps every complete record that extends the chain — parent id and
//! generation both one step on — and **truncates** a torn or
//! chain-breaking tail in place. A crash mid-append therefore leaves the
//! whole record or nothing. Compaction never touches the log, so
//! `AS OF` reads can rewind past any snapshot.

use super::encode::{
    bad_data, fnv1a, get_term, get_uvarint, put_term, put_uvarint, write_record, RecordOutcome,
    RecordReader,
};
use crate::update::GroundTriple;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Seek, SeekFrom, Write};
use std::path::Path;

/// File name of the commit log inside a store directory.
pub const COMMITS_FILE: &str = "commits.log";

/// The commit id of the empty history — the store as created/bulk-loaded,
/// before any commit. Equal to `fnv1a(&[])`, the FNV-1a offset basis.
pub const ROOT_COMMIT_ID: u64 = 0xcbf2_9ce4_8422_2325;

/// Whether appends fsync before a commit is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// `fdatasync` every commit record (the default).
    Sync,
    /// Skip fsync — test/bench only; a torn tail is still recovered,
    /// but acknowledged commits may be lost on power failure.
    NoSync,
}

impl Durability {
    /// Resolve the default from `EE_WAL_NO_SYNC` (test-only escape
    /// hatch; anything non-empty and not `0` disables fsync).
    pub fn from_env() -> Self {
        match std::env::var("EE_WAL_NO_SYNC") {
            Ok(v) if !v.is_empty() && v != "0" => Durability::NoSync,
            _ => Durability::Sync,
        }
    }
}

/// One logged commit's delta.
#[derive(Debug, Clone, PartialEq)]
pub struct WalCommit {
    /// Generation this commit produced.
    pub generation: u64,
    /// Triples removed (applied first).
    pub delete: Vec<GroundTriple>,
    /// Triples added.
    pub insert: Vec<GroundTriple>,
}

fn encode_commit(c: &WalCommit) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_uvarint(&mut out, c.generation);
    put_uvarint(&mut out, c.delete.len() as u64);
    for (s, p, o) in &c.delete {
        put_term(&mut out, s);
        put_term(&mut out, p);
        put_term(&mut out, o);
    }
    put_uvarint(&mut out, c.insert.len() as u64);
    for (s, p, o) in &c.insert {
        put_term(&mut out, s);
        put_term(&mut out, p);
        put_term(&mut out, o);
    }
    out
}

fn decode_commit(payload: &[u8]) -> io::Result<WalCommit> {
    let mut pos = 0;
    let generation = get_uvarint(payload, &mut pos)?;
    let read_triples = |pos: &mut usize| -> io::Result<Vec<GroundTriple>> {
        let n = get_uvarint(payload, pos)? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let s = get_term(payload, pos)?;
            let p = get_term(payload, pos)?;
            let o = get_term(payload, pos)?;
            out.push((s, p, o));
        }
        Ok(out)
    };
    let delete = read_triples(&mut pos)?;
    let insert = read_triples(&mut pos)?;
    if pos != payload.len() {
        return Err(bad_data("trailing bytes in commit payload"));
    }
    Ok(WalCommit {
        generation,
        delete,
        insert,
    })
}

/// One immutable entry in the commit history.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// This commit's id: `fnv1a(parent LE bytes ‖ commit payload)`.
    pub id: u64,
    /// The id of the preceding commit ([`ROOT_COMMIT_ID`] for the first).
    pub parent: u64,
    /// The delta this commit applied.
    pub commit: WalCommit,
}

impl CommitRecord {
    /// The generation this commit produced.
    pub fn generation(&self) -> u64 {
        self.commit.generation
    }
}

fn encode_record(parent: u64, commit: &WalCommit) -> Vec<u8> {
    let body = encode_commit(commit);
    let mut payload = Vec::with_capacity(8 + body.len());
    payload.extend_from_slice(&parent.to_le_bytes());
    payload.extend_from_slice(&body);
    payload
}

fn decode_record(payload: &[u8]) -> io::Result<CommitRecord> {
    if payload.len() < 8 {
        return Err(bad_data("commit record shorter than its parent id"));
    }
    let parent = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let commit = decode_commit(&payload[8..])?;
    Ok(CommitRecord {
        id: fnv1a(payload),
        parent,
        commit,
    })
}

/// Derive the commit record a given delta produces on top of `parent`.
/// Pure and deterministic: durable and ephemeral stores that apply the
/// same deltas build the same chain of ids.
pub fn derive_record(parent: u64, commit: WalCommit) -> CommitRecord {
    let payload = encode_record(parent, &commit);
    CommitRecord {
        id: fnv1a(&payload),
        parent,
        commit,
    }
}

/// An open commit log.
pub(crate) struct CommitLog {
    file: File,
    durability: Durability,
    /// Bytes of clean records currently in the file.
    len: u64,
    /// Set when a failed append could not be rolled back: the file may
    /// end in a partial record, so nothing more may be appended to it.
    poisoned: bool,
    /// Test-only fault: the next append writes this many bytes of its
    /// record and then fails (`true` also fails the rollback).
    #[cfg(test)]
    pub(crate) fault: Option<(usize, bool)>,
}

impl CommitLog {
    /// Open (creating if absent) the commit log in `dir`. Returns the log
    /// handle plus every record in commit order, each with the byte
    /// offset where it ends. Reading stops at the first torn record or
    /// the first record that does not extend the chain (wrong parent id,
    /// or a generation other than its predecessor's + 1); that tail is
    /// truncated away so appends resume on a clean record boundary.
    pub fn open(
        dir: &Path,
        durability: Durability,
    ) -> io::Result<(CommitLog, Vec<(CommitRecord, u64)>)> {
        let file = Self::open_file(dir, false)?;
        let mut records: Vec<(CommitRecord, u64)> = Vec::new();
        let mut reader = RecordReader::new(BufReader::new(&file));
        let valid_len = loop {
            let clean = reader.valid_len();
            match reader.next_record()? {
                RecordOutcome::Record(payload) => {
                    let rec = decode_record(&payload)?;
                    let (parent, generation) = records
                        .last()
                        .map_or((ROOT_COMMIT_ID, 0), |(r, _)| (r.id, r.generation()));
                    if rec.parent != parent || rec.generation() != generation + 1 {
                        // A record that does not extend the chain is as
                        // good as torn: keep the clean prefix.
                        break clean;
                    }
                    records.push((rec, reader.valid_len()));
                }
                RecordOutcome::Eof => break clean,
                RecordOutcome::Torn { valid_len } => break valid_len,
            }
        };
        let mut log = Self::new(file, durability, valid_len);
        if log.file.metadata()?.len() != valid_len {
            log.file.set_len(valid_len)?;
            log.file.sync_all()?;
        }
        log.file.seek(SeekFrom::Start(valid_len))?;
        Ok((log, records))
    }

    /// Create an empty commit log in `dir`, discarding any previous one.
    pub fn create(dir: &Path, durability: Durability) -> io::Result<CommitLog> {
        let file = Self::open_file(dir, true)?;
        file.sync_all()?;
        Ok(Self::new(file, durability, 0))
    }

    fn open_file(dir: &Path, truncate: bool) -> io::Result<File> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(dir.join(COMMITS_FILE))?;
        // Persist a freshly created file's directory entry, or a power
        // loss could drop the whole log with its fsync'd records.
        File::open(dir)?.sync_all()?;
        Ok(file)
    }

    fn new(file: File, durability: Durability, len: u64) -> CommitLog {
        CommitLog {
            file,
            durability,
            len,
            poisoned: false,
            #[cfg(test)]
            fault: None,
        }
    }

    /// Append one commit record; returns its on-disk size in bytes.
    /// With [`Durability::Sync`] the record is fdatasync'd before
    /// returning — the commit is durable once this call succeeds.
    ///
    /// On failure the file is cut back to its clean length, so a partial
    /// record never sits in front of the next acknowledged one. If even
    /// that fails, every later append is refused until the store is
    /// reopened (whose recovery truncates the torn tail).
    pub fn append(&mut self, rec: &CommitRecord) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(
                "commit log has a partial record a failed rollback left behind; reopen the store",
            ));
        }
        let mut framed = Vec::new();
        write_record(&mut framed, &encode_record(rec.parent, &rec.commit))?;
        if let Err(e) = self.write_durably(&framed) {
            if self.roll_back().is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.len += framed.len() as u64;
        Ok(framed.len() as u64)
    }

    fn write_durably(&mut self, framed: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if let Some((prefix, _)) = self.fault {
            self.file.write_all(&framed[..prefix.min(framed.len())])?;
            return Err(io::Error::other("injected append failure"));
        }
        self.file.write_all(framed)?;
        if self.durability == Durability::Sync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Cut the file back to the last clean record boundary.
    fn roll_back(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if let Some((_, rollback_fails)) = self.fault.take() {
            if rollback_fails {
                return Err(io::Error::other("injected rollback failure"));
            }
        }
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        Ok(())
    }

    /// Force the log to disk. Compaction calls this before publishing a
    /// snapshot, so a snapshot is never ahead of the durable log.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Current clean length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }
}
