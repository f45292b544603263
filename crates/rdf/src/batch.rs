//! Columnar binding batches.
//!
//! A [`Batch`] holds the intermediate solutions of a query as columns of
//! dictionary ids — one column per entry in the plan's variable table —
//! instead of the row-of-`Option<Term>` representation the old evaluator
//! carried through every join step. Ids are 8 bytes, unbound is the
//! [`UNBOUND`] sentinel (the dictionary allocates ids from zero and can
//! never issue `u64::MAX`), and the physical operators read and write
//! rows through a small fixed-width scratch buffer, so a join probe
//! touches contiguous memory rather than chasing `Option` tags.
//!
//! Batches are append-only per operator: parallel operators build one
//! mini-batch per chunk and concatenate them in chunk order, which is
//! what keeps parallel execution bit-identical to serial.

/// The "unbound variable" sentinel. The dictionary allocates ids starting
/// at zero, so `u64::MAX` can never collide with a real term id.
pub const UNBOUND: u64 = u64::MAX;

/// A columnar batch of variable bindings over dictionary ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    len: usize,
    cols: Vec<Vec<u64>>,
}

impl Batch {
    /// An empty batch with `width` columns.
    pub fn new(width: usize) -> Self {
        Self {
            len: 0,
            cols: vec![Vec::new(); width],
        }
    }

    /// A single all-unbound row — the join pipeline's seed.
    pub fn unit(width: usize) -> Self {
        Self {
            len: 1,
            cols: vec![vec![UNBOUND]; width],
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id at (`row`, `col`); [`UNBOUND`] when unbound.
    pub fn get(&self, row: usize, col: usize) -> u64 {
        self.cols[col][row]
    }

    /// One full column.
    pub fn col(&self, col: usize) -> &[u64] {
        &self.cols[col]
    }

    /// Append one row given as a width-sized slice.
    pub fn push_row(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (c, &v) in self.cols.iter_mut().zip(row) {
            c.push(v);
        }
        self.len += 1;
    }

    /// Copy row `row` into `buf` (resized to the batch width).
    pub fn read_row(&self, row: usize, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|c| c[row]));
    }

    /// Append all rows of `other` (same width) after this batch's rows.
    pub fn append(&mut self, other: &Batch) {
        debug_assert_eq!(self.width(), other.width());
        for (c, oc) in self.cols.iter_mut().zip(&other.cols) {
            c.extend_from_slice(oc);
        }
        self.len += other.len;
    }

    /// Remove and return the first `n` rows (fewer when the batch is
    /// shorter), preserving order in both halves. The pipelined executor
    /// uses this to hand a bounded slice of a stage's output buffer
    /// downstream while keeping the overflow for the next pull.
    pub fn drain_front(&mut self, n: usize) -> Batch {
        if n >= self.len {
            return std::mem::replace(self, Batch::new(self.width()));
        }
        let mut out = Batch::new(self.width());
        if n == 0 {
            return out;
        }
        for (oc, c) in out.cols.iter_mut().zip(&mut self.cols) {
            oc.extend(c.drain(..n));
        }
        out.len = n;
        self.len -= n;
        out
    }

    /// Keep only rows where `keep[row]` is true, preserving order.
    pub fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        for c in &mut self.cols {
            let mut i = 0;
            c.retain(|_| {
                let k = keep[i];
                i += 1;
                k
            });
        }
        self.len = keep.iter().filter(|&&k| k).count();
    }

    /// Keep only the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        for c in &mut self.cols {
            c.truncate(n);
        }
        self.len = self.len.min(n);
    }

    /// A batch of the given columns, in that order (a column may repeat).
    pub fn select(&self, cols: &[usize]) -> Batch {
        Batch {
            len: self.len,
            cols: cols.iter().map(|&c| self.cols[c].clone()).collect(),
        }
    }

    /// A batch of the given rows, in that order.
    pub fn gather(&self, rows: &[usize]) -> Batch {
        Batch {
            len: rows.len(),
            cols: self.cols.iter().map(|c| rows.iter().map(|&r| c[r]).collect()).collect(),
        }
    }

    /// Number of rows whose value in `col` is bound (not [`UNBOUND`]).
    /// The executor's COUNT fast path calls this per pulled batch, so a
    /// `COUNT(?v)` never materialises row-major `Option` form at all.
    pub fn count_bound(&self, col: usize) -> usize {
        self.cols[col].iter().filter(|&&v| v != UNBOUND).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_read_roundtrip() {
        let mut b = Batch::new(3);
        b.push_row(&[1, UNBOUND, 3]);
        b.push_row(&[4, 5, UNBOUND]);
        assert_eq!(b.len(), 2);
        let mut buf = Vec::new();
        b.read_row(0, &mut buf);
        assert_eq!(buf, vec![1, UNBOUND, 3]);
        assert_eq!(b.get(1, 1), 5);
        b.read_row(1, &mut buf);
        assert_eq!(buf, vec![4, 5, UNBOUND]);
    }

    #[test]
    fn append_preserves_order() {
        let mut a = Batch::new(2);
        a.push_row(&[1, 2]);
        let mut b = Batch::new(2);
        b.push_row(&[3, 4]);
        b.push_row(&[5, 6]);
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.col(0), &[1, 3, 5]);
        assert_eq!(a.col(1), &[2, 4, 6]);
    }

    #[test]
    fn retain_is_order_preserving() {
        let mut b = Batch::new(1);
        for i in 0..6 {
            b.push_row(&[i]);
        }
        b.retain(&[true, false, true, false, true, false]);
        assert_eq!(b.col(0), &[0, 2, 4]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn drain_front_splits_in_order() {
        let mut b = Batch::new(2);
        for i in 0..5 {
            b.push_row(&[i, i + 10]);
        }
        let front = b.drain_front(3);
        assert_eq!(front.len(), 3);
        assert_eq!(front.col(0), &[0, 1, 2]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.col(1), &[13, 14]);
        let rest = b.drain_front(99);
        assert_eq!(rest.len(), 2);
        assert!(b.is_empty());
        assert!(b.drain_front(4).is_empty());
    }

    #[test]
    fn select_gather_and_truncate_keep_order() {
        let mut b = Batch::new(2);
        for i in 0..4 {
            b.push_row(&[i, i + 10]);
        }
        let s = b.select(&[1, 1]);
        assert_eq!((s.len(), s.col(0), s.col(1)), (4, &[10, 11, 12, 13][..], &[10, 11, 12, 13][..]));
        let g = b.gather(&[3, 0]);
        assert_eq!((g.len(), g.col(0), g.col(1)), (2, &[3, 0][..], &[13, 10][..]));
        b.truncate(1);
        assert_eq!((b.len(), b.col(1)), (1, &[10][..]));
        // A projection onto no columns keeps the row count.
        assert_eq!(g.select(&[]).len(), 2);
    }

    #[test]
    fn count_bound_skips_unbound_sentinels() {
        let mut b = Batch::new(2);
        b.push_row(&[1, UNBOUND]);
        b.push_row(&[UNBOUND, UNBOUND]);
        b.push_row(&[3, 4]);
        assert_eq!(b.count_bound(0), 2);
        assert_eq!(b.count_bound(1), 1);
    }

    #[test]
    fn unit_row_is_all_unbound() {
        let b = Batch::unit(4);
        assert_eq!(b.len(), 1);
        assert!((0..4).all(|c| b.get(0, c) == UNBOUND));
    }
}
