//! Regular grids over a bounded region.
//!
//! [`Grid`] maps between continuous coordinates and discrete cells. It is
//! used for equigrid blocking in `ee-interlink`, for rasterising vector
//! layers in `ee-datasets`, and for the spatial histograms of
//! `ee-federation`'s source selector.

use crate::geometry::Envelope;

/// A `cols x rows` grid of equal cells covering an envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// The covered region.
    pub extent: Envelope,
    /// Number of columns (x direction).
    pub cols: usize,
    /// Number of rows (y direction).
    pub rows: usize,
}

impl Grid {
    /// Construct. Panics if `cols` or `rows` is zero or the extent is empty.
    pub fn new(extent: Envelope, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(!extent.is_empty(), "grid extent must be non-empty");
        Self { extent, cols, rows }
    }

    /// Construct with a target cell size; the cell count is rounded up so
    /// cells are never larger than requested.
    #[cfg(test)]
    pub fn with_cell_size(extent: Envelope, cell_w: f64, cell_h: f64) -> Self {
        assert!(cell_w > 0.0 && cell_h > 0.0);
        let cols = (extent.width() / cell_w).ceil().max(1.0) as usize;
        let rows = (extent.height() / cell_h).ceil().max(1.0) as usize;
        Self::new(extent, cols, rows)
    }

    /// Cell width.
    pub fn cell_width(&self) -> f64 {
        self.extent.width() / self.cols as f64
    }

    /// Cell height.
    pub fn cell_height(&self) -> f64 {
        self.extent.height() / self.rows as f64
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.cols * self.rows
    }

    /// Flattened index of a (col, row) pair (row-major).
    pub fn index(&self, col: usize, row: usize) -> usize {
        debug_assert!(col < self.cols && row < self.rows);
        row * self.cols + col
    }

    /// Inclusive (col, row) ranges of the cells intersecting an envelope,
    /// or `None` when disjoint from the grid.
    pub fn cells_overlapping(&self, env: &Envelope) -> Option<(usize, usize, usize, usize)> {
        if !self.extent.intersects(env) {
            return None;
        }
        let clamp_x = |x: f64| x.clamp(self.extent.min_x, self.extent.max_x);
        let clamp_y = |y: f64| y.clamp(self.extent.min_y, self.extent.max_y);
        let c0 = (((clamp_x(env.min_x) - self.extent.min_x) / self.cell_width()) as usize)
            .min(self.cols - 1);
        let c1 = (((clamp_x(env.max_x) - self.extent.min_x) / self.cell_width()) as usize)
            .min(self.cols - 1);
        let r0 = (((clamp_y(env.min_y) - self.extent.min_y) / self.cell_height()) as usize)
            .min(self.rows - 1);
        let r1 = (((clamp_y(env.max_y) - self.extent.min_y) / self.cell_height()) as usize)
            .min(self.rows - 1);
        Some((c0, r0, c1, r1))
    }

    /// Iterate the flattened indices of the cells intersecting an envelope.
    pub fn overlapping_indices(&self, env: &Envelope) -> Vec<usize> {
        match self.cells_overlapping(env) {
            None => Vec::new(),
            Some((c0, r0, c1, r1)) => {
                let mut out = Vec::with_capacity((c1 - c0 + 1) * (r1 - r0 + 1));
                for row in r0..=r1 {
                    for col in c0..=c1 {
                        out.push(self.index(col, row));
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(Envelope::new(0.0, 0.0, 10.0, 5.0), 10, 5)
    }

    #[test]
    fn geometry_of_cells() {
        let g = grid();
        assert_eq!(g.cell_width(), 1.0);
        assert_eq!(g.cell_height(), 1.0);
        assert_eq!(g.num_cells(), 50);
    }

    #[test]
    fn overlap_ranges() {
        let g = grid();
        let q = Envelope::new(1.5, 0.5, 3.5, 2.5);
        assert_eq!(g.cells_overlapping(&q), Some((1, 0, 3, 2)));
        assert_eq!(g.overlapping_indices(&q).len(), 9);
        // Query larger than the grid clamps to all cells.
        let all = Envelope::new(-100.0, -100.0, 100.0, 100.0);
        assert_eq!(g.overlapping_indices(&all).len(), 50);
        // Disjoint query.
        assert!(g.cells_overlapping(&Envelope::new(20.0, 20.0, 30.0, 30.0)).is_none());
    }

    #[test]
    fn with_cell_size_rounds_up() {
        let g = Grid::with_cell_size(Envelope::new(0.0, 0.0, 10.0, 10.0), 3.0, 3.0);
        assert_eq!(g.cols, 4);
        assert_eq!(g.rows, 4);
        assert!(g.cell_width() <= 3.0);
    }

    #[test]
    fn index_roundtrip() {
        let g = grid();
        assert_eq!(g.index(0, 0), 0);
        assert_eq!(g.index(9, 4), 49);
        assert_eq!(g.index(3, 2), 23);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        Grid::new(Envelope::new(0.0, 0.0, 1.0, 1.0), 0, 5);
    }
}
