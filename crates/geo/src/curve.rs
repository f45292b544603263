//! Space-filling curves: orderings of a grid's cells in which cells that
//! are close in the order are close in space.
//!
//! [`hilbert_index`] numbers the cells of a `2^order × 2^order` grid
//! along the Hilbert curve: consecutive indices are always edge
//! neighbours, so sorting records by the index of their cell keeps
//! records that are near each other in space near each other in memory.
//! [`hilbert_key`] applies it to a point inside an envelope.

use crate::geometry::{Envelope, Point};

/// Lam and Shapiro's Hilbert tables (Hacker's Delight, §16-2), two bits
/// per entry, indexed by `4 * state + 2 * x_bit + y_bit`: the state is
/// the orientation of the current sub-square, and each entry of
/// [`PLACE`] is the quadrant's place along the curve, each of
/// [`NEXT_STATE`] the orientation of the square inside the quadrant.
const PLACE: u32 = 0x361E_9CB4;
/// See [`PLACE`].
const NEXT_STATE: u32 = 0x8FE6_5831;

/// One level of the curve: the state inside the quadrant, and the index
/// grown by the quadrant's two bits.
const fn step(state: u32, d: u64, x_bit: u32, y_bit: u32) -> (u32, u64) {
    let row = (4 * state) | (2 * x_bit) | y_bit;
    let place = (PLACE >> (2 * row)) & 3;
    ((NEXT_STATE >> (2 * row)) & 3, (d << 2) | place as u64)
}

/// Four levels at a time: entry `state << 8 | x_nibble << 4 | y_nibble`
/// holds the eight index bits those levels add, and above them the state
/// after them.
const NIBBLES: [u16; 1024] = {
    let mut table = [0u16; 1024];
    let mut i = 0;
    while i < table.len() {
        let (mut state, mut d) = ((i >> 8) as u32, 0u64);
        let mut level = 4;
        while level > 0 {
            level -= 1;
            (state, d) = step(
                state,
                d,
                (i >> (4 + level)) as u32 & 1,
                (i >> level) as u32 & 1,
            );
        }
        table[i] = ((state << 8) as u16) | (d as u16);
        i += 1;
    }
    table
};

/// The position of cell `(x, y)` along the Hilbert curve over a
/// `2^order × 2^order` grid, in `0..4^order`. Coordinates must be below
/// `2^order`; `order` is at most 32. One pass from the top bit down, four
/// levels per table lookup.
pub fn hilbert_index(order: u32, x: u32, y: u32) -> u64 {
    assert!(order <= 32, "order {order} exceeds 32");
    assert!(
        order == 32 || (x >> order == 0 && y >> order == 0),
        "cell ({x}, {y}) outside a 2^{order} grid"
    );
    let (mut state, mut d) = (0u32, 0u64);
    let mut level = order;
    while !level.is_multiple_of(4) {
        level -= 1;
        (state, d) = step(state, d, (x >> level) & 1, (y >> level) & 1);
    }
    while level > 0 {
        level -= 4;
        let nibbles = (state << 8) | (((x >> level) & 15) << 4) | ((y >> level) & 15);
        let entry = NIBBLES[nibbles as usize];
        d = (d << 8) | u64::from(entry & 0xff);
        state = u32::from(entry >> 8);
    }
    d
}

/// [`hilbert_index`] of the cell holding `p` when `extent` is cut into a
/// `2^order × 2^order` grid. Points on or past the extent's edges fall in
/// the nearest edge cell.
pub fn hilbert_key(extent: &Envelope, order: u32, p: Point) -> u64 {
    let cells = (1u64 << order) as f64;
    // Clamped to non-negative first, so truncation is the floor.
    let cell =
        |v: f64, lo: f64, span: f64| ((v - lo) * (cells / span)).clamp(0.0, cells - 1.0) as u32;
    let x = cell(p.x, extent.min_x, extent.width());
    let y = cell(p.y, extent.min_y, extent.height());
    hilbert_index(order, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell of a `2^order` grid, listed in curve order.
    fn cells_in_curve_order(order: u32) -> Vec<Option<(u32, u32)>> {
        let side = 1u32 << order;
        let mut at = vec![None; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                let d = hilbert_index(order, x, y) as usize;
                assert!(
                    at[d].is_none(),
                    "cells {:?} and {:?} share index {d}",
                    at[d],
                    (x, y)
                );
                at[d] = Some((x, y));
            }
        }
        at
    }

    #[test]
    fn hilbert_index_is_a_bijection_on_small_grids() {
        for order in 0..=5 {
            let at = cells_in_curve_order(order);
            assert!(
                at.iter().all(Option::is_some),
                "order {order} leaves an index unused"
            );
        }
    }

    #[test]
    fn consecutive_hilbert_indices_are_grid_neighbours() {
        for order in 1..=5 {
            let at = cells_in_curve_order(order);
            for (d, w) in at.windows(2).enumerate() {
                let ((x0, y0), (x1, y1)) = (w[0].unwrap(), w[1].unwrap());
                let step = x0.abs_diff(x1) + y0.abs_diff(y1);
                assert_eq!(
                    step,
                    1,
                    "order {order}: index {d} at {:?}, {} at {:?}",
                    w[0],
                    d + 1,
                    w[1]
                );
            }
            // The curve starts at the origin corner and ends at the
            // other bottom corner.
            assert_eq!(at[0], Some((0, 0)));
            assert_eq!(at.last().copied().flatten(), Some(((1 << order) - 1, 0)));
        }
    }

    #[test]
    fn hilbert_key_clamps_to_the_extent() {
        let extent = Envelope::new(0.0, 0.0, 100.0, 100.0);
        let key = |x, y| hilbert_key(&extent, 16, Point::new(x, y));
        assert_eq!(key(0.0, 0.0), 0);
        assert_eq!(key(-5.0, -5.0), 0);
        assert_eq!(key(100.0, 0.0), hilbert_index(16, 65_535, 0));
        assert_eq!(key(150.0, 1e9), hilbert_index(16, 65_535, 65_535));
        // The full-width order still fits the index in a u64.
        assert_eq!(hilbert_index(32, u32::MAX, 0), u64::MAX);
    }
}
