//! Fixed-size tiling and overview pyramids.
//!
//! The Copernicus archive analogue stores scenes as fixed-size tiles (the
//! layout HopsFS files carry in E10), and the EuroSat-style patch datasets
//! of Challenge C2 are cut with the same machinery.

use crate::raster::{Pixel, Raster};

/// A tile cut from a parent raster.
#[derive(Debug, Clone)]
pub struct Tile<T: Pixel> {
    /// Tile column index in the tile grid.
    pub tx: usize,
    /// Tile row index in the tile grid.
    pub ty: usize,
    /// The pixel data (edge tiles may be smaller than the tile size).
    pub raster: Raster<T>,
}

/// Cut `raster` into tiles of at most `tile_size x tile_size` pixels.
/// Tiles are returned row-major over the tile grid; edge tiles are clipped,
/// never padded, so pixel data round-trips exactly.
pub fn tile<T: Pixel>(raster: &Raster<T>, tile_size: usize) -> Vec<Tile<T>> {
    assert!(tile_size > 0, "tile size must be positive");
    let tiles_x = raster.cols().div_ceil(tile_size);
    let tiles_y = raster.rows().div_ceil(tile_size);
    let mut out = Vec::with_capacity(tiles_x * tiles_y);
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let col0 = tx * tile_size;
            let row0 = ty * tile_size;
            let w = tile_size.min(raster.cols() - col0);
            let h = tile_size.min(raster.rows() - row0);
            let window = raster
                .window(col0, row0, w, h)
                .expect("tile window within parent");
            out.push(Tile {
                tx,
                ty,
                raster: window,
            });
        }
    }
    out
}

/// Reassemble tiles produced by [`tile`] back into the parent raster.
/// Tiles may be given in any order; the parent shape is inferred.
#[cfg(test)]
pub fn untile<T: Pixel>(tiles: &[Tile<T>], tile_size: usize) -> Option<Raster<T>> {
    if tiles.is_empty() {
        return None;
    }
    let tiles_x = tiles.iter().map(|t| t.tx).max()? + 1;
    let tiles_y = tiles.iter().map(|t| t.ty).max()? + 1;
    // Total size: full tiles plus the edge tile extents.
    let right_w = tiles
        .iter()
        .find(|t| t.tx == tiles_x - 1)
        .map(|t| t.raster.cols())?;
    let bottom_h = tiles
        .iter()
        .find(|t| t.ty == tiles_y - 1)
        .map(|t| t.raster.rows())?;
    let cols = (tiles_x - 1) * tile_size + right_w;
    let rows = (tiles_y - 1) * tile_size + bottom_h;
    // The parent transform is the (0,0) tile's transform.
    let origin = tiles.iter().find(|t| t.tx == 0 && t.ty == 0)?;
    let mut parent = Raster::zeros(cols, rows, origin.raster.transform());
    for t in tiles {
        let col0 = t.tx * tile_size;
        let row0 = t.ty * tile_size;
        for (c, r, v) in t.raster.iter() {
            parent.put(col0 + c, row0 + r, v);
        }
    }
    Some(parent)
}

/// One level of an overview pyramid: downsample by 2 with box averaging
/// (odd trailing rows/columns average the available pixels).
///
/// Output rows are data-parallel; this runs on [`ee_util::par`] with the
/// default worker count. Each output pixel is a pure function of the
/// input, so the result is identical for every thread count.
pub fn downsample2<T: Pixel + Send + Sync>(raster: &Raster<T>) -> Raster<T> {
    downsample2_with_threads(raster, ee_util::par::available_threads())
}

/// [`downsample2`] with an explicit worker count (1 = serial reference).
pub fn downsample2_with_threads<T: Pixel + Send + Sync>(
    raster: &Raster<T>,
    threads: usize,
) -> Raster<T> {
    let cols = raster.cols().div_ceil(2).max(1);
    let rows = raster.rows().div_ceil(2).max(1);
    let t = raster.transform();
    let transform =
        crate::raster::GeoTransform::new(t.origin_x, t.origin_y, t.pixel_size * 2.0);
    // Small levels are not worth a thread spawn; the top of every pyramid
    // runs inline.
    let threads = if cols * rows < 4096 { 1 } else { threads };
    let mut out = Raster::zeros(cols, rows, transform);
    ee_util::par::for_rows_mut(out.data_mut(), cols, threads, |first_row, band| {
        for (i, out_row) in band.chunks_mut(cols).enumerate() {
            let r = first_row + i;
            for (c, v) in out_row.iter_mut().enumerate() {
                let mut sum = 0.0;
                let mut n = 0.0;
                for dr in 0..2 {
                    for dc in 0..2 {
                        let sc = c * 2 + dc;
                        let sr = r * 2 + dr;
                        if sc < raster.cols() && sr < raster.rows() {
                            sum += raster.at(sc, sr).to_f64();
                            n += 1.0;
                        }
                    }
                }
                *v = T::from_f64(sum / n);
            }
        }
    });
    out
}

/// Build a full overview pyramid: level 0 is the input, moved in rather
/// than copied, and each further level halves the resolution, down to a
/// single-ish pixel.
///
/// Levels are built in sequence (each needs the previous), but every
/// level's rows are computed in parallel via [`downsample2`].
pub fn pyramid<T: Pixel + Send + Sync>(raster: Raster<T>) -> Vec<Raster<T>> {
    let mut levels = vec![raster];
    while levels.last().expect("non-empty").cols() > 1
        || levels.last().expect("non-empty").rows() > 1
    {
        let next = downsample2(levels.last().expect("non-empty"));
        levels.push(next);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::GeoTransform;

    fn gt() -> GeoTransform {
        GeoTransform::new(0.0, 100.0, 1.0)
    }

    #[test]
    fn tiling_counts_and_shapes() {
        let r: Raster<u16> = Raster::from_fn(100, 70, gt(), |c, row| (row * 100 + c) as u16);
        let tiles = tile(&r, 32);
        assert_eq!(tiles.len(), 4 * 3, "ceil(100/32) x ceil(70/32)");
        // Interior tile is full-size; edge tiles clipped.
        assert_eq!(tiles[0].raster.shape(), (32, 32));
        let last = tiles.last().unwrap();
        assert_eq!(last.raster.shape(), (100 - 96, 70 - 64));
    }

    #[test]
    fn tile_untile_roundtrip() {
        let r: Raster<u16> = Raster::from_fn(50, 37, gt(), |c, row| (row * 50 + c) as u16);
        let tiles = tile(&r, 16);
        let back = untile(&tiles, 16).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn untile_accepts_any_order() {
        let r: Raster<u8> = Raster::from_fn(20, 20, gt(), |c, row| (row + c) as u8);
        let mut tiles = tile(&r, 8);
        tiles.reverse();
        assert_eq!(untile(&tiles, 8).unwrap(), r);
        assert!(untile::<u8>(&[], 8).is_none());
    }

    #[test]
    fn tile_world_coordinates_are_preserved() {
        let r: Raster<f32> = Raster::zeros(64, 64, gt());
        let tiles = tile(&r, 32);
        let t11 = tiles.iter().find(|t| t.tx == 1 && t.ty == 1).unwrap();
        assert_eq!(
            t11.raster.transform().pixel_center(0, 0),
            r.transform().pixel_center(32, 32)
        );
    }

    #[test]
    fn downsample_averages() {
        let r: Raster<f32> = Raster::from_fn(4, 4, gt(), |c, row| (row * 4 + c) as f32);
        let d = downsample2(&r);
        assert_eq!(d.shape(), (2, 2));
        // Top-left 2x2 block: 0,1,4,5 → 2.5.
        assert_eq!(d.at(0, 0), 2.5);
        assert_eq!(d.transform().pixel_size, 2.0);
    }

    #[test]
    fn downsample_odd_edges() {
        let r: Raster<f32> = Raster::from_fn(3, 3, gt(), |_, _| 1.0);
        let d = downsample2(&r);
        assert_eq!(d.shape(), (2, 2));
        for (_, _, v) in d.iter() {
            assert_eq!(v, 1.0, "uniform input stays uniform");
        }
    }

    #[test]
    fn pyramid_reaches_unit_size() {
        let r: Raster<f32> = Raster::zeros(64, 48, gt());
        let levels = pyramid(r);
        assert_eq!(levels[0].shape(), (64, 48));
        let top = levels.last().unwrap();
        assert_eq!(top.shape(), (1, 1));
        // Each level halves (ceil) the previous.
        for w in levels.windows(2) {
            assert_eq!(w[1].cols(), w[0].cols().div_ceil(2).max(1));
        }
    }

    #[test]
    fn downsample_parallel_identical_to_serial() {
        // The by-row parallel split must be invisible: bit-identical
        // output for every worker count, including sizes above the
        // inline-threshold and ragged odd edges.
        for (cols, rows) in [(129, 97), (200, 200), (64, 3)] {
            let r: Raster<f32> = Raster::from_fn(cols, rows, gt(), |c, row| {
                ((row * cols + c) as f32).sin()
            });
            let serial = downsample2_with_threads(&r, 1);
            for threads in [2usize, 3, 4, 8] {
                let par = downsample2_with_threads(&r, threads);
                assert_eq!(par, serial, "{cols}x{rows} threads={threads}");
            }
        }
    }

    #[test]
    fn pyramid_preserves_mean() {
        // Box-filter pyramids preserve mean for power-of-two sizes.
        let r: Raster<f32> = Raster::from_fn(16, 16, gt(), |c, row| ((row * 16 + c) % 7) as f32);
        let levels = pyramid(r);
        let m0 = levels[0].mean();
        let mtop = levels.last().unwrap().mean();
        assert!((m0 - mtop).abs() < 1e-5, "{m0} vs {mtop}");
    }
}
