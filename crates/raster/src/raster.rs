//! The core raster grid type and its geotransform.

use crate::RasterError;
use ee_geo::{Envelope, Point};

/// Pixel types the raster layer supports.
///
/// The trait gives the resampling and codec code a lossless-ish float
/// round-trip; label rasters use `u8`/`u16`, measurements use `f32`.
pub trait Pixel: Copy + Default + PartialEq + std::fmt::Debug + 'static {
    /// Convert to `f64` for arithmetic.
    fn to_f64(self) -> f64;
    /// Convert back from `f64` (saturating / rounding as appropriate).
    fn from_f64(v: f64) -> Self;
    /// The codec type tag (must be unique per implementation).
    const TYPE_TAG: u8;
    /// Bytes per pixel in the codec.
    const BYTES: usize;
    /// Encode one pixel little-endian.
    fn write_le(self, out: &mut Vec<u8>);
    /// Decode one pixel little-endian; `buf.len() == Self::BYTES`.
    fn read_le(buf: &[u8]) -> Self;
}

impl Pixel for u8 {
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> Self {
        v.round().clamp(0.0, u8::MAX as f64) as u8
    }
    const TYPE_TAG: u8 = 1;
    const BYTES: usize = 1;
    fn write_le(self, out: &mut Vec<u8>) {
        out.push(self);
    }
    fn read_le(buf: &[u8]) -> Self {
        buf[0]
    }
}

impl Pixel for u16 {
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> Self {
        v.round().clamp(0.0, u16::MAX as f64) as u16
    }
    const TYPE_TAG: u8 = 2;
    const BYTES: usize = 2;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(buf: &[u8]) -> Self {
        u16::from_le_bytes([buf[0], buf[1]])
    }
}

impl Pixel for f32 {
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    const TYPE_TAG: u8 = 3;
    const BYTES: usize = 4;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(buf: &[u8]) -> Self {
        f32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]])
    }
}

/// An affine north-up pixel-to-world mapping.
///
/// World x = `origin_x + col * pixel_size`; world y =
/// `origin_y - row * pixel_size` (row 0 is the *top* of the image, as in
/// GDAL). Square pixels only — Sentinel products are resampled to square
/// grids anyway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoTransform {
    /// World x of the *outer* edge of the leftmost pixel column.
    pub origin_x: f64,
    /// World y of the *outer* edge of the topmost pixel row.
    pub origin_y: f64,
    /// Pixel edge length in world units (> 0).
    pub pixel_size: f64,
}

impl GeoTransform {
    /// Construct; panics on non-positive pixel size.
    pub fn new(origin_x: f64, origin_y: f64, pixel_size: f64) -> Self {
        assert!(pixel_size > 0.0, "pixel size must be positive");
        Self {
            origin_x,
            origin_y,
            pixel_size,
        }
    }

    /// World coordinates of the centre of pixel (col, row).
    pub fn pixel_center(&self, col: usize, row: usize) -> Point {
        Point::new(
            self.origin_x + (col as f64 + 0.5) * self.pixel_size,
            self.origin_y - (row as f64 + 0.5) * self.pixel_size,
        )
    }

    /// Pixel (col, row) containing the world point, which may be outside
    /// the raster; the caller bounds-checks.
    pub fn world_to_pixel(&self, p: &Point) -> (i64, i64) {
        (
            ((p.x - self.origin_x) / self.pixel_size).floor() as i64,
            ((self.origin_y - p.y) / self.pixel_size).floor() as i64,
        )
    }

    /// The world envelope of a `cols x rows` raster under this transform.
    pub fn envelope(&self, cols: usize, rows: usize) -> Envelope {
        Envelope::new(
            self.origin_x,
            self.origin_y - rows as f64 * self.pixel_size,
            self.origin_x + cols as f64 * self.pixel_size,
            self.origin_y,
        )
    }
}

/// A dense, row-major 2-D grid of pixels with a geotransform.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster<T: Pixel> {
    cols: usize,
    rows: usize,
    transform: GeoTransform,
    data: Vec<T>,
}

impl<T: Pixel> Raster<T> {
    /// A raster filled with the default pixel value.
    pub fn filled(cols: usize, rows: usize, transform: GeoTransform, value: T) -> Self {
        assert!(cols > 0 && rows > 0, "raster must be non-empty");
        Self {
            cols,
            rows,
            transform,
            data: vec![value; cols * rows],
        }
    }

    /// A zero-filled raster.
    pub fn zeros(cols: usize, rows: usize, transform: GeoTransform) -> Self {
        Self::filled(cols, rows, transform, T::default())
    }

    /// Build per-pixel from a function of (col, row).
    pub fn from_fn(
        cols: usize,
        rows: usize,
        transform: GeoTransform,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Self {
        assert!(cols > 0 && rows > 0, "raster must be non-empty");
        let mut data = Vec::with_capacity(cols * rows);
        for row in 0..rows {
            for col in 0..cols {
                data.push(f(col, row));
            }
        }
        Self {
            cols,
            rows,
            transform,
            data,
        }
    }

    /// Wrap an existing buffer. `data.len()` must equal `cols * rows`.
    pub fn from_vec(
        cols: usize,
        rows: usize,
        transform: GeoTransform,
        data: Vec<T>,
    ) -> Result<Self, RasterError> {
        if data.len() != cols * rows {
            return Err(RasterError::ShapeMismatch {
                expected: (cols, rows),
                actual: (data.len(), 1),
            });
        }
        Ok(Self {
            cols,
            rows,
            transform,
            data,
        })
    }

    /// Columns (width).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows (height).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// (cols, rows).
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The geotransform.
    pub fn transform(&self) -> GeoTransform {
        self.transform
    }

    /// World-space footprint.
    pub fn envelope(&self) -> Envelope {
        self.transform.envelope(self.cols, self.rows)
    }

    /// Raw pixel slice, row-major.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw pixel slice.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Unchecked-get with bounds assertion in debug builds only: the hot
    /// path for inner loops that already iterate within bounds.
    #[inline]
    pub fn at(&self, col: usize, row: usize) -> T {
        debug_assert!(col < self.cols && row < self.rows);
        self.data[row * self.cols + col]
    }

    /// Checked pixel read.
    pub fn get(&self, col: usize, row: usize) -> Result<T, RasterError> {
        if col >= self.cols || row >= self.rows {
            return Err(RasterError::OutOfBounds {
                col,
                row,
                shape: self.shape(),
            });
        }
        Ok(self.data[row * self.cols + col])
    }

    /// Checked pixel write.
    pub fn set(&mut self, col: usize, row: usize, value: T) -> Result<(), RasterError> {
        if col >= self.cols || row >= self.rows {
            return Err(RasterError::OutOfBounds {
                col,
                row,
                shape: self.shape(),
            });
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Unchecked-set counterpart of [`Raster::at`].
    #[inline]
    pub fn put(&mut self, col: usize, row: usize, value: T) {
        debug_assert!(col < self.cols && row < self.rows);
        self.data[row * self.cols + col] = value;
    }

    /// Pixel value at a world point, or `None` outside the raster.
    #[cfg(test)]
    pub fn sample_world(&self, p: &Point) -> Option<T> {
        let (c, r) = self.transform.world_to_pixel(p);
        if c < 0 || r < 0 || c as usize >= self.cols || r as usize >= self.rows {
            return None;
        }
        Some(self.at(c as usize, r as usize))
    }

    /// Apply a function to every pixel, producing a raster of a possibly
    /// different pixel type with the same georeferencing.
    pub fn map<U: Pixel>(&self, mut f: impl FnMut(T) -> U) -> Raster<U> {
        Raster {
            cols: self.cols,
            rows: self.rows,
            transform: self.transform,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combine two same-shaped rasters pixel-wise.
    pub fn zip_map<U: Pixel, V: Pixel>(
        &self,
        other: &Raster<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> Result<Raster<V>, RasterError> {
        if self.shape() != other.shape() {
            return Err(RasterError::ShapeMismatch {
                expected: self.shape(),
                actual: other.shape(),
            });
        }
        Ok(Raster {
            cols: self.cols,
            rows: self.rows,
            transform: self.transform,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Crop a pixel window (col0, row0, width, height); the geotransform is
    /// shifted so world coordinates are preserved.
    pub fn window(
        &self,
        col0: usize,
        row0: usize,
        width: usize,
        height: usize,
    ) -> Result<Raster<T>, RasterError> {
        if col0 + width > self.cols || row0 + height > self.rows || width == 0 || height == 0 {
            return Err(RasterError::OutOfBounds {
                col: col0 + width,
                row: row0 + height,
                shape: self.shape(),
            });
        }
        let transform = GeoTransform::new(
            self.transform.origin_x + col0 as f64 * self.transform.pixel_size,
            self.transform.origin_y - row0 as f64 * self.transform.pixel_size,
            self.transform.pixel_size,
        );
        let mut data = Vec::with_capacity(width * height);
        for r in row0..row0 + height {
            let start = r * self.cols + col0;
            data.extend_from_slice(&self.data[start..start + width]);
        }
        Ok(Raster {
            cols: width,
            rows: height,
            transform,
            data,
        })
    }

    /// Iterate `(col, row, value)` over all pixels, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i % cols, i / cols, v))
    }

    /// Mean of all pixels (as f64).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|v| v.to_f64()).sum::<f64>() / self.data.len() as f64
    }

    /// (min, max) of all pixels as f64.
    pub fn min_max(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in &self.data {
            let x = v.to_f64();
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt() -> GeoTransform {
        GeoTransform::new(100.0, 200.0, 10.0)
    }

    #[test]
    fn geotransform_pixel_world_roundtrip() {
        let t = gt();
        let c = t.pixel_center(3, 4);
        assert_eq!(c, Point::new(135.0, 155.0));
        assert_eq!(t.world_to_pixel(&c), (3, 4));
        // Corners of pixel (0,0).
        assert_eq!(t.world_to_pixel(&Point::new(100.0, 199.9)), (0, 0));
        assert_eq!(t.world_to_pixel(&Point::new(99.9, 199.9)), (-1, 0));
    }

    #[test]
    fn envelope_of_raster() {
        let r: Raster<f32> = Raster::zeros(4, 3, gt());
        assert_eq!(r.envelope(), Envelope::new(100.0, 170.0, 140.0, 200.0));
    }

    #[test]
    fn get_set_bounds() {
        let mut r: Raster<u8> = Raster::zeros(4, 3, gt());
        r.set(3, 2, 7).unwrap();
        assert_eq!(r.get(3, 2).unwrap(), 7);
        assert!(matches!(r.get(4, 0), Err(RasterError::OutOfBounds { .. })));
        assert!(matches!(r.set(0, 3, 1), Err(RasterError::OutOfBounds { .. })));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let r: Raster<u16> = Raster::from_fn(3, 2, gt(), |c, row| (row * 10 + c) as u16);
        assert_eq!(r.data(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(r.at(2, 1), 12);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Raster::<u8>::from_vec(2, 2, gt(), vec![1, 2, 3]).is_err());
        assert!(Raster::<u8>::from_vec(2, 2, gt(), vec![1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn sample_world() {
        let r: Raster<u16> = Raster::from_fn(4, 3, gt(), |c, row| (row * 4 + c) as u16);
        assert_eq!(r.sample_world(&Point::new(135.0, 185.0)), Some(7), "pixel (3,1)");
        assert_eq!(r.sample_world(&Point::new(0.0, 0.0)), None);
        // Top-left pixel interior.
        assert_eq!(r.sample_world(&Point::new(101.0, 199.0)), Some(0));
    }

    #[test]
    fn map_and_zip_map() {
        let a: Raster<u8> = Raster::from_fn(2, 2, gt(), |c, r| (c + r) as u8);
        let b = a.map(|v| v as f32 * 2.0);
        assert_eq!(b.at(1, 1), 4.0);
        let c = a.zip_map(&b, |x, y| x as f32 + y).unwrap();
        assert_eq!(c.at(1, 1), 6.0);
        let small: Raster<u8> = Raster::zeros(1, 1, gt());
        assert!(a.zip_map(&small, |x, _| x).is_err());
    }

    #[test]
    fn window_preserves_world_coordinates() {
        let r: Raster<u16> = Raster::from_fn(10, 10, gt(), |c, row| (row * 10 + c) as u16);
        let w = r.window(2, 3, 4, 5).unwrap();
        assert_eq!(w.shape(), (4, 5));
        assert_eq!(w.at(0, 0), 32);
        // World centre of w's (0,0) equals r's (2,3).
        assert_eq!(w.transform().pixel_center(0, 0), r.transform().pixel_center(2, 3));
        assert!(r.window(8, 8, 4, 4).is_err());
        assert!(r.window(0, 0, 0, 1).is_err());
    }

    #[test]
    fn statistics() {
        let r: Raster<f32> = Raster::from_fn(2, 2, gt(), |c, row| (c + row) as f32);
        assert!((r.mean() - 1.0).abs() < 1e-12);
        assert_eq!(r.min_max(), (0.0, 2.0));
    }

    #[test]
    fn pixel_conversions_saturate() {
        assert_eq!(u8::from_f64(300.0), 255);
        assert_eq!(u8::from_f64(-5.0), 0);
        assert_eq!(u16::from_f64(70000.0), u16::MAX);
        assert_eq!(f32::from_f64(1.5), 1.5f32);
    }

    #[test]
    fn iter_yields_all_pixels() {
        let r: Raster<u8> = Raster::from_fn(3, 2, gt(), |c, row| (row * 3 + c) as u8);
        let v: Vec<(usize, usize, u8)> = r.iter().collect();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0], (0, 0, 0));
        assert_eq!(v[5], (2, 1, 5));
    }

    #[test]
    #[should_panic(expected = "pixel size must be positive")]
    fn geotransform_rejects_bad_pixel_size() {
        GeoTransform::new(0.0, 0.0, 0.0);
    }
}
