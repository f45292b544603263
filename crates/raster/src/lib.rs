#![warn(missing_docs)]
//! Raster substrate: multi-band Sentinel-like scenes, tiling, resampling
//! and time series.
//!
//! The paper's analytics (Challenge C1) operate on "long time series of
//! multispectral and SAR images". This crate supplies the raster layer those
//! pipelines run on:
//!
//! * [`raster`] — a typed 2-D grid with a geotransform mapping pixels to
//!   world coordinates;
//! * [`scene`] — a multi-band acquisition (Sentinel-2-like optical with the
//!   13 MSI bands, Sentinel-1-like SAR with VV/VH), with sensing date and
//!   footprint;
//! * [`indices`] — band arithmetic (NDVI);
//! * [`tile`] — fixed-size tiling and overview pyramids, the storage layout
//!   of the Copernicus archive analogue;
//! * [`resample`] — nearest / bilinear resampling between resolutions;
//! * [`stack`] — per-pixel time series over a sequence of scenes;
//! * [`codec`] — a compact binary encoding used by `ee-hopsfs` file
//!   payloads and the PCDSS product encoder.

pub mod codec;
pub mod indices;
pub mod raster;
pub mod resample;
pub mod scene;
pub mod stack;
pub mod tile;

pub use raster::{GeoTransform, Raster};
pub use scene::{Band, Mission, Scene};

/// Errors produced by the raster layer.
#[derive(Debug, Clone, PartialEq)]
pub enum RasterError {
    /// Two rasters that must share a shape do not.
    ShapeMismatch {
        /// Shape of the first operand.
        expected: (usize, usize),
        /// Shape of the offending operand.
        actual: (usize, usize),
    },
    /// Pixel access outside the raster.
    OutOfBounds {
        /// Requested column.
        col: usize,
        /// Requested row.
        row: usize,
        /// Raster dimensions.
        shape: (usize, usize),
    },
    /// A scene does not carry the requested band.
    MissingBand(String),
    /// Binary decode failure.
    Codec(String),
}

impl std::fmt::Display for RasterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RasterError::ShapeMismatch { expected, actual } => {
                write!(f, "raster shape mismatch: expected {expected:?}, got {actual:?}")
            }
            RasterError::OutOfBounds { col, row, shape } => {
                write!(f, "pixel ({col}, {row}) outside raster of shape {shape:?}")
            }
            RasterError::MissingBand(b) => write!(f, "scene has no band {b}"),
            RasterError::Codec(msg) => write!(f, "codec error: {msg}"),
        }
    }
}

impl std::error::Error for RasterError {}
