#![warn(missing_docs)]
//! Geometry substrate for ExtremeEarth-rs.
//!
//! Implements the vector-geometry layer that the Strabon-like RDF store
//! (`ee-rdf`), the semantic catalogue (`ee-catalogue`), the interlinker
//! (`ee-interlink`) and the application pipelines share:
//!
//! * [`geometry`] — points, envelopes, linestrings, polygons (with holes)
//!   and multipolygons, in planar coordinates (we treat WGS84 lon/lat as
//!   planar, which is what Strabon-style stores do for index filtering);
//! * [`wkt`] — OGC Well-Known-Text parsing and serialisation, the geometry
//!   literal format of GeoSPARQL;
//! * [`algorithms`] — area, centroid, point-in-polygon, segment
//!   intersection and distance;
//! * [`rtree`] — an R-tree (STR bulk load + quadratic-split inserts) used
//!   for spatial-selection pushdown;
//! * [`grid`] — regular lon/lat grids used for rasterisation and blocking;
//! * [`curve`] — the Hilbert curve, which orders records so that ones
//!   near each other in space sit near each other in memory.

pub mod algorithms;
pub mod curve;
pub mod geometry;
pub mod grid;
pub mod rtree;
pub mod wkt;

pub use geometry::{Envelope, Geometry, LineString, MultiPolygon, Point, Polygon};
pub use rtree::RTree;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// WKT text could not be parsed; the message pinpoints the issue.
    WktParse(String),
    /// A geometry failed a structural invariant (e.g. unclosed ring).
    InvalidGeometry(String),
}

impl std::fmt::Display for GeoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoError::WktParse(msg) => write!(f, "WKT parse error: {msg}"),
            GeoError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl std::error::Error for GeoError {}
