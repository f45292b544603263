//! OGC Well-Known Text parsing and serialisation.
//!
//! This is the geometry-literal syntax used by GeoSPARQL (`geo:wktLiteral`)
//! and therefore the wire format between `ee-geotriples`, `ee-rdf` and the
//! catalogue. Supported types: `POINT`, `LINESTRING`, `POLYGON`,
//! `MULTIPOLYGON` and `EMPTY` variants thereof. An optional leading CRS
//! IRI in angle brackets (as GeoSPARQL literals carry) is accepted and
//! ignored — the workspace is single-CRS.

use crate::geometry::{Geometry, LineString, MultiPolygon, Point, Polygon};
use crate::GeoError;

/// Serialise a geometry to WKT.
pub fn to_wkt(geom: &Geometry) -> String {
    let mut out = String::with_capacity(geom.num_vertices() * 16 + 16);
    write_geometry(geom, &mut out);
    out
}

/// Whether [`parse_wkt`] of [`to_wkt`] gives `geom` back exactly: every
/// coordinate is finite — the writer's shortest round-trip float
/// formatting then parses back to the same bits — and every part has the
/// shape the parser builds: a line of at least two points, rings closed
/// with at least four. A geometry built in memory can break either
/// (`NaN` writes as text no parser reads; the fields are public).
pub fn round_trips(geom: &Geometry) -> bool {
    let finite = |points: &[Point]| points.iter().all(|p| p.x.is_finite() && p.y.is_finite());
    let ring = |r: &LineString| r.is_ring() && finite(&r.points);
    let polygon = |p: &Polygon| ring(&p.exterior) && p.interiors.iter().all(ring);
    match geom {
        Geometry::Point(p) => finite(std::slice::from_ref(p)),
        Geometry::LineString(l) => l.points.len() >= 2 && finite(&l.points),
        Geometry::Polygon(p) => polygon(p),
        Geometry::MultiPolygon(m) => m.polygons.iter().all(polygon),
    }
}

fn write_coord(p: &Point, out: &mut String) {
    // Shortest round-trip float formatting keeps literals compact.
    use std::fmt::Write;
    let _ = write!(out, "{} {}", p.x, p.y);
}

fn write_ring(ring: &LineString, out: &mut String) {
    out.push('(');
    for (i, p) in ring.points.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_coord(p, out);
    }
    out.push(')');
}

fn write_polygon_body(poly: &Polygon, out: &mut String) {
    out.push('(');
    write_ring(&poly.exterior, out);
    for hole in &poly.interiors {
        out.push_str(", ");
        write_ring(hole, out);
    }
    out.push(')');
}

fn write_geometry(geom: &Geometry, out: &mut String) {
    match geom {
        Geometry::Point(p) => {
            out.push_str("POINT (");
            write_coord(p, out);
            out.push(')');
        }
        Geometry::LineString(l) => {
            out.push_str("LINESTRING ");
            write_ring(l, out);
        }
        Geometry::Polygon(p) => {
            out.push_str("POLYGON ");
            write_polygon_body(p, out);
        }
        Geometry::MultiPolygon(m) => {
            if m.polygons.is_empty() {
                out.push_str("MULTIPOLYGON EMPTY");
                return;
            }
            out.push_str("MULTIPOLYGON (");
            for (i, p) in m.polygons.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_polygon_body(p, out);
            }
            out.push(')');
        }
    }
}

/// Parse a WKT string (optionally prefixed by a `<crs-iri>`), e.g.
/// `"<http://www.opengis.net/def/crs/EPSG/0/4326> POINT (23.7 37.9)"`.
pub fn parse_wkt(input: &str) -> Result<Geometry, GeoError> {
    let mut p = Parser::new(input);
    p.skip_crs()?;
    let geom = p.parse_geometry()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after geometry"));
    }
    Ok(geom)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> GeoError {
        GeoError::WktParse(format!("{msg} at byte {} in {:?}", self.pos, truncate(self.input)))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn skip_crs(&mut self) -> Result<(), GeoError> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b'<' {
            match self.input[self.pos..].find('>') {
                Some(rel) => {
                    self.pos += rel + 1;
                    Ok(())
                }
                None => Err(self.error("unterminated CRS IRI")),
            }
        } else {
            Ok(())
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, ch: u8) -> Result<(), GeoError> {
        self.skip_ws();
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", ch as char)))
        }
    }

    fn keyword(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        self.input[start..self.pos].to_ascii_uppercase()
    }

    fn try_empty(&mut self) -> bool {
        let save = self.pos;
        if self.keyword() == "EMPTY" {
            true
        } else {
            self.pos = save;
            false
        }
    }

    fn number(&mut self) -> Result<f64, GeoError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|e| self.error(&format!("bad number: {e}")))
    }

    fn coord(&mut self) -> Result<Point, GeoError> {
        let x = self.number()?;
        let y = self.number()?;
        Ok(Point::new(x, y))
    }

    fn coord_list(&mut self) -> Result<Vec<Point>, GeoError> {
        self.expect(b'(')?;
        let mut pts = vec![self.coord()?];
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    pts.push(self.coord()?);
                }
                Some(b')') => {
                    self.pos += 1;
                    return Ok(pts);
                }
                _ => return Err(self.error("expected ',' or ')' in coordinate list")),
            }
        }
    }

    fn ring(&mut self) -> Result<LineString, GeoError> {
        let pts = self.coord_list()?;
        let ls = LineString::new(pts)?;
        if !ls.is_ring() {
            return Err(GeoError::WktParse(
                "polygon ring is not closed or has < 4 points".into(),
            ));
        }
        Ok(ls)
    }

    fn polygon_body(&mut self) -> Result<Polygon, GeoError> {
        self.expect(b'(')?;
        let exterior = self.ring()?;
        let mut interiors = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    interiors.push(self.ring()?);
                }
                Some(b')') => {
                    self.pos += 1;
                    return Polygon::new(exterior, interiors);
                }
                _ => return Err(self.error("expected ',' or ')' in polygon body")),
            }
        }
    }

    fn parse_geometry(&mut self) -> Result<Geometry, GeoError> {
        match self.keyword().as_str() {
            "POINT" => {
                if self.try_empty() {
                    return Err(self.error("POINT EMPTY is not representable"));
                }
                self.expect(b'(')?;
                let p = self.coord()?;
                self.expect(b')')?;
                Ok(Geometry::Point(p))
            }
            "LINESTRING" => {
                let pts = self.coord_list()?;
                Ok(Geometry::LineString(LineString::new(pts)?))
            }
            "POLYGON" => Ok(Geometry::Polygon(self.polygon_body()?)),
            "MULTIPOLYGON" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPolygon(MultiPolygon::new(vec![])));
                }
                self.expect(b'(')?;
                let mut polys = vec![self.polygon_body()?];
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            polys.push(self.polygon_body()?);
                        }
                        Some(b')') => {
                            self.pos += 1;
                            return Ok(Geometry::MultiPolygon(MultiPolygon::new(polys)));
                        }
                        _ => return Err(self.error("expected ',' or ')' in multipolygon")),
                    }
                }
            }
            "" => Err(self.error("expected a geometry keyword")),
            other => Err(GeoError::WktParse(format!(
                "unsupported geometry type {other:?}"
            ))),
        }
    }
}

fn truncate(s: &str) -> &str {
    if s.len() > 80 {
        &s[..80]
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_roundtrip() {
        let g = parse_wkt("POINT (23.7275 37.9838)").unwrap();
        match &g {
            Geometry::Point(p) => {
                assert_eq!(p.x, 23.7275);
                assert_eq!(p.y, 37.9838);
            }
            _ => panic!("not a point"),
        }
        let wkt = to_wkt(&g);
        assert_eq!(parse_wkt(&wkt).unwrap(), g);
    }

    #[test]
    fn crs_prefix_accepted() {
        let g = parse_wkt("<http://www.opengis.net/def/crs/EPSG/0/4326> POINT (1 2)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(1.0, 2.0)));
    }

    #[test]
    fn linestring_roundtrip() {
        let g = parse_wkt("LINESTRING (0 0, 1 1, 2 0.5)").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(parse_wkt(&to_wkt(&g)).unwrap(), g);
    }

    #[test]
    fn polygon_with_hole_roundtrip() {
        let wkt = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))";
        let g = parse_wkt(wkt).unwrap();
        match &g {
            Geometry::Polygon(p) => {
                assert_eq!(p.interiors.len(), 1);
                assert_eq!(p.exterior.points.len(), 5);
            }
            _ => panic!("not a polygon"),
        }
        assert_eq!(parse_wkt(&to_wkt(&g)).unwrap(), g);
    }

    #[test]
    fn multipolygon_roundtrip() {
        let wkt = "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))";
        let g = parse_wkt(wkt).unwrap();
        match &g {
            Geometry::MultiPolygon(m) => assert_eq!(m.polygons.len(), 2),
            _ => panic!("not a multipolygon"),
        }
        assert_eq!(parse_wkt(&to_wkt(&g)).unwrap(), g);
    }

    /// A random finite coordinate: mostly ordinary, sometimes an edge
    /// value (signed zero, extreme and subnormal magnitudes) or any
    /// finite bit pattern.
    fn random_coord(rng: &mut ee_util::Rng) -> f64 {
        const EDGES: [f64; 8] = [0.0, -0.0, 1e-300, -1e300, 1e300, 5e-324, f64::MAX, 0.1];
        match rng.below(4) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            1 => loop {
                let x = f64::from_bits(rng.next_u64());
                if x.is_finite() {
                    break x;
                }
            },
            _ => rng.range_f64(-180.0, 180.0),
        }
    }

    /// A closed ring of 4..8 points.
    fn random_ring(rng: &mut ee_util::Rng) -> LineString {
        let n = rng.range(3, 7);
        let points = (0..n)
            .map(|_| Point::new(random_coord(rng), random_coord(rng)))
            .collect();
        LineString::closed(points)
    }

    fn random_polygon(rng: &mut ee_util::Rng) -> Polygon {
        let holes = (0..rng.below(3)).map(|_| random_ring(rng)).collect();
        Polygon::new(random_ring(rng), holes).unwrap()
    }

    #[test]
    fn random_geometries_round_trip_bit_for_bit() {
        let mut rng = ee_util::Rng::seed_from(0x3c7);
        for _ in 0..2_000 {
            let g = match rng.below(4) {
                0 => Geometry::Point(Point::new(random_coord(&mut rng), random_coord(&mut rng))),
                1 => {
                    let n = rng.range(2, 6);
                    let points = (0..n)
                        .map(|_| Point::new(random_coord(&mut rng), random_coord(&mut rng)))
                        .collect();
                    Geometry::LineString(LineString::new(points).unwrap())
                }
                2 => Geometry::Polygon(random_polygon(&mut rng)),
                _ => {
                    let n = rng.below(3) as usize;
                    Geometry::MultiPolygon(MultiPolygon::new(
                        (0..n).map(|_| random_polygon(&mut rng)).collect(),
                    ))
                }
            };
            assert!(round_trips(&g), "{g:?}");
            let text = to_wkt(&g);
            let back = parse_wkt(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            // `Debug` of an f64 round-trips, so this compares bits
            // (`==` would equate 0 and -0).
            assert_eq!(format!("{back:?}"), format!("{g:?}"), "{text}");
        }
    }

    #[test]
    fn round_trips_rejects_what_the_parser_would() {
        let unit = Polygon::rectangle(0.0, 0.0, 1.0, 1.0);
        assert!(round_trips(&Geometry::Polygon(unit.clone())));
        assert!(round_trips(&Geometry::MultiPolygon(MultiPolygon::new(vec![]))));
        let open_ring = LineString {
            points: vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(1.0, 1.0)],
        };
        let unparseable = [
            Geometry::Point(Point::new(f64::NAN, 0.0)),
            Geometry::Point(Point::new(0.0, f64::NEG_INFINITY)),
            Geometry::LineString(LineString {
                points: vec![Point::new(0.0, 0.0)],
            }),
            Geometry::Polygon(Polygon {
                exterior: open_ring.clone(),
                interiors: vec![],
            }),
            Geometry::MultiPolygon(MultiPolygon::new(vec![
                unit.clone(),
                Polygon {
                    exterior: unit.exterior.clone(),
                    interiors: vec![open_ring],
                },
            ])),
        ];
        for g in unparseable {
            assert!(!round_trips(&g), "{g:?}");
            assert!(parse_wkt(&to_wkt(&g)).is_err(), "{g:?}");
        }
    }

    #[test]
    fn empty_multipolygon() {
        let g = parse_wkt("MULTIPOLYGON EMPTY").unwrap();
        assert_eq!(g, Geometry::MultiPolygon(MultiPolygon::new(vec![])));
        assert_eq!(to_wkt(&g), "MULTIPOLYGON EMPTY");
    }

    #[test]
    fn scientific_and_negative_numbers() {
        let g = parse_wkt("POINT (-1.5e2 +3.25)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(-150.0, 3.25)));
    }

    #[test]
    fn case_insensitive_keywords() {
        assert!(parse_wkt("point (1 2)").is_ok());
        assert!(parse_wkt("Polygon ((0 0, 1 0, 1 1, 0 0))").is_ok());
    }

    #[test]
    fn parse_errors_are_informative() {
        for bad in [
            "",
            "CIRCLE (1 2)",
            "POINT (1)",
            "POINT (1 2",
            "POLYGON ((0 0, 1 0, 1 1))",     // unclosed ring
            "POINT (1 2) garbage",           // trailing
            "<http://unterminated POINT (1 2)",
            "LINESTRING (0 0)",              // too few points
            "POINT (a b)",
        ] {
            let err = parse_wkt(bad).unwrap_err();
            assert!(
                matches!(err, GeoError::WktParse(_) | GeoError::InvalidGeometry(_)),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn whitespace_tolerant() {
        let g = parse_wkt("  POLYGON  ( ( 0 0 ,10 0, 10 10 ,0 10, 0 0 ) ) ").unwrap();
        assert_eq!(g.num_vertices(), 5);
    }
}
