//! The SVG map renderer.
//!
//! A [`MapBuilder`] collects layers in world coordinates and renders one
//! SVG document: world y grows north/up, SVG y grows down, so the builder
//! owns the flip. Categorical raster rows are run-length merged so a
//! 128×128 class map emits a few hundred rects, not 16k.

use crate::palette::{fraction_ramp, Rgb};
use crate::RenderError;
use ee_geo::{Envelope, Geometry};
use ee_raster::Raster;
use std::fmt::Write as _;

/// Stroke/fill styling for vector layers.
#[derive(Debug, Clone)]
pub struct Style {
    /// Stroke colour.
    pub stroke: Rgb,
    /// Stroke width in world units.
    pub stroke_width: f64,
    /// Optional fill with opacity (colour, alpha 0..1).
    pub fill: Option<(Rgb, f64)>,
}

impl Default for Style {
    fn default() -> Self {
        Style {
            stroke: Rgb(0x20, 0x20, 0x20),
            stroke_width: 1.0,
            fill: None,
        }
    }
}

enum Layer {
    Categorical {
        name: String,
        raster: Raster<u8>,
        palette: Vec<Rgb>,
        labels: Vec<String>,
    },
    Continuous {
        name: String,
        raster: Raster<f32>,
    },
    Features {
        name: String,
        geometries: Vec<Geometry>,
        style: Style,
    },
}

/// Builds one map document.
pub struct MapBuilder {
    layers: Vec<Layer>,
    /// Output pixel width (height follows the extent's aspect ratio).
    pub width_px: u32,
}

impl Default for MapBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MapBuilder {
    /// Empty map, 640 px wide by default.
    pub fn new() -> Self {
        Self {
            layers: Vec::new(),
            width_px: 640,
        }
    }

    /// Add a categorical raster layer (class index → palette colour).
    /// `labels` feed the legend; missing labels render as `class N`.
    pub fn categorical(
        mut self,
        name: impl Into<String>,
        raster: Raster<u8>,
        palette: &[Rgb],
        labels: &[&str],
    ) -> Self {
        self.layers.push(Layer::Categorical {
            name: name.into(),
            raster,
            palette: palette.to_vec(),
            labels: labels.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Add a continuous 0..1 raster layer rendered with the blue ramp.
    pub fn continuous(mut self, name: impl Into<String>, raster: Raster<f32>) -> Self {
        self.layers.push(Layer::Continuous {
            name: name.into(),
            raster,
        });
        self
    }

    /// Add a vector layer.
    pub fn features(
        mut self,
        name: impl Into<String>,
        geometries: Vec<Geometry>,
        style: Style,
    ) -> Self {
        self.layers.push(Layer::Features {
            name: name.into(),
            geometries,
            style,
        });
        self
    }

    fn extent(&self) -> Envelope {
        let mut env = Envelope::empty();
        for layer in &self.layers {
            let e = match layer {
                Layer::Categorical { raster, .. } => raster.envelope(),
                Layer::Continuous { raster, .. } => raster.envelope(),
                Layer::Features { geometries, .. } => geometries
                    .iter()
                    .fold(Envelope::empty(), |a, g| a.union(&g.envelope())),
            };
            env = env.union(&e);
        }
        env
    }

    /// Render the SVG document.
    pub fn render(&self) -> Result<String, RenderError> {
        let env = self.extent();
        if self.layers.is_empty() || env.is_empty() {
            return Err(RenderError::EmptyMap);
        }
        let scale = self.width_px as f64 / env.width();
        let height_px = (env.height() * scale).ceil() as u32;
        // World→SVG: x' = (x - min_x) * scale; y' = (max_y - y) * scale.
        let tx = |x: f64| (x - env.min_x) * scale;
        let ty = |y: f64| (env.max_y - y) * scale;
        let legend_height = 20 * self.legend_entries().len() as u32 + 8;
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}">"#,
            self.width_px,
            height_px + legend_height,
            self.width_px,
            height_px + legend_height
        );
        for layer in &self.layers {
            match layer {
                Layer::Categorical {
                    name,
                    raster,
                    palette,
                    ..
                } => {
                    let _ = writeln!(out, r#"<g id="{}">"#, xml_escape(name));
                    let t = raster.transform();
                    let cell_w = t.pixel_size * scale;
                    for row in 0..raster.rows() {
                        // Run-length merge equal-class cells per row.
                        let mut col = 0;
                        while col < raster.cols() {
                            let v = raster.at(col, row);
                            let mut run = 1;
                            while col + run < raster.cols() && raster.at(col + run, row) == v {
                                run += 1;
                            }
                            let colour = palette
                                .get(v as usize)
                                .copied()
                                .unwrap_or(Rgb(0xff, 0x00, 0xff));
                            let x = tx(t.origin_x + col as f64 * t.pixel_size);
                            let y = ty(t.origin_y - row as f64 * t.pixel_size);
                            let _ = writeln!(
                                out,
                                r#"<rect x="{x:.2}" y="{y:.2}" width="{:.2}" height="{cell_w:.2}" fill="{}"/>"#,
                                cell_w * run as f64,
                                colour.hex()
                            );
                            col += run;
                        }
                    }
                    let _ = writeln!(out, "</g>");
                }
                Layer::Continuous { name, raster } => {
                    let _ = writeln!(out, r#"<g id="{}">"#, xml_escape(name));
                    let t = raster.transform();
                    let cell_w = t.pixel_size * scale;
                    for (col, row, v) in raster.iter() {
                        let colour = fraction_ramp(v);
                        let x = tx(t.origin_x + col as f64 * t.pixel_size);
                        let y = ty(t.origin_y - row as f64 * t.pixel_size);
                        let _ = writeln!(
                            out,
                            r#"<rect x="{x:.2}" y="{y:.2}" width="{cell_w:.2}" height="{cell_w:.2}" fill="{}"/>"#,
                            colour.hex()
                        );
                    }
                    let _ = writeln!(out, "</g>");
                }
                Layer::Features {
                    name,
                    geometries,
                    style,
                } => {
                    let _ = writeln!(out, r#"<g id="{}">"#, xml_escape(name));
                    let fill = match &style.fill {
                        Some((c, a)) => format!(r#"fill="{}" fill-opacity="{a}""#, c.hex()),
                        None => r#"fill="none""#.to_string(),
                    };
                    for g in geometries {
                        match g {
                            Geometry::Point(p) => {
                                let _ = writeln!(
                                    out,
                                    r#"<circle cx="{:.2}" cy="{:.2}" r="{:.2}" fill="{}"/>"#,
                                    tx(p.x),
                                    ty(p.y),
                                    (style.stroke_width * scale).max(2.0),
                                    style.stroke.hex()
                                );
                            }
                            Geometry::LineString(l) => {
                                let pts: Vec<String> = l
                                    .points
                                    .iter()
                                    .map(|p| format!("{:.2},{:.2}", tx(p.x), ty(p.y)))
                                    .collect();
                                let _ = writeln!(
                                    out,
                                    r#"<polyline points="{}" fill="none" stroke="{}" stroke-width="{:.2}"/>"#,
                                    pts.join(" "),
                                    style.stroke.hex(),
                                    style.stroke_width * scale
                                );
                            }
                            Geometry::Polygon(poly) => {
                                let pts: Vec<String> = poly
                                    .exterior
                                    .points
                                    .iter()
                                    .map(|p| format!("{:.2},{:.2}", tx(p.x), ty(p.y)))
                                    .collect();
                                let _ = writeln!(
                                    out,
                                    r#"<polygon points="{}" {} stroke="{}" stroke-width="{:.2}"/>"#,
                                    pts.join(" "),
                                    fill,
                                    style.stroke.hex(),
                                    style.stroke_width * scale
                                );
                            }
                            Geometry::MultiPolygon(m) => {
                                for poly in &m.polygons {
                                    let pts: Vec<String> = poly
                                        .exterior
                                        .points
                                        .iter()
                                        .map(|p| format!("{:.2},{:.2}", tx(p.x), ty(p.y)))
                                        .collect();
                                    let _ = writeln!(
                                        out,
                                        r#"<polygon points="{}" {} stroke="{}" stroke-width="{:.2}"/>"#,
                                        pts.join(" "),
                                        fill,
                                        style.stroke.hex(),
                                        style.stroke_width * scale
                                    );
                                }
                            }
                        }
                    }
                    let _ = writeln!(out, "</g>");
                }
            }
        }
        // Legend below the map.
        let mut ly = height_px + 14;
        for (colour, label) in self.legend_entries() {
            let _ = writeln!(
                out,
                r#"<rect x="6" y="{}" width="12" height="12" fill="{}"/><text x="24" y="{}" font-size="12" font-family="sans-serif">{}</text>"#,
                ly - 10,
                colour.hex(),
                ly,
                xml_escape(&label)
            );
            ly += 20;
        }
        out.push_str("</svg>\n");
        Ok(out)
    }

    fn legend_entries(&self) -> Vec<(Rgb, String)> {
        let mut entries = Vec::new();
        for layer in &self.layers {
            if let Layer::Categorical {
                raster,
                palette,
                labels,
                ..
            } = layer
            {
                // Only legend classes that actually appear.
                let mut present = [false; 256];
                for v in raster.data() {
                    present[*v as usize] = true;
                }
                for (i, &p) in palette.iter().enumerate() {
                    if present[i] {
                        let label = labels
                            .get(i)
                            .cloned()
                            .unwrap_or_else(|| format!("class {i}"));
                        entries.push((p, label));
                    }
                }
            }
        }
        entries
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::LAND_COVER;
    use ee_geo::{Point, Polygon};
    use ee_raster::raster::GeoTransform;

    fn class_raster() -> Raster<u8> {
        Raster::from_fn(8, 8, GeoTransform::new(0.0, 80.0, 10.0), |c, _| {
            if c < 4 {
                0
            } else {
                6
            }
        })
    }

    #[test]
    fn categorical_map_renders_with_legend() {
        let svg = MapBuilder::new()
            .categorical("cover", class_raster(), &LAND_COVER, &["Wheat", "", "", "", "", "", "Water"])
            .render()
            .unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("#e6c84b"), "wheat colour present");
        assert!(svg.contains("#2d6dc9"), "water colour present");
        assert!(svg.contains(">Wheat</text>"), "legend labels rendered");
        assert!(svg.contains(">Water</text>"));
        // Run-length merging: 8 rows x 2 runs = 16 rects + 2 legend rects.
        assert_eq!(svg.matches("<rect").count(), 18);
    }

    #[test]
    fn continuous_map_uses_ramp() {
        let r: Raster<f32> =
            Raster::from_fn(4, 4, GeoTransform::new(0.0, 40.0, 10.0), |c, _| c as f32 / 3.0);
        let svg = MapBuilder::new().continuous("water", r).render().unwrap();
        assert!(svg.contains("#d9c28a"), "dry endpoint");
        assert!(svg.contains("#0d4a8f"), "wet endpoint");
    }

    #[test]
    fn vector_layer_and_flip() {
        // A point at the extent's top (max y) must land at SVG y ≈ 0.
        let geoms: Vec<Geometry> = vec![
            Point::new(0.0, 100.0).into(),
            Polygon::rectangle(10.0, 10.0, 40.0, 40.0).into(),
        ];
        let svg = MapBuilder::new()
            .features(
                "overlay",
                geoms,
                Style {
                    fill: Some((Rgb(0xff, 0, 0), 0.4)),
                    ..Style::default()
                },
            )
            .render()
            .unwrap();
        assert!(svg.contains(r#"cy="0.00""#), "north-up flip: {svg}");
        assert!(svg.contains("<polygon"));
        assert!(svg.contains(r#"fill-opacity="0.4""#));
    }

    #[test]
    fn empty_map_is_an_error() {
        assert_eq!(MapBuilder::new().render(), Err(RenderError::EmptyMap));
    }

    #[test]
    fn layers_compose() {
        let svg = MapBuilder::new()
            .categorical("cover", class_raster(), &LAND_COVER, &[])
            .features(
                "parcels",
                vec![Polygon::rectangle(0.0, 0.0, 40.0, 40.0).into()],
                Style::default(),
            )
            .render()
            .unwrap();
        assert!(svg.contains(r#"<g id="cover">"#));
        assert!(svg.contains(r#"<g id="parcels">"#));
    }
}
