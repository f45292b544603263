//! Product metadata and the synthetic metadata generator.

use ee_geo::{Envelope, Point, Polygon};
use ee_util::json::Json;
use ee_util::timeline::Date;
use ee_util::Rng;

/// A Copernicus-like product record.
#[derive(Debug, Clone, PartialEq)]
pub struct Product {
    /// Product identifier, e.g. `S2A_MSIL1C_2017182_T34SGH_0042`.
    pub id: String,
    /// Mission (`S1` / `S2` / `S3`).
    pub mission: String,
    /// Platform unit (`S2A`, `S2B`, ...).
    pub platform: String,
    /// Product type (`GRD`, `SLC`, `MSIL1C`, `MSIL2A`, `OLCI`).
    pub product_type: String,
    /// Sensing date.
    pub sensing_year: i32,
    /// Sensing day-of-year.
    pub sensing_doy: u16,
    /// Scene footprint corners (closed ring, lon/lat degrees).
    pub footprint: Vec<(f64, f64)>,
    /// Cloud cover percent (optical products; 0 for SAR).
    pub cloud_cover: f64,
    /// Payload size in bytes.
    pub size_bytes: u64,
}

impl Product {
    /// Sensing date as a [`Date`].
    pub fn sensing_date(&self) -> Date {
        Date::from_ordinal(self.sensing_year, self.sensing_doy).expect("valid at construction")
    }

    /// Footprint as a polygon.
    pub fn polygon(&self) -> Polygon {
        Polygon::from_exterior(
            self.footprint
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .expect("footprint validated at construction")
    }

    /// Footprint bounding box.
    pub fn envelope(&self) -> Envelope {
        self.polygon().envelope()
    }

    /// The synthesised "title + description" that the ranked (BM25)
    /// catalogue search indexes: the product id, mission/platform/type
    /// vocabulary, instrument and processing-level words, month and
    /// season, a cloud-cover bucket for optical products, and a coarse 1°
    /// grid cell from the footprint anchor. A pure function of the
    /// metadata, so index builds are reproducible and queries like
    /// "sentinel-2 surface reflectance july clear" have real signal.
    pub fn search_text(&self) -> String {
        const MONTHS: [&str; 12] = [
            "january", "february", "march", "april", "may", "june", "july", "august",
            "september", "october", "november", "december",
        ];
        let (month, _) = self.sensing_date().month_day();
        let season = match month {
            12 | 1 | 2 => "winter",
            3..=5 => "spring",
            6..=8 => "summer",
            _ => "autumn",
        };
        let (family, instrument) = match self.mission.as_str() {
            "S1" => ("sentinel-1", "radar sar c-band"),
            "S2" => ("sentinel-2", "optical multispectral msi"),
            _ => ("sentinel-3", "ocean colour olci"),
        };
        let level = match self.product_type.as_str() {
            "GRD" => "ground range detected",
            "SLC" => "single look complex",
            "MSIL1C" => "level-1c top-of-atmosphere",
            "MSIL2A" => "level-2a surface reflectance",
            _ => "full resolution",
        };
        let cloud = if self.mission == "S1" {
            "all-weather"
        } else if self.cloud_cover < 10.0 {
            "clear sky"
        } else if self.cloud_cover < 40.0 {
            "scattered clouds"
        } else if self.cloud_cover < 75.0 {
            "cloudy"
        } else {
            "overcast"
        };
        let (ax, ay) = self.footprint.first().copied().unwrap_or((0.0, 0.0));
        format!(
            "{} {family} {} {} {instrument} {level} {} {season} {cloud} cell e{} n{}",
            self.id,
            self.platform,
            self.product_type,
            MONTHS[(month as usize - 1).min(11)],
            ax.floor() as i64,
            ay.floor() as i64,
        )
    }

    /// Serialise to a JSON value ([`ee_util::json`]).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("mission", Json::Str(self.mission.clone())),
            ("platform", Json::Str(self.platform.clone())),
            ("product_type", Json::Str(self.product_type.clone())),
            ("sensing_year", Json::Num(self.sensing_year as f64)),
            ("sensing_doy", Json::Num(self.sensing_doy as f64)),
            (
                "footprint",
                Json::Arr(
                    self.footprint
                        .iter()
                        .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                        .collect(),
                ),
            ),
            ("cloud_cover", Json::Num(self.cloud_cover)),
            ("size_bytes", Json::Num(self.size_bytes as f64)),
        ])
    }

    /// Parse a product back from the JSON shape produced by [`Self::to_json`].
    #[cfg(test)]
    pub fn from_json(v: &Json) -> Result<Product, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field `{key}`"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
        };
        let footprint = v
            .get("footprint")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing or non-array field `footprint`".to_string())?
            .iter()
            .map(|pt| {
                let pair = pt.as_arr().filter(|p| p.len() == 2);
                match pair {
                    Some(p) => match (p[0].as_f64(), p[1].as_f64()) {
                        (Some(x), Some(y)) => Ok((x, y)),
                        _ => Err("non-numeric footprint coordinate".to_string()),
                    },
                    None => Err("footprint entry is not a [x, y] pair".to_string()),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Product {
            id: str_field("id")?,
            mission: str_field("mission")?,
            platform: str_field("platform")?,
            product_type: str_field("product_type")?,
            sensing_year: num_field("sensing_year")? as i32,
            sensing_doy: num_field("sensing_doy")? as u16,
            footprint,
            cloud_cover: num_field("cloud_cover")?,
            size_bytes: num_field("size_bytes")? as u64,
        })
    }
}

/// Deterministic synthetic product-stream generator: tiles along orbit
/// tracks over a configurable region, with realistic mission mix.
pub struct ProductGenerator {
    rng: Rng,
    region: Envelope,
    year: i32,
    counter: u64,
}

impl ProductGenerator {
    /// Products over `region` sensed during `year`.
    pub fn new(region: Envelope, year: i32, seed: u64) -> Self {
        Self {
            rng: Rng::seed_from(seed),
            region,
            year,
            counter: 0,
        }
    }

    /// Generate the next product record.
    pub fn next_product(&mut self) -> Product {
        let rng = &mut self.rng;
        self.counter += 1;
        let (mission, platform, product_type, size, cloud) = match rng.below(10) {
            0..=3 => (
                "S1",
                if rng.chance(0.5) { "S1A" } else { "S1B" },
                if rng.chance(0.7) { "GRD" } else { "SLC" },
                rng.range(800, 4200) as u64 * 1_000_000,
                0.0,
            ),
            4..=8 => (
                "S2",
                if rng.chance(0.5) { "S2A" } else { "S2B" },
                if rng.chance(0.6) { "MSIL1C" } else { "MSIL2A" },
                rng.range(500, 900) as u64 * 1_000_000,
                rng.range_f64(0.0, 100.0),
            ),
            _ => (
                "S3",
                "S3A",
                "OLCI",
                rng.range(300, 700) as u64 * 1_000_000,
                rng.range_f64(0.0, 100.0),
            ),
        };
        let doy = rng.range(1, 366) as u16;
        // A tile footprint ~1° on a side, jittered inside the region.
        let w = self.region.width().min(1.0);
        let h = self.region.height().min(1.0);
        let x0 = rng.range_f64(self.region.min_x, (self.region.max_x - w).max(self.region.min_x + 1e-9));
        let y0 = rng.range_f64(self.region.min_y, (self.region.max_y - h).max(self.region.min_y + 1e-9));
        // Slight parallelogram skew like real orbit tiles.
        let skew = rng.range_f64(-0.08, 0.08);
        let footprint = vec![
            (x0, y0),
            (x0 + w, y0 + skew),
            (x0 + w + skew, y0 + h + skew),
            (x0 + skew, y0 + h),
            (x0, y0),
        ];
        Product {
            id: format!(
                "{platform}_{product_type}_{}{doy:03}_{:06}",
                self.year, self.counter
            ),
            mission: mission.to_string(),
            platform: platform.to_string(),
            product_type: product_type.to_string(),
            sensing_year: self.year,
            sensing_doy: doy,
            footprint,
            cloud_cover: cloud,
            size_bytes: size,
        }
    }

    /// Generate `n` products.
    pub fn take(&mut self, n: usize) -> Vec<Product> {
        (0..n).map(|_| self.next_product()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> ProductGenerator {
        ProductGenerator::new(Envelope::new(20.0, 35.0, 30.0, 42.0), 2017, 7)
    }

    #[test]
    fn products_are_valid() {
        let mut g = generator();
        let batch = g.take(200);
        assert_eq!(batch.len(), 200);
        for p in &batch {
            assert!(p.sensing_date().year() == 2017);
            assert!(!p.polygon().exterior.points.is_empty());
            assert!(p.envelope().intersects(&Envelope::new(19.0, 34.0, 32.0, 44.0)));
            assert!((0.0..=100.0).contains(&p.cloud_cover));
            assert!(p.size_bytes > 0);
            if p.mission == "S1" {
                assert_eq!(p.cloud_cover, 0.0, "SAR has no cloud figure");
            }
        }
        // Unique ids.
        let ids: std::collections::HashSet<&String> = batch.iter().map(|p| &p.id).collect();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn mission_mix_is_realistic() {
        let mut g = generator();
        let batch = g.take(2000);
        let s1 = batch.iter().filter(|p| p.mission == "S1").count();
        let s2 = batch.iter().filter(|p| p.mission == "S2").count();
        let s3 = batch.iter().filter(|p| p.mission == "S3").count();
        assert!(s1 > 500 && s2 > 700 && s3 > 80, "mix {s1}/{s2}/{s3}");
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generator().take(50);
        let b = generator().take(50);
        assert_eq!(a, b);
    }

    #[test]
    fn json_roundtrip() {
        let p = generator().next_product();
        let text = p.to_json().emit();
        let back = Product::from_json(&ee_util::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn json_rejects_malformed_records() {
        assert!(Product::from_json(&ee_util::json::parse("{}").unwrap()).is_err());
        let mut v = generator().next_product().to_json();
        if let ee_util::json::Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "footprint");
        }
        assert!(Product::from_json(&v).is_err());
    }
}
