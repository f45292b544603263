//! E9 — catalogue scaling and the semantic iceberg query.
//!
//! Paper (C4): semantic catalogues "scaling to trillions of metadata
//! records" that answer questions like the Norske Øer iceberg count —
//! which "currently cannot be answered" by classic catalogues. We scale
//! the product count (laptop-scaled stand-in for "trillions"), measure
//! classic AOI search and semantic GeoSPARQL search, and time the
//! two-step iceberg question itself.

use crate::table::{fmt_secs, Table};
use crate::Scale;
use ee_catalogue::classic::Search;
use ee_catalogue::{ClassicCatalogue, ProductGenerator, SemanticCatalogue};
use ee_geo::{Envelope, Point, Polygon};
use ee_util::timeline::Date;
use ee_util::Rng;
use std::time::Instant;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Run E9.
pub fn run(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![2_000, 10_000],
        Scale::Full => vec![10_000, 50_000, 200_000],
    };
    let region = Envelope::new(0.0, 0.0, 40.0, 40.0);
    let mut t1 = Table::new(
        "E9a — catalogue search latency vs archive size",
        "Classic = AOI + attribute search on the R-tree index. Semantic = the same \
         selection as GeoSPARQL over the RDF store (plus everything else it can do).",
        &[
            "products",
            "classic AOI search",
            "semantic GeoSPARQL search",
            "triples held",
        ],
    );
    for &n in &sizes {
        let products = ProductGenerator::new(region, 2017, 5).take(n);
        let classic = ClassicCatalogue::build(products.clone());
        let semantic = SemanticCatalogue::from_products(&products);
        let mut rng = Rng::seed_from(17);
        let mut classic_times = Vec::new();
        let mut semantic_times = Vec::new();
        for _ in 0..7 {
            let x = rng.range_f64(0.0, 38.0);
            let y = rng.range_f64(0.0, 38.0);
            let aoi = Envelope::new(x, y, x + 2.0, y + 2.0);
            let t0 = Instant::now();
            let hits = classic.search(&Search::aoi(aoi)).expect("classic search");
            classic_times.push(t0.elapsed().as_secs_f64());
            let wkt = format!(
                "POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}))",
                x1 = x + 2.0,
                y1 = y + 2.0
            );
            let q = format!(
                "PREFIX eo: <http://extremeearth.eu/ont/eo#> \
                 SELECT (COUNT(?p) AS ?n) WHERE {{ ?p eo:footprint ?f . \
                 FILTER(geof:sfIntersects(?f, \"{wkt}\"^^geo:wktLiteral)) }}"
            );
            let t0 = Instant::now();
            let sol = semantic.query(&q).expect("semantic search");
            semantic_times.push(t0.elapsed().as_secs_f64());
            let semantic_count: usize = match sol.scalar() {
                Some(ee_rdf::term::Term::Literal { lexical, .. }) => {
                    lexical.parse().unwrap_or(0)
                }
                _ => 0,
            };
            assert_eq!(hits.len(), semantic_count, "catalogues agree");
        }
        t1.row(vec![
            n.to_string(),
            fmt_secs(median(classic_times)),
            fmt_secs(median(semantic_times)),
            semantic.len().to_string(),
        ]);
    }

    // The iceberg question at fixed knowledge size.
    let mut t2 = Table::new(
        "E9b — the Norske Øer iceberg question",
        "Two SPARQL steps over extracted knowledge: max-extent observation of the year, \
         then a spatial count of the icebergs embedded in it. The classic catalogue has \
         no API for this question at all.",
        &["knowledge records", "answer (icebergs)", "latency"],
    );
    let mut rng = Rng::seed_from(23);
    for &bergs in match scale {
        Scale::Quick => &[200usize, 1000][..],
        Scale::Full => &[1000, 5000, 20000][..],
    } {
        let mut cat = SemanticCatalogue::new();
        // Twelve monthly extents, max in July.
        for m in 1..=12u32 {
            let s = if m == 7 { 30.0 } else { 10.0 + m as f64 };
            cat.add_feature_extent(
                "NorskeOerIceBarrier",
                Date::new(2017, m, 15).expect("valid"),
                &Polygon::rectangle(0.0, 0.0, s, s),
            );
        }
        for b in 0..bergs {
            let m = rng.range(1, 13) as u32;
            let p = Point::new(rng.range_f64(0.0, 40.0), rng.range_f64(0.0, 40.0));
            cat.add_iceberg_observation(b as u32, Date::new(2017, m, 15).expect("valid"), p);
        }
        cat.finish_ingest();
        let t0 = Instant::now();
        let (count, _) = cat
            .iceberg_question("NorskeOerIceBarrier", 2017)
            .expect("question");
        let secs = t0.elapsed().as_secs_f64();
        t2.row(vec![cat.len().to_string(), count.to_string(), fmt_secs(secs)]);
    }
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogues_agree_and_question_answers() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        // The iceberg answers are positive.
        for row in &tables[1].rows {
            let n: usize = row[1].parse().unwrap();
            assert!(n > 0, "some icebergs in the July maximum: {row:?}");
        }
    }
}
