//! The classic catalogue: AOI + parameter search over product metadata.
//!
//! This is what the Copernicus Open Access Hub offers today. It is fast —
//! R-tree over footprints plus attribute filters — but it knows nothing
//! about the *content* of the products; the semantic questions of C4 are
//! out of its reach by construction (its API has no notion of detected
//! objects).

use crate::product::Product;
use crate::CatalogueError;
use ee_geo::{Envelope, RTree};
use ee_util::timeline::Date;

/// Search parameters (all optional except the AOI).
#[derive(Debug, Clone)]
pub struct Search {
    /// Area of interest.
    pub aoi: Envelope,
    /// Earliest sensing date (inclusive).
    pub from: Option<Date>,
    /// Latest sensing date (inclusive).
    pub to: Option<Date>,
    /// Mission filter (`S1` / `S2` / `S3`).
    pub mission: Option<String>,
    /// Product-type filter.
    pub product_type: Option<String>,
    /// Maximum cloud cover percent.
    pub max_cloud: Option<f64>,
}

impl Search {
    /// A pure AOI search.
    pub fn aoi(aoi: Envelope) -> Self {
        Self {
            aoi,
            from: None,
            to: None,
            mission: None,
            product_type: None,
            max_cloud: None,
        }
    }
}

/// The classic catalogue index.
pub struct ClassicCatalogue {
    products: Vec<Product>,
    rtree: RTree<usize>,
}

impl ClassicCatalogue {
    /// Build from a product list (bulk load).
    pub fn build(products: Vec<Product>) -> Self {
        let items: Vec<(Envelope, usize)> = products
            .iter()
            .enumerate()
            .map(|(i, p)| (p.envelope(), i))
            .collect();
        Self {
            products,
            rtree: RTree::bulk_load(items),
        }
    }

    /// Incremental ingest.
    pub fn insert(&mut self, product: Product) {
        let i = self.products.len();
        self.rtree.insert(product.envelope(), i);
        self.products.push(product);
    }

    /// Number of products.
    pub fn len(&self) -> usize {
        self.products.len()
    }

    /// All indexed products, in ingest order. Document id `i` in a
    /// [`crate::Bm25Index`] built over this slice refers to
    /// `products()[i]`, which is how the serving tier maps ranked hits
    /// back to product records.
    pub fn products(&self) -> &[Product] {
        &self.products
    }

    /// True if no products are indexed.
    pub fn is_empty(&self) -> bool {
        self.products.is_empty()
    }

    /// Run a search; returns matching products sorted by sensing date.
    pub fn search(&self, search: &Search) -> Result<Vec<&Product>, CatalogueError> {
        if search.aoi.is_empty() {
            return Err(CatalogueError::BadSearch("empty AOI".into()));
        }
        if let (Some(f), Some(t)) = (search.from, search.to) {
            if f > t {
                return Err(CatalogueError::BadSearch("from after to".into()));
            }
        }
        let aoi_geom: ee_geo::Geometry = search.aoi.to_polygon().into();
        let mut hits: Vec<&Product> = self
            .rtree
            .search(&search.aoi)
            .into_iter()
            .map(|&i| &self.products[i])
            .filter(|p| {
                // Refine the bbox hit with the exact footprint polygon.
                let footprint: ee_geo::Geometry = p.polygon().into();
                if !ee_geo::algorithms::intersects(&footprint, &aoi_geom) {
                    return false;
                }
                let d = p.sensing_date();
                search.from.map(|f| d >= f).unwrap_or(true)
                    && search.to.map(|t| d <= t).unwrap_or(true)
                    && search
                        .mission
                        .as_ref()
                        .map(|m| &p.mission == m)
                        .unwrap_or(true)
                    && search
                        .product_type
                        .as_ref()
                        .map(|t| &p.product_type == t)
                        .unwrap_or(true)
                    && search
                        .max_cloud
                        .map(|c| p.cloud_cover <= c)
                        .unwrap_or(true)
            })
            .collect();
        hits.sort_by_key(|p| (p.sensing_year, p.sensing_doy, p.id.clone()));
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::ProductGenerator;

    fn catalogue(n: usize) -> ClassicCatalogue {
        let mut g = ProductGenerator::new(Envelope::new(0.0, 0.0, 10.0, 10.0), 2017, 3);
        ClassicCatalogue::build(g.take(n))
    }

    #[test]
    fn aoi_search_prunes() {
        let cat = catalogue(500);
        let small = cat
            .search(&Search::aoi(Envelope::new(2.0, 2.0, 2.5, 2.5)))
            .unwrap();
        let all = cat
            .search(&Search::aoi(Envelope::new(-1.0, -1.0, 12.0, 12.0)))
            .unwrap();
        assert_eq!(all.len(), 500);
        assert!(small.len() < all.len());
        assert!(!small.is_empty(), "1-degree tiles over a 10-degree region");
        for p in &small {
            assert!(p.envelope().intersects(&Envelope::new(2.0, 2.0, 2.5, 2.5)));
        }
    }

    #[test]
    fn attribute_filters() {
        let cat = catalogue(500);
        let mut s = Search::aoi(Envelope::new(0.0, 0.0, 10.0, 10.0));
        s.mission = Some("S2".into());
        s.max_cloud = Some(20.0);
        let hits = cat.search(&s).unwrap();
        assert!(!hits.is_empty());
        for p in &hits {
            assert_eq!(p.mission, "S2");
            assert!(p.cloud_cover <= 20.0);
        }
        s.product_type = Some("MSIL2A".into());
        for p in cat.search(&s).unwrap() {
            assert_eq!(p.product_type, "MSIL2A");
        }
    }

    #[test]
    fn date_range_filter_and_order() {
        let cat = catalogue(500);
        let mut s = Search::aoi(Envelope::new(0.0, 0.0, 10.0, 10.0));
        s.from = Some(Date::new(2017, 6, 1).unwrap());
        s.to = Some(Date::new(2017, 6, 30).unwrap());
        let hits = cat.search(&s).unwrap();
        assert!(!hits.is_empty());
        for p in &hits {
            let (m, _) = p.sensing_date().month_day();
            assert_eq!(m, 6);
        }
        // Sorted by date.
        for w in hits.windows(2) {
            assert!(w[0].sensing_date() <= w[1].sensing_date());
        }
    }

    #[test]
    fn bad_searches_rejected() {
        let cat = catalogue(10);
        assert!(cat.search(&Search::aoi(Envelope::empty())).is_err());
        let mut s = Search::aoi(Envelope::new(0.0, 0.0, 1.0, 1.0));
        s.from = Some(Date::new(2017, 7, 1).unwrap());
        s.to = Some(Date::new(2017, 6, 1).unwrap());
        assert!(cat.search(&s).is_err());
    }

    #[test]
    fn incremental_insert() {
        let mut cat = catalogue(100);
        let before = cat.len();
        let mut g = ProductGenerator::new(Envelope::new(0.0, 0.0, 10.0, 10.0), 2017, 99);
        cat.insert(g.next_product());
        assert_eq!(cat.len(), before + 1);
    }
}
