//! The semantic catalogue: product metadata *and* extracted knowledge as
//! linked data, queryable with GeoSPARQL.
//!
//! This is Challenge C4's deliverable: the catalogue "will expose the
//! knowledge hidden in Sentinel satellite images and related data sets,
//! and will allow a user to ask sophisticated queries such as 'How many
//! icebergs were embedded in the Norske Øer Ice Barrier at its maximum
//! extent in 2017?'". [`SemanticCatalogue::iceberg_question`] answers
//! exactly that question in two SPARQL steps (max-extent observation,
//! then a spatial count restricted to its footprint and date).

use crate::product::Product;
use crate::CatalogueError;
use ee_geo::{algorithms, Geometry, Point, Polygon};
use ee_rdf::dict::Dictionary;
use ee_rdf::exec::{query, Solutions};
use ee_rdf::term::Term;
use ee_rdf::TripleStore;
use ee_util::timeline::Date;

/// The catalogue vocabulary namespace.
pub const EO: &str = "http://extremeearth.eu/ont/eo#";

fn eo(local: &str) -> Term {
    Term::iri(format!("{EO}{local}"))
}

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// The semantic catalogue.
pub struct SemanticCatalogue {
    store: TripleStore,
    obs_counter: u64,
}

impl Default for SemanticCatalogue {
    fn default() -> Self {
        Self::new()
    }
}

impl SemanticCatalogue {
    /// An empty semantic catalogue (indexed store).
    pub fn new() -> Self {
        Self {
            store: TripleStore::new(),
            obs_counter: 0,
        }
    }

    /// The underlying store (read access for federation experiments).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Number of triples held.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Pack the store after a batch ingest ([`TripleStore::pack`]): the
    /// spatial index, and indexes left part-empty by per-triple inserts.
    pub fn finish_ingest(&mut self) {
        self.store.pack();
    }

    /// Insert an arbitrary knowledge triple. Pipelines use this to publish
    /// extracted knowledge that has no dedicated ingest helper.
    pub fn insert_raw(&mut self, s: &Term, p: &Term, o: &Term) {
        self.store.insert(s, p, o);
    }

    /// A catalogue of `products`' metadata, seven triples each, packed and
    /// ready to query. Terms are interned product by product in triple
    /// order — the ids per-triple inserts give — and each footprint from
    /// the polygon it came as
    /// ([`Dictionary::intern_geometry`](ee_rdf::dict::Dictionary::intern_geometry));
    /// the eight vocabulary terms are interned where they first occur and
    /// their ids reused after. The triples then load as sorted runs in
    /// one [`TripleStore::load_ids`].
    pub fn from_products(products: &[Product]) -> Self {
        let mut cat = Self::new();
        // Each vocabulary term with its id, once interned.
        let vocabulary = [
            Term::iri(RDF_TYPE),
            eo("Product"),
            eo("mission"),
            eo("platform"),
            eo("productType"),
            eo("sensingDate"),
            eo("cloudCover"),
            eo("footprint"),
        ];
        let [
            mut rdf_type,
            mut class,
            mut mission,
            mut platform,
            mut product_type,
            mut sensing,
            mut cloud,
            mut footprint,
        ] = vocabulary.map(|term| (term, None));
        let dict = &mut cat.store.dict;
        let id = |dict: &mut Dictionary, (term, id): &mut (Term, Option<u64>)| {
            *id.get_or_insert_with(|| dict.intern(&*term))
        };
        let mut triples = Vec::with_capacity(7 * products.len());
        for p in products {
            let s = dict.intern(&Term::iri(format!("{EO}product/{}", p.id)));
            let rows = [
                (id(dict, &mut rdf_type), id(dict, &mut class)),
                (id(dict, &mut mission), dict.intern(&Term::string(&p.mission))),
                (id(dict, &mut platform), dict.intern(&Term::string(&p.platform))),
                (
                    id(dict, &mut product_type),
                    dict.intern(&Term::string(&p.product_type)),
                ),
                (id(dict, &mut sensing), dict.intern(&Term::date(p.sensing_date()))),
                (id(dict, &mut cloud), dict.intern(&Term::double(p.cloud_cover))),
                (
                    id(dict, &mut footprint),
                    dict.intern_geometry(p.polygon().into()),
                ),
            ];
            triples.extend(rows.map(|(p, o)| (s, p, o)));
        }
        cat.store.load_ids(triples);
        cat.finish_ingest();
        cat
    }

    /// Record a detected iceberg at a position on a date.
    pub fn add_iceberg_observation(&mut self, berg_id: u32, date: Date, position: Point) {
        let subject = Term::iri(format!("{EO}iceberg/{berg_id}/{}", date.iso()));
        let t = Term::iri(RDF_TYPE);
        self.store.insert(&subject, &t, &eo("Iceberg"));
        self.store
            .insert(&subject, &eo("bergId"), &Term::integer(berg_id as i64));
        self.store
            .insert(&subject, &eo("observedOn"), &Term::date(date));
        let geom: Geometry = position.into();
        self.store
            .insert(&subject, &eo("position"), &Term::geometry(&geom));
    }

    /// Record a named ice feature's extent observation (e.g. the Norske
    /// Øer Ice Barrier on a date). Its area is precomputed and stored so
    /// "maximum extent" is an ORDER BY away.
    pub fn add_feature_extent(&mut self, feature: &str, date: Date, extent: &Polygon) {
        let f = Term::iri(format!("{EO}feature/{feature}"));
        let t = Term::iri(RDF_TYPE);
        self.store.insert(&f, &t, &eo("IceFeature"));
        self.obs_counter += 1;
        let obs = Term::iri(format!("{EO}obs/{}", self.obs_counter));
        self.store.insert(&f, &eo("observation"), &obs);
        self.store.insert(&obs, &eo("date"), &Term::date(date));
        let geom: Geometry = extent.clone().into();
        self.store.insert(&obs, &eo("extent"), &Term::geometry(&geom));
        self.store.insert(
            &obs,
            &eo("extentArea"),
            &Term::double(algorithms::polygon_area(extent)),
        );
    }

    /// Run any SPARQL query against the catalogue.
    pub fn query(&self, sparql: &str) -> Result<Solutions, CatalogueError> {
        Ok(query(&self.store, sparql)?)
    }

    /// The paper's marquee question: how many icebergs were embedded in
    /// `feature` at its maximum extent in `year`? Two steps: find the
    /// max-area extent observation of the year, then count the icebergs
    /// observed on that date whose position lies within that extent.
    pub fn iceberg_question(
        &self,
        feature: &str,
        year: i32,
    ) -> Result<(usize, Date), CatalogueError> {
        let q1 = format!(
            "PREFIX eo: <{EO}> \
             SELECT ?w ?d ?a WHERE {{ \
               <{EO}feature/{feature}> eo:observation ?o . \
               ?o eo:extent ?w ; eo:date ?d ; eo:extentArea ?a . \
               FILTER(?d >= \"{year}-01-01\"^^xsd:date && ?d <= \"{year}-12-31\"^^xsd:date) \
             }} ORDER BY DESC(?a) LIMIT 1"
        );
        let sol = self.query(&q1)?;
        let row = sol
            .rows
            .first()
            .ok_or_else(|| CatalogueError::Query(format!("no {year} observations of {feature}")))?;
        let (Some(Term::Literal { lexical: wkt, .. }), Some(Term::Literal { lexical: date, .. })) =
            (&row[0], &row[1])
        else {
            return Err(CatalogueError::Query("malformed observation".into()));
        };
        let max_date = {
            let mut parts = date.split('-');
            let y: i32 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(year);
            let m: u32 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1);
            let d: u32 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1);
            Date::new(y, m, d).ok_or_else(|| CatalogueError::Query("bad date".into()))?
        };
        let q2 = format!(
            "PREFIX eo: <{EO}> \
             SELECT (COUNT(?b) AS ?n) WHERE {{ \
               ?b a eo:Iceberg ; eo:observedOn \"{date}\"^^xsd:date ; eo:position ?p . \
               FILTER(geof:sfWithin(?p, \"{wkt}\"^^geo:wktLiteral)) \
             }}"
        );
        let sol = self.query(&q2)?;
        let count = match sol.scalar() {
            Some(Term::Literal { lexical, .. }) => lexical.parse::<usize>().unwrap_or(0),
            _ => 0,
        };
        Ok((count, max_date))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::ProductGenerator;
    use ee_geo::Envelope;

    fn d(m: u32, day: u32) -> Date {
        Date::new(2017, m, day).unwrap()
    }

    fn barrier(area_scale: f64) -> Polygon {
        Polygon::rectangle(0.0, 0.0, 10.0 * area_scale, 10.0)
    }

    #[test]
    fn product_metadata_is_queryable() {
        let mut g = ProductGenerator::new(Envelope::new(0.0, 0.0, 5.0, 5.0), 2017, 5);
        let cat = SemanticCatalogue::from_products(&g.take(50));
        assert!(cat.len() >= 50 * 7);
        let sol = cat
            .query(&format!(
                "PREFIX eo: <{EO}> SELECT (COUNT(?p) AS ?n) WHERE {{ ?p a eo:Product }}"
            ))
            .unwrap();
        assert_eq!(sol.scalar(), Some(&Term::integer(50)));
        // Spatial + attribute search in one query — beyond the classic API.
        let sol = cat
            .query(&format!(
                "PREFIX eo: <{EO}> SELECT ?p WHERE {{ \
                 ?p a eo:Product ; eo:mission \"S2\" ; eo:cloudCover ?c ; eo:footprint ?f . \
                 FILTER(?c < 30 && geof:sfIntersects(?f, \"POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))\"^^geo:wktLiteral)) }}"
            ))
            .unwrap();
        for _ in &sol.rows {
            // existence is enough; exact count depends on the seed
        }
        assert!(sol.len() < 50);
    }

    /// A product's seven metadata triples as terms, in ingest order.
    fn product_triples(p: &Product) -> Vec<[Term; 3]> {
        let s = Term::iri(format!("{EO}product/{}", p.id));
        let geom: Geometry = p.polygon().into();
        [
            (Term::iri(RDF_TYPE), eo("Product")),
            (eo("mission"), Term::string(&p.mission)),
            (eo("platform"), Term::string(&p.platform)),
            (eo("productType"), Term::string(&p.product_type)),
            (eo("sensingDate"), Term::date(p.sensing_date())),
            (eo("cloudCover"), Term::double(p.cloud_cover)),
            (eo("footprint"), Term::geometry(&geom)),
        ]
        .into_iter()
        .map(|(pred, o)| [s.clone(), pred, o])
        .collect()
    }

    /// Every dictionary entry (floats by their `Debug` bits) and id triple.
    fn contents(cat: &SemanticCatalogue) -> (Vec<String>, Vec<ee_rdf::store::IdTriple>) {
        let dict = &cat.store().dict;
        let entries = (0..dict.len() as u64)
            .map(|id| {
                format!(
                    "{:?} {:?} {:?}",
                    dict.term(id),
                    dict.value(id),
                    dict.geometry_of(id)
                )
            })
            .collect();
        (entries, cat.store().id_triples().collect())
    }

    #[test]
    fn from_products_matches_per_triple_inserts() {
        let products = ProductGenerator::new(Envelope::new(0.0, 0.0, 5.0, 5.0), 2017, 9).take(40);
        // Products 20..30 come twice: their triples load once.
        let batch: Vec<Product> = products[..30]
            .iter()
            .chain(&products[20..])
            .cloned()
            .collect();
        let mut reference = SemanticCatalogue::new();
        for p in &batch {
            for [s, pred, o] in product_triples(p) {
                reference.insert_raw(&s, &pred, &o);
            }
        }
        reference.finish_ingest();
        let loaded = SemanticCatalogue::from_products(&batch);
        assert!(contents(&loaded) == contents(&reference));
        assert_eq!(loaded.len(), 7 * 40);
    }

    #[test]
    fn iceberg_question_end_to_end() {
        let mut cat = SemanticCatalogue::new();
        // Barrier observed three times; maximum extent in July.
        cat.add_feature_extent("NorskeOerIceBarrier", d(2, 1), &barrier(0.5));
        cat.add_feature_extent("NorskeOerIceBarrier", d(7, 1), &barrier(1.0));
        cat.add_feature_extent("NorskeOerIceBarrier", d(11, 1), &barrier(0.7));
        // Icebergs on the max-extent date: 3 inside, 1 outside.
        cat.add_iceberg_observation(1, d(7, 1), Point::new(1.0, 1.0));
        cat.add_iceberg_observation(2, d(7, 1), Point::new(5.0, 5.0));
        cat.add_iceberg_observation(3, d(7, 1), Point::new(9.0, 9.0));
        cat.add_iceberg_observation(4, d(7, 1), Point::new(50.0, 5.0));
        // Icebergs on other dates must not count.
        cat.add_iceberg_observation(5, d(2, 1), Point::new(1.0, 1.0));
        cat.finish_ingest();
        let (count, when) = cat.iceberg_question("NorskeOerIceBarrier", 2017).unwrap();
        assert_eq!(when, d(7, 1), "July was the maximum extent");
        assert_eq!(count, 3, "three icebergs embedded at maximum extent");
    }

    #[test]
    fn iceberg_question_respects_year() {
        let mut cat = SemanticCatalogue::new();
        cat.add_feature_extent("Barrier", d(7, 1), &barrier(1.0));
        cat.add_feature_extent(
            "Barrier",
            Date::new(2016, 7, 1).unwrap(),
            &barrier(2.0), // bigger, but wrong year
        );
        cat.add_iceberg_observation(1, d(7, 1), Point::new(1.0, 1.0));
        cat.finish_ingest();
        let (count, when) = cat.iceberg_question("Barrier", 2017).unwrap();
        assert_eq!(when.year(), 2017);
        assert_eq!(count, 1);
        // A year with no observations errors cleanly.
        assert!(cat.iceberg_question("Barrier", 2019).is_err());
        assert!(cat.iceberg_question("NoSuchFeature", 2017).is_err());
    }

    #[test]
    fn scaling_ingest_smoke() {
        let mut g = ProductGenerator::new(Envelope::new(0.0, 0.0, 20.0, 20.0), 2017, 11);
        let cat = SemanticCatalogue::from_products(&g.take(1000));
        let sol = cat
            .query(&format!(
                "PREFIX eo: <{EO}> SELECT (COUNT(?p) AS ?n) WHERE {{ \
                 ?p a eo:Product ; eo:footprint ?f . \
                 FILTER(geof:sfIntersects(?f, \"POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))\"^^geo:wktLiteral)) }}"
            ))
            .unwrap();
        match sol.scalar() {
            Some(Term::Literal { lexical, .. }) => {
                let n: usize = lexical.parse().unwrap();
                assert!(n > 0 && n < 1000, "spatial selection pruned: {n}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
