//! The RML-lite mapping model and its executor.

use crate::csv::Table;
use crate::features::{FeatureCollection, PropValue};
use crate::MapError;
use ee_rdf::term::{Term, GEO_WKT, XSD_DOUBLE, XSD_INTEGER};
use ee_rdf::TripleStore;

/// How an object map produces its term.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectMap {
    /// A column/property reference with a datatype.
    Reference {
        /// Source field name.
        field: String,
        /// Produced term type.
        term_type: TermType,
    },
    /// A template producing an IRI, e.g. `http://ex/field/{id}`.
    TemplateIri(String),
    /// A constant term.
    Constant(Term),
    /// The feature geometry as a `geo:wktLiteral` (feature sources only).
    Geometry,
}

/// Target datatype of a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermType {
    /// `xsd:string`
    String,
    /// `xsd:integer`
    Integer,
    /// `xsd:double`
    Double,
    /// An IRI minted from the raw value.
    Iri,
}

/// One triples map: a subject template plus predicate–object maps.
#[derive(Debug, Clone)]
pub struct TriplesMap {
    /// Subject IRI template with `{field}` placeholders.
    pub subject_template: String,
    /// Optional `rdf:type` to assert for every subject.
    pub class: Option<String>,
    /// (predicate IRI, object map) pairs.
    pub predicate_objects: Vec<(String, ObjectMap)>,
}

/// Expand `{field}` placeholders from a lookup function.
fn expand_template(
    template: &str,
    lookup: &dyn Fn(&str) -> Option<String>,
) -> Result<String, MapError> {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    loop {
        match rest.find('{') {
            None => {
                if rest.contains('}') {
                    return Err(MapError::BadTemplate(template.to_string()));
                }
                out.push_str(rest);
                return Ok(out);
            }
            Some(open) => {
                out.push_str(&rest[..open]);
                let after = &rest[open + 1..];
                let close = after
                    .find('}')
                    .ok_or_else(|| MapError::BadTemplate(template.to_string()))?;
                let field = &after[..close];
                if field.is_empty() {
                    return Err(MapError::BadTemplate(template.to_string()));
                }
                let value =
                    lookup(field).ok_or_else(|| MapError::MissingField(field.to_string()))?;
                out.push_str(&value);
                rest = &after[close + 1..];
            }
        }
    }
}

fn reference_term(raw: &str, tt: TermType) -> Term {
    match tt {
        TermType::String => Term::string(raw),
        TermType::Integer => Term::Literal {
            lexical: raw.trim().to_string(),
            datatype: XSD_INTEGER.to_string(),
        },
        TermType::Double => Term::Literal {
            lexical: raw.trim().to_string(),
            datatype: XSD_DOUBLE.to_string(),
        },
        TermType::Iri => Term::iri(raw),
    }
}

impl TriplesMap {
    /// Execute over a CSV table, inserting triples into `store`.
    /// Returns the number of triples emitted.
    pub fn run_table(&self, table: &Table, store: &mut TripleStore) -> Result<usize, MapError> {
        let mut emitted = 0;
        for row in 0..table.rows.len() {
            let lookup = |field: &str| table.cell(row, field).map(|s| s.to_string());
            emitted += self.emit_one(&lookup, None, store)?;
        }
        Ok(emitted)
    }

    /// Execute over a feature collection.
    pub fn run_features(
        &self,
        fc: &FeatureCollection,
        store: &mut TripleStore,
    ) -> Result<usize, MapError> {
        let mut emitted = 0;
        for feature in &fc.features {
            let lookup = |field: &str| feature.get(field).map(PropValue::lexical);
            let wkt = ee_geo::wkt::to_wkt(&feature.geometry);
            emitted += self.emit_one(&lookup, Some(&wkt), store)?;
        }
        Ok(emitted)
    }

    fn emit_one(
        &self,
        lookup: &dyn Fn(&str) -> Option<String>,
        geometry_wkt: Option<&str>,
        store: &mut TripleStore,
    ) -> Result<usize, MapError> {
        let subject = Term::iri(expand_template(&self.subject_template, lookup)?);
        let mut emitted = 0;
        if let Some(class) = &self.class {
            store.insert(
                &subject,
                &Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                &Term::iri(class.clone()),
            );
            emitted += 1;
        }
        for (predicate, om) in &self.predicate_objects {
            let object = match om {
                ObjectMap::Reference { field, term_type } => {
                    let raw = lookup(field)
                        .ok_or_else(|| MapError::MissingField(field.clone()))?;
                    reference_term(&raw, *term_type)
                }
                ObjectMap::TemplateIri(t) => Term::iri(expand_template(t, lookup)?),
                ObjectMap::Constant(t) => t.clone(),
                ObjectMap::Geometry => {
                    let wkt = geometry_wkt.ok_or_else(|| {
                        MapError::BadTemplate("geometry map on a non-spatial source".into())
                    })?;
                    Term::Literal {
                        lexical: wkt.to_string(),
                        datatype: GEO_WKT.to_string(),
                    }
                }
            };
            store.insert(&subject, &Term::iri(predicate.clone()), &object);
            emitted += 1;
        }
        Ok(emitted)
    }
}

/// The standard "feature with geometry" mapping used across the
/// workspace: subject from an id property, `rdf:type`, a WKT geometry via
/// the GeoSPARQL vocabulary and the listed literal properties.
pub fn feature_mapping(
    base_iri: &str,
    id_field: &str,
    class: &str,
    literal_props: &[(&str, &str, TermType)],
) -> TriplesMap {
    let mut predicate_objects = vec![(
        "http://www.opengis.net/ont/geosparql#asWKT".to_string(),
        ObjectMap::Geometry,
    )];
    for (predicate, field, tt) in literal_props {
        predicate_objects.push((
            predicate.to_string(),
            ObjectMap::Reference {
                field: field.to_string(),
                term_type: *tt,
            },
        ));
    }
    TriplesMap {
        subject_template: format!("{base_iri}{{{id_field}}}"),
        class: Some(class.to_string()),
        predicate_objects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::parse_csv;
    use crate::features::Feature;
    use ee_geo::Point;

    #[test]
    fn template_expansion() {
        let lookup = |f: &str| match f {
            "id" => Some("42".to_string()),
            "name" => Some("x".to_string()),
            _ => None,
        };
        assert_eq!(
            expand_template("http://e/f/{id}/{name}", &lookup).unwrap(),
            "http://e/f/42/x"
        );
        assert_eq!(expand_template("no-placeholders", &lookup).unwrap(), "no-placeholders");
        assert!(matches!(
            expand_template("{missing}", &lookup),
            Err(MapError::MissingField(_))
        ));
        assert!(matches!(
            expand_template("{unclosed", &lookup),
            Err(MapError::BadTemplate(_))
        ));
        assert!(matches!(
            expand_template("{}", &lookup),
            Err(MapError::BadTemplate(_))
        ));
        assert!(matches!(
            expand_template("orphan } brace", &lookup),
            Err(MapError::BadTemplate(_))
        ));
    }

    #[test]
    fn csv_mapping_end_to_end() {
        let table = parse_csv("id,name,yield\nf1,North Field,4.2\nf2,South Field,3.9\n").unwrap();
        let map = TriplesMap {
            subject_template: "http://farm.example/field/{id}".into(),
            class: Some("http://farm.example/Field".into()),
            predicate_objects: vec![
                (
                    "http://farm.example/name".into(),
                    ObjectMap::Reference {
                        field: "name".into(),
                        term_type: TermType::String,
                    },
                ),
                (
                    "http://farm.example/yield".into(),
                    ObjectMap::Reference {
                        field: "yield".into(),
                        term_type: TermType::Double,
                    },
                ),
            ],
        };
        let mut store = TripleStore::new();
        let n = map.run_table(&table, &mut store).unwrap();
        assert_eq!(n, 6, "2 rows x (type + 2 properties)");
        assert_eq!(store.len(), 6);
        let sol = ee_rdf::exec::query(
            &store,
            "PREFIX f: <http://farm.example/> SELECT ?n WHERE { ?s a f:Field ; f:name ?n . FILTER(?n = \"North Field\") }",
        )
        .unwrap();
        assert_eq!(sol.len(), 1);
    }

    #[test]
    fn feature_mapping_emits_wkt() {
        let mut fc = FeatureCollection::new();
        fc.push(
            Feature::new(Point::new(23.7, 37.9).into())
                .with("id", PropValue::Str("athens".into()))
                .with("pop", PropValue::Int(3_750_000)),
        );
        let map = feature_mapping(
            "http://geo.example/place/",
            "id",
            "http://geo.example/Place",
            &[("http://geo.example/population", "pop", TermType::Integer)],
        );
        let mut store = TripleStore::new();
        let n = map.run_features(&fc, &mut store).unwrap();
        assert_eq!(n, 3);
        store.build_spatial_index();
        let sol = ee_rdf::exec::query(
            &store,
            "PREFIX g: <http://geo.example/> SELECT ?s WHERE { ?s a g:Place ; geo:asWKT ?w . \
             FILTER(geof:sfWithin(?w, \"POLYGON ((23 37, 24 37, 24 38, 23 38, 23 37))\"^^geo:wktLiteral)) }",
        )
        .unwrap();
        assert_eq!(sol.len(), 1, "GeoTriples output is queryable spatially");
    }

    #[test]
    fn geometry_map_needs_spatial_source() {
        let table = parse_csv("id\n1\n").unwrap();
        let map = TriplesMap {
            subject_template: "http://e/{id}".into(),
            class: None,
            predicate_objects: vec![(
                "http://www.opengis.net/ont/geosparql#asWKT".into(),
                ObjectMap::Geometry,
            )],
        };
        let mut store = TripleStore::new();
        assert!(map.run_table(&table, &mut store).is_err());
    }

    #[test]
    fn constant_and_template_iri_objects() {
        let table = parse_csv("id\n7\n").unwrap();
        let map = TriplesMap {
            subject_template: "http://e/s/{id}".into(),
            class: None,
            predicate_objects: vec![
                (
                    "http://e/status".into(),
                    ObjectMap::Constant(Term::string("active")),
                ),
                (
                    "http://e/detail".into(),
                    ObjectMap::TemplateIri("http://e/detail/{id}".into()),
                ),
            ],
        };
        let mut store = TripleStore::new();
        map.run_table(&table, &mut store).unwrap();
        assert!(store.contains(
            &Term::iri("http://e/s/7"),
            &Term::iri("http://e/detail"),
            &Term::iri("http://e/detail/7"),
        ));
    }

    #[test]
    fn duplicate_rows_do_not_duplicate_triples() {
        let table = parse_csv("id\n1\n1\n").unwrap();
        let map = TriplesMap {
            subject_template: "http://e/{id}".into(),
            class: Some("http://e/C".into()),
            predicate_objects: vec![],
        };
        let mut store = TripleStore::new();
        map.run_table(&table, &mut store).unwrap();
        assert_eq!(store.len(), 1, "store dedups");
    }
}
