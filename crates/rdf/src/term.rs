//! RDF terms and typed literal values.

use ee_geo::wkt;
use ee_util::timeline::Date;
use std::hash::{Hash, Hasher};

/// Well-known datatype IRIs (abbreviated).
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
/// `xsd:double`.
pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
/// `xsd:boolean`.
pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
/// `xsd:date`.
pub const XSD_DATE: &str = "http://www.w3.org/2001/XMLSchema#date";
/// `xsd:string`.
pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
/// GeoSPARQL `geo:wktLiteral`.
pub const GEO_WKT: &str = "http://www.opengis.net/ont/geosparql#wktLiteral";

/// An RDF term. Blank nodes are not needed by the workspace's pipelines
/// (GeoTriples-style mappings mint IRIs). [`TermRef`] is its borrowed
/// form; the two compare, order and hash alike.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference.
    Iri(String),
    /// A literal with its datatype IRI.
    Literal {
        /// Lexical form.
        lexical: String,
        /// Datatype IRI (e.g. [`XSD_INTEGER`]).
        datatype: String,
    },
}

impl Term {
    /// IRI constructor.
    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    /// Plain string literal.
    pub fn string(s: impl Into<String>) -> Term {
        Term::Literal {
            lexical: s.into(),
            datatype: XSD_STRING.to_string(),
        }
    }

    /// Integer literal.
    pub fn integer(v: i64) -> Term {
        Term::Literal {
            lexical: v.to_string(),
            datatype: XSD_INTEGER.to_string(),
        }
    }

    /// Double literal.
    pub fn double(v: f64) -> Term {
        Term::Literal {
            lexical: format!("{v}"),
            datatype: XSD_DOUBLE.to_string(),
        }
    }

    /// Boolean literal.
    pub fn boolean(v: bool) -> Term {
        Term::Literal {
            lexical: v.to_string(),
            datatype: XSD_BOOLEAN.to_string(),
        }
    }

    /// `xsd:date` literal from a calendar date.
    pub fn date(d: Date) -> Term {
        Term::Literal {
            lexical: d.iso(),
            datatype: XSD_DATE.to_string(),
        }
    }

    /// `geo:wktLiteral` from WKT text.
    pub fn wkt(wkt_text: impl Into<String>) -> Term {
        Term::Literal {
            lexical: wkt_text.into(),
            datatype: GEO_WKT.to_string(),
        }
    }

    /// `geo:wktLiteral` from a geometry.
    pub fn geometry(g: &ee_geo::Geometry) -> Term {
        Term::wkt(wkt::to_wkt(g))
    }

    /// The borrowed view of this term.
    pub fn as_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(iri) => TermRef::Iri(iri),
            Term::Literal { lexical, datatype } => TermRef::Literal { lexical, datatype },
        }
    }

    /// The IRI, or the literal's lexical form.
    pub fn lexical(&self) -> &str {
        self.as_ref().lexical()
    }

    /// N-Triples-ish display form.
    pub fn ntriples(&self) -> String {
        self.as_ref().ntriples()
    }
}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

/// A term borrowed from wherever its text lives — a [`Term`], or the
/// dictionary's byte arena ([`crate::dict::Dictionary::term`]). `Copy`,
/// so rows of terms pass by value with no allocation. It compares,
/// orders and hashes exactly like the owned [`Term`] it stands for, which
/// is what lets an owned query term find its arena entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TermRef<'a> {
    /// An IRI reference.
    Iri(&'a str),
    /// A literal with its datatype IRI.
    Literal {
        /// Lexical form.
        lexical: &'a str,
        /// Datatype IRI.
        datatype: &'a str,
    },
}

impl<'a> TermRef<'a> {
    /// The IRI, or the literal's lexical form.
    pub fn lexical(self) -> &'a str {
        match self {
            TermRef::Iri(s) | TermRef::Literal { lexical: s, .. } => s,
        }
    }

    /// N-Triples-ish display form.
    pub fn ntriples(self) -> String {
        match self {
            TermRef::Iri(i) => format!("<{i}>"),
            TermRef::Literal { lexical, datatype } if datatype == XSD_STRING => {
                format!("{lexical:?}")
            }
            TermRef::Literal { lexical, datatype } => format!("{lexical:?}^^<{datatype}>"),
        }
    }

    /// The owned term.
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Iri(iri) => Term::Iri(iri.to_string()),
            TermRef::Literal { lexical, datatype } => Term::Literal {
                lexical: lexical.to_string(),
                datatype: datatype.to_string(),
            },
        }
    }
}

impl Hash for TermRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The variant as a word, then the fields: what `derive(Hash)`
        // writes for `Term`.
        match *self {
            TermRef::Iri(iri) => {
                state.write_isize(0);
                iri.hash(state);
            }
            TermRef::Literal { lexical, datatype } => {
                state.write_isize(1);
                lexical.hash(state);
                datatype.hash(state);
            }
        }
    }
}

impl<'a> From<&'a Term> for TermRef<'a> {
    fn from(term: &'a Term) -> TermRef<'a> {
        term.as_ref()
    }
}

impl PartialEq<Term> for TermRef<'_> {
    fn eq(&self, other: &Term) -> bool {
        *self == other.as_ref()
    }
}

impl PartialEq<TermRef<'_>> for Term {
    fn eq(&self, other: &TermRef<'_>) -> bool {
        self.as_ref() == *other
    }
}

/// The decoded value of a literal, computed once at interning time so
/// filters never re-parse lexical forms in the inner loop. A string's
/// text is not copied here: it is the term's lexical form
/// ([`Term::lexical`]), which the dictionary already holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An IRI (compared by identity only).
    Iri,
    /// A string: `xsd:string` or a literal of a datatype with no typed
    /// value here.
    Str,
    /// Integer.
    Int(i64),
    /// Double.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Calendar date, held as days since epoch for cheap comparison.
    Date(i64),
    /// A geometry: index into the dictionary's geometry table.
    Geometry(usize),
    /// A literal whose lexical form did not parse under its datatype.
    Malformed,
}

/// Decode a term's typed value. Geometries are parsed separately by the
/// dictionary (which owns the geometry table); this returns `None` for
/// WKT literals so the caller knows to do so.
pub fn decode_non_geometry<'a>(term: impl Into<TermRef<'a>>) -> Option<Value> {
    match term.into() {
        TermRef::Iri(_) => Some(Value::Iri),
        TermRef::Literal { lexical, datatype } => match datatype {
            XSD_STRING => Some(Value::Str),
            XSD_INTEGER => Some(
                lexical
                    .parse::<i64>()
                    .map(Value::Int)
                    .unwrap_or(Value::Malformed),
            ),
            XSD_DOUBLE => Some(
                lexical
                    .parse::<f64>()
                    .map(Value::Float)
                    .unwrap_or(Value::Malformed),
            ),
            XSD_BOOLEAN => match lexical {
                "true" | "1" => Some(Value::Bool(true)),
                "false" | "0" => Some(Value::Bool(false)),
                _ => Some(Value::Malformed),
            },
            XSD_DATE => Some(parse_date(lexical).map(Value::Date).unwrap_or(Value::Malformed)),
            GEO_WKT => None,
            _ => Some(Value::Str),
        },
    }
}

/// Parse `YYYY-MM-DD` into days since 0000-01-01 (ordering-compatible).
pub fn parse_date(s: &str) -> Option<i64> {
    let mut parts = s.split('-');
    let y: i32 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    let date = Date::new(y, m, d)?;
    let epoch = Date::new(0, 1, 1)?;
    Some(date.days_since(epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_datatypes() {
        assert!(matches!(Term::iri("http://ex.org/a"), Term::Iri(_)));
        match Term::integer(42) {
            Term::Literal { lexical, datatype } => {
                assert_eq!(lexical, "42");
                assert_eq!(datatype, XSD_INTEGER);
            }
            _ => panic!(),
        }
        assert!(!matches!(Term::string("x"), Term::Iri(_)));
    }

    #[test]
    fn decode_typed_values() {
        assert_eq!(decode_non_geometry(&Term::integer(-7)), Some(Value::Int(-7)));
        assert_eq!(
            decode_non_geometry(&Term::double(2.5)),
            Some(Value::Float(2.5))
        );
        assert_eq!(
            decode_non_geometry(&Term::boolean(true)),
            Some(Value::Bool(true))
        );
        assert_eq!(decode_non_geometry(&Term::string("hi")), Some(Value::Str));
        assert_eq!(Term::string("hi").lexical(), "hi");
        assert_eq!(decode_non_geometry(&Term::iri("x")), Some(Value::Iri));
        assert_eq!(decode_non_geometry(&Term::wkt("POINT (1 2)")), None);
    }

    #[test]
    fn values_are_sixteen_bytes() {
        // Every interned term carries one; a string payload made it 32.
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn malformed_literals_decode_as_malformed() {
        let bad = Term::Literal {
            lexical: "not-a-number".into(),
            datatype: XSD_INTEGER.into(),
        };
        assert_eq!(decode_non_geometry(&bad), Some(Value::Malformed));
    }

    #[test]
    fn date_parsing_and_ordering() {
        let a = parse_date("2017-01-31").unwrap();
        let b = parse_date("2017-02-01").unwrap();
        let c = parse_date("2018-01-01").unwrap();
        assert!(a < b && b < c);
        assert_eq!(b - a, 1);
        assert!(parse_date("2017-13-01").is_none());
        assert!(parse_date("2017-02-30").is_none());
        assert!(parse_date("nope").is_none());
        assert!(parse_date("2017-01-01-09").is_none());
    }

    #[test]
    fn date_term_roundtrip() {
        let d = Date::new(2017, 7, 15).unwrap();
        match Term::date(d) {
            Term::Literal { lexical, .. } => assert_eq!(lexical, "2017-07-15"),
            _ => panic!(),
        }
    }

    #[test]
    fn ntriples_forms() {
        assert_eq!(Term::iri("http://e/x").ntriples(), "<http://e/x>");
        assert_eq!(Term::string("a\"b").ntriples(), "\"a\\\"b\"");
        assert!(Term::integer(5).ntriples().contains("^^<"));
    }

    #[test]
    fn borrowed_terms_compare_order_and_hash_like_owned_ones() {
        use std::hash::BuildHasher;
        let hasher = std::collections::hash_map::RandomState::new();
        let terms = [
            Term::iri("x"),
            Term::string("x"),
            Term::Literal { lexical: "x".into(), datatype: "http://e/dt".into() },
            Term::integer(5),
            Term::string(""),
        ];
        for a in &terms {
            assert_eq!(a.as_ref(), *a);
            assert_eq!(a.as_ref().to_term(), *a);
            assert_eq!(hasher.hash_one(a), hasher.hash_one(a.as_ref()));
            assert_eq!(a.as_ref().ntriples(), a.ntriples());
            for b in &terms {
                assert_eq!(a.as_ref().cmp(&b.as_ref()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn geometry_term_roundtrips_via_wkt() {
        let g: ee_geo::Geometry = ee_geo::Point::new(23.7, 37.9).into();
        let t = Term::geometry(&g);
        match &t {
            Term::Literal { lexical, datatype } => {
                assert_eq!(datatype, GEO_WKT);
                assert_eq!(wkt::parse_wkt(lexical).unwrap(), g);
            }
            _ => panic!(),
        }
    }
}
