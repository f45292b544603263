//! Dictionary encoding: terms ↔ dense `u64` ids.
//!
//! All joins and index operations work on ids; terms (and their decoded
//! typed values, including parsed geometries) are resolved only at the
//! edges. This is the standard RDF-store design and the reason the E2
//! selection stays cheap — no string compares in the join loop.
//!
//! Every term lives in one byte arena: its text (an IRI, or a literal's
//! lexical form) is appended to `text`, and `spans[id]` holds where that
//! text ends (it starts where the previous id's ends) and the term's
//! kind: IRI, or the literal's datatype in a small table of interned
//! datatype IRIs — so a literal does not carry its own copy of
//! `xsd:integer`. End and kind sit side by side, so resolving an id
//! reads one cache line of `spans` and then the text.
//! [`Dictionary::term`] hands out a borrowed [`TermRef`] view of that
//! storage; nothing per id is a heap allocation. The arena is addressed
//! with `u32` offsets, so its text is capped at `u32::MAX` bytes (an
//! intern past that panics).
//!
//! The reverse map is an open-addressed table of `u32` ids (linear
//! probing, grown at load ½) probed with a keyed SipHash of the term's
//! [`TermRef`] — the `RandomState` a `HashMap` uses, so the table keeps
//! its HashDoS resistance, and an owned [`Term`](crate::term::Term)
//! hashes the same, so it finds its arena entry — and every probe
//! compares against the arena view at that id. Ids are dense,
//! append-only and assigned in intern order, which is what snapshots,
//! commit ids and baked plans rely on.
//!
//! A geometry literal is parsed once, when it is interned.
//! [`Dictionary::intern_geometry`] skips even that for a geometry the
//! caller already holds: it writes the WKT text and keeps the geometry it
//! was given, which is what parsing that text would give back.

use crate::term::{decode_non_geometry, TermRef, Value, GEO_WKT};
use ee_geo::{wkt, Envelope, Geometry};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// An unused slot of the id table.
const EMPTY: u32 = u32::MAX;

/// The kind of an IRI; a literal's kind is 1 + its datatype's index.
const IRI: u32 = 0;

/// Where an id's text ends in the arena, and its kind.
#[derive(Debug, Clone, Copy)]
struct Span {
    end: u32,
    kind: u32,
}

/// The term dictionary.
#[derive(Debug, Default)]
pub struct Dictionary {
    /// Keyed hasher for the id table.
    hasher: RandomState,
    /// Open-addressed id table: a power-of-two number of slots (or none
    /// before the first intern), each [`EMPTY`] or an id.
    table: Vec<u32>,
    /// Every term's text, back to back in id order.
    text: String,
    /// Per id: the end of its text in `text`, and its kind — [`IRI`], or
    /// 1 + the literal's index into `datatypes`.
    spans: Vec<Span>,
    /// Interned datatype IRIs, and their indexes.
    datatypes: Vec<Box<str>>,
    datatype_index: HashMap<Box<str>, u32>,
    values: Vec<Value>,
    geometries: Vec<Geometry>,
}

/// `len` as an arena offset.
///
/// # Panics
///
/// Past `u32::MAX`: the arena's offsets are `u32`.
fn arena_offset(len: usize) -> u32 {
    assert!(
        len <= u32::MAX as usize,
        "the term arena holds at most u32::MAX bytes of text"
    );
    len as u32
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (stable across repeat calls).
    /// Geometry literals are parsed once here; malformed WKT interns as
    /// [`Value::Malformed`] (filters then never match it).
    pub fn intern<'t>(&mut self, term: impl Into<TermRef<'t>>) -> u64 {
        self.intern_parsed(term.into(), None)
    }

    /// Intern `geometry` as its `geo:wktLiteral`: the same id, term,
    /// value and geometry as `intern(&Term::geometry(&geometry))`. The
    /// text comes from [`wkt::to_wkt`]; a new term keeps `geometry`
    /// itself instead of parsing that text back, unless the text would
    /// not parse back to it ([`wkt::round_trips`], e.g. a non-finite
    /// coordinate), in which case it is parsed as [`Dictionary::intern`]
    /// parses it.
    pub fn intern_geometry(&mut self, geometry: Geometry) -> u64 {
        let text = wkt::to_wkt(&geometry);
        let parsed = wkt::round_trips(&geometry).then_some(geometry);
        let term = TermRef::Literal {
            lexical: &text,
            datatype: GEO_WKT,
        };
        self.intern_parsed(term, parsed)
    }

    /// [`Dictionary::intern`], with a new WKT literal's geometry taken
    /// from `parsed` when given (it must be what its text parses to).
    fn intern_parsed(&mut self, term: TermRef<'_>, parsed: Option<Geometry>) -> u64 {
        let slot = match self.probe(term) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = self.spans.len() as u64;
        assert!(
            id < u64::from(EMPTY),
            "the id table holds at most u32::MAX terms"
        );
        let end = arena_offset(self.text.len() + term.lexical().len());
        let value = match decode_non_geometry(term) {
            Some(v) => v,
            None => {
                // A WKT literal: parse into the geometry table.
                match parsed.map_or_else(|| wkt::parse_wkt(term.lexical()), Ok) {
                    Ok(g) => {
                        self.geometries.push(g);
                        Value::Geometry(self.geometries.len() - 1)
                    }
                    Err(_) => Value::Malformed,
                }
            }
        };
        let kind = match term {
            TermRef::Iri(_) => IRI,
            TermRef::Literal { datatype, .. } => 1 + self.intern_datatype(datatype),
        };
        self.text.push_str(term.lexical());
        self.spans.push(Span { end, kind });
        self.values.push(value);
        if 2 * self.spans.len() > self.table.len() {
            self.grow();
        } else {
            self.table[slot] = id as u32;
        }
        id
    }

    /// The index of a datatype IRI in `datatypes`, interning it if new.
    fn intern_datatype(&mut self, datatype: &str) -> u32 {
        if let Some(&i) = self.datatype_index.get(datatype) {
            return i;
        }
        // Lossless, and 1 + i fits a kind: each datatype came with a
        // term, and the id assert keeps terms below u32::MAX.
        let i = self.datatypes.len() as u32;
        self.datatypes.push(datatype.into());
        self.datatype_index.insert(datatype.into(), i);
        i
    }

    /// Look up an existing term's id without interning.
    pub fn id_of<'t>(&self, term: impl Into<TermRef<'t>>) -> Option<u64> {
        self.probe(term.into()).ok()
    }

    /// Walk `term`'s probe sequence: `Ok(id)` when it is interned, else
    /// `Err(slot)` — the empty slot an insert would take (meaningless
    /// while the table has no slots; [`Dictionary::intern`] grows then).
    fn probe(&self, term: TermRef<'_>) -> Result<u64, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mask = self.table.len() - 1;
        let mut slot = self.hasher.hash_one(term) as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                id if self.holds(id as usize, term) => return Ok(u64::from(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the table (16 slots at first) and re-place every id.
    fn grow(&mut self) {
        let slots = (2 * self.table.len()).max(16);
        let mut table = vec![EMPTY; slots];
        let mask = slots - 1;
        for id in 0..self.len() as u32 {
            let mut slot = self.hasher.hash_one(self.term(u64::from(id))) as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
        self.table = table;
    }

    /// The arena range of `id`'s text, and its kind.
    fn span(&self, id: usize) -> (std::ops::Range<usize>, u32) {
        let start = match id {
            0 => 0,
            _ => self.spans[id - 1].end as usize,
        };
        let Span { end, kind } = self.spans[id];
        (start..end as usize, kind)
    }

    /// Is `term` the term at `id`?
    fn holds(&self, id: usize, term: TermRef<'_>) -> bool {
        let (range, kind) = self.span(id);
        let text = &self.text.as_bytes()[range];
        match term {
            TermRef::Iri(iri) => kind == IRI && text == iri.as_bytes(),
            TermRef::Literal { lexical, datatype } => {
                kind != IRI
                    && text == lexical.as_bytes()
                    && *self.datatypes[kind as usize - 1] == *datatype
            }
        }
    }

    /// The term for an id, borrowed from the arena.
    pub fn term(&self, id: u64) -> TermRef<'_> {
        let (range, kind) = self.span(id as usize);
        let text = &self.text[range];
        match kind {
            IRI => TermRef::Iri(text),
            kind => TermRef::Literal {
                lexical: text,
                datatype: &self.datatypes[kind as usize - 1],
            },
        }
    }

    /// The decoded value for an id.
    pub fn value(&self, id: u64) -> &Value {
        &self.values[id as usize]
    }

    /// The geometry behind a [`Value::Geometry`] index.
    pub fn geometry(&self, geom_index: usize) -> &Geometry {
        &self.geometries[geom_index]
    }

    /// If the id is a geometry literal, its geometry.
    pub fn geometry_of(&self, id: u64) -> Option<&Geometry> {
        match self.value(id) {
            Value::Geometry(gi) => Some(self.geometry(*gi)),
            _ => None,
        }
    }

    /// Envelope of a geometry literal id.
    pub fn envelope_of(&self, id: u64) -> Option<Envelope> {
        self.geometry_of(id).map(|g| g.envelope())
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of parsed geometries.
    pub fn num_geometries(&self) -> usize {
        self.geometries.len()
    }

    /// Heap bytes of the term storage: the arena text, spans, id table
    /// and decoded values by capacity, plus the datatype IRIs' text (held
    /// twice: table and index). Parsed geometries are not counted.
    pub fn heap_bytes(&self) -> usize {
        let datatypes: usize = self.datatypes.iter().map(|d| 2 * d.len()).sum();
        self.text.capacity()
            + std::mem::size_of::<Span>() * self.spans.capacity()
            + 4 * self.table.capacity()
            + std::mem::size_of::<Value>() * self.values.capacity()
            + datatypes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://e/a"));
        let b = d.intern(&Term::iri("http://e/b"));
        let a2 = d.intern(&Term::iri("http://e/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.term(a), Term::iri("http://e/a"));
    }

    #[test]
    fn id_of_does_not_intern() {
        let mut d = Dictionary::new();
        assert_eq!(d.id_of(&Term::iri("x")), None);
        let id = d.intern(&Term::iri("x"));
        assert_eq!(d.id_of(&Term::iri("x")), Some(id));
    }

    #[test]
    fn values_are_decoded_once() {
        let mut d = Dictionary::new();
        let i = d.intern(&Term::integer(7));
        assert_eq!(d.value(i), &Value::Int(7));
        let s = d.intern(&Term::string("hello"));
        assert_eq!(d.value(s), &Value::Str);
        assert_eq!(d.term(s).lexical(), "hello");
    }

    #[test]
    fn geometries_parse_into_table() {
        let mut d = Dictionary::new();
        let g = d.intern(&Term::wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"));
        assert_eq!(d.num_geometries(), 1);
        let env = d.envelope_of(g).unwrap();
        assert_eq!(env, Envelope::new(0.0, 0.0, 4.0, 4.0));
        assert!(d.geometry_of(g).is_some());
        // Non-geometry ids answer None.
        let i = d.intern(&Term::integer(1));
        assert!(d.geometry_of(i).is_none());
    }

    /// A random term from a small pool per kind, so repeats are common.
    fn random_term(rng: &mut ee_util::rng::Rng) -> Term {
        let k = rng.below(3000);
        match rng.below(6) {
            0 => Term::iri(format!("http://e/r{k}")),
            1 => Term::string(format!("s{k}")),
            2 => Term::integer(k as i64 - 1500),
            3 => Term::date(
                ee_util::timeline::Date::new(
                    2000 + (k % 30) as i32,
                    1 + (k % 12) as u32,
                    1 + (k % 28) as u32,
                )
                .unwrap(),
            ),
            4 => Term::wkt(format!("POINT ({k} {})", k % 17)),
            _ => Term::wkt(format!("POLYGON (({k} 0, bad")),
        }
    }

    #[test]
    fn differential_against_hashmap_model() {
        let mut rng = ee_util::rng::Rng::seed_from(0xd1c7);
        let mut d = Dictionary::new();
        let mut model: HashMap<Term, u64> = HashMap::new();
        // What each id decoded to when it was interned.
        let mut decoded: Vec<(Value, Option<Geometry>)> = Vec::new();
        let mut growths = 0;
        for _ in 0..20_000 {
            let term = random_term(&mut rng);
            let slots = d.table.len();
            let id = d.intern(&term);
            growths += usize::from(d.table.len() != slots);
            match model.get(&term) {
                Some(&want) => assert_eq!(id, want, "a repeat keeps its id"),
                None => {
                    assert_eq!(id, model.len() as u64, "ids are dense, in intern order");
                    model.insert(term.clone(), id);
                    decoded.push((d.value(id).clone(), d.geometry_of(id).cloned()));
                }
            }
            // Lookups: one present term, one absent one.
            let absent = Term::iri(format!("http://e/absent{}", rng.below(1000)));
            assert_eq!(d.id_of(&absent), None);
            assert_eq!(d.id_of(&term), Some(id));
        }
        assert!(growths >= 5, "only {growths} table growths");
        assert_eq!(d.len(), model.len());
        for (term, &id) in &model {
            assert_eq!(d.id_of(term), Some(id));
            assert_eq!(d.term(id), *term);
        }
        for (id, (value, geometry)) in decoded.iter().enumerate() {
            assert_eq!(d.value(id as u64), value, "id {id}");
            assert_eq!(d.geometry_of(id as u64), geometry.as_ref(), "id {id}");
        }
        let malformed = decoded
            .iter()
            .filter(|(v, _)| *v == Value::Malformed)
            .count();
        assert!(malformed > 0 && d.num_geometries() > 0);
        assert_eq!(
            d.num_geometries(),
            decoded.iter().filter(|(_, g)| g.is_some()).count()
        );
    }

    #[test]
    fn iri_string_and_typed_literal_of_one_text_are_distinct() {
        let mut d = Dictionary::new();
        let typed = Term::Literal {
            lexical: "x".into(),
            datatype: "http://e/dt".into(),
        };
        let ids = [
            d.intern(&Term::iri("x")),
            d.intern(&Term::string("x")),
            d.intern(&typed),
        ];
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(d.id_of(&Term::string("x")), Some(1));
        assert_eq!(d.id_of(&typed), Some(2));
        assert_eq!(d.term(2), typed);
        assert_eq!(
            d.id_of(&Term::iri("http://e/dt")),
            None,
            "a datatype is not a term"
        );
    }

    #[test]
    fn arena_terms_round_trip_exactly() {
        let terms = [
            Term::string(""),
            Term::iri(""),
            Term::Literal {
                lexical: String::new(),
                datatype: "http://e/dt".into(),
            },
            Term::string("Norske Øer — 氷山 🧊"),
            Term::iri("http://e/Ø"),
            Term::wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 1))"),
            Term::integer(-42),
        ];
        let mut d = Dictionary::new();
        let ids: Vec<u64> = terms.iter().map(|t| d.intern(t)).collect();
        assert_eq!(ids, (0..terms.len() as u64).collect::<Vec<_>>());
        for (t, &id) in terms.iter().zip(&ids) {
            assert_eq!(d.term(id).to_term(), *t);
            assert_eq!(d.id_of(d.term(id)), Some(id));
        }
        assert_eq!(d.num_geometries(), 1);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX bytes")]
    fn arena_offsets_past_u32_panic() {
        arena_offset(u32::MAX as usize + 1);
    }

    #[test]
    fn heap_bytes_count_the_arena() {
        let mut d = Dictionary::new();
        assert_eq!(d.heap_bytes(), 0);
        for i in 0..100 {
            d.intern(&Term::iri(format!("http://e/{i}")));
        }
        let bytes = d.heap_bytes();
        assert!(bytes >= d.text.len() + 24 * d.len(), "{bytes}");
        // Longer than every spare byte: some buffer has to grow.
        d.intern(&Term::iri("x".repeat(bytes)));
        assert!(d.heap_bytes() > bytes);
    }

    /// Everything a dictionary holds for `id`, floats by their bits.
    fn entry(d: &Dictionary, id: u64) -> String {
        format!("{:?} {:?} {:?}", d.term(id), d.value(id), d.geometry_of(id))
    }

    #[test]
    fn intern_geometry_matches_interning_its_text() {
        use ee_geo::{LineString, MultiPolygon, Point, Polygon};
        let ring = |pts: &[(f64, f64)]| {
            LineString::closed(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
        };
        let holed = Polygon::new(
            ring(&[(0.0, 0.0), (1e300, 0.0), (1e300, 1e300), (-0.0, 1e300)]),
            vec![ring(&[(1.0, 1.0), (2.0, 1.0), (2.0, 1e-300)])],
        )
        .unwrap();
        let geometries = [
            Geometry::Point(Point::new(-0.0, 1e-300)),
            Geometry::Point(Point::new(1e300, -1e300)),
            Geometry::LineString(
                LineString::new(vec![Point::new(-0.0, 0.0), Point::new(0.5, 1e-300)]).unwrap(),
            ),
            Geometry::Polygon(holed.clone()),
            Geometry::MultiPolygon(MultiPolygon::new(vec![
                holed,
                Polygon::rectangle(-0.0, 0.0, 1.0, 1.0),
            ])),
            Geometry::MultiPolygon(MultiPolygon::new(vec![])),
            // Not finite: the text does not parse, so both intern it as
            // malformed.
            Geometry::Point(Point::new(f64::NAN, 1.0)),
            Geometry::Point(Point::new(0.0, f64::INFINITY)),
        ];
        for g in &geometries {
            // On an empty dictionary, and on one that already holds the
            // text (interned by the other path).
            let mut by_text = Dictionary::new();
            let mut direct = Dictionary::new();
            let a = by_text.intern(&Term::geometry(g));
            let b = direct.intern_geometry(g.clone());
            assert_eq!((a, entry(&by_text, a)), (b, entry(&direct, b)), "{g:?}");
            assert_eq!(by_text.num_geometries(), direct.num_geometries());
            assert_eq!(by_text.intern_geometry(g.clone()), a);
            assert_eq!(direct.intern(&Term::geometry(g)), b);
            assert_eq!(by_text.len(), 1);
            assert_eq!(direct.len(), 1);
            assert_eq!(by_text.num_geometries(), direct.num_geometries());
        }
        // Interleaved with other terms, ids stay those of intern order.
        let (mut by_text, mut direct) = (Dictionary::new(), Dictionary::new());
        for (i, g) in geometries.iter().enumerate() {
            let iri = Term::iri(format!("http://e/g{i}"));
            assert_eq!(by_text.intern(&iri), direct.intern(&iri));
            assert_eq!(
                by_text.intern(&Term::geometry(g)),
                direct.intern_geometry(g.clone())
            );
        }
        for id in 0..by_text.len() as u64 {
            assert_eq!(entry(&by_text, id), entry(&direct, id), "id {id}");
        }
        assert_eq!(direct.value(direct.len() as u64 - 1), &Value::Malformed);
    }

    #[test]
    fn malformed_wkt_interns_as_malformed() {
        let mut d = Dictionary::new();
        let id = d.intern(&Term::wkt("POLYGON (not wkt"));
        assert_eq!(d.value(id), &Value::Malformed);
        assert_eq!(d.num_geometries(), 0);
    }
}
