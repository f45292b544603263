//! Dictionary encoding: terms ↔ dense `u64` ids.
//!
//! All joins and index operations work on ids; terms (and their decoded
//! typed values, including parsed geometries) are resolved only at the
//! edges. This is the standard RDF-store design and the reason the E2
//! selection stays cheap — no string compares in the join loop.
//!
//! Each term is stored once, in `terms` at its id. The reverse map is an
//! open-addressed table of `u32` ids (linear probing, grown at load ½)
//! probed with a keyed SipHash of the term — the `RandomState` a
//! `HashMap` uses, so the table keeps its HashDoS resistance — and every
//! probe compares against `terms[id]`. A `HashMap<Term, u64>` beside the
//! id vector held every term twice; the table costs 8–16 bytes a term.
//! Ids are dense, append-only and assigned in intern order, which is what
//! snapshots, commit ids and baked plans rely on.

use crate::term::{decode_non_geometry, Term, Value};
use ee_geo::{wkt, Envelope, Geometry};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// An unused slot of the id table.
const EMPTY: u32 = u32::MAX;

/// The term dictionary.
#[derive(Debug, Default)]
pub struct Dictionary {
    /// Keyed hasher for the id table.
    hasher: RandomState,
    /// Open-addressed id table: a power-of-two number of slots (or none
    /// before the first intern), each [`EMPTY`] or an index into `terms`.
    table: Vec<u32>,
    terms: Vec<Term>,
    values: Vec<Value>,
    geometries: Vec<Geometry>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (stable across repeat calls).
    /// Geometry literals are parsed once here; malformed WKT interns as
    /// [`Value::Malformed`] (filters then never match it).
    pub fn intern(&mut self, term: &Term) -> u64 {
        let slot = match self.probe(term) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = self.terms.len() as u64;
        assert!(
            id < u64::from(EMPTY),
            "the id table holds at most u32::MAX terms"
        );
        let value = match decode_non_geometry(term) {
            Some(v) => v,
            None => {
                // A WKT literal: parse into the geometry table.
                match wkt::parse_wkt(term.lexical()) {
                    Ok(g) => {
                        self.geometries.push(g);
                        Value::Geometry(self.geometries.len() - 1)
                    }
                    Err(_) => Value::Malformed,
                }
            }
        };
        self.terms.push(term.clone());
        self.values.push(value);
        if 2 * self.terms.len() > self.table.len() {
            self.grow();
        } else {
            self.table[slot] = id as u32;
        }
        id
    }

    /// Look up an existing term's id without interning.
    pub fn id_of(&self, term: &Term) -> Option<u64> {
        self.probe(term).ok()
    }

    /// Walk `term`'s probe sequence: `Ok(id)` when it is interned, else
    /// `Err(slot)` — the empty slot an insert would take (meaningless
    /// while the table has no slots; [`Dictionary::intern`] grows then).
    fn probe(&self, term: &Term) -> Result<u64, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mask = self.table.len() - 1;
        let mut slot = self.hasher.hash_one(term) as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                id if self.terms[id as usize] == *term => return Ok(u64::from(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the table (16 slots at first) and re-place every id.
    fn grow(&mut self) {
        let slots = (2 * self.table.len()).max(16);
        self.table = vec![EMPTY; slots];
        let mask = slots - 1;
        for (id, term) in self.terms.iter().enumerate() {
            let mut slot = self.hasher.hash_one(term) as usize & mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = id as u32;
        }
    }

    /// The term for an id.
    pub fn term(&self, id: u64) -> &Term {
        &self.terms[id as usize]
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
        self.terms.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of parsed geometries.
    pub fn num_geometries(&self) -> usize {
        self.geometries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://e/a"));
        let b = d.intern(&Term::iri("http://e/b"));
        let a2 = d.intern(&Term::iri("http://e/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.term(a), &Term::iri("http://e/a"));
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
            assert_eq!(d.term(id), term);
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
    fn malformed_wkt_interns_as_malformed() {
        let mut d = Dictionary::new();
        let id = d.intern(&Term::wkt("POLYGON (not wkt"));
        assert_eq!(d.value(id), &Value::Malformed);
        assert_eq!(d.num_geometries(), 0);
    }
}
