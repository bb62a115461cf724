//! Dictionary encoding with the paper's bitcube coordinate assignment.
//!
//! Appendix D of the paper: let `Vs`, `Vp`, `Vo` be the sets of unique
//! subject, predicate and object values and `Vso = Vs ∩ Vo`. Then
//!
//! * `Vso` is mapped to IDs `0 .. |Vso|` **in both** the subject and object
//!   dimensions (the paper uses 1-based IDs; we are 0-based),
//! * `Vs \ Vso` is mapped to `|Vso| .. |Vs|` in the subject dimension,
//! * `Vo \ Vso` is mapped to `|Vso| .. |Vo|` in the object dimension,
//! * `Vp` gets its own dense ID space `0 .. |Vp|`.
//!
//! The shared `Vso` prefix is what makes S-O joins comparisons of raw IDs,
//! which the whole fold/unfold machinery of `lbr-bitmat` relies on.
//!
//! Within each group, IDs follow the order in which the terms were first
//! seen. [`DictionaryBuilder`] sees the terms in the order they are added;
//! a graph's terms are seen over its triples in [`Triple`] order, which
//! the interner reaches by ranking the distinct terms once and sorting the
//! integer triples by those ranks, never by their strings.
//!
//! A [`Dictionary`] holds each term once, in first-seen order, plus a
//! table of `u32` indices into that list probed by the term's hash (keyed
//! by a per-dictionary [`RandomState`], as a `HashMap` would be); it keeps
//! no second copy of a term as a hash key.

use crate::error::RdfError;
use crate::intern::{self, Interner, ProbeTable};
use crate::term::Term;
use crate::triple::{EncodedTriple, Triple};
use crate::Id;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A bitcube dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Subject dimension.
    Subject,
    /// Predicate dimension.
    Predicate,
    /// Object dimension.
    Object,
}

impl Dimension {
    fn name(self) -> &'static str {
        match self {
            Dimension::Subject => "subject",
            Dimension::Predicate => "predicate",
            Dimension::Object => "object",
        }
    }
}

/// Accumulates terms with their roles; [`DictionaryBuilder::build`] performs
/// the Appendix-D ID assignment.
#[derive(Debug, Default)]
pub struct DictionaryBuilder {
    /// All distinct terms in first-seen order, with their role set.
    terms: Interner,
}

impl DictionaryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one triple's terms.
    pub fn add_triple(&mut self, t: &Triple) {
        self.terms.intern_triple(t.as_refs());
    }

    /// Records every triple of an iterator.
    pub fn add_all<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) {
        for t in triples {
            self.add_triple(t);
        }
    }

    /// Performs the Appendix-D assignment and freezes the dictionary.
    ///
    /// ID layout per dimension (0-based):
    ///
    /// * subject dim: `Vso` terms first (`0..n_so`), then subject-only terms;
    /// * object dim: the same `Vso` terms occupy `0..n_so` (identical IDs!),
    ///   then object-only terms;
    /// * predicate dim: independent dense IDs.
    ///
    /// Within each group, IDs follow first-seen order, which keeps the
    /// assignment deterministic for a given input order.
    pub fn build(self) -> Dictionary {
        let first_seen: Vec<u32> = (0..self.terms.len() as u32).collect();
        self.terms.into_dictionary(&first_seen)
    }
}

/// Frozen term ↔ ID mapping (see module docs for the layout).
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Every distinct term once, in first-seen order.
    terms: Vec<Term>,
    /// Indices into `terms`, probed by a term's hash under `hasher`.
    index: ProbeTable,
    hasher: RandomState,
    term_of_s: Vec<u32>,
    term_of_o: Vec<u32>,
    term_of_p: Vec<u32>,
    s_of_term: Vec<u32>,
    o_of_term: Vec<u32>,
    p_of_term: Vec<u32>,
    n_so: u32,
}

/// Each term index's ID in a dimension whose IDs map to `term_of`;
/// `u32::MAX` where the term has none.
fn ids_of_terms(n_terms: usize, term_of: &[u32]) -> Vec<u32> {
    let mut ids = vec![u32::MAX; n_terms];
    for (id, &ti) in term_of.iter().enumerate() {
        ids[ti as usize] = id as u32;
    }
    ids
}

impl Dictionary {
    /// The Appendix-D assignment over `terms` in first-seen order, where
    /// `roles[i]` holds the role bits of `terms[i]` and `index` files each
    /// term under its hash by `hasher`.
    pub(crate) fn assign(
        terms: Vec<Term>,
        roles: &[u8],
        index: ProbeTable,
        hasher: RandomState,
    ) -> Dictionary {
        let has = |i: usize, role: u8| roles[i] & role != 0;
        // Pass 1: Vso terms get the shared prefix.
        let mut term_of_s: Vec<u32> = (0..terms.len())
            .filter(|&i| has(i, intern::S) && has(i, intern::O))
            .map(|i| i as u32)
            .collect();
        let mut term_of_o = term_of_s.clone();
        let mut term_of_p = Vec::new();
        let n_so = term_of_s.len() as u32;
        // Pass 2: role-exclusive S / O terms, and predicates.
        for i in 0..terms.len() {
            let (s, o) = (has(i, intern::S), has(i, intern::O));
            if s && !o {
                term_of_s.push(i as u32);
            } else if o && !s {
                term_of_o.push(i as u32);
            }
            if has(i, intern::P) {
                term_of_p.push(i as u32);
            }
        }
        Dictionary {
            s_of_term: ids_of_terms(terms.len(), &term_of_s),
            o_of_term: ids_of_terms(terms.len(), &term_of_o),
            p_of_term: ids_of_terms(terms.len(), &term_of_p),
            terms,
            index,
            hasher,
            term_of_s,
            term_of_o,
            term_of_p,
            n_so,
        }
    }

    /// Number of distinct subjects (`|Vs|`).
    pub fn n_subjects(&self) -> u32 {
        self.term_of_s.len() as u32
    }

    /// Number of distinct predicates (`|Vp|`).
    pub fn n_predicates(&self) -> u32 {
        self.term_of_p.len() as u32
    }

    /// Number of distinct objects (`|Vo|`).
    pub fn n_objects(&self) -> u32 {
        self.term_of_o.len() as u32
    }

    /// Number of terms in the shared `Vso = Vs ∩ Vo` prefix.
    pub fn n_shared(&self) -> u32 {
        self.n_so
    }

    /// Size of a dimension.
    pub fn dim_size(&self, dim: Dimension) -> u32 {
        match dim {
            Dimension::Subject => self.n_subjects(),
            Dimension::Predicate => self.n_predicates(),
            Dimension::Object => self.n_objects(),
        }
    }

    fn id_in(&self, term_idx: u32, dim: Dimension) -> Option<Id> {
        let v = match dim {
            Dimension::Subject => &self.s_of_term,
            Dimension::Predicate => &self.p_of_term,
            Dimension::Object => &self.o_of_term,
        };
        match v.get(term_idx as usize) {
            Some(&id) if id != u32::MAX => Some(id),
            _ => None,
        }
    }

    /// Looks up a term's ID in a dimension.
    pub fn id(&self, term: &Term, dim: Dimension) -> Option<Id> {
        let t = term.as_ref();
        let hash = self.hasher.hash_one(t);
        let ti = self
            .index
            .find(hash, |i| self.terms[i as usize].as_ref() == t);
        self.id_in(ti.ok()?, dim)
    }

    /// Like [`Dictionary::id`] but returns an error naming the dimension.
    pub fn id_or_err(&self, term: &Term, dim: Dimension) -> Result<Id, RdfError> {
        self.id(term, dim).ok_or_else(|| RdfError::UnknownTerm {
            term: term.to_string(),
            dimension: dim.name(),
        })
    }

    /// Resolves an ID back to its term.
    pub fn term(&self, id: Id, dim: Dimension) -> Option<&Term> {
        let v = match dim {
            Dimension::Subject => &self.term_of_s,
            Dimension::Predicate => &self.term_of_p,
            Dimension::Object => &self.term_of_o,
        };
        v.get(id as usize).map(|&ti| &self.terms[ti as usize])
    }

    /// Like [`Dictionary::term`] but returns an error naming the dimension.
    pub fn term_or_err(&self, id: Id, dim: Dimension) -> Result<&Term, RdfError> {
        self.term(id, dim).ok_or(RdfError::UnknownId {
            id,
            dimension: dim.name(),
        })
    }

    /// Encodes a raw triple. Returns `None` if any term is unknown in the
    /// required role (only happens for triples not supplied at build time).
    pub fn encode(&self, t: &Triple) -> Option<EncodedTriple> {
        Some(EncodedTriple {
            s: self.id(&t.s, Dimension::Subject)?,
            p: self.id(&t.p, Dimension::Predicate)?,
            o: self.id(&t.o, Dimension::Object)?,
        })
    }

    /// The IDs of a triple of term indices, each term in its role.
    pub(crate) fn encode_indices(&self, [s, p, o]: [u32; 3]) -> EncodedTriple {
        EncodedTriple {
            s: self.s_of_term[s as usize],
            p: self.p_of_term[p as usize],
            o: self.o_of_term[o as usize],
        }
    }

    /// Decodes an encoded triple back to terms.
    pub fn decode(&self, t: &EncodedTriple) -> Option<Triple> {
        Some(Triple {
            s: self.term(t.s, Dimension::Subject)?.clone(),
            p: self.term(t.p, Dimension::Predicate)?.clone(),
            o: self.term(t.o, Dimension::Object)?.clone(),
        })
    }

    /// True when `id` (valid in both S and O dimensions iff `id < n_shared`)
    /// denotes the same term in either dimension — i.e. it is joinable
    /// across S-O positions.
    pub fn is_shared(&self, id: Id) -> bool {
        id < self.n_so
    }

    /// Iterates all terms of a dimension in ID order.
    pub fn terms_of(&self, dim: Dimension) -> impl Iterator<Item = (Id, &Term)> + '_ {
        let v = match dim {
            Dimension::Subject => &self.term_of_s,
            Dimension::Predicate => &self.term_of_p,
            Dimension::Object => &self.term_of_o,
        };
        v.iter()
            .enumerate()
            .map(move |(id, &ti)| (id as Id, &self.terms[ti as usize]))
    }

    /// Serializes the frozen dictionary to a flat byte image:
    /// `[n_terms][tagged terms][term_of_s][term_of_o][term_of_p][n_so]`,
    /// all integers little-endian `u32`, strings length-prefixed. The
    /// inverse maps and hash index are rebuilt on load — they are fully
    /// determined by the stored vectors.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for &id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.terms.len() as u32).to_le_bytes());
        for t in &self.terms {
            match t {
                Term::Iri(v) => {
                    out.push(0);
                    put_str(&mut out, v);
                }
                Term::BlankNode(v) => {
                    out.push(1);
                    put_str(&mut out, v);
                }
                Term::Literal {
                    lexical,
                    datatype,
                    lang,
                } => {
                    out.push(2);
                    put_str(&mut out, lexical);
                    let flags = datatype.is_some() as u8 | ((lang.is_some() as u8) << 1);
                    out.push(flags);
                    if let Some(dt) = datatype {
                        put_str(&mut out, dt);
                    }
                    if let Some(l) = lang {
                        put_str(&mut out, l);
                    }
                }
            }
        }
        put_ids(&mut out, &self.term_of_s);
        put_ids(&mut out, &self.term_of_o);
        put_ids(&mut out, &self.term_of_p);
        out.extend_from_slice(&self.n_so.to_le_bytes());
        out
    }

    /// Inverse of [`Dictionary::to_bytes`]. Every length and index is
    /// bounds-checked; malformed input yields [`RdfError::Corrupt`], never
    /// a panic or out-of-bounds access.
    pub fn from_bytes(bytes: &[u8]) -> Result<Dictionary, RdfError> {
        struct R<'a> {
            b: &'a [u8],
            pos: usize,
        }
        fn corrupt(message: &str) -> RdfError {
            RdfError::Corrupt {
                message: message.to_string(),
            }
        }
        impl<'a> R<'a> {
            fn u8(&mut self) -> Result<u8, RdfError> {
                let v = *self.b.get(self.pos).ok_or_else(|| corrupt("truncated"))?;
                self.pos += 1;
                Ok(v)
            }
            fn u32(&mut self) -> Result<u32, RdfError> {
                let end = self.pos.checked_add(4).ok_or_else(|| corrupt("overflow"))?;
                let s = self
                    .b
                    .get(self.pos..end)
                    .ok_or_else(|| corrupt("truncated"))?;
                self.pos = end;
                Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
            }
            fn string(&mut self) -> Result<String, RdfError> {
                let len = self.u32()? as usize;
                let end = self
                    .pos
                    .checked_add(len)
                    .ok_or_else(|| corrupt("overflow"))?;
                let s = self
                    .b
                    .get(self.pos..end)
                    .ok_or_else(|| corrupt("truncated string"))?;
                self.pos = end;
                String::from_utf8(s.to_vec()).map_err(|_| corrupt("invalid UTF-8"))
            }
            fn ids(&mut self, max: u32) -> Result<Vec<u32>, RdfError> {
                let n = self.u32()? as usize;
                // Cheap pre-check so a corrupt length cannot trigger a huge
                // allocation: each ID takes 4 bytes of remaining input.
                if n > (self.b.len() - self.pos) / 4 {
                    return Err(corrupt("ID vector longer than input"));
                }
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = self.u32()?;
                    if id >= max {
                        return Err(corrupt("term index out of range"));
                    }
                    v.push(id);
                }
                Ok(v)
            }
        }
        let mut r = R { b: bytes, pos: 0 };
        let n_terms = r.u32()? as usize;
        let mut terms = Vec::new();
        for _ in 0..n_terms {
            let term = match r.u8()? {
                0 => Term::Iri(r.string()?),
                1 => Term::BlankNode(r.string()?),
                2 => {
                    let lexical = r.string()?;
                    let flags = r.u8()?;
                    if flags & !3 != 0 || flags == 3 {
                        return Err(corrupt("invalid literal flags"));
                    }
                    let datatype = if flags & 1 != 0 {
                        Some(r.string()?)
                    } else {
                        None
                    };
                    let lang = if flags & 2 != 0 {
                        Some(r.string()?)
                    } else {
                        None
                    };
                    Term::Literal {
                        lexical,
                        datatype,
                        lang,
                    }
                }
                _ => return Err(corrupt("unknown term tag")),
            };
            terms.push(term);
        }
        let term_of_s = r.ids(n_terms as u32)?;
        let term_of_o = r.ids(n_terms as u32)?;
        let term_of_p = r.ids(n_terms as u32)?;
        let n_so = r.u32()?;
        if r.pos != bytes.len() {
            return Err(corrupt("trailing bytes"));
        }
        if n_so as usize > term_of_s.len() || n_so as usize > term_of_o.len() {
            return Err(corrupt("shared prefix exceeds dimension size"));
        }
        if term_of_s[..n_so as usize] != term_of_o[..n_so as usize] {
            return Err(corrupt("shared prefix mismatch between S and O"));
        }
        let hasher = RandomState::new();
        let mut index = ProbeTable::with_room(terms.len());
        for (i, t) in terms.iter().enumerate() {
            let hash = hasher.hash_one(t.as_ref());
            let slot = index
                .find(hash, |j| terms[j as usize] == *t)
                .err()
                .ok_or_else(|| corrupt("duplicate term"))?;
            index.fill(slot, hash, i as u32);
        }
        Ok(Dictionary {
            s_of_term: ids_of_terms(terms.len(), &term_of_s),
            o_of_term: ids_of_terms(terms.len(), &term_of_o),
            p_of_term: ids_of_terms(terms.len(), &term_of_p),
            terms,
            index,
            hasher,
            term_of_s,
            term_of_o,
            term_of_p,
            n_so,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn sample() -> Vec<Triple> {
        vec![
            t("a", "p1", "b"), // a: S-only?, b: O… also subject below
            t("b", "p2", "c"),
            t("c", "p1", "d"),
            t("e", "p3", "a"), // now a is S and O → shared
        ]
    }

    #[test]
    fn shared_prefix_assignment() {
        let mut b = DictionaryBuilder::new();
        b.add_all(&sample());
        let d = b.build();
        // Shared terms: a (S in tp1, O in tp4), b (O in tp1, S in tp2),
        // c (O in tp2, S in tp3). d is O-only, e is S-only.
        assert_eq!(d.n_shared(), 3);
        assert_eq!(d.n_subjects(), 4); // a b c e
        assert_eq!(d.n_objects(), 4); // a b c d
        assert_eq!(d.n_predicates(), 3);
        for name in ["a", "b", "c"] {
            let term = Term::iri(name);
            let s = d.id(&term, Dimension::Subject).unwrap();
            let o = d.id(&term, Dimension::Object).unwrap();
            assert_eq!(s, o, "shared term {name} must share coordinates");
            assert!(d.is_shared(s));
        }
        // Role-exclusive terms sit above the shared prefix.
        let e = d.id(&Term::iri("e"), Dimension::Subject).unwrap();
        assert!(e >= d.n_shared());
        assert_eq!(d.id(&Term::iri("e"), Dimension::Object), None);
        let dd = d.id(&Term::iri("d"), Dimension::Object).unwrap();
        assert!(dd >= d.n_shared());
        assert_eq!(d.id(&Term::iri("d"), Dimension::Subject), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let triples = sample();
        let mut b = DictionaryBuilder::new();
        b.add_all(&triples);
        let d = b.build();
        for tr in &triples {
            let enc = d.encode(tr).unwrap();
            let dec = d.decode(&enc).unwrap();
            assert_eq!(&dec, tr);
        }
    }

    #[test]
    fn ids_are_dense() {
        let triples = sample();
        let mut b = DictionaryBuilder::new();
        b.add_all(&triples);
        let d = b.build();
        let mut seen: Vec<Id> = d.terms_of(Dimension::Subject).map(|(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..d.n_subjects()).collect::<Vec<_>>());
        let mut seen: Vec<Id> = d.terms_of(Dimension::Object).map(|(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..d.n_objects()).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_lookups_error() {
        let d = DictionaryBuilder::new().build();
        let term = Term::iri("nope");
        assert_eq!(d.id(&term, Dimension::Subject), None);
        assert!(d.id_or_err(&term, Dimension::Predicate).is_err());
        assert!(d.term_or_err(0, Dimension::Object).is_err());
        assert!(d.encode(&t("x", "y", "z")).is_none());
    }

    #[test]
    fn predicate_space_is_independent() {
        let triples = vec![t("p1", "p1", "p1")]; // same IRI in all roles
        let mut b = DictionaryBuilder::new();
        b.add_all(&triples);
        let d = b.build();
        let term = Term::iri("p1");
        // Shared S/O coordinate...
        assert_eq!(
            d.id(&term, Dimension::Subject).unwrap(),
            d.id(&term, Dimension::Object).unwrap()
        );
        // ...and an unrelated predicate coordinate.
        assert_eq!(d.id(&term, Dimension::Predicate), Some(0));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut triples = sample();
        triples.push(Triple::new(
            Term::iri("s"),
            Term::iri("p"),
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
        ));
        triples.push(Triple::new(
            Term::blank("b0"),
            Term::iri("p"),
            Term::lang_literal("hi", "en"),
        ));
        let mut b = DictionaryBuilder::new();
        b.add_all(&triples);
        let d = b.build();
        let bytes = d.to_bytes();
        let d2 = Dictionary::from_bytes(&bytes).unwrap();
        assert_eq!(d2.n_shared(), d.n_shared());
        for dim in [Dimension::Subject, Dimension::Predicate, Dimension::Object] {
            let a: Vec<_> = d.terms_of(dim).collect();
            let b: Vec<_> = d2.terms_of(dim).collect();
            assert_eq!(a, b);
        }
        for tr in &triples {
            assert_eq!(d2.encode(tr), d.encode(tr));
        }
        // And the re-serialization is byte-identical.
        assert_eq!(d2.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_bytes_error_not_panic() {
        let mut b = DictionaryBuilder::new();
        b.add_all(&sample());
        let bytes = b.build().to_bytes();
        // Truncations at every prefix length must error cleanly.
        for n in 0..bytes.len() {
            assert!(Dictionary::from_bytes(&bytes[..n]).is_err(), "prefix {n}");
        }
        // Flipped bytes either error or produce *some* dictionary — never
        // panic. (Most flips break a length or an index bound.)
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            let _ = Dictionary::from_bytes(&bad);
        }
    }

    #[test]
    fn literals_object_only() {
        let triples = vec![Triple::new(
            Term::iri("s"),
            Term::iri("p"),
            Term::literal("x"),
        )];
        let mut b = DictionaryBuilder::new();
        b.add_all(&triples);
        let d = b.build();
        assert_eq!(d.n_shared(), 0);
        let lit = Term::literal("x");
        assert!(d.id(&lit, Dimension::Object).is_some());
        assert!(d.id(&lit, Dimension::Subject).is_none());
    }
}
