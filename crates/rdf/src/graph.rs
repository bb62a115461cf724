//! Triple containers: raw [`Graph`] and dictionary-encoded [`EncodedGraph`].

use crate::dictionary::Dictionary;
use crate::error::RdfError;
use crate::intern::Interner;
use crate::ntriples::Tokens;
use crate::triple::{EncodedTriple, Triple};

/// An in-memory RDF graph: a *set* of triples.
///
/// RDF graphs are sets, so [`Graph::finish`] sorts and deduplicates; this
/// matters because the generators in `lbr-datagen` may emit duplicates.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    triples: Vec<Triple>,
    normalized: bool,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph from triples (deduplicated).
    pub fn from_triples(triples: Vec<Triple>) -> Self {
        let mut g = Graph {
            triples,
            normalized: false,
        };
        g.finish();
        g
    }

    /// Adds one triple.
    pub fn insert(&mut self, t: Triple) {
        self.triples.push(t);
        self.normalized = false;
    }

    /// Sorts and deduplicates the triples.
    pub fn finish(&mut self) {
        if !self.normalized {
            self.triples.sort_unstable();
            self.triples.dedup();
            self.normalized = true;
        }
    }

    /// Number of distinct triples (after [`Graph::finish`]).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Slice of the triples.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Dictionary-encodes the graph (Appendix D assignment).
    pub fn encode(self) -> EncodedGraph {
        let mut terms = Interner::default();
        let triples = self
            .triples
            .iter()
            .map(|t| terms.intern_triple(t.as_refs()))
            .collect();
        // The owned triples are freed before the dictionary is built, so
        // the two are never held at once.
        drop(self);
        EncodedGraph::from_interned(terms, triples)
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph::from_triples(iter.into_iter().collect())
    }
}

/// A dictionary-encoded graph: the substrate the BitMat store is built from.
#[derive(Debug, Clone, Default)]
pub struct EncodedGraph {
    /// The term ↔ ID mapping.
    pub dict: Dictionary,
    /// Distinct encoded triples (sorted by the raw `Triple` order of the
    /// source graph, not by ID).
    pub triples: Vec<EncodedTriple>,
}

impl EncodedGraph {
    /// Parses and encodes an N-Triples document in one pass: each term is
    /// interned as the tokenizer reads it, and no [`Triple`] is built. The
    /// result is the one `Graph::from_triples(parse_ntriples(text)?).encode()`
    /// gives, and so is any error.
    pub fn from_ntriples(text: &str) -> Result<EncodedGraph, RdfError> {
        let mut terms = Interner::default();
        let mut triples = Vec::new();
        let mut tokens = Tokens::new(text);
        while let Some(t) = tokens.next_triple()? {
            triples.push(terms.intern_triple(t));
        }
        Ok(EncodedGraph::from_interned(terms, triples))
    }

    /// Sorts and dedups interned triples in [`Triple`] order, then assigns
    /// the IDs the sorted triples give.
    fn from_interned(terms: Interner, mut triples: Vec<[u32; 3]>) -> EncodedGraph {
        let order = terms.sort_triples(&mut triples);
        let dict = terms.into_dictionary(&order);
        let triples = triples
            .into_iter()
            .map(|t| dict.encode_indices(t))
            .collect();
        EncodedGraph { dict, triples }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn dedup_on_finish() {
        let g = Graph::from_triples(vec![t("a", "p", "b"), t("a", "p", "b"), t("a", "p", "c")]);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn encode_preserves_triple_count() {
        let g = Graph::from_triples(vec![t("a", "p", "b"), t("b", "p", "a")]);
        let eg = g.encode();
        assert_eq!(eg.len(), 2);
        // a and b are both subjects and objects → shared coordinates, and the
        // two triples are mirror images.
        let t0 = eg.triples[0];
        let t1 = eg.triples[1];
        assert_eq!(t0.s, t1.o);
        assert_eq!(t0.o, t1.s);
    }

    #[test]
    fn from_iterator() {
        let g: Graph = (0..5).map(|i| t(&format!("s{i}"), "p", "o")).collect();
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn empty_graph_encodes() {
        let eg = Graph::new().encode();
        assert!(eg.is_empty());
        assert_eq!(eg.dict.n_subjects(), 0);
    }
}
