//! Triple containers: raw [`Graph`] and dictionary-encoded [`EncodedGraph`].

use crate::dictionary::{Dictionary, DictionaryBuilder};
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
    pub fn encode(mut self) -> EncodedGraph {
        self.finish();
        let mut b = DictionaryBuilder::new();
        b.add_all(&self.triples);
        let dict = b.build();
        let triples = self
            .triples
            .iter()
            .map(|t| dict.encode(t).expect("all terms were added to the builder"))
            .collect();
        EncodedGraph { dict, triples }
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
