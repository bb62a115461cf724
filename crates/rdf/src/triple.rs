//! Raw and dictionary-encoded triples.

use crate::term::{Term, TermRef};
use crate::Id;
use std::fmt;

/// A raw RDF triple over [`Term`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject (IRI or blank node in standard RDF; we do not enforce this so
    /// generators may use literals freely in tests).
    pub s: Term,
    /// Predicate (IRI).
    pub p: Term,
    /// Object (any term).
    pub o: Term,
}

impl Triple {
    /// Creates a triple.
    pub fn new(s: Term, p: Term, o: Term) -> Self {
        Triple { s, p, o }
    }

    /// The three terms' borrowed views.
    pub(crate) fn as_refs(&self) -> [TermRef<'_>; 3] {
        [self.s.as_ref(), self.p.as_ref(), self.o.as_ref()]
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

/// A dictionary-encoded triple: coordinates into the 3-D bitcube of §4.
///
/// `s` indexes the subject dimension, `p` the predicate dimension, and `o`
/// the object dimension of the bitcube. Because `Vso = Vs ∩ Vo` terms share
/// coordinates (Appendix D), an S-O join is `left.o == right.s` on raw IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EncodedTriple {
    /// Subject coordinate.
    pub s: Id,
    /// Predicate coordinate.
    pub p: Id,
    /// Object coordinate.
    pub o: Id,
}

impl EncodedTriple {
    /// Creates an encoded triple.
    pub fn new(s: Id, p: Id, o: Id) -> Self {
        EncodedTriple { s, p, o }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_display() {
        let t = Triple::new(Term::iri("s"), Term::iri("p"), Term::literal("o"));
        assert_eq!(t.to_string(), "<s> <p> \"o\" .");
    }

    #[test]
    fn encoded_triple_is_copy_and_ordered() {
        let a = EncodedTriple::new(0, 1, 2);
        let b = a; // Copy
        assert_eq!(a, b);
        assert!(EncodedTriple::new(0, 0, 1) < EncodedTriple::new(0, 1, 0));
    }
}
