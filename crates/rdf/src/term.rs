//! RDF terms: IRIs, literals, and blank nodes.

use std::fmt;

/// An RDF term.
///
/// RDF graphs contain no NULLs (paper §2.2): blank nodes are ordinary
/// entities with their own identifiers, and NULL only appears in *query
/// results* as the marker produced by an unmatched OPTIONAL pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the surrounding angle brackets.
    Iri(String),
    /// A blank node, stored without the leading `_:`.
    BlankNode(String),
    /// A literal with optional datatype IRI or language tag.
    Literal {
        /// The lexical form, unescaped.
        lexical: String,
        /// Datatype IRI, if any (mutually exclusive with `lang` per RDF 1.1;
        /// enforced by the constructors, not the type).
        datatype: Option<String>,
        /// Language tag, if any.
        lang: Option<String>,
    },
}

impl Term {
    /// Creates an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// Creates a blank-node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::BlankNode(label.into())
    }

    /// Creates a plain (untyped, untagged) literal.
    pub fn literal(lexical: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            lang: None,
        }
    }

    /// Creates a typed literal.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: Some(datatype.into()),
            lang: None,
        }
    }

    /// Creates a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            lang: Some(lang.into()),
        }
    }

    /// Creates an `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Term::typed_literal(value.to_string(), crate::ntriples::XSD_INTEGER)
    }

    /// Returns `true` if the term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Returns `true` if the term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// Returns `true` if the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// The lexical form for literals, the IRI string for IRIs, the label for
    /// blank nodes. Useful for FILTER evaluation and display.
    pub fn lexical_form(&self) -> &str {
        match self {
            Term::Iri(v) => v,
            Term::BlankNode(v) => v,
            Term::Literal { lexical, .. } => lexical,
        }
    }

    /// Attempts to interpret the term as an integer (for FILTER arithmetic).
    ///
    /// Works for any literal whose lexical form parses as `i64`; IRIs and
    /// blank nodes yield `None`.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Term::Literal { lexical, .. } => lexical.parse().ok(),
            _ => None,
        }
    }

    /// The term's borrowed view, which hashes and orders as the term does.
    pub(crate) fn as_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(v) => TermRef::Iri(v),
            Term::BlankNode(v) => TermRef::BlankNode(v),
            Term::Literal {
                lexical,
                datatype,
                lang,
            } => TermRef::Literal {
                lexical,
                datatype: datatype.as_deref(),
                lang: lang.as_deref(),
            },
        }
    }
}

/// A [`Term`] whose strings are borrowed: from the N-Triples text, from a
/// decoded literal, from an interner's arena or from an owned term. Its
/// variants and fields mirror [`Term`]'s, so the derived order is
/// [`Term`]'s order and every feeder hashes the same fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum TermRef<'a> {
    Iri(&'a str),
    BlankNode(&'a str),
    Literal {
        lexical: &'a str,
        datatype: Option<&'a str>,
        lang: Option<&'a str>,
    },
}

impl TermRef<'_> {
    /// An owned copy.
    pub(crate) fn to_term(self) -> Term {
        match self {
            TermRef::Iri(v) => Term::Iri(v.to_owned()),
            TermRef::BlankNode(v) => Term::BlankNode(v.to_owned()),
            TermRef::Literal {
                lexical,
                datatype,
                lang,
            } => Term::Literal {
                lexical: lexical.to_owned(),
                datatype: datatype.map(str::to_owned),
                lang: lang.map(str::to_owned),
            },
        }
    }
}

impl fmt::Display for Term {
    /// Displays the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(v) => write!(f, "<{v}>"),
            Term::BlankNode(v) => write!(f, "_:{v}"),
            Term::Literal {
                lexical,
                datatype,
                lang,
            } => {
                write!(f, "\"{}\"", crate::ntriples::escape_literal(lexical))?;
                if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                } else if let Some(l) = lang {
                    write!(f, "@{l}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_predicates() {
        assert!(Term::iri("http://ex/a").is_iri());
        assert!(Term::blank("b0").is_blank());
        assert!(Term::literal("x").is_literal());
        assert!(!Term::literal("x").is_iri());
        assert!(!Term::iri("a").is_blank());
    }

    #[test]
    fn display_is_ntriples() {
        assert_eq!(Term::iri("http://ex/a").to_string(), "<http://ex/a>");
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#integer").to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Term::lang_literal("hi", "en").to_string(), "\"hi\"@en");
    }

    #[test]
    fn display_escapes_literals() {
        assert_eq!(
            Term::literal("a\"b\\c\nd").to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn integer_literal_roundtrip() {
        let t = Term::integer(-42);
        assert_eq!(t.as_integer(), Some(-42));
        assert_eq!(Term::iri("x").as_integer(), None);
        assert_eq!(Term::literal("nope").as_integer(), None);
    }

    #[test]
    fn lexical_form_covers_all_variants() {
        assert_eq!(Term::iri("i").lexical_form(), "i");
        assert_eq!(Term::blank("b").lexical_form(), "b");
        assert_eq!(Term::literal("l").lexical_form(), "l");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [Term::literal("z"), Term::iri("a"), Term::blank("m")];
        v.sort();
        // Enum discriminant order: Iri < BlankNode < Literal.
        assert_eq!(v[0], Term::iri("a"));
        assert_eq!(v[1], Term::blank("m"));
        assert_eq!(v[2], Term::literal("z"));
    }

    #[test]
    fn borrowed_view_orders_as_the_term() {
        let mut v = vec![
            Term::typed_literal("a", "dt"),
            Term::lang_literal("a", "en"),
            Term::literal("a"),
            Term::literal(""),
            Term::blank("a"),
            Term::iri("b"),
            Term::iri("a"),
        ];
        for t in &v {
            assert_eq!(&t.as_ref().to_term(), t);
        }
        let mut refs: Vec<TermRef<'_>> = v.iter().map(Term::as_ref).collect();
        refs.sort();
        let sorted_refs: Vec<Term> = refs.into_iter().map(TermRef::to_term).collect();
        v.sort();
        assert_eq!(sorted_refs, v);
    }
}
