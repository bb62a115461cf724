//! # lbr-rdf
//!
//! RDF data-model substrate for the Left Bit Right (LBR) reproduction.
//!
//! This crate provides:
//!
//! * [`Term`] — IRIs, literals and blank nodes,
//! * [`Triple`] / [`EncodedTriple`] — raw and dictionary-encoded triples,
//! * [`Dictionary`] — the integer ID assignment of the paper's Appendix D,
//!   where subject and object values that occur in *both* roles
//!   (`Vso = Vs ∩ Vo`) share the same coordinate so S-O joins compare raw
//!   IDs,
//! * [`Graph`] / [`EncodedGraph`] — triple containers,
//! * [`ntriples`] — a line-oriented N-Triples parser and writer.
//!
//! Every load path shares one term interner. [`EncodedGraph::from_ntriples`]
//! is the one-pass text loader: the tokenizer lends each term, borrowed
//! from the text; the interner hashes it at most once, copies a new term
//! once into an append-only string arena and ORs the role it occurs in
//! into its entry, so each triple is three `u32`s from its first byte. The
//! IDs come from one sort of the distinct terms by [`Term`]'s order, a
//! sort of the integer triples by those ranks, a dedup, and one first-seen
//! sweep: the assignment [`DictionaryBuilder`] makes over the
//! string-sorted triples, byte for byte. [`Graph::encode`] and
//! [`DictionaryBuilder`] feed owned terms into the same interner.
//!
//! Everything downstream (the BitMat indexes in `lbr-bitmat` and the LBR
//! engine in `lbr-core`) works purely on the `u32` IDs handed out here.

#![forbid(unsafe_code)]

pub mod dictionary;
pub mod error;
pub mod graph;
mod intern;
pub mod ntriples;
pub mod term;
pub mod triple;

pub use dictionary::{Dictionary, DictionaryBuilder, Dimension};
pub use error::RdfError;
pub use graph::{EncodedGraph, Graph};
pub use ntriples::{parse_ntriples, write_ntriples};
pub use term::Term;
pub use triple::{EncodedTriple, Triple};

/// Integer identifier of a term within one bitcube dimension.
///
/// The paper stores run lengths and IDs as 4-byte integers; we mirror that
/// with `u32`. IDs are dense per dimension (see [`Dictionary`]).
pub type Id = u32;
