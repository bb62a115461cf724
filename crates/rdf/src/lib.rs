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
//! Everything downstream (the BitMat indexes in `lbr-bitmat` and the LBR
//! engine in `lbr-core`) works purely on the `u32` IDs handed out here.

#![forbid(unsafe_code)]

pub mod dictionary;
pub mod error;
pub mod graph;
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
