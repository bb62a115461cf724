//! # lbr-baseline
//!
//! The comparator engines of the LBR evaluation (§6), built over the same
//! BitMat catalog so differences are purely executional:
//!
//! * [`PairwiseEngine`] — a conventional relational executor: per-TP scans,
//!   pairwise **hash joins**, left-outer joins evaluated in the query's
//!   OPTIONAL nesting order (outer joins are *not* reordered — the
//!   restriction LBR lifts).
//!   * [`JoinOrder::Selectivity`] reorders inner joins by selectivity —
//!     the Virtuoso-analog configuration;
//!   * [`JoinOrder::QueryOrder`] evaluates strictly in query order —
//!     the MonetDB-analog configuration (per-predicate-table plans);
//! * [`ReorderedEngine`] — the §3.1 state of the art LBR improves on
//!   (Rao et al. / Galindo-Legaria): left-outer joins are aggressively
//!   reordered by selectivity, then **nullification** restores consistency
//!   and **best-match** removes subsumed rows;
//! * [`mod@reference`] — a deliberately simple nested-loop evaluator of the
//!   SPARQL algebra used as the correctness oracle in tests, with both
//!   SPARQL (compatible-mappings) and SQL (null-intolerant) semantics
//!   (Appendix C).

#![forbid(unsafe_code)]

pub mod hash_join;
pub mod kind;
pub mod pairwise;
pub mod reference;
pub mod reordered;
pub mod scan;

pub use kind::{EngineKind, EngineOptions, ReferenceEngine};
pub use lbr_core::Relation;
pub use pairwise::{JoinOrder, PairwiseEngine};
pub use reference::{evaluate_reference, Semantics};
pub use reordered::ReorderedEngine;

use lbr_core::{QueryOutput, QueryStats};

/// Lifts a baseline [`Relation`] into the shared [`QueryOutput`] shape
/// (the baselines have no phase timings, so only the result counters of
/// [`QueryStats`] are populated).
pub fn relation_to_output(rel: Relation) -> QueryOutput {
    let stats = QueryStats {
        n_results: rel.rows.len(),
        n_results_with_nulls: rel
            .rows
            .iter()
            .filter(|r| r.iter().any(|c| c.is_none()))
            .count(),
        ..Default::default()
    };
    QueryOutput {
        vars: rel.vars,
        rows: rel.rows,
        stats,
    }
}
