//! [`EngineKind`]: the closed set of executors plus uniform construction.
//!
//! Everything that compares engines — `lbr-cli --engine`, the benches,
//! the equivalence tests — goes through this enum instead of hand-rolled
//! string matching, so adding an engine is a one-file change.

use crate::pairwise::{JoinOrder, PairwiseEngine};
use crate::reference::{evaluate_reference, Semantics};
use crate::reordered::ReorderedEngine;
use lbr_bitmat::Catalog;
use lbr_core::api::Engine;
use lbr_core::{LbrEngine, LbrError, QueryOutput};
use lbr_rdf::Dictionary;
use lbr_sparql::algebra::Query;
use std::fmt;
use std::str::FromStr;

/// The executors of the §6 evaluation, plus the reference oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The Left Bit Right engine (semi-join pruning + multi-way join).
    Lbr,
    /// Pairwise hash joins, inner joins reordered by selectivity
    /// (Virtuoso-analog).
    PairwiseSelectivity,
    /// Pairwise hash joins in strict query order (MonetDB-analog).
    PairwiseQueryOrder,
    /// Outer-join reordering repaired by nullification + best-match
    /// (Rao et al. / Galindo-Legaria, §3.1).
    Reordered,
    /// The nested-loop SPARQL-algebra oracle (slow; correctness only).
    Reference,
}

/// Construction knobs of the comparator engines, for offline comparison.
/// The LBR engine takes none: serving runs it directly, with a deadline
/// set through [`LbrEngine::with_deadline`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Intermediate-row budget for the pairwise engines (`None` =
    /// unbounded); exceeding it aborts with `LbrError::ResourceLimit`.
    pub row_limit: Option<usize>,
    /// Join semantics of the reference oracle.
    pub semantics: Semantics,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            row_limit: None,
            semantics: Semantics::Sparql,
        }
    }
}

impl EngineKind {
    /// Every kind, in the order the paper's tables list them.
    pub const fn all() -> [EngineKind; 5] {
        [
            EngineKind::Lbr,
            EngineKind::PairwiseSelectivity,
            EngineKind::PairwiseQueryOrder,
            EngineKind::Reordered,
            EngineKind::Reference,
        ]
    }

    /// The stable name (what [`EngineKind::from_name`] parses).
    pub const fn name(self) -> &'static str {
        match self {
            EngineKind::Lbr => "lbr",
            EngineKind::PairwiseSelectivity => "pairwise",
            EngineKind::PairwiseQueryOrder => "query-order",
            EngineKind::Reordered => "reordered",
            EngineKind::Reference => "reference",
        }
    }

    /// Parses a kind from its name (accepts a few aliases).
    pub fn from_name(s: &str) -> Option<EngineKind> {
        match s {
            "lbr" => Some(EngineKind::Lbr),
            "pairwise" | "pairwise-selectivity" | "virtuoso" => {
                Some(EngineKind::PairwiseSelectivity)
            }
            "query-order" | "pairwise-query-order" | "monetdb" => {
                Some(EngineKind::PairwiseQueryOrder)
            }
            "reordered" | "reorder" => Some(EngineKind::Reordered),
            "reference" | "oracle" => Some(EngineKind::Reference),
            _ => None,
        }
    }

    /// Builds the engine over a catalog + dictionary with default options.
    pub fn build<'a, C: Catalog>(
        self,
        catalog: &'a C,
        dict: &'a Dictionary,
    ) -> Box<dyn Engine + 'a> {
        self.build_with(catalog, dict, &EngineOptions::default())
    }

    /// Builds the engine with explicit [`EngineOptions`].
    pub fn build_with<'a, C: Catalog>(
        self,
        catalog: &'a C,
        dict: &'a Dictionary,
        options: &EngineOptions,
    ) -> Box<dyn Engine + 'a> {
        match self {
            EngineKind::Lbr => Box::new(LbrEngine::new(catalog, dict)),
            EngineKind::PairwiseSelectivity | EngineKind::PairwiseQueryOrder => {
                let order = if self == EngineKind::PairwiseSelectivity {
                    JoinOrder::Selectivity
                } else {
                    JoinOrder::QueryOrder
                };
                let mut engine = PairwiseEngine::new(catalog, dict, order);
                if let Some(limit) = options.row_limit {
                    engine = engine.with_row_limit(limit);
                }
                Box::new(engine)
            }
            EngineKind::Reordered => Box::new(ReorderedEngine::new(catalog, dict)),
            EngineKind::Reference => Box::new(ReferenceEngine {
                catalog,
                dict,
                semantics: options.semantics,
            }),
        }
    }
}

// Every engine this seam can build may be shared across threads behind
// `Box<dyn Engine>`; `Engine: Send + Sync` makes that a trait
// obligation, and these assertions pin the concrete types over both
// catalog backends so a future non-sync field fails here, loudly.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<LbrEngine<'static, lbr_bitmat::BitMatStore>>();
    assert_send_sync::<LbrEngine<'static, lbr_bitmat::DiskCatalog>>();
    assert_send_sync::<PairwiseEngine<'static, lbr_bitmat::BitMatStore>>();
    assert_send_sync::<PairwiseEngine<'static, lbr_bitmat::DiskCatalog>>();
    assert_send_sync::<ReorderedEngine<'static, lbr_bitmat::BitMatStore>>();
    assert_send_sync::<ReorderedEngine<'static, lbr_bitmat::DiskCatalog>>();
    assert_send_sync::<ReferenceEngine<'static, lbr_bitmat::BitMatStore>>();
    assert_send_sync::<ReferenceEngine<'static, lbr_bitmat::DiskCatalog>>();
    assert_send_sync::<dyn Engine>();
};

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::from_name(s).ok_or_else(|| {
            let names: Vec<&str> = EngineKind::all().iter().map(|k| k.name()).collect();
            format!(
                "unknown engine '{s}' (expected one of: {})",
                names.join(", ")
            )
        })
    }
}

/// The nested-loop SPARQL-algebra oracle behind the [`Engine`] seam.
pub struct ReferenceEngine<'a, C: Catalog> {
    catalog: &'a C,
    dict: &'a Dictionary,
    semantics: Semantics,
}

impl<'a, C: Catalog> ReferenceEngine<'a, C> {
    /// Creates the oracle with the given join semantics.
    pub fn new(catalog: &'a C, dict: &'a Dictionary, semantics: Semantics) -> Self {
        ReferenceEngine {
            catalog,
            dict,
            semantics,
        }
    }
}

impl<C: Catalog> Engine for ReferenceEngine<'_, C> {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn dict(&self) -> &Dictionary {
        self.dict
    }

    fn execute_raw(&self, query: &Query) -> Result<QueryOutput, LbrError> {
        let rel = evaluate_reference(query, self.dict, self.catalog, self.semantics)?;
        Ok(crate::relation_to_output(rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in EngineKind::all() {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.name().parse::<EngineKind>(), Ok(kind));
        }
        assert!(EngineKind::from_name("no-such-engine").is_none());
        assert!("no-such-engine".parse::<EngineKind>().is_err());
    }

    #[test]
    fn aliases() {
        assert_eq!(
            EngineKind::from_name("virtuoso"),
            Some(EngineKind::PairwiseSelectivity)
        );
        assert_eq!(
            EngineKind::from_name("monetdb"),
            Some(EngineKind::PairwiseQueryOrder)
        );
        assert_eq!(EngineKind::from_name("oracle"), Some(EngineKind::Reference));
    }
}
