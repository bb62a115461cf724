//! # lbr-core
//!
//! The **Left Bit Right** query processor (Atre, "Left Bit Right: For
//! SPARQL Join Queries with OPTIONAL Patterns", 2015): evaluation of nested
//! BGP + OPTIONAL (left-outer-join) queries over compressed BitMat indexes.
//!
//! The pipeline, mirroring Algorithm 5.1 of the paper:
//!
//! 1. **analyze** — build the GoSN and GoJ, classify the query (Fig 3.1)
//!    and decide whether nullification / best-match are required;
//! 2. **jvar order** — `get_jvar_order` (Alg 3.1): bottom-up and top-down
//!    traversal orders over the GoJ tree, or a greedy selectivity order for
//!    cyclic queries;
//! 3. **init** — load one BitMat (or one BitMat row) per triple pattern per
//!    the §5 loading rules, *actively pruning* each against the variable
//!    bindings of already-loaded masters and peers;
//! 4. **prune** — `prune_triples` (Alg 3.2): semi-joins between
//!    master/slave TPs and clustered-semi-joins among peers, implemented
//!    with `fold`/`unfold` on the compressed BitMats (Algs 5.2, 5.3), and
//!    change-driven: folds are memoized per TP generation, and an operation
//!    whose inputs have not changed since it last ran is skipped;
//! 5. **multi-way pipelined join** (Alg 5.4) producing final rows without
//!    pairwise intermediate results, followed by nullification and
//!    best-match only when the classification demands them.
//!
//! UNION and FILTER are handled by the §5.2 rewrite to UNION normal form
//! plus init-time filter masks and the FaN (filter-and-nullification) hook.
//! Cartesian products need no fallback: the multi-way join visits each
//! variable-connected component as a new root, and fails every slave of a
//! failed master, which connectivity would otherwise have done.
//!
//! Query forms (`SELECT [DISTINCT|REDUCED]` / `ASK`) and solution
//! modifiers (`ORDER BY` / `LIMIT` / `OFFSET`) are applied by the single
//! shared seam in [`modifiers`] — every engine's [`api::Engine::execute`]
//! routes raw rows through [`modifiers::finalize`], and the LBR engine
//! additionally pushes the [`modifiers::row_quota`] bound into the
//! multi-way join so ASK / plain-LIMIT queries stop enumerating seeds as
//! soon as enough rows exist.

#![forbid(unsafe_code)]

pub mod api;
pub mod best_match;
pub mod bindings;
pub mod engine;
pub mod error;
pub mod explain;
pub mod filter_eval;
pub mod init;
pub mod jvar_order;
pub mod modifiers;
pub mod multiway;
pub mod prune;
pub mod relation;
pub mod selectivity;
pub mod solutions;

pub use api::Engine;
pub use bindings::{Binding, BindingSpace, QueryOutput, VarSpace, VarTable};
pub use engine::{traced, LbrEngine, LbrPlan};
pub use error::LbrError;
pub use explain::explain;
pub use jvar_order::JvarOrder;
pub use multiway::ExecStats;
pub use relation::Relation;
pub use solutions::{Row, RowSchema, Solutions};

/// Per-query counts matching the cardinality columns of Tables 6.2–6.4.
///
/// Stage *times* are not here: the engine records each stage once, as an
/// `lbr-obs` span (`init`, `prune`, `join`, `best_match`, `finalize`).
/// Run a query under [`traced`] and sum a stage with
/// [`lbr_obs::stage_us`]; take end-to-end time from the caller's clock.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Σ triples matching each TP before init/pruning ("#initial triples").
    pub initial_triples: u64,
    /// Σ triples left in the TP BitMats after `prune_triples`.
    pub triples_after_pruning: u64,
    /// Number of result rows.
    pub n_results: usize,
    /// Result rows with at least one NULL binding.
    pub n_results_with_nulls: usize,
    /// Whether nullification/best-match were required (Alg 5.1 `NB-reqd`).
    pub nb_required: bool,
    /// How many rows the nullification operator actually rewrote.
    pub nullification_fired: u64,
    /// Root-TP seeds the multi-way join enumerated. With a pushed-down
    /// LIMIT/ASK row quota this is exactly the minimum needed instead of
    /// the full candidate count.
    pub join_seeds: u64,
    /// Compressed-set intersections `prune_triples` executed through the
    /// kernel layer (semi-join mask ANDs + clustered-semi-join folds);
    /// skipped operations execute none.
    pub prune_intersections: u64,
    /// True when the empty-absolute-master shortcut aborted the query
    /// (§5 "simple optimization").
    pub aborted_empty: bool,
}

/// Monotone aggregation of [`QueryStats`] across many executions — what a
/// long-lived query service (the `lbr-server` worker pool) accumulates and
/// surfaces in its `/stats` endpoint. Counts only: the server times
/// requests with its `lbr_request_duration_us` histogram.
///
/// All counters only ever grow; snapshotting at any moment is sound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsAggregate {
    /// Successfully executed queries.
    pub queries: u64,
    /// Queries that failed (parse or execution error).
    pub errors: u64,
    /// Σ result rows over all successful queries.
    pub rows: u64,
    /// Σ result rows carrying at least one NULL binding.
    pub rows_with_nulls: u64,
    /// Σ root seeds the multi-way join enumerated.
    pub join_seeds: u64,
    /// Σ compressed-set intersections the prune phase performed.
    pub prune_intersections: u64,
    /// Queries whose classification required nullification/best-match.
    pub nb_required_queries: u64,
}

impl StatsAggregate {
    /// Folds one successful execution's stats in.
    pub fn record(&mut self, stats: &QueryStats) {
        self.queries += 1;
        self.rows += stats.n_results as u64;
        self.rows_with_nulls += stats.n_results_with_nulls as u64;
        self.join_seeds += stats.join_seeds;
        self.prune_intersections += stats.prune_intersections;
        self.nb_required_queries += u64::from(stats.nb_required);
    }

    /// Counts one failed query.
    pub fn record_error(&mut self) {
        self.errors += 1;
    }
}
