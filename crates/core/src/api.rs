//! The unified engine interface.
//!
//! Every executor in the workspace — the LBR engine and the three §6
//! baselines plus the reference oracle — implements [`Engine`], so the
//! comparison surfaces (`lbr-cli --engine`, the benches, the equivalence
//! tests) dispatch through one seam instead of string-matching on engine
//! names. Planning, prepared execution and EXPLAIN are LBR's alone and
//! live on [`crate::LbrEngine`] itself; the `lbr::Database` facade and its
//! caches run that engine directly.
//!
//! Query forms and solution modifiers are applied **here**, in the
//! provided [`Engine::execute`], through the one shared seam
//! [`crate::modifiers::finalize`]. Engines implement only the *raw*
//! evaluation ([`Engine::execute_raw`]): rows over [`Query::exec_vars`],
//! form- and modifier-agnostic — except that an engine may soundly
//! exploit the [`crate::modifiers::row_quota`] bound to stop early (the
//! LBR multi-way join does, on branches whose emitted rows are final).

use crate::bindings::QueryOutput;
use crate::error::LbrError;
use crate::modifiers::finalize;
use crate::solutions::Solutions;
use lbr_rdf::Dictionary;
use lbr_sparql::algebra::Query;

/// A query executor over a BitMat catalog.
///
/// `execute_raw` is the one required evaluation method; the provided
/// `execute` wraps it with the shared modifier seam and `solutions`
/// streams.
///
/// Engines are `Send + Sync` by contract: a serving layer fires queries
/// at engines borrowing one catalog from many threads at once. Engines
/// are read-only over `&self`, so the bound is structural for all
/// in-tree executors (thin `&Catalog + &Dictionary` structs); an engine
/// that wants interior caching must make it thread-safe
/// (`Mutex`/atomics).
pub trait Engine: Send + Sync {
    /// Stable engine name (what `--engine` accepts, e.g. `"lbr"`).
    fn name(&self) -> &'static str;

    /// The dictionary results decode through.
    fn dict(&self) -> &Dictionary;

    /// Evaluates the WHERE pattern to raw rows over [`Query::exec_vars`]
    /// — the projection plus any non-projected `ORDER BY` key — without
    /// applying the query form or the solution modifiers (those belong to
    /// the shared seam in [`Engine::execute`]). An engine **may** stop
    /// after [`crate::modifiers::row_quota`] rows; it must otherwise
    /// produce the full sequence.
    fn execute_raw(&self, query: &Query) -> Result<QueryOutput, LbrError>;

    /// Evaluates a query to a materialized [`QueryOutput`]: raw rows plus
    /// the one shared form/modifier seam ([`crate::modifiers::finalize`]).
    fn execute(&self, query: &Query) -> Result<QueryOutput, LbrError> {
        Ok(finalize(self.execute_raw(query)?, query, self.dict()))
    }

    /// Evaluates a query to a streaming [`Solutions`] iterator.
    fn solutions(&self, query: &Query) -> Result<Solutions<'_>, LbrError> {
        Ok(self.execute(query)?.into_solutions(self.dict()))
    }
}
