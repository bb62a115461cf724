//! The unified engine interface.
//!
//! Every executor in the workspace — the LBR engine and the three §6
//! baselines plus the reference oracle — implements [`Engine`], so
//! callers (CLI, benches, equivalence tests, the `lbr::Database` facade)
//! dispatch through one seam instead of string-matching on engine names.
//!
//! The trait is object-safe: planning hands back an opaque
//! [`std::any::Any`] box that [`Engine::execute_planned`] downcasts, which
//! lets engines with a real planning phase (LBR's parse → UNF rewrite →
//! analyze/classify → jvar-order pipeline) cache it across executions
//! while trivially-planned engines fall back to `execute`.
//!
//! Query forms and solution modifiers are applied **here**, in the
//! provided [`Engine::execute`] / [`Engine::execute_planned`] methods,
//! through the one shared seam [`crate::modifiers::finalize`]. Engines
//! implement only the *raw* evaluation ([`Engine::execute_raw`]): rows
//! over [`Query::exec_vars`], form- and modifier-agnostic — except that
//! an engine may soundly exploit the [`crate::modifiers::row_quota`]
//! bound to stop early (the LBR multi-way join does).

use crate::bindings::QueryOutput;
use crate::error::LbrError;
use crate::modifiers::finalize;
use crate::solutions::Solutions;
use lbr_rdf::Dictionary;
use lbr_sparql::algebra::Query;
use std::any::Any;

/// A query executor over a BitMat catalog.
///
/// `execute_raw` is the one required evaluation method; the provided
/// `execute` / `execute_planned` wrap it with the shared modifier seam,
/// `solutions` streams, and `plan_query` / `execute_planned` support
/// prepared queries.
///
/// Engines are `Send + Sync` by contract: a serving layer (`lbr-server`'s
/// worker pool, the shared plan cache) fires queries at one engine — or at
/// engines borrowing one catalog — from many threads at once. Engines are
/// read-only over `&self`, so the bound is structural for all in-tree
/// executors (thin `&Catalog + &Dictionary` structs); an engine that wants
/// interior caching must make it thread-safe (`Mutex`/atomics).
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

    /// Renders the engine's plan for a query as human-readable text.
    fn explain(&self, query: &Query) -> Result<String, LbrError> {
        Ok(format!(
            "engine: {}\nquery: {query}\n(this engine has no planning phase to explain)",
            self.name()
        ))
    }

    /// EXPLAIN ANALYZE: executes the query and renders the plan annotated
    /// with actual per-stage timings and estimated-vs-actual
    /// cardinalities. Only the LBR engine collects execution spans;
    /// other engines report the feature as unsupported.
    fn explain_analyze(&self, query: &Query) -> Result<String, LbrError> {
        let _ = query;
        Err(LbrError::Unsupported(format!(
            "EXPLAIN ANALYZE is only available on the lbr engine (this is `{}`)",
            self.name()
        )))
    }

    /// Runs the engine's planning pipeline once, returning an opaque plan
    /// that [`Engine::execute_planned`] reuses. Engines without a
    /// planning phase return a unit plan. Plans are `Send + Sync` so a
    /// shared plan cache can hand one plan to concurrent executions.
    fn plan_query(&self, query: &Query) -> Result<Box<dyn Any + Send + Sync>, LbrError> {
        let _ = query;
        Ok(Box::new(()))
    }

    /// Raw execution with a plan from [`Engine::plan_query`]. Engines
    /// must fall back to plain `execute_raw` when the plan is not theirs,
    /// so a prepared query can be re-bound to another engine.
    fn execute_planned_raw(&self, query: &Query, plan: &dyn Any) -> Result<QueryOutput, LbrError> {
        let _ = plan;
        self.execute_raw(query)
    }

    /// Executes with a plan from [`Engine::plan_query`], applying the
    /// shared form/modifier seam to the raw planned execution.
    fn execute_planned(&self, query: &Query, plan: &dyn Any) -> Result<QueryOutput, LbrError> {
        Ok(finalize(
            self.execute_planned_raw(query, plan)?,
            query,
            self.dict(),
        ))
    }
}
