//! The query executor: Algorithm 5.1 end-to-end, plus the §5.2 handling of
//! UNION (UNION normal form) and FILTER (init masks + FaN). Every
//! union-free branch, Cartesian products included, runs through the one
//! init → prune → multi-way join pipeline, and each branch runs the join
//! once. A LIMIT/ASK quota reaches only the branches the classification
//! calls final at emission
//! ([`lbr_sparql::classify::QueryClass::final_at_emission`]): their join
//! never nullifies, so a run cut at the quota needs no best-match.
//!
//! Execution is split into two phases so prepared queries can cache the
//! expensive front half:
//!
//! * [`LbrEngine::plan`] — UNF rewrite, per-branch GoSN/GoJ analysis and
//!   classification, variable-table construction, selectivity estimation
//!   and jvar ordering, producing an [`LbrPlan`];
//! * [`LbrEngine::execute_plan`] — init, `prune_triples` and the
//!   multi-way join against the current catalog.
//!
//! [`LbrEngine::execute`] simply runs both; repeated execution through a
//! prepared query skips straight to the second phase.

use crate::api::Engine;
use crate::best_match::best_match;
use crate::bindings::{QueryOutput, VarId, VarTable};
use crate::error::LbrError;
use crate::filter_eval::{self, PairLookup};
use crate::init::{absolute_master_empty, init, TpState};
use crate::jvar_order::{get_jvar_order, JvarOrder};
use crate::multiway::{multi_way_join, schedule, JoinInputs};
use crate::prune::{prune_triples, PruneOutcome, PruneScratch};
use crate::relation::Relation;
use crate::selectivity::{estimate_all, resolve, TpKey};
use crate::QueryStats;
use lbr_bitmat::Catalog;
use lbr_rdf::Dictionary;
use lbr_sparql::algebra::{Expr, GraphPattern, Modifiers, Query, QueryForm};
use lbr_sparql::classify::{analyze, Analyzed};
use lbr_sparql::gosn::Gosn;
use lbr_sparql::rewrite::rewrite_to_unf;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Per-thread scratch pool of `init` and prune: one per
    /// serving/worker thread, so repeated queries reuse the fold memo's
    /// buffers, the β mask and the work lists across executions (the
    /// zero-allocation steady state on the cached-plan serving path).
    static PRUNE_SCRATCH: RefCell<PruneScratch> = RefCell::new(PruneScratch::new());
}

/// The Left Bit Right engine over a BitMat catalog.
pub struct LbrEngine<'a, C: Catalog> {
    catalog: &'a C,
    dict: &'a Dictionary,
    /// Execution deadline: evaluation past this instant aborts with
    /// [`LbrError::DeadlineExceeded`] instead of finishing the answer —
    /// the serving layer's per-request timeout seam.
    deadline: Option<Instant>,
}

/// A cached execution plan: everything [`LbrEngine::execute`] derives
/// from the query text before touching data — including the query form
/// and solution modifiers, so a plan alone can be executed to a final
/// answer (and the LIMIT/ASK row quota can be re-derived on every run).
///
/// Plans embed encoded constant IDs and per-TP selectivity estimates, so
/// a plan is specific to the catalog and dictionary that produced it;
/// callers that cache plans across updates (the `lbr::Database` facade)
/// stamp them with the epoch they were planned at and re-plan on a
/// mismatch.
///
/// A plan owns everything it holds (it is `'static`): it borrows neither
/// the query nor the dictionary. A cached plan sits beside its parsed
/// query (`lbr::CachedPlan`, `lbr::PreparedQuery`) and crosses threads in
/// the plan cache, which a plan borrowing from its neighbour could do
/// only as a self-referential struct. Planning therefore copies out only
/// what execution reads: variable names once, constants as dictionary
/// IDs, filter expressions, the form and the modifiers. No triple pattern
/// is cloned.
#[derive(Debug, Clone)]
pub struct LbrPlan {
    /// Raw row schema: the projection (what the caller sees) first, then
    /// non-projected ORDER BY keys.
    exec_vars: Vec<String>,
    /// Length of the projection prefix of `exec_vars`.
    n_projected: usize,
    /// The query form (SELECT dedup / ASK).
    form: QueryForm,
    /// The solution modifiers.
    modifiers: Modifiers,
    pub(crate) any_rule3: bool,
    pub(crate) branches: Vec<BranchPlan>,
}

impl LbrPlan {
    /// The projected variable names, in projection order.
    pub fn projection(&self) -> &[String] {
        &self.exec_vars[..self.n_projected]
    }

    /// Number of UNION-normal-form branches.
    pub fn n_branches(&self) -> usize {
        self.branches.len()
    }

    /// The raw-row quota of the LIMIT/ASK pushdown, when the plan's form
    /// and modifiers admit one. Only a branch that is final at emission
    /// runs its join under it.
    pub fn row_quota(&self) -> Option<usize> {
        if self.any_rule3 {
            // Cross-branch minimum-union can drop rows after the join —
            // no raw-row bound is sound.
            return None;
        }
        crate::modifiers::row_quota(&self.form, &self.modifiers)
    }
}

/// The cached analysis of one union-free branch.
#[derive(Debug, Clone)]
pub struct BranchPlan {
    /// GoSN (Appendix-B transformed when not well-designed), GoJ and
    /// classification.
    pub analyzed: Analyzed,
    /// The branch's variables and their binding spaces.
    pub vt: VarTable,
    /// Each TP's positions, constants resolved to dictionary IDs.
    pub keys: Vec<TpKey>,
    /// Per-TP selectivity estimates.
    pub estimates: Vec<u64>,
    /// Algorithm 3.1's jvar orders.
    pub jorder: JvarOrder,
}

impl BranchPlan {
    /// Plans one union-free pattern against a catalog and its dictionary:
    /// analysis, variable table, constants resolved once, estimates and
    /// jvar orders. A variable-disconnected pattern plans like any other:
    /// the join visits each component as a new root.
    pub fn new(
        pattern: &GraphPattern,
        dict: &Dictionary,
        catalog: &impl Catalog,
    ) -> Result<BranchPlan, LbrError> {
        let analyzed = analyze(pattern)?;
        let vt = VarTable::new(&analyzed.gosn)?;
        let keys = resolve(pattern, &analyzed.gosn, dict);
        let estimates = estimate_all(&keys, catalog);
        let jorder = get_jvar_order(&analyzed.gosn, &analyzed.goj, &estimates);
        Ok(BranchPlan {
            analyzed,
            vt,
            keys,
            estimates,
            jorder,
        })
    }
}

/// Result of evaluating one union-free branch.
struct PartResult {
    rel: Relation,
    stats: QueryStats,
    /// Whether this part may contain subsumed rows (nullification fired or
    /// a FaN filter nullified a slave).
    needs_best_match: bool,
}

impl<'a, C: Catalog> LbrEngine<'a, C> {
    /// Creates an engine over a catalog and its dictionary.
    pub fn new(catalog: &'a C, dict: &'a Dictionary) -> Self {
        LbrEngine {
            catalog,
            dict,
            deadline: None,
        }
    }

    /// Sets an execution deadline: once it passes, the multi-way join
    /// stops enumerating seeds (polled on the quota seam, so the abort is
    /// prompt even mid-join) and execution returns
    /// [`LbrError::DeadlineExceeded`]. `None` (the default) never expires.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// True once the configured deadline (if any) has passed.
    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Executes a query: plan, then run the plan (raw evaluation plus the
    /// shared form/modifier seam).
    pub fn execute(&self, query: &Query) -> Result<QueryOutput, LbrError> {
        self.execute_plan(&self.plan(query)?)
    }

    /// Runs the planning pipeline: UNF rewrite → per-branch GoSN/GoJ
    /// analysis, classification, variable table, constant IDs,
    /// selectivity estimates and jvar orders ([`BranchPlan::new`]). Records
    /// the one `plan` span of a planning, whoever asked for it.
    pub fn plan(&self, query: &Query) -> Result<LbrPlan, LbrError> {
        let t = Instant::now();
        let branches = rewrite_to_unf(&query.pattern);
        let any_rule3 = branches.iter().any(|b| b.used_rule3);
        let mut planned = Vec::with_capacity(branches.len());
        for b in &branches {
            planned.push(BranchPlan::new(&b.pattern, self.dict, self.catalog)?);
        }
        let (exec_vars, n_projected) = query.exec_schema();
        lbr_obs::span_since("plan", t, &[("branches", planned.len() as u64)]);
        Ok(LbrPlan {
            exec_vars,
            n_projected,
            form: query.form.clone(),
            modifiers: query.modifiers.clone(),
            any_rule3,
            branches: planned,
        })
    }

    /// Executes a cached plan end-to-end: raw evaluation
    /// ([`LbrEngine::execute_plan_raw`]) followed by the shared
    /// form/modifier seam ([`crate::modifiers::finalize_parts`]).
    pub fn execute_plan(&self, plan: &LbrPlan) -> Result<QueryOutput, LbrError> {
        let raw = self.execute_plan_raw(plan)?;
        Ok(crate::modifiers::finalize_parts(
            raw,
            &plan.form,
            &plan.modifiers,
            plan.projection(),
            self.dict,
        ))
    }

    /// Raw evaluation of a cached plan: per-branch LBR evaluation →
    /// bag-union of branches (+ best-match when rule (3) was used) →
    /// projection onto the plan's execution schema. When the plan admits
    /// a LIMIT/ASK row quota it is pushed into the multi-way join's seed
    /// enumeration of each final-at-emission branch, threaded across
    /// UNION branches (a later branch only needs what earlier branches
    /// did not already supply).
    pub fn execute_plan_raw(&self, plan: &LbrPlan) -> Result<QueryOutput, LbrError> {
        let t0 = Instant::now();
        let mut stats = QueryStats::default();
        let mut remaining = plan.row_quota();
        let mut parts = Vec::with_capacity(plan.branches.len());
        for (branch_id, branch) in plan.branches.iter().enumerate() {
            if remaining == Some(0) {
                break; // earlier branches already supplied every needed row
            }
            if self.deadline_passed() {
                // Between branches (and before init/prune of the next
                // one): cheap exact check on the same seam the join polls.
                return Err(LbrError::DeadlineExceeded);
            }
            // Zero-duration marker delimiting this branch's span group
            // (the trace renderer partitions stage spans by these).
            lbr_obs::span_at(
                "branch",
                t0,
                std::time::Duration::ZERO,
                &[("branch", branch_id as u64)],
            );
            let mut part = PRUNE_SCRATCH
                .with_borrow_mut(|scratch| self.eval_branch(branch, remaining, scratch))?;
            if part.needs_best_match {
                let t_bm = Instant::now();
                best_match(&mut part.rel.rows);
                lbr_obs::span_since("best_match", t_bm, &[("rows", part.rel.rows.len() as u64)]);
            }
            if let Some(r) = remaining {
                remaining = Some(r.saturating_sub(part.rel.rows.len()));
            }
            merge_stats(&mut stats, &part.stats);
            parts.push(part);
        }
        let mut all_rows = Vec::new();
        if plan.any_rule3 {
            // Rule (3) branches can produce spurious subsumed rows across
            // branches; minimum-union them away (§5.2). Subsumption is
            // defined over the branches' *full* schemas, so the branches
            // are aligned onto the union of their variables and
            // best-matched there *before* projection — projecting first
            // could erase a column that distinguishes two rows and drop a
            // row that is only spuriously subsumed post-projection.
            let mut full = Relation::empty(Vec::new());
            for v in parts.iter().flat_map(|part| &part.rel.vars) {
                if !full.vars.contains(v) {
                    full.vars.push(v.clone());
                }
            }
            for part in &parts {
                part.rel.project_into(&full.vars, &mut full.rows);
            }
            let t_bm = Instant::now();
            best_match(&mut full.rows);
            lbr_obs::span_since("best_match", t_bm, &[("rows", full.rows.len() as u64)]);
            full.project_into(&plan.exec_vars, &mut all_rows);
        } else {
            // Re-project each branch's rows onto the execution schema
            // (the projection plus any non-projected ORDER BY key — the
            // shared seam drops the extras after sorting). Rows already in
            // that schema are moved, not copied, while nothing is ahead of
            // them.
            for part in &mut parts {
                if part.rel.vars == plan.exec_vars && all_rows.is_empty() {
                    all_rows = std::mem::take(&mut part.rel.rows);
                } else {
                    part.rel.project_into(&plan.exec_vars, &mut all_rows);
                }
            }
        }
        stats.n_results = all_rows.len();
        stats.n_results_with_nulls = all_rows
            .iter()
            .filter(|r| r.iter().any(|c| c.is_none()))
            .count();
        Ok(QueryOutput {
            vars: plan.exec_vars.clone(),
            rows: all_rows,
            stats,
        })
    }

    /// Algorithm 5.1 for one union-free pattern.
    ///
    /// A `quota` (LIMIT/ASK pushdown) short-circuits the multi-way join's
    /// seed enumeration, on a branch that is final at emission only: there
    /// every emitted row is an answer row, so the first `quota` rows are
    /// as good as any. Any other branch runs unbounded, and best-match
    /// folds what its nullification subsumed. Debug builds assert that a
    /// final branch never nullifies.
    ///
    /// `scratch` is the thread's pool; `init` fills its fold memo and
    /// prune starts from it.
    fn eval_branch(
        &self,
        plan: &BranchPlan,
        quota: Option<usize>,
        scratch: &mut PruneScratch,
    ) -> Result<PartResult, LbrError> {
        let analyzed = &plan.analyzed;
        let gosn = &analyzed.gosn;
        let vt = &plan.vt;
        let jorder = &plan.jorder;
        let estimates = &plan.estimates;
        let dims = self.catalog.dims();
        let mut stats = QueryStats {
            nb_required: analyzed.class.nb_required,
            initial_triples: estimates.iter().sum(),
            ..Default::default()
        };

        // An empty part: §5's early abort, once an absolute master is empty.
        let aborted = |mut stats: QueryStats| {
            stats.aborted_empty = true;
            Ok(PartResult {
                rel: Relation::empty(schema(gosn)),
                stats,
                needs_best_match: false,
            })
        };

        // init with active pruning; it stops at an empty absolute master.
        let t = Instant::now();
        let loaded = init(gosn, &plan.keys, jorder, estimates, self.catalog, scratch)?;
        let init_attrs = [
            ("tps_loaded", loaded.tps_loaded),
            ("triples_loaded", loaded.triples_loaded),
        ];
        let Some(mut tps) = loaded.tps else {
            lbr_obs::span_since("init", t, &init_attrs);
            return aborted(stats);
        };
        // Single-variable supernode filters become init-time masks; the
        // rest, and the group filters, go to the FaN hook.
        let mut fan_filters: Vec<(usize, &Expr)> = Vec::new();
        for sn in 0..gosn.n_supernodes() {
            for expr in gosn.sn_filters(sn) {
                match gosn.mask_var(sn, expr) {
                    Some(var) => self.apply_filter_mask(sn, var, expr, gosn, &mut tps),
                    None => fan_filters.push((sn, expr)),
                }
            }
        }
        lbr_obs::span_since("init", t, &init_attrs);

        if absolute_master_empty(gosn, &tps) {
            return aborted(stats);
        }

        // prune_triples, through the thread's long-lived scratch pool: it
        // starts from the folds init memoized, and its buffers are reused
        // across every jvar of both passes — and, because the pool is
        // thread-local, across *queries* on a serving thread (no
        // allocation in the steady-state inner loop once warm).
        let t = Instant::now();
        let outcome = prune_triples(&mut tps, gosn, &analyzed.goj, jorder, &dims, scratch);
        let intersections = scratch.intersections();
        let t_prune = t.elapsed();
        stats.prune_intersections = intersections;
        stats.triples_after_pruning = tps.iter().map(TpState::count).sum();
        lbr_obs::span_at(
            "prune",
            t,
            t_prune,
            &[
                ("initial_triples", stats.initial_triples),
                ("triples_after_pruning", stats.triples_after_pruning),
                ("intersections", intersections),
            ],
        );
        if lbr_obs::trace_active() {
            // Per-TP estimate-vs-actual cardinality (the EXPLAIN ANALYZE
            // feed, and ROADMAP item 4's selectivity-error signal).
            // Zero-duration markers stamped at the prune boundary.
            for (tp_id, tp) in tps.iter().enumerate() {
                lbr_obs::span_at(
                    "tp",
                    t,
                    std::time::Duration::ZERO,
                    &[
                        ("tp", tp_id as u64),
                        ("est", estimates.get(tp_id).copied().unwrap_or(0)),
                        ("actual", tp.count()),
                    ],
                );
            }
        }
        if outcome == PruneOutcome::EmptyAbsoluteMaster {
            return aborted(stats);
        }

        // Multi-way pipelined join, over the schedule fixed once here.
        let t = Instant::now();
        let order = schedule(&mut tps, gosn);
        let final_at_emission = analyzed.class.final_at_emission;
        let inputs = JoinInputs {
            tps: &tps,
            order: &order,
            gosn,
            vt,
            dims,
            dict: self.dict,
            fan_filters,
            quota: quota.filter(|_| final_at_emission),
            deadline: self.deadline,
        };
        let (rows, exec) = multi_way_join(&inputs);
        debug_assert!(
            !final_at_emission || exec.nullification_fired == 0,
            "a branch classified final at emission nullified: {}",
            gosn.serialized()
        );
        if exec.deadline_expired {
            // The rows are an arbitrary truncation of the answer, not a
            // prefix the caller asked for — discard and report.
            return Err(LbrError::DeadlineExceeded);
        }
        lbr_obs::span_since(
            "join",
            t,
            &[
                ("seeds", exec.seeds_enumerated),
                ("rows", rows.len() as u64),
                ("steps", exec.steps),
                ("run_steps", exec.run_steps),
                ("dropped", exec.dropped),
            ],
        );
        stats.nullification_fired = exec.nullification_fired;
        stats.join_seeds = exec.seeds_enumerated;

        Ok(PartResult {
            rel: Relation {
                vars: schema(gosn),
                rows,
            },
            stats,
            needs_best_match: analyzed.class.nb_required || exec.nullification_fired > 0,
        })
    }

    /// Renders the plan for a query as human-readable text (EXPLAIN).
    pub fn explain(&self, query: &Query) -> Result<String, LbrError> {
        Ok(crate::explain::explain(query, &self.plan(query)?))
    }

    /// EXPLAIN ANALYZE: plans the query once and executes that plan, both
    /// under a forced local trace (no sampler involved — the spans are
    /// consumed directly), and renders the same plan annotated with its
    /// planning time, actual per-stage wall time, per-TP and per-jvar
    /// estimated-vs-actual cardinalities, and join seeds/rows.
    pub fn explain_analyze(&self, query: &Query) -> Result<String, LbrError> {
        let mut spans = Vec::new();
        let t0 = Instant::now();
        let result = traced(&mut spans, || {
            let plan = self.plan(query)?;
            self.execute_plan(&plan).map(|output| (plan, output))
        });
        let total = t0.elapsed();
        let (plan, output) = result?;
        Ok(crate::explain::render_analyze(
            query, &plan, &spans, total, &output,
        ))
    }

    /// Applies the filter `expr` of supernode `sn` as an init-time
    /// candidate mask on each TP of `sn` that binds `var`, the variable
    /// [`lbr_sparql::gosn::Gosn::mask_var`] found.
    fn apply_filter_mask(
        &self,
        sn: usize,
        var: VarId,
        expr: &Expr,
        gosn: &Gosn,
        tps: &mut [TpState],
    ) {
        let name = gosn.vars().name(var);
        let dims = self.catalog.dims();
        for &tp in gosn.tps_of_sn(sn) {
            // Fold in the TP's own position dimension so candidate IDs
            // decode through the right dictionary dimension.
            let Some(dim) = tps[tp].dim_of(var) else {
                continue;
            };
            let space_len = crate::bindings::op_space_len(&dims, [dim]);
            let Some(cands) = tps[tp].fold_var(var, space_len) else {
                continue;
            };
            let mut mask = lbr_bitmat::BitVec::zeros(space_len);
            for id in cands.iter_ones() {
                let term = self.dict.term(id, dim).expect("candidate decodes");
                if filter_eval::eval(expr, &PairLookup(&[(name, term)])) {
                    mask.set(id);
                }
            }
            tps[tp].unfold_var(var, &mask);
        }
    }
}

/// Runs `run` (an execution) under a forced local trace and leaves the
/// spans it recorded in `spans`, replacing its contents: the one way
/// EXPLAIN ANALYZE, `lbr-cli --stats` and `reproduce` read stage times.
/// Sum a stage with [`lbr_obs::stage_us`]. A comparator engine records no
/// `init` / `prune` / `join` spans.
///
/// Trace id 0 turns collection on and bypasses publication. This clobbers
/// any sampler-owned trace on the thread (the serving layer documents
/// `explain=analyze` requests as untraced).
pub fn traced<T>(spans: &mut Vec<lbr_obs::Span>, run: impl FnOnce() -> T) -> T {
    lbr_obs::trace_begin(0);
    let out = run();
    lbr_obs::trace_drain(spans, &mut String::new());
    out
}

impl<C: Catalog> Engine for LbrEngine<'_, C> {
    fn name(&self) -> &'static str {
        "lbr"
    }

    fn dict(&self) -> &Dictionary {
        self.dict
    }

    fn execute_raw(&self, query: &Query) -> Result<QueryOutput, LbrError> {
        let plan = self.plan(query)?;
        self.execute_plan_raw(&plan)
    }

    fn execute(&self, query: &Query) -> Result<QueryOutput, LbrError> {
        LbrEngine::execute(self, query)
    }
}

/// A branch's row schema: its variable names in id order.
fn schema(gosn: &Gosn) -> Vec<String> {
    gosn.vars().names().map(str::to_string).collect()
}

fn merge_stats(acc: &mut QueryStats, part: &QueryStats) {
    acc.initial_triples += part.initial_triples;
    acc.triples_after_pruning += part.triples_after_pruning;
    acc.nb_required |= part.nb_required;
    acc.nullification_fired += part.nullification_fired;
    acc.join_seeds += part.join_seeds;
    acc.prune_intersections += part.prune_intersections;
    acc.aborted_empty |= part.aborted_empty;
}
