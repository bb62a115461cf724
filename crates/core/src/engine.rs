//! The query executor: Algorithm 5.1 end-to-end, plus the §5.2 handling of
//! UNION (UNION normal form), FILTER (init masks + FaN) and Cartesian
//! products (×-free components evaluated with LBR, combined pairwise).
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
use crate::bindings::{Binding, QueryOutput, VarTable};
use crate::error::LbrError;
use crate::filter_eval::{self, VarLookup};
use crate::hash_join::{hash_join, Kind, Relation};
use crate::init::{absolute_master_empty, init, TpState};
use crate::jvar_order::{get_jvar_order, JvarOrder};
use crate::multiway::{multi_way_join, schedule, JoinInputs};
use crate::prune::{prune_triples, PruneOutcome, PruneScratch};
use crate::selectivity::estimate_all;
use crate::QueryStats;
use lbr_bitmat::Catalog;
use lbr_rdf::{Dictionary, Term};
use lbr_sparql::algebra::{Expr, GraphPattern, Modifiers, Query, QueryForm};
use lbr_sparql::classify::{analyze, Analyzed};
use lbr_sparql::rewrite::rewrite_to_unf;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

thread_local! {
    /// Per-thread prune scratch pool: one per serving/worker thread, so
    /// repeated queries reuse the fold/intersection buffers across
    /// executions (the zero-allocation steady state on the cached-plan
    /// serving path).
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
#[derive(Debug, Clone)]
pub struct LbrPlan {
    /// Final projected variables (what the caller sees).
    projection: Vec<String>,
    /// Raw row schema: projection plus non-projected ORDER BY keys.
    exec_vars: Vec<String>,
    /// The query form (SELECT dedup / ASK).
    form: QueryForm,
    /// The solution modifiers.
    modifiers: Modifiers,
    pub(crate) any_rule3: bool,
    pub(crate) branches: Vec<PlanNode>,
}

impl LbrPlan {
    /// The projected variable names, in projection order.
    pub fn projection(&self) -> &[String] {
        &self.projection
    }

    /// Number of UNION-normal-form branches.
    pub fn n_branches(&self) -> usize {
        self.branches.len()
    }

    /// The raw-row quota the multi-way join runs under (LIMIT/ASK
    /// pushdown), when the plan's form and modifiers admit one.
    pub fn row_quota(&self) -> Option<usize> {
        if self.any_rule3 {
            // Cross-branch minimum-union can drop rows after the join —
            // no raw-row bound is sound.
            return None;
        }
        crate::modifiers::row_quota(&self.form, &self.modifiers)
    }
}

/// One planned evaluation step, mirroring the §5.2 recursion.
#[derive(Debug, Clone)]
pub(crate) enum PlanNode {
    /// A variable-connected, union-free pattern: Algorithm 5.1 proper.
    Connected(Box<ConnectedPlan>),
    /// Cartesian fallback: inner join of two disconnected parts.
    Join(Box<PlanNode>, Box<PlanNode>),
    /// Cartesian fallback: left-outer join of two disconnected parts.
    LeftJoin(Box<PlanNode>, Box<PlanNode>),
    /// Post-hoc FILTER over a disconnected part.
    Filter(Box<PlanNode>, Expr),
    /// A BGP split into variable-connected components, inner-combined.
    Product(Vec<PlanNode>),
}

/// The cached analysis of one connected pattern.
#[derive(Debug, Clone)]
pub(crate) struct ConnectedPlan {
    pub(crate) analyzed: Analyzed,
    pub(crate) vt: VarTable,
    pub(crate) estimates: Vec<u64>,
    pub(crate) jorder: JvarOrder,
}

/// Result of evaluating one union-free / connected sub-pattern.
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
    /// analysis, classification, variable table, selectivity estimates
    /// and jvar orders.
    pub fn plan(&self, query: &Query) -> Result<LbrPlan, LbrError> {
        let branches = rewrite_to_unf(&query.pattern);
        let any_rule3 = branches.iter().any(|b| b.used_rule3);
        let planned = branches
            .iter()
            .map(|b| self.plan_pattern(&b.pattern))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LbrPlan {
            projection: query.projected_vars(),
            exec_vars: query.exec_vars(),
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
            &plan.projection,
            self.dict,
        ))
    }

    /// Raw evaluation of a cached plan: per-branch LBR evaluation →
    /// bag-union of branches (+ best-match when rule (3) was used) →
    /// projection onto the plan's execution schema. When the plan admits
    /// a LIMIT/ASK row quota it is pushed into the multi-way join's seed
    /// enumeration, threaded across UNION branches (a later branch only
    /// needs what earlier branches did not already supply).
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
            let mut part = self.exec_node(branch, remaining)?;
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

    /// Plans one union-free pattern; splits off Cartesian-product
    /// components when the pattern is not variable-connected.
    fn plan_pattern(&self, pattern: &GraphPattern) -> Result<PlanNode, LbrError> {
        let analyzed = analyze(pattern)?;
        if analyzed.class.connected {
            let vt = VarTable::from_tps(analyzed.gosn.tps())?;
            let estimates = estimate_all(analyzed.gosn.tps(), self.dict, self.catalog);
            let jorder = get_jvar_order(&analyzed.gosn, &analyzed.goj, &vt, &estimates);
            return Ok(PlanNode::Connected(Box::new(ConnectedPlan {
                analyzed,
                vt,
                estimates,
                jorder,
            })));
        }
        // §5.2 Cartesian handling: evaluate ×-free sub-patterns with LBR
        // and combine pairwise at the disconnection points.
        match pattern {
            GraphPattern::Join(l, r) => Ok(PlanNode::Join(
                Box::new(self.plan_pattern(l)?),
                Box::new(self.plan_pattern(r)?),
            )),
            GraphPattern::LeftJoin(l, r) => Ok(PlanNode::LeftJoin(
                Box::new(self.plan_pattern(l)?),
                Box::new(self.plan_pattern(r)?),
            )),
            GraphPattern::Filter(inner, e) => Ok(PlanNode::Filter(
                Box::new(self.plan_pattern(inner)?),
                e.clone(),
            )),
            GraphPattern::Bgp(tps) => {
                // Split the BGP into variable-connected components.
                let comps = bgp_components(tps);
                debug_assert!(!comps.is_empty(), "BGP has at least one component");
                Ok(PlanNode::Product(
                    comps
                        .into_iter()
                        .map(|comp| self.plan_pattern(&GraphPattern::Bgp(comp)))
                        .collect::<Result<Vec<_>, _>>()?,
                ))
            }
            GraphPattern::Union(_, _) => Err(LbrError::Unsupported(
                "UNION survived the UNF rewrite".into(),
            )),
        }
    }

    /// Evaluates one planned node. `quota` is the LIMIT/ASK row bound for
    /// this node's own output; it is only exploitable by a directly
    /// connected pattern (Algorithm 5.1 emits final rows), so combiner
    /// nodes — whose post-processing can drop or multiply rows — evaluate
    /// their children unbounded.
    fn exec_node(&self, node: &PlanNode, quota: Option<usize>) -> Result<PartResult, LbrError> {
        match node {
            PlanNode::Connected(cp) => self.eval_connected(cp, quota),
            PlanNode::Join(l, r) => {
                let a = self.exec_node(l, None)?;
                let b = self.exec_node(r, None)?;
                Ok(combine(a, b, Kind::Inner))
            }
            PlanNode::LeftJoin(l, r) => {
                let a = self.exec_node(l, None)?;
                let b = self.exec_node(r, None)?;
                Ok(combine(a, b, Kind::LeftOuter))
            }
            PlanNode::Filter(inner, e) => {
                let mut part = self.exec_node(inner, None)?;
                // One name → column map per filter, not one linear scan
                // per variable per row.
                let columns: HashMap<&str, usize> = part
                    .rel
                    .vars
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v.as_str(), i))
                    .collect();
                part.rel.rows.retain(|row| {
                    let lk = IndexedRowLookup {
                        columns: &columns,
                        row,
                        dict: self.dict,
                    };
                    filter_eval::eval(e, &lk)
                });
                Ok(part)
            }
            PlanNode::Product(comps) => {
                let mut acc: Option<PartResult> = None;
                for comp in comps {
                    let part = self.exec_node(comp, None)?;
                    acc = Some(match acc {
                        None => part,
                        Some(prev) => combine(prev, part, Kind::Inner),
                    });
                }
                Ok(acc.expect("BGP has at least one component"))
            }
        }
    }

    /// Algorithm 5.1 for one connected, union-free pattern.
    ///
    /// A `quota` (LIMIT/ASK pushdown) short-circuits the multi-way join's
    /// seed enumeration. It is only used when the classification rules
    /// out best-match (`!nb_required` — best-match could drop rows and
    /// leave fewer than available); if nullification unexpectedly fires
    /// as the safety net on a quota-truncated run, the join is re-run
    /// unbounded so correctness never depends on the bound.
    fn eval_connected(
        &self,
        cp: &ConnectedPlan,
        quota: Option<usize>,
    ) -> Result<PartResult, LbrError> {
        let analyzed = &cp.analyzed;
        let gosn = &analyzed.gosn;
        let vt = &cp.vt;
        let jorder = &cp.jorder;
        let estimates = &cp.estimates;
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
                rel: Relation::empty(vt.names().to_vec()),
                stats,
                needs_best_match: false,
            })
        };

        // init with active pruning; it stops at an empty absolute master.
        let t = Instant::now();
        let loaded = init(gosn, vt, jorder, estimates, self.dict, self.catalog)?;
        let init_attrs = [
            ("tps_loaded", loaded.tps_loaded),
            ("triples_loaded", loaded.triples_loaded),
        ];
        let Some(mut tps) = loaded.tps else {
            lbr_obs::span_since("init", t, &init_attrs);
            return aborted(stats);
        };
        // Single-variable supernode filters become init-time masks; the
        // rest go to the FaN hook.
        let mut fan_filters: Vec<(Option<usize>, &Expr)> = Vec::new();
        for sn in 0..gosn.n_supernodes() {
            for expr in gosn.sn_filters(sn) {
                if !self.apply_filter_mask(sn, expr, gosn, vt, &mut tps) {
                    fan_filters.push((Some(sn), expr));
                }
            }
        }
        for expr in gosn.global_filters() {
            fan_filters.push((None, expr));
        }
        lbr_obs::span_since("init", t, &init_attrs);

        if absolute_master_empty(gosn, &tps) {
            return aborted(stats);
        }

        // prune_triples, through the thread's long-lived scratch pool:
        // fold masks, intersection results and work lists are reused
        // across every jvar of both passes — and, because the pool is
        // thread-local, across *queries* on a serving thread (no
        // allocation in the steady-state inner loop once warm).
        let t = Instant::now();
        let (outcome, intersections) = PRUNE_SCRATCH.with_borrow_mut(|prune_scratch| {
            let outcome = prune_triples(
                &mut tps,
                gosn,
                &analyzed.goj,
                vt,
                jorder,
                &dims,
                prune_scratch,
            );
            (outcome, prune_scratch.intersections())
        });
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
        let quota = quota.filter(|_| !analyzed.class.nb_required);
        let inputs = JoinInputs {
            tps: &tps,
            order: &order,
            gosn,
            vt,
            dims,
            dict: self.dict,
            fan_filters,
            quota,
            deadline: self.deadline,
        };
        let (mut rows, mut exec) = multi_way_join(&inputs);
        if let Some(q) = quota {
            if exec.nullification_fired > 0 && rows.len() >= q && !exec.deadline_expired {
                // The safety-net nullification fired on a quota-truncated
                // run: best-match may now drop rows, so the truncation
                // could under-deliver. Re-run unbounded (rare: acyclic WD
                // queries never nullify, Lemma 3.3).
                let inputs = JoinInputs {
                    quota: None,
                    ..inputs
                };
                (rows, exec) = multi_way_join(&inputs);
            }
        }
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
            ],
        );
        stats.nullification_fired = exec.nullification_fired;
        stats.join_seeds = exec.seeds_enumerated;

        Ok(PartResult {
            rel: Relation {
                vars: vt.names().to_vec(),
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

    /// EXPLAIN ANALYZE: plans the query once, executes that plan under a
    /// forced local trace (no sampler involved — the spans are consumed
    /// directly), and renders the same plan annotated with actual
    /// per-stage wall time, per-TP and per-jvar estimated-vs-actual
    /// cardinalities, and join seeds/rows.
    pub fn explain_analyze(&self, query: &Query) -> Result<String, LbrError> {
        let plan = self.plan(query)?;
        let mut spans = Vec::new();
        let t0 = Instant::now();
        let result = traced(&mut spans, || self.execute_plan(&plan));
        let total = t0.elapsed();
        let output = result?;
        Ok(crate::explain::render_analyze(
            query, &plan, &spans, total, &output,
        ))
    }

    /// Applies a single-variable filter as an init-time candidate mask on
    /// every TP of the supernode containing that variable. Returns `false`
    /// when the filter must be handled by the FaN hook instead: it is not
    /// single-variable, or its variable is not bound inside this supernode
    /// (so the mask would have nothing to apply to).
    fn apply_filter_mask(
        &self,
        sn: usize,
        expr: &Expr,
        gosn: &lbr_sparql::gosn::Gosn,
        vt: &VarTable,
        tps: &mut [TpState],
    ) -> bool {
        let vars: Vec<&str> = expr.vars().into_iter().collect();
        let [name] = vars.as_slice() else {
            return false;
        };
        let Some(var) = vt.id(name) else {
            // The variable occurs nowhere in the pattern, so it can never
            // be bound and the filter is row-independent: evaluate it once
            // with the variable unbound (SPARQL error → `false`, per the
            // documented collapse). `true` keeps every row — a genuine
            // no-op; `false` goes to the FaN hook, which drops every
            // master row / nullifies the slave supernode.
            return filter_eval::eval(expr, &filter_eval::PairLookup(&[]));
        };
        let dims = self.catalog.dims();
        let mut masked_any = false;
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
                let holder = SingleLookup { name, term };
                if filter_eval::eval(expr, &holder) {
                    mask.set(id);
                }
            }
            tps[tp].unfold_var(var, &mask);
            masked_any = true;
        }
        // The variable exists in the pattern but no TP of *this* supernode
        // binds it: FaN the filter — its supernode-scoped evaluation reads
        // the out-of-scope variable as unbound, like the reference oracle.
        masked_any
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

struct SingleLookup<'a> {
    name: &'a str,
    term: &'a Term,
}

impl VarLookup for SingleLookup<'_> {
    fn term(&self, name: &str) -> Option<&Term> {
        (name == self.name).then_some(self.term)
    }
}

/// Row lookup for post-hoc FILTER evaluation backed by a name → column
/// map built once per filter (the per-variable scan was O(vars) per row).
struct IndexedRowLookup<'a> {
    columns: &'a HashMap<&'a str, usize>,
    row: &'a [Option<Binding>],
    dict: &'a Dictionary,
}

impl VarLookup for IndexedRowLookup<'_> {
    fn term(&self, name: &str) -> Option<&Term> {
        let i = *self.columns.get(name)?;
        self.row[i].as_ref().map(|b| b.decode(self.dict))
    }
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

/// Pairwise combination of two part results on their shared variables —
/// the "standard relational technique" fallback for Cartesian patterns
/// (§5.2). Null-intolerant on the join keys, as in Appendix B.
fn combine(a: PartResult, b: PartResult, kind: Kind) -> PartResult {
    let mut stats = a.stats;
    merge_stats(&mut stats, &b.stats);
    PartResult {
        rel: hash_join(&a.rel, &b.rel, kind),
        stats,
        needs_best_match: a.needs_best_match || b.needs_best_match,
    }
}

/// Splits a BGP's TPs into variable-connected components.
fn bgp_components(
    tps: &[lbr_sparql::algebra::TriplePattern],
) -> Vec<Vec<lbr_sparql::algebra::TriplePattern>> {
    let n = tps.len();
    let mut comp = vec![usize::MAX; n];
    let mut n_comp = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = n_comp;
        while let Some(i) = stack.pop() {
            for j in 0..n {
                if comp[j] == usize::MAX && tps[i].vars().iter().any(|v| tps[j].has_var(v)) {
                    comp[j] = n_comp;
                    stack.push(j);
                }
            }
        }
        n_comp += 1;
    }
    let mut out = vec![Vec::new(); n_comp];
    for (i, tp) in tps.iter().enumerate() {
        out[comp[i]].push(tp.clone());
    }
    out
}
