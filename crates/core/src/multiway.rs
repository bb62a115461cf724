//! The multi-way pipelined join (Algorithm 5.4), with nullification and
//! the FaN (filter-and-nullification) hook of §5.2.
//!
//! TPs are visited depth-first in `stps` order (selective absolute masters
//! first, then down the master-slave hierarchy). Each recursion level
//! handles exactly one TP — the first unvisited one with at least one bound
//! variable — enumerating its triples consistent with the current variable
//! map. A slave TP with no consistent triple binds its remaining variables
//! to NULL; an absolute-master TP with no consistent triple rolls the
//! branch back. No pairwise intermediate results or hash tables are
//! materialized: the only extra memory is one slot per query variable
//! (the paper's `vmap`).
//!
//! Because masters precede slaves in `stps` and a level only binds
//! still-free variables, master bindings win over slave bindings for
//! shared variables — the paper's output rule.
//!
//! ## Cursor-based enumeration, zero-allocation steady state
//!
//! The recursion enumerates candidates **directly off the compressed
//! BitMat rows**: forward lookups iterate a TP's own matrix rows
//! ([`lbr_bitmat::BitRow::iter_ones`] cursors), reverse lookups iterate
//! the transposed copies built by `TpState::build_adjacency`, and
//! membership tests binary-search the compressed representation. No
//! candidate ID vectors or adjacency lists are materialized or cloned per
//! recursion level; the only per-row allocation left in the steady state
//! is the pushed result row itself (assembled in a reusable buffer first —
//! [`ExecStats::scratch_reuses`] counts those reuses).

use crate::bindings::{Binding, VarId, VarTable};
use crate::filter_eval::{self, VarLookup};
use crate::init::{TpData, TpState};
use lbr_bitmat::CubeDims;
use lbr_rdf::{Dictionary, Dimension, Term};
use lbr_sparql::algebra::Expr;
use lbr_sparql::gosn::{Gosn, SnId, TpId};
use std::cell::Cell;
use std::time::Instant;

/// How many [`Ctx::full`] polls elapse between wall-clock reads when a
/// deadline is set. `Instant::now()` is a vDSO call (~20ns) but the poll
/// sits on the seed-enumeration hot path, so it is amortized.
const DEADLINE_POLL_MASK: u32 = 0x3FF; // every 1024 polls

/// A variable slot in the paper's `vmap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not yet bound.
    Free,
    /// Bound to NULL by an unmatched slave.
    Null,
    /// Bound to a value.
    Val(Binding),
}

/// Inputs of the join phase.
pub struct JoinInputs<'a> {
    /// Loaded and pruned TPs (adjacency built).
    pub tps: &'a [TpState],
    /// The query's GoSN.
    pub gosn: &'a Gosn,
    /// Variable table.
    pub vt: &'a VarTable,
    /// Bitcube dimensions.
    pub dims: CubeDims,
    /// Dictionary (needed only to decode bindings for FaN filters).
    pub dict: &'a Dictionary,
    /// Filters evaluated at output time: `(Some(sn), e)` for supernode
    /// filters (failure nullifies slave supernodes / drops master rows),
    /// `(None, e)` for global filters (failure drops the row).
    ///
    /// Supernode filters are evaluated *scoped*: only variables occurring
    /// in a TP of that supernode are visible; any other variable reads as
    /// unbound, collapsing to `false` under the documented error→false
    /// semantics (this matches the compositional evaluation of the
    /// reference oracle).
    pub fan_filters: Vec<(Option<SnId>, &'a Expr)>,
    /// Early-exit row quota (LIMIT/ASK pushdown): the join stops *exactly*
    /// once this many rows have been emitted, so the produced rows are a
    /// prefix of the unbounded enumeration. `None` = run to completion.
    pub quota: Option<usize>,
    /// Execution deadline: once it passes, enumeration stops starting new
    /// subtrees (polled every `DEADLINE_POLL_MASK`+1 quota checks) and
    /// [`ExecStats::deadline_expired`] is set. The rows produced so far are
    /// discarded by the engine, which surfaces
    /// `LbrError::DeadlineExceeded` instead. `None` = no limit.
    pub deadline: Option<Instant>,
}

/// Statistics of the join phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Rows whose bindings the nullification operator rewrote (0 for
    /// well-designed acyclic queries — Lemma 3.3 in action).
    pub nullification_fired: u64,
    /// Rows dropped by FaN / global filters.
    pub rows_filtered: u64,
    /// Root-TP seeds (independent subtrees) the enumeration started.
    /// Without a quota this equals the root TP's full candidate
    /// enumeration; with one it stops at the seed producing the last
    /// needed row — the verifiable early-exit evidence.
    pub seeds_enumerated: u64,
    /// Rows assembled in the reusable row/failure scratch buffers instead
    /// of a fresh allocation — one per emit that survives the FaN stage.
    pub scratch_reuses: u64,
    /// Whether [`JoinInputs::deadline`] passed during the join — the rows
    /// returned alongside are then an arbitrary truncation, not an
    /// answer, and the caller must discard them.
    pub deadline_expired: bool,
}

/// The paper's `sorted-tps`: absolute masters ascending by remaining triple
/// count, then down the master-slave hierarchy, selective TPs first.
pub fn sort_tps(tps: &[TpState], gosn: &Gosn) -> Vec<TpId> {
    let mut order: Vec<TpId> = (0..tps.len()).collect();
    order.sort_by_key(|&tp| {
        let sn = gosn.sn_of_tp(tp);
        (gosn.masters_of(sn).len(), tps[tp].count(), tp)
    });
    order
}

/// Runs the multi-way join, returning full-width rows (one column per
/// variable in [`VarTable`] order).
pub fn multi_way_join(inp: &JoinInputs<'_>) -> (Vec<Vec<Option<Binding>>>, ExecStats) {
    let sh = Shared::new(inp);
    let mut ctx = Ctx::new(&sh);
    recurse(&mut ctx);
    ctx.stats.deadline_expired = ctx.expired.get();
    (ctx.rows, ctx.stats)
}

/// The read-only part of the join state, precomputed once per join and
/// borrowed apart from the mutable [`Ctx`] so the recursion can hold TP data
/// while it rebinds slots.
struct Shared<'a, 'b> {
    inp: &'b JoinInputs<'a>,
    stps: Vec<TpId>,
    /// Unvisited-TP count per supernode at the start of the join.
    sn_remaining0: Vec<usize>,
    /// `sn_vars[sn][var]`: does `var` occur in a TP of `sn`? The FILTER
    /// visibility scope for supernode filters.
    sn_vars: Vec<Vec<bool>>,
    /// Per-TP `(var, dim)` lists, precomputed once so the recursion's
    /// eligibility checks and NULL-binding sweeps never call the
    /// allocating `TpState::vars()`.
    tp_vars: Vec<Vec<(VarId, Dimension)>>,
}

impl<'a, 'b> Shared<'a, 'b> {
    fn new(inp: &'b JoinInputs<'a>) -> Shared<'a, 'b> {
        let stps = sort_tps(inp.tps, inp.gosn);
        let n_sn = inp.gosn.n_supernodes();
        let mut sn_remaining0 = vec![0usize; n_sn];
        let mut sn_vars = vec![vec![false; inp.vt.len()]; n_sn];
        let mut tp_vars = Vec::with_capacity(inp.tps.len());
        for (tp, state) in inp.tps.iter().enumerate() {
            let sn = inp.gosn.sn_of_tp(tp);
            sn_remaining0[sn] += 1;
            let vars = state.vars();
            for &(v, _) in &vars {
                sn_vars[sn][v] = true;
            }
            tp_vars.push(vars);
        }
        Shared {
            inp,
            stps,
            sn_remaining0,
            sn_vars,
            tp_vars,
        }
    }
}

/// The mutable join state: the variable map and the recursion bookkeeping.
struct Ctx<'s, 'a, 'b> {
    sh: &'s Shared<'a, 'b>,
    slots: Vec<Slot>,
    binder: Vec<TpId>,
    visited: Vec<bool>,
    n_visited: usize,
    nulled: Vec<bool>,
    /// Unvisited TP count per supernode; a TP only becomes eligible once
    /// every TP of every *master* supernode is visited, so a failing slave
    /// can never poison a master's variable with NULL.
    sn_remaining: Vec<usize>,
    rows: Vec<Vec<Option<Binding>>>,
    /// Reusable failed-supernode buffer of [`Ctx::emit`].
    failed: Vec<bool>,
    /// Reusable row-assembly buffer of [`Ctx::emit`]; only rows that
    /// survive every filter are cloned out of it into `rows`.
    row_buf: Vec<Option<Binding>>,
    /// Deadline-poll counter: [`Ctx::full`] reads the wall clock only
    /// every `DEADLINE_POLL_MASK + 1` calls.
    poll: Cell<u32>,
    /// Set once [`JoinInputs::deadline`] is observed to have passed, so
    /// every later poll stops without re-reading the clock.
    expired: Cell<bool>,
    stats: ExecStats,
}

impl<'s, 'a, 'b> Ctx<'s, 'a, 'b> {
    fn new(sh: &'s Shared<'a, 'b>) -> Ctx<'s, 'a, 'b> {
        Ctx {
            sh,
            slots: vec![Slot::Free; sh.inp.vt.len()],
            binder: vec![usize::MAX; sh.inp.vt.len()],
            visited: vec![false; sh.inp.tps.len()],
            n_visited: 0,
            nulled: vec![false; sh.inp.tps.len()],
            sn_remaining: sh.sn_remaining0.clone(),
            rows: Vec::new(),
            failed: Vec::new(),
            row_buf: Vec::new(),
            poll: Cell::new(0),
            expired: Cell::new(false),
            stats: ExecStats::default(),
        }
    }

    // lbr-lint: no_alloc — TP selection and binding bookkeeping on the hot path.
    /// The first unvisited TP in `stps` order that (a) has a bound variable
    /// or no variables at all, and (b) whose master supernodes are fully
    /// visited — the strengthened form of the paper's "masters generate
    /// variable bindings before slaves" invariant. Falls back to the first
    /// master-complete unvisited TP (the very first call, and defensively
    /// for Cartesian shapes the engine normally splits beforehand).
    fn select_next(&self) -> TpId {
        let gosn = self.sh.inp.gosn;
        let masters_done = |tp: TpId| {
            gosn.masters_of(gosn.sn_of_tp(tp))
                .iter()
                .all(|&m| self.sn_remaining[m] == 0)
        };
        for &tp in &self.sh.stps {
            if self.visited[tp] || !masters_done(tp) {
                continue;
            }
            let vars = &self.sh.tp_vars[tp];
            if vars.is_empty() || vars.iter().any(|&(v, _)| self.slots[v] != Slot::Free) {
                return tp;
            }
        }
        // Nothing bound anywhere yet: the first master-complete unvisited
        // TP (also the very first call).
        *self
            .sh
            .stps
            .iter()
            .find(|&&tp| !self.visited[tp] && masters_done(tp))
            .expect("a master-complete unvisited TP exists")
    }

    /// True once the row quota (if any) is met — enumeration must stop
    /// starting new subtrees. Doubles as the deadline poll: a passed
    /// deadline also stops the enumeration (the caller then discards the
    /// partial rows).
    fn full(&self) -> bool {
        if self.sh.inp.quota.is_some_and(|q| self.rows.len() >= q) {
            return true;
        }
        self.deadline_hit()
    }

    /// Polls the execution deadline, rate-limited to one wall-clock read
    /// per `DEADLINE_POLL_MASK + 1` calls; a hit is latched.
    fn deadline_hit(&self) -> bool {
        let Some(deadline) = self.sh.inp.deadline else {
            return false;
        };
        if self.expired.get() {
            return true;
        }
        let n = self.poll.get().wrapping_add(1);
        self.poll.set(n);
        if n & DEADLINE_POLL_MASK != 0 {
            return false;
        }
        if Instant::now() >= deadline {
            self.expired.set(true);
            return true;
        }
        false
    }

    fn bind(&mut self, var: VarId, slot: Slot, tp: TpId) {
        debug_assert_eq!(self.slots[var], Slot::Free);
        self.slots[var] = slot;
        self.binder[var] = tp;
    }

    fn unbind(&mut self, var: VarId) {
        self.slots[var] = Slot::Free;
        self.binder[var] = usize::MAX;
    }
    // lbr-lint: end

    /// Emits one result row: failure closure → FaN filters → nullification
    /// → global filters → push. The failure map and the row are assembled
    /// in reusable buffers; only a surviving row is cloned into the output,
    /// so filtered rows cost no allocation at all.
    fn emit(&mut self) {
        if self.full() {
            return; // quota met (and handles the degenerate quota of 0)
        }
        let sh = self.sh;
        let gosn = sh.inp.gosn;
        let n_sn = gosn.n_supernodes();
        // 1. Failed supernodes: any nulled TP fails its supernode; failure
        //    spreads across peer groups (an inner-join group produces rows
        //    only as a unit).
        self.failed.clear();
        self.failed.resize(n_sn, false);
        for (tp, &nulled) in self.nulled.iter().enumerate() {
            if nulled {
                self.failed[gosn.sn_of_tp(tp)] = true;
            }
        }
        close_over_peers(&mut self.failed, gosn);

        // 2. FaN: supernode filters, evaluated over the supernode's own
        //    variable scope (a variable bound only outside the supernode
        //    reads as unbound, like in the reference oracle).
        for (sn_opt, expr) in &sh.inp.fan_filters {
            let Some(sn) = sn_opt else { continue };
            if self.failed[*sn] {
                continue; // already NULL, nothing to test
            }
            let ok = {
                let lk = SnScopedLookup {
                    ctx: self,
                    sn: *sn,
                    dict: sh.inp.dict,
                };
                filter_eval::eval(expr, &lk)
            };
            if !ok {
                if gosn.is_absolute_master(*sn) {
                    self.stats.rows_filtered += 1;
                    return; // masters cannot be nullified: drop the row
                }
                self.failed[*sn] = true;
                close_over_peers(&mut self.failed, gosn);
            }
        }

        // 3. Nullification: bindings produced by failed supernodes become
        //    NULL (Rao et al.'s operator; a no-op when nothing failed),
        //    assembled in the reusable buffer.
        self.stats.scratch_reuses += 1;
        self.row_buf.clear();
        let mut rewrote = false;
        for (var, slot) in self.slots.iter().enumerate() {
            match slot {
                Slot::Val(b) => {
                    let binder_sn = gosn.sn_of_tp(self.binder[var]);
                    if self.failed[binder_sn] {
                        self.row_buf.push(None);
                        rewrote = true;
                    } else {
                        self.row_buf.push(Some(*b));
                    }
                }
                _ => self.row_buf.push(None),
            }
        }
        if rewrote {
            self.stats.nullification_fired += 1;
        }

        // 4. Global filters over the (possibly nullified) row.
        for (sn_opt, expr) in &sh.inp.fan_filters {
            if sn_opt.is_some() {
                continue;
            }
            let ok = {
                let lk = RowLookup {
                    row: &self.row_buf,
                    vt: sh.inp.vt,
                    dict: sh.inp.dict,
                };
                filter_eval::eval(expr, &lk)
            };
            if !ok {
                self.stats.rows_filtered += 1;
                return;
            }
        }

        self.rows.push(self.row_buf.clone());
    }
}

// lbr-lint: no_alloc — failure closure over peer groups: bool slice only.
/// Spreads supernode failure across peer groups until stable.
fn close_over_peers(failed: &mut [bool], gosn: &Gosn) {
    for sn in 0..failed.len() {
        if failed[sn] {
            for peer in gosn.peers_of(sn) {
                failed[peer] = true;
            }
        }
    }
}

/// Variable lookup for a supernode filter: only variables occurring in a
/// TP of `sn` are visible (§5.2 FILTER scope).
struct SnScopedLookup<'c, 's, 'a, 'b> {
    ctx: &'c Ctx<'s, 'a, 'b>,
    sn: SnId,
    dict: &'c Dictionary,
}

// lbr-lint: end
impl VarLookup for SnScopedLookup<'_, '_, '_, '_> {
    fn term(&self, name: &str) -> Option<&Term> {
        let id = self.ctx.sh.inp.vt.id(name)?;
        if !self.ctx.sh.sn_vars[self.sn][id] {
            return None;
        }
        match self.ctx.slots[id] {
            Slot::Val(b) => Some(b.decode(self.dict)),
            _ => None,
        }
    }
}

struct RowLookup<'r> {
    row: &'r [Option<Binding>],
    vt: &'r VarTable,
    dict: &'r Dictionary,
}

impl VarLookup for RowLookup<'_> {
    fn term(&self, name: &str) -> Option<&Term> {
        let id = self.vt.id(name)?;
        self.row[id].as_ref().map(|b| b.decode(self.dict))
    }
}

// lbr-lint: no_alloc — the recursion and its TP descent: all masks,
// cursors and row buffers come from the context's scratch.
/// One recursion level of Algorithm 5.4.
///
/// Candidate enumeration cursors directly over the compressed matrix rows
/// (forward: the TP's own matrix; reverse: its transposed copy) — no
/// candidate vector or adjacency list is materialized or cloned, so the
/// steady-state loop body performs no heap allocation.
fn recurse(ctx: &mut Ctx<'_, '_, '_>) {
    let sh = ctx.sh;
    if ctx.n_visited == sh.stps.len() {
        ctx.emit();
        return;
    }
    if ctx.full() {
        return; // quota met: unwind without starting new subtrees
    }
    let tp = ctx.select_next();
    let n_shared = sh.inp.dims.n_shared;
    let matched = match &sh.inp.tps[tp].data {
        TpData::Zero { present } => {
            if *present {
                descend(ctx, tp, &[]);
                true
            } else {
                false
            }
        }
        TpData::One { var, dim, cands } => match ctx.slots[*var] {
            Slot::Val(b) => {
                if b.probes(*dim) && cands.get(b.id) {
                    descend(ctx, tp, &[]);
                    true
                } else {
                    false
                }
            }
            Slot::Null => false,
            Slot::Free => {
                let mut any = false;
                for id in cands.iter_ones() {
                    any = true;
                    ctx.bind(*var, Slot::Val(Binding::new(id, *dim, n_shared)), tp);
                    descend(ctx, tp, &[*var]);
                    if ctx.full() {
                        break;
                    }
                }
                any
            }
        },
        TpData::Three {
            s_var,
            p_var,
            o_var,
            mats,
        } => {
            let (sv, pv, ov) = (*s_var, *p_var, *o_var);
            let state = &sh.inp.tps[tp];
            let mut any = false;
            // Enumerate per predicate; each predicate slice behaves like a
            // Two-variable matrix with the predicate binding layered on.
            for (idx, (pid, mat)) in mats.iter().enumerate() {
                if ctx.full() {
                    break;
                }
                // Predicate slot must admit this pid.
                let p_bound_here = match ctx.slots[pv] {
                    Slot::Val(b) => {
                        if !(b.probes(Dimension::Predicate) && b.id == *pid) {
                            continue;
                        }
                        false
                    }
                    Slot::Null => continue,
                    Slot::Free => {
                        ctx.bind(
                            pv,
                            Slot::Val(Binding::new(*pid, Dimension::Predicate, n_shared)),
                            tp,
                        );
                        true
                    }
                };
                match (ctx.slots[sv], ctx.slots[ov]) {
                    (Slot::Null, _) | (_, Slot::Null) => {}
                    (Slot::Val(r), Slot::Val(c)) => {
                        if r.probes(Dimension::Subject)
                            && c.probes(Dimension::Object)
                            && mat.get(r.id, c.id)
                        {
                            any = true;
                            descend(ctx, tp, &[]);
                        }
                    }
                    (Slot::Val(r), Slot::Free) => {
                        if r.probes(Dimension::Subject) {
                            if let Some(row) = mat.row(r.id) {
                                for c in row.iter_ones() {
                                    any = true;
                                    ctx.bind(
                                        ov,
                                        Slot::Val(Binding::new(c, Dimension::Object, n_shared)),
                                        tp,
                                    );
                                    descend(ctx, tp, &[ov]);
                                    if ctx.full() {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    (Slot::Free, Slot::Val(c)) => {
                        if c.probes(Dimension::Object) {
                            if let Some(col) = state.per_pred_t[idx].row(c.id) {
                                for r in col.iter_ones() {
                                    any = true;
                                    ctx.bind(
                                        sv,
                                        Slot::Val(Binding::new(r, Dimension::Subject, n_shared)),
                                        tp,
                                    );
                                    descend(ctx, tp, &[sv]);
                                    if ctx.full() {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    (Slot::Free, Slot::Free) => {
                        for (r, cols) in mat.rows() {
                            if ctx.full() {
                                break;
                            }
                            ctx.bind(
                                sv,
                                Slot::Val(Binding::new(*r, Dimension::Subject, n_shared)),
                                tp,
                            );
                            for c in cols.iter_ones() {
                                any = true;
                                ctx.bind(
                                    ov,
                                    Slot::Val(Binding::new(c, Dimension::Object, n_shared)),
                                    tp,
                                );
                                descend(ctx, tp, &[ov]);
                                if ctx.full() {
                                    break;
                                }
                            }
                            ctx.unbind(sv);
                        }
                    }
                }
                if p_bound_here {
                    ctx.unbind(pv);
                }
            }
            any
        }
        TpData::Two {
            row_var,
            row_dim,
            col_var,
            col_dim,
            mat,
        } => {
            let state = &sh.inp.tps[tp];
            let (rv, cv, rd, cd) = (*row_var, *col_var, *row_dim, *col_dim);
            match (ctx.slots[rv], ctx.slots[cv]) {
                (Slot::Null, _) | (_, Slot::Null) => false,
                (Slot::Val(r), Slot::Val(c)) => {
                    let hit = r.probes(rd) && c.probes(cd) && mat.get(r.id, c.id);
                    if hit {
                        descend(ctx, tp, &[]);
                    }
                    hit
                }
                (Slot::Val(r), Slot::Free) => {
                    match r.probes(rd).then(|| mat.row(r.id)).flatten() {
                        None => false,
                        Some(row) => {
                            for c in row.iter_ones() {
                                ctx.bind(cv, Slot::Val(Binding::new(c, cd, n_shared)), tp);
                                descend(ctx, tp, &[cv]);
                                if ctx.full() {
                                    break;
                                }
                            }
                            true // a stored row is never empty
                        }
                    }
                }
                (Slot::Free, Slot::Val(c)) => {
                    match c.probes(cd).then(|| state.rows_col(c.id)).flatten() {
                        None => false,
                        Some(col) => {
                            for r in col.iter_ones() {
                                ctx.bind(rv, Slot::Val(Binding::new(r, rd, n_shared)), tp);
                                descend(ctx, tp, &[rv]);
                                if ctx.full() {
                                    break;
                                }
                            }
                            true
                        }
                    }
                }
                (Slot::Free, Slot::Free) => {
                    // Only the pipeline's first TP (or a defensive
                    // Cartesian fallback) enumerates both dimensions.
                    let mut any = false;
                    for (r, cols) in mat.rows() {
                        if ctx.full() {
                            break;
                        }
                        ctx.bind(rv, Slot::Val(Binding::new(*r, rd, n_shared)), tp);
                        for c in cols.iter_ones() {
                            any = true;
                            ctx.bind(cv, Slot::Val(Binding::new(c, cd, n_shared)), tp);
                            descend(ctx, tp, &[cv]);
                            if ctx.full() {
                                break;
                            }
                        }
                        ctx.unbind(rv);
                    }
                    any
                }
            }
        }
    };

    if !matched {
        if sh.inp.gosn.tp_in_absolute_master(tp) {
            // ln 27–28: an absolute master cannot have NULL bindings —
            // roll back this branch.
            return;
        }
        // ln 29–32: a slave with no consistent triple: NULL its free vars
        // (at most three — a stack array, not a collect).
        let mut free = [0 as VarId; 3];
        let mut n_free = 0usize;
        for &(v, _) in &sh.tp_vars[tp] {
            if ctx.slots[v] == Slot::Free {
                free[n_free] = v;
                n_free += 1;
            }
        }
        for &v in &free[..n_free] {
            ctx.bind(v, Slot::Null, tp);
        }
        ctx.nulled[tp] = true;
        descend(ctx, tp, &free[..n_free]);
        ctx.nulled[tp] = false;
    }
}

/// Marks `tp` visited, recurses, then restores `tp` and the vars this
/// frame bound.
fn descend(ctx: &mut Ctx<'_, '_, '_>, tp: TpId, bound_here: &[VarId]) {
    if ctx.n_visited == 0 {
        // This frame is the root TP: each descend from here starts one
        // independent subtree — a *seed* of the enumeration.
        ctx.stats.seeds_enumerated += 1;
    }
    let sn = ctx.sh.inp.gosn.sn_of_tp(tp);
    ctx.visited[tp] = true;
    ctx.n_visited += 1;
    ctx.sn_remaining[sn] -= 1;
    recurse(ctx);
    ctx.sn_remaining[sn] += 1;
    ctx.n_visited -= 1;
    ctx.visited[tp] = false;
    for &v in bound_here {
        ctx.unbind(v);
    }
}
// lbr-lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::VarTable;
    use crate::init::init;
    use crate::jvar_order::get_jvar_order;
    use crate::prune::{prune_triples, PruneScratch};
    use crate::selectivity::estimate_all;
    use lbr_bitmat::{BitMatStore, Catalog as _};
    use lbr_rdf::{Graph, Triple};
    use lbr_sparql::classify::analyze;
    use lbr_sparql::parse_query;

    fn graph() -> lbr_rdf::EncodedGraph {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        Graph::from_triples(vec![
            t("Julia", "actedIn", "Seinfeld"),
            t("Julia", "actedIn", "Veep"),
            t("Julia", "actedIn", "NewAdvOldChristine"),
            t("Julia", "actedIn", "CurbYourEnthu"),
            t("CurbYourEnthu", "location", "LosAngeles"),
            t("Larry", "actedIn", "CurbYourEnthu"),
            t("Jerry", "hasFriend", "Julia"),
            t("Jerry", "hasFriend", "Larry"),
            t("Seinfeld", "location", "NewYorkCity"),
            t("Veep", "location", "D.C."),
            t("NewAdvOldChristine", "location", "Jersey"),
        ])
        .encode()
    }

    /// Plans `query` over `g`, runs init → prune → adjacency and then the
    /// join under `quota`.
    fn join(
        g: &lbr_rdf::EncodedGraph,
        query: &str,
        quota: Option<usize>,
    ) -> (Vec<String>, Vec<Vec<Option<Binding>>>, ExecStats) {
        let store = BitMatStore::build(g);
        let q = parse_query(query).unwrap();
        let a = analyze(&q.pattern).unwrap();
        let vt = VarTable::from_tps(a.gosn.tps()).unwrap();
        let est = estimate_all(a.gosn.tps(), &g.dict, &store);
        let jorder = get_jvar_order(&a.gosn, &a.goj, &vt, &est);
        let mut out = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store).unwrap();
        prune_triples(
            &mut out.tps,
            &a.gosn,
            &a.goj,
            &vt,
            &jorder,
            &store.dims(),
            &mut PruneScratch::new(),
        );
        for tp in &mut out.tps {
            tp.build_adjacency();
        }
        let inputs = JoinInputs {
            tps: &out.tps,
            gosn: &a.gosn,
            vt: &vt,
            dims: store.dims(),
            dict: &g.dict,
            fan_filters: Vec::new(),
            quota,
            deadline: None,
        };
        let (rows, stats) = multi_way_join(&inputs);
        (vt.names().to_vec(), rows, stats)
    }

    fn run(query: &str) -> (Vec<String>, Vec<Vec<Option<String>>>, ExecStats) {
        let g = graph();
        let (vars, rows, stats) = join(&g, query, None);
        let decoded = rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|b| b.map(|x| x.decode(&g.dict).lexical_form().to_string()))
                    .collect()
            })
            .collect();
        (vars, decoded, stats)
    }

    /// The paper's running example: exactly {(Larry, NULL), (Julia,
    /// Seinfeld)}, with no nullification (Lemma 3.3).
    #[test]
    fn q2_final_results() {
        let (vars, mut rows, stats) =
            run("PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }");
        assert_eq!(vars, vec!["friend", "sitcom"]);
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Some("Julia".to_string()), Some("Seinfeld".to_string())],
                vec![Some("Larry".to_string()), None],
            ]
        );
        assert_eq!(stats.nullification_fired, 0);
    }

    #[test]
    fn inner_join_only() {
        let (_, mut rows, _) =
            run("PREFIX : <> SELECT * WHERE { ?f :actedIn ?s . ?s :location ?where . }");
        rows.sort();
        assert_eq!(rows.len(), 5, "every actedIn sitcom has a location");
        assert!(rows.iter().all(|r| r.iter().all(|c| c.is_some())));
    }

    #[test]
    fn nested_optional_nulls_cascade() {
        // Jerry's friends, their sitcoms (optional), and inside that the
        // sitcom's location (optional) — Larry gets NULL for both inner
        // vars... actually Larry acted in CurbYourEnthu, so only location
        // differs. Check cascading binding correctness.
        let (vars, mut rows, _) = run("PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . OPTIONAL { ?sitcom :location ?loc . } } }");
        assert_eq!(vars, vec!["friend", "sitcom", "loc"]);
        rows.sort();
        // Julia: 4 sitcoms each with a location; Larry: 1 sitcom with one.
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[1].is_some() && r[2].is_some()));
    }

    #[test]
    fn empty_slave_produces_all_nulls() {
        let (_, rows, _) = run("PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :location ?loc . } }");
        assert_eq!(rows.len(), 2);
        assert!(
            rows.iter().all(|r| r[1].is_none()),
            "no friend has a location"
        );
    }

    #[test]
    fn zero_var_membership_gates_results() {
        let (_, rows, _) =
            run("PREFIX : <> SELECT * WHERE { :Jerry :hasFriend :Julia . :Jerry :hasFriend ?f . }");
        assert_eq!(rows.len(), 2, "membership true: acts as a no-op gate");
    }

    /// Joins `?s <p> ?o` over a 100-triple graph (one row per seed) under
    /// the given quota.
    fn run_quota(quota: Option<usize>) -> (Vec<Vec<Option<Binding>>>, ExecStats) {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = Graph::from_triples(
            (0..100)
                .map(|i| t(&format!("s{i}"), "p", &format!("o{i}")))
                .collect::<Vec<_>>(),
        )
        .encode();
        let (_, rows, stats) = join(&g, "SELECT * WHERE { ?s <p> ?o . }", quota);
        (rows, stats)
    }

    /// The LIMIT/ASK pushdown contract: the join stops *exactly* at the
    /// quota — rows and enumerated seeds both equal it.
    #[test]
    fn quota_stops_enumeration_exactly() {
        let (all_rows, full) = run_quota(None);
        assert_eq!(all_rows.len(), 100);
        assert_eq!(full.seeds_enumerated, 100);
        for quota in [0, 1, 10, 99, 100, 1000] {
            let (rows, stats) = run_quota(Some(quota));
            let expect = quota.min(100);
            assert_eq!(rows.len(), expect, "quota={quota}");
            assert_eq!(
                stats.seeds_enumerated, expect as u64,
                "one row per seed here, so seeds must stop exactly at the quota"
            );
            assert_eq!(rows, all_rows[..expect], "prefix of the unbounded order");
        }
    }
}
