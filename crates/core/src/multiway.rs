//! The multi-way pipelined join (Algorithm 5.4), with nullification and
//! the FaN (filter-and-nullification) hook of §5.2.
//!
//! TPs are visited depth-first in one static order, [`schedule`]d once per
//! join from `stps` (selective absolute masters first, then down the
//! master-slave hierarchy). Each recursion level handles exactly one TP,
//! enumerating its triples consistent with the current variable map. A
//! slave TP with no consistent triple binds its remaining variables to
//! NULL; an absolute-master TP with no consistent triple rolls the branch
//! back. No pairwise intermediate results or hash tables are materialized:
//! the only extra memory is one slot per query variable (the paper's
//! `vmap`).
//!
//! Because masters precede slaves in `stps` and a level only binds
//! still-free variables, master bindings win over slave bindings for
//! shared variables — the paper's output rule.
//!
//! Algorithm 5.4 relies on connectivity to NULL a slave whose master is
//! NULL: the slave shares a NULL variable and cannot match. A Cartesian
//! pattern breaks that, so the join states it outright. A slave TP whose
//! master supernode has a nulled TP is unmatched without reading its
//! matrix, and at emission every supernode whose (transitive) master
//! failed fails too.
//!
//! ## One schedule, forward-only cursors, zero-allocation steady state
//!
//! Algorithm 5.4 takes, at each level, the first unvisited TP in `stps`
//! order that has a bound variable. Visiting a TP leaves every one of its
//! variables bound or NULL, so that choice depends only on *which* TPs are
//! visited: [`schedule`] makes it once, before any enumeration, and level
//! `d` of the recursion takes `order[d]`. The same pass fixes each matrix
//! TP's read direction — one reached through its column variable alone is
//! transposed in place (`TpState::transpose`) — so every candidate is
//! read **forward, directly off the compressed rows in each BitMat's
//! arena** ([`lbr_bitmat::RowRef::iter_ones`] cursors, lent without a
//! copy), or tested by a membership
//! probe. There are no transposed copies, candidate vectors or adjacency
//! lists; the only per-row allocation left in the steady state is the
//! pushed result row itself (assembled in a reusable buffer first).
//!
//! A bound row variable finds its row with a finger seek
//! ([`BitMat::seek_row`]): the join keeps, per matrix (per predicate slice
//! of a `(?s ?p ?o)` TP), the slot where its previous lookup ended, and
//! gallops forward from there. Bindings mostly arrive in ascending order,
//! so a lookup usually costs a step or two instead of a binary search over
//! the row ids; one that goes backwards falls back to the binary search.

use crate::bindings::{Binding, VarId, VarTable};
use crate::filter_eval::{self, VarLookup};
use crate::init::{Axes, TpData, TpState};
use lbr_bitmat::{BitMat, CubeDims, RowRef};
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
    /// Loaded and pruned TPs, oriented by [`schedule`].
    pub tps: &'a [TpState],
    /// The visit order [`schedule`] returned for `tps`.
    pub order: &'a [TpId],
    /// The query's GoSN.
    pub gosn: &'a Gosn,
    /// Variable table.
    pub vt: &'a VarTable,
    /// Bitcube dimensions.
    pub dims: CubeDims,
    /// Dictionary (needed only to decode bindings for FaN filters).
    pub dict: &'a Dictionary,
    /// Supernode filters evaluated at output time: failure nullifies a
    /// slave supernode and drops the row of an absolute master. The
    /// GoSN's group filters are evaluated after them, the same way.
    ///
    /// Filters are evaluated *scoped*: only variables occurring in a TP of
    /// the supernode (of a group filter: of its supernodes) are visible;
    /// any other variable reads as unbound, collapsing to `false` under
    /// the documented error→false semantics (this matches the
    /// compositional evaluation of the reference oracle).
    pub fan_filters: Vec<(SnId, &'a Expr)>,
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
    /// Root-TP seeds (independent subtrees) the enumeration started.
    /// Without a quota this equals the root TP's full candidate
    /// enumeration; with one it stops at the seed producing the last
    /// needed row — the verifiable early-exit evidence.
    pub seeds_enumerated: u64,
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

/// Fixes the join's visit order and read directions, once per join.
///
/// The order is Algorithm 5.4's rule over `stps` ([`sort_tps`]): next
/// comes the first unvisited TP whose master supernodes are fully visited
/// (the strengthened form of "masters generate variable bindings before
/// slaves") and that has a bound variable or none at all; failing that —
/// the root, and the first TP of each further component of a Cartesian
/// product — the first such master-complete TP. Visiting a TP binds
/// (or NULLs) all its variables, so the rule depends on the visited set
/// alone and this is the order the recursion would pick at every partial
/// binding.
///
/// A `Two`/`Three` TP reached through its column variable alone is
/// transposed in place; every other TP stays as `init` left it. The join
/// then reads every matrix forward.
pub fn schedule(tps: &mut [TpState], gosn: &Gosn) -> Vec<TpId> {
    let stps = sort_tps(tps, gosn);
    let mut order: Vec<TpId> = Vec::with_capacity(stps.len());
    let mut bound: Vec<VarId> = Vec::new();
    while order.len() < stps.len() {
        let ready = |tp: &TpId| {
            !order.contains(tp)
                && gosn
                    .masters_of(gosn.sn_of_tp(*tp))
                    .iter()
                    .all(|&m| gosn.tps_of_sn(m).iter().all(|t| order.contains(t)))
        };
        let reached = |tp: &TpId| {
            let mut vars = tps[*tp].vars().peekable();
            vars.peek().is_none() || vars.any(|(v, _)| bound.contains(&v))
        };
        let tp = stps
            .iter()
            .copied()
            .filter(ready)
            .find(reached)
            .or_else(|| stps.iter().copied().find(ready))
            .expect("a master-complete unvisited TP exists");
        let state = &mut tps[tp];
        if let TpData::Two { axes, .. } | TpData::Three { axes, .. } = &state.data {
            if bound.contains(&axes.col_var) && !bound.contains(&axes.row_var) {
                state.transpose();
            }
        }
        bound.extend(state.vars().map(|(v, _)| v));
        order.push(tp);
    }
    order
}

/// Runs the multi-way join, returning full-width rows (one column per
/// variable in [`VarTable`] order).
pub fn multi_way_join(inp: &JoinInputs<'_>) -> (Vec<Vec<Option<Binding>>>, ExecStats) {
    let mut ctx = Ctx::new(inp);
    recurse(&mut ctx, 0);
    ctx.stats.deadline_expired = ctx.expired.get();
    (ctx.rows, ctx.stats)
}

/// The join state: the variable map, the output and its scratch. The
/// inputs are reached through a shared reference the recursion copies out,
/// so it can hold TP data while it rebinds slots.
struct Ctx<'b, 'a> {
    inp: &'b JoinInputs<'a>,
    /// `sn_vars[sn][var]`: does `var` occur in a TP of `sn`? The FILTER
    /// visibility scope for supernode filters.
    sn_vars: Vec<Vec<bool>>,
    /// The same scope for each of the GoSN's group filters.
    group_vars: Vec<Vec<bool>>,
    slots: Vec<Slot>,
    binder: Vec<TpId>,
    /// `sn_nulled[sn]`: how many TPs of `sn` the current path nulled;
    /// `n_nulled` is their sum.
    sn_nulled: Vec<u32>,
    n_nulled: u32,
    /// The seek finger of every matrix: TP `tp`'s `k`-th matrix (its
    /// `k`-th predicate slice, or its one matrix) owns
    /// `fingers[first_finger[tp] + k]`.
    fingers: Vec<usize>,
    first_finger: Vec<usize>,
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

impl<'b, 'a> Ctx<'b, 'a> {
    fn new(inp: &'b JoinInputs<'a>) -> Ctx<'b, 'a> {
        let mut sn_vars = vec![vec![false; inp.vt.len()]; inp.gosn.n_supernodes()];
        let mut first_finger = Vec::with_capacity(inp.tps.len());
        let mut n_fingers = 0;
        for (tp, state) in inp.tps.iter().enumerate() {
            for (v, _) in state.vars() {
                sn_vars[inp.gosn.sn_of_tp(tp)][v] = true;
            }
            first_finger.push(n_fingers);
            n_fingers += match &state.data {
                TpData::Two { .. } => 1,
                TpData::Three { mats, .. } => mats.len(),
                TpData::Zero { .. } | TpData::One { .. } => 0,
            };
        }
        let group_vars = (inp.gosn.group_filters().iter())
            .map(|f| {
                let mut vars = vec![false; inp.vt.len()];
                for &sn in &f.sns {
                    for (var, &seen) in sn_vars[sn].iter().enumerate() {
                        vars[var] |= seen;
                    }
                }
                vars
            })
            .collect();
        Ctx {
            inp,
            sn_vars,
            group_vars,
            slots: vec![Slot::Free; inp.vt.len()],
            binder: vec![usize::MAX; inp.vt.len()],
            sn_nulled: vec![0; inp.gosn.n_supernodes()],
            n_nulled: 0,
            fingers: vec![0; n_fingers],
            first_finger,
            rows: Vec::new(),
            failed: Vec::new(),
            row_buf: Vec::new(),
            poll: Cell::new(0),
            expired: Cell::new(false),
            stats: ExecStats::default(),
        }
    }

    // lbr-lint: no_alloc — quota/deadline polls and binding bookkeeping on the hot path.
    /// True once the row quota (if any) is met — enumeration must stop
    /// starting new subtrees. Doubles as the deadline poll: a passed
    /// deadline also stops the enumeration (the caller then discards the
    /// partial rows).
    fn full(&self) -> bool {
        if self.inp.quota.is_some_and(|q| self.rows.len() >= q) {
            return true;
        }
        self.deadline_hit()
    }

    /// Polls the execution deadline, rate-limited to one wall-clock read
    /// per `DEADLINE_POLL_MASK + 1` calls; a hit is latched.
    fn deadline_hit(&self) -> bool {
        let Some(deadline) = self.inp.deadline else {
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

    /// True when the current path nulled a TP of one of `tp`'s master
    /// supernodes (transitive, so a master's peers count too): `tp` is
    /// then unmatched whatever its matrix holds.
    fn master_nulled(&self, tp: TpId) -> bool {
        let gosn = self.inp.gosn;
        self.n_nulled > 0
            && (gosn.masters_of(gosn.sn_of_tp(tp)).iter()).any(|&m| self.sn_nulled[m] > 0)
    }
    // lbr-lint: end

    /// Emits one result row: failure closure → FaN filters (supernode,
    /// then group) → nullification → push. The failure map and the row
    /// are assembled in reusable buffers; only a surviving row is cloned
    /// into the output, so filtered rows cost no allocation at all.
    fn emit(&mut self) {
        if self.full() {
            return; // quota met (and handles the degenerate quota of 0)
        }
        let inp = self.inp;
        let gosn = inp.gosn;
        // 1. Failed supernodes: any nulled TP fails its supernode, and
        //    the failure closes over peers and slaves.
        self.failed.clear();
        self.failed.extend(self.sn_nulled.iter().map(|&n| n > 0));
        if self.n_nulled > 0 {
            gosn.close_failure(&mut self.failed);
        }

        // 2. FaN: supernode filters, evaluated over the supernode's own
        //    variable scope (a variable bound only outside the supernode
        //    reads as unbound, like in the reference oracle); then group
        //    filters, inner ones first, over their supernodes' scope with
        //    the bindings of failed supernodes hidden.
        for &(sn, expr) in &inp.fan_filters {
            if !self.failed[sn] && !self.holds(expr, &self.sn_vars[sn]) && !self.fail(sn) {
                return;
            }
        }
        for (g, f) in gosn.group_filters().iter().enumerate() {
            if !self.failed[f.root]
                && !self.holds(&f.expr, &self.group_vars[g])
                && !self.fail(f.root)
            {
                return;
            }
        }

        // 3. Nullification: bindings produced by failed supernodes become
        //    NULL (Rao et al.'s operator; a no-op when nothing failed),
        //    assembled in the reusable buffer.
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

        self.rows.push(self.row_buf.clone());
    }

    /// Evaluates a filter over the variables `scope` marks, as bound now.
    fn holds(&self, expr: &Expr, scope: &[bool]) -> bool {
        filter_eval::eval(expr, &ScopedLookup { ctx: self, scope })
    }

    /// Fails `sn` and closes the failure, or returns `false` when `sn` is
    /// an absolute master: masters cannot be nullified, so the row drops.
    fn fail(&mut self, sn: SnId) -> bool {
        let gosn = self.inp.gosn;
        if gosn.is_absolute_master(sn) {
            return false;
        }
        self.failed[sn] = true;
        gosn.close_failure(&mut self.failed);
        true
    }
}

/// Variable lookup for a FILTER: only variables `scope` marks are visible
/// (§5.2 FILTER scope), and a binding made by a failed supernode reads as
/// unbound.
struct ScopedLookup<'c, 'b, 'a> {
    ctx: &'c Ctx<'b, 'a>,
    scope: &'c [bool],
}

impl VarLookup for ScopedLookup<'_, '_, '_> {
    fn term(&self, name: &str) -> Option<&Term> {
        let ctx = self.ctx;
        let id = ctx.inp.vt.id(name)?;
        if !self.scope[id] {
            return None;
        }
        match ctx.slots[id] {
            Slot::Val(b) if !ctx.failed[ctx.inp.gosn.sn_of_tp(ctx.binder[id])] => {
                Some(b.decode(ctx.inp.dict))
            }
            _ => None,
        }
    }
}

// lbr-lint: no_alloc — the recursion and its TP descent: all masks,
// cursors and row buffers come from the context's scratch.
/// One recursion level of Algorithm 5.4: the TP at `order[depth]`.
///
/// Candidate enumeration cursors directly over the compressed matrix rows,
/// always forward — no candidate vector or adjacency list is materialized
/// or cloned, so the steady-state loop body performs no heap allocation.
fn recurse(ctx: &mut Ctx<'_, '_>, depth: usize) {
    let inp = ctx.inp;
    let Some(&tp) = inp.order.get(depth) else {
        ctx.emit();
        return;
    };
    if ctx.full() {
        return; // quota met: unwind without starting new subtrees
    }
    if ctx.master_nulled(tp) {
        // Unmatched whatever its matrix holds: do not read it.
        null_slave(ctx, depth, tp);
        return;
    }
    let n_shared = inp.dims.n_shared;
    let matched = match &inp.tps[tp].data {
        TpData::Zero { present } => {
            if *present {
                descend(ctx, depth, &[]);
            }
            *present
        }
        TpData::One { var, dim, cands } => match ctx.slots[*var] {
            Slot::Val(b) => {
                let hit = b.probes(*dim) && cands.get(b.id);
                if hit {
                    descend(ctx, depth, &[]);
                }
                hit
            }
            Slot::Null => false,
            Slot::Free => {
                let mut any = false;
                for id in cands.iter_ones() {
                    any = true;
                    ctx.bind(*var, Slot::Val(Binding::new(id, *dim, n_shared)), tp);
                    descend(ctx, depth, &[*var]);
                    if ctx.full() {
                        break;
                    }
                }
                any
            }
        },
        TpData::Two { axes, mat } => {
            let finger = ctx.first_finger[tp];
            read_forward(ctx, depth, tp, *axes, mat, finger)
        }
        TpData::Three { p_var, axes, mats } => {
            let pv = *p_var;
            let mut any = false;
            // Each predicate slice is a `Two` matrix with the predicate
            // binding layered on.
            for (k, (pid, mat)) in mats.iter().enumerate() {
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
                        let b = Binding::new(*pid, Dimension::Predicate, n_shared);
                        ctx.bind(pv, Slot::Val(b), tp);
                        true
                    }
                };
                let finger = ctx.first_finger[tp] + k;
                any |= read_forward(ctx, depth, tp, *axes, mat, finger);
                if p_bound_here {
                    ctx.unbind(pv);
                }
            }
            any
        }
    };

    // ln 27–28: an absolute master cannot have NULL bindings — roll back
    // this branch.
    if !matched && !inp.gosn.tp_in_absolute_master(tp) {
        null_slave(ctx, depth, tp);
    }
}

/// ln 29–32: a slave with no consistent triple NULLs its free vars (at
/// most three — a stack array, not a collect) and descends.
fn null_slave(ctx: &mut Ctx<'_, '_>, depth: usize, tp: TpId) {
    let mut free = [0 as VarId; 3];
    let mut n_free = 0usize;
    for (v, _) in ctx.inp.tps[tp].vars() {
        if ctx.slots[v] == Slot::Free {
            free[n_free] = v;
            n_free += 1;
        }
    }
    for &v in &free[..n_free] {
        ctx.bind(v, Slot::Null, tp);
    }
    let sn = ctx.inp.gosn.sn_of_tp(tp);
    ctx.sn_nulled[sn] += 1;
    ctx.n_nulled += 1;
    descend(ctx, depth, &free[..n_free]);
    ctx.sn_nulled[sn] -= 1;
    ctx.n_nulled -= 1;
}

/// The one read of an oriented matrix — a `Two` TP or one predicate slice
/// of a `Three` — and it is always forward: a membership probe when both
/// variables are bound, the bound row's columns, or (the schedule's root)
/// every row. A bound row is found by seeking from the matrix's finger,
/// `ctx.fingers[finger]`. Returns whether a triple matched.
fn read_forward(
    ctx: &mut Ctx<'_, '_>,
    depth: usize,
    tp: TpId,
    axes: Axes,
    mat: &BitMat,
    finger: usize,
) -> bool {
    let n_shared = ctx.inp.dims.n_shared;
    match (ctx.slots[axes.row_var], ctx.slots[axes.col_var]) {
        (Slot::Null, _) | (_, Slot::Null) => false,
        (Slot::Val(r), Slot::Val(c)) => {
            let hit = r.probes(axes.row_dim)
                && c.probes(axes.col_dim)
                && mat
                    .seek_row(r.id, &mut ctx.fingers[finger])
                    .is_some_and(|row| row.contains(c.id));
            if hit {
                descend(ctx, depth, &[]);
            }
            hit
        }
        (Slot::Val(r), Slot::Free) => match r
            .probes(axes.row_dim)
            .then(|| mat.seek_row(r.id, &mut ctx.fingers[finger]))
        {
            Some(Some(row)) => {
                read_row(ctx, depth, tp, axes, row);
                true // a stored row is never empty
            }
            _ => false,
        },
        (Slot::Free, Slot::Free) => {
            let mut any = false;
            for (r, row) in mat.rows() {
                if ctx.full() {
                    break;
                }
                any = true;
                let b = Binding::new(r, axes.row_dim, n_shared);
                ctx.bind(axes.row_var, Slot::Val(b), tp);
                read_row(ctx, depth, tp, axes, row);
                ctx.unbind(axes.row_var);
            }
            any
        }
        (Slot::Free, Slot::Val(_)) => {
            unreachable!("schedule() transposes a TP reached through its column")
        }
    }
}

/// Binds the column variable to each ID of `row` in turn and descends.
fn read_row(ctx: &mut Ctx<'_, '_>, depth: usize, tp: TpId, axes: Axes, row: RowRef<'_>) {
    let n_shared = ctx.inp.dims.n_shared;
    for c in row.iter_ones() {
        let b = Binding::new(c, axes.col_dim, n_shared);
        ctx.bind(axes.col_var, Slot::Val(b), tp);
        descend(ctx, depth, &[axes.col_var]);
        if ctx.full() {
            break;
        }
    }
}

/// Recurses one level deeper, then unbinds the vars this frame bound.
fn descend(ctx: &mut Ctx<'_, '_>, depth: usize, bound_here: &[VarId]) {
    if depth == 0 {
        // This frame is the root TP: each descend from here starts one
        // independent subtree — a *seed* of the enumeration.
        ctx.stats.seeds_enumerated += 1;
    }
    recurse(ctx, depth + 1);
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
    use lbr_rdf::{EncodedGraph, Graph, Triple};
    use lbr_sparql::classify::{analyze, Analyzed};
    use lbr_sparql::parse_query;

    fn graph() -> EncodedGraph {
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

    const Q2: &str = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
        OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }";

    /// `s{i} <p> o{i}` and `o{i} <q> <c>` for `i < n`.
    fn chain_graph(n: usize) -> EncodedGraph {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        Graph::from_triples(
            (0..n)
                .flat_map(|i| {
                    [
                        t(&format!("s{i}"), "p", &format!("o{i}")),
                        t(&format!("o{i}"), "q", "c"),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .encode()
    }

    /// Two TPs; the second, `(?o ?r <c>)`, loads as P-S with `?r` rows and
    /// is reached through `?o`, its column variable.
    const CHAIN: &str = "SELECT * WHERE { ?s <p> ?o . OPTIONAL { ?o ?r <c> . } }";

    /// Plans `query` over `g` and runs init → prune: the join's input
    /// before [`schedule`].
    fn pruned(g: &EncodedGraph, query: &str) -> (Analyzed, VarTable, Vec<TpState>, CubeDims) {
        let store = BitMatStore::build(g);
        let q = parse_query(query).unwrap();
        let a = analyze(&q.pattern).unwrap();
        let vt = VarTable::from_tps(a.gosn.tps()).unwrap();
        let est = estimate_all(a.gosn.tps(), &g.dict, &store);
        let jorder = get_jvar_order(&a.gosn, &a.goj, &vt, &est);
        let mut scratch = PruneScratch::new();
        let mut tps = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store, &mut scratch)
            .unwrap()
            .tps
            .unwrap();
        prune_triples(
            &mut tps,
            &a.gosn,
            &a.goj,
            &vt,
            &jorder,
            &store.dims(),
            &mut scratch,
        );
        (a, vt, tps, store.dims())
    }

    /// Runs init → prune → schedule → join for `query` under `quota`.
    fn join(
        g: &EncodedGraph,
        query: &str,
        quota: Option<usize>,
    ) -> (Vec<String>, Vec<Vec<Option<Binding>>>, ExecStats) {
        let (a, vt, mut tps, dims) = pruned(g, query);
        let order = schedule(&mut tps, &a.gosn);
        let inputs = JoinInputs {
            tps: &tps,
            order: &order,
            gosn: &a.gosn,
            vt: &vt,
            dims,
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

    fn axes(tp: &TpState) -> Axes {
        match &tp.data {
            TpData::Two { axes, .. } | TpData::Three { axes, .. } => *axes,
            _ => panic!("tp{} is not a matrix TP", tp.id),
        }
    }

    /// The paper's running example: exactly {(Larry, NULL), (Julia,
    /// Seinfeld)}, with no nullification (Lemma 3.3).
    #[test]
    fn q2_final_results() {
        let (vars, mut rows, stats) = run(Q2);
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

    /// The schedule is Algorithm 5.4's per-binding rule, fixed once: the
    /// orders below are what that rule picks, worked out by hand from the
    /// pruned counts (`stps` sorts by master depth, then count).
    #[test]
    fn schedule_is_the_per_binding_rule() {
        let cases = [
            // Q2: tp0 is the only absolute master; tp1 is reached
            // through ?friend and binds ?sitcom for tp2.
            (Q2, vec![0, 1, 2]),
            // Nested OPTIONAL: counts put the inner supernode's tp3 (2
            // triples) before tp2 (5); both are reached through ?friend.
            (
                "PREFIX : <> SELECT * WHERE { ?sitcom :location ?loc .
                 OPTIONAL { ?friend :actedIn ?sitcom .
                   OPTIONAL { ?friend :actedIn ?other . :Jerry :hasFriend ?friend . } } }",
                vec![0, 1, 3, 2],
            ),
            // Cyclic GoJ with a two-jvar slave (best-match required):
            // stps is [1, 0, 3, 2] — location before actedIn in each
            // supernode — and each TP shares a bound var with its
            // predecessors.
            (
                "PREFIX : <> SELECT * WHERE { ?f :actedIn ?s . ?s :location ?w .
                 OPTIONAL { ?f :actedIn ?s2 . ?s2 :location ?w . } }",
                vec![1, 0, 3, 2],
            ),
            // One supernode, stps [2, 1, 0]: after tp2 binds ?f, tp1
            // (?s, ?w) has nothing bound yet and is passed over for tp0.
            (
                "PREFIX : <> SELECT * WHERE { ?f :actedIn ?s . ?s :location ?w .
                 :Jerry :hasFriend ?f . }",
                vec![2, 0, 1],
            ),
        ];
        let g = graph();
        for (query, want) in &cases {
            let (a, _, mut tps, _) = pruned(&g, query);
            let order = schedule(&mut tps, &a.gosn);
            assert_eq!(&order, want, "{query}");
            // Forward reads only: a matrix TP reached with one of its
            // variables bound has that variable as its rows.
            let mut bound: Vec<VarId> = Vec::new();
            for &tp in &order {
                if let TpData::Two { axes, .. } | TpData::Three { axes, .. } = &tps[tp].data {
                    assert!(
                        bound.contains(&axes.row_var) || !bound.contains(&axes.col_var),
                        "tp{tp} of {query} would need a reverse read"
                    );
                }
                bound.extend(tps[tp].vars().map(|(v, _)| v));
            }
        }
        let q = parse_query(cases[2].0).unwrap();
        assert!(analyze(&q.pattern).unwrap().class.nb_required);
    }

    /// Transposition happens only on demand: Q2's tp1 is reached through
    /// its row variable and keeps its loaded orientation; CHAIN's second
    /// TP is reached through its column variable and is transposed.
    #[test]
    fn only_a_tp_reached_through_its_column_is_transposed() {
        let (a, vt, mut tps, _) = pruned(&graph(), Q2);
        let loaded = axes(&tps[1]);
        assert_eq!(loaded.row_var, vt.id("friend").unwrap());
        schedule(&mut tps, &a.gosn);
        assert_eq!(axes(&tps[1]), loaded, "reached through its rows");

        let (a, vt, mut tps, _) = pruned(&chain_graph(3), CHAIN);
        let (o, r) = (vt.id("o").unwrap(), vt.id("r").unwrap());
        let loaded = axes(&tps[1]);
        assert_eq!((loaded.row_var, loaded.col_var), (r, o));
        assert_eq!(schedule(&mut tps, &a.gosn), vec![0, 1]);
        let read = axes(&tps[1]);
        assert_eq!((read.row_var, read.row_dim), (o, Dimension::Subject));
        assert_eq!((read.col_var, read.col_dim), (r, Dimension::Predicate));
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

    /// The LIMIT/ASK pushdown contract on `query` over `g`, which yields
    /// one row per seed: the join stops *exactly* at the quota — rows and
    /// enumerated seeds both equal it — and the rows are a prefix of the
    /// unbounded order.
    fn assert_quota_exact(g: &EncodedGraph, query: &str, n: usize) {
        let (_, all_rows, full) = join(g, query, None);
        assert_eq!(all_rows.len(), n);
        assert_eq!(full.seeds_enumerated, n as u64);
        for quota in [0, 1, 10, n - 1, n, 10 * n] {
            let (_, rows, stats) = join(g, query, Some(quota));
            let expect = quota.min(n);
            assert_eq!(rows.len(), expect, "quota={quota}");
            assert_eq!(
                stats.seeds_enumerated, expect as u64,
                "one row per seed here, so seeds must stop exactly at the quota"
            );
            assert_eq!(rows, all_rows[..expect], "prefix of the unbounded order");
        }
    }

    #[test]
    fn quota_stops_enumeration_exactly() {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = Graph::from_triples(
            (0..100)
                .map(|i| t(&format!("s{i}"), "p", &format!("o{i}")))
                .collect::<Vec<_>>(),
        )
        .encode();
        assert_quota_exact(&g, "SELECT * WHERE { ?s <p> ?o . }", 100);
    }

    /// The same contract when the second TP is read through its
    /// transposed matrix.
    #[test]
    fn quota_stops_exactly_through_a_transposed_tp() {
        assert_quota_exact(&chain_graph(100), CHAIN, 100);
    }

    /// The same contract on a product: the OPTIONAL shares no variable
    /// with its master, and each seed crosses with its one triple.
    #[test]
    fn quota_stops_exactly_on_a_product() {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let mut triples: Vec<Triple> = (0..100)
            .map(|i| t(&format!("s{i}"), "p", &format!("o{i}")))
            .collect();
        triples.push(t("k", "r", "v"));
        let g = Graph::from_triples(triples).encode();
        let query = "SELECT * WHERE { ?s <p> ?o . OPTIONAL { <k> <r> ?v . } }";
        assert_quota_exact(&g, query, 100);
    }

    /// A slave under a nulled master is unmatched without being read. The
    /// innermost OPTIONAL shares no variable with Larry's failed sitcom
    /// group; read anyway, it would bind every location under the NULL
    /// `?sitcom` and leave them to nullification.
    #[test]
    fn a_slave_under_a_nulled_master_is_not_read() {
        let (vars, mut rows, stats) =
            run("PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity .
                 OPTIONAL { ?x :location ?y . } } }");
        assert_eq!(vars, vec!["friend", "sitcom", "x", "y"]);
        rows.sort();
        assert_eq!(rows.len(), 5, "Julia's Seinfeld × 4 locations, and Larry");
        assert_eq!(rows[4], vec![Some("Larry".to_string()), None, None, None]);
        assert_eq!(stats.nullification_fired, 0);
    }
}
