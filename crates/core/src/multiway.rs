//! The multi-way pipelined join (Algorithm 5.4), with nullification and
//! the FaN (filter-and-nullification) hook of §5.2.
//!
//! TPs are visited depth-first in one static order, [`schedule`]d once per
//! join from `stps` (selective absolute masters first, then down the
//! master-slave hierarchy). Each TP enumerates its triples consistent with
//! the current variable map. A slave TP with no consistent triple binds
//! its remaining variables to NULL; an absolute-master TP with no
//! consistent triple rolls the branch back. No pairwise intermediate
//! results or hash tables are materialized: the only extra memory is one
//! slot per query variable (the paper's `vmap`).
//!
//! Because masters precede slaves in `stps` and a TP only binds
//! still-free variables, master bindings win over slave bindings for
//! shared variables — the paper's output rule.
//!
//! Algorithm 5.4 relies on connectivity to NULL a slave whose master is
//! NULL: the slave shares a NULL variable and cannot match. A Cartesian
//! pattern breaks that, so the join states it outright. A slave TP whose
//! master supernode has a nulled TP is unmatched without reading its
//! matrix, and every supernode whose (transitive) master failed fails too.
//!
//! ## One schedule, compiled into a program
//!
//! Algorithm 5.4 takes, at each level, the first unvisited TP in `stps`
//! order that has a bound variable. Visiting a TP leaves every one of its
//! variables bound or NULL, so that choice depends only on *which* TPs are
//! visited: [`schedule`] makes it once, before any enumeration. The same
//! pass fixes each matrix TP's read direction — one reached through its
//! column variable alone is transposed in place (`TpState::transpose`) —
//! so every matrix is read forward.
//!
//! The join compiles that order into a program of one step per TP. Which
//! of a TP's variables the steps before it bind is static, so each step's
//! op is fixed before the first binding:
//! - `Exists` for a TP without variables, `Check1` for a one-variable TP
//!   whose variable is bound and `Enum1` for one whose variable is free;
//! - a matrix read, of a `Two` TP or of each predicate slice of a `Three`:
//!   `Scan` when both variables are free (the root), `Expand` when the row
//!   is bound, `Probe` when both are, and `Lookup` for an `Expand` over a
//!   matrix holding one bit per row, which binds the column with one seek.
//!
//! A slot is an `Option<Binding>`: the program knows which `None` is free
//! and which is NULL. Each variable's binding supernode, that of the first
//! TP holding it, is static too.
//!
//! **Runs.** `Exists`, `Check1`, `Probe` and `Lookup` (and a `Three` probe
//! whose predicate is bound) match at most once. A maximal run of such
//! steps executes in one loop instead of one recursion level per TP. A
//! miss in an absolute master ends the run and rolls the branch back; a
//! miss in a slave NULLs the step's free variables and the run goes on
//! past it. An enumerating step ends the run and recurses once per match.
//! Each op's read exists once: an enumerating step passes it the rest of
//! the program as a continuation, a run passes an empty one.
//!
//! **Failure is counted when a step NULLs.** A nulled step counts one
//! failure on every supernode of its [`Gosn::failure_closure`] and one
//! nulled master on each of its [`Gosn::slaves_of`]; unwinding takes them
//! back. "Is a master of this step nulled" is one counter read, and
//! emission reads the failed supernodes off the counts. A row with nothing
//! nulled and no filter is a copy of the slots.
//!
//! **Dead supernodes.** A slave supernode with a TP pruned to nothing
//! fails on every row, since that TP cannot match, and so does its failure
//! closure. Their steps leave the program, their failure counts stay at
//! one and their variables stay NULL. One exception keeps every step: a
//! live step reading a variable that a dead step would bind first.
//!
//! ## Forward-only cursors, zero-allocation steady state
//!
//! Every candidate is read **forward, directly off the compressed rows in
//! each BitMat's arena** ([`lbr_bitmat::RowRef::iter_ones`] cursors, lent
//! without a copy), or tested by a membership probe. There are no
//! transposed copies, candidate vectors or adjacency lists; the only
//! per-row allocation left in the steady state is the pushed result row
//! itself.
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
use lbr_bitmat::{BitMat, BitVec, CubeDims, RowRef};
use lbr_rdf::{Dictionary, Dimension, Term};
use lbr_sparql::algebra::Expr;
use lbr_sparql::gosn::{Gosn, SnId, TpId};
use std::cell::Cell;
use std::time::Instant;

/// How many [`Ctx::full`] polls elapse between wall-clock reads when a
/// deadline is set. `Instant::now()` is a vDSO call (~20ns) but the poll
/// sits on the seed-enumeration hot path, so it is amortized.
const DEADLINE_POLL_MASK: u32 = 0x3FF; // every 1024 polls

/// A variable no compiled step has bound yet.
const UNBOUND: SnId = SnId::MAX;

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
    /// Steps of the compiled join program: the TPs the join reads.
    pub steps: u64,
    /// Steps that match at most once and run in loops, not one recursion
    /// level each.
    pub run_steps: u64,
    /// TPs of dead supernodes, left out of the program.
    pub dropped: u64,
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

/// How a matrix step reads its matrix, fixed by which of its variables
/// the steps before it bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    /// Both variables free: every row, every column.
    Scan,
    /// Row bound: the columns of that row.
    Expand,
    /// Row bound over a matrix holding one bit per row: that bit.
    Lookup,
    /// Both bound: a membership test.
    Probe,
}

/// What a step does with its TP's data.
#[derive(Debug, Clone, Copy)]
enum Op<'t> {
    /// A TP without variables: whether its triple exists.
    Exists(bool),
    /// A one-variable TP whose variable is bound: a candidate test.
    Check1(VarId, Dimension, &'t BitVec),
    /// A one-variable TP whose variable is free: every candidate.
    Enum1(VarId, Dimension, &'t BitVec),
    /// A two-variable TP.
    Two(Read, Axes, &'t BitMat),
    /// A `(?s ?p ?o)` TP: each predicate slice is read as `read` says.
    /// `p` is the predicate variable and whether it is free: a free one is
    /// bound to each slice's predicate, a bound one must equal it.
    Three {
        read: Read,
        axes: Axes,
        mats: &'t [(u32, BitMat)],
        p: (VarId, bool),
    },
}

impl Op<'_> {
    /// Seek fingers the op owns: one per matrix.
    fn matrices(&self) -> usize {
        match self {
            Op::Two(..) => 1,
            Op::Three { mats, .. } => mats.len(),
            _ => 0,
        }
    }
}

/// One TP of the compiled join program.
#[derive(Debug)]
struct Step<'t> {
    op: Op<'t>,
    /// Whether the op matches at most once: such a step runs in the loop
    /// of its run, not in a recursion level of its own.
    once: bool,
    /// The TP's supernode.
    sn: SnId,
    /// Whether `sn` is an absolute master: a miss there rolls the branch
    /// back, anywhere else it NULLs the step's free variables.
    master: bool,
    /// The variables this step binds: the first `n_free`.
    free: [VarId; 3],
    n_free: usize,
    /// The op's first seek finger; a `Three` owns one per slice.
    finger: usize,
}

/// Compiles `inp.order` into the join program (see the module docs) and
/// fills `var_sn` with each variable's binding supernode. A dead
/// supernode's failure count in `sns` is set to one for good.
fn compile<'t>(inp: &JoinInputs<'t>, var_sn: &mut [SnId], sns: &mut [SnState]) -> Vec<Step<'t>> {
    let gosn = inp.gosn;
    for &tp in inp.order {
        if inp.tps[tp].is_empty() && !gosn.tp_in_absolute_master(tp) {
            for &sn in gosn.failure_closure(gosn.sn_of_tp(tp)) {
                sns[sn].failed = 1;
            }
        }
    }
    compile_live(inp, var_sn, sns).unwrap_or_else(|| {
        sns.iter_mut().for_each(|s| s.failed = 0);
        var_sn.fill(UNBOUND);
        compile_live(inp, var_sn, sns).unwrap_or_default()
    })
}

/// The steps of the TPs in supernodes whose failure count is zero, or
/// `None` when one of them reads a variable a left-out TP binds first.
fn compile_live<'t>(
    inp: &JoinInputs<'t>,
    var_sn: &mut [SnId],
    sns: &[SnState],
) -> Option<Vec<Step<'t>>> {
    let gosn = inp.gosn;
    let mut steps = Vec::with_capacity(inp.order.len());
    let mut finger = 0;
    for &tp in inp.order {
        let sn = gosn.sn_of_tp(tp);
        let live = sns[sn].failed == 0;
        let bound = |v: VarId| var_sn[v] != UNBOUND;
        let (mut free, mut n_free) = ([0; 3], 0);
        for (v, _) in inp.tps[tp].vars() {
            if !bound(v) {
                free[n_free] = v;
                n_free += 1;
            } else if live && sns[var_sn[v]].failed > 0 {
                return None;
            }
        }
        // schedule() transposed a TP reached through its column alone.
        let read = |axes: &Axes| match (bound(axes.row_var), bound(axes.col_var)) {
            (true, true) => Read::Probe,
            (true, false) => Read::Expand,
            (false, _) => Read::Scan,
        };
        let op = match &inp.tps[tp].data {
            TpData::Zero { present } => Op::Exists(*present),
            TpData::One { var, dim, cands } if bound(*var) => Op::Check1(*var, *dim, cands),
            TpData::One { var, dim, cands } => Op::Enum1(*var, *dim, cands),
            TpData::Two { axes, mat } => match read(axes) {
                Read::Expand if mat.triple_count() == mat.n_present() as u64 => {
                    Op::Two(Read::Lookup, *axes, mat)
                }
                read => Op::Two(read, *axes, mat),
            },
            TpData::Three { p_var, axes, mats } => Op::Three {
                read: read(axes),
                axes: *axes,
                mats,
                p: (*p_var, !bound(*p_var)),
            },
        };
        free[..n_free].iter().for_each(|&v| var_sn[v] = sn);
        if live {
            let once = match op {
                Op::Exists(_) | Op::Check1(..) | Op::Two(Read::Probe | Read::Lookup, ..) => true,
                Op::Three { read, p, .. } => read == Read::Probe && !p.1,
                Op::Enum1(..) | Op::Two(..) => false,
            };
            let master = gosn.is_absolute_master(sn);
            steps.push(Step {
                op,
                once,
                sn,
                master,
                free,
                n_free,
                finger,
            });
            finger += op.matrices();
        }
    }
    Some(steps)
}

/// Runs the multi-way join, returning full-width rows (one column per
/// variable in [`VarTable`] order).
pub fn multi_way_join(inp: &JoinInputs<'_>) -> (Vec<Vec<Option<Binding>>>, ExecStats) {
    let (mut ctx, prog) = Ctx::new(inp);
    recurse(&mut ctx, &prog, 0);
    ctx.stats.deadline_expired = ctx.expired.get();
    (ctx.rows, ctx.stats)
}

/// A supernode's counts of the nulled steps on the current path.
#[derive(Debug, Clone, Copy, Default)]
struct SnState {
    /// Nulled steps whose failure closure holds this supernode (one for
    /// good in a dead supernode): it has failed when non-zero.
    failed: i32,
    /// Nulled steps in this supernode's masters: its own steps are then
    /// unmatched without a read.
    master_nulls: i32,
}

/// The join state: the variable map, the output and its scratch. The
/// inputs are reached through a shared reference the recursion copies out,
/// so it can hold TP data while it rebinds slots.
struct Ctx<'a> {
    inp: &'a JoinInputs<'a>,
    /// `sn_vars[sn][var]`: does `var` occur in a TP of `sn`? The FILTER
    /// visibility scope for supernode filters.
    sn_vars: Vec<Vec<bool>>,
    /// The same scope for each of the GoSN's group filters.
    group_vars: Vec<Vec<bool>>,
    /// The paper's `vmap`. `None` is free or NULL; the program knows
    /// which.
    slots: Vec<Option<Binding>>,
    /// Each variable's binding supernode.
    var_sn: Vec<SnId>,
    sns: Vec<SnState>,
    /// Nulled steps on the current path.
    n_nulled: i32,
    /// The seek finger of every matrix: step `s`'s `k`-th matrix (its
    /// `k`-th predicate slice, or its one matrix) owns
    /// `fingers[s.finger + k]`.
    fingers: Vec<usize>,
    rows: Vec<Vec<Option<Binding>>>,
    /// Reusable failed-supernode buffer of [`Ctx::emit`].
    failed: Vec<bool>,
    /// Deadline-poll counter: [`Ctx::full`] reads the wall clock only
    /// every `DEADLINE_POLL_MASK + 1` calls.
    poll: Cell<u32>,
    /// Set once [`JoinInputs::deadline`] is observed to have passed, so
    /// every later poll stops without re-reading the clock.
    expired: Cell<bool>,
    stats: ExecStats,
}

impl<'a> Ctx<'a> {
    fn new(inp: &'a JoinInputs<'a>) -> (Ctx<'a>, Vec<Step<'a>>) {
        let mut sn_vars = vec![vec![false; inp.vt.len()]; inp.gosn.n_supernodes()];
        for (tp, state) in inp.tps.iter().enumerate() {
            for (v, _) in state.vars() {
                sn_vars[inp.gosn.sn_of_tp(tp)][v] = true;
            }
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
        let mut var_sn = vec![UNBOUND; inp.vt.len()];
        let mut sns = vec![SnState::default(); inp.gosn.n_supernodes()];
        let prog = compile(inp, &mut var_sn, &mut sns);
        let stats = ExecStats {
            steps: prog.len() as u64,
            run_steps: prog.iter().filter(|s| s.once).count() as u64,
            dropped: (inp.order.len() - prog.len()) as u64,
            ..ExecStats::default()
        };
        let ctx = Ctx {
            inp,
            sn_vars,
            group_vars,
            slots: vec![None; inp.vt.len()],
            var_sn,
            sns,
            n_nulled: 0,
            fingers: vec![0; prog.iter().map(|s| s.op.matrices()).sum()],
            rows: Vec::new(),
            failed: Vec::new(),
            poll: Cell::new(0),
            expired: Cell::new(false),
            stats,
        };
        (ctx, prog)
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

    /// Adds `by` (±1) nulled steps of supernode `sn` to the counts: a
    /// failure for each supernode of its closure, a nulled master for each
    /// of its slaves.
    fn count_null(&mut self, sn: SnId, by: i32) {
        let gosn = self.inp.gosn;
        for &x in gosn.failure_closure(sn) {
            self.sns[x].failed += by;
        }
        for &x in gosn.slaves_of(sn) {
            self.sns[x].master_nulls += by;
        }
        self.n_nulled += by;
    }
    // lbr-lint: end

    /// Emits one result row: FaN filters (supernode, then group) →
    /// nullification → push. The failed supernodes are read off the
    /// counts; only a surviving row is allocated.
    fn emit(&mut self) {
        if self.full() {
            return; // quota met (and handles the degenerate quota of 0)
        }
        let inp = self.inp;
        let gosn = inp.gosn;
        if self.n_nulled == 0 && inp.fan_filters.is_empty() && gosn.group_filters().is_empty() {
            self.rows.push(self.slots.clone());
            return;
        }
        self.failed.clear();
        self.failed.extend(self.sns.iter().map(|s| s.failed > 0));

        // FaN: supernode filters, evaluated over the supernode's own
        // variable scope (a variable bound only outside the supernode
        // reads as unbound, like in the reference oracle); then group
        // filters, inner ones first, over their supernodes' scope with
        // the bindings of failed supernodes hidden.
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

        // Nullification: bindings produced by failed supernodes become
        // NULL (Rao et al.'s operator; a no-op when nothing failed).
        let mut rewrote = false;
        let row = (self.slots.iter().zip(&self.var_sn))
            .map(|(&b, &sn)| {
                let hidden = b.is_some() && self.failed[sn];
                rewrote |= hidden;
                b.filter(|_| !hidden)
            })
            .collect();
        if rewrote {
            self.stats.nullification_fired += 1;
        }
        self.rows.push(row);
    }

    /// Evaluates a filter over the variables `scope` marks, as bound now.
    fn holds(&self, expr: &Expr, scope: &[bool]) -> bool {
        filter_eval::eval(expr, &ScopedLookup { ctx: self, scope })
    }

    /// Fails `sn` and its failure closure, or returns `false` when `sn` is
    /// an absolute master: masters cannot be nullified, so the row drops.
    fn fail(&mut self, sn: SnId) -> bool {
        let gosn = self.inp.gosn;
        if gosn.is_absolute_master(sn) {
            return false;
        }
        for &x in gosn.failure_closure(sn) {
            self.failed[x] = true;
        }
        true
    }
}

/// Variable lookup for a FILTER: only variables `scope` marks are visible
/// (§5.2 FILTER scope), and a binding made by a failed supernode reads as
/// unbound.
struct ScopedLookup<'c, 'a> {
    ctx: &'c Ctx<'a>,
    scope: &'c [bool],
}

impl VarLookup for ScopedLookup<'_, '_> {
    fn term(&self, name: &str) -> Option<&Term> {
        let ctx = self.ctx;
        let id = ctx.inp.vt.id(name)?;
        let b = ctx.slots[id].filter(|_| self.scope[id] && !ctx.failed[ctx.var_sn[id]])?;
        Some(b.decode(ctx.inp.dict))
    }
}

// lbr-lint: no_alloc — the recursion, its run loop and every op's read:
// all cursors and row buffers come from the context's scratch.
/// Algorithm 5.4 from program step `i` on. A run of at-most-one steps is
/// one loop; an enumerating step recurses once per match and ends the
/// frame.
fn recurse(ctx: &mut Ctx<'_>, prog: &[Step<'_>], mut i: usize) {
    if ctx.full() {
        return; // quota met: unwind without starting new subtrees
    }
    while let Some(step) = prog.get(i) {
        // A step under a nulled master is unmatched without a read.
        let matched = ctx.sns[step.sn].master_nulls == 0
            && if step.once {
                each(ctx, step, |_| {})
            } else {
                each(ctx, step, |ctx| descend(ctx, prog, i))
            };
        // ln 27–32: an absolute master cannot have NULL bindings, so the
        // branch rolls back; a slave NULLs its free variables and goes on.
        if !matched && !step.master {
            for &v in &step.free[..step.n_free] {
                ctx.slots[v] = None;
            }
            ctx.count_null(step.sn, 1);
            recurse(ctx, prog, i + 1);
            ctx.count_null(step.sn, -1);
        }
        if !(matched && step.once) {
            return;
        }
        if i == 0 {
            ctx.stats.seeds_enumerated += 1;
        }
        i += 1;
    }
    ctx.emit();
}

/// Recurses past step `i`, counting a seed when `i` is the root.
fn descend(ctx: &mut Ctx<'_>, prog: &[Step<'_>], i: usize) {
    if i == 0 {
        // Each match of the root starts one independent subtree — a
        // *seed* of the enumeration.
        ctx.stats.seeds_enumerated += 1;
    }
    recurse(ctx, prog, i + 1);
}

/// Reads `step`'s TP against the slots: binds its free variables to each
/// match in turn, calls `then` on each, and returns whether any matched.
/// An at-most-one op calls `then` at most once and leaves its bindings in
/// the slots, so the run loop passes an empty `then`.
fn each(ctx: &mut Ctx<'_>, step: &Step<'_>, mut then: impl FnMut(&mut Ctx<'_>)) -> bool {
    let n_shared = ctx.inp.dims.n_shared;
    let hit = match step.op {
        Op::Exists(present) => present,
        Op::Check1(var, dim, cands) => {
            ctx.slots[var].is_some_and(|b| b.probes(dim) && cands.get(b.id))
        }
        Op::Enum1(var, dim, cands) => {
            let mut any = false;
            for id in cands.iter_ones() {
                any = true;
                ctx.slots[var] = Some(Binding::new(id, dim, n_shared));
                then(ctx);
                if ctx.full() {
                    break;
                }
            }
            return any;
        }
        Op::Two(read, axes, mat) => {
            return read_matrix(ctx, read, axes, mat, step.finger, &mut then);
        }
        Op::Three {
            read,
            axes,
            mats,
            p: (p_var, p_free),
        } => {
            let mut any = false;
            for (k, (pid, mat)) in mats.iter().enumerate() {
                if ctx.full() {
                    break;
                }
                if p_free {
                    ctx.slots[p_var] = Some(Binding::new(*pid, Dimension::Predicate, n_shared));
                } else if !ctx.slots[p_var]
                    .is_some_and(|b| b.probes(Dimension::Predicate) && b.id == *pid)
                {
                    continue;
                }
                any |= read_matrix(ctx, read, axes, mat, step.finger + k, &mut then);
            }
            return any;
        }
    };
    if hit {
        then(ctx);
    }
    hit
}

/// One read of an oriented matrix — a `Two` TP or one predicate slice of
/// a `Three` — and it is always forward. A bound row is found by seeking
/// from `ctx.fingers[finger]`. Returns whether a triple matched.
fn read_matrix(
    ctx: &mut Ctx<'_>,
    read: Read,
    axes: Axes,
    mat: &BitMat,
    finger: usize,
    then: &mut impl FnMut(&mut Ctx<'_>),
) -> bool {
    let n_shared = ctx.inp.dims.n_shared;
    let hit = match read {
        Read::Scan => {
            let mut any = false;
            for (r, row) in mat.rows() {
                if ctx.full() {
                    break;
                }
                any = true;
                ctx.slots[axes.row_var] = Some(Binding::new(r, axes.row_dim, n_shared));
                read_row(ctx, axes, row, then);
            }
            return any;
        }
        Read::Expand => {
            let row = seek(ctx, axes, mat, finger);
            if let Some(row) = row {
                read_row(ctx, axes, row, then);
            }
            return row.is_some(); // a stored row is never empty
        }
        Read::Lookup => match seek(ctx, axes, mat, finger).and_then(|row| row.iter_ones().next()) {
            Some(c) => {
                ctx.slots[axes.col_var] = Some(Binding::new(c, axes.col_dim, n_shared));
                true
            }
            None => false,
        },
        Read::Probe => match ctx.slots[axes.col_var] {
            Some(c) if c.probes(axes.col_dim) => {
                seek(ctx, axes, mat, finger).is_some_and(|row| row.contains(c.id))
            }
            _ => false,
        },
    };
    if hit {
        then(ctx);
    }
    hit
}

/// The row of the bound row variable, sought from the matrix's finger;
/// `None` when the variable is NULL, of another dimension, or has no row.
fn seek<'m>(ctx: &mut Ctx<'_>, axes: Axes, mat: &'m BitMat, finger: usize) -> Option<RowRef<'m>> {
    let r = ctx.slots[axes.row_var].filter(|r| r.probes(axes.row_dim))?;
    mat.seek_row(r.id, &mut ctx.fingers[finger])
}

/// Binds the column variable to each ID of `row` in turn and calls `then`.
fn read_row(ctx: &mut Ctx<'_>, axes: Axes, row: RowRef<'_>, then: &mut impl FnMut(&mut Ctx<'_>)) {
    let n_shared = ctx.inp.dims.n_shared;
    for c in row.iter_ones() {
        ctx.slots[axes.col_var] = Some(Binding::new(c, axes.col_dim, n_shared));
        then(ctx);
        if ctx.full() {
            break;
        }
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

    /// The ops of the compiled program of `query` over `g`, and what the
    /// join reports of it.
    fn program(g: &EncodedGraph, query: &str) -> (Vec<String>, ExecStats) {
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
            quota: None,
            deadline: None,
        };
        let (ctx, prog) = Ctx::new(&inputs);
        let ops = (prog.iter())
            .map(|step| match step.op {
                Op::Exists(_) => "Exists".to_string(),
                Op::Check1(..) => "Check1".to_string(),
                Op::Enum1(..) => "Enum1".to_string(),
                Op::Two(read, ..) => format!("Two/{read:?}"),
                Op::Three { read, p, .. } => format!("Three/{read:?}/p_free={}", p.1),
            })
            .collect();
        (ops, ctx.stats)
    }

    /// The schedule compiles to the ops it fixes. Q2: Jerry's friends are
    /// enumerated, and the pruned slave holds one sitcom for Julia, so
    /// its two steps are one run: a lookup, then a candidate test. A star
    /// whose arms hold one value per subject is a scan and a run of
    /// lookups. The cyclic query reads `?s`'s sitcoms (Curb has two
    /// actors), looks each location's one sitcom up and closes the cycle
    /// with a probe.
    #[test]
    fn the_schedule_compiles_to_static_ops() {
        let (ops, stats) = program(&graph(), Q2);
        assert_eq!(ops, ["Enum1", "Two/Lookup", "Check1"]);
        assert_eq!((stats.steps, stats.run_steps, stats.dropped), (3, 2, 0));

        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let star = Graph::from_triples(
            (0..5)
                .flat_map(|i| {
                    let s = format!("s{i}");
                    [
                        t(&s, "a", &format!("x{i}")),
                        t(&s, "b", &format!("y{i}")),
                        t(&s, "c", &format!("z{i}")),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .encode();
        let (ops, stats) = program(
            &star,
            "SELECT * WHERE { ?s <a> ?x . ?s <b> ?y . OPTIONAL { ?s <c> ?z . } }",
        );
        assert_eq!(ops, ["Two/Scan", "Two/Lookup", "Two/Lookup"]);
        assert_eq!(stats.run_steps, 2);

        let (ops, stats) = program(
            &graph(),
            "PREFIX : <> SELECT * WHERE { ?f :actedIn ?s . ?s :location ?w .
             OPTIONAL { ?f :actedIn ?s2 . ?s2 :location ?w . } }",
        );
        assert_eq!(ops, ["Two/Scan", "Two/Expand", "Two/Lookup", "Two/Probe"]);
        assert_eq!((stats.steps, stats.run_steps, stats.dropped), (4, 2, 0));
    }

    /// A slave supernode pruned to nothing leaves the program with the
    /// slaves it fails, and its variables stay NULL.
    #[test]
    fn a_dead_supernode_leaves_the_program() {
        let query = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :location ?loc . OPTIONAL { ?loc :actedIn ?x . } } }";
        let (ops, stats) = program(&graph(), query);
        assert_eq!(ops, ["Enum1"]);
        assert_eq!(stats.dropped, 2);
        let (_, rows, stats) = run(query);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[1..].iter().all(Option::is_none)));
        assert_eq!(stats.nullification_fired, 0);
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

    /// The pushdown contract when the root is an `Exists` step in a run:
    /// its one match is the one seed.
    #[test]
    fn quota_stops_exactly_under_a_root_exists() {
        let query =
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend :Julia . :Julia :actedIn :Veep . }";
        assert_eq!(program(&graph(), query).0, ["Exists", "Exists"]);
        assert_quota_exact(&graph(), query, 1);
    }

    /// A run whose absolute master misses rolls the branch back mid-run.
    /// On a triangle `?a → ?b → ?c → ?a` whose odd cycles do not close
    /// (semi-joins keep every triple: each odd `?c` points to another odd
    /// `?a`), the root scans every `?a`, a lookup binds `?c` and the closing
    /// probe misses on every other seed: still one seed per root match,
    /// and under a quota the rows are a prefix and the seeds stop at the
    /// one that produced the last row.
    #[test]
    fn a_run_rolls_back_on_an_absolute_master_miss() {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let n = 40;
        let g = Graph::from_triples(
            (0..n)
                .flat_map(|i| {
                    let back = if i % 2 == 0 { i } else { (i + 2) % n };
                    [
                        t(&format!("a{i:02}"), "p", &format!("b{i:02}")),
                        t(&format!("b{i:02}"), "q", &format!("c{i:02}")),
                        t(&format!("c{i:02}"), "r", &format!("a{back:02}")),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .encode();
        let query = "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?a . }";
        assert_eq!(
            program(&g, query).0,
            ["Two/Scan", "Two/Lookup", "Two/Probe"]
        );
        let (_, all_rows, full) = join(&g, query, None);
        assert_eq!(all_rows.len(), n / 2);
        assert_eq!(full.seeds_enumerated, n as u64);
        for quota in [1, 7, n / 2] {
            let (_, rows, stats) = join(&g, query, Some(quota));
            assert_eq!(rows, all_rows[..quota], "quota={quota}");
            assert_eq!(
                stats.seeds_enumerated,
                2 * quota as u64 - 1,
                "quota={quota}"
            );
        }
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
