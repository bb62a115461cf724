//! `prune_triples` (Algorithm 3.2): semi-joins and clustered-semi-joins
//! over the jvar orders, implemented with fold/unfold (Algorithms 5.2, 5.3).
//!
//! For each join variable `?j` in the pass order:
//!
//! 1. **semi-joins** `tpj ⋉?j tpi` for every master/slave TP pair sharing
//!    `?j` — the slave's triples are restricted to the master's bindings
//!    (never the other way round: a master row without a slave match must
//!    survive, that is what OPTIONAL means);
//! 2. **clustered-semi-join** over all TPs sharing `?j` within a supernode
//!    and its peers — inner-join restrictions flow in both directions.
//!
//! Acyclic well-designed queries come out *minimal* (Lemma 3.3); cyclic
//! queries are merely reduced and may need nullification/best-match later.
//!
//! ## Change-driven
//!
//! Both operations are idempotent, and `init`'s masked loads have already
//! applied most of them, so the sweep recomputes only what has changed.
//! Every [`TpState`] carries a generation, redrawn whenever it loses a
//! triple ([`TpState::gen`]):
//!
//! * a fold is a function of the TP's triples, kept in the query's fold
//!   memo keyed by TP, variable and binding space, and recomputed only
//!   when the TP's generation moved. `init`'s masks fill the memo, and
//!   after an unfold with β the TP's fold in that space *is* β, which the
//!   memo takes over without folding again;
//! * an operation whose inputs still carry the generations its last run
//!   left them at is skipped: running it again would change nothing;
//! * when one runs, β = fold(master) ∧ fold(slave) is built in one pass
//!   that also tells whether the slave loses a binding. A TP is unfolded
//!   only when β misses one of its bindings or it holds a binding beyond
//!   β's space (the clipped unfold drops those); otherwise the unfold
//!   would remove nothing.
//!
//! The pass order is unchanged, so the surviving triples are exactly the
//! unconditional sweep's, and Lemma 3.3's argument is untouched.
//!
//! All set algebra runs through the `lbr-bitmat` kernel layer with a
//! per-query [`PruneScratch`] pool: the fold memo, the β mask, kernel
//! scratch, the per-jvar TP work lists and the operation log are reused
//! across every semi-join of both passes, so the steady-state inner loop
//! of `prune_one_jvar` performs **no heap allocation** (buffers grow to a
//! high-water mark on the first query and circulate afterwards; the
//! `alloc_check` gate proves a warm prune allocates nothing).

use crate::bindings::{op_space_len, VarId, VarTable};
use crate::init::TpState;
use crate::jvar_order::JvarOrder;
use lbr_bitmat::{BitVec, CubeDims, SetScratch};
use lbr_sparql::goj::Goj;
use lbr_sparql::gosn::{Gosn, TpId};

/// Outcome of the pruning phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneOutcome {
    /// Pruning completed.
    Done,
    /// A TP in an absolute-master supernode became empty — the query has no
    /// results (§5 "simple optimization").
    EmptyAbsoluteMaster,
}

/// The per-query scratch pool of `init` and the pruning phase: the fold
/// memo, the intersection mask, row-kernel scratch, the per-jvar TP work
/// lists and the log of what each operation last left behind. Create one
/// per query (or reuse across queries) and pass the same pool to
/// [`crate::init::init`] and [`prune_triples`]; every buffer is cleared,
/// never shrunk, between uses.
#[derive(Debug, Default)]
pub struct PruneScratch {
    /// Folds by TP, variable and binding space.
    pub(crate) memo: FoldMemo,
    /// Intersection accumulator (the β mask of Algorithms 5.2/5.3).
    beta: BitVec,
    /// Row-kernel scratch for the unfolds.
    set: SetScratch,
    /// TPs holding the current jvar.
    holders: Vec<TpId>,
    /// `holders` sorted outermost-first for the semi-join sweep.
    by_depth: Vec<TpId>,
    /// Peer groups already clustered this jvar.
    groups_done: Vec<usize>,
    /// Members of the current clustered-semi-join.
    members: Vec<TpId>,
    /// Per jvar, the generations each operation of its step left its
    /// inputs at, the operations' inputs back to back in sweep order.
    last_run: Vec<Vec<u64>>,
    /// Compressed-set intersections since the last [`prune_triples`]
    /// began.
    intersections: u64,
    /// Operations run and skipped since the last [`prune_triples`] began.
    ran: u64,
    skipped: u64,
}

impl PruneScratch {
    /// A fresh, empty pool.
    pub fn new() -> PruneScratch {
        PruneScratch::default()
    }

    /// Compressed-set intersections (one per semi-join β, one per
    /// clustered-semi-join member fold ANDed into β) the last
    /// [`prune_triples`] executed.
    pub fn intersections(&self) -> u64 {
        self.intersections
    }

    /// Semi-joins plus clustered-semi-joins the last [`prune_triples`]
    /// ran.
    pub fn ran(&self) -> u64 {
        self.ran
    }

    /// Semi-joins plus clustered-semi-joins the last [`prune_triples`]
    /// skipped because their inputs had not changed since they last ran.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Forgets every memoized fold, so that the next [`prune_triples`]
    /// folds each TP afresh (as [`crate::init::init`] does when a query
    /// starts).
    pub fn clear_folds(&mut self) {
        self.memo.clear();
    }
}

/// One memoized fold.
#[derive(Debug, Default)]
struct Fold {
    /// `(tp, var, space_len)`.
    key: (TpId, VarId, u32),
    /// The TP's generation when `bits` was folded.
    gen: u64,
    /// Whether a binding lay at or beyond `space_len`.
    clipped: bool,
    bits: BitVec,
}

/// The folds of one query, keyed by `(TP, variable, binding space)` and
/// stamped with the TP's generation. Slots past `live` keep their buffers
/// for the next query.
#[derive(Debug, Default)]
pub(crate) struct FoldMemo {
    slots: Vec<Fold>,
    live: usize,
}

// lbr-lint: no_alloc — memo lookups reuse pooled slots; a slot is pushed
// only when a query holds more folds than any before it on this pool.
impl FoldMemo {
    /// Forgets every fold, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
    }

    /// The slot holding `tp`'s fold of `var` in a `space_len`-bit space,
    /// folded afresh unless the slot has it at `tp`'s current generation;
    /// `None` when `tp` does not bind `var`.
    pub(crate) fn fold(&mut self, tp: &TpState, var: VarId, space_len: u32) -> Option<usize> {
        let key = (tp.id, var, space_len);
        let found = self.slots[..self.live].iter().position(|f| f.key == key);
        if let Some(slot) = found {
            if self.slots[slot].gen == tp.gen() {
                return Some(slot);
            }
        }
        let slot = found.unwrap_or(self.live);
        if slot == self.slots.len() {
            self.slots.push(Fold::default());
        }
        let f = &mut self.slots[slot];
        f.clipped = tp.fold_var_into(var, space_len, &mut f.bits)?;
        f.key = key;
        f.gen = tp.gen();
        self.live = self.live.max(slot + 1);
        Some(slot)
    }

    /// The fold in `slot`.
    pub(crate) fn bits(&self, slot: usize) -> &BitVec {
        &self.slots[slot].bits
    }

    /// Records that the TP of `slot` was unfolded with `beta` in the
    /// slot's space and is now at generation `gen`: its fold there is
    /// exactly `beta`, which is swapped in (`beta` gets the old buffer).
    fn take_beta(&mut self, slot: usize, gen: u64, beta: &mut BitVec) {
        let f = &mut self.slots[slot];
        std::mem::swap(&mut f.bits, beta);
        f.gen = gen;
        f.clipped = false;
    }

    /// [`FoldMemo::take_beta`] for a β the caller keeps: copied in.
    fn copy_beta(&mut self, slot: usize, gen: u64, beta: &BitVec) {
        let f = &mut self.slots[slot];
        f.bits.copy_from(beta);
        f.gen = gen;
        f.clipped = false;
    }

    /// Whether the TP of `slot` has a binding beyond the slot's space,
    /// which a clipped unfold in that space drops.
    fn clipped(&self, slot: usize) -> bool {
        self.slots[slot].clipped
    }
}

/// Algorithm 5.2: `semi-join(?j, tpj, tpi)` — prune the slave by the
/// master's bindings. Both folds come from the memo; β is built in one
/// pass that tells whether the slave loses a binding, and the slave is
/// unfolded only if it does (or holds a binding beyond β's space). Returns
/// whether the slave was unfolded. Nothing is allocated in the steady
/// state.
pub fn semi_join(
    dims: &CubeDims,
    var: usize,
    slave: &mut TpState,
    master: &TpState,
    scratch: &mut PruneScratch,
) -> bool {
    let (Some(md), Some(sd)) = (master.dim_of(var), slave.dim_of(var)) else {
        return false;
    };
    let space_len = op_space_len(dims, [md, sd]);
    let PruneScratch {
        memo,
        beta,
        set,
        intersections,
        ..
    } = scratch;
    let Some(m) = memo.fold(master, var, space_len) else {
        return false;
    };
    let Some(s) = memo.fold(slave, var, space_len) else {
        return false;
    };
    let lost = beta.assign_and(memo.bits(m), memo.bits(s));
    *intersections += 1;
    if !lost && !memo.clipped(s) {
        debug_assert!(unfold_keeps_all(slave, var, beta));
        return false;
    }
    slave.unfold_var_with(var, beta, set);
    memo.take_beta(s, slave.gen(), beta);
    true
}

/// Algorithm 5.3: `clustered-semi-join(?j, {tp1..tpk})` — intersect all
/// members' bindings and unfold each with the intersection, skipping the
/// members whose fold β already equals. Returns whether a member was
/// unfolded.
pub fn clustered_semi_join(
    dims: &CubeDims,
    var: usize,
    tps: &mut [TpState],
    members: &[TpId],
    scratch: &mut PruneScratch,
) -> bool {
    if members.len() < 2 {
        return false;
    }
    let space_len = op_space_len(dims, members.iter().filter_map(|&m| tps[m].dim_of(var)));
    let PruneScratch {
        memo,
        beta,
        set,
        intersections,
        ..
    } = scratch;
    beta.reset_ones(space_len);
    let mut any = false;
    for &m in members {
        if let Some(slot) = memo.fold(&tps[m], var, space_len) {
            beta.and_assign(memo.bits(slot));
            *intersections += 1;
            any = true;
        }
    }
    if !any {
        return false;
    }
    let mut unfolded = false;
    for &m in members {
        let Some(slot) = memo.fold(&tps[m], var, space_len) else {
            continue;
        };
        if !memo.clipped(slot) && memo.bits(slot) == beta {
            debug_assert!(unfold_keeps_all(&tps[m], var, beta));
            continue;
        }
        tps[m].unfold_var_with(var, beta, set);
        memo.copy_beta(slot, tps[m].gen(), beta);
        unfolded = true;
    }
    unfolded
}

/// Algorithm 3.2 over both passes of the [`JvarOrder`]. `scratch` carries
/// every reusable buffer across jvars, passes and — if the caller keeps
/// it — queries, starts from the folds [`crate::init::init`] left in its
/// memo, and counts this run's
/// [`intersections`](PruneScratch::intersections) and the operations it
/// [`ran`](PruneScratch::ran) and [`skipped`](PruneScratch::skipped).
pub fn prune_triples(
    tps: &mut [TpState],
    gosn: &Gosn,
    goj: &Goj,
    vt: &VarTable,
    order: &JvarOrder,
    dims: &CubeDims,
    scratch: &mut PruneScratch,
) -> PruneOutcome {
    scratch.intersections = 0;
    scratch.ran = 0;
    scratch.skipped = 0;
    for log in &mut scratch.last_run {
        log.clear();
    }
    if scratch.last_run.len() < vt.len() {
        scratch.last_run.resize_with(vt.len(), Default::default);
    }
    let mut first = true;
    for (pass_id, pass) in [&order.bottom_up, &order.top_down].into_iter().enumerate() {
        let t_pass = std::time::Instant::now();
        let (ran, skipped) = (scratch.ran, scratch.skipped);
        for &var in pass.iter() {
            // A TP empties only when a step changes something, so after the
            // first step the early-abort check runs only after a change.
            let changed = prune_one_jvar(tps, gosn, goj, vt, var, dims, scratch);
            if (changed || std::mem::take(&mut first))
                && crate::init::absolute_master_empty(gosn, tps)
            {
                return PruneOutcome::EmptyAbsoluteMaster;
            }
            if lbr_obs::trace_active() {
                record_jvar_cardinality(tps, var, pass_id, dims, scratch);
            }
        }
        lbr_obs::span_since(
            "prune_pass",
            t_pass,
            &[
                ("pass", pass_id as u64),
                ("jvars", pass.len() as u64),
                ("ran", scratch.ran - ran),
                ("skipped", scratch.skipped - skipped),
            ],
        );
    }
    PruneOutcome::Done
}

/// Stamps a zero-duration `jvar` span carrying `?var`'s surviving
/// candidate cardinality (popcount of the first holder TP's fold, read
/// from the memo) after its prune step of pass `pass_id`. Only called
/// while a trace is collecting.
fn record_jvar_cardinality(
    tps: &[TpState],
    var: usize,
    pass_id: usize,
    dims: &CubeDims,
    scratch: &mut PruneScratch,
) {
    for tp in tps {
        let Some(dim) = tp.dim_of(var) else {
            continue;
        };
        let space_len = op_space_len(dims, [dim]);
        if let Some(slot) = scratch.memo.fold(tp, var, space_len) {
            lbr_obs::span_at(
                "jvar",
                std::time::Instant::now(),
                std::time::Duration::ZERO,
                &[
                    ("var", var as u64),
                    ("cand", u64::from(scratch.memo.bits(slot).count_ones())),
                    ("pass", pass_id as u64),
                ],
            );
            return;
        }
    }
}

/// Whether the operation over `inputs` logged at `log[at..]` left them at
/// the generations they still carry — then running it again would change
/// nothing.
fn unchanged_since_run(log: &[u64], at: usize, tps: &[TpState], inputs: &[TpId]) -> bool {
    log.get(at..at + inputs.len())
        .is_some_and(|gens| gens.iter().zip(inputs).all(|(&g, &tp)| tps[tp].gen() == g))
}

/// Logs, at `log[at..]`, the generations an operation left `inputs` at.
fn log_run(log: &mut Vec<u64>, at: usize, tps: &[TpState], inputs: &[TpId]) {
    for (k, &tp) in inputs.iter().enumerate() {
        let gen = tps[tp].gen();
        match log.get_mut(at + k) {
            Some(slot) => *slot = gen,
            None => log.push(gen),
        }
    }
}

/// One jvar step: master→slave semi-joins then per-peer-group
/// clustered-semi-joins (Alg 3.2 lines 2–8), each skipped when its inputs
/// have not changed since it last ran. Returns whether a TP lost a
/// triple. The work lists live in `scratch`; the loop body is
/// allocation-free once the pool is warm.
fn prune_one_jvar(
    tps: &mut [TpState],
    gosn: &Gosn,
    goj: &Goj,
    vt: &VarTable,
    var: usize,
    dims: &CubeDims,
    scratch: &mut PruneScratch,
) -> bool {
    let name = vt.name(var);
    let Some(node) = goj.node_of(name) else {
        return false;
    };
    scratch.holders.clear();
    scratch
        .holders
        .extend((0..gosn.n_tps()).filter(|&tp| goj.jvars_of_tp(tp).contains(&node)));
    let mut log = std::mem::take(&mut scratch.last_run[var]);
    let mut at = 0;
    let mut changed = false;

    // Master/slave semi-joins; masters iterate outermost-first so their
    // restrictions cascade down the hierarchy in one sweep.
    scratch.by_depth.clear();
    scratch.by_depth.extend_from_slice(&scratch.holders);
    scratch
        .by_depth
        .sort_by_key(|&tp| gosn.masters_of(gosn.sn_of_tp(tp)).len());
    for i in 0..scratch.by_depth.len() {
        let tp_i = scratch.by_depth[i];
        for j in 0..scratch.holders.len() {
            let tp_j = scratch.holders[j];
            if gosn.tp_is_master_of(tp_i, tp_j) {
                let pair = [tp_i, tp_j];
                if unchanged_since_run(&log, at, tps, &pair) {
                    scratch.skipped += 1;
                } else {
                    let (master, slave) = disjoint_pair(tps, tp_i, tp_j);
                    changed |= semi_join(dims, var, slave, master, scratch);
                    scratch.ran += 1;
                    log_run(&mut log, at, tps, &pair);
                }
                at += pair.len();
            }
        }
    }

    // Clustered-semi-joins, one per peer group containing ?j.
    scratch.groups_done.clear();
    for i in 0..scratch.holders.len() {
        let tp = scratch.holders[i];
        let sn = gosn.sn_of_tp(tp);
        let peer_sns = gosn.peers_of(sn);
        let group_key = *peer_sns.first().unwrap();
        if scratch.groups_done.contains(&group_key) {
            continue;
        }
        scratch.groups_done.push(group_key);
        scratch.members.clear();
        scratch.members.extend(
            scratch
                .holders
                .iter()
                .copied()
                .filter(|&t| peer_sns.contains(&gosn.sn_of_tp(t))),
        );
        if scratch.members.len() < 2 {
            continue;
        }
        let mut members = std::mem::take(&mut scratch.members);
        if unchanged_since_run(&log, at, tps, &members) {
            scratch.skipped += 1;
        } else {
            changed |= clustered_semi_join(dims, var, tps, &members, scratch);
            scratch.ran += 1;
            log_run(&mut log, at, tps, &members);
        }
        at += members.len();
        members.clear();
        scratch.members = members;
    }
    scratch.last_run[var] = log;
    changed
}
// lbr-lint: end

/// Whether unfolding `tp` with `beta` would remove nothing: the check
/// behind every unfold the sweep skips, run in debug builds.
fn unfold_keeps_all(tp: &TpState, var: usize, beta: &BitVec) -> bool {
    let mut copy = tp.clone();
    copy.unfold_var(var, beta);
    copy.gen() == tp.gen()
}

/// The operations [`prune_triples`] will issue over both jvar passes,
/// statically enumerable from the plan alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannedPruneOps {
    /// Master→slave semi-joins.
    pub semi_joins: usize,
    /// Clustered-semi-joins (one per peer group with ≥ 2 members).
    pub clustered_groups: usize,
    /// Member folds across all clustered-semi-joins (each is one
    /// intersection into the shared β mask).
    pub clustered_folds: usize,
}

/// Statically enumerates the prune operations: **the same holder and
/// peer-group sweep as `prune_one_jvar`** — keep the two in lock-step
/// (the `planned_ops_match_runtime_intersections` test ties them
/// together: on data where no fold is empty,
/// `semi_joins + clustered_folds` equals the runtime
/// [`PruneScratch::intersections`]). Used by `explain` to render the prune
/// plan.
pub fn planned_prune_ops(
    gosn: &Gosn,
    goj: &Goj,
    vt: &VarTable,
    order: &JvarOrder,
) -> PlannedPruneOps {
    let mut ops = PlannedPruneOps::default();
    for pass in [&order.bottom_up, &order.top_down] {
        for &var in pass.iter() {
            let Some(node) = goj.node_of(vt.name(var)) else {
                continue;
            };
            let holders: Vec<TpId> = (0..gosn.n_tps())
                .filter(|&tp| goj.jvars_of_tp(tp).contains(&node))
                .collect();
            for &tp_i in &holders {
                for &tp_j in &holders {
                    if gosn.tp_is_master_of(tp_i, tp_j) {
                        ops.semi_joins += 1;
                    }
                }
            }
            let mut groups_done: Vec<usize> = Vec::new();
            for &tp in &holders {
                let peer_sns = gosn.peers_of(gosn.sn_of_tp(tp));
                let group_key = *peer_sns.first().unwrap();
                if groups_done.contains(&group_key) {
                    continue;
                }
                groups_done.push(group_key);
                let members = holders
                    .iter()
                    .filter(|&&t| peer_sns.contains(&gosn.sn_of_tp(t)))
                    .count();
                if members >= 2 {
                    ops.clustered_groups += 1;
                    ops.clustered_folds += members;
                }
            }
        }
    }
    ops
}

/// Mutable access to a (master, slave) pair of distinct TPs.
fn disjoint_pair(tps: &mut [TpState], master: TpId, slave: TpId) -> (&TpState, &mut TpState) {
    debug_assert_ne!(master, slave);
    if master < slave {
        let (a, b) = tps.split_at_mut(slave);
        (&a[master], &mut b[0])
    } else {
        let (a, b) = tps.split_at_mut(master);
        (&b[0], &mut a[slave])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::VarTable;
    use crate::init::init;
    use crate::jvar_order::get_jvar_order;
    use crate::selectivity::estimate_all;
    use lbr_bitmat::{BitMatStore, Catalog as _};
    use lbr_rdf::{Graph, Term, Triple};
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

    /// Example-1 of §3.1 end-to-end at the pruning level: tp1 keeps both
    /// friends, tp2 is reduced to the single (Julia, Seinfeld) triple, tp3
    /// keeps Seinfeld.
    #[test]
    fn example_1_minimality() {
        let g = graph();
        let store = BitMatStore::build(&g);
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }",
        )
        .unwrap();
        let a = analyze(&q.pattern).unwrap();
        let vt = VarTable::from_tps(a.gosn.tps()).unwrap();
        let est = estimate_all(a.gosn.tps(), &g.dict, &store);
        let jorder = get_jvar_order(&a.gosn, &a.goj, &vt, &est);
        let mut scratch = PruneScratch::new();
        let mut tps = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store, &mut scratch)
            .unwrap()
            .tps
            .unwrap();
        let outcome = prune_triples(
            &mut tps,
            &a.gosn,
            &a.goj,
            &vt,
            &jorder,
            &store.dims(),
            &mut scratch,
        );
        assert_eq!(outcome, PruneOutcome::Done);
        assert_eq!(
            tps[0].count(),
            2,
            "master keeps both friends (Larry → NULL row)"
        );
        assert_eq!(tps[1].count(), 1, "only (Julia, Seinfeld) remains");
        assert_eq!(tps[2].count(), 1);
    }

    /// The master must never be pruned by its slave.
    #[test]
    fn master_not_pruned_by_slave() {
        let g = graph();
        let store = BitMatStore::build(&g);
        // ?sitcom's location list would shrink the master if this were an
        // inner join; with OPTIONAL every actedIn triple must survive in
        // the master.
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { ?f :actedIn ?sitcom .
               OPTIONAL { ?sitcom :location :NewYorkCity . } }",
        )
        .unwrap();
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
        assert_eq!(tps[0].count(), 5, "all actedIn triples survive");
        assert_eq!(
            tps[1].count(),
            1,
            "slave restricted to master's sitcoms ∩ NYC"
        );
    }

    /// Inner-join peers prune each other (both directions).
    #[test]
    fn peers_prune_bidirectionally() {
        let g = graph();
        let store = BitMatStore::build(&g);
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { ?f :actedIn ?sitcom . ?sitcom :location :NewYorkCity . }",
        )
        .unwrap();
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
        assert_eq!(tps[0].count(), 1, "only Julia–Seinfeld joins NYC");
        assert_eq!(tps[1].count(), 1);
    }

    /// The static plan and the runtime sweep must stay in lock-step: every
    /// planned operation is either run or skipped, so `semi_joins +
    /// clustered_groups` equals [`PruneScratch::ran`] plus
    /// [`PruneScratch::skipped`], and no more intersections run than
    /// planned. A change to either sweep that is not mirrored in the other
    /// trips this.
    #[test]
    fn planned_ops_match_runtime_intersections() {
        let g = graph();
        let store = BitMatStore::build(&g);
        for query in [
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }",
            "PREFIX : <> SELECT * WHERE { ?f :actedIn ?sitcom . ?sitcom :location ?w . }",
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . OPTIONAL { ?sitcom :location ?loc . } } }",
        ] {
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
            let outcome = prune_triples(
                &mut tps,
                &a.gosn,
                &a.goj,
                &vt,
                &jorder,
                &store.dims(),
                &mut scratch,
            );
            assert_eq!(outcome, PruneOutcome::Done);
            let planned = planned_prune_ops(&a.gosn, &a.goj, &vt, &jorder);
            assert_eq!(
                (scratch.ran() + scratch.skipped()) as usize,
                planned.semi_joins + planned.clustered_groups,
                "plan/runtime sweep diverged on: {query}"
            );
            assert!(
                scratch.intersections() as usize <= planned.semi_joins + planned.clustered_folds,
                "more intersections than planned on: {query}"
            );
        }
    }

    /// Early abort: an absolute-master TP emptied by pruning. Each of
    /// tp0's two triples is matched by one of its peers, but no triple by
    /// both — init's one-directional masks cannot see that, the semi-joins
    /// back into tp0 do.
    #[test]
    fn empty_absolute_master_detected() {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = Graph::from_triples(vec![
            t("a1", "p", "b1"),
            t("a2", "p", "b2"),
            t("a1", "q", "x"),
            t("z1", "q", "x"),
            t("z2", "q", "x"),
            t("b2", "r", "y"),
            t("w1", "r", "y"),
            t("w2", "r", "y"),
        ])
        .encode();
        let store = BitMatStore::build(&g);
        let q =
            parse_query("PREFIX : <> SELECT * WHERE { ?a :p ?b . ?a :q ?x . ?b :r ?y . }").unwrap();
        let a = analyze(&q.pattern).unwrap();
        let vt = VarTable::from_tps(a.gosn.tps()).unwrap();
        let est = estimate_all(a.gosn.tps(), &g.dict, &store);
        let jorder = get_jvar_order(&a.gosn, &a.goj, &vt, &est);
        let mut scratch = PruneScratch::new();
        let mut tps = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store, &mut scratch)
            .unwrap()
            .tps
            .unwrap();
        assert_eq!(
            tps.iter().map(TpState::count).collect::<Vec<_>>(),
            [2, 1, 1]
        );
        let outcome = prune_triples(
            &mut tps,
            &a.gosn,
            &a.goj,
            &vt,
            &jorder,
            &store.dims(),
            &mut scratch,
        );
        assert_eq!(outcome, PruneOutcome::EmptyAbsoluteMaster);
    }
}
