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
//! All set algebra runs through the `lbr-bitmat` kernel layer with a
//! per-query [`PruneScratch`] pool: fold accumulators, intersection masks,
//! kernel scratch and the per-jvar TP work lists are reused across every
//! semi-join of both passes, so the steady-state inner loop of
//! `prune_one_jvar` performs **no heap allocation** (buffers grow to a
//! high-water mark on the first jvar and circulate afterwards; the
//! `alloc_check` gate proves a warm prune allocates nothing).

use crate::bindings::{op_space_len, VarTable};
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

/// The per-query scratch pool of the pruning phase: fold accumulators, the
/// intersection mask, row-kernel scratch and the per-jvar TP work lists.
/// Create one per query (or reuse across queries) and pass it to
/// [`prune_triples`]; every buffer is cleared, never shrunk, between uses.
#[derive(Debug, Default)]
pub struct PruneScratch {
    /// Intersection accumulator (the β mask of Algorithms 5.2/5.3).
    beta: BitVec,
    /// Per-TP fold target ANDed into `beta`.
    fold: BitVec,
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
    /// Compressed-set intersections since the last [`prune_triples`]
    /// began.
    intersections: u64,
}

impl PruneScratch {
    /// A fresh, empty pool.
    pub fn new() -> PruneScratch {
        PruneScratch::default()
    }

    /// Compressed-set intersections (one per semi-join mask AND, one per
    /// clustered-semi-join member fold) the last [`prune_triples`]
    /// performed.
    pub fn intersections(&self) -> u64 {
        self.intersections
    }
}
// lbr-lint: no_alloc — Algorithm 5.2 steady state: semi-joins and per-jvar
// pruning reuse PruneScratch masks only.

/// Algorithm 5.2: `semi-join(?j, tpj, tpi)` — prune the slave by the
/// master's bindings. All masks live in `scratch`; nothing is allocated in
/// the steady state.
pub fn semi_join(
    dims: &CubeDims,
    var: usize,
    slave: &mut TpState,
    master: &TpState,
    scratch: &mut PruneScratch,
) {
    let (Some(md), Some(sd)) = (master.dim_of(var), slave.dim_of(var)) else {
        return;
    };
    let space_len = op_space_len(dims, [md, sd]);
    if !master.fold_var_into(var, space_len, &mut scratch.beta) {
        return;
    }
    if !slave.fold_var_into(var, space_len, &mut scratch.fold) {
        return;
    }
    scratch.beta.and_assign(&scratch.fold);
    scratch.intersections += 1;
    let PruneScratch { beta, set, .. } = scratch;
    slave.unfold_var_with(var, beta, set);
}

/// Algorithm 5.3: `clustered-semi-join(?j, {tp1..tpk})` — intersect all
/// members' bindings and unfold each with the intersection.
pub fn clustered_semi_join(
    dims: &CubeDims,
    var: usize,
    tps: &mut [TpState],
    members: &[TpId],
    scratch: &mut PruneScratch,
) {
    if members.len() < 2 {
        return;
    }
    let space_len = op_space_len(dims, members.iter().filter_map(|&m| tps[m].dim_of(var)));
    scratch.beta.reset_ones(space_len);
    let mut any = false;
    for &m in members {
        if tps[m].fold_var_into(var, space_len, &mut scratch.fold) {
            scratch.beta.and_assign(&scratch.fold);
            scratch.intersections += 1;
            any = true;
        }
    }
    if !any {
        return;
    }
    let PruneScratch { beta, set, .. } = scratch;
    for &m in members {
        tps[m].unfold_var_with(var, beta, set);
    }
}

/// Algorithm 3.2 over both passes of the [`JvarOrder`]. `scratch` carries
/// every reusable buffer across jvars, passes and — if the caller keeps
/// it — queries, and counts this run's
/// [`intersections`](PruneScratch::intersections).
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
    for (pass_id, pass) in [&order.bottom_up, &order.top_down].into_iter().enumerate() {
        let t_pass = std::time::Instant::now();
        for &var in pass.iter() {
            if prune_one_jvar(tps, gosn, goj, vt, var, dims, scratch)
                == PruneOutcome::EmptyAbsoluteMaster
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
            &[("pass", pass_id as u64), ("jvars", pass.len() as u64)],
        );
    }
    PruneOutcome::Done
}

/// Stamps a zero-duration `jvar` span carrying `?var`'s surviving
/// candidate cardinality (popcount of the first holder TP's fold) after
/// its prune step of pass `pass_id`. Only called while a trace is
/// collecting, so the steady-state serving path never folds for it.
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
        if tp.fold_var_into(var, space_len, &mut scratch.fold) {
            lbr_obs::span_at(
                "jvar",
                std::time::Instant::now(),
                std::time::Duration::ZERO,
                &[
                    ("var", var as u64),
                    ("cand", u64::from(scratch.fold.count_ones())),
                    ("pass", pass_id as u64),
                ],
            );
            return;
        }
    }
}

/// One jvar step: master→slave semi-joins then per-peer-group
/// clustered-semi-joins (Alg 3.2 lines 2–8). The work lists live in
/// `scratch`; the loop body is allocation-free once the pool is warm.
fn prune_one_jvar(
    tps: &mut [TpState],
    gosn: &Gosn,
    goj: &Goj,
    vt: &VarTable,
    var: usize,
    dims: &CubeDims,
    scratch: &mut PruneScratch,
) -> PruneOutcome {
    let name = vt.name(var);
    let Some(node) = goj.node_of(name) else {
        return PruneOutcome::Done;
    };
    scratch.holders.clear();
    scratch
        .holders
        .extend((0..gosn.n_tps()).filter(|&tp| goj.jvars_of_tp(tp).contains(&node)));

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
                let (master, slave) = disjoint_pair(tps, tp_i, tp_j);
                semi_join(dims, var, slave, master, scratch);
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
        let mut members = std::mem::take(&mut scratch.members);
        clustered_semi_join(dims, var, tps, &members, scratch);
        members.clear();
        scratch.members = members;
    }

    if crate::init::absolute_master_empty(gosn, tps) {
        PruneOutcome::EmptyAbsoluteMaster
    } else {
        PruneOutcome::Done
    }
}
// lbr-lint: end

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
        let mut tps = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store)
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
            &mut PruneScratch::new(),
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
        let mut tps = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store)
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
            &mut PruneScratch::new(),
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
        let mut tps = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store)
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
            &mut PruneScratch::new(),
        );
        assert_eq!(tps[0].count(), 1, "only Julia–Seinfeld joins NYC");
        assert_eq!(tps[1].count(), 1);
    }

    /// The static plan and the runtime sweep must stay in lock-step: on
    /// data where no fold comes up empty, every planned operation runs
    /// exactly once, so `semi_joins + clustered_folds` equals the
    /// [`PruneScratch::intersections`] counter. A change to either sweep
    /// that is not mirrored in the other trips this.
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
            let mut tps = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store)
                .unwrap()
                .tps
                .unwrap();
            let mut scratch = PruneScratch::new();
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
                scratch.intersections() as usize,
                planned.semi_joins + planned.clustered_folds,
                "plan/runtime sweep diverged on: {query}"
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
        let mut tps = init(&a.gosn, &vt, &jorder, &est, &g.dict, &store)
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
            &mut PruneScratch::new(),
        );
        assert_eq!(outcome, PruneOutcome::EmptyAbsoluteMaster);
    }
}
