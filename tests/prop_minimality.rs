//! Lemma 3.3 as a data property: after `get_jvar_order` + `prune_triples`,
//! every triple still attached to any triple pattern of an acyclic,
//! well-designed, Cartesian-free query appears in at least one final
//! result (Definition 3.2's minimality) — i.e. the pruning is a *full
//! reducer*. Checked on random graphs × random well-designed queries.
//!
//! Beside it, the change-driven `prune_triples` (fold memo, skipped
//! operations and unfolds) must leave exactly the triples of the
//! unconditional sweep, [`reference_prune`], including when its scratch
//! holds folds and logs of another pruning.

use lbr::bitmat::{BitVec, CubeDims};
use lbr::core::bindings::{op_space_len, Binding, VarTable};
use lbr::core::init::{absolute_master_empty, init, Axes, TpData, TpState};
use lbr::core::jvar_order::{get_jvar_order, JvarOrder};
use lbr::core::multiway::{multi_way_join, schedule, JoinInputs};
use lbr::core::prune::{prune_triples, PruneOutcome, PruneScratch};
use lbr::core::selectivity::estimate_all;
use lbr::sparql::algebra::{GraphPattern, TermPattern, TriplePattern};
use lbr::sparql::classify::{analyze, Analyzed};
use lbr::{Catalog, Database, Term, Triple};
use proptest::prelude::*;

const ENTITIES: [&str; 8] = ["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"];
const PREDICATES: [&str; 4] = ["p0", "p1", "p2", "p3"];

fn arb_graph() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0usize..8, 0usize..4, 0usize..8), 1..50).prop_map(|ts| {
        ts.into_iter()
            .map(|(s, p, o)| {
                Triple::new(
                    Term::iri(ENTITIES[s]),
                    Term::iri(PREDICATES[p]),
                    Term::iri(ENTITIES[o]),
                )
            })
            .collect()
    })
}

/// Small deterministic WD query family: a master chain with 0–2 OPTIONAL
/// blocks hanging off it, parameterized by predicate choices.
fn shaped_query(shape: u8, p: [usize; 5]) -> GraphPattern {
    let v = |n: &str| TermPattern::Var(n.to_string());
    let pc = |i: usize| TermPattern::Const(Term::iri(PREDICATES[i]));
    let tp = |s: TermPattern, i: usize, o: TermPattern| TriplePattern::new(s, pc(i), o);
    let master = GraphPattern::Bgp(vec![tp(v("a"), p[0], v("b")), tp(v("b"), p[1], v("c"))]);
    match shape % 4 {
        0 => GraphPattern::left_join(master, GraphPattern::Bgp(vec![tp(v("c"), p[2], v("d"))])),
        1 => GraphPattern::left_join(
            GraphPattern::left_join(master, GraphPattern::Bgp(vec![tp(v("b"), p[2], v("d"))])),
            GraphPattern::Bgp(vec![tp(v("a"), p[3], v("e"))]),
        ),
        2 => GraphPattern::left_join(
            master,
            GraphPattern::Bgp(vec![tp(v("c"), p[2], v("d")), tp(v("d"), p[3], v("f"))]),
        ),
        _ => GraphPattern::left_join(
            master,
            GraphPattern::left_join(
                GraphPattern::Bgp(vec![tp(v("b"), p[2], v("d"))]),
                GraphPattern::Bgp(vec![tp(v("d"), p[4], v("g"))]),
            ),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn pruning_is_a_full_reducer(
        triples in arb_graph(),
        shape in 0u8..4,
        p in [0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4],
    ) {
        let db = lbr::Database::from_triples(triples);
        let pattern = shaped_query(shape, p);
        prop_assume!(lbr::sparql::is_well_designed(&pattern));
        let analyzed = analyze(&pattern).unwrap();
        prop_assume!(!analyzed.class.cyclic && analyzed.class.connected);
        let gosn = &analyzed.gosn;
        let vt = VarTable::from_tps(gosn.tps()).unwrap();
        let est = estimate_all(gosn.tps(), db.dict(), db.store());
        let jorder = get_jvar_order(gosn, &analyzed.goj, &vt, &est);
        let mut scratch = PruneScratch::new();
        let Some(mut tps) = init(gosn, &vt, &jorder, &est, db.dict(), db.store(), &mut scratch).unwrap().tps else {
            return Ok(()); // an absolute master emptied at load: no rows to be minimal about
        };
        let outcome = prune_triples(
            &mut tps, gosn, &analyzed.goj, &vt, &jorder, &db.store().dims(), &mut scratch,
        );
        if outcome == PruneOutcome::EmptyAbsoluteMaster {
            return Ok(()); // nothing left to be minimal about
        }
        let order = schedule(&mut tps, gosn);
        let inputs = JoinInputs {
            tps: &tps,
            order: &order,
            gosn,
            vt: &vt,
            dims: db.store().dims(),
            dict: db.dict(),
            fan_filters: Vec::new(),
            quota: None,
            deadline: None,
        };
        let (rows, stats) = multi_way_join(&inputs);
        prop_assert_eq!(stats.nullification_fired, 0, "Lemma 3.3 violated (repair fired)");

        // Minimality: every surviving triple of every TP occurs in ≥1 row.
        let n_shared = db.store().dims().n_shared;
        for state in &tps {
            match state.data() {
                TpData::Zero { present } => {
                    prop_assert!(!present || !rows.is_empty());
                }
                TpData::One { var, dim, cands } => {
                    for id in cands.iter_ones() {
                        let want = Binding::new(id, *dim, n_shared);
                        prop_assert!(
                            rows.iter().any(|r| r[*var] == Some(want)),
                            "dangling candidate {id} of tp{} (?{})",
                            state.id, vt.name(*var)
                        );
                    }
                }
                TpData::Two { axes: Axes { row_var, row_dim, col_var, col_dim }, mat } => {
                    for (r, c) in mat.iter() {
                        let wr = Binding::new(r, *row_dim, n_shared);
                        let wc = Binding::new(c, *col_dim, n_shared);
                        prop_assert!(
                            rows.iter().any(|row| {
                                row[*row_var] == Some(wr) && row[*col_var] == Some(wc)
                            }),
                            "dangling triple ({r},{c}) of tp{}",
                            state.id
                        );
                    }
                }
                TpData::Three { .. } => unreachable!("shapes have fixed predicates"),
            }
        }
    }
}

/// Algorithm 3.2 as the unconditional sweep: every semi-join and every
/// clustered-semi-join of both passes folds its inputs afresh and unfolds
/// with β, with no memo and no skips — the oracle of the change-driven
/// [`prune_triples`], in the same order.
fn reference_prune(
    tps: &mut [TpState],
    a: &Analyzed,
    vt: &VarTable,
    order: &JvarOrder,
    dims: &CubeDims,
) -> PruneOutcome {
    let (gosn, goj) = (&a.gosn, &a.goj);
    for &var in order.bottom_up.iter().chain(&order.top_down) {
        let Some(node) = goj.node_of(vt.name(var)) else {
            continue;
        };
        let holders: Vec<usize> = (0..gosn.n_tps())
            .filter(|&tp| goj.jvars_of_tp(tp).contains(&node))
            .collect();
        let mut by_depth = holders.clone();
        by_depth.sort_by_key(|&tp| gosn.masters_of(gosn.sn_of_tp(tp)).len());
        for &master in &by_depth {
            for &slave in &holders {
                if !gosn.tp_is_master_of(master, slave) {
                    continue;
                }
                let dim = |tp: usize| tps[tp].dim_of(var).unwrap();
                let space = op_space_len(dims, [dim(master), dim(slave)]);
                let mut beta = tps[master].fold_var(var, space).unwrap();
                beta.and_assign(&tps[slave].fold_var(var, space).unwrap());
                tps[slave].unfold_var(var, &beta);
            }
        }
        let mut groups_done = Vec::new();
        for &tp in &holders {
            let peers = gosn.peers_of(gosn.sn_of_tp(tp));
            if groups_done.contains(&peers[0]) {
                continue;
            }
            groups_done.push(peers[0]);
            let members: Vec<usize> = holders
                .iter()
                .copied()
                .filter(|&t| peers.contains(&gosn.sn_of_tp(t)))
                .collect();
            if members.len() < 2 {
                continue;
            }
            let space = op_space_len(dims, members.iter().map(|&m| tps[m].dim_of(var).unwrap()));
            let mut beta = BitVec::ones(space);
            for &m in &members {
                beta.and_assign(&tps[m].fold_var(var, space).unwrap());
            }
            for &m in &members {
                tps[m].unfold_var(var, &beta);
            }
        }
        if absolute_master_empty(gosn, tps) {
            return PruneOutcome::EmptyAbsoluteMaster;
        }
    }
    PruneOutcome::Done
}

/// Every TP's triples as `(row, col)` pairs, or candidate ids as `(id, 0)`.
fn contents(tps: &[TpState]) -> Vec<Vec<(u32, u32)>> {
    tps.iter()
        .map(|tp| match tp.data() {
            TpData::Zero { present } => vec![(u32::from(*present), 0)],
            TpData::One { cands, .. } => cands.iter_ones().map(|id| (id, 0)).collect(),
            TpData::Two { mat, .. } => mat.iter().collect(),
            TpData::Three { .. } => unreachable!("shapes have fixed predicates"),
        })
        .collect()
}

/// One planned query over `db`: its analysis, variable table, estimates
/// and jvar order, or `None` when it is not an acyclic, connected,
/// well-designed pattern.
fn plan(
    db: &Database,
    pattern: &GraphPattern,
) -> Option<(Analyzed, VarTable, Vec<u64>, JvarOrder)> {
    if !lbr::sparql::is_well_designed(pattern) {
        return None;
    }
    let analyzed = analyze(pattern).unwrap();
    if analyzed.class.cyclic || !analyzed.class.connected {
        return None;
    }
    let vt = VarTable::from_tps(analyzed.gosn.tps()).unwrap();
    let est = estimate_all(analyzed.gosn.tps(), db.dict(), db.store());
    let jorder = get_jvar_order(&analyzed.gosn, &analyzed.goj, &vt, &est);
    Some((analyzed, vt, est, jorder))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The change-driven prune leaves exactly the unconditional sweep's
    /// triples, with a scratch that is fresh from `init`, that already
    /// pruned the original of the TPs it now prunes a clone of, and that
    /// last loaded a different query (whose folds and logs are stale).
    #[test]
    fn change_driven_prune_matches_the_unconditional_sweep(
        triples in arb_graph(),
        shapes in (0u8..4, 0u8..4),
        p in [0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4],
    ) {
        let db = Database::from_triples(triples);
        let dims = db.store().dims();
        let planned: Vec<_> = [shapes.0, shapes.1]
            .into_iter()
            .filter_map(|shape| plan(&db, &shaped_query(shape, p)))
            .collect();
        let mut scratch = PruneScratch::new();
        let mut loaded = Vec::new();
        for (a, vt, est, jorder) in &planned {
            let out = init(&a.gosn, vt, jorder, est, db.dict(), db.store(), &mut scratch).unwrap();
            loaded.push(out.tps);
        }
        // Pruned in load order: the first query after the second one's
        // init; then a clone of each original, after that original.
        for ((a, vt, _, jorder), tps) in planned.iter().zip(&loaded) {
            let Some(tps) = tps else { continue };
            let mut want = tps.clone();
            let want_outcome = reference_prune(&mut want, a, vt, jorder, &dims);
            for round in ["first", "clone after the original"] {
                let mut got = tps.clone();
                let outcome =
                    prune_triples(&mut got, &a.gosn, &a.goj, vt, jorder, &dims, &mut scratch);
                prop_assert_eq!(outcome, want_outcome, "{}", round);
                prop_assert_eq!(contents(&got), contents(&want), "{}", round);
                prop_assert!(scratch.ran() <= scratch.intersections(), "every run ANDs");
            }
        }
    }
}
