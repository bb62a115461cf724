//! Lemma 3.3 as a data property: after `get_jvar_order` + `prune_triples`,
//! every triple still attached to any triple pattern of an acyclic,
//! well-designed, Cartesian-free query appears in at least one final
//! result (Definition 3.2's minimality) — i.e. the pruning is a *full
//! reducer*. Checked on random graphs × random well-designed queries.

use lbr::core::bindings::{Binding, VarTable};
use lbr::core::init::{init, Axes, TpData};
use lbr::core::jvar_order::get_jvar_order;
use lbr::core::multiway::{multi_way_join, schedule, JoinInputs};
use lbr::core::prune::{prune_triples, PruneOutcome, PruneScratch};
use lbr::core::selectivity::estimate_all;
use lbr::sparql::algebra::{GraphPattern, TermPattern, TriplePattern};
use lbr::sparql::classify::analyze;
use lbr::{Catalog, Term, Triple};
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
        let Some(mut tps) = init(gosn, &vt, &jorder, &est, db.dict(), db.store()).unwrap().tps else {
            return Ok(()); // an absolute master emptied at load: no rows to be minimal about
        };
        let outcome = prune_triples(
            &mut tps, gosn, &analyzed.goj, &vt, &jorder, &db.store().dims(),
            &mut PruneScratch::new(),
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
            match &state.data {
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
