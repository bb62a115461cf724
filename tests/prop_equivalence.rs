//! Property-based equivalence: on random graphs and random *well-designed*
//! BGP-OPT queries, the LBR engine must agree exactly (as a bag of rows)
//! with the nested-loop SPARQL-algebra oracle and with the pairwise
//! baseline. Random queries cover nested/sibling OPTIONALs, inner joins,
//! acyclic and cyclic shapes — the whole Figure 3.1 well-designed family —
//! and, in a property of their own, Cartesian products.

use lbr::baseline::{evaluate_reference, JoinOrder, PairwiseEngine, Semantics};
use lbr::sparql::algebra::{
    Dedup, Expr, GraphPattern, Modifiers, OrderKey, Query, TermPattern, TriplePattern,
};
use lbr::{Database, EngineKind, Term, Triple};
use proptest::prelude::*;
use std::collections::HashMap;

const ENTITIES: [&str; 10] = ["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];
const PREDICATES: [&str; 5] = ["p0", "p1", "p2", "p3", "p4"];

fn arb_graph() -> impl Strategy<Value = Vec<Triple>> {
    arb_graph_of(1..60)
}

fn arb_graph_of(triples: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0usize..10, 0usize..5, 0usize..10), triples).prop_map(|ts| {
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

/// Recipe for a deterministic-but-random well-designed pattern: a shape
/// tree plus per-node random seeds.
#[derive(Debug, Clone)]
enum Shape {
    Bgp { n_tps: usize, seed: u64 },
    Join(Box<Shape>, Box<Shape>),
    LeftJoin(Box<Shape>, Box<Shape>),
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    let leaf = (1usize..4, any::<u64>()).prop_map(|(n_tps, seed)| Shape::Bgp { n_tps, seed });
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Shape::Join(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| Shape::LeftJoin(Box::new(l), Box::new(r))),
        ]
    })
}

/// Splitmix-style deterministic pseudo-random stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[(self.next() % xs.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

#[derive(Default)]
struct Gen {
    fresh: usize,
    /// Percent chance that a TP inside an OPTIONAL names [`ABSENT`].
    absent: u64,
    /// Whether the TPs being built sit inside an OPTIONAL.
    in_optional: bool,
}

/// A predicate no generated graph holds.
const ABSENT: &str = "absent";

impl Gen {
    /// Builds a well-designed pattern: the right side of every LeftJoin may
    /// reuse only variables visible from its master side; fresh variables
    /// are globally unique, so nothing in a slave ever leaks outside
    /// without going through its master — WD by construction.
    fn build(&mut self, shape: &Shape, visible: &mut Vec<String>) -> GraphPattern {
        match shape {
            Shape::Bgp { n_tps, seed } => {
                let mut rng = Rng(*seed);
                let mut tps = Vec::new();
                for _ in 0..*n_tps {
                    tps.push(self.tp(&mut rng, visible));
                }
                GraphPattern::Bgp(tps)
            }
            Shape::Join(l, r) => {
                let lp = self.build(l, visible);
                let rp = self.build(r, visible);
                GraphPattern::join(lp, rp)
            }
            Shape::LeftJoin(l, r) => {
                let lp = self.build(l, visible);
                // The slave sees the master's vars but its fresh vars stay
                // local (removed from visibility afterwards).
                let mut slave_visible = visible.clone();
                let before = slave_visible.len();
                let outer = std::mem::replace(&mut self.in_optional, true);
                let rp = self.build(r, &mut slave_visible);
                self.in_optional = outer;
                // Vars the master introduced sideways don't exist; only
                // keep what was visible before.
                slave_visible.truncate(before);
                GraphPattern::left_join(lp, rp)
            }
        }
    }

    fn var(&mut self, rng: &mut Rng, visible: &mut Vec<String>) -> String {
        if !visible.is_empty() && rng.chance(65) {
            visible[(rng.next() % visible.len() as u64) as usize].clone()
        } else {
            let v = format!("v{}", self.fresh);
            self.fresh += 1;
            visible.push(v.clone());
            v
        }
    }

    fn tp(&mut self, rng: &mut Rng, visible: &mut Vec<String>) -> TriplePattern {
        // Anchor: connect to an existing variable when possible.
        let s: TermPattern = if rng.chance(80) || visible.is_empty() {
            if visible.is_empty() || rng.chance(75) {
                TermPattern::Var(self.var(rng, visible))
            } else {
                TermPattern::Const(Term::iri(*rng.pick(&ENTITIES)))
            }
        } else {
            TermPattern::Const(Term::iri(*rng.pick(&ENTITIES)))
        };
        let p = if self.in_optional && self.absent > 0 && rng.chance(self.absent) {
            TermPattern::Const(Term::iri(ABSENT))
        } else {
            TermPattern::Const(Term::iri(*rng.pick(&PREDICATES)))
        };
        let o: TermPattern = if rng.chance(70) {
            TermPattern::Var(self.var(rng, visible))
        } else {
            TermPattern::Const(Term::iri(*rng.pick(&ENTITIES)))
        };
        TriplePattern::new(s, p, o)
    }
}

/// Wraps a random half of the OPTIONAL sides of `p` (and, less often, the
/// whole pattern) in a FILTER. A filter names variables of the pattern it
/// wraps, and sometimes one of `all` from outside that scope, which reads
/// as unbound there.
fn with_filters(p: GraphPattern, rng: &mut Rng, all: &[String], top: bool) -> GraphPattern {
    let p = match p {
        GraphPattern::Join(l, r) => GraphPattern::join(
            with_filters(*l, rng, all, false),
            with_filters(*r, rng, all, false),
        ),
        GraphPattern::LeftJoin(l, r) => {
            let r = with_filters(*r, rng, all, false);
            let r = if rng.chance(50) {
                filtered(r, rng, all)
            } else {
                r
            };
            GraphPattern::left_join(with_filters(*l, rng, all, false), r)
        }
        other => other,
    };
    if top && rng.chance(30) {
        filtered(p, rng, all)
    } else {
        p
    }
}

fn filtered(p: GraphPattern, rng: &mut Rng, all: &[String]) -> GraphPattern {
    let scope: Vec<String> = p.variables().into_iter().map(str::to_string).collect();
    let mut var = || {
        let from = if scope.is_empty() || rng.chance(15) {
            all
        } else {
            &scope
        };
        Box::new(Expr::Var(rng.pick(from).clone()))
    };
    let (v, w) = (var(), var());
    let c = Box::new(Expr::Const(Term::iri(*rng.pick(&ENTITIES))));
    let e = match rng.next() % 6 {
        0 => Expr::Ne(v, c),
        1 => Expr::Eq(v, c),
        2 => Expr::Eq(v, w),
        3 => Expr::Ne(v, w),
        4 => Expr::Bound(v.vars().into_iter().next().unwrap().to_string()),
        _ => Expr::Not(Box::new(Expr::Bound(
            v.vars().into_iter().next().unwrap().to_string(),
        ))),
    };
    GraphPattern::filter(p, e)
}

/// True when every supernode's TPs form one var-connected component on
/// their own (the paper's no-Cartesian-product premise at SN granularity).
fn supernodes_internally_connected(pattern: &GraphPattern) -> bool {
    let analyzed = lbr::sparql::classify::analyze(pattern).unwrap();
    let gosn = &analyzed.gosn;
    (0..gosn.n_supernodes()).all(|sn| {
        let tps = gosn.tps_of_sn(sn);
        if tps.len() <= 1 {
            return true;
        }
        let mut seen = vec![false; tps.len()];
        seen[0] = true;
        let mut frontier = vec![0usize];
        let mut count = 1;
        while let Some(i) = frontier.pop() {
            for j in 0..tps.len() {
                if !seen[j]
                    && gosn
                        .tp(tps[i])
                        .vars()
                        .iter()
                        .any(|v| gosn.tp(tps[j]).has_var(v))
                {
                    seen[j] = true;
                    count += 1;
                    frontier.push(j);
                }
            }
        }
        count == tps.len()
    })
}

fn rows_sorted(
    rel_rows: Vec<Vec<Option<lbr::core::Binding>>>,
    vars: &[String],
    order: &[String],
    dict: &lbr::Dictionary,
) -> Vec<Vec<Option<String>>> {
    let cols: Vec<Option<usize>> = order
        .iter()
        .map(|v| vars.iter().position(|x| x == v))
        .collect();
    let mut rows: Vec<Vec<Option<String>>> = rel_rows
        .iter()
        .map(|r| {
            cols.iter()
                .map(|c| c.and_then(|i| r[i]).map(|b| b.decode(dict).to_string()))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        max_global_rejects: 16384,
        ..ProptestConfig::default()
    })]

    #[test]
    fn lbr_matches_oracle_on_well_designed_queries(
        triples in arb_graph(),
        shape in arb_shape(),
    ) {
        let pattern = Gen::default().build(&shape, &mut Vec::new());
        prop_assume!(lbr::sparql::is_well_designed(&pattern));
        matches_oracle(&Database::from_triples(triples), pattern)?;
    }

    /// Acyclic well-designed queries must never fire nullification
    /// (Lemma 3.3) — pruning alone restores minimality. The paper's "no
    /// Cartesian products" premise also rules out supernodes whose own TPs
    /// are internally disconnected (they join only through their master's
    /// variables, which semi-joins cannot prune), so the property is
    /// asserted under that premise; the engine keeps nullification as a
    /// safety net for the excluded shapes.
    #[test]
    fn acyclic_wd_needs_no_nullification(
        triples in arb_graph(),
        shape in arb_shape(),
    ) {
        let db = Database::from_triples(triples);
        let mut gen = Gen::default();
        let mut visible = Vec::new();
        let pattern = gen.build(&shape, &mut visible);
        prop_assume!(lbr::sparql::is_well_designed(&pattern));
        let class = lbr::sparql::classify(&pattern).unwrap();
        prop_assume!(!class.cyclic && class.connected);
        prop_assume!(supernodes_internally_connected(&pattern));
        let query = Query::select_all(pattern);
        prop_assume!(!query.projected_vars().is_empty());
        let out = db.execute_query(&query).unwrap();
        prop_assert!(!out.stats.nb_required);
        prop_assert_eq!(out.stats.nullification_fired, 0);
    }
}

/// LBR and the pairwise baseline must both return the oracle's bag of
/// rows for `pattern` as a `SELECT *`.
fn matches_oracle(db: &Database, pattern: GraphPattern) -> TestCaseResult {
    let query = Query::select_all(pattern);
    let proj = query.projected_vars();
    prop_assume!(!proj.is_empty());

    let truth_rel = evaluate_reference(&query, db.dict(), db.store(), Semantics::Sparql).unwrap();
    let truth = rows_sorted(truth_rel.rows, &truth_rel.vars, &proj, db.dict());

    let out = db.execute_query(&query).unwrap();
    let lbr_rows = rows_sorted(out.rows, &out.vars, &proj, db.dict());
    prop_assert_eq!(
        &lbr_rows,
        &truth,
        "LBR deviates on {} (stats: {:?})",
        query,
        out.stats
    );

    let pw = PairwiseEngine::new(db.store(), db.dict(), JoinOrder::Selectivity)
        .execute(&query)
        .unwrap();
    let pw_rows = rows_sorted(pw.rows, &pw.vars, &proj, db.dict());
    prop_assert_eq!(&pw_rows, &truth, "pairwise deviates on {}", query);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 1000,
        max_global_rejects: 65536,
        ..ProptestConfig::default()
    })]

    /// Cartesian products — patterns whose TPs are not one
    /// variable-connected component — run through the same multi-way
    /// join and must match the oracle too. The generator's fresh
    /// variables and constant subjects make such patterns common,
    /// including disconnected OPTIONALs nested under slaves that fail;
    /// FILTERs on OPTIONAL sides fail slaves at emission.
    #[test]
    fn lbr_matches_oracle_on_cartesian_queries(
        triples in arb_graph(),
        shape in arb_shape(),
        filter_seed in any::<u64>(),
    ) {
        let pattern = Gen::default().build(&shape, &mut Vec::new());
        let all: Vec<String> = pattern.variables().into_iter().map(str::to_string).collect();
        prop_assume!(!all.is_empty());
        let pattern = with_filters(pattern, &mut Rng(filter_seed), &all, true);
        prop_assume!(lbr::sparql::is_well_designed(&pattern));
        prop_assume!(!lbr::sparql::classify(&pattern).unwrap().connected);
        matches_oracle(&Database::from_triples(triples), pattern)?;
    }

    /// OPTIONAL TPs naming a predicate absent from the data are pruned to
    /// nothing, so their supernodes, and every supernode those fail, are
    /// dead: the join leaves their steps out and their variables NULL.
    /// FILTERs on OPTIONAL sides name dead variables too. The graphs are
    /// denser than elsewhere, so that more masters match and the join runs.
    #[test]
    fn lbr_matches_oracle_with_dead_optionals(
        triples in arb_graph_of(60..160),
        shape in arb_shape(),
        filter_seed in any::<u64>(),
    ) {
        let pattern = Gen { absent: 30, ..Gen::default() }.build(&shape, &mut Vec::new());
        let all: Vec<String> = pattern.variables().into_iter().map(str::to_string).collect();
        prop_assume!(!all.is_empty());
        let pattern = with_filters(pattern, &mut Rng(filter_seed), &all, true);
        prop_assume!(lbr::sparql::is_well_designed(&pattern));
        matches_oracle(&Database::from_triples(triples), pattern)?;
    }

    /// The same FILTERs on every well-designed shape: a filter around a
    /// group with OPTIONALs fails that group's root, not the whole row.
    #[test]
    fn lbr_matches_oracle_with_filters(
        triples in arb_graph(),
        shape in arb_shape(),
        filter_seed in any::<u64>(),
    ) {
        let pattern = Gen::default().build(&shape, &mut Vec::new());
        let all: Vec<String> = pattern.variables().into_iter().map(str::to_string).collect();
        prop_assume!(!all.is_empty());
        let pattern = with_filters(pattern, &mut Rng(filter_seed), &all, true);
        prop_assume!(lbr::sparql::is_well_designed(&pattern));
        matches_oracle(&Database::from_triples(triples), pattern)?;
    }
}

/// Decoded rows of one engine run (in the engine's output order).
fn decoded_rows(db: &Database, kind: EngineKind, query: &Query) -> Vec<Vec<Option<String>>> {
    db.engine_of(kind)
        .execute(query)
        .unwrap_or_else(|e| panic!("{kind} failed on {query}: {e}"))
        .decode(db.dict())
        .into_iter()
        .map(|r| r.into_iter().map(|t| t.map(|x| x.to_string())).collect())
        .collect()
}

fn counted(rows: &[Vec<Option<String>>]) -> HashMap<&[Option<String>], isize> {
    let mut m: HashMap<&[Option<String>], isize> = HashMap::new();
    for r in rows {
        *m.entry(r.as_slice()).or_default() += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_global_rejects: 16384,
        ..ProptestConfig::default()
    })]

    /// Random DISTINCT / ORDER BY / LIMIT / OFFSET combinations over
    /// random well-designed patterns: every `EngineKind` must match the
    /// reference oracle — exactly (sequence) when
    /// ORDER BY covers all projected columns, set-equal under DISTINCT,
    /// and prefix-of-the-full-bag (right count, right multiplicities)
    /// under un-ordered LIMIT/OFFSET where engines may legitimately pick
    /// different-but-valid slices.
    #[test]
    fn modifier_combinations_match_the_oracle(
        triples in arb_graph(),
        shape in arb_shape(),
        distinct in any::<bool>(),
        ordered in any::<bool>(),
        desc_bits in any::<u8>(),
        limit_raw in 0usize..7,
        offset in 0usize..4,
    ) {
        // The vendored proptest has no Option strategy: 0 = no LIMIT.
        let limit = limit_raw.checked_sub(1);
        let db = Database::from_triples(triples);
        let mut gen = Gen::default();
        let mut visible = Vec::new();
        let pattern = gen.build(&shape, &mut visible);
        prop_assume!(lbr::sparql::is_well_designed(&pattern));
        let base = Query::select_all(pattern);
        let proj = base.projected_vars();
        prop_assume!(!proj.is_empty());

        // ORDER BY all projected columns (when ordering): ties can only be
        // identical rows, so the sequence is engine-independent.
        let order_by: Vec<OrderKey> = if ordered {
            proj.iter()
                .enumerate()
                .map(|(i, v)| OrderKey {
                    var: v.clone(),
                    descending: desc_bits >> (i % 8) & 1 == 1,
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut query = base.with_modifiers(Modifiers {
            order_by,
            limit,
            offset,
        });
        if distinct {
            if let lbr::sparql::QueryForm::Select { dedup, .. } = &mut query.form {
                *dedup = Dedup::Distinct;
            }
        }

        // The full (un-sliced) reference answer, for subset checks.
        let mut unsliced = query.clone();
        unsliced.modifiers.limit = None;
        unsliced.modifiers.offset = 0;
        let full = decoded_rows(&db, EngineKind::Reference, &unsliced);
        let expect_len = full.len().saturating_sub(offset).min(limit.unwrap_or(usize::MAX));
        let truth = decoded_rows(&db, EngineKind::Reference, &query);
        prop_assert_eq!(truth.len(), expect_len, "oracle slice length on {}", query);

        for kind in EngineKind::all() {
            let rows = decoded_rows(&db, kind, &query);
            if ordered {
                // Fully-ordered: exact sequence equality.
                prop_assert_eq!(
                    &rows, &truth,
                    "{} ordered sequence deviates on {}",
                    kind, query
                );
            } else {
                prop_assert_eq!(
                    rows.len(), expect_len,
                    "{} row count deviates on {}",
                    kind, query
                );
                // Every returned row (with multiplicity) comes from the
                // full answer bag; without LIMIT/OFFSET that pins the
                // exact bag (set under DISTINCT).
                let have = counted(&rows);
                let avail = counted(&full);
                for (row, n) in have {
                    prop_assert!(
                        avail.get(row).copied().unwrap_or(0) >= n,
                        "{} invents row {:?} on {}",
                        kind, row, query
                    );
                }
            }
        }
    }
}
