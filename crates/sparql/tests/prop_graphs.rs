//! Property tests for the query-graph structures: Lemma 3.2 (GoT acyclic ⇒
//! GoJ acyclic), GoSN relation invariants, and the NWD transformation's
//! monotonicity/convergence, over random triple-pattern sets and random
//! pattern trees.

use lbr_sparql::algebra::{GraphPattern, TermPattern, TriplePattern};
use lbr_sparql::goj::{Goj, Got};
use lbr_sparql::gosn::Gosn;
use lbr_sparql::well_designed::{transform_nwd_pattern, violations};
use lbr_sparql::{classify, is_well_designed, parse_query, to_sparql};
use proptest::prelude::*;

/// The parser's canonical form: adjacent BGPs under a Join merge into one
/// BGP (SPARQL group juxtaposition). Applied to both sides before
/// comparing skeletons.
fn normalize(p: &GraphPattern) -> GraphPattern {
    match p {
        GraphPattern::Bgp(_) => p.clone(),
        GraphPattern::Join(l, r) => {
            let (l, r) = (normalize(l), normalize(r));
            match (l, r) {
                (GraphPattern::Bgp(mut a), GraphPattern::Bgp(b)) => {
                    a.extend(b);
                    GraphPattern::Bgp(a)
                }
                (GraphPattern::Join(x, y), GraphPattern::Bgp(b)) => {
                    // Right-merge through left-deep joins: (X ⋈ Bgp_y) ⋈ Bgp_b.
                    match (*y, b) {
                        (GraphPattern::Bgp(mut ys), bs) => {
                            ys.extend(bs);
                            GraphPattern::Join(x, Box::new(GraphPattern::Bgp(ys)))
                        }
                        (other, bs) => GraphPattern::join(
                            GraphPattern::Join(x, Box::new(other)),
                            GraphPattern::Bgp(bs),
                        ),
                    }
                }
                (l, r) => GraphPattern::join(l, r),
            }
        }
        GraphPattern::LeftJoin(l, r) => GraphPattern::left_join(normalize(l), normalize(r)),
        GraphPattern::Union(l, r) => GraphPattern::union(normalize(l), normalize(r)),
        GraphPattern::Filter(i, e) => GraphPattern::filter(normalize(i), e.clone()),
    }
}

/// Structural skeleton for parse↔print comparison.
fn skeleton(p: &GraphPattern) -> String {
    match p {
        GraphPattern::Bgp(tps) => format!(
            "B[{}]",
            tps.iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(";")
        ),
        GraphPattern::Join(l, r) => format!("J({},{})", skeleton(l), skeleton(r)),
        GraphPattern::LeftJoin(l, r) => format!("L({},{})", skeleton(l), skeleton(r)),
        GraphPattern::Union(l, r) => format!("U({},{})", skeleton(l), skeleton(r)),
        GraphPattern::Filter(i, e) => format!("F({},{e})", skeleton(i)),
    }
}

fn arb_tp() -> impl Strategy<Value = TriplePattern> {
    let term = prop_oneof![
        3 => (0u8..8).prop_map(|i| TermPattern::Var(format!("v{i}"))),
        1 => (0u8..5).prop_map(|i| TermPattern::Const(lbr_rdf::Term::iri(format!("c{i}")))),
    ];
    let pred = (0u8..4).prop_map(|i| TermPattern::Const(lbr_rdf::Term::iri(format!("p{i}"))));
    (term.clone(), pred, term).prop_map(|(s, p, o)| TriplePattern::new(s, p, o))
}

fn arb_pattern() -> impl Strategy<Value = GraphPattern> {
    let leaf = prop::collection::vec(arb_tp(), 1..4).prop_map(GraphPattern::Bgp);
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| GraphPattern::join(l, r)),
            (inner.clone(), inner).prop_map(|(l, r)| GraphPattern::left_join(l, r)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lemma 3.2: an acyclic GoT implies an acyclic GoJ (we check the
    /// contrapositive the paper proves: GoJ cyclic ⇒ GoT cyclic, modulo
    /// the multigraph parallel-edge reading which the GoT shares).
    #[test]
    fn lemma_3_2(tps in prop::collection::vec(arb_tp(), 1..8)) {
        let goj = Goj::from_tps(&tps);
        let got = Got::from_tps(&tps);
        // Simple-graph cycles in GoJ must show up as GoT cycles.
        if got.is_acyclic() {
            // GoT acyclic ⇒ GoJ has no simple cycle. Parallel-edge cycles
            // (two TPs sharing a jvar pair) are invisible to the GoT's
            // shared-variable edges, so exclude them.
            let n = goj.len();
            let mut simple_edges = 0;
            for a in 0..n {
                simple_edges += goj.neighbours(a).filter(|&b| b > a).count();
            }
            let components = {
                // count components of the simple graph
                let mut seen = vec![false; n];
                let mut comps = 0;
                for start in 0..n {
                    if seen[start] { continue; }
                    comps += 1;
                    let mut stack = vec![start];
                    seen[start] = true;
                    while let Some(x) = stack.pop() {
                        for y in goj.neighbours(x) {
                            if !seen[y] { seen[y] = true; stack.push(y); }
                        }
                    }
                }
                comps
            };
            prop_assert_eq!(simple_edges + components, n,
                "GoT acyclic but GoJ has a simple cycle");
        }
    }

    /// GoSN invariants: absolute masters have no masters; peers share their
    /// master sets; masterhood is transitive along uni edges.
    #[test]
    fn gosn_relations(pattern in arb_pattern()) {
        let gosn = Gosn::from_pattern(&pattern).unwrap();
        let n = gosn.n_supernodes();
        for sn in 0..n {
            if gosn.is_absolute_master(sn) {
                prop_assert!(gosn.masters_of(sn).is_empty());
            }
            for &peer in gosn.peers_of(sn) {
                prop_assert_eq!(gosn.masters_of(sn), gosn.masters_of(peer),
                    "peers must share master sets");
            }
        }
        for &(a, b) in gosn.uni_edges() {
            prop_assert!(gosn.is_master_of(a, b), "uni edge implies masterhood");
            // Transitivity: masters of a are masters of b.
            for &m in gosn.masters_of(a) {
                prop_assert!(gosn.is_master_of(m, b));
            }
        }
        // TP ↔ SN mapping is consistent.
        for tp in 0..gosn.n_tps() {
            prop_assert!(gosn.tps_of_sn(gosn.sn_of_tp(tp)).contains(&tp));
        }
    }

    /// Printing a pattern as SPARQL and re-parsing it preserves the
    /// operator skeleton (the parser's only normalization is BGP merging).
    #[test]
    fn parse_print_roundtrip(pattern in arb_pattern()) {
        let q = lbr_sparql::Query::select_all(pattern);
        let printed = to_sparql(&q);
        let q2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        prop_assert_eq!(
            skeleton(&normalize(&q.pattern)),
            skeleton(&normalize(&q2.pattern)),
            "\n{}", printed
        );
    }

    /// The Appendix-B transformation converges to a well-designed pattern
    /// and never touches well-designed inputs.
    #[test]
    fn nwd_transformation_converges(pattern in arb_pattern()) {
        let t = transform_nwd_pattern(&pattern);
        prop_assert!(is_well_designed(&t), "must converge to WD");
        if is_well_designed(&pattern) {
            prop_assert_eq!(&t, &pattern, "WD patterns are untouched");
            prop_assert!(violations(&pattern).is_empty());
        }
        // The transformation only turns LeftJoins into Joins: TP multiset
        // is preserved.
        let a: Vec<_> = pattern.triple_patterns().into_iter().cloned().collect();
        let b: Vec<_> = t.triple_patterns().into_iter().cloned().collect();
        prop_assert_eq!(a, b);
        // classify() must agree on the transformed pattern's designedness.
        prop_assert!(classify(&t).unwrap().well_designed);
    }
}
