//! §5.2 rewrites: UNION normal form and filter push-in.
//!
//! Rewrite rules (equivalences (1)–(5) of the paper):
//!
//! 1. `(P1 ∪ P2) ⋈ P3 ≡ (P1 ⋈ P3) ∪ (P2 ⋈ P3)` (and symmetrically),
//! 2. `(P1 ∪ P2) ⟕ P3 ≡ (P1 ⟕ P3) ∪ (P2 ⟕ P3)`,
//! 3. `P1 ⟕ (P2 ∪ P3) → (P1 ⟕ P2) ∪ (P1 ⟕ P3)` — **not** an equivalence:
//!    spurious subsumed results may appear and must be removed by a final
//!    best-match pass (flagged via [`UnfBranch::used_rule3`]),
//! 4. `(P1 ⟕ P2) FILTER R ≡ (P1 FILTER R) ⟕ P2` for safe filters with
//!    `vars(R) ⊆ vars(P1)`,
//! 5. `(P1 ∪ P2) FILTER R ≡ (P1 FILTER R) ∪ (P2 FILTER R)`.
//!
//! `P FILTER(?m = ?n)` stays a filter. Renaming `?n` to `?m` instead
//! would unbind `?n` in the answer, and where `?n` is optional it would
//! drop the filter's effect.

use crate::algebra::{Expr, GraphPattern};
use std::collections::BTreeSet;

/// One UNION-free branch of the UNION normal form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnfBranch {
    /// The union-free pattern (filters pushed in as far as safely possible).
    pub pattern: GraphPattern,
    /// True when rule (3) fired anywhere on the way to this branch — the
    /// caller must apply best-match across all branches to drop spurious
    /// subsumed results.
    pub used_rule3: bool,
}

/// Rewrites a pattern into UNION normal form `P1 ∪ … ∪ Pn`.
pub fn rewrite_to_unf(pattern: &GraphPattern) -> Vec<UnfBranch> {
    branches(pattern)
}

fn branches(p: &GraphPattern) -> Vec<UnfBranch> {
    match p {
        GraphPattern::Bgp(_) => {
            vec![UnfBranch {
                pattern: p.clone(),
                used_rule3: false,
            }]
        }
        GraphPattern::Union(l, r) => {
            let mut out = branches(l);
            out.extend(branches(r));
            out
        }
        GraphPattern::Join(l, r) => {
            // Rule (1) in both directions: distribute over all pairs.
            let ls = branches(l);
            let rs = branches(r);
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for bl in &ls {
                for br in &rs {
                    out.push(UnfBranch {
                        pattern: GraphPattern::join(bl.pattern.clone(), br.pattern.clone()),
                        used_rule3: bl.used_rule3 || br.used_rule3,
                    });
                }
            }
            out
        }
        GraphPattern::LeftJoin(l, r) => {
            let ls = branches(l); // rule (2)
            let rs = branches(r); // rule (3) when |rs| > 1
            let rule3 = rs.len() > 1;
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for bl in &ls {
                for br in &rs {
                    out.push(UnfBranch {
                        pattern: GraphPattern::left_join(bl.pattern.clone(), br.pattern.clone()),
                        used_rule3: rule3 || bl.used_rule3 || br.used_rule3,
                    });
                }
            }
            out
        }
        GraphPattern::Filter(inner, e) => {
            // Rule (5): distribute the filter over the branches, then push
            // it inside each branch (rule (4) and join-side placement).
            branches(inner)
                .into_iter()
                .map(|b| UnfBranch {
                    pattern: push_filter(b.pattern, e.clone()),
                    ..b
                })
                .collect()
        }
    }
}

/// Pushes a (safe) filter as deep as its variable set allows.
pub fn push_filter(p: GraphPattern, e: Expr) -> GraphPattern {
    let fvars: BTreeSet<String> = e.vars().into_iter().map(|s| s.to_string()).collect();
    push_filter_inner(p, e, &fvars)
}

fn covers(p: &GraphPattern, fvars: &BTreeSet<String>) -> bool {
    let vars = p.variables();
    fvars.iter().all(|v| vars.contains(v.as_str()))
}

fn push_filter_inner(p: GraphPattern, e: Expr, fvars: &BTreeSet<String>) -> GraphPattern {
    match p {
        GraphPattern::LeftJoin(l, r) if covers(&l, fvars) => {
            // Rule (4).
            GraphPattern::left_join(push_filter_inner(*l, e, fvars), *r)
        }
        GraphPattern::Join(l, r) => {
            if covers(&l, fvars) {
                GraphPattern::join(push_filter_inner(*l, e, fvars), *r)
            } else if covers(&r, fvars) {
                GraphPattern::join(*l, push_filter_inner(*r, e, fvars))
            } else {
                GraphPattern::filter(GraphPattern::Join(l, r), e)
            }
        }
        other => GraphPattern::filter(other, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{TermPattern, TriplePattern};
    use lbr_rdf::Term;

    fn bgp(tps: &[(&str, &str, &str)]) -> GraphPattern {
        let f = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                TermPattern::Var(v.to_string())
            } else {
                TermPattern::Const(Term::iri(x))
            }
        };
        GraphPattern::Bgp(
            tps.iter()
                .map(|&(s, p, o)| TriplePattern::new(f(s), f(p), f(o)))
                .collect(),
        )
    }

    #[test]
    fn union_free_is_single_branch() {
        let q = GraphPattern::left_join(bgp(&[("?a", "p", "?b")]), bgp(&[("?b", "q", "?c")]));
        let b = rewrite_to_unf(&q);
        assert_eq!(b.len(), 1);
        assert!(!b[0].used_rule3);
        assert_eq!(b[0].pattern, q);
    }

    #[test]
    fn rule_1_distributes_join() {
        let q = GraphPattern::join(
            GraphPattern::union(bgp(&[("?a", "p1", "?b")]), bgp(&[("?a", "p2", "?b")])),
            bgp(&[("?b", "q", "?c")]),
        );
        let b = rewrite_to_unf(&q);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|x| !x.used_rule3));
        assert!(b.iter().all(|x| !x.pattern.has_union()));
    }

    #[test]
    fn rule_2_distributes_left_union() {
        let q = GraphPattern::left_join(
            GraphPattern::union(bgp(&[("?a", "p1", "?b")]), bgp(&[("?a", "p2", "?b")])),
            bgp(&[("?b", "q", "?c")]),
        );
        let b = rewrite_to_unf(&q);
        assert_eq!(b.len(), 2);
        assert!(
            b.iter().all(|x| !x.used_rule3),
            "rule (2) is an equivalence"
        );
    }

    #[test]
    fn rule_3_flags_spurious_results() {
        let q = GraphPattern::left_join(
            bgp(&[("?a", "p", "?b")]),
            GraphPattern::union(bgp(&[("?b", "q1", "?c")]), bgp(&[("?b", "q2", "?c")])),
        );
        let b = rewrite_to_unf(&q);
        assert_eq!(b.len(), 2);
        assert!(
            b.iter().all(|x| x.used_rule3),
            "rule (3) branches need best-match"
        );
    }

    #[test]
    fn nested_unions_multiply() {
        let u = |p1: GraphPattern, p2| GraphPattern::union(p1, p2);
        let q = GraphPattern::join(
            u(bgp(&[("?a", "p1", "?b")]), bgp(&[("?a", "p2", "?b")])),
            u(bgp(&[("?b", "q1", "?c")]), bgp(&[("?b", "q2", "?c")])),
        );
        assert_eq!(rewrite_to_unf(&q).len(), 4);
    }

    #[test]
    fn rule_4_pushes_filter_into_master() {
        let e = Expr::Gt(
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Const(Term::integer(3))),
        );
        let q = GraphPattern::filter(
            GraphPattern::left_join(bgp(&[("?a", "p", "?b")]), bgp(&[("?b", "q", "?c")])),
            e.clone(),
        );
        let b = rewrite_to_unf(&q);
        assert_eq!(b.len(), 1);
        match &b[0].pattern {
            GraphPattern::LeftJoin(l, _) => {
                assert!(
                    matches!(**l, GraphPattern::Filter(_, _)),
                    "filter pushed to master side"
                )
            }
            other => panic!("expected LeftJoin, got {other:?}"),
        }
    }

    #[test]
    fn filter_on_slave_vars_stays_outside() {
        // vars(R) ⊄ vars(P1): rule (4) must NOT fire.
        let e = Expr::Bound("c".into());
        let q = GraphPattern::filter(
            GraphPattern::left_join(bgp(&[("?a", "p", "?b")]), bgp(&[("?b", "q", "?c")])),
            e,
        );
        let b = rewrite_to_unf(&q);
        assert!(matches!(b[0].pattern, GraphPattern::Filter(_, _)));
    }

    #[test]
    fn rule_5_distributes_filter_over_union() {
        let e = Expr::Bound("a".into());
        let q = GraphPattern::filter(
            GraphPattern::union(bgp(&[("?a", "p1", "?b")]), bgp(&[("?a", "p2", "?b")])),
            e,
        );
        let b = rewrite_to_unf(&q);
        assert_eq!(b.len(), 2);
        for br in &b {
            assert!(br.pattern.has_filter());
            assert!(!br.pattern.has_union());
        }
    }

    /// `FILTER(?m = ?n)` stays a filter: renaming `?n` to `?m` would
    /// leave `?n` unbound, or drop the filter where `?n` is optional.
    #[test]
    fn var_equality_filter_stays() {
        let e = Expr::Eq(
            Box::new(Expr::Var("m".into())),
            Box::new(Expr::Var("n".into())),
        );
        let q = GraphPattern::filter(bgp(&[("?m", "p", "?n")]), e);
        let b = rewrite_to_unf(&q);
        assert_eq!(b[0].pattern, q);
    }

    #[test]
    fn join_side_filter_placement() {
        let e = Expr::Bound("c".into());
        let q = GraphPattern::filter(
            GraphPattern::join(bgp(&[("?a", "p", "?b")]), bgp(&[("?b", "q", "?c")])),
            e,
        );
        let b = rewrite_to_unf(&q);
        match &b[0].pattern {
            GraphPattern::Join(_, r) => assert!(matches!(**r, GraphPattern::Filter(_, _))),
            other => panic!("expected Join, got {other:?}"),
        }
    }
}
