//! Well-designedness (Pérez et al., §2.2) and the Appendix-B
//! transformation for non-well-designed (NWD) patterns.
//!
//! A pattern is **well-designed** when for every sub-pattern
//! `P' = Pk ⟕ Pl`: every variable of `Pl` that also appears *outside* `P'`
//! appears in `Pk` too. Violations identify pairs of OPT-free BGPs
//! (supernodes); converting the unidirectional edges on the unique GoSN
//! path between each violating pair into bidirectional edges yields a GoSN
//! on which the ordinary LBR machinery is sound under SQL's null-intolerant
//! join semantics (Appendix B).

use crate::algebra::GraphPattern;
use crate::gosn::{EdgeKind, Gosn, SnId, TpId};
use std::collections::BTreeSet;

/// One well-designedness violation: variable `var` occurs in the slave side
/// of an OPTIONAL and in a supernode outside it, but not in the master side.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// The offending join variable.
    pub var: String,
    /// A supernode inside the OPTIONAL's right-hand side containing `var`.
    pub slave_sn: SnId,
    /// A supernode outside the OPTIONAL pattern containing `var`.
    pub outside_sn: SnId,
}

/// Tests well-designedness.
pub fn is_well_designed(pattern: &GraphPattern) -> bool {
    let Ok(gosn) = Gosn::from_pattern(pattern) else {
        // UNION queries: well-designedness is tested per UNF branch.
        return false;
    };
    violations_with(pattern, &gosn).is_empty()
}

/// Lists all violations (deduplicated supernode pairs).
pub fn violations(pattern: &GraphPattern) -> Vec<Violation> {
    match Gosn::from_pattern(pattern) {
        Ok(gosn) => violations_with(pattern, &gosn),
        Err(_) => Vec::new(),
    }
}

/// Lists violations against a pre-built GoSN (TP order must match). The
/// walk reads the GoSN's variable ids and allocates only for the
/// violations it finds.
pub fn violations_with(pattern: &GraphPattern, gosn: &Gosn) -> Vec<Violation> {
    let mut out: BTreeSet<Violation> = BTreeSet::new();
    // Each subtree owns a contiguous TP index range in left-to-right order.
    walk(pattern, 0, gosn, &mut out);
    out.into_iter().collect()
}

/// Recursively visits sub-patterns; returns the TP count of the subtree.
fn walk(p: &GraphPattern, start: TpId, gosn: &Gosn, out: &mut BTreeSet<Violation>) -> usize {
    match p {
        GraphPattern::Bgp(tps) => tps.len(),
        GraphPattern::Filter(inner, _) => walk(inner, start, gosn, out),
        GraphPattern::Union(l, r) | GraphPattern::Join(l, r) => {
            let ln = walk(l, start, gosn, out);
            ln + walk(r, start + ln, gosn, out)
        }
        GraphPattern::LeftJoin(l, r) => {
            let ln = walk(l, start, gosn, out);
            let rn = walk(r, start + ln, gosn, out);
            let (master, whole) = (start..start + ln, start..start + ln + rn);
            // For each var of Pl: does it occur outside P' but not in Pk?
            for l_idx in start + ln..whole.end {
                for v in gosn.vars_of_tp(l_idx) {
                    if master.clone().any(|tp| gosn.tp_has_var(tp, v)) {
                        continue;
                    }
                    let outside = (0..gosn.n_tps()).filter(|o| !whole.contains(o));
                    for o_idx in outside.filter(|&o| gosn.tp_has_var(o, v)) {
                        out.insert(Violation {
                            var: gosn.vars().name(v).to_string(),
                            slave_sn: gosn.sn_of_tp(l_idx),
                            outside_sn: gosn.sn_of_tp(o_idx),
                        });
                    }
                }
            }
            ln + rn
        }
    }
}

/// Appendix-B transformation: for every violation, converts all
/// unidirectional edges on the (unique, undirected) GoSN path between the
/// violating supernodes into bidirectional edges. Monotonic and
/// convergent: edges only ever change ⟕ → ⋈.
pub fn transform_nwd(gosn: &Gosn, violations: &[Violation]) -> Gosn {
    let mut to_convert: BTreeSet<(SnId, SnId)> = BTreeSet::new();
    for v in violations {
        for (a, b, kind) in gosn.undirected_path(v.slave_sn, v.outside_sn) {
            if kind == EdgeKind::Uni {
                // Stored orientation: uni edges are kept as (master, slave);
                // the path reports traversal order, so look both ways.
                if gosn.uni_edges().contains(&(a, b)) {
                    to_convert.insert((a, b));
                } else {
                    to_convert.insert((b, a));
                }
            }
        }
    }
    let edges: Vec<(SnId, SnId)> = to_convert.into_iter().collect();
    gosn.convert_uni_to_bi(&edges)
}

/// The Appendix-B transformation applied at the *pattern* level: rebuilds
/// the query tree with every LeftJoin whose GoSN edge the transformation
/// converts turned into an inner Join. Iterates to a fixpoint (conversion
/// can surface further violations in deeply nested queries).
///
/// This is the **semantics the paper assigns to non-well-designed
/// queries**: it coincides with SQL's null-intolerant evaluation of the
/// original query for the common shapes (a violating OPTIONAL consumed by
/// a downstream null-intolerant inner join — the Galindo-Legaria
/// simplification), but for violations buried under further OPTIONALs it
/// is genuinely a *definition*, not an equivalence.
pub fn transform_nwd_pattern(pattern: &GraphPattern) -> GraphPattern {
    let mut current = pattern.clone();
    for _ in 0..64 {
        let Ok(gosn) = Gosn::from_pattern(&current) else {
            return current;
        };
        let viols = violations_with(&current, &gosn);
        if viols.is_empty() {
            return current;
        }
        let mut converted: BTreeSet<(SnId, SnId)> = BTreeSet::new();
        for v in &viols {
            for (a, b, kind) in gosn.undirected_path(v.slave_sn, v.outside_sn) {
                if kind == EdgeKind::Uni {
                    converted.insert((a.min(b), a.max(b)));
                }
            }
        }
        let mut counter = 0usize;
        current = rebuild(&current, &converted, &mut counter).0;
    }
    current
}

/// Rebuilds the tree, numbering supernodes exactly as [`Gosn`] does
/// (left-to-right extraction of maximal OPT-free sub-patterns) and turning
/// converted LeftJoins into Joins. Returns the subtree and its leftmost
/// supernode id.
fn rebuild(
    p: &GraphPattern,
    converted: &BTreeSet<(SnId, SnId)>,
    counter: &mut usize,
) -> (GraphPattern, SnId) {
    if p.is_opt_free() {
        let id = *counter;
        *counter += 1;
        return (p.clone(), id);
    }
    match p {
        GraphPattern::Join(l, r) => {
            let (lp, la) = rebuild(l, converted, counter);
            let (rp, _) = rebuild(r, converted, counter);
            (GraphPattern::join(lp, rp), la)
        }
        GraphPattern::LeftJoin(l, r) => {
            let (lp, la) = rebuild(l, converted, counter);
            let (rp, rb) = rebuild(r, converted, counter);
            let key = (la.min(rb), la.max(rb));
            if converted.contains(&key) {
                (GraphPattern::join(lp, rp), la)
            } else {
                (GraphPattern::left_join(lp, rp), la)
            }
        }
        GraphPattern::Filter(inner, e) => {
            let (ip, a) = rebuild(inner, converted, counter);
            (GraphPattern::filter(ip, e.clone()), a)
        }
        GraphPattern::Union(_, _) | GraphPattern::Bgp(_) => {
            // Unions are rewritten away before NWD handling; BGPs are
            // OPT-free and handled above.
            let id = *counter;
            *counter += 1;
            (p.clone(), id)
        }
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
    fn q2_is_well_designed() {
        let q = GraphPattern::left_join(
            bgp(&[("Jerry", "hasFriend", "?friend")]),
            bgp(&[
                ("?friend", "actedIn", "?sitcom"),
                ("?sitcom", "location", "NewYorkCity"),
            ]),
        );
        assert!(is_well_designed(&q));
        assert!(violations(&q).is_empty());
    }

    #[test]
    fn textbook_nwd() {
        // Px ⟕ (Py ⟕ Pz) where Pz shares ?j with Px but Py does not.
        let q = GraphPattern::left_join(
            bgp(&[("?j", "p1", "?x")]),
            GraphPattern::left_join(bgp(&[("?x", "p2", "?y")]), bgp(&[("?j", "p3", "?z")])),
        );
        assert!(!is_well_designed(&q));
        let v = violations(&q);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].var, "j");
        assert_eq!(v[0].slave_sn, 2);
        assert_eq!(v[0].outside_sn, 0);
    }

    #[test]
    fn deeply_shared_var_is_fine() {
        // ?x appears everywhere including the master — well-designed.
        let q = GraphPattern::left_join(
            bgp(&[("?x", "p1", "?a")]),
            GraphPattern::left_join(bgp(&[("?x", "p2", "?b")]), bgp(&[("?x", "p3", "?c")])),
        );
        assert!(is_well_designed(&q));
    }

    /// Figure B.1: (Pa ⟕ Pb) ⋈ ((Pc ⟕ Pd) ⟕ (Pe ⟕ Pf)), where Pb and Pf
    /// violate WD with Pc over ?j1 (and with each other).
    #[test]
    fn figure_b_1_transformation() {
        let pa = bgp(&[("?a1", "pa", "?a2")]);
        let pb = bgp(&[("?a2", "pb", "?j1")]); // shares ?j1 with Pc and Pf
        let pc = bgp(&[("?j1", "pc", "?c2")]);
        let pd = bgp(&[("?c2", "pd", "?d2")]);
        let pe = bgp(&[("?c2", "pe", "?e2")]);
        let pf = bgp(&[("?e2", "pf", "?j1")]);
        let q = GraphPattern::join(
            GraphPattern::left_join(pa, pb),
            GraphPattern::left_join(
                GraphPattern::left_join(pc, pd),
                GraphPattern::left_join(pe, pf),
            ),
        );
        // SN ids in left-to-right order: a=0 b=1 c=2 d=3 e=4 f=5.
        let gosn = Gosn::from_pattern(&q).unwrap();
        let mut uni = gosn.uni_edges().to_vec();
        uni.sort_unstable();
        assert_eq!(uni, vec![(0, 1), (2, 3), (2, 4), (4, 5)]);
        assert_eq!(gosn.bi_edges(), &[(0, 2)]);

        let v = violations(&q);
        assert!(!v.is_empty());
        // Pb violates with Pc (and Pf); Pf violates with Pb (via its own
        // OPTIONAL: ?j1 in Pf, outside, not in Pe).
        assert!(v.iter().any(|x| x.slave_sn == 1 && x.outside_sn == 2));
        assert!(v.iter().any(|x| x.slave_sn == 5));

        let t = transform_nwd(&gosn, &v);
        // After the transformation only c→d stays unidirectional
        // (Figure B.1's right-hand side).
        assert_eq!(t.uni_edges(), &[(2, 3)]);
        let mut bi = t.bi_edges().to_vec();
        bi.sort_unstable();
        assert_eq!(bi, vec![(0, 1), (0, 2), (2, 4), (4, 5)]);
        // b, e, f joined the absolute-master peer group; d is still a slave.
        for sn in [0usize, 1, 2, 4, 5] {
            assert!(t.is_absolute_master(sn), "SN{sn} should be absolute");
        }
        assert!(!t.is_absolute_master(3));
    }

    #[test]
    fn pattern_level_transformation() {
        // Px ⟕ (Py ⟕ Pz) with ?j in Pz violating against Px: the whole
        // path SN0–SN1–SN2 converts, leaving pure inner joins.
        let q = GraphPattern::left_join(
            bgp(&[("?j", "p1", "?x")]),
            GraphPattern::left_join(bgp(&[("?x", "p2", "?y")]), bgp(&[("?j", "p3", "?z")])),
        );
        let t = transform_nwd_pattern(&q);
        assert!(is_well_designed(&t));
        assert_eq!(
            t,
            GraphPattern::join(
                bgp(&[("?j", "p1", "?x")]),
                GraphPattern::join(bgp(&[("?x", "p2", "?y")]), bgp(&[("?j", "p3", "?z")])),
            )
        );
        // Well-designed patterns are untouched.
        let wd = GraphPattern::left_join(bgp(&[("?a", "p", "?b")]), bgp(&[("?b", "q", "?c")]));
        assert_eq!(transform_nwd_pattern(&wd), wd);
    }

    #[test]
    fn violation_via_projection_is_out_of_scope() {
        // Only TP occurrences count; a var used nowhere else is fine even
        // if projected.
        let q = GraphPattern::left_join(bgp(&[("?a", "p1", "?b")]), bgp(&[("?b", "p2", "?c")]));
        assert!(is_well_designed(&q));
    }
}
