//! Query classification (Figure 3.1): decides whether a nested BGP-OPT
//! query can skip nullification / best-match under LBR.
//!
//! For **well-designed** queries (and for non-well-designed queries after
//! the Appendix-B GoSN transformation):
//!
//! * acyclic GoJ → nullification / best-match avoidable (Lemma 3.3);
//! * cyclic GoJ with at most one join variable per slave supernode →
//!   avoidable (Lemma 3.4);
//! * cyclic GoJ with a slave supernode containing more than one join
//!   variable → nullification + best-match required.
//!
//! On top of that it decides, once per branch, whether the rows the
//! multi-way join emits are already the answer
//! ([`QueryClass::final_at_emission`]): the engine pushes a LIMIT/ASK
//! quota only into such branches, and EXPLAIN prints the same flag.

use crate::algebra::GraphPattern;
use crate::error::SparqlError;
use crate::goj::Goj;
use crate::gosn::{Gosn, SnId, TpId};
use crate::well_designed::{transform_nwd, violations_with};

/// The classification of one UNION-free query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryClass {
    /// Pérez et al. well-designedness.
    pub well_designed: bool,
    /// Whether the GoJ contains a cycle.
    pub cyclic: bool,
    /// Whether the query is free of Cartesian products (its TPs form one
    /// variable-connected component).
    pub connected: bool,
    /// Maximum number of distinct join variables in any slave supernode
    /// (on the NWD-transformed GoSN if the query was not well-designed).
    pub max_slave_sn_jvars: usize,
    /// `NB-reqd` of Alg 5.1: nullification and best-match are required.
    pub nb_required: bool,
    /// Every row the multi-way join emits is an answer row: the join
    /// never nullifies, so no best-match can drop a row and the join may
    /// stop at a LIMIT/ASK quota. True when there is no slave supernode;
    /// otherwise the query must be well-designed and `!nb_required`, no
    /// slave supernode may have a FaN filter or root a group filter (a
    /// filter that becomes an init mask, [`Gosn::mask_var`], is fine), and
    /// every supernode and every peer group must be one variable-connected
    /// component, masters included. A master that is a Cartesian product
    /// lets a slave match one master row only in part, and nullification
    /// then rewrites that row.
    pub final_at_emission: bool,
}

/// Everything the engine needs to know about a UNION-free pattern: the
/// (possibly NWD-transformed) GoSN, the GoJ, and the classification.
#[derive(Debug, Clone)]
pub struct Analyzed {
    /// GoSN after the Appendix-B transformation (identity for
    /// well-designed queries).
    pub gosn: Gosn,
    /// Graph of join variables.
    pub goj: Goj,
    /// Classification.
    pub class: QueryClass,
}

/// Classifies a UNION-free pattern.
pub fn classify(pattern: &GraphPattern) -> Result<QueryClass, SparqlError> {
    analyze(pattern).map(|a| a.class)
}

/// Builds the full analysis: GoSN (transformed if NWD), GoJ, classification.
pub fn analyze(pattern: &GraphPattern) -> Result<Analyzed, SparqlError> {
    let gosn0 = Gosn::from_pattern(pattern)?;
    let viols = violations_with(pattern, &gosn0);
    let well_designed = viols.is_empty();
    let gosn = if well_designed {
        gosn0
    } else {
        transform_nwd(&gosn0, &viols)
    };

    let goj = Goj::new(&gosn);
    let cyclic = goj.is_cyclic();

    // Slave supernode jvar counts (on the transformed GoSN), through one
    // scratch list of TPs or jvars.
    let mut scratch: Vec<usize> = Vec::with_capacity(gosn.n_tps().max(goj.len()));
    let mut max_slave_sn_jvars = 0usize;
    for sn in (0..gosn.n_supernodes()).filter(|&sn| !gosn.is_absolute_master(sn)) {
        scratch.clear();
        for &tp in gosn.tps_of_sn(sn) {
            scratch.extend_from_slice(goj.jvars_of_tp(tp));
        }
        scratch.sort_unstable();
        scratch.dedup();
        max_slave_sn_jvars = max_slave_sn_jvars.max(scratch.len());
    }

    let nb_required = cyclic && max_slave_sn_jvars > 1;
    scratch.clear();
    scratch.extend(0..gosn.n_tps());
    let connected = one_component(&goj, &mut scratch);
    let lemmas_hold = well_designed && !nb_required;
    let final_at_emission = final_at_emission(&gosn, &goj, lemmas_hold, &mut scratch);
    Ok(Analyzed {
        gosn,
        goj,
        class: QueryClass {
            well_designed,
            cyclic,
            connected,
            max_slave_sn_jvars,
            nb_required,
            final_at_emission,
        },
    })
}

/// [`QueryClass::final_at_emission`]; `lemmas_hold` is "well-designed
/// and not `NB-reqd`", the premise of Lemmas 3.3 and 3.4. `scratch`
/// holds the TP set under test.
fn final_at_emission(gosn: &Gosn, goj: &Goj, lemmas_hold: bool, scratch: &mut Vec<TpId>) -> bool {
    let mut slaves = (0..gosn.n_supernodes()).filter(|&sn| !gosn.is_absolute_master(sn));
    let masked = |sn: SnId| (gosn.sn_filters(sn)).all(|e| gosn.mask_var(sn, e).is_some());
    // Each supernode, and each peer group of more than one (checked once,
    // at its first member).
    let mut connected = |sn: SnId| {
        scratch.clear();
        scratch.extend_from_slice(gosn.tps_of_sn(sn));
        let peers = gosn.peers_of(sn);
        one_component(goj, scratch)
            && (peers.len() == 1 || peers[0] != sn || {
                scratch.clear();
                peers
                    .iter()
                    .for_each(|&p| scratch.extend_from_slice(gosn.tps_of_sn(p)));
                one_component(goj, scratch)
            })
    };
    slaves.clone().next().is_none()
        || (lemmas_hold
            && slaves.all(masked)
            && (gosn.group_filters().iter()).all(|f| gosn.is_absolute_master(f.root))
            && (0..gosn.n_supernodes()).all(&mut connected))
}

/// True when `tps` form a single component under shared-variable edges
/// (no Cartesian product among them). Zero or one TP is connected. A
/// variable two TPs share is a join variable, so `goj` holds them all.
pub fn tps_connected(goj: &Goj, tps: &[TpId]) -> bool {
    one_component(goj, &mut tps.to_vec())
}

/// [`tps_connected`] in place: grows the component from `tps[0]` as a
/// prefix of `tps`, reordering it.
fn one_component(goj: &Goj, tps: &mut [TpId]) -> bool {
    let shares = |a, b| (goj.jvars_of_tp(a).iter()).any(|j| goj.jvars_of_tp(b).contains(j));
    let (mut grown, mut i) = (tps.len().min(1), 0);
    while i < grown {
        let start = grown;
        for j in start..tps.len() {
            if shares(tps[i], tps[j]) {
                tps.swap(grown, j);
                grown += 1;
            }
        }
        i += 1;
    }
    grown == tps.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{Expr, TermPattern, TriplePattern};
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
    fn acyclic_well_designed_avoids_nb() {
        let q = GraphPattern::left_join(
            bgp(&[("Jerry", "hasFriend", "?friend")]),
            bgp(&[
                ("?friend", "actedIn", "?sitcom"),
                ("?sitcom", "location", "NewYorkCity"),
            ]),
        );
        let c = classify(&q).unwrap();
        assert!(c.well_designed);
        assert!(!c.cyclic);
        assert!(c.connected);
        assert!(!c.nb_required);
    }

    #[test]
    fn cyclic_one_jvar_per_slave_avoids_nb() {
        // Master has the triangle; the slave touches only ?a.
        let q = GraphPattern::left_join(
            bgp(&[("?a", "p1", "?b"), ("?b", "p2", "?c"), ("?a", "p3", "?c")]),
            bgp(&[("?a", "p4", "?z")]),
        );
        let c = classify(&q).unwrap();
        assert!(c.well_designed);
        assert!(c.cyclic);
        assert_eq!(c.max_slave_sn_jvars, 1);
        assert!(!c.nb_required, "Lemma 3.4");
    }

    #[test]
    fn cyclic_multi_jvar_slave_needs_nb() {
        // tp1 ⟕ (tp2 ⋈ tp3) with a jvar triangle crossing the slave.
        let q = GraphPattern::left_join(
            bgp(&[("?a", "p1", "?b")]),
            bgp(&[("?a", "p2", "?c"), ("?c", "p3", "?b")]),
        );
        let c = classify(&q).unwrap();
        assert!(c.well_designed);
        assert!(c.cyclic);
        assert_eq!(c.max_slave_sn_jvars, 3);
        assert!(c.nb_required);
    }

    #[test]
    fn nwd_is_classified_on_transformed_gosn() {
        // Px ⟕ (Py ⟕ Pz), Pz violating with Px: after the transformation
        // Pz is a peer of Px, so only Py-side slaves remain.
        let q = GraphPattern::left_join(
            bgp(&[("?j", "p1", "?x")]),
            GraphPattern::left_join(bgp(&[("?x", "p2", "?y")]), bgp(&[("?j", "p3", "?z")])),
        );
        let a = analyze(&q).unwrap();
        assert!(!a.class.well_designed);
        // Pz (SN2) became a peer of Px (SN0).
        assert!(a.gosn.are_peers(0, 2));
        assert!(!a.class.nb_required);
    }

    #[test]
    fn cartesian_product_detected() {
        let q = GraphPattern::join(bgp(&[("?a", "p1", "?b")]), bgp(&[("?c", "p2", "?d")]));
        let c = classify(&q).unwrap();
        assert!(!c.connected);
        let q = bgp(&[("?a", "p1", "?b"), ("?b", "p2", "?c")]);
        assert!(classify(&q).unwrap().connected);
    }

    #[test]
    fn final_at_emission_needs_connected_masters_and_no_slave_fan() {
        let var = |v: &str| Box::new(Expr::Var(v.to_string()));
        let product = bgp(&[("?a", "p", "?b"), ("?c", "q", "?d")]);
        // No slave: every emitted row is an answer, product or not.
        assert!(classify(&product).unwrap().final_at_emission);
        let chain = || bgp(&[("?b", "r", "?x"), ("?x", "s", "?d")]);
        // A slave bridging the two halves of a Cartesian master matches
        // some master rows only in part: one supernode...
        let q = GraphPattern::left_join(product.clone(), chain());
        let c = classify(&q).unwrap();
        assert!(c.well_designed && !c.cyclic && c.connected && !c.nb_required);
        assert!(!c.final_at_emission);
        // ...or a peer group of two connected supernodes.
        let q = GraphPattern::left_join(
            GraphPattern::join(
                GraphPattern::left_join(bgp(&[("?a", "p", "?b")]), bgp(&[("?a", "t", "?y")])),
                bgp(&[("?c", "q", "?d")]),
            ),
            chain(),
        );
        assert!(!classify(&q).unwrap().final_at_emission);
        // Slave filters: one variable the slave binds is an init mask;
        // two variables go to the FaN hook, which may nullify.
        let opt = |e: Expr| {
            GraphPattern::left_join(
                bgp(&[("?s", "p", "?o")]),
                GraphPattern::filter(bgp(&[("?o", "q", "?x")]), e),
            )
        };
        let c = Box::new(Expr::Const(Term::iri("c")));
        assert!(
            classify(&opt(Expr::Ne(var("x"), c)))
                .unwrap()
                .final_at_emission
        );
        let q = opt(Expr::Ne(var("x"), var("s")));
        assert!(!classify(&q).unwrap().final_at_emission);
        // A group filter rooted at a slave fails it; at a master, it drops.
        let group = |p| GraphPattern::filter(p, Expr::Ne(var("x"), var("o")));
        let inner = GraphPattern::left_join(bgp(&[("?o", "q", "?x")]), bgp(&[("?x", "r", "?z")]));
        let q = GraphPattern::left_join(bgp(&[("?s", "p", "?o")]), group(inner));
        let c = classify(&q).unwrap();
        assert!(c.well_designed && !c.final_at_emission);
        let q = group(GraphPattern::left_join(
            bgp(&[("?s", "p", "?o")]),
            bgp(&[("?o", "q", "?x")]),
        ));
        assert!(classify(&q).unwrap().final_at_emission);
    }

    #[test]
    fn single_tp_query() {
        let c = classify(&bgp(&[("?a", "p1", "?b")])).unwrap();
        assert!(c.well_designed && !c.cyclic && c.connected && !c.nb_required);
        assert_eq!(c.max_slave_sn_jvars, 0);
    }
}
