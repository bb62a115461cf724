//! Selectivity estimation from BitMat metadata (no matrix loads).
//!
//! Appendix D: each BitMat stores its triple count and a condensed
//! non-empty row/column summary, "which helps us in quickly determining the
//! number of triples in each BitMat and its selectivity … while processing
//! the queries". A triple pattern is *highly selective* when few triples
//! match it (footnote 2).

use crate::bindings::VarId;
use lbr_bitmat::{Catalog, Family};
use lbr_rdf::{Dictionary, Dimension};
use lbr_sparql::algebra::{GraphPattern, TermPattern, TriplePattern};
use lbr_sparql::gosn::Gosn;

/// One position of a TP as planning resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pos {
    /// A variable.
    Var(VarId),
    /// A constant, by its dictionary ID in the position's dimension.
    Id(u32),
    /// A constant the dictionary does not hold in that dimension: the TP
    /// matches nothing.
    Unknown,
}

/// A TP's positions (S, P, O), resolved once at plan time.
pub type TpKey = [Pos; 3];

/// Resolves every TP of a union-free pattern, in the GoSN's TP order:
/// each variable to its id, each constant to its dictionary ID, looked up
/// once here. Estimates and `init` read only these.
pub fn resolve(pattern: &GraphPattern, gosn: &Gosn, dict: &Dictionary) -> Vec<TpKey> {
    let mut out = Vec::with_capacity(gosn.n_tps());
    pattern.visit_tps(&mut |tp| out.push(resolve_tp(tp, gosn.tp_vars(out.len()), dict)));
    out
}

/// Resolves one TP: a variable position takes its id from `vars` (0 when
/// `vars` has none there, as for an estimate, which reads only the
/// shape), a constant its dictionary ID.
pub fn resolve_tp(tp: &TriplePattern, vars: [Option<VarId>; 3], dict: &Dictionary) -> TpKey {
    let dims = [Dimension::Subject, Dimension::Predicate, Dimension::Object];
    let terms = [&tp.s, &tp.p, &tp.o];
    std::array::from_fn(|i| match terms[i] {
        TermPattern::Var(_) => Pos::Var(vars[i].unwrap_or_default()),
        TermPattern::Const(c) => dict.id(c, dims[i]).map_or(Pos::Unknown, Pos::Id),
    })
}

/// Estimated number of triples matching one TP, from metadata alone.
///
/// Exact for every shape but `(s p o)`, whose membership `init` checks
/// (1 either way). Unknown constants give 0 — the basis of the
/// early-abort "simple optimization" of §5.
pub fn estimated_count(tp: &TpKey, catalog: &impl Catalog) -> u64 {
    let mut ids = [None; 3];
    for (id, pos) in ids.iter_mut().zip(tp) {
        match *pos {
            Pos::Unknown => return 0,
            Pos::Id(x) => *id = Some(x),
            Pos::Var(_) => {}
        }
    }
    match ids {
        // (s p o): membership, 0 or 1 — report 1 (checked at init).
        [Some(_), Some(_), Some(_)] => 1,
        // (?v p o): one O-S row.
        [None, Some(p), Some(o)] => catalog.row_count(Family::Os, p, o),
        // (s p ?v): one S-O row.
        [Some(s), Some(p), None] => catalog.row_count(Family::So, p, s),
        // (?a p ?b): the whole S-O BitMat of p.
        [None, Some(p), None] => catalog.count(Family::So, p),
        // (s ?p ?o): the P-O BitMat of s.
        [Some(s), None, None] => catalog.predicate_count(Family::So, s),
        // (?s ?p o): the P-S BitMat of o.
        [None, None, Some(o)] => catalog.predicate_count(Family::Os, o),
        // (s ?p o): the predicates of both s and o whose S-O row s has o
        // (an unreadable row counts: the load that reads it reports it).
        [Some(s), None, Some(o)] => {
            let of_o = catalog.predicates(Family::Os, o).unwrap_or_default();
            let of_s = catalog.predicates(Family::So, s).unwrap_or_default();
            let shared = of_s.iter().filter(|p| of_o.binary_search(p).is_ok());
            shared
                .filter(|&&p| catalog.contains(s, p, o).unwrap_or(true))
                .count() as u64
        }
        // (?s ?p ?o): the full dataset.
        [None, None, None] => catalog.dims().n_triples,
    }
}

/// Per-TP estimates for a whole query.
pub fn estimate_all(tps: &[TpKey], catalog: &impl Catalog) -> Vec<u64> {
    tps.iter().map(|tp| estimated_count(tp, catalog)).collect()
}

/// Convenience: the most selective TP estimate within a supernode.
pub fn sn_rank(tp_ids: &[usize], tp_estimates: &[u64]) -> u64 {
    tp_ids
        .iter()
        .map(|&i| tp_estimates[i])
        .min()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_bitmat::BitMatStore;
    use lbr_rdf::{Graph, Term, Triple};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// The one TP of `s p o`, resolved against `dict`.
    fn key(s: &str, p: &str, o: &str, dict: &Dictionary) -> TpKey {
        let bgp = GraphPattern::Bgp(vec![pat(s, p, o)]);
        resolve(&bgp, &Gosn::from_pattern(&bgp).unwrap(), dict)[0]
    }

    fn pat(s: &str, p: &str, o: &str) -> TriplePattern {
        let f = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                TermPattern::Var(v.to_string())
            } else {
                TermPattern::Const(Term::iri(x))
            }
        };
        TriplePattern::new(f(s), f(p), f(o))
    }

    #[test]
    fn estimates_match_data() {
        let g = Graph::from_triples(vec![
            t("a", "p", "x"),
            t("a", "p", "y"),
            t("b", "p", "x"),
            t("a", "q", "x"),
        ])
        .encode();
        let store = BitMatStore::build(&g);
        let d = &g.dict;
        assert_eq!(estimated_count(&key("?s", "p", "?o", d), &store), 3);
        assert_eq!(estimated_count(&key("a", "p", "?o", d), &store), 2);
        assert_eq!(estimated_count(&key("?s", "p", "x", d), &store), 2);
        assert_eq!(estimated_count(&key("a", "?p", "?o", d), &store), 3);
        assert_eq!(estimated_count(&key("?s", "?p", "x", d), &store), 3);
        assert_eq!(estimated_count(&key("a", "?p", "x", d), &store), 2);
        assert_eq!(estimated_count(&key("b", "?p", "y", d), &store), 0);
        assert_eq!(estimated_count(&key("a", "p", "x", d), &store), 1);
        assert_eq!(estimated_count(&key("?s", "?p", "?o", d), &store), 4);
        // Unknown constants estimate to zero.
        assert_eq!(estimated_count(&key("nope", "p", "?o", d), &store), 0);
        assert_eq!(estimated_count(&key("?s", "nope", "?o", d), &store), 0);
    }

    #[test]
    fn sn_ranking() {
        let est = vec![100, 5, 50];
        assert_eq!(sn_rank(&[0, 2], &est), 50);
        assert_eq!(sn_rank(&[0, 1, 2], &est), 5);
        assert_eq!(sn_rank(&[], &est), u64::MAX);
    }
}
