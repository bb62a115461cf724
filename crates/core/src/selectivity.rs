//! Selectivity estimation from BitMat metadata (no matrix loads).
//!
//! Appendix D: each BitMat stores its triple count and a condensed
//! non-empty row/column summary, "which helps us in quickly determining the
//! number of triples in each BitMat and its selectivity … while processing
//! the queries". A triple pattern is *highly selective* when few triples
//! match it (footnote 2).

use lbr_bitmat::{Catalog, Family};
use lbr_rdf::{Dictionary, Dimension};
use lbr_sparql::algebra::{TermPattern, TriplePattern};

fn const_id(dict: &Dictionary, t: &TermPattern, dim: Dimension) -> Option<Option<u32>> {
    match t {
        TermPattern::Var(_) => Some(None),
        TermPattern::Const(c) => dict.id(c, dim).map(Some),
    }
}

/// Estimated number of triples matching one TP, from metadata alone.
///
/// Exact for every supported pattern shape except `(s ?p o)` (upper bound:
/// the smaller of the subject's and the object's totals). Unknown constants
/// give 0 — the basis of the early-abort "simple optimization" of §5.
pub fn estimated_count(tp: &TriplePattern, dict: &Dictionary, catalog: &impl Catalog) -> u64 {
    let (Some(s), Some(p), Some(o)) = (
        const_id(dict, &tp.s, Dimension::Subject),
        const_id(dict, &tp.p, Dimension::Predicate),
        const_id(dict, &tp.o, Dimension::Object),
    ) else {
        return 0;
    };
    match (s, p, o) {
        // (s p o): membership, 0 or 1 — report 1 (checked at init).
        (Some(_), Some(_), Some(_)) => 1,
        // (?v p o): one P-S row.
        (None, Some(p), Some(o)) => catalog.row_count(Family::Ps, o, p),
        // (s p ?v): one P-O row.
        (Some(s), Some(p), None) => catalog.row_count(Family::Po, s, p),
        // (?a p ?b): the whole S-O BitMat of p.
        (None, Some(p), None) => catalog.count(Family::So, p),
        // (s ?p ?o): the P-O BitMat of s.
        (Some(s), None, None) => catalog.count(Family::Po, s),
        // (?s ?p o): the P-S BitMat of o.
        (None, None, Some(o)) => catalog.count(Family::Ps, o),
        // (s ?p o): bounded by both totals.
        (Some(s), None, Some(o)) => catalog
            .count(Family::Po, s)
            .min(catalog.count(Family::Ps, o)),
        // (?s ?p ?o): the full dataset.
        (None, None, None) => catalog.dims().n_triples,
    }
}

/// Per-TP estimates for a whole query.
pub fn estimate_all(tps: &[TriplePattern], dict: &Dictionary, catalog: &impl Catalog) -> Vec<u64> {
    tps.iter()
        .map(|tp| estimated_count(tp, dict, catalog))
        .collect()
}

/// Ranks a join variable: the count of the most selective TP containing it
/// (§3.2 — "?j1 is more selective than ?j2 if the most selective TP having
/// ?j1 has fewer triples …"). Lower = more selective.
pub fn jvar_rank(holders: &[usize], tp_estimates: &[u64]) -> u64 {
    holders
        .iter()
        .map(|&i| tp_estimates[i])
        .min()
        .unwrap_or(u64::MAX)
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
    use lbr_sparql::algebra::TermPattern;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
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
        assert_eq!(estimated_count(&pat("?s", "p", "?o"), d, &store), 3);
        assert_eq!(estimated_count(&pat("a", "p", "?o"), d, &store), 2);
        assert_eq!(estimated_count(&pat("?s", "p", "x"), d, &store), 2);
        assert_eq!(estimated_count(&pat("a", "?p", "?o"), d, &store), 3);
        assert_eq!(estimated_count(&pat("?s", "?p", "x"), d, &store), 3);
        assert_eq!(estimated_count(&pat("a", "?p", "x"), d, &store), 3); // min(3, 3) upper bound
        assert_eq!(estimated_count(&pat("a", "p", "x"), d, &store), 1);
        assert_eq!(estimated_count(&pat("?s", "?p", "?o"), d, &store), 4);
        // Unknown constants estimate to zero.
        assert_eq!(estimated_count(&pat("nope", "p", "?o"), d, &store), 0);
        assert_eq!(estimated_count(&pat("?s", "nope", "?o"), d, &store), 0);
    }

    #[test]
    fn jvar_ranking() {
        let est = vec![100, 5, 50];
        assert_eq!(jvar_rank(&[0, 2], &est), 50);
        assert_eq!(jvar_rank(&[0, 1, 2], &est), 5);
        assert_eq!(jvar_rank(&[], &est), u64::MAX);
        assert_eq!(sn_rank(&[0, 2], &est), 50);
    }
}
