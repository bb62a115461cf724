//! Per-TP scans from the BitMat catalog — the leaf operator of the
//! baseline engines. Both baselines read the same indexes LBR does, so the
//! evaluation compares executors, not storage.

use crate::Relation;
use lbr_bitmat::{BitMat, Catalog, Family};
use lbr_core::bindings::Binding;
use lbr_core::LbrError;
use lbr_rdf::{Dictionary, Dimension};
use lbr_sparql::algebra::{TermPattern, TriplePattern};

fn const_id(dict: &Dictionary, t: &TermPattern, dim: Dimension) -> Option<u32> {
    t.as_const().and_then(|c| dict.id(c, dim))
}

/// Scans all triples matching a TP into a relation over the TP's variables.
pub fn scan_tp(
    tp: &TriplePattern,
    dict: &Dictionary,
    catalog: &impl Catalog,
) -> Result<Relation, LbrError> {
    let dims = catalog.dims();
    let n_shared = dims.n_shared;
    let vars: Vec<String> = tp.vars().map(|v| v.to_string()).collect();
    let mut rel = Relation {
        vars: vars.clone(),
        rows: Vec::new(),
    };

    let sv = tp.s.as_var();
    let pv = tp.p.as_var();
    let ov = tp.o.as_var();
    let s_id = const_id(dict, &tp.s, Dimension::Subject);
    let p_id = const_id(dict, &tp.p, Dimension::Predicate);
    let o_id = const_id(dict, &tp.o, Dimension::Object);
    // A fixed term unknown to the dictionary matches nothing.
    if (sv.is_none() && s_id.is_none())
        || (pv.is_none() && p_id.is_none())
        || (ov.is_none() && o_id.is_none())
    {
        return Ok(rel);
    }

    let b = |id: u32, dim: Dimension| Some(Binding::new(id, dim, n_shared));
    match (sv, pv, ov) {
        (None, None, None) => {
            let hit = catalog
                .row(Family::Po, s_id.unwrap(), p_id.unwrap())?
                .is_some_and(|row| row.as_ref().contains(o_id.unwrap()));
            if hit {
                rel.rows.push(Vec::new());
            }
        }
        (Some(_), None, None) => {
            if let Some(row) = catalog.row(Family::Ps, o_id.unwrap(), p_id.unwrap())? {
                for s in row.as_ref().iter_ones() {
                    rel.rows.push(vec![b(s, Dimension::Subject)]);
                }
            }
        }
        (None, None, Some(_)) => {
            if let Some(row) = catalog.row(Family::Po, s_id.unwrap(), p_id.unwrap())? {
                for o in row.as_ref().iter_ones() {
                    rel.rows.push(vec![b(o, Dimension::Object)]);
                }
            }
        }
        (Some(s), None, Some(o)) if s != o => {
            if let Some(mat) = catalog.matrix(Family::So, p_id.unwrap())? {
                for (r, c) in BitMat::as_ref(&mat).iter() {
                    rel.rows
                        .push(vec![b(r, Dimension::Subject), b(c, Dimension::Object)]);
                }
            }
        }
        // (?x p ?x): diagonal.
        (Some(_), None, Some(_)) => {
            if let Some(mat) = catalog.matrix(Family::So, p_id.unwrap())? {
                for (r, c) in BitMat::as_ref(&mat).iter() {
                    if r == c && r < n_shared {
                        rel.rows.push(vec![b(r, Dimension::Subject)]);
                    }
                }
            }
        }
        (None, Some(p), Some(o)) if p != o => {
            if let Some(mat) = catalog.matrix(Family::Po, s_id.unwrap())? {
                for (r, c) in BitMat::as_ref(&mat).iter() {
                    rel.rows
                        .push(vec![b(r, Dimension::Predicate), b(c, Dimension::Object)]);
                }
            }
        }
        (Some(s), Some(p), None) if p != s => {
            if let Some(mat) = catalog.matrix(Family::Ps, o_id.unwrap())? {
                for (r, c) in BitMat::as_ref(&mat).iter() {
                    rel.rows
                        .push(vec![b(r, Dimension::Predicate), b(c, Dimension::Subject)]);
                }
            }
        }
        (None, Some(_), None) => {
            if let Some(mat) = catalog.matrix(Family::Po, s_id.unwrap())? {
                let o = o_id.unwrap();
                for (r, c) in BitMat::as_ref(&mat).iter() {
                    if c == o {
                        rel.rows.push(vec![b(r, Dimension::Predicate)]);
                    }
                }
            }
        }
        (Some(s), Some(p), Some(o)) if s != p && p != o && s != o => {
            // Full scan: enumerate per predicate (extension beyond the
            // paper, mirrored by the LBR engine's Unsupported error — the
            // baselines support it so the oracle can cover more ground).
            for pid in 0..dims.n_predicates {
                if let Some(mat) = catalog.matrix(Family::So, pid)? {
                    for (r, c) in BitMat::as_ref(&mat).iter() {
                        rel.rows.push(vec![
                            b(r, Dimension::Subject),
                            b(pid, Dimension::Predicate),
                            b(c, Dimension::Object),
                        ]);
                    }
                }
            }
        }
        (Some(_), Some(_), Some(_)) | (None, Some(_), Some(_)) | (Some(_), Some(_), None) => {
            return Err(LbrError::Unsupported(format!(
                "repeated variable across P and S/O positions: {tp}"
            )));
        }
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_bitmat::BitMatStore;
    use lbr_rdf::{Graph, Term, Triple};
    use lbr_sparql::algebra::TermPattern;

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

    fn store() -> (lbr_rdf::EncodedGraph, BitMatStore) {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = Graph::from_triples(vec![
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("b", "q", "c"),
            t("a", "r", "a"),
        ])
        .encode();
        let s = BitMatStore::build(&g);
        (g, s)
    }

    #[test]
    fn scan_shapes() {
        let (g, st) = store();
        assert_eq!(
            scan_tp(&pat("?s", "p", "?o"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            2
        );
        assert_eq!(
            scan_tp(&pat("a", "p", "?o"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            2
        );
        assert_eq!(
            scan_tp(&pat("?s", "p", "c"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            1
        );
        assert_eq!(
            scan_tp(&pat("a", "?x", "?y"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            3
        );
        assert_eq!(
            scan_tp(&pat("?s", "?x", "c"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            2
        );
        assert_eq!(
            scan_tp(&pat("a", "?x", "c"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            1
        );
        assert_eq!(
            scan_tp(&pat("a", "p", "b"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            1
        );
        assert_eq!(
            scan_tp(&pat("a", "p", "zz"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            0
        );
        assert_eq!(
            scan_tp(&pat("?s", "?p", "?o"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            4
        );
        // Diagonal (?x r ?x).
        assert_eq!(
            scan_tp(&pat("?x", "r", "?x"), &g.dict, &st)
                .unwrap()
                .rows
                .len(),
            1
        );
    }
}
