//! The conventional pairwise executor (Virtuoso / MonetDB stand-in).
//!
//! Evaluates the pattern tree bottom-up with pairwise hash joins. Inner
//! joins inside a BGP may be reordered by selectivity
//! ([`JoinOrder::Selectivity`]) or kept in query order
//! ([`JoinOrder::QueryOrder`]); **left-outer joins are never reordered** —
//! they evaluate exactly in OPTIONAL nesting order, which is the
//! restriction the paper's engines live under (§1). Consequently a
//! low-selectivity OPTIONAL side is fully materialized before its master
//! restricts it — the cost LBR's semi-join pruning avoids.

use crate::hash_join::{hash_join, Kind};
use crate::scan::scan_tp;
use crate::Relation;
use lbr_bitmat::Catalog;
use lbr_core::filter_eval::{self, VarLookup};
use lbr_core::selectivity::{estimated_count, resolve_tp};
use lbr_core::LbrError;
use lbr_rdf::{Dictionary, Term};
use lbr_sparql::algebra::{GraphPattern, Query, TriplePattern};

/// Inner-join ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrder {
    /// Selectivity-ordered left-deep joins (Virtuoso-analog).
    Selectivity,
    /// Strict query order (MonetDB-analog).
    QueryOrder,
}

/// The pairwise hash-join engine.
pub struct PairwiseEngine<'a, C: Catalog> {
    catalog: &'a C,
    dict: &'a Dictionary,
    order: JoinOrder,
    row_limit: usize,
}

impl<'a, C: Catalog> PairwiseEngine<'a, C> {
    /// Creates an engine with the given inner-join ordering policy.
    pub fn new(catalog: &'a C, dict: &'a Dictionary, order: JoinOrder) -> Self {
        PairwiseEngine {
            catalog,
            dict,
            order,
            row_limit: usize::MAX,
        }
    }

    /// Bounds intermediate result cardinality; exceeding it aborts the
    /// query with [`LbrError::ResourceLimit`] — the harness's stand-in for
    /// the paper's ">30 min" timeout entries.
    pub fn with_row_limit(mut self, limit: usize) -> Self {
        self.row_limit = limit;
        self
    }

    fn guard(&self, rel: Relation) -> Result<Relation, LbrError> {
        if rel.rows.len() > self.row_limit {
            return Err(LbrError::ResourceLimit(format!(
                "intermediate result of {} rows exceeds the {}-row budget",
                rel.rows.len(),
                self.row_limit
            )));
        }
        Ok(rel)
    }

    /// Executes a query's WHERE pattern, returning a relation over the
    /// execution schema (projection plus ORDER BY keys); the query form
    /// and modifiers are applied by the shared `Engine` seam.
    pub fn execute(&self, query: &Query) -> Result<Relation, LbrError> {
        let rel = self.eval(&query.pattern)?;
        Ok(rel.project(&query.exec_vars()))
    }

    /// Evaluates a pattern tree.
    pub fn eval(&self, pattern: &GraphPattern) -> Result<Relation, LbrError> {
        match pattern {
            GraphPattern::Bgp(tps) => self.eval_bgp(tps),
            GraphPattern::Join(l, r) => {
                self.guard(hash_join(&self.eval(l)?, &self.eval(r)?, Kind::Inner))
            }
            GraphPattern::LeftJoin(l, r) => {
                self.guard(hash_join(&self.eval(l)?, &self.eval(r)?, Kind::LeftOuter))
            }
            GraphPattern::Union(l, r) => {
                let a = self.eval(l)?;
                let b = self.eval(r)?;
                // Bag union over the union of the schemas.
                let mut vars = a.vars.clone();
                for v in &b.vars {
                    if !vars.contains(v) {
                        vars.push(v.clone());
                    }
                }
                let mut out = a.project(&vars);
                out.rows.extend(b.project(&vars).rows);
                Ok(out)
            }
            GraphPattern::Filter(inner, e) => {
                let mut rel = self.eval(inner)?;
                let vars = rel.vars.clone();
                rel.rows.retain(|row| {
                    let lk = RowLookup {
                        vars: &vars,
                        row,
                        dict: self.dict,
                    };
                    filter_eval::eval(e, &lk)
                });
                Ok(rel)
            }
        }
    }

    fn eval_bgp(&self, tps: &[TriplePattern]) -> Result<Relation, LbrError> {
        if tps.is_empty() {
            return Ok(Relation::unit());
        }
        let order: Vec<usize> = match self.order {
            JoinOrder::QueryOrder => (0..tps.len()).collect(),
            JoinOrder::Selectivity => {
                let est: Vec<u64> = tps
                    .iter()
                    .map(|tp| estimated_count(&resolve_tp(tp, [None; 3], self.dict), self.catalog))
                    .collect();
                let mut idx: Vec<usize> = (0..tps.len()).collect();
                // Left-deep: most selective first, then greedily prefer TPs
                // connected to what is already joined (avoids accidental
                // cross products).
                idx.sort_by_key(|&i| (est[i], i));
                let mut picked: Vec<usize> = Vec::with_capacity(idx.len());
                let mut remaining = idx;
                while !remaining.is_empty() {
                    let pos = remaining
                        .iter()
                        .position(|&i| {
                            picked.is_empty()
                                || tps[i]
                                    .vars()
                                    .any(|v| picked.iter().any(|&p| tps[p].has_var(v)))
                        })
                        .unwrap_or(0);
                    picked.push(remaining.remove(pos));
                }
                picked
            }
        };
        let mut acc = scan_tp(&tps[order[0]], self.dict, self.catalog)?;
        for &i in &order[1..] {
            let next = scan_tp(&tps[i], self.dict, self.catalog)?;
            acc = self.guard(hash_join(&acc, &next, Kind::Inner))?;
        }
        Ok(acc)
    }
}

impl<C: Catalog> lbr_core::api::Engine for PairwiseEngine<'_, C> {
    fn name(&self) -> &'static str {
        match self.order {
            JoinOrder::Selectivity => "pairwise",
            JoinOrder::QueryOrder => "query-order",
        }
    }

    fn dict(&self) -> &Dictionary {
        self.dict
    }

    fn execute_raw(&self, query: &Query) -> Result<lbr_core::QueryOutput, LbrError> {
        Ok(crate::relation_to_output(PairwiseEngine::execute(
            self, query,
        )?))
    }
}

struct RowLookup<'a> {
    vars: &'a [String],
    row: &'a [Option<lbr_core::bindings::Binding>],
    dict: &'a Dictionary,
}

impl VarLookup for RowLookup<'_> {
    fn term(&self, name: &str) -> Option<&Term> {
        let i = self.vars.iter().position(|v| v == name)?;
        self.row[i].as_ref().map(|b| b.decode(self.dict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_bitmat::BitMatStore;
    use lbr_rdf::{Graph, Triple};
    use lbr_sparql::parse_query;

    fn store() -> (lbr_rdf::EncodedGraph, BitMatStore) {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = Graph::from_triples(vec![
            t("Julia", "actedIn", "Seinfeld"),
            t("Julia", "actedIn", "Veep"),
            t("Julia", "actedIn", "NewAdvOldChristine"),
            t("Julia", "actedIn", "CurbYourEnthu"),
            t("CurbYourEnthu", "location", "LosAngeles"),
            t("Larry", "actedIn", "CurbYourEnthu"),
            t("Jerry", "hasFriend", "Julia"),
            t("Jerry", "hasFriend", "Larry"),
            t("Seinfeld", "location", "NewYorkCity"),
            t("Veep", "location", "D.C."),
            t("NewAdvOldChristine", "location", "Jersey"),
        ])
        .encode();
        let s = BitMatStore::build(&g);
        (g, s)
    }

    #[test]
    fn q2_results_match_the_paper() {
        let (g, st) = store();
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }",
        )
        .unwrap();
        for order in [JoinOrder::Selectivity, JoinOrder::QueryOrder] {
            let engine = PairwiseEngine::new(&st, &g.dict, order);
            let rel = engine.execute(&q).unwrap();
            let mut rows: Vec<Vec<Option<String>>> = rel
                .rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|b| b.map(|x| x.decode(&g.dict).lexical_form().to_string()))
                        .collect()
                })
                .collect();
            rows.sort();
            assert_eq!(
                rows,
                vec![
                    vec![Some("Julia".into()), Some("Seinfeld".into())],
                    vec![Some("Larry".into()), None],
                ]
            );
        }
    }

    #[test]
    fn filters_and_unions() {
        let (g, st) = store();
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE {
               { ?f :actedIn ?s . ?s :location :NewYorkCity . }
               UNION { ?f :actedIn ?s . ?s :location :LosAngeles . } }",
        )
        .unwrap();
        let engine = PairwiseEngine::new(&st, &g.dict, JoinOrder::Selectivity);
        let rel = engine.execute(&q).unwrap();
        assert_eq!(rel.rows.len(), 3, "Seinfeld + 2×CurbYourEnthu actors");
    }
}
