//! The correctness oracle: a literal, slow implementation of the SPARQL
//! algebra over solution mappings (Pérez et al.), with both semantics of
//! Appendix C:
//!
//! * [`Semantics::Sparql`] — compatible mappings: two solutions are
//!   compatible when they agree on the variables *bound in both*; an
//!   unbound variable is compatible with anything (ARQ/Jena behaviour);
//! * [`Semantics::NullIntolerant`] — SQL behaviour (Virtuoso/MonetDB):
//!   every variable shared by the two operands' *schemas* must be bound on
//!   both sides and equal; NULLs never join.
//!
//! Well-designed queries produce identical results under both (the paper's
//! focus); the non-well-designed Appendix B/C examples differ.

use crate::scan::scan_tp;
use crate::Relation;
use lbr_bitmat::Catalog;
use lbr_core::bindings::Binding;
use lbr_core::filter_eval::{self, VarLookup};
use lbr_core::LbrError;
use lbr_rdf::{Dictionary, Term};
use lbr_sparql::algebra::{GraphPattern, Query};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Join semantics over NULLs (Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// SPARQL compatible-mappings semantics.
    Sparql,
    /// SQL null-intolerant semantics.
    NullIntolerant,
}

type Map = BTreeMap<String, Binding>;

/// Evaluates a query's WHERE pattern against the catalog with the chosen
/// semantics, returning rows over the execution schema
/// (`Query::exec_vars`); forms and modifiers are applied by the shared
/// `Engine` seam.
pub fn evaluate_reference(
    query: &Query,
    dict: &Dictionary,
    catalog: &impl Catalog,
    semantics: Semantics,
) -> Result<Relation, LbrError> {
    let maps = eval(&query.pattern, dict, catalog, semantics)?;
    let vars = query.exec_vars();
    Ok(Relation {
        rows: maps
            .iter()
            .map(|m| vars.iter().map(|v| m.get(v).copied()).collect())
            .collect(),
        vars,
    })
}

fn eval(
    p: &GraphPattern,
    dict: &Dictionary,
    catalog: &impl Catalog,
    sem: Semantics,
) -> Result<Vec<Map>, LbrError> {
    match p {
        GraphPattern::Bgp(tps) => {
            let mut acc: Vec<Map> = vec![Map::new()];
            for tp in tps {
                let rel = scan_tp(tp, dict, catalog)?;
                let mut next = Vec::new();
                for m in &acc {
                    for row in &rel.rows {
                        let mut candidate = m.clone();
                        let mut ok = true;
                        for (i, v) in rel.vars.iter().enumerate() {
                            let b = row[i].expect("scans never produce NULL");
                            match candidate.get(v) {
                                Some(&prev) if prev != b => {
                                    ok = false;
                                    break;
                                }
                                _ => {
                                    candidate.insert(v.clone(), b);
                                }
                            }
                        }
                        if ok {
                            next.push(candidate);
                        }
                    }
                }
                acc = next;
            }
            Ok(acc)
        }
        GraphPattern::Join(l, r) => {
            let (ls, rs) = (schema(l), schema(r));
            let lm = eval(l, dict, catalog, sem)?;
            let rm = eval(r, dict, catalog, sem)?;
            let mut out = Vec::new();
            for a in &lm {
                for b in &rm {
                    if compatible(a, b, &ls, &rs, sem) {
                        out.push(merge(a, b));
                    }
                }
            }
            Ok(out)
        }
        GraphPattern::LeftJoin(l, r) => {
            let (ls, rs) = (schema(l), schema(r));
            let lm = eval(l, dict, catalog, sem)?;
            let rm = eval(r, dict, catalog, sem)?;
            let mut out = Vec::new();
            for a in &lm {
                let mut matched = false;
                for b in &rm {
                    if compatible(a, b, &ls, &rs, sem) {
                        matched = true;
                        out.push(merge(a, b));
                    }
                }
                if !matched {
                    out.push(a.clone());
                }
            }
            Ok(out)
        }
        GraphPattern::Union(l, r) => {
            let mut out = eval(l, dict, catalog, sem)?;
            out.extend(eval(r, dict, catalog, sem)?);
            Ok(out)
        }
        GraphPattern::Filter(inner, e) => {
            let maps = eval(inner, dict, catalog, sem)?;
            Ok(maps
                .into_iter()
                .filter(|m| {
                    let lk = MapLookup { map: m, dict };
                    filter_eval::eval(e, &lk)
                })
                .collect())
        }
    }
}

fn schema(p: &GraphPattern) -> BTreeSet<String> {
    p.variables().into_iter().map(|s| s.to_string()).collect()
}

fn compatible(
    a: &Map,
    b: &Map,
    schema_a: &BTreeSet<String>,
    schema_b: &BTreeSet<String>,
    sem: Semantics,
) -> bool {
    match sem {
        Semantics::Sparql => a.iter().all(|(v, x)| b.get(v).is_none_or(|y| y == x)),
        Semantics::NullIntolerant => schema_a
            .intersection(schema_b)
            .all(|v| matches!((a.get(v), b.get(v)), (Some(x), Some(y)) if x == y)),
    }
}

fn merge(a: &Map, b: &Map) -> Map {
    let mut m = a.clone();
    for (k, v) in b {
        m.entry(k.clone()).or_insert(*v);
    }
    m
}

struct MapLookup<'a> {
    map: &'a Map,
    dict: &'a Dictionary,
}

impl VarLookup for MapLookup<'_> {
    fn term(&self, name: &str) -> Option<&Term> {
        self.map.get(name).map(|b| b.decode(self.dict))
    }
}

/// Convenience: evaluates an `Expr`-free pattern and renders lexical
/// forms for test assertions.
pub fn rendered_rows(rel: &Relation, dict: &Dictionary) -> Vec<Vec<Option<String>>> {
    let mut rows: Vec<Vec<Option<String>>> = rel
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|b| b.map(|x| x.decode(dict).lexical_form().to_string()))
                .collect()
        })
        .collect();
    rows.sort();
    rows
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
            t("Jerry", "hasFriend", "Julia"),
            t("Jerry", "hasFriend", "Larry"),
            t("Julia", "actedIn", "Seinfeld"),
            t("Seinfeld", "location", "NewYorkCity"),
        ])
        .encode();
        let s = BitMatStore::build(&g);
        (g, s)
    }

    #[test]
    fn well_designed_identical_under_both_semantics() {
        let (g, st) = store();
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
               OPTIONAL { ?f :actedIn ?s . ?s :location :NewYorkCity . } }",
        )
        .unwrap();
        let a = evaluate_reference(&q, &g.dict, &st, Semantics::Sparql).unwrap();
        let b = evaluate_reference(&q, &g.dict, &st, Semantics::NullIntolerant).unwrap();
        assert_eq!(rendered_rows(&a, &g.dict), rendered_rows(&b, &g.dict));
        assert_eq!(a.rows.len(), 2);
    }

    /// Appendix C's counter-intuitive NWD case: joining over a variable
    /// that one side leaves unbound differs across semantics.
    #[test]
    fn nwd_differs_across_semantics() {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = Graph::from_triples(vec![
            t("Jerry", "hasFriend", "Julia"),
            t("Jerry", "hasFriend", "Larry"),
            t("Julia", "actedIn", "Seinfeld"),
            t("Friends", "location", "NewYorkCity"),
            t("Seinfeld", "location", "NewYorkCity"),
        ])
        .encode();
        let st = BitMatStore::build(&g);
        // { {?f OPTIONAL ?s} {?s location NYC} }: ?s join over a possibly
        // unbound variable — non-well-designed.
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE {
               { :Jerry :hasFriend ?f . OPTIONAL { ?f :actedIn ?s . } }
               { ?s :location :NewYorkCity . } }",
        )
        .unwrap();
        let sparql = evaluate_reference(&q, &g.dict, &st, Semantics::Sparql).unwrap();
        let sql = evaluate_reference(&q, &g.dict, &st, Semantics::NullIntolerant).unwrap();
        // SPARQL: Larry's unbound ?s is compatible with both locations →
        // (Larry, Friends), (Larry, Seinfeld), plus (Julia, Seinfeld).
        assert_eq!(sparql.rows.len(), 3);
        // SQL: Larry's NULL never joins → only (Julia, Seinfeld).
        assert_eq!(sql.rows.len(), 1);
    }
}
