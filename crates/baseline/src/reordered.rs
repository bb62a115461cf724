//! The outer-join **reordering** baseline of §3.1 (Rao et al. [38, 39],
//! Galindo-Legaria & Rosenthal \[26\]): evaluate triple patterns in
//! selectivity order regardless of OPTIONAL nesting, then repair the damage
//! with **nullification** (restore binding consistency with the original
//! join order) and **best-match** (drop subsumed rows).
//!
//! This engine exists (a) to reproduce the Figure 3.2 worked example —
//! `Res1` (reordered join), `Res2` (after nullification), `Res3` (after
//! best-match) — and (b) as the ablation baseline showing what LBR's
//! minimality guarantee saves: LBR prunes *before* joining and never needs
//! the repair operators on acyclic queries.

use crate::hash_join::{hash_join, Kind};
use crate::scan::scan_tp;
use crate::Relation;
use lbr_bitmat::{Catalog, Family};
use lbr_core::best_match::best_match;
use lbr_core::bindings::Binding;
use lbr_core::selectivity::{estimate_all, resolve};
use lbr_core::LbrError;
use lbr_rdf::{Dictionary, Dimension};
use lbr_sparql::algebra::{Query, TriplePattern};
use lbr_sparql::classify::analyze;
use lbr_sparql::gosn::{Gosn, SnId};

/// Trace of the three stages, mirroring Figure 3.2.
#[derive(Debug, Clone)]
pub struct ReorderTrace {
    /// Rows right after the reordered pairwise joins ("Res1").
    pub after_join: Relation,
    /// Rows after nullification ("Res2").
    pub after_nullification: Relation,
    /// Final rows after best-match ("Res3").
    pub after_best_match: Relation,
}

/// The reordering + nullification + best-match engine.
pub struct ReorderedEngine<'a, C: Catalog> {
    catalog: &'a C,
    dict: &'a Dictionary,
}

impl<'a, C: Catalog> ReorderedEngine<'a, C> {
    /// Creates the engine.
    pub fn new(catalog: &'a C, dict: &'a Dictionary) -> Self {
        ReorderedEngine { catalog, dict }
    }

    /// Executes a query's WHERE pattern (rows over the execution schema —
    /// the query form and modifiers are applied by the shared `Engine`
    /// seam). UNION queries are rewritten to UNION normal form and
    /// evaluated branch-by-branch.
    pub fn execute(&self, query: &Query) -> Result<Relation, LbrError> {
        let projection = query.exec_vars();
        let branches = lbr_sparql::rewrite::rewrite_to_unf(&query.pattern);
        let any_rule3 = branches.iter().any(|b| b.used_rule3);
        let rels: Vec<Relation> = branches
            .iter()
            .map(|b| Ok(self.eval_traced(&b.pattern)?.after_best_match))
            .collect::<Result<_, LbrError>>()?;
        if any_rule3 {
            // Rule (3)'s minimum union is defined over the branches' full
            // schemas: align onto the union of the branch variables,
            // best-match there, and only then project — projecting first
            // could erase a column that distinguishes two rows.
            let mut full_vars: Vec<String> = Vec::new();
            for rel in &rels {
                for v in &rel.vars {
                    if !full_vars.contains(v) {
                        full_vars.push(v.clone());
                    }
                }
            }
            let mut full = Relation::empty(full_vars.clone());
            for rel in &rels {
                full.rows.extend(rel.project(&full_vars).rows);
            }
            best_match(&mut full.rows);
            Ok(full.project(&projection))
        } else {
            let mut out = Relation::empty(projection.clone());
            for rel in &rels {
                out.rows.extend(rel.project(&projection).rows);
            }
            Ok(out)
        }
    }

    /// Executes a UNION-free query, exposing all three stages (projected
    /// onto the query's variables).
    pub fn execute_traced(&self, query: &Query) -> Result<ReorderTrace, LbrError> {
        let projection = query.projected_vars();
        let t = self.eval_traced(&query.pattern)?;
        Ok(ReorderTrace {
            after_join: t.after_join.project(&projection),
            after_nullification: t.after_nullification.project(&projection),
            after_best_match: t.after_best_match.project(&projection),
        })
    }

    /// The three-stage pipeline over one union-free pattern.
    fn eval_traced(&self, pattern: &lbr_sparql::GraphPattern) -> Result<ReorderTrace, LbrError> {
        let gosn = analyze(pattern)?.gosn;
        let tps = pattern.triple_patterns();
        let est = estimate_all(&resolve(pattern, &gosn, self.dict), self.catalog);

        // Reordered plan: absolute-master TPs by ascending selectivity,
        // then greedily the most selective TP connected to what is already
        // joined — slaves join via ⟕ wherever they land (the reordering
        // the original nesting forbids).
        let mut remaining: Vec<usize> = (0..gosn.n_tps()).collect();
        remaining.sort_by_key(|&tp| (!gosn.tp_in_absolute_master(tp) as u8, est[tp], tp));
        let mut order: Vec<usize> = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let connected = |tp: usize| {
                order.is_empty()
                    || tps[tp]
                        .vars()
                        .any(|v| order.iter().any(|&p| tps[p].has_var(v)))
            };
            let pos = remaining.iter().position(|&tp| connected(tp)).unwrap_or(0);
            order.push(remaining.remove(pos));
        }

        let mut acc = scan_tp(tps[order[0]], self.dict, self.catalog)?;
        for &tp in &order[1..] {
            let rel = scan_tp(tps[tp], self.dict, self.catalog)?;
            let kind = if gosn.tp_in_absolute_master(tp) {
                Kind::Inner
            } else {
                Kind::LeftOuter
            };
            acc = hash_join(&acc, &rel, kind);
        }
        // Filters: absolute-master supernode filters drop rows; slave
        // supernode filters and group filters participate in the
        // nullification check below.
        // Supernode filters are evaluated *scoped*: only variables
        // occurring in a TP of that supernode are visible, matching the
        // reference oracle's compositional evaluation.
        let vars = acc.vars.clone();
        // Per-supernode filter scopes depend only on the query: compute
        // them once, not per row inside the nullification fixpoint.
        let sn_scopes: Vec<Vec<String>> = (0..gosn.n_supernodes())
            .map(|sn| {
                if gosn.sn_filters(sn).next().is_none() {
                    Vec::new()
                } else {
                    scope(&gosn, [sn])
                }
            })
            .collect();
        for (sn, scope) in sn_scopes.iter().enumerate() {
            if !gosn.is_absolute_master(sn) {
                continue;
            }
            for e in gosn.sn_filters(sn) {
                acc.rows.retain(|row| self.filter_row(e, row, &vars, scope));
            }
        }
        let after_join = acc.clone();

        // Nullification: per row, a slave supernode whose TPs no longer
        // hold under the original nesting loses its exclusive bindings.
        // Group filters see the repaired rows.
        let group_scopes: Vec<Vec<String>> = (gosn.group_filters().iter())
            .map(|f| scope(&gosn, f.sns.clone()))
            .collect();
        acc.rows.retain_mut(|row| {
            self.nullify_row(row, &vars, (&gosn, &tps), &sn_scopes, &group_scopes)
        });
        let after_nullification = acc.clone();

        let mut rows = acc.rows;
        best_match(&mut rows);
        let after_best_match = Relation {
            vars: acc.vars.clone(),
            rows,
        };
        Ok(ReorderTrace {
            after_join,
            after_nullification,
            after_best_match,
        })
    }

    /// Marks failed supernodes (a TP or filter not holding on the row
    /// under the original nesting) and NULLs every variable held only by
    /// failed supernodes, iterating to a fixpoint so failures cascade down
    /// the hierarchy; then applies the group filters, inner ones first,
    /// to the repaired row. Returns `false` when a group filter rooted at
    /// an absolute master drops the row.
    fn nullify_row(
        &self,
        row: &mut [Option<Binding>],
        vars: &[String],
        (gosn, tps): (&Gosn, &[&TriplePattern]),
        sn_scopes: &[Vec<String>],
        group_scopes: &[Vec<String>],
    ) -> bool {
        let col = |v: &str| vars.iter().position(|x| x == v);
        let mut failed = vec![false; gosn.n_supernodes()];
        loop {
            let mut changed = false;
            #[allow(clippy::needless_range_loop)] // `failed` is mutated via `sn` below
            for sn in 0..gosn.n_supernodes() {
                if failed[sn] || gosn.is_absolute_master(sn) {
                    continue;
                }
                let holds = gosn
                    .tps_of_sn(sn)
                    .iter()
                    .all(|&tp| self.tp_holds(tps[tp], row, &col).unwrap_or(false))
                    && gosn
                        .sn_filters(sn)
                        .all(|e| self.filter_row(e, row, vars, &sn_scopes[sn]));
                if !holds {
                    failed[sn] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // Peer groups fail as a unit, and a slave whose master failed
            // fails too: one sharing no variable with that master would
            // otherwise keep its bindings under a NULL master.
            gosn.close_failure(&mut failed);
            null_unheld(row, vars, gosn, &failed);
        }
        for (f, scope) in gosn.group_filters().iter().zip(group_scopes) {
            if failed[f.root] || self.filter_row(&f.expr, row, vars, scope) {
                continue;
            }
            if gosn.is_absolute_master(f.root) {
                return false;
            }
            failed[f.root] = true;
            gosn.close_failure(&mut failed);
            null_unheld(row, vars, gosn, &failed);
        }
        true
    }

    /// Evaluates a filter over a row. Only the variables in `scope` are
    /// visible — the supernode or group scope of §5.2 — and any other
    /// variable reads as unbound.
    fn filter_row(
        &self,
        e: &lbr_sparql::algebra::Expr,
        row: &[Option<Binding>],
        vars: &[String],
        scope: &[String],
    ) -> bool {
        struct Lk<'a> {
            vars: &'a [String],
            row: &'a [Option<Binding>],
            dict: &'a Dictionary,
            scope: &'a [String],
        }
        impl lbr_core::filter_eval::VarLookup for Lk<'_> {
            fn term(&self, name: &str) -> Option<&lbr_rdf::Term> {
                if !self.scope.iter().any(|v| v == name) {
                    return None;
                }
                let i = self.vars.iter().position(|v| v == name)?;
                self.row[i].as_ref().map(|b| b.decode(self.dict))
            }
        }
        lbr_core::filter_eval::eval(
            e,
            &Lk {
                vars,
                row,
                dict: self.dict,
                scope,
            },
        )
    }

    /// Does the row's binding of this TP correspond to an existing triple?
    fn tp_holds(
        &self,
        tp: &TriplePattern,
        row: &[Option<Binding>],
        col: &dyn Fn(&str) -> Option<usize>,
    ) -> Option<bool> {
        let resolve = |t: &lbr_sparql::algebra::TermPattern, dim: Dimension| -> Option<u32> {
            match t {
                lbr_sparql::algebra::TermPattern::Var(v) => {
                    let b = row[col(v)?]?;
                    b.probes(dim).then_some(b.id)
                }
                lbr_sparql::algebra::TermPattern::Const(c) => self.dict.id(c, dim),
            }
        };
        let s = resolve(&tp.s, Dimension::Subject)?;
        let p = resolve(&tp.p, Dimension::Predicate)?;
        let o = resolve(&tp.o, Dimension::Object)?;
        let hit = self
            .catalog
            .row(Family::Po, s, p)
            .ok()?
            .is_some_and(|r| r.as_ref().contains(o));
        Some(hit)
    }
}

/// Variables occurring in a TP of one of `sns` — the visibility scope of
/// a supernode's filters, or of a group filter.
fn scope(gosn: &Gosn, sns: impl IntoIterator<Item = SnId>) -> Vec<String> {
    let mut vars: Vec<String> = Vec::new();
    for &tp in sns.into_iter().flat_map(|sn| gosn.tps_of_sn(sn)) {
        for v in gosn.vars_of_tp(tp).map(|v| gosn.vars().name(v)) {
            if !vars.iter().any(|x| x == v) {
                vars.push(v.to_string());
            }
        }
    }
    vars
}

/// NULLs the variables that no surviving supernode binds.
fn null_unheld(row: &mut [Option<Binding>], vars: &[String], gosn: &Gosn, failed: &[bool]) {
    for (i, name) in vars.iter().enumerate() {
        let var = gosn.vars().id(name);
        let held = (0..gosn.n_tps())
            .any(|tp| !failed[gosn.sn_of_tp(tp)] && var.is_some_and(|v| gosn.tp_has_var(tp, v)));
        if !held {
            row[i] = None;
        }
    }
}

impl<C: Catalog> lbr_core::api::Engine for ReorderedEngine<'_, C> {
    fn name(&self) -> &'static str {
        "reordered"
    }

    fn dict(&self) -> &Dictionary {
        self.dict
    }

    fn execute_raw(&self, query: &Query) -> Result<lbr_core::QueryOutput, LbrError> {
        Ok(crate::relation_to_output(ReorderedEngine::execute(
            self, query,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_bitmat::BitMatStore;
    use lbr_rdf::{Graph, Term, Triple};
    use lbr_sparql::parse_query;

    fn figure_3_2() -> (lbr_rdf::EncodedGraph, BitMatStore) {
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

    /// The full Figure 3.2 pipeline: Res1 (5 rows), Res2 (nullified), Res3
    /// = {(Julia, Seinfeld), (Larry, NULL)}.
    #[test]
    fn figure_3_2_res1_res2_res3() {
        let (g, st) = figure_3_2();
        let q = parse_query(
            "PREFIX : <> SELECT ?friend ?sitcom WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }",
        )
        .unwrap();
        let engine = ReorderedEngine::new(&st, &g.dict);
        let trace = engine.execute_traced(&q).unwrap();

        // Res1: the reordered (tp1 ⟕ tp2) ⟕ tp3 exposes all of Julia's
        // sitcoms and Larry's CurbYourEnthu.
        assert_eq!(trace.after_join.rows.len(), 5);

        // Res2: same cardinality, but inconsistent ?sitcom bindings are
        // nullified (Veep, NewAdvOldChristine, CurbYourEnthu → NULL).
        let fs = |rel: &Relation| -> Vec<Vec<Option<String>>> {
            let mut rows: Vec<Vec<Option<String>>> = rel
                .project(&["friend".to_string(), "sitcom".to_string()])
                .rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|b| b.map(|x| x.decode(&g.dict).lexical_form().to_string()))
                        .collect()
                })
                .collect();
            rows.sort();
            rows
        };
        let res2 = fs(&trace.after_nullification);
        assert_eq!(res2.len(), 5);
        assert_eq!(res2.iter().filter(|r| r[1].is_none()).count(), 4);
        assert!(res2.contains(&vec![Some("Julia".into()), Some("Seinfeld".into())]));

        // Res3: best-match removes the subsumed rows.
        let res3 = fs(&trace.after_best_match);
        assert_eq!(
            res3,
            vec![
                vec![Some("Julia".into()), Some("Seinfeld".into())],
                vec![Some("Larry".into()), None],
            ]
        );
    }
}
