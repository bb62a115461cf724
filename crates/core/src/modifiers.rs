//! The **one** modifier-application seam shared by every engine.
//!
//! Engines evaluate a query's WHERE pattern to raw rows over
//! [`Query::exec_vars`] (the projection plus any non-projected `ORDER BY`
//! key) and hand them to [`finalize`], which applies SPARQL's §18.2.5
//! modifier order:
//!
//! 1. **ORDER BY** — a stable sort under the documented [`order_cmp`]
//!    total order over dictionary-decoded terms;
//! 2. **projection** — the extra `ORDER BY` columns are dropped;
//! 3. **DISTINCT / REDUCED** — duplicates eliminated *on the encoded
//!    dictionary IDs*, before any term is decoded (REDUCED is treated as
//!    DISTINCT — a permitted cardinality); a column that mixes the
//!    predicate dimension with S/O bindings (possible across UNION
//!    branches) falls back to decoded-term comparison, since those two
//!    dictionaries assign unrelated IDs to the same term;
//! 4. **OFFSET**, then **LIMIT**;
//! 5. the **query form**: `ASK` collapses the sequence to a zero-column
//!    relation with one row (true) or none (false).
//!
//! [`row_quota`] is the planning-side counterpart: the number of raw rows
//! that provably suffices, which the LBR engine pushes into the multi-way
//! join's seed enumeration so `ASK` and plain-`LIMIT` queries terminate
//! early instead of materializing everything.

use crate::bindings::{Binding, QueryOutput};
use lbr_rdf::{Dictionary, Term};
use lbr_sparql::algebra::{Dedup, Modifiers, QueryForm};
use lbr_sparql::Query;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::time::Instant;

/// The documented total order `ORDER BY` sorts by (ascending form):
///
/// 1. unbound (`None`) sorts before every bound term;
/// 2. blank nodes < IRIs < literals (the SPARQL §15.1 category order);
/// 3. blank nodes compare by label, IRIs by codepoint;
/// 4. literals compare numerically when **both** lexical forms parse as
///    `i64` (matching the FILTER `<` semantics), otherwise by lexical
///    form, then by datatype IRI, then by language tag.
///
/// `DESC(?v)` reverses this order per key.
pub fn order_cmp(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    fn rank(t: &Term) -> u8 {
        match t {
            Term::BlankNode(_) => 0,
            Term::Iri(_) => 1,
            Term::Literal { .. } => 2,
        }
    }
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => rank(x).cmp(&rank(y)).then_with(|| match (x, y) {
            (Term::BlankNode(p), Term::BlankNode(q)) => p.cmp(q),
            (Term::Iri(p), Term::Iri(q)) => p.cmp(q),
            (
                Term::Literal {
                    lexical: lp,
                    datatype: dp,
                    lang: gp,
                },
                Term::Literal {
                    lexical: lq,
                    datatype: dq,
                    lang: gq,
                },
            ) => match (x.as_integer(), y.as_integer()) {
                (Some(m), Some(n)) => m.cmp(&n),
                _ => lp.cmp(lq).then_with(|| dp.cmp(dq)).then_with(|| gp.cmp(gq)),
            },
            _ => unreachable!("ranks are equal"),
        }),
    }
}

/// How many *raw* rows suffice to answer the query exactly — the bound an
/// engine may push into execution as an early-exit quota. `None` means
/// every row is needed:
///
/// * `ORDER BY` needs the full sequence before it can pick a prefix;
/// * `DISTINCT`/`REDUCED` may collapse arbitrarily many raw rows into
///   one, so a raw-row bound proves nothing.
///
/// For plain `SELECT … LIMIT k [OFFSET n]` the bound is `n + k`. For
/// `ASK` it is `OFFSET + 1` (order never changes emptiness, and the
/// grammar gives ASK no DISTINCT), or `0` under `LIMIT 0` (the answer is
/// `false` without looking at any row).
pub fn row_quota(form: &QueryForm, m: &Modifiers) -> Option<usize> {
    match form {
        QueryForm::Ask => Some(match m.limit {
            Some(0) => 0,
            _ => m.offset.saturating_add(1),
        }),
        QueryForm::Select { dedup, .. } => {
            if *dedup != Dedup::None || !m.order_by.is_empty() {
                None
            } else {
                m.limit.map(|k| m.offset.saturating_add(k))
            }
        }
    }
}

/// Applies the query form and solution modifiers to raw execution output
/// (rows over [`Query::exec_vars`]), producing the final
/// [`QueryOutput`] over [`Query::projected_vars`]. See the module docs
/// for the exact operation order.
pub fn finalize(raw: QueryOutput, query: &Query, dict: &Dictionary) -> QueryOutput {
    finalize_parts(
        raw,
        &query.form,
        &query.modifiers,
        &query.projected_vars(),
        dict,
    )
}

/// [`finalize`] over pre-extracted parts, for callers that cache the
/// query spec in a plan (e.g. `LbrPlan`) instead of holding a [`Query`].
pub fn finalize_parts(
    raw: QueryOutput,
    form: &QueryForm,
    modifiers: &Modifiers,
    projection: &[String],
    dict: &Dictionary,
) -> QueryOutput {
    let t_fin = Instant::now();
    let QueryOutput {
        vars,
        mut rows,
        mut stats,
    } = raw;

    // 1. ORDER BY: one decoded key tuple per row, stable sort.
    if !modifiers.order_by.is_empty() && !matches!(form, QueryForm::Ask) {
        let key_cols: Vec<Option<usize>> = modifiers
            .order_by
            .iter()
            .map(|k| vars.iter().position(|v| v == &k.var))
            .collect();
        let descending: Vec<bool> = modifiers.order_by.iter().map(|k| k.descending).collect();
        type KeyedRow<'d> = (Vec<Option<&'d Term>>, Vec<Option<Binding>>);
        let mut keyed: Vec<KeyedRow<'_>> = rows
            .into_iter()
            .map(|row| {
                let keys = key_cols
                    .iter()
                    .map(|c| c.and_then(|i| row[i]).map(|b| b.decode(dict)))
                    .collect();
                (keys, row)
            })
            .collect();
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                let ord = order_cmp(*a, *b);
                let ord = if descending[i] { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        rows = keyed.into_iter().map(|(_, row)| row).collect();
    }

    // 2. Projection: drop the extra ORDER BY columns (raw rows are over
    //    exec_vars = projection ++ extra keys, but map by name so the
    //    seam also tolerates engines that materialize a superset).
    if vars != projection {
        let cols: Vec<Option<usize>> = projection
            .iter()
            .map(|v| vars.iter().position(|x| x == v))
            .collect();
        rows = rows
            .iter()
            .map(|row| cols.iter().map(|c| c.and_then(|i| row[i])).collect())
            .collect();
    }

    // 3. DISTINCT / REDUCED: dedup on the encoded IDs — no decoding.
    //    Binding normalizes shared-prefix IDs, so within the S/P/O
    //    dimension a column was produced from, encoded equality is term
    //    equality. The one alias: a term living in BOTH the predicate
    //    dictionary and the subject/object dictionary gets unrelated IDs,
    //    and a column can mix the two spaces across UNION branches (one
    //    branch binds ?x in predicate position, another in S/O). Only
    //    such mixed columns fall back to decoded-term comparison.
    let dedup = match form {
        QueryForm::Select { dedup, .. } => *dedup,
        QueryForm::Ask => Dedup::None,
    };
    if dedup != Dedup::None {
        let n_cols = projection.len();
        let col_mixes_pred_and_so = |c: usize| {
            let (mut pred, mut so) = (false, false);
            for row in &rows {
                match row[c].map(|b| b.space) {
                    Some(crate::bindings::BindingSpace::Predicate) => pred = true,
                    Some(_) => so = true,
                    None => {}
                }
                if pred && so {
                    return true;
                }
            }
            false
        };
        if (0..n_cols).any(col_mixes_pred_and_so) {
            let mut seen: HashSet<Vec<Option<&Term>>> = HashSet::with_capacity(rows.len());
            let mut keep: Vec<bool> = Vec::with_capacity(rows.len());
            for row in &rows {
                let key: Vec<Option<&Term>> = row
                    .iter()
                    .map(|b| b.as_ref().map(|x| x.decode(dict)))
                    .collect();
                keep.push(seen.insert(key));
            }
            let mut it = keep.into_iter();
            rows.retain(|_| it.next().unwrap());
        } else {
            let mut seen: HashSet<Vec<Option<Binding>>> = HashSet::with_capacity(rows.len());
            rows.retain(|row| seen.insert(row.clone()));
        }
    }

    // 4. OFFSET, then LIMIT.
    if modifiers.offset > 0 {
        rows.drain(..modifiers.offset.min(rows.len()));
    }
    if let Some(k) = modifiers.limit {
        rows.truncate(k);
    }

    // 5. ASK: collapse to one zero-column row (true) or none (false).
    let (vars, rows) = match form {
        QueryForm::Ask => {
            let answer = !rows.is_empty();
            (
                Vec::new(),
                if answer { vec![Vec::new()] } else { Vec::new() },
            )
        }
        QueryForm::Select { .. } => (projection.to_vec(), rows),
    };

    stats.n_results = rows.len();
    stats.n_results_with_nulls = rows
        .iter()
        .filter(|r| r.iter().any(|c| c.is_none()))
        .count();
    lbr_obs::span_since("finalize", t_fin, &[("rows", rows.len() as u64)]);
    QueryOutput { vars, rows, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::BindingSpace;
    use crate::QueryStats;
    use lbr_rdf::{Graph, Triple};
    use lbr_sparql::algebra::Selection;
    use lbr_sparql::parse_query;

    #[test]
    fn order_cmp_is_the_documented_total_order() {
        let unb: Option<&Term> = None;
        let blank = Term::blank("b");
        let iri = Term::iri("urn:a");
        let lit = Term::literal("x");
        let n3 = Term::integer(3);
        let n10 = Term::integer(10);
        assert_eq!(order_cmp(unb, Some(&blank)), Ordering::Less);
        assert_eq!(order_cmp(Some(&blank), Some(&iri)), Ordering::Less);
        assert_eq!(order_cmp(Some(&iri), Some(&lit)), Ordering::Less);
        // Numeric, not lexicographic: 3 < 10.
        assert_eq!(order_cmp(Some(&n3), Some(&n10)), Ordering::Less);
        // Mixed numeric/non-numeric literals fall back to lexical form.
        assert_eq!(order_cmp(Some(&n10), Some(&lit)), Ordering::Less);
        assert_eq!(order_cmp(Some(&iri), Some(&iri)), Ordering::Equal);
    }

    #[test]
    fn row_quota_covers_the_pushdown_cases() {
        let q = |text: &str| parse_query(text).unwrap();
        let quota = |text: &str| {
            let q = q(text);
            row_quota(&q.form, &q.modifiers)
        };
        assert_eq!(quota("SELECT * WHERE { ?s <p> ?o . }"), None);
        assert_eq!(quota("SELECT * WHERE { ?s <p> ?o . } LIMIT 5"), Some(5));
        assert_eq!(
            quota("SELECT * WHERE { ?s <p> ?o . } LIMIT 5 OFFSET 2"),
            Some(7)
        );
        // ORDER BY and DISTINCT need the full raw sequence.
        assert_eq!(
            quota("SELECT * WHERE { ?s <p> ?o . } ORDER BY ?s LIMIT 5"),
            None
        );
        assert_eq!(
            quota("SELECT DISTINCT ?s WHERE { ?s <p> ?o . } LIMIT 5"),
            None
        );
        // ASK: one surviving row decides; OFFSET shifts, LIMIT 0 kills.
        assert_eq!(quota("ASK { ?s <p> ?o . }"), Some(1));
        assert_eq!(quota("ASK { ?s <p> ?o . } OFFSET 3"), Some(4));
        assert_eq!(quota("ASK { ?s <p> ?o . } LIMIT 0"), Some(0));
    }

    fn dict() -> Dictionary {
        Graph::from_triples(vec![Triple::new(
            Term::iri("a"),
            Term::iri("p"),
            Term::iri("b"),
        )])
        .encode()
        .dict
    }

    fn b(id: u32, space: BindingSpace) -> Option<Binding> {
        Some(Binding { id, space })
    }

    #[test]
    fn finalize_sorts_projects_dedups_and_slices() {
        let d = dict();
        // exec_vars = [x, y]; projection = [x]; ORDER BY DESC(?y).
        let raw = QueryOutput {
            vars: vec!["x".into(), "y".into()],
            rows: vec![
                vec![b(0, BindingSpace::Subject), None],
                vec![b(0, BindingSpace::Subject), b(0, BindingSpace::Object)],
                vec![b(0, BindingSpace::Subject), None],
            ],
            stats: QueryStats::default(),
        };
        let query =
            parse_query("SELECT DISTINCT ?x WHERE { ?x <p> ?y . } ORDER BY DESC(?y)").unwrap();
        let out = finalize(raw.clone(), &query, &d);
        // Sort puts the bound ?y first, projection keeps ?x, DISTINCT
        // collapses the three identical ?x rows into one.
        assert_eq!(out.vars, vec!["x"]);
        assert_eq!(out.rows, vec![vec![b(0, BindingSpace::Subject)]]);
        assert_eq!(out.stats.n_results, 1);

        // OFFSET past the end is empty, not a panic.
        let query = parse_query("SELECT ?x WHERE { ?x <p> ?y . } OFFSET 9").unwrap();
        let out = finalize(raw.clone(), &query, &d);
        assert!(out.rows.is_empty());

        // LIMIT/OFFSET slice the (unsorted) sequence in order.
        let query = parse_query("SELECT ?x ?y WHERE { ?x <p> ?y . } LIMIT 1 OFFSET 1").unwrap();
        let out = finalize(raw, &query, &d);
        assert_eq!(
            out.rows,
            vec![vec![
                b(0, BindingSpace::Subject),
                b(0, BindingSpace::Object)
            ]]
        );
    }

    #[test]
    fn finalize_ask_collapses_to_boolean() {
        let d = dict();
        let raw = |n: usize| QueryOutput {
            vars: Vec::new(),
            rows: vec![Vec::new(); n],
            stats: QueryStats::default(),
        };
        let ask = parse_query("ASK { ?x <p> ?y . }").unwrap();
        let out = finalize(raw(3), &ask, &d);
        assert_eq!(out.boolean(), Some(true));
        assert_eq!(out.rows, vec![Vec::new()]);
        let out = finalize(raw(0), &ask, &d);
        assert_eq!(out.boolean(), Some(false));
        assert!(out.rows.is_empty());
        // Modifiers apply before the emptiness test.
        let ask_off = parse_query("ASK { ?x <p> ?y . } OFFSET 3").unwrap();
        assert_eq!(finalize(raw(3), &ask_off, &d).boolean(), Some(false));
        assert_eq!(finalize(raw(4), &ask_off, &d).boolean(), Some(true));
        let ask_l0 = parse_query("ASK { ?x <p> ?y . } LIMIT 0").unwrap();
        assert_eq!(finalize(raw(5), &ask_l0, &d).boolean(), Some(false));
        // A SELECT output is not a boolean.
        let sel = Query {
            form: QueryForm::Select {
                selection: Selection::Vars(vec!["x".into()]),
                dedup: Dedup::None,
            },
            pattern: ask.pattern.clone(),
            modifiers: Modifiers::default(),
        };
        let raw_sel = QueryOutput {
            vars: vec!["x".into()],
            rows: vec![vec![b(0, BindingSpace::Subject)]],
            stats: QueryStats::default(),
        };
        assert_eq!(finalize(raw_sel, &sel, &d).boolean(), None);
    }

    #[test]
    fn finalize_orders_unbound_first_and_desc_reverses() {
        let d = dict();
        let raw = QueryOutput {
            vars: vec!["y".into()],
            rows: vec![
                vec![b(0, BindingSpace::Object)],
                vec![None],
                vec![b(0, BindingSpace::Shared)],
            ],
            stats: QueryStats::default(),
        };
        let asc = parse_query("SELECT ?y WHERE { ?x <p> ?y . } ORDER BY ?y").unwrap();
        let out = finalize(raw.clone(), &asc, &d);
        assert_eq!(out.rows[0], vec![None], "unbound sorts first ascending");
        let desc = parse_query("SELECT ?y WHERE { ?x <p> ?y . } ORDER BY DESC(?y)").unwrap();
        let out = finalize(raw, &desc, &d);
        assert_eq!(out.rows[2], vec![None], "unbound sorts last descending");
    }

    #[test]
    fn sort_is_stable_across_equal_keys() {
        let d = dict();
        // Two rows with equal keys in ?y but distinct ?x orders: the input
        // order must survive the sort (stability).
        let raw = QueryOutput {
            vars: vec!["x".into(), "y".into()],
            rows: vec![
                vec![b(1, BindingSpace::Predicate), b(0, BindingSpace::Object)],
                vec![b(0, BindingSpace::Predicate), b(0, BindingSpace::Object)],
            ],
            stats: QueryStats::default(),
        };
        let q = parse_query("SELECT ?x ?y WHERE { ?x <p> ?y . } ORDER BY ?y").unwrap();
        let out = finalize(raw, &q, &d);
        assert_eq!(out.rows[0][0], b(1, BindingSpace::Predicate));
        assert_eq!(out.rows[1][0], b(0, BindingSpace::Predicate));
    }
}
