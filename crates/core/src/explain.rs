//! Query-plan introspection: a human-readable rendition of every decision
//! Algorithm 5.1 makes before touching data — the GoSN, the
//! classification, the jvar orders, the per-TP selectivity estimates, and
//! the load order. (The paper inspects Virtuoso's plans with its `explain`
//! tool; this is the LBR equivalent.)

use crate::bindings::VarTable;
use crate::error::LbrError;
use crate::init::load_order;
use crate::jvar_order::get_jvar_order;
use crate::selectivity::estimate_all;
use lbr_bitmat::Catalog;
use lbr_rdf::Dictionary;
use lbr_sparql::algebra::Query;
use lbr_sparql::classify::analyze;
use lbr_sparql::rewrite::rewrite_to_unf;
use std::fmt::Write as _;

/// Renders the plan of a query as text (one section per UNF branch).
pub fn explain(
    query: &Query,
    dict: &Dictionary,
    catalog: &impl Catalog,
) -> Result<String, LbrError> {
    let mut out = String::new();
    let branches = rewrite_to_unf(&query.pattern);
    let any_rule3 = branches.iter().any(|b| b.used_rule3);
    let _ = writeln!(
        out,
        "query: {query}\nUNION normal form: {} branch(es){}",
        branches.len(),
        if any_rule3 {
            " [rule 3 used → cross-branch best-match]"
        } else {
            ""
        }
    );
    // One analysis per branch, reused by the pushdown summary below and
    // the per-branch detail sections.
    let analyzed_branches = branches
        .iter()
        .map(|b| analyze(&b.pattern))
        .collect::<Result<Vec<_>, _>>()?;
    // Query form + solution modifiers and whether they push into the join
    // — mirroring execution exactly: rule 3 disables the quota globally,
    // and a branch only exploits it when its pattern is
    // variable-connected (the quota reaches `PlanNode::Connected`, never
    // the Cartesian combiner nodes) and best-match is ruled out
    // (`!nb_required` — best-match may drop rows, so a truncated run
    // could under-deliver).
    let form = if query.is_ask() {
        "ASK".to_string()
    } else {
        format!("SELECT ({:?} dedup)", query.dedup())
    };
    let quota = if any_rule3 {
        None
    } else {
        crate::modifiers::row_quota(&query.form, &query.modifiers)
    };
    let branch_pushes: Vec<bool> = analyzed_branches
        .iter()
        .map(|a| a.class.connected && !a.class.nb_required)
        .collect();
    let pushdown = match quota {
        Some(_) if !branch_pushes.iter().any(|&p| p) => {
            "none (no branch is eligible: best-match may drop rows, or the quota cannot \
             reach a Cartesian-product plan)"
                .to_string()
        }
        Some(q) if !branch_pushes.iter().all(|&p| p) => {
            format!("{q} rows, on eligible branches only (NB-required / Cartesian branches run unbounded)")
        }
        Some(q) => format!("{q} rows (the multi-way join stops enumerating seeds there)"),
        None => "none (full enumeration; ORDER BY / DISTINCT / rule-3 need every row)".to_string(),
    };
    let _ = writeln!(
        out,
        "form: {form}; modifiers: order_by={:?} limit={:?} offset={}\n\
         row-quota pushdown: {pushdown}",
        query
            .modifiers
            .order_by
            .iter()
            .map(|k| format!("{}{}", if k.descending { "-" } else { "+" }, k.var))
            .collect::<Vec<_>>(),
        query.modifiers.limit,
        query.modifiers.offset,
    );
    for (i, analyzed) in analyzed_branches.iter().enumerate() {
        let _ = writeln!(out, "\n── branch {i} ──");
        let gosn = &analyzed.gosn;
        let _ = writeln!(out, "GoSN: {}", gosn.serialized());
        for sn in 0..gosn.n_supernodes() {
            let kind = if gosn.is_absolute_master(sn) {
                "absolute master".to_string()
            } else {
                format!(
                    "slave of {:?}",
                    gosn.masters_of(sn).iter().collect::<Vec<_>>()
                )
            };
            let tps: Vec<String> = gosn
                .tps_of_sn(sn)
                .iter()
                .map(|&t| gosn.tp(t).to_string())
                .collect();
            let _ = writeln!(out, "  SN{sn} ({kind}): {}", tps.join(" . "));
        }
        let c = &analyzed.class;
        let _ = writeln!(
            out,
            "class: {}, GoJ {}, {}; max slave-SN jvars = {}; NB-reqd = {}",
            if c.well_designed {
                "well-designed"
            } else {
                "non-well-designed (App. B transformed)"
            },
            if c.cyclic { "cyclic" } else { "acyclic" },
            if c.connected {
                "connected"
            } else {
                "Cartesian product present"
            },
            c.max_slave_sn_jvars,
            c.nb_required,
        );

        let vt = VarTable::from_tps(gosn.tps())?;
        let estimates = estimate_all(gosn.tps(), dict, catalog);
        let _ = writeln!(out, "TP selectivity estimates:");
        for (tp_id, est) in estimates.iter().enumerate() {
            let _ = writeln!(out, "  tp{tp_id} {}  ≈{est}", gosn.tp(tp_id));
        }
        let jorder = get_jvar_order(gosn, &analyzed.goj, &vt, &estimates);
        let names = |vars: &[usize]| -> String {
            vars.iter()
                .map(|&v| format!("?{}", vt.name(v)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        if jorder.greedy {
            let _ = writeln!(
                out,
                "jvar order (greedy, cyclic): {}",
                names(&jorder.bottom_up)
            );
        } else {
            let _ = writeln!(out, "jvar order bottom-up: {}", names(&jorder.bottom_up));
            let _ = writeln!(out, "jvar order top-down:  {}", names(&jorder.top_down));
        }
        let order = load_order(gosn, &estimates);
        let order_s: Vec<String> = order.iter().map(|t| format!("tp{t}")).collect();
        let _ = writeln!(out, "init load order: {}", order_s.join(" → "));

        // Planned kernel work of the prune phase, statically derivable
        // from the GoSN/GoJ via the sweep shared with `prune_triples`
        // (the runtime `prune_intersections` / `scratch_reuses` counters
        // in `--stats` and `/stats` report what actually ran —
        // data-empty folds can skip planned operations).
        let ops = crate::prune::planned_prune_ops(gosn, &analyzed.goj, &vt, &jorder);
        let _ = writeln!(
            out,
            "prune plan: {} semi-join(s) + {} clustered-semi-join(s) \
             over both jvar passes (run-aware compressed-set kernels)",
            ops.semi_joins, ops.clustered_groups,
        );
    }
    Ok(out)
}

/// Renders the planned tree annotated with what execution actually did:
/// per-stage wall time, per-TP and per-jvar estimated-vs-actual
/// cardinalities (the selectivity-error feed for adaptive ordering), and
/// join seeds/rows — assembled from the spans a forced trace collected
/// around [`crate::engine::LbrEngine::execute_plan`].
pub fn render_analyze(
    query: &Query,
    dict: &Dictionary,
    catalog: &impl Catalog,
    spans: &[lbr_obs::Span],
    total: std::time::Duration,
    output: &crate::bindings::QueryOutput,
) -> Result<String, LbrError> {
    let mut out = explain(query, dict, catalog)?;
    let _ = writeln!(out, "\n══ ANALYZE (executed) ══");
    let _ = writeln!(
        out,
        "total {}µs; rows {} ({} with NULLs)",
        total.as_micros(),
        output.rows.len(),
        output.rows_with_nulls(),
    );
    let finalize_us: u64 = spans
        .iter()
        .filter(|s| s.name == "finalize")
        .map(|s| s.dur_us)
        .sum();
    let _ = writeln!(out, "finalize (modifier seam): {finalize_us}µs");

    // Branch sections are delimited by the zero-duration `branch` markers
    // the executor stamps; spans between marker i and i+1 belong to
    // branch i.
    let marks: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "branch")
        .map(|(i, _)| i)
        .collect();
    let branches = rewrite_to_unf(&query.pattern);
    for (b, &start) in marks.iter().enumerate() {
        let end = marks.get(b + 1).copied().unwrap_or(spans.len());
        let section = &spans[start + 1..end];
        let _ = writeln!(out, "── branch {b} actuals ──");
        for s in section.iter().filter(|s| s.name == "init") {
            let _ = writeln!(out, "  init: {}µs", s.dur_us);
        }
        for s in section.iter().filter(|s| s.name == "prune") {
            let _ = writeln!(
                out,
                "  prune: {}µs, {} → {} triples ({} intersections)",
                s.dur_us,
                s.attr("initial_triples").unwrap_or(0),
                s.attr("triples_after_pruning").unwrap_or(0),
                s.attr("intersections").unwrap_or(0),
            );
        }
        for s in section.iter().filter(|s| s.name == "prune_pass") {
            let pass = s.attr("pass").unwrap_or(0);
            let _ = writeln!(
                out,
                "    pass {} ({}): {}µs over {} jvar(s)",
                pass + 1,
                if pass == 0 { "bottom-up" } else { "top-down" },
                s.dur_us,
                s.attr("jvars").unwrap_or(0),
            );
        }
        // The plan-side estimates this branch ran with, for the
        // estimate-vs-actual comparison.
        let branch_info = branches.get(b).and_then(|br| {
            let analyzed = analyze(&br.pattern).ok()?;
            let vt = VarTable::from_tps(analyzed.gosn.tps()).ok()?;
            let estimates = estimate_all(analyzed.gosn.tps(), dict, catalog);
            Some((analyzed, vt, estimates))
        });
        let tp_spans: Vec<_> = section.iter().filter(|s| s.name == "tp").collect();
        if !tp_spans.is_empty() {
            let _ = writeln!(out, "  TP cardinality, estimated vs actual:");
            for s in &tp_spans {
                let (est, actual) = (s.attr("est").unwrap_or(0), s.attr("actual").unwrap_or(0));
                let _ = writeln!(
                    out,
                    "    tp{}  est≈{est}  actual={actual}  {}",
                    s.attr("tp").unwrap_or(0),
                    selectivity_error(est, actual),
                );
            }
        }
        let jvar_spans: Vec<_> = section.iter().filter(|s| s.name == "jvar").collect();
        if let Some((analyzed, vt, estimates)) = &branch_info {
            if !jvar_spans.is_empty() {
                let _ = writeln!(out, "  jvar cardinality, estimated vs actual candidates:");
                // One line per jvar, in first-recorded order; the actual
                // is the final pass's surviving candidate count.
                let mut seen: Vec<u64> = Vec::new();
                for s in &jvar_spans {
                    let var = s.attr("var").unwrap_or(0);
                    if seen.contains(&var) {
                        continue;
                    }
                    seen.push(var);
                    let name = vt.name(var as usize);
                    // Planner-side bound: the smallest estimate among the
                    // TPs that bind this variable.
                    let est = analyzed
                        .gosn
                        .tps()
                        .iter()
                        .enumerate()
                        .filter(|(_, tp)| tp.has_var(name))
                        .map(|(i, _)| estimates.get(i).copied().unwrap_or(0))
                        .min()
                        .unwrap_or(0);
                    let per_pass: Vec<String> = jvar_spans
                        .iter()
                        .filter(|s| s.attr("var") == Some(var))
                        .map(|s| {
                            format!(
                                "pass{}={}",
                                s.attr("pass").unwrap_or(0) + 1,
                                s.attr("cand").unwrap_or(0)
                            )
                        })
                        .collect();
                    let actual = jvar_spans
                        .iter()
                        .rev()
                        .find(|s| s.attr("var") == Some(var))
                        .and_then(|s| s.attr("cand"))
                        .unwrap_or(0);
                    let _ = writeln!(
                        out,
                        "    ?{name}  est≈{est}  actual={actual} ({})  {}",
                        per_pass.join(", "),
                        selectivity_error(est, actual),
                    );
                }
            }
        }
        for s in section.iter().filter(|s| s.name == "join") {
            let _ = writeln!(
                out,
                "  join: {}µs, seeds={} rows={}",
                s.dur_us,
                s.attr("seeds").unwrap_or(0),
                s.attr("rows").unwrap_or(0),
            );
        }
        for s in section.iter().filter(|s| s.name == "best_match") {
            let _ = writeln!(
                out,
                "  best_match: {}µs → {} row(s)",
                s.dur_us,
                s.attr("rows").unwrap_or(0),
            );
        }
    }
    if marks.is_empty() {
        let _ = writeln!(out, "(no branch executed — empty-result early abort)");
    }
    Ok(out)
}

/// Formats the estimate-vs-actual selectivity error as a direction and a
/// ratio: `over ×3.0` means the planner expected 3× more than survived.
fn selectivity_error(est: u64, actual: u64) -> String {
    if est == actual {
        return "err=exact".to_string();
    }
    let (hi, lo, dir) = if est > actual {
        (est, actual, "over")
    } else {
        (actual, est, "under")
    };
    format!("err={dir} ×{:.1}", hi as f64 / lo.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_bitmat::BitMatStore;
    use lbr_rdf::{Graph, Term, Triple};
    use lbr_sparql::parse_query;

    #[test]
    fn explains_the_running_example() {
        let g = Graph::from_triples(vec![
            Triple::new(
                Term::iri("Jerry"),
                Term::iri("hasFriend"),
                Term::iri("Julia"),
            ),
            Triple::new(
                Term::iri("Julia"),
                Term::iri("actedIn"),
                Term::iri("Seinfeld"),
            ),
            Triple::new(
                Term::iri("Seinfeld"),
                Term::iri("location"),
                Term::iri("NYC"),
            ),
        ])
        .encode();
        let store = BitMatStore::build(&g);
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NYC . } }",
        )
        .unwrap();
        let text = explain(&q, &g.dict, &store).unwrap();
        assert!(text.contains("GoSN: (SN0 ⟕ SN1)"), "{text}");
        assert!(text.contains("absolute master"));
        assert!(text.contains("slave of [0]"));
        assert!(text.contains("acyclic"));
        assert!(text.contains("NB-reqd = false"));
        assert!(text.contains("?friend"));
        assert!(text.contains("init load order"));
        assert!(text.contains("row-quota pushdown: none"), "{text}");
        // Per pass: ?friend crosses the master/slave edge (semi-joins) and
        // ?sitcom joins tp1 ⋈ tp2 inside the slave supernode's peer group
        // (one clustered-semi-join).
        assert!(
            text.contains("prune plan: 4 semi-join(s) + 2 clustered-semi-join(s)"),
            "{text}"
        );
    }

    #[test]
    fn explains_forms_and_modifier_pushdown() {
        let g = Graph::from_triples(vec![Triple::new(
            Term::iri("a"),
            Term::iri("p"),
            Term::iri("b"),
        )])
        .encode();
        let store = BitMatStore::build(&g);
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . } LIMIT 3 OFFSET 2").unwrap();
        let text = explain(&q, &g.dict, &store).unwrap();
        assert!(text.contains("row-quota pushdown: 5 rows"), "{text}");
        let q = parse_query("ASK { ?a <p> ?b . }").unwrap();
        let text = explain(&q, &g.dict, &store).unwrap();
        assert!(text.contains("form: ASK"), "{text}");
        assert!(text.contains("row-quota pushdown: 1 rows"), "{text}");
        let q = parse_query("SELECT DISTINCT ?a WHERE { ?a <p> ?b . } LIMIT 3").unwrap();
        let text = explain(&q, &g.dict, &store).unwrap();
        assert!(text.contains("row-quota pushdown: none"), "{text}");
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . } ORDER BY DESC(?b) LIMIT 3").unwrap();
        let text = explain(&q, &g.dict, &store).unwrap();
        assert!(text.contains("order_by=[\"-b\"]"), "{text}");
        assert!(text.contains("row-quota pushdown: none"), "{text}");
        // NB-required branches disable the quota — explain must say so
        // instead of advertising an early exit execution will not take.
        let q = parse_query(
            "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c . ?c <r> ?a . } } LIMIT 1",
        )
        .unwrap();
        let text = explain(&q, &g.dict, &store).unwrap();
        assert!(text.contains("NB-reqd = true"), "{text}");
        assert!(
            text.contains("row-quota pushdown: none (no branch is eligible"),
            "{text}"
        );
        // A variable-disconnected (Cartesian) pattern plans as a Product
        // node, which never receives the quota — explain must not
        // advertise an early exit there either.
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . } LIMIT 1").unwrap();
        let text = explain(&q, &g.dict, &store).unwrap();
        assert!(
            text.contains("row-quota pushdown: none (no branch is eligible"),
            "{text}"
        );
    }

    #[test]
    fn explain_analyze_reports_actuals_per_tp_and_jvar() {
        let g = Graph::from_triples(vec![
            Triple::new(
                Term::iri("Jerry"),
                Term::iri("hasFriend"),
                Term::iri("Julia"),
            ),
            Triple::new(
                Term::iri("Jerry"),
                Term::iri("hasFriend"),
                Term::iri("George"),
            ),
            Triple::new(
                Term::iri("Julia"),
                Term::iri("actedIn"),
                Term::iri("Seinfeld"),
            ),
            Triple::new(
                Term::iri("Seinfeld"),
                Term::iri("location"),
                Term::iri("NYC"),
            ),
        ])
        .encode();
        let store = BitMatStore::build(&g);
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NYC . } }",
        )
        .unwrap();
        let engine = crate::engine::LbrEngine::new(&store, &g.dict);
        let text = engine.explain_analyze(&q).unwrap();
        // Planned tree still present…
        assert!(text.contains("GoSN: (SN0 ⟕ SN1)"), "{text}");
        // …annotated with executed actuals.
        assert!(text.contains("══ ANALYZE (executed) ══"), "{text}");
        assert!(text.contains("rows 2"), "{text}");
        assert!(text.contains("── branch 0 actuals ──"), "{text}");
        assert!(text.contains("init: "), "{text}");
        assert!(text.contains("prune: "), "{text}");
        assert!(text.contains("pass 1 (bottom-up)"), "{text}");
        assert!(text.contains("pass 2 (top-down)"), "{text}");
        assert!(
            text.contains("TP cardinality, estimated vs actual:"),
            "{text}"
        );
        assert!(text.contains("tp0  est≈"), "{text}");
        assert!(
            text.contains("jvar cardinality, estimated vs actual candidates:"),
            "{text}"
        );
        assert!(text.contains("?friend  est≈"), "{text}");
        assert!(text.contains("?sitcom  est≈"), "{text}");
        assert!(text.contains("join: "), "{text}");
        assert!(text.contains("seeds="), "{text}");
        // The forced trace is drained: nothing left active on the thread.
        assert!(!lbr_obs::trace_active());
    }

    #[test]
    fn selectivity_error_formats_direction_and_ratio() {
        assert_eq!(selectivity_error(6, 2), "err=over ×3.0");
        assert_eq!(selectivity_error(2, 6), "err=under ×3.0");
        assert_eq!(selectivity_error(4, 4), "err=exact");
        assert_eq!(selectivity_error(3, 0), "err=over ×3.0");
    }

    #[test]
    fn explains_union_and_cyclic() {
        let g = Graph::from_triples(vec![Triple::new(
            Term::iri("a"),
            Term::iri("p"),
            Term::iri("b"),
        )])
        .encode();
        let store = BitMatStore::build(&g);
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE {
               { ?a :p ?b . ?b :p ?c . ?a :q ?c . } UNION { ?a :p ?b . } }",
        )
        .unwrap();
        let text = explain(&q, &g.dict, &store).unwrap();
        assert!(text.contains("2 branch(es)"));
        assert!(text.contains("greedy, cyclic"));
    }
}
