//! Query-plan introspection: a human-readable rendition of every decision
//! Algorithm 5.1 makes before touching data — the GoSN, the
//! classification, the jvar orders, the per-TP selectivity estimates, and
//! the load order. (The paper inspects Virtuoso's plans with its `explain`
//! tool; this is the LBR equivalent.)
//!
//! Both renderers read the [`LbrPlan`] the engine built — the plan that
//! runs is the plan that is shown, TP and variable ids included.

use crate::engine::{BranchPlan, LbrPlan};
use crate::init::load_order;
use lbr_sparql::algebra::Query;
use std::fmt::Write as _;

/// Renders the plan of a query as text (one section per UNF branch).
pub fn explain(query: &Query, plan: &LbrPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "query: {query}\nUNION normal form: {} branch(es){}",
        plan.branches.len(),
        if plan.any_rule3 {
            " [rule 3 used → cross-branch best-match]"
        } else {
            ""
        }
    );
    // Query form + solution modifiers and whether they push into the join
    // — mirroring execution exactly: rule 3 disables the quota globally,
    // and a branch only exploits it when best-match is ruled out
    // (`!nb_required` — best-match may drop rows, so a truncated run
    // could under-deliver).
    let form = if query.is_ask() {
        "ASK".to_string()
    } else {
        format!("SELECT ({:?} dedup)", query.dedup())
    };
    let branch_pushes: Vec<bool> = plan
        .branches
        .iter()
        .map(|b| !b.analyzed.class.nb_required)
        .collect();
    let pushdown = match plan.row_quota() {
        Some(_) if !branch_pushes.iter().any(|&p| p) => {
            "none (no branch is eligible: best-match may drop rows)".to_string()
        }
        Some(q) if !branch_pushes.iter().all(|&p| p) => {
            format!("{q} rows, on eligible branches only (NB-required branches run unbounded)")
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
    for (i, branch) in plan.branches.iter().enumerate() {
        let _ = writeln!(out, "\n── branch {i} ──");
        explain_branch(&mut out, branch);
    }
    out
}

/// The planned detail of one union-free branch.
fn explain_branch(out: &mut String, branch: &BranchPlan) {
    let BranchPlan {
        analyzed,
        vt,
        estimates,
        jorder,
    } = branch;
    let gosn = &analyzed.gosn;
    let _ = writeln!(out, "GoSN: {}", gosn.serialized());
    for sn in 0..gosn.n_supernodes() {
        let kind = if gosn.is_absolute_master(sn) {
            "absolute master".to_string()
        } else {
            format!("slave of {:?}", gosn.masters_of(sn))
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
        "class: {}, GoJ {}, connected = {}; max slave-SN jvars = {}; NB-reqd = {}",
        if c.well_designed {
            "well-designed"
        } else {
            "non-well-designed (App. B transformed)"
        },
        if c.cyclic { "cyclic" } else { "acyclic" },
        c.connected,
        c.max_slave_sn_jvars,
        c.nb_required,
    );

    let _ = writeln!(out, "TP selectivity estimates:");
    for (tp_id, est) in estimates.iter().enumerate() {
        let _ = writeln!(out, "  tp{tp_id} {}  ≈{est}", gosn.tp(tp_id));
    }
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
    let order = load_order(gosn, vt, estimates);
    let order_s: Vec<String> = order.iter().map(|t| format!("tp{t}")).collect();
    let _ = writeln!(out, "init load order: {}", order_s.join(" → "));

    // Planned kernel work of the prune phase, statically derivable
    // from the GoSN/GoJ via the sweep shared with `prune_triples`. These
    // are upper bounds: an operation whose inputs have not changed since
    // it last ran is skipped (EXPLAIN ANALYZE prints how many ran, and
    // the runtime `prune_intersections` counter the ANDs executed).
    let ops = crate::prune::planned_prune_ops(gosn, &analyzed.goj, vt, jorder);
    let _ = writeln!(
        out,
        "prune plan: {} semi-join(s) + {} clustered-semi-join(s) \
         over both jvar passes (planned upper bounds: an operation whose \
         inputs are unchanged since it last ran is skipped)",
        ops.semi_joins, ops.clustered_groups,
    );
}

/// Renders the planned tree annotated with what execution actually did:
/// per-stage wall time, per-TP and per-jvar estimated-vs-actual
/// cardinalities (the selectivity-error feed for adaptive ordering), and
/// join seeds/rows — assembled from the spans [`crate::traced`] collected
/// around [`crate::engine::LbrEngine::execute_plan`] of this very `plan`.
pub fn render_analyze(
    query: &Query,
    plan: &LbrPlan,
    spans: &[lbr_obs::Span],
    total: std::time::Duration,
    output: &crate::bindings::QueryOutput,
) -> String {
    let mut out = explain(query, plan);
    let _ = writeln!(out, "\n══ ANALYZE (executed) ══");
    let _ = writeln!(
        out,
        "total {}µs; rows {} ({} with NULLs)",
        total.as_micros(),
        output.rows.len(),
        output.rows_with_nulls(),
    );
    let finalize_us = lbr_obs::stage_us(spans, "finalize");
    let _ = writeln!(out, "finalize (modifier seam): {finalize_us}µs");

    // Branch sections are delimited by the zero-duration `branch` markers
    // the executor stamps; spans between marker i and i+1 belong to the
    // branch the marker names.
    let marks: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "branch")
        .collect();
    for (m, &start) in marks.iter().enumerate() {
        let end = marks.get(m + 1).copied().unwrap_or(spans.len());
        let section = &spans[start + 1..end];
        let b = spans[start].attr("branch").unwrap_or(0) as usize;
        let _ = writeln!(out, "── branch {b} actuals ──");
        if let Some(branch) = plan.branches.get(b) {
            render_branch(&mut out, branch, section);
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
    out
}

/// One branch's actuals: its span group read against the `BranchPlan` it
/// ran with, whose variable table and estimates the spans' `tp` / `var`
/// ids index.
fn render_branch(out: &mut String, branch: &BranchPlan, group: &[lbr_obs::Span]) {
    for s in group.iter().filter(|s| s.name == "init") {
        let _ = writeln!(
            out,
            "  init: {}µs, {}/{} TP(s) loaded, {} triple(s) kept",
            s.dur_us,
            s.attr("tps_loaded").unwrap_or(0),
            branch.analyzed.gosn.n_tps(),
            s.attr("triples_loaded").unwrap_or(0),
        );
    }
    for s in group.iter().filter(|s| s.name == "prune") {
        let _ = writeln!(
            out,
            "  prune: {}µs, {} → {} triples ({} intersections)",
            s.dur_us,
            s.attr("initial_triples").unwrap_or(0),
            s.attr("triples_after_pruning").unwrap_or(0),
            s.attr("intersections").unwrap_or(0),
        );
    }
    for s in group.iter().filter(|s| s.name == "prune_pass") {
        let pass = s.attr("pass").unwrap_or(0);
        let _ = writeln!(
            out,
            "    pass {} ({}): {}µs over {} jvar(s), {} operation(s) ran, {} skipped",
            pass + 1,
            if pass == 0 { "bottom-up" } else { "top-down" },
            s.dur_us,
            s.attr("jvars").unwrap_or(0),
            s.attr("ran").unwrap_or(0),
            s.attr("skipped").unwrap_or(0),
        );
    }
    let tps = branch.analyzed.gosn.tps();
    let tp_spans: Vec<_> = group.iter().filter(|s| s.name == "tp").collect();
    if !tp_spans.is_empty() {
        let _ = writeln!(out, "  TP cardinality, estimated vs actual:");
        for s in &tp_spans {
            let (est, actual) = (s.attr("est").unwrap_or(0), s.attr("actual").unwrap_or(0));
            let tp_id = s.attr("tp").unwrap_or(0) as usize;
            let _ = writeln!(
                out,
                "    tp{tp_id} {}  est≈{est}  actual={actual}  {}",
                tps.get(tp_id).map(ToString::to_string).unwrap_or_default(),
                selectivity_error(est, actual),
            );
        }
    }
    let jvar_spans: Vec<_> = group.iter().filter(|s| s.name == "jvar").collect();
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
            let name = branch.vt.name(var as usize);
            // Planner-side bound: the smallest estimate among the
            // TPs that bind this variable.
            let est = tps
                .iter()
                .zip(&branch.estimates)
                .filter(|(tp, _)| tp.has_var(name))
                .map(|(_, &est)| est)
                .min()
                .unwrap_or(0);
            let of_var = || jvar_spans.iter().filter(|s| s.attr("var") == Some(var));
            let per_pass: Vec<String> = of_var()
                .map(|s| {
                    format!(
                        "pass{}={}",
                        s.attr("pass").unwrap_or(0) + 1,
                        s.attr("cand").unwrap_or(0)
                    )
                })
                .collect();
            let actual = of_var()
                .next_back()
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
    for s in group.iter().filter(|s| s.name == "join") {
        let _ = writeln!(
            out,
            "  join: {}µs, seeds={} rows={}  steps={} run_steps={} dropped={}",
            s.dur_us,
            s.attr("seeds").unwrap_or(0),
            s.attr("rows").unwrap_or(0),
            s.attr("steps").unwrap_or(0),
            s.attr("run_steps").unwrap_or(0),
            s.attr("dropped").unwrap_or(0),
        );
    }
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
    use crate::engine::LbrEngine;
    use lbr_bitmat::BitMatStore;
    use lbr_rdf::{Dictionary, Graph, Term, Triple};
    use lbr_sparql::parse_query;

    /// Plans `q` on an LBR engine and renders that plan.
    fn explain(q: &Query, dict: &Dictionary, store: &BitMatStore) -> String {
        super::explain(q, &LbrEngine::new(store, dict).plan(q).unwrap())
    }

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
        let text = explain(&q, &g.dict, &store);
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
        let text = explain(&q, &g.dict, &store);
        assert!(text.contains("row-quota pushdown: 5 rows"), "{text}");
        let q = parse_query("ASK { ?a <p> ?b . }").unwrap();
        let text = explain(&q, &g.dict, &store);
        assert!(text.contains("form: ASK"), "{text}");
        assert!(text.contains("row-quota pushdown: 1 rows"), "{text}");
        let q = parse_query("SELECT DISTINCT ?a WHERE { ?a <p> ?b . } LIMIT 3").unwrap();
        let text = explain(&q, &g.dict, &store);
        assert!(text.contains("row-quota pushdown: none"), "{text}");
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . } ORDER BY DESC(?b) LIMIT 3").unwrap();
        let text = explain(&q, &g.dict, &store);
        assert!(text.contains("order_by=[\"-b\"]"), "{text}");
        assert!(text.contains("row-quota pushdown: none"), "{text}");
        // NB-required branches disable the quota — explain must say so
        // instead of advertising an early exit execution will not take.
        let q = parse_query(
            "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c . ?c <r> ?a . } } LIMIT 1",
        )
        .unwrap();
        let text = explain(&q, &g.dict, &store);
        assert!(text.contains("NB-reqd = true"), "{text}");
        assert!(
            text.contains("row-quota pushdown: none (no branch is eligible"),
            "{text}"
        );
        // A variable-disconnected (Cartesian) pattern runs through the
        // same multi-way join, so the quota reaches it.
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . } LIMIT 1").unwrap();
        let text = explain(&q, &g.dict, &store);
        assert!(text.contains("connected = false"), "{text}");
        assert!(
            text.contains("row-quota pushdown: 1 rows (the multi-way join"),
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
        let engine = LbrEngine::new(&store, &g.dict);
        let text = engine.explain_analyze(&q).unwrap();
        // Planned tree still present…
        assert!(text.contains("GoSN: (SN0 ⟕ SN1)"), "{text}");
        // …annotated with executed actuals.
        assert!(text.contains("══ ANALYZE (executed) ══"), "{text}");
        assert!(text.contains("rows 2"), "{text}");
        assert!(text.contains("── branch 0 actuals ──"), "{text}");
        assert!(
            text.contains("init: ") && text.contains("µs, 3/3 TP(s) loaded, 4 triple(s) kept"),
            "{text}"
        );
        assert!(text.contains("prune: "), "{text}");
        assert!(text.contains("pass 1 (bottom-up)"), "{text}");
        assert!(text.contains("pass 2 (top-down)"), "{text}");
        // Nothing changes after the bottom-up pass here, so the top-down
        // pass skips every operation.
        assert!(text.contains("0 operation(s) ran, 3 skipped"), "{text}");
        assert!(
            text.contains("TP cardinality, estimated vs actual:"),
            "{text}"
        );
        assert!(
            text.contains("tp0 <Jerry> <hasFriend> ?friend  est≈"),
            "{text}"
        );
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

        // An early abort shows how far the load got: Seinfeld is no
        // friend of Jerry's, so the second master TP empties on load and
        // the slave is never read.
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend . ?friend :location :NYC .
               OPTIONAL { ?friend :actedIn ?sitcom . } }",
        )
        .unwrap();
        let text = engine.explain_analyze(&q).unwrap();
        assert!(
            text.contains("µs, 2/3 TP(s) loaded, 1 triple(s) kept"),
            "{text}"
        );
        assert!(!text.contains("prune: "), "{text}");
    }

    /// A Cartesian branch runs as one Algorithm 5.1 over all its
    /// components, so it renders as one section, and each component's
    /// jvar keeps its own name and its own TPs' estimates.
    #[test]
    fn explain_analyze_renders_a_cartesian_branch_as_one_section() {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = Graph::from_triples(vec![
            t("a1", "p", "b1"),
            t("b1", "q", "c1"),
            t("x1", "r", "y1"),
            t("x2", "r", "y1"),
            t("x3", "r", "y2"),
            t("y1", "s", "z1"),
        ])
        .encode();
        let store = BitMatStore::build(&g);
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?x <r> ?y . ?y <s> ?z . }")
            .unwrap();
        let text = LbrEngine::new(&store, &g.dict).explain_analyze(&q).unwrap();
        assert!(text.contains("rows 2 "), "{text}");
        assert!(text.contains("connected = false"), "{text}");
        assert!(!text.contains("component"), "{text}");
        let actuals = text.split("══ ANALYZE (executed) ══").nth(1).unwrap();
        // ?b joins the first component, ?y the second: each under its own
        // name, with its own TPs' estimates (1 ⋈ 1 vs 3 ⋈ 1).
        assert!(actuals.contains("?b  est≈1  actual=1"), "{text}");
        assert!(actuals.contains("?y  est≈1  actual=1"), "{text}");
        assert!(actuals.contains("tp0 ?a <p> ?b  est≈1  actual=1"), "{text}");
        assert!(actuals.contains("tp2 ?x <r> ?y  est≈3  actual=2"), "{text}");
        assert!(actuals.contains("tp3 ?y <s> ?z  est≈1  actual=1"), "{text}");
        // One init / prune / join group for the whole branch.
        assert_eq!(actuals.matches("  init: ").count(), 1, "{text}");
        assert_eq!(actuals.matches("  join: ").count(), 1, "{text}");
    }

    /// The join line reports the compiled program: on a star whose
    /// every arm holds one value per subject, all steps after the root
    /// form one run of lookups; an OPTIONAL pruned empty leaves the
    /// program.
    #[test]
    fn explain_analyze_reports_the_join_program() {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let mut triples = Vec::new();
        for i in 0..4 {
            let place = format!("place{i}");
            triples.push(t(&place, "type", "Place"));
            triples.push(t(&place, "label", &format!("label{i}")));
            triples.push(t(&place, "lat", &format!("lat{i}")));
            if i % 2 == 0 {
                triples.push(t(&place, "homepage", &format!("home{i}")));
            }
            triples.push(t(&format!("gene{i}"), "encodedBy", &format!("seq{i}")));
            triples.push(t(&format!("other{i}"), "context", &format!("m{i}")));
            triples.push(t(&format!("m{i}"), "label", &format!("b{i}")));
        }
        let g = Graph::from_triples(triples).encode();
        let store = BitMatStore::build(&g);
        let engine = LbrEngine::new(&store, &g.dict);
        let join_line = |query: &str| {
            let text = engine
                .explain_analyze(&parse_query(query).unwrap())
                .unwrap();
            let line = text.lines().find(|l| l.starts_with("  join: "));
            line.unwrap_or_else(|| panic!("no join line in {text}"))
                .to_string()
        };

        let star = join_line(
            "SELECT * WHERE { ?v6 <type> <Place> . ?v6 <label> ?v1 . ?v6 <lat> ?v2 .
               OPTIONAL { ?v6 <homepage> ?v3 . } }",
        );
        assert!(star.contains("rows=4"), "{star}");
        assert!(star.ends_with("steps=4 run_steps=3 dropped=0"), "{star}");

        let empty_optional = join_line(
            "SELECT * WHERE { ?s <encodedBy> ?seq .
               OPTIONAL { ?seq <context> ?m . ?m <label> ?b . } }",
        );
        assert!(empty_optional.contains("rows=4"), "{empty_optional}");
        assert!(
            empty_optional.ends_with("steps=1 run_steps=0 dropped=2"),
            "{empty_optional}"
        );
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
        let text = explain(&q, &g.dict, &store);
        assert!(text.contains("2 branch(es)"));
        assert!(text.contains("greedy, cyclic"));
    }
}
