//! End-to-end tests of the variable-predicate patterns: the `(?s ?p ?o)`
//! extension (the paper lists this shape as "currently under
//! development"), and `(f ?p ?o)`, `(?s ?p f)` and `(f1 ?p f2)`, whose P-O
//! and P-S BitMats are assembled from S-O and O-S rows through the
//! predicate lists. The LBR engine must agree with the SPARQL-algebra
//! oracle when they appear alone, in joins, and inside OPTIONALs, over the
//! heap store, a saved segment, and a delta overlay that gives a subject
//! and an object a predicate they lacked.

use lbr::baseline::{evaluate_reference, Semantics};
use lbr::core::LbrError;
use lbr::{parse_query, Database, EngineKind, Term, Triple};

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

fn base() -> Vec<Triple> {
    vec![
        t("a", "p1", "b"),
        t("a", "p2", "c"),
        t("b", "p1", "c"),
        t("c", "p3", "a"),
        t("d", "p2", "a"),
        t("b", "p3", "d"),
    ]
}

fn db() -> Database {
    Database::from_triples(base())
}

#[track_caller]
fn agree(db: &Database, query: &str) -> usize {
    let q = parse_query(query).unwrap();
    let out = db.execute_query(&q).unwrap();
    let truth = evaluate_reference(&q, db.dict(), db.store(), Semantics::Sparql).unwrap();
    let proj = q.projected_vars();
    let to_rows = |rows: &Vec<Vec<Option<lbr::core::Binding>>>, vars: &Vec<String>| {
        let cols: Vec<usize> = proj
            .iter()
            .map(|v| vars.iter().position(|x| x == v).unwrap())
            .collect();
        let mut out: Vec<Vec<Option<String>>> = rows
            .iter()
            .map(|r| {
                cols.iter()
                    .map(|&c| r[c].map(|b| b.decode(db.dict()).to_string()))
                    .collect()
            })
            .collect();
        out.sort();
        out
    };
    let lbr_rows = to_rows(&out.rows, &out.vars);
    let oracle_rows = to_rows(&truth.rows, &truth.vars);
    assert_eq!(lbr_rows, oracle_rows, "disagreement on {query}");
    lbr_rows.len()
}

#[test]
fn bare_spo_scans_everything() {
    let n = agree(&db(), "SELECT * WHERE { ?s ?p ?o . }");
    assert_eq!(n, 6);
}

#[test]
fn spo_joined_with_fixed_pattern() {
    // All facts about entities that ?x points to via p1.
    let n = agree(
        &db(),
        "PREFIX : <> SELECT * WHERE { ?x :p1 ?y . ?y ?p ?z . }",
    );
    assert!(n > 0);
}

#[test]
fn spo_inside_optional() {
    // Describe each p1-edge target if it has any outgoing edge.
    let n = agree(
        &db(),
        "PREFIX : <> SELECT * WHERE { ?x :p1 ?y . OPTIONAL { ?y ?p ?z . } }",
    );
    assert!(n >= 2);
}

#[test]
fn spo_with_predicate_binding_projected() {
    // The predicate variable binds per matched predicate slice.
    let q = parse_query("PREFIX : <> SELECT ?p WHERE { :a ?p ?o . }").unwrap();
    let db = db();
    let out = db.execute_query(&q).unwrap();
    let mut preds: Vec<String> = out
        .rows
        .iter()
        .map(|r| r[0].unwrap().decode(db.dict()).to_string())
        .collect();
    preds.sort();
    assert_eq!(preds, vec!["<p1>".to_string(), "<p2>".to_string()]);
}

#[test]
fn spo_pruned_by_selective_master() {
    // The all-var TP is a slave; the selective master restricts ?y so the
    // Three-variant TP gets actively pruned at init.
    let db = db();
    let out = db
        .execute("PREFIX : <> SELECT * WHERE { :a :p1 ?y . OPTIONAL { ?y ?p ?z . } }")
        .unwrap();
    // ?y = b; b has two outgoing edges (p1 c, p3 d).
    assert_eq!(out.len(), 2);
    agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :a :p1 ?y . OPTIONAL { ?y ?p ?z . } }",
    );
}

/// Sorted decoded rows of `query` from one engine of `db`.
fn rows(db: &Database, kind: EngineKind, query: &str) -> Vec<Vec<Option<String>>> {
    let q = parse_query(query).unwrap();
    let out = db.engine_of(kind).execute(&q);
    let out = out.unwrap_or_else(|e| panic!("{kind} failed on {query}: {e}"));
    let mut rows: Vec<Vec<Option<String>>> = out
        .decode(db.dict())
        .into_iter()
        .map(|r| r.into_iter().map(|t| t.map(|x| x.to_string())).collect())
        .collect();
    rows.sort();
    rows
}

/// Each bound-end variable-predicate shape, as a master and as an
/// OPTIONAL slave masked by a selective master.
const BOUND_END: [&str; 8] = [
    // (f ?p ?o) as master, then as a slave masked on ?o.
    "PREFIX : <> SELECT * WHERE { :a ?p ?o . OPTIONAL { ?o :p1 ?z . } }",
    "PREFIX : <> SELECT * WHERE { :b :p1 ?o . OPTIONAL { :a ?p ?o . } }",
    // (?s ?p f) as master, then as a slave masked on ?s.
    "PREFIX : <> SELECT * WHERE { ?s ?p :a . OPTIONAL { ?s :p2 ?z . } }",
    "PREFIX : <> SELECT * WHERE { :a :p1 ?s . OPTIONAL { ?s ?p :d . } }",
    "PREFIX : <> SELECT * WHERE { ?s ?p :d . OPTIONAL { ?s :p3 ?z . } }",
    // (f1 ?p f2) as master, then as a slave masked on ?p.
    "PREFIX : <> SELECT * WHERE { :a ?p :b . OPTIONAL { ?x ?p :c . } }",
    "PREFIX : <> SELECT * WHERE { :b ?p ?o . OPTIONAL { :a ?p :d . } }",
    "PREFIX : <> SELECT * WHERE { :b ?p ?o . OPTIONAL { :c ?p :d . } }",
];

/// Over the heap store, a saved v4 segment and a dirty overlay on either,
/// LBR answers every bound-end shape as the oracle does; the overlay is
/// also checked against a database rebuilt from its triples.
#[test]
fn bound_end_variable_predicates_on_every_medium() {
    let path = std::env::temp_dir().join(format!("lbr-varp-{}.seg", std::process::id()));
    let heap = db();
    lbr::bitmat::disk::save_store(heap.store(), &path).unwrap();
    let disk = |updatable: bool| {
        let b = Database::builder().triples(base()).disk_index(&path);
        let b = if updatable { b.updatable() } else { b };
        b.build().unwrap()
    };
    // Subject `a` gains p3 and object `d` gains p1: new (s, p) and (o, p)
    // pairs of existing terms in existing roles, so they stay in the delta.
    let dirty = |db: Database| {
        let base = db.graph().triples.len();
        db.insert_triples(vec![t("a", "p3", "d"), t("c", "p1", "d")])
            .unwrap();
        assert_eq!((db.graph().triples.len(), db.len()), (base, base + 2));
        db
    };
    let heap_dirty = dirty(
        Database::builder()
            .triples(base())
            .updatable()
            .build()
            .unwrap(),
    );
    let disk_dirty = dirty(disk(true));
    let rebuilt = Database::from_triples(heap_dirty.triples());
    let media = [
        ("heap", &heap, &heap),
        ("segment", &disk(false), &heap),
        ("overlay(heap)", &heap_dirty, &rebuilt),
        ("overlay(segment)", &disk_dirty, &rebuilt),
    ];
    for (medium, db, truth) in media {
        for query in BOUND_END {
            let got = rows(db, EngineKind::Lbr, query);
            assert_eq!(
                got,
                rows(db, EngineKind::Reference, query),
                "{medium}: {query}"
            );
            assert_eq!(
                got,
                rows(truth, EngineKind::Reference, query),
                "{medium}: {query}"
            );
        }
    }
    // The delta is seen: `a` now reaches `d`, through p3.
    let q = "PREFIX : <> SELECT ?p WHERE { :a ?p :d . }";
    assert_eq!(
        rows(&heap_dirty, EngineKind::Lbr, q),
        [[Some("<p3>".to_string())]]
    );
    assert!(rows(&heap, EngineKind::Lbr, q).is_empty());
    std::fs::remove_file(&path).ok();
}

/// `(?x ?p ?x)` loads from no BitMat: planning refuses it, so neither a
/// prepared query nor EXPLAIN accepts a query every execution would fail.
#[test]
fn subject_object_repeat_under_a_variable_predicate_is_refused_at_plan_time() {
    let db = db();
    let q = "SELECT * WHERE { ?x ?p ?x }";
    assert!(matches!(db.prepare(q), Err(LbrError::Unsupported(_))));
    assert!(matches!(db.explain(q), Err(LbrError::Unsupported(_))));
    assert!(matches!(db.execute(q), Err(LbrError::Unsupported(_))));
}
