//! Cross-engine equivalence: every engine behind [`EngineKind`] — the LBR
//! engine, both pairwise hash-join configurations, the reordering baseline
//! and the nested-loop reference oracle — must produce identical result
//! bags on well-designed queries.
//!
//! This is the central correctness gate of the reproduction: Lemmas 3.1,
//! 3.3 and 3.4 all cash out as "same rows as the SPARQL algebra". One
//! generic harness runs the whole workload through the shared
//! [`lbr::Engine`] trait, so an engine added to [`EngineKind`] is covered
//! automatically.

use lbr::baseline::{EngineOptions, Semantics};
use lbr::{parse_query, Database, EngineKind, Term, Triple};

/// Renders an engine's sorted rows (lexical forms, NULL as None) for bag
/// comparison, going through the unified `Engine` trait.
fn engine_rows(db: &Database, kind: EngineKind, query: &str) -> Vec<Vec<Option<String>>> {
    let q = parse_query(query).unwrap();
    let out = db
        .engine_of(kind)
        .execute(&q)
        .unwrap_or_else(|e| panic!("{kind} failed on {query}: {e}"));
    let mut rows: Vec<Vec<Option<String>>> = out
        .decode(db.dict())
        .into_iter()
        .map(|r| r.into_iter().map(|t| t.map(|x| x.to_string())).collect())
        .collect();
    rows.sort();
    rows
}

/// Asserts every engine agrees with the reference oracle
/// (SPARQL semantics — the ground truth for well-designed queries), and
/// that the streaming `Solutions` path is row-for-row identical to the
/// materialized `QueryOutput` path.
#[track_caller]
fn assert_all_agree(db: &Database, query: &str) {
    let truth = engine_rows(db, EngineKind::Reference, query);
    for kind in EngineKind::all() {
        assert_eq!(
            engine_rows(db, kind, query),
            truth,
            "{kind} deviates on: {query}"
        );
        assert_streaming_matches_materialized(db, kind, query);
    }
}

/// The streaming path must yield exactly the materialized rows, in order.
#[track_caller]
fn assert_streaming_matches_materialized(db: &Database, kind: EngineKind, query: &str) {
    let q = parse_query(query).unwrap();
    let engine = db.engine_of(kind);
    let materialized = engine.execute(&q).unwrap().render(db.dict());
    let streamed: Vec<String> = engine
        .solutions(&q)
        .unwrap()
        .map(|row| row.render())
        .collect();
    assert_eq!(
        streamed, materialized,
        "{kind}: streaming differs from materialized on: {query}"
    );
}

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

fn sitcom_db() -> Database {
    Database::from_triples(vec![
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
        t("Jerry", "livesIn", "NewYorkCity"),
        t("Julia", "livesIn", "NewYorkCity"),
        t("Larry", "livesIn", "LosAngeles"),
    ])
}

#[test]
fn paper_q2() {
    let db = sitcom_db();
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
           OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }",
    );
}

#[test]
fn paper_q1_shape() {
    // Q1 of §1: one OPTIONAL block with two patterns over the same subject.
    let db = sitcom_db();
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { ?actor :actedIn ?x .
           OPTIONAL { ?actor :livesIn ?city . ?city :location ?where . } }",
    );
}

#[test]
fn nested_and_sibling_optionals() {
    let db = sitcom_db();
    // Nested OPT inside OPT.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :actedIn ?s . OPTIONAL { ?s :location ?l . } } }",
    );
    // Two sibling OPTIONALs.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :actedIn ?s . }
           OPTIONAL { ?f :livesIn ?c . } }",
    );
    // Join of two OPT groups (Fig 2.1(b) shape).
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE {
           { ?f :actedIn ?s . OPTIONAL { ?s :location ?l . } }
           { ?f :livesIn ?c . OPTIONAL { ?x :hasFriend ?f . } } }",
    );
}

#[test]
fn cyclic_queries() {
    let db = Database::from_triples(vec![
        t("a1", "p1", "b1"),
        t("b1", "p2", "c1"),
        t("a1", "p3", "c1"),
        t("a2", "p1", "b2"),
        t("b2", "p2", "c2"),
        t("a2", "p3", "c9"), // breaks the cycle for a2
        t("a1", "p4", "z1"),
        t("a2", "p4", "z2"),
    ]);
    // Cyclic BGP (triangle).
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { ?a :p1 ?b . ?b :p2 ?c . ?a :p3 ?c . }",
    );
    // Cyclic with a single-jvar slave (Lemma 3.4: no best-match needed).
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { ?a :p1 ?b . ?b :p2 ?c . ?a :p3 ?c .
           OPTIONAL { ?a :p4 ?z . } }",
    );
    // Cyclic crossing a slave with two jvars (nullification + best-match
    // required, Fig 3.1's rightmost well-designed class).
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { ?a :p1 ?b .
           OPTIONAL { ?a :p3 ?c . ?b :p2 ?c . } }",
    );
}

#[test]
fn nb_required_query_fires_nullification_only_when_cyclic() {
    let db = Database::from_triples(vec![
        t("a1", "p1", "b1"),
        t("a1", "p3", "c1"),
        t("b1", "p2", "c2"), // c mismatch: slave cannot complete as a unit
        t("a2", "p1", "b2"),
        t("a2", "p3", "c3"),
        t("b2", "p2", "c3"), // completes
    ]);
    let query = "PREFIX : <> SELECT * WHERE { ?a :p1 ?b .
        OPTIONAL { ?a :p3 ?c . ?b :p2 ?c . } }";
    let out = db.execute(query).unwrap();
    assert!(out.stats.nb_required, "cyclic, slave has 3 jvars");
    assert_eq!(
        engine_rows(&db, EngineKind::Lbr, query),
        engine_rows(&db, EngineKind::Reference, query)
    );
    // a1's slave must be nullified as a unit: (a1, b1, NULL).
    let rows = engine_rows(&db, EngineKind::Lbr, query);
    assert!(rows.contains(&vec![
        Some("<a1>".to_string()),
        Some("<b1>".to_string()),
        None
    ]));
}

#[test]
fn acyclic_never_fires_nullification() {
    let db = sitcom_db();
    let out = db
        .execute(
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
               OPTIONAL { ?f :actedIn ?s . ?s :location ?l . } }",
        )
        .unwrap();
    assert!(!out.stats.nb_required);
    assert_eq!(out.stats.nullification_fired, 0, "Lemma 3.3");
}

#[test]
fn empty_optional_and_empty_master() {
    let db = sitcom_db();
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f . OPTIONAL { ?f :location ?l . } }",
    );
    // Unknown constant in the master: empty, via the early abort.
    let out = db
        .execute(
            "PREFIX : <> SELECT * WHERE { :Nobody :hasFriend ?f . OPTIONAL { ?f :actedIn ?s . } }",
        )
        .unwrap();
    assert!(out.is_empty());
    assert!(out.stats.aborted_empty);
}

#[test]
fn union_queries() {
    let db = sitcom_db();
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE {
           { ?f :actedIn ?s . ?s :location :NewYorkCity . }
           UNION { ?f :actedIn ?s . ?s :location :LosAngeles . } }",
    );
    // UNION under a join.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           { { ?f :livesIn :NewYorkCity . } UNION { ?f :livesIn :LosAngeles . } } }",
    );
}

#[test]
fn union_inside_optional_needs_spurious_removal() {
    // Rule (3): P1 ⟕ (P2 ∪ P3). The rewritten branches each produce a
    // NULL row for masters matched only by the *other* branch; best-match
    // must remove those spurious rows.
    let db = sitcom_db();
    let query = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
        OPTIONAL { { ?f :livesIn :NewYorkCity . } UNION { ?f :livesIn :LosAngeles . } } }";
    // Ground truth from the oracle: both friends have a location, no NULLs.
    let truth = engine_rows(&db, EngineKind::Reference, query);
    assert_eq!(engine_rows(&db, EngineKind::Lbr, query), truth);
    assert!(engine_rows(&db, EngineKind::Lbr, query)
        .iter()
        .all(|r| r.iter().all(|c| c.is_some())));
}

#[test]
fn filters() {
    let db = sitcom_db();
    // Filter inside the master.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f . FILTER(?f != :Larry)
           OPTIONAL { ?f :actedIn ?s . } }",
    );
    // Filter inside the OPTIONAL.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :actedIn ?s . FILTER(?s = :Seinfeld) } }",
    );
    // BOUND over an OPTIONAL result (global filter).
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :actedIn ?s . ?s :location :NewYorkCity . }
           FILTER( BOUND(?s) ) }",
    );
}

#[test]
fn cartesian_products() {
    let db = sitcom_db();
    // Top-level cross product of two connected pieces.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { { :Jerry :hasFriend ?f . } { ?s :location :NewYorkCity . } }",
    );
    // Cross-product OPTIONAL (disconnected slave).
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?s :location :D.C. . } }",
    );
    // A product in the master, then an OPTIONAL joined to one component.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f . ?x :livesIn :LosAngeles .
           OPTIONAL { ?f :actedIn ?s . } }",
    );
    // Filters in a disconnected OPTIONAL: one variable, two variables,
    // and a master-only variable (out of the group's scope, so the
    // filter is false there and the OPTIONAL never matches).
    for filter in [
        "FILTER(?l != :Jersey)",
        "FILTER(?s != ?l)",
        "FILTER(?f = :Julia)",
    ] {
        assert_all_agree(
            &db,
            &format!(
                "PREFIX : <> SELECT * WHERE {{ :Jerry :hasFriend ?f .
                   OPTIONAL {{ ?s :location ?l . {filter} }} }}"
            ),
        );
    }
    // A disconnected peer group inside an OPTIONAL: ?f :livesIn ?c joins
    // the master, ?s :location :D.C. shares nothing.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :livesIn :NewYorkCity . ?s :location :D.C. . } }",
    );
    // A disconnected OPTIONAL nested under a slave that can fail: Larry
    // acted in nothing located in New York, so his inner OPTIONAL must
    // not bind ?w under his NULL ?s.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :actedIn ?s . ?s :location :NewYorkCity .
             OPTIONAL { ?w :livesIn :LosAngeles . } } }",
    );
    // UNION with one disconnected branch.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE {
           { :Jerry :hasFriend ?f . ?f :livesIn ?c . }
           UNION { :Jerry :hasFriend ?f . ?c :location :D.C. . } }",
    );
    // Modifiers over a product: DISTINCT, ORDER BY … LIMIT, ASK.
    let product = "PREFIX : <> SELECT ?f ?c WHERE { :Jerry :hasFriend ?f . ?x :livesIn ?c . }";
    assert_all_agree(&db, &product.replace("SELECT", "SELECT DISTINCT"));
    assert_all_agree_in_order(&db, &format!("{product} ORDER BY ?c DESC(?f) LIMIT 3"));
    for (query, expect) in [
        (
            "PREFIX : <> ASK { :Jerry :hasFriend ?f . ?x :livesIn ?c . }",
            true,
        ),
        (
            "PREFIX : <> ASK { :Jerry :hasFriend ?f . ?x :livesIn :D.C. . }",
            false,
        ),
    ] {
        let q = parse_query(query).unwrap();
        for kind in EngineKind::all() {
            let out = db.engine_of(kind).execute(&q).unwrap();
            assert_eq!(out.boolean(), Some(expect), "{kind} deviates on: {query}");
        }
    }
    // LIMIT over a product: the right count, every row from the full
    // answer, and the quota stops the join after one seed.
    let full = engine_rows(&db, EngineKind::Reference, product);
    assert_eq!(full.len(), 6, "2 friends × 3 livesIn triples");
    let limited = format!("{product} LIMIT 2");
    for kind in EngineKind::all() {
        let rows = engine_rows(&db, kind, &limited);
        assert_eq!(rows.len(), 2, "{kind} on {limited}");
        assert!(rows.iter().all(|r| full.contains(r)), "{kind} on {limited}");
    }
    assert_eq!(db.execute(&limited).unwrap().stats.join_seeds, 1);
}

/// A FaN filter that fails a slave supernode fails its nested slaves too,
/// on every engine: (Julia, Seinfeld) fails `?s = :Veep`, and the nested
/// OPTIONAL must not keep Seinfeld's location under the NULL ?s.
#[test]
fn fan_failure_reaches_nested_slaves() {
    let db = sitcom_db();
    let query = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
        OPTIONAL { ?f :actedIn ?s . FILTER(?s != ?f && ?s = :Veep)
          OPTIONAL { ?s :location ?l . } } }";
    assert_all_agree(&db, query);
    let s = |x: &str| Some(format!("<{x}>"));
    assert_eq!(
        engine_rows(&db, EngineKind::Lbr, query),
        vec![
            vec![s("Julia"), s("Veep"), s("D.C.")],
            vec![s("Larry"), None, None]
        ]
    );
}

/// `FILTER(?m = ?n)` is evaluated as a filter: both variables stay bound
/// in the answer, an optional `?d` that fails it drops the row, and
/// inside an OPTIONAL it reads `?b` as out of scope.
#[test]
fn variable_equality_filters_are_evaluated() {
    let db = Database::from_triples(vec![
        t("a1", "p", "b1"),
        t("b1", "q", "d1"),
        t("a2", "p", "b2"),
        t("x", "r", "y"),
    ]);
    for query in [
        "SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . FILTER(?b = ?c) }",
        "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?d . } FILTER(?b = ?d) }",
        "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?c <q> ?d . FILTER(?c = ?b) } }",
    ] {
        assert_all_agree(&db, query);
    }
    let joined = "SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . FILTER(?b = ?c) }";
    let s = |x: &str| Some(format!("<{x}>"));
    assert_eq!(
        engine_rows(&db, EngineKind::Lbr, joined),
        vec![vec![s("a1"), s("b1"), s("b1"), s("d1")]]
    );
}

#[test]
fn projection_and_bag_semantics() {
    let db = sitcom_db();
    let query = "PREFIX : <> SELECT ?f WHERE { :Jerry :hasFriend ?f . ?f :actedIn ?s . }";
    // Julia acted in 4 sitcoms, Larry in 1 → 5 rows under bag semantics.
    let rows = engine_rows(&db, EngineKind::Lbr, query);
    assert_eq!(rows.len(), 5);
    assert_eq!(rows, engine_rows(&db, EngineKind::Reference, query));
}

#[test]
fn non_well_designed_matches_sql_semantics() {
    // The Appendix B/C class: LBR (with the GoSN transformation) follows
    // the SQL null-intolerant semantics, like Virtuoso/MonetDB.
    let db = Database::from_triples(vec![
        t("Jerry", "hasFriend", "Julia"),
        t("Jerry", "hasFriend", "Larry"),
        t("Julia", "actedIn", "Seinfeld"),
        t("Friends", "location", "NewYorkCity"),
        t("Seinfeld", "location", "NewYorkCity"),
    ]);
    let query = "PREFIX : <> SELECT * WHERE {
        { :Jerry :hasFriend ?f . OPTIONAL { ?f :actedIn ?s . } }
        { ?s :location :NewYorkCity . } }";
    // The oracle under SQL semantics, through the same Engine seam.
    let q = parse_query(query).unwrap();
    let sql_oracle = db.engine_with(
        EngineKind::Reference,
        &EngineOptions {
            semantics: Semantics::NullIntolerant,
            ..EngineOptions::default()
        },
    );
    let mut truth_sql: Vec<Vec<Option<String>>> = sql_oracle
        .execute(&q)
        .unwrap()
        .decode(db.dict())
        .into_iter()
        .map(|r| r.into_iter().map(|t| t.map(|x| x.to_string())).collect())
        .collect();
    truth_sql.sort();
    assert_eq!(engine_rows(&db, EngineKind::Lbr, query), truth_sql);
    // And it genuinely differs from the pure-SPARQL semantics here.
    assert_ne!(truth_sql, engine_rows(&db, EngineKind::Reference, query));

    // The same shape with a disconnected part in the master.
    let query = "PREFIX : <> SELECT * WHERE {
        { :Jerry :hasFriend ?f . ?x :location :NewYorkCity . OPTIONAL { ?f :actedIn ?s . } }
        { ?s :location :NewYorkCity . } }";
    let q = parse_query(query).unwrap();
    let mut truth_sql: Vec<Vec<Option<String>>> = sql_oracle
        .execute(&q)
        .unwrap()
        .decode(db.dict())
        .into_iter()
        .map(|r| r.into_iter().map(|t| t.map(|x| x.to_string())).collect())
        .collect();
    truth_sql.sort();
    assert_eq!(
        truth_sql.len(),
        2,
        "(Julia, Seinfeld) × 2 NewYorkCity subjects"
    );
    assert_eq!(engine_rows(&db, EngineKind::Lbr, query), truth_sql);
}

#[test]
fn filter_on_pattern_absent_variable() {
    // A FILTER over a variable that occurs nowhere in the pattern: the
    // variable can never be bound, so comparisons collapse to `false`
    // (SPARQL error semantics) and `!BOUND` is `true`. The engine used to
    // silently discard such filters.
    let db = sitcom_db();
    // Constant-false in the master: every row is dropped.
    let drop_all = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
        FILTER(?nosuch = :Julia) }";
    assert_all_agree(&db, drop_all);
    assert!(
        db.execute(drop_all).unwrap().is_empty(),
        "FILTER over an unbound variable must drop every row"
    );
    // Constant-true (!BOUND of a never-bound variable): keeps every row.
    let keep_all = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
        FILTER(!BOUND(?nosuch)) }";
    assert_all_agree(&db, keep_all);
    assert_eq!(db.execute(keep_all).unwrap().len(), 2);
    // Constant-false inside an OPTIONAL: the slave never matches, so every
    // row keeps its master bindings with NULLs for the slave.
    let null_slave = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
        OPTIONAL { ?f :actedIn ?s . FILTER(?nosuch = :Julia) } }";
    assert_all_agree(&db, null_slave);
    let out = db.execute(null_slave).unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out.rows_with_nulls(), 2);
}

#[test]
fn filter_scoped_to_its_group() {
    // ?c is bound only by the master pattern: inside the OPTIONAL group's
    // scope it is unbound, so the filter is constant-false there and the
    // OPTIONAL never matches (the oracle's compositional semantics). The
    // filter must neither be discarded nor read the master's binding.
    let db = sitcom_db();
    let query = "PREFIX : <> SELECT * WHERE { ?f :livesIn ?c .
        OPTIONAL { ?f :actedIn ?s . FILTER(?c = :NewYorkCity) } }";
    assert_all_agree(&db, query);
    let rows = engine_rows(&db, EngineKind::Lbr, query);
    assert!(
        rows.iter().all(|r| r[2].is_none()),
        "the out-of-scope filter nullifies the OPTIONAL for every row"
    );
}

#[test]
fn nested_optional_with_filters() {
    let db = sitcom_db();
    // Filter inside the innermost OPTIONAL of a nested chain.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :actedIn ?s .
             OPTIONAL { ?s :location ?l . FILTER(?l != :LosAngeles) } } }",
    );
    // Filter on the master of a nested-OPTIONAL chain.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f . FILTER(?f != :Larry)
           OPTIONAL { ?f :actedIn ?s . OPTIONAL { ?s :location ?l . } } }",
    );
    // A filter around a group with an OPTIONAL, inside an OPTIONAL: a
    // friend whose group fails it keeps the row, with NULLs.
    let group = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :actedIn ?s . OPTIONAL { ?s :location ?l . }
             FILTER(?l = :NewYorkCity) } }";
    assert_all_agree(&db, group);
    let s = |x: &str| Some(format!("<{x}>"));
    assert_eq!(
        engine_rows(&db, EngineKind::Lbr, group),
        vec![
            vec![s("Julia"), s("Seinfeld"), s("NewYorkCity")],
            vec![s("Larry"), None, None]
        ]
    );
    // Pattern-absent filter variable in the innermost OPTIONAL.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :actedIn ?s .
             OPTIONAL { ?s :location ?l . FILTER(?nosuch = 1) } } }",
    );
}

#[test]
fn rule3_minimum_union_over_full_schema_before_projection() {
    // P1 ⟕ (P2 ∪ P3) with a projection that erases the column (?y)
    // distinguishing a q-branch row from a p-branch row. The q-branch row
    // projects to (a, NULL), which *looks* subsumed by the p-branch's
    // (a, c1) — but rule (3)'s minimum union is defined over the full
    // branch schemas, where {s,o,x} and {s,o,y} rows are incomparable.
    // Best-matching after projection would silently lose the row.
    let db = Database::from_triples(vec![
        t("a", "m", "o1"),
        t("a", "p", "c1"),
        t("a", "q", "d1"),
    ]);
    let query = "PREFIX : <> SELECT ?s ?x WHERE { ?s :m ?o .
        OPTIONAL { { ?s :p ?x . } UNION { ?s :q ?y . } } }";
    assert_all_agree(&db, query);
    let rows = engine_rows(&db, EngineKind::Lbr, query);
    assert_eq!(rows.len(), 2, "both union branches contribute a row");
    assert!(
        rows.contains(&vec![Some("<a>".to_string()), None]),
        "the q-branch row survives as (a, NULL)"
    );
    // And the spurious-row case still collapses: when only one branch
    // matches, the other branch's all-NULL padding is genuinely subsumed.
    let db2 = Database::from_triples(vec![t("a", "m", "o1"), t("a", "p", "c1")]);
    assert_all_agree(&db2, query);
    assert_eq!(engine_rows(&db2, EngineKind::Lbr, query).len(), 1);
}

/// For queries whose ORDER BY keys determine the row sequence up to
/// identical rows, every engine must return the exact same decoded
/// sequence (no sorting before comparison).
#[track_caller]
fn assert_all_agree_in_order(db: &Database, query: &str) {
    let q = parse_query(query).unwrap();
    let truth = db
        .engine_of(EngineKind::Reference)
        .execute(&q)
        .unwrap()
        .render(db.dict());
    for kind in EngineKind::all() {
        let rows = db.engine_of(kind).execute(&q).unwrap().render(db.dict());
        assert_eq!(rows, truth, "{kind} sequence deviates on: {query}");
    }
}

#[test]
fn distinct_queries_agree() {
    let db = sitcom_db();
    // Julia acted in 4 sitcoms → SELECT ?f has duplicates; DISTINCT
    // collapses them identically everywhere.
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT DISTINCT ?f WHERE { :Jerry :hasFriend ?f . ?f :actedIn ?s . }",
    );
    let with = db
        .execute("PREFIX : <> SELECT ?f WHERE { :Jerry :hasFriend ?f . ?f :actedIn ?s . }")
        .unwrap();
    let without = db
        .execute("PREFIX : <> SELECT DISTINCT ?f WHERE { :Jerry :hasFriend ?f . ?f :actedIn ?s . }")
        .unwrap();
    assert_eq!(with.len(), 5);
    assert_eq!(without.len(), 2);
    // REDUCED behaves like DISTINCT here (permitted cardinality).
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT REDUCED ?f WHERE { :Jerry :hasFriend ?f . ?f :actedIn ?s . }",
    );
    // DISTINCT over a row with NULLs (OPTIONAL).
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT DISTINCT ?f ?l WHERE { :Jerry :hasFriend ?f .
           OPTIONAL { ?f :location ?l . } }",
    );
}

/// Regression: a term living in BOTH the predicate dictionary and the
/// subject/object dictionary gets unrelated encoded IDs; a DISTINCT
/// column that mixes the two spaces across UNION branches must still
/// dedup by *term*, not by encoded ID.
#[test]
fn distinct_dedups_across_predicate_and_so_dimensions() {
    let db = Database::from_triples(vec![t("a", "p", "b"), t("p", "q", "c")]);
    let query = "SELECT DISTINCT ?x WHERE { { <a> ?x <b> . } UNION { ?x <q> <c> . } }";
    assert_all_agree(&db, query);
    let out = db.execute(query).unwrap();
    assert_eq!(
        out.render(db.dict()),
        vec!["<p>".to_string()],
        "one term, one row — regardless of which dictionary dimension bound it"
    );
}

#[test]
fn ordered_queries_agree_in_sequence() {
    let db = sitcom_db();
    // The ORDER BY keys cover every projected column, so ties are
    // identical rows and the sequence is engine-independent.
    assert_all_agree_in_order(
        &db,
        "PREFIX : <> SELECT ?f ?s WHERE { :Jerry :hasFriend ?f . ?f :actedIn ?s . }
           ORDER BY ?f DESC(?s)",
    );
    // Unbound OPTIONAL cells sort first ascending / last descending.
    assert_all_agree_in_order(
        &db,
        "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f . OPTIONAL { ?f :location ?l . } }
           ORDER BY ?l ?f",
    );
    // ORDER + LIMIT + OFFSET: a deterministic slice.
    assert_all_agree_in_order(
        &db,
        "PREFIX : <> SELECT ?f ?s WHERE { ?f :actedIn ?s . } ORDER BY ?f ?s LIMIT 3 OFFSET 1",
    );
    // ORDER BY a non-projected variable (extends the execution schema,
    // then the seam drops it) — plus DISTINCT on the projected column.
    assert_all_agree_in_order(
        &db,
        "PREFIX : <> SELECT ?s WHERE { ?f :actedIn ?s . ?s :location ?w . } ORDER BY ?w ?s",
    );
}

#[test]
fn ask_queries_agree() {
    let db = sitcom_db();
    let cases = [
        ("PREFIX : <> ASK { :Jerry :hasFriend ?f . }", true),
        ("PREFIX : <> ASK { :Larry :hasFriend ?f . }", false),
        (
            "PREFIX : <> ASK { :Jerry :hasFriend ?f . ?f :actedIn ?s .
               ?s :location :NewYorkCity . }",
            true,
        ),
        // Modifiers apply before the emptiness test.
        ("PREFIX : <> ASK { :Jerry :hasFriend ?f . } OFFSET 1", true),
        ("PREFIX : <> ASK { :Jerry :hasFriend ?f . } OFFSET 2", false),
        ("PREFIX : <> ASK { :Jerry :hasFriend ?f . } LIMIT 0", false),
    ];
    for (query, expect) in cases {
        let q = parse_query(query).unwrap();
        for kind in EngineKind::all() {
            let out = db.engine_of(kind).execute(&q).unwrap();
            assert_eq!(out.boolean(), Some(expect), "{kind} deviates on: {query}");
        }
        assert_eq!(db.ask(query).unwrap(), expect, "{query}");
    }
}

/// The acceptance criterion for the LIMIT pushdown: the multi-way join
/// enumerates exactly the seeds needed, and returns exactly the unbounded
/// run's prefix.
#[test]
fn limit_pushdown_terminates_early() {
    let triples: Vec<Triple> = (0..200).map(|i| t(&format!("s{i}"), "p", "o")).collect();
    let db = Database::from_triples(triples);
    let full = db.execute("SELECT ?s WHERE { ?s <p> <o> . }").unwrap();
    assert_eq!(full.len(), 200);
    assert_eq!(full.stats.join_seeds, 200);

    let limited = db
        .execute("SELECT ?s WHERE { ?s <p> <o> . } LIMIT 10 OFFSET 5")
        .unwrap();
    assert_eq!(limited.rows, full.rows[5..15]);
    assert_eq!(
        limited.stats.join_seeds, 15,
        "stops exactly at offset+limit seeds"
    );
    // ASK short-circuits to a single seed.
    let ask = db.execute("ASK { ?s <p> <o> . }").unwrap();
    assert_eq!(ask.boolean(), Some(true));
    assert_eq!(ask.stats.join_seeds, 1, "existence needs one seed");
    // ORDER BY disables the pushdown: every seed must be enumerated.
    let ordered = db
        .execute("SELECT * WHERE { ?s <p> <o> . } ORDER BY ?s LIMIT 10")
        .unwrap();
    assert_eq!(ordered.len(), 10);
    assert_eq!(ordered.stats.join_seeds, 200);
}

/// Satellite bugfix: `SELECT ?x` where `?x` never occurs in the WHERE
/// pattern must yield an all-unbound column on every engine — never an
/// error or a panic (SPARQL projection semantics).
#[test]
fn projection_of_pattern_absent_variable_is_all_unbound() {
    let db = sitcom_db();
    let query = "PREFIX : <> SELECT ?f ?ghost WHERE { :Jerry :hasFriend ?f . }";
    assert_all_agree(&db, query);
    let out = db.execute(query).unwrap();
    assert_eq!(out.vars, vec!["f", "ghost"]);
    assert_eq!(out.len(), 2);
    assert!(out.rows.iter().all(|r| r[0].is_some() && r[1].is_none()));
    // Pure-ghost projection: one all-NULL column per solution.
    let query = "PREFIX : <> SELECT ?ghost WHERE { :Jerry :hasFriend ?f . }";
    assert_all_agree(&db, query);
    assert_eq!(db.execute(query).unwrap().len(), 2);
    // Ghost columns interact correctly with the modifiers (ORDER BY a
    // ghost is a constant key; DISTINCT collapses the all-NULL rows).
    let query = "PREFIX : <> SELECT DISTINCT ?ghost WHERE { :Jerry :hasFriend ?f . }
        ORDER BY ?ghost";
    assert_all_agree(&db, query);
    assert_eq!(db.execute(query).unwrap().len(), 1);
}

#[test]
fn deep_nesting_fig_2_1b_shape_with_data() {
    let db = Database::from_triples(vec![
        t("x1", "pa", "y1"),
        t("y1", "pb", "w1"),
        t("x1", "pc", "z1"),
        t("z1", "pd", "v1"),
        t("x1", "pe", "u1"),
        t("u1", "pf", "q1"),
        t("x2", "pa", "y2"),
        t("x2", "pc", "z2"),
        t("x3", "pa", "y3"),
        t("y3", "pb", "w3"),
        t("x3", "pc", "z3"),
        t("z3", "pd", "v3"),
    ]);
    assert_all_agree(
        &db,
        "PREFIX : <> SELECT * WHERE {
           { ?x :pa ?y . OPTIONAL { ?y :pb ?w . } }
           { ?x :pc ?z . OPTIONAL { ?z :pd ?v . } }
           OPTIONAL { ?x :pe ?u . OPTIONAL { ?u :pf ?q . } } }",
    );
}
