//! Non-well-designed (NWD) query handling (Appendices B and C): the GoSN
//! transformation converts the violating left-outer joins into inner
//! joins. That transformation *defines* the paper's NWD semantics; it
//! coincides with SQL's null-intolerant evaluation of the original query
//! when the violating OPTIONAL feeds a downstream null-intolerant inner
//! join (the classic Galindo-Legaria simplification), and deviates — by
//! design — when the violation hides under further OPTIONALs. The engine
//! must therefore match the oracle on the *transformed* pattern always,
//! and on the original-under-SQL where the simplification applies.

use lbr::baseline::{evaluate_reference, Semantics};
use lbr::sparql::{classify, is_well_designed, transform_nwd_pattern, violations};
use lbr::{parse_query, Database, Term, Triple};

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// LBR's NWD output must equal the oracle's evaluation of the
/// Appendix-B-transformed pattern. UNION queries are rewritten to UNION
/// normal form first (the transformation is defined per union-free
/// branch); both sides pass through best-match so rule-(3) spurious rows
/// compare as minimum-unions.
#[track_caller]
fn assert_transformed_semantics(db: &Database, query: &str) {
    let q = parse_query(query).unwrap();
    assert!(!is_well_designed(&q.pattern), "test query should be NWD");
    let out = db.execute_query(&q).unwrap();
    let proj = q.projected_vars();

    // Oracle: per-UNF-branch transformation, bag-unioned, minimum-union'd.
    let mut truth_rows: Vec<Vec<Option<lbr::core::Binding>>> = Vec::new();
    for branch in lbr::sparql::rewrite_to_unf(&q.pattern) {
        let transformed = lbr::Query::select_all(transform_nwd_pattern(&branch.pattern));
        assert!(
            is_well_designed(&transformed.pattern),
            "transformation must converge to WD"
        );
        let rel =
            evaluate_reference(&transformed, db.dict(), db.store(), Semantics::Sparql).unwrap();
        let cols: Vec<Option<usize>> = proj
            .iter()
            .map(|v| rel.vars.iter().position(|x| x == v))
            .collect();
        truth_rows.extend(rel.rows.iter().map(|r| {
            cols.iter()
                .map(|c| c.and_then(|i| r[i]))
                .collect::<Vec<_>>()
        }));
    }
    lbr::core::best_match::best_match(&mut truth_rows);

    let cols: Vec<usize> = proj
        .iter()
        .map(|v| out.vars.iter().position(|x| x == v).unwrap())
        .collect();
    let mut got: Vec<Vec<Option<lbr::core::Binding>>> = out
        .rows
        .iter()
        .map(|r| cols.iter().map(|&c| r[c]).collect())
        .collect();
    lbr::core::best_match::best_match(&mut got);
    got.sort();
    truth_rows.sort();
    assert_eq!(got, truth_rows, "NWD semantics mismatch on {query}");
}

#[test]
fn textbook_nwd_px_py_pz() {
    // Px ⟕ (Py ⟕ Pz) with ?j in Pz and Px but not Py — the Appendix B
    // running shape.
    let db = Database::from_triples(vec![
        t("j1", "p1", "x1"),
        t("j2", "p1", "x2"),
        t("x1", "p2", "y1"),
        t("j1", "p3", "z1"),
        t("j3", "p3", "z3"),
    ]);
    assert_transformed_semantics(
        &db,
        "PREFIX : <> SELECT * WHERE { ?j :p1 ?x .
           OPTIONAL { ?x :p2 ?y . OPTIONAL { ?j :p3 ?z . } } }",
    );
}

#[test]
fn appendix_c_join_over_possible_null() {
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
    assert_transformed_semantics(&db, query);
    // For this shape the transformation IS the Galindo-Legaria
    // simplification: the engine also matches SQL-on-the-original.
    {
        let q = parse_query(query).unwrap();
        let out = db.execute_query(&q).unwrap();
        let sql = evaluate_reference(&q, db.dict(), db.store(), Semantics::NullIntolerant).unwrap();
        assert_eq!(out.len(), sql.rows.len());
    }
    // And the two semantics genuinely differ here (Appendix C's point):
    let q = parse_query(query).unwrap();
    let sparql = evaluate_reference(&q, db.dict(), db.store(), Semantics::Sparql).unwrap();
    let sql = evaluate_reference(&q, db.dict(), db.store(), Semantics::NullIntolerant).unwrap();
    assert_eq!(
        sparql.rows.len(),
        3,
        "compatible-mapping semantics keeps Larry×2"
    );
    assert_eq!(
        sql.rows.len(),
        1,
        "null-intolerant keeps only Julia/Seinfeld"
    );
}

#[test]
fn violation_report_names_the_supernodes() {
    let q = parse_query(
        "PREFIX : <> SELECT * WHERE { ?j :p1 ?x .
           OPTIONAL { ?x :p2 ?y . OPTIONAL { ?j :p3 ?z . } } }",
    )
    .unwrap();
    let v = violations(&q.pattern);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].var, "j");
    assert_eq!((v[0].slave_sn, v[0].outside_sn), (2, 0));
    // After the transformation the classification reports well-designed
    // handling is unnecessary, but the class remembers the origin.
    let c = classify(&q.pattern).unwrap();
    assert!(!c.well_designed);
}

#[test]
fn nwd_with_union_branches() {
    // The NWD transform must run per UNF branch.
    let db = Database::from_triples(vec![
        t("j1", "p1", "x1"),
        t("j1", "p3", "z1"),
        t("j1", "p4", "z2"),
        t("x1", "p2", "y1"),
    ]);
    assert_transformed_semantics(
        &db,
        "PREFIX : <> SELECT * WHERE { ?j :p1 ?x .
           OPTIONAL { ?x :p2 ?y .
             OPTIONAL { { ?j :p3 ?z . } UNION { ?j :p4 ?z . } } } }",
    );
}

#[test]
fn deep_nwd_cascades_to_peers() {
    // Figure B.1's shape with data: after transformation b, e, f are peers
    // of the absolute masters, so their TPs act as inner joins.
    let db = Database::from_triples(vec![
        t("a1", "pa", "a2x"),
        t("a2x", "pb", "J"),
        t("J", "pc", "c1"),
        t("c1", "pd", "d1"),
        t("c1", "pe", "e1"),
        t("e1", "pf", "J"),
        // A second chain that breaks at pf.
        t("b1", "pa", "b2x"),
        t("b2x", "pb", "K"),
        t("K", "pc", "c2"),
        t("c2", "pe", "e2"),
    ]);
    assert_transformed_semantics(
        &db,
        "PREFIX : <> SELECT * WHERE {
           { ?a1 :pa ?a2 . OPTIONAL { ?a2 :pb ?j . } }
           { { ?j :pc ?c2 . OPTIONAL { ?c2 :pd ?d2 . } }
             OPTIONAL { ?c2 :pe ?e2 . OPTIONAL { ?e2 :pf ?j . } } } }",
    );
}

/// The join drops the steps of a slave supernode pruned to nothing, except
/// when a live step reads a variable such a step binds first. Run over the
/// untransformed GoSN of `(A ⟕ B) ⟕ C`, where `?v` is in B and C but not
/// A, B's empty TP binds `?v` to NULL before C reads it, so every step
/// stays, and the rows are SQL's null-intolerant ones: C never matches.
/// With B's steps dropped, C would bind `?v` itself.
#[test]
fn a_live_step_reading_a_dead_binding_keeps_every_step() {
    use lbr::core::bindings::VarTable;
    use lbr::core::init::init;
    use lbr::core::jvar_order::get_jvar_order;
    use lbr::core::multiway::{multi_way_join, schedule, JoinInputs};
    use lbr::core::prune::{prune_triples, PruneScratch};
    use lbr::core::selectivity::{estimate_all, resolve};
    use lbr::sparql::{Goj, Gosn};
    use lbr::Catalog as _;

    let db = Database::from_triples(vec![
        t("a1", "p", "b1"),
        t("a2", "p", "b2"),
        t("b1", "q", "v1"),
        t("x", "absent", "y"),
    ]);
    let q = parse_query(
        "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <absent> ?v . } OPTIONAL { ?b <q> ?v . } }",
    )
    .unwrap();
    assert!(!is_well_designed(&q.pattern));
    let gosn = Gosn::from_pattern(&q.pattern).unwrap();
    let goj = Goj::new(&gosn);
    let vt = VarTable::new(&gosn).unwrap();
    let keys = resolve(&q.pattern, &gosn, db.dict());
    let est = estimate_all(&keys, db.store());
    let jorder = get_jvar_order(&gosn, &goj, &est);
    let mut scratch = PruneScratch::new();
    let mut tps = init(&gosn, &keys, &jorder, &est, db.store(), &mut scratch)
        .unwrap()
        .tps
        .unwrap();
    let dims = db.store().dims();
    prune_triples(&mut tps, &gosn, &goj, &jorder, &dims, &mut scratch);
    assert!(tps[1].is_empty(), "B's TP is pruned to nothing");
    let order = schedule(&mut tps, &gosn);
    let (rows, stats) = multi_way_join(&JoinInputs {
        tps: &tps,
        order: &order,
        gosn: &gosn,
        vt: &vt,
        dims,
        dict: db.dict(),
        fan_filters: Vec::new(),
        quota: None,
        deadline: None,
    });
    assert_eq!((stats.steps, stats.dropped), (3, 0), "every step kept");

    let sql = evaluate_reference(&q, db.dict(), db.store(), Semantics::NullIntolerant).unwrap();
    let cols: Vec<usize> = (gosn.vars().names())
        .map(|v| sql.vars.iter().position(|x| x == v).unwrap())
        .collect();
    let mut want: Vec<Vec<Option<lbr::core::Binding>>> = (sql.rows.iter())
        .map(|r| cols.iter().map(|&c| r[c]).collect())
        .collect();
    let mut got = rows;
    want.sort();
    got.sort();
    assert_eq!(got.len(), 2);
    assert!(got
        .iter()
        .all(|r| r[gosn.vars().id("v").unwrap()].is_none()));
    assert_eq!(got, want);
}

/// Pins LBR's answer on an NWD query where the Appendix-B definition and
/// SPARQL part ways. In `?s <p> ?o OPTIONAL { ?o <q> ?x } OPTIONAL
/// { ?x <r> ?y }`, `?x` of the second OPTIONAL also occurs in the first
/// OPTIONAL and not in the master, so both ⟕ edges become inner joins:
/// LBR (and `reordered`) return only the row where every part matches.
/// SPARQL's answer (the reference oracle) also keeps `<a> <a> <c> "1"`,
/// where the second OPTIONAL binds `?x` on its own; the pairwise engines
/// keep `<a> <a> NULL NULL`. The README states this deviation; this test
/// makes sure a rewrite of the violation walk cannot change it silently.
#[test]
fn nwd_chain_through_two_optionals_keeps_the_appendix_b_answer() {
    let db =
        Database::from_ntriples("<a> <p> <b> .\n<b> <q> <c> .\n<a> <p> <a> .\n<c> <r> \"1\" .\n")
            .unwrap();
    let query = "SELECT * WHERE { ?s <p> ?o OPTIONAL { ?o <q> ?x } OPTIONAL { ?x <r> ?y } }";
    let q = parse_query(query).unwrap();
    assert!(!is_well_designed(&q.pattern));
    let out = db.execute_query(&q).unwrap();
    assert_eq!(out.vars, ["s", "o", "x", "y"]);
    assert_eq!(out.render(db.dict()), ["<a>\t<b>\t<c>\t\"1\""]);
    let sparql = db
        .engine_of(lbr::EngineKind::Reference)
        .execute(&q)
        .unwrap();
    assert_eq!(sparql.len(), 2, "SPARQL keeps <a> <a> <c> \"1\" too");
    assert_transformed_semantics(&db, query);
}
