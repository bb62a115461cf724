//! Tests of the public API redesign: the `Database` builder,
//! `PreparedQuery` plan caching, and the streaming `Solutions` path.

use lbr::{parse_query, BitMatStore, Database, EngineKind, Graph, Term, Triple, UpdateError};
use std::sync::Arc;

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

fn triples() -> Vec<Triple> {
    vec![
        t("Jerry", "hasFriend", "Julia"),
        t("Jerry", "hasFriend", "Larry"),
        t("Julia", "actedIn", "Seinfeld"),
        t("Larry", "actedIn", "CurbYourEnthu"),
        t("Seinfeld", "location", "NewYorkCity"),
        t("CurbYourEnthu", "location", "LosAngeles"),
    ]
}

const Q2: &str = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
    OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }";

const WORKLOAD: [&str; 7] = [
    Q2,
    "PREFIX : <> SELECT ?friend WHERE { :Jerry :hasFriend ?friend . }",
    "PREFIX : <> SELECT * WHERE {
       { ?a :actedIn ?s . ?s :location :NewYorkCity . }
       UNION { ?a :actedIn ?s . ?s :location :LosAngeles . } }",
    "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f .
       OPTIONAL { ?f :actedIn ?s . FILTER(?s != :Seinfeld) } }",
    // Query forms & solution modifiers ride the same prepared/streaming
    // paths as plain SELECTs.
    "PREFIX : <> SELECT DISTINCT ?friend WHERE { :Jerry :hasFriend ?friend . ?friend :actedIn ?s . }",
    "PREFIX : <> SELECT ?friend ?s WHERE { :Jerry :hasFriend ?friend . ?friend :actedIn ?s . }
       ORDER BY ?friend DESC(?s) LIMIT 2 OFFSET 1",
    "PREFIX : <> ASK { :Jerry :hasFriend ?friend . }",
];

#[test]
fn builder_sources_agree() {
    let doc = "<a> <p> <b> .\n<b> <p> <c> .";
    let from_text = Database::builder().ntriples(doc).build().unwrap();
    let from_triples = Database::builder()
        .triples(vec![t("a", "p", "b"), t("b", "p", "c")])
        .build()
        .unwrap();
    let from_encoded = Database::builder()
        .encoded(lbr::Graph::from_triples(vec![t("a", "p", "b"), t("b", "p", "c")]).encode())
        .build()
        .unwrap();
    let q = "SELECT * WHERE { ?x <p> ?y . }";
    let expect = {
        let mut rows = from_text.execute(q).unwrap().render(from_text.dict());
        rows.sort();
        rows
    };
    for db in [&from_triples, &from_encoded] {
        let mut rows = db.execute(q).unwrap().render(db.dict());
        rows.sort();
        assert_eq!(rows, expect);
    }
}

#[test]
fn builder_without_source_errors() {
    let Err(err) = Database::builder().build() else {
        panic!("builder without a source must fail");
    };
    assert!(err.to_string().contains("no triple source"), "{err}");
}

#[test]
fn builder_ntriples_file_and_disk_index() {
    let dir = std::env::temp_dir().join("lbr-api-test");
    std::fs::create_dir_all(&dir).unwrap();
    let nt = dir.join("data.nt");
    std::fs::write(&nt, "<a> <p> <b> .\n<a> <p> <c> .\n").unwrap();

    let db = Database::builder().ntriples_file(&nt).build().unwrap();
    assert_eq!(db.len(), 2);

    // Persist the index, then query it lazily from disk.
    let idx = dir.join("data.lbr");
    lbr::bitmat::disk::save_store(db.store(), &idx).unwrap();
    let disk_db = Database::builder()
        .ntriples_file(&nt)
        .disk_index(&idx)
        .build()
        .unwrap();
    let q = "SELECT * WHERE { <a> <p> ?o . }";
    let mut mem_rows = db.execute(q).unwrap().render(db.dict());
    let mut disk_rows = disk_db.execute(q).unwrap().render(disk_db.dict());
    mem_rows.sort();
    disk_rows.sort();
    assert_eq!(mem_rows, disk_rows);
}

#[test]
fn builder_rejects_mismatched_disk_index() {
    let dir = std::env::temp_dir().join("lbr-api-test-mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let nt = dir.join("data.nt");
    std::fs::write(&nt, "<a> <p> <b> .\n").unwrap();
    let idx = dir.join("data.lbr");
    let db = Database::builder().ntriples_file(&nt).build().unwrap();
    lbr::bitmat::disk::save_store(db.store(), &idx).unwrap();

    // Same index, different data: silently-wrong answers must be refused.
    let other = dir.join("other.nt");
    std::fs::write(&other, "<a> <p> <b> .\n<c> <p> <d> .\n").unwrap();
    let Err(err) = Database::builder()
        .ntriples_file(&other)
        .disk_index(&idx)
        .build()
    else {
        panic!("mismatched disk index must be rejected");
    };
    assert!(err.to_string().contains("does not match the data"), "{err}");
}

/// Every database sits on the one store backend; a read-only one —
/// whichever medium its segments live on — must answer exactly like an
/// engine built directly over the plain BitMat index, and stay
/// unwritable at epoch 0.
#[test]
fn read_only_databases_match_a_direct_bitmat_engine_on_every_kind() {
    let dir = std::env::temp_dir().join("lbr-api-test-read-only");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = Graph::from_triples(triples()).encode();
    let direct = BitMatStore::build(&graph);
    let idx = dir.join("data.lbr");
    lbr::bitmat::disk::save_store(&direct, &idx).unwrap();

    let heap = Database::builder().triples(triples()).build().unwrap();
    let disk = Database::builder()
        .triples(triples())
        .disk_index(&idx)
        .build()
        .unwrap();
    for (source, db) in [("heap", &heap), ("disk_index", &disk)] {
        for kind in EngineKind::all() {
            let reference = kind.build(&direct, &graph.dict);
            let engine = db.engine_of(kind);
            for text in WORKLOAD {
                let query = parse_query(text).unwrap();
                let mut want = reference.execute(&query).unwrap().render(&graph.dict);
                let mut got = engine.execute(&query).unwrap().render(db.dict());
                want.sort();
                got.sort();
                assert_eq!(got, want, "{source} / {kind} on {text}");
            }
        }
        let refused = db.update("INSERT DATA { <Jerry> <hasFriend> <Seinfeld> }");
        assert!(matches!(refused, Err(UpdateError::ReadOnly)), "{source}");
        assert!(
            matches!(db.compact(), Err(UpdateError::ReadOnly)),
            "{source}"
        );
        assert_eq!(db.epoch(), 0, "{source}");
        assert!(db.mutable_store().is_none(), "{source}");
        assert_eq!(db.len(), triples().len(), "{source}");
    }
}

/// The builder has no engine knob: the database it builds runs LBR by
/// default, and each engine behind `engine_of` is the kind asked for and
/// agrees with it on Q2.
#[test]
fn builder_default_engine_is_honored() {
    let db = Database::builder().triples(triples()).build().unwrap();
    let expected = vec![
        "<Julia>\t<Seinfeld>".to_string(),
        "<Larry>\tNULL".to_string(),
    ];
    let mut rows = db.execute(Q2).unwrap().render(db.dict());
    rows.sort();
    assert_eq!(rows, expected);
    let text = db.explain(Q2).unwrap();
    assert!(text.contains("GoSN"), "{text}");

    let query = parse_query(Q2).unwrap();
    for kind in EngineKind::all() {
        let engine = db.engine_of(kind);
        assert_eq!(engine.name(), kind.name());
        let mut rows = engine.execute(&query).unwrap().render(db.dict());
        rows.sort();
        assert_eq!(rows, expected, "{kind}");
    }
}

/// `Database` runs LBR on every path: one-shot and prepared execution
/// (re-executed, since the cached plan is not consumed) must each match
/// every engine behind `engine_of`, on every workload query.
#[test]
fn prepared_reexecution_matches_one_shot() {
    let db = Database::from_triples(triples());
    let sorted = |out: lbr::QueryOutput| {
        let mut rows = out.render(db.dict());
        rows.sort();
        rows
    };
    for query in WORKLOAD {
        let one_shot = sorted(db.execute(query).unwrap());
        let prepared = db.prepare(query).unwrap();
        for _ in 0..3 {
            assert_eq!(
                sorted(prepared.execute().unwrap()),
                one_shot,
                "prepared deviates on {query}"
            );
        }
        let parsed = parse_query(query).unwrap();
        for kind in EngineKind::all() {
            let rows = sorted(db.engine_of(kind).execute(&parsed).unwrap());
            assert_eq!(rows, one_shot, "{kind} deviates on {query}");
        }
    }
}

#[test]
fn solutions_named_accessors() {
    let db = Database::from_triples(triples());
    let mut seen = Vec::new();
    for row in db.solutions(Q2).unwrap() {
        assert_eq!(row.vars(), ["friend".to_string(), "sitcom".to_string()]);
        let friend = row.term("friend").expect("friend always bound");
        let sitcom = row.term("sitcom").map(|t| t.to_string());
        assert_eq!(row.is_bound("sitcom"), sitcom.is_some());
        assert_eq!(row.term("not-a-var"), None);
        assert!(row.binding("friend").is_some());
        seen.push((friend.to_string(), sitcom));
    }
    seen.sort();
    assert_eq!(
        seen,
        vec![
            ("<Julia>".to_string(), Some("<Seinfeld>".to_string())),
            ("<Larry>".to_string(), None),
        ]
    );
}

#[test]
fn solutions_match_query_output_row_for_row() {
    let db = Database::from_triples(triples());
    for query in WORKLOAD {
        let materialized = db.execute(query).unwrap();
        let expect = materialized.render(db.dict());
        let streamed: Vec<String> = db
            .solutions(query)
            .unwrap()
            .map(|row| row.render())
            .collect();
        assert_eq!(streamed, expect, "streaming deviates on {query}");

        // And collect_output round-trips losslessly.
        let collected = db.solutions(query).unwrap().collect_output();
        assert_eq!(collected.vars, materialized.vars);
        assert_eq!(collected.rows, materialized.rows);
    }
}

#[test]
fn prepared_solutions_and_stats() {
    let db = Database::from_triples(triples());
    let prepared = db.prepare(Q2).unwrap();
    let solutions = prepared.solutions().unwrap();
    assert_eq!(
        solutions.vars(),
        ["friend".to_string(), "sitcom".to_string()]
    );
    assert_eq!(solutions.stats().n_results, 2);
    assert_eq!(solutions.stats().n_results_with_nulls, 1);
    assert_eq!(solutions.count(), 2);
}

/// A prepared query is a plan, not a pinned engine: every execution reads
/// the snapshot current at that call (re-planning once the plan's epoch is
/// stale), and neither preparing nor executing keeps a superseded
/// snapshot alive.
#[test]
fn prepared_query_sees_updates_and_pins_no_snapshot() {
    let db = Database::builder()
        .triples(triples())
        .updatable()
        .build()
        .unwrap();
    let prepared = db
        .prepare("SELECT ?f WHERE { <Jerry> <hasFriend> ?f . }")
        .unwrap();
    assert_eq!(prepared.execute().unwrap().len(), 2);
    let superseded = Arc::downgrade(&db.mutable_store().unwrap().snapshot());

    // Existing terms in existing roles: a delta-only commit.
    db.update("INSERT DATA { <Jerry> <hasFriend> <Seinfeld> }")
        .unwrap();
    assert_eq!(prepared.execute().unwrap().len(), 3, "new row visible");
    assert!(
        superseded.upgrade().is_none(),
        "the snapshot the query was prepared on must be freed once superseded"
    );

    // A new term rebuilds the dictionary: the plan's baked IDs are stale
    // and must not be run against the new one.
    db.update("INSERT DATA { <Jerry> <hasFriend> <Newman> }")
        .unwrap();
    let mut rows = prepared.execute().unwrap().render(db.dict());
    rows.sort();
    assert_eq!(rows, ["<Julia>", "<Larry>", "<Newman>", "<Seinfeld>"]);
    assert_eq!(prepared.solutions().unwrap().count(), 4);
}

#[test]
fn prepared_explain_shows_the_plan() {
    let db = Database::from_triples(triples());
    let prepared = db.prepare(Q2).unwrap();
    let text = prepared.explain().unwrap();
    assert!(text.contains("GoSN"), "{text}");
    assert!(text.contains("jvar order"), "{text}");
    // At one epoch, the prepared plan is the one-shot plan.
    assert_eq!(text, db.explain(Q2).unwrap());
}

#[test]
fn ask_and_modifiers_through_the_database_api() {
    let db = Database::from_triples(triples());
    assert!(db
        .ask("PREFIX : <> ASK { :Jerry :hasFriend ?f . }")
        .unwrap());
    assert!(!db
        .ask("PREFIX : <> ASK { :Julia :hasFriend ?f . }")
        .unwrap());
    // SELECT text works too (existence of any solution).
    assert!(db
        .ask("PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f . }")
        .unwrap());
    // ASK output surfaces through QueryOutput::boolean and Solutions.
    let out = db
        .execute("PREFIX : <> ASK { :Jerry :hasFriend ?f . }")
        .unwrap();
    assert_eq!(out.boolean(), Some(true));
    assert_eq!(out.len(), 1);
    let solutions = db
        .solutions("PREFIX : <> ASK { :Jerry :hasFriend ?f . }")
        .unwrap();
    assert_eq!(solutions.vars(), Vec::<String>::new().as_slice());
    assert_eq!(solutions.count(), 1, "one zero-column row = true");
    // Prepared ASK re-executes cheaply and keeps its boolean shape.
    let prepared = db
        .prepare("PREFIX : <> ASK { :Nobody :hasFriend ?f . }")
        .unwrap();
    for _ in 0..3 {
        assert_eq!(prepared.execute().unwrap().boolean(), Some(false));
    }
    // Modifiers through the one-shot API: deterministic ordered slice.
    let out = db
        .execute(
            "PREFIX : <> SELECT ?s WHERE { :Jerry :hasFriend ?f . ?f :actedIn ?s . }
               ORDER BY DESC(?s) LIMIT 2",
        )
        .unwrap();
    assert_eq!(
        out.render(db.dict()),
        vec!["<Seinfeld>".to_string(), "<CurbYourEnthu>".to_string()]
    );
}

#[test]
fn engine_trait_objects_expose_names_and_dict() {
    let db = Database::from_triples(triples());
    for kind in EngineKind::all() {
        let engine = db.engine_of(kind);
        assert_eq!(engine.name(), kind.name());
        assert!(std::ptr::eq(engine.dict(), db.dict()));
    }
}

/// Runs `run` under [`lbr::core::traced`]: its output and drained spans.
fn traced_spans(run: impl FnOnce() -> lbr::QueryOutput) -> (lbr::QueryOutput, Vec<lbr::obs::Span>) {
    let mut spans = Vec::new();
    let out = lbr::core::traced(&mut spans, run);
    (out, spans)
}

/// The `dur_us` of every span called `stage`, in recording order.
fn durations(spans: &[lbr::obs::Span], stage: &str) -> Vec<u64> {
    let named = spans.iter().filter(|s| s.name == stage);
    named.map(|s| s.dur_us).collect()
}

/// Each planning records exactly one `plan` span, whoever planned, and
/// each parse through the facade one `parse` span; a prepared or cached
/// plan records neither. EXPLAIN ANALYZE plans inside its trace and
/// prints the `plan` line.
#[test]
fn each_planning_records_one_plan_span() {
    const QUERY: &str = "SELECT ?f WHERE { <Jerry> <hasFriend> ?f . }";
    let db = Database::builder()
        .triples(triples())
        .updatable()
        .build()
        .unwrap();
    let count = |spans: &[lbr::obs::Span], name: &str| durations(spans, name).len();
    let (_, spans) = traced_spans(|| db.execute(QUERY).unwrap());
    assert_eq!((count(&spans, "parse"), count(&spans, "plan")), (1, 1));
    let mut spans = Vec::new();
    let prepared = lbr::core::traced(&mut spans, || db.prepare(QUERY).unwrap());
    assert_eq!((count(&spans, "parse"), count(&spans, "plan")), (1, 1));
    let (_, spans) = traced_spans(|| prepared.execute().unwrap());
    assert_eq!((count(&spans, "parse"), count(&spans, "plan")), (0, 0));
    let cache = lbr::PlanCache::new(4);
    for want in [1, 0] {
        let (_, spans) = traced_spans(|| db.execute_cached(&cache, QUERY).unwrap());
        assert_eq!(
            (count(&spans, "parse"), count(&spans, "plan")),
            (want, want)
        );
    }
    // A plan from an older epoch is planned again: one more `plan` span.
    db.update("INSERT DATA { <Jerry> <hasFriend> <Kramer> }")
        .unwrap();
    let (out, spans) = traced_spans(|| prepared.execute().unwrap());
    assert_eq!((out.len(), count(&spans, "plan")), (3, 1));
    let text = db.explain_analyze(QUERY).unwrap();
    assert!(text.lines().any(|l| l.starts_with("plan: ")), "{text}");
}

/// Every stage of a traced execution shows up in the drained spans on
/// both entry points: one-shot `Database::execute` and the prepared
/// (cached-plan) path the server and the benchmark use. `finalize` is
/// emitted by the shared modifier seam, so neither path can miss it.
/// A Cartesian query records one stage group per component, an early
/// abort stops after `init`, and a comparator records no stage span.
#[test]
fn traced_execution_spans_every_stage() {
    const QUERY: &str = "PREFIX : <> SELECT ?friend ?s WHERE { :Jerry :hasFriend ?friend .
        ?friend :actedIn ?s . } ORDER BY ?friend LIMIT 1";
    const STAGES: [&str; 3] = ["init", "prune", "join"];
    let db = Database::from_triples(triples());
    let prepared = db.prepare(QUERY).unwrap();
    for (path, (out, spans)) in [
        (
            "Database::execute",
            traced_spans(|| db.execute(QUERY).unwrap()),
        ),
        (
            "PreparedQuery::execute",
            traced_spans(|| prepared.execute().unwrap()),
        ),
    ] {
        assert_eq!(out.len(), 1);
        for stage in ["init", "prune", "join", "finalize"] {
            assert_eq!(
                durations(&spans, stage).len(),
                1,
                "{path}: want one `{stage}` span in {spans:?}"
            );
        }
    }

    // Two connected components run as one join: one stage group.
    let cartesian = "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?f . ?s :location ?l . }";
    let (out, spans) = traced_spans(|| db.execute(cartesian).unwrap());
    assert_eq!(out.len(), 4, "2 friends × 2 locations");
    for stage in STAGES {
        let each = durations(&spans, stage);
        assert_eq!(each.len(), 1, "want one `{stage}` span in {spans:?}");
        assert_eq!(lbr::obs::stage_us(&spans, stage), each[0]);
    }

    // An empty absolute master aborts inside `init`: nothing is pruned
    // or joined.
    let empty = "PREFIX : <> SELECT * WHERE { :Julia :hasFriend ?f . ?f :actedIn ?s . }";
    let (out, spans) = traced_spans(|| db.execute(empty).unwrap());
    assert!(out.stats.aborted_empty);
    assert_eq!(durations(&spans, "init").len(), 1, "{spans:?}");
    assert!(durations(&spans, "join").is_empty(), "{spans:?}");

    // A comparator keeps no stage times at all.
    let pairwise = db.engine_of(EngineKind::PairwiseSelectivity);
    let query = parse_query(Q2).unwrap();
    let (_, spans) = traced_spans(|| pairwise.execute(&query).unwrap());
    for stage in STAGES {
        assert!(durations(&spans, stage).is_empty(), "{spans:?}");
    }
}
