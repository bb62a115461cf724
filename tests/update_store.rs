//! The updatable store, end to end through the `Database` facade:
//!
//! * **overlay equivalence** — every engine behind [`EngineKind`] must
//!   answer queries over (base segments + delta memtable) exactly as it
//!   answers them over a database built from scratch on the merged
//!   triples — the delta must be invisible;
//! * **byte-level equivalence after compaction** — folding the delta
//!   into fresh segments keeps the same dictionary, so the ID-level
//!   result rows before and after compaction must be identical;
//! * **snapshot isolation** — an engine bound before an update keeps
//!   answering from its snapshot, byte-identically, while (and after)
//!   concurrent commits publish new epochs;
//! * **SPARQL 1.1 Update semantics** — `INSERT DATA` / `DELETE DATA` /
//!   `DELETE WHERE` and `;`-sequences through [`Database::update`].

use lbr::{parse_query, Database, EngineKind, Term, Triple};

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// Sorted decoded rows through the unified `Engine` trait.
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

/// Every engine must answer `query` identically on the delta-resident
/// database and on a from-scratch database over the same
/// logical triples.
#[track_caller]
fn assert_equivalent(updatable: &Database, query: &str) {
    let rebuilt = Database::from_triples(updatable.triples());
    for kind in EngineKind::all() {
        assert_eq!(
            engine_rows(updatable, kind, query),
            engine_rows(&rebuilt, kind, query),
            "{kind} sees the delta on: {query}"
        );
    }
}

const BASE: &str = r#"
    <Jerry> <hasFriend> <Julia> .
    <Jerry> <hasFriend> <Larry> .
    <Julia> <actedIn> <Seinfeld> .
    <Larry> <actedIn> <CurbYourEnthusiasm> .
    <Seinfeld> <location> <NewYorkCity> .
"#;

const QUERIES: [&str; 5] = [
    "SELECT * WHERE { ?s ?p ?o . }",
    "SELECT * WHERE { <Jerry> <hasFriend> ?f . ?f <actedIn> ?show . }",
    "SELECT * WHERE { <Jerry> <hasFriend> ?f . \
       OPTIONAL { ?f <actedIn> ?show . ?show <location> <NewYorkCity> . } }",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o . } ORDER BY ?p",
    "ASK { ?s <actedIn> ?show . ?show <location> ?where . }",
];

fn updatable() -> Database {
    Database::builder()
        .ntriples(BASE)
        .updatable()
        .build()
        .unwrap()
}

#[test]
fn delta_resident_inserts_and_deletes_are_invisible_to_every_engine() {
    let db = updatable();
    // Phase 1: fast-path delta (all terms exist in their roles).
    db.update(
        "INSERT DATA { <Julia> <hasFriend> <Larry> . <Jerry> <actedIn> <Seinfeld> } ; \
         DELETE DATA { <Larry> <actedIn> <CurbYourEnthusiasm> }",
    )
    .unwrap();
    assert!(
        !db.mutable_store().unwrap().current_ref().delta().is_empty(),
        "updates should be delta-resident, or this test exercises nothing"
    );
    for query in QUERIES {
        assert_equivalent(&db, query);
    }

    // Phase 2: a new term forces the rebuild path (fresh dictionary).
    db.update("INSERT DATA { <Kramer> <hasFriend> <Jerry> . <Kramer> <actedIn> <Seinfeld> }")
        .unwrap();
    // Phase 3: more fast-path churn on top of the rebuilt base.
    db.update(
        "DELETE WHERE { <Jerry> <hasFriend> ?f } ; \
               INSERT DATA { <Jerry> <hasFriend> <Kramer> }",
    )
    .unwrap();
    for query in QUERIES {
        assert_equivalent(&db, query);
    }
}

#[test]
fn compaction_preserves_results_byte_for_byte_and_empties_the_delta() {
    let db = updatable();
    db.update(
        "INSERT DATA { <Julia> <hasFriend> <Larry> } ; \
         DELETE DATA { <Seinfeld> <location> <NewYorkCity> }",
    )
    .unwrap();
    let store = db.mutable_store().unwrap();
    assert!(!store.current_ref().delta().is_empty());

    // Compaction keeps the dictionary, so even the *encoded* rows must
    // be identical — the strongest equivalence the engines can show.
    let before: Vec<_> = QUERIES
        .iter()
        .map(|q| {
            db.engine_of(EngineKind::Lbr)
                .execute(&parse_query(q).unwrap())
                .unwrap()
                .rows
        })
        .collect();
    let epoch_before = db.epoch();
    db.compact().unwrap();
    assert_eq!(
        db.epoch(),
        epoch_before + 1,
        "compaction publishes an epoch"
    );
    assert!(store.current_ref().delta().is_empty(), "delta folded away");
    for (q, expected) in QUERIES.iter().zip(before) {
        let after = db
            .engine_of(EngineKind::Lbr)
            .execute(&parse_query(q).unwrap())
            .unwrap()
            .rows;
        assert_eq!(after, expected, "compaction changed ID-level rows of {q}");
    }
    for query in QUERIES {
        assert_equivalent(&db, query);
    }
}

#[test]
fn automatic_compaction_at_the_threshold() {
    let db = updatable();
    let store = db.mutable_store().unwrap();
    store.set_compact_threshold(3);
    // All terms stay in roles the dictionary already knows, so every
    // insert takes the fast delta path (a new role would rebuild and
    // reset the delta, bypassing what this test measures).
    db.insert_triples(vec![t("Julia", "hasFriend", "Larry")])
        .unwrap();
    db.insert_triples(vec![t("Larry", "hasFriend", "Julia")])
        .unwrap();
    assert_eq!(store.current_ref().delta().len(), 2);
    // The third delta entry crosses the threshold: the commit folds.
    db.insert_triples(vec![t("Julia", "actedIn", "CurbYourEnthusiasm")])
        .unwrap();
    assert!(store.current_ref().delta().is_empty(), "auto-compacted");
    assert_eq!(db.len(), 8);
    for query in QUERIES {
        assert_equivalent(&db, query);
    }
}

#[test]
fn snapshot_isolation_pinned_reader_is_unaffected_by_commits() {
    let db = updatable();
    let q = parse_query("SELECT * WHERE { <Jerry> <hasFriend> ?f . }").unwrap();
    // Bind an engine to the current snapshot…
    let pinned = db.engine_of(EngineKind::Lbr);
    let before = pinned.execute(&q).unwrap();
    assert_eq!(before.rows.len(), 2);

    // …then commit through every path: fast delta, rebuild, compaction.
    db.update("DELETE WHERE { <Jerry> <hasFriend> ?f }")
        .unwrap();
    db.update("INSERT DATA { <Jerry> <hasFriend> <Kramer> }")
        .unwrap();
    db.compact().unwrap();

    // The pinned engine still answers from its snapshot, byte for byte.
    let after = pinned.execute(&q).unwrap();
    assert_eq!(after.rows, before.rows, "pinned snapshot drifted");
    // A fresh engine sees the new state.
    let fresh: Vec<_> = db
        .engine_of(EngineKind::Lbr)
        .execute(&q)
        .unwrap()
        .decode(db.dict())
        .into_iter()
        .map(|r| r[0].clone().unwrap().to_string())
        .collect();
    assert_eq!(fresh, vec!["<Kramer>".to_string()]);
}

#[test]
fn concurrent_readers_and_writer_never_see_torn_state() {
    let db = updatable();
    let writer_rounds = 40;
    std::thread::scope(|scope| {
        let db = &db;
        // Writer: grow and shrink <Newman>'s friend list, one commit at
        // a time. Every commit is atomic, so readers must only ever see
        // a prefix-closed friend set.
        scope.spawn(move || {
            for i in 0..writer_rounds {
                db.update(&format!("INSERT DATA {{ <Jerry> <knows> <P{i}> }}"))
                    .unwrap();
            }
        });
        for _ in 0..3 {
            scope.spawn(move || {
                let q = parse_query("SELECT * WHERE { ?s <knows> ?p . }").unwrap();
                let store = db.mutable_store().unwrap();
                for _ in 0..writer_rounds {
                    // Pin one snapshot per round: engine and decoding
                    // dictionary must come from the same epoch. Every
                    // insert of a new <P_i> term takes the rebuild path
                    // (fresh dictionary + segments), so a torn pairing
                    // would decode garbage or panic.
                    let snap = store.snapshot();
                    let out = EngineKind::Lbr
                        .build(snap.catalog(), snap.dict())
                        .execute(&q)
                        .unwrap();
                    assert!(out.rows.len() <= writer_rounds);
                    for row in out.decode(snap.dict()) {
                        let p = row[1].clone().expect("bound in a BGP").to_string();
                        assert!(p.starts_with("<P"), "garbage binding {p}");
                    }
                }
            });
        }
    });
    let final_count = db
        .execute("SELECT * WHERE { <Jerry> <knows> ?p . }")
        .unwrap()
        .rows
        .len();
    assert_eq!(final_count, writer_rounds);
}

#[test]
fn update_semantics_through_the_facade() {
    let db = updatable();

    // Inserting an existing triple is a no-op; the epoch holds still.
    let outcome = db
        .update("INSERT DATA { <Jerry> <hasFriend> <Julia> }")
        .unwrap();
    assert_eq!(
        (outcome.inserted, outcome.deleted, outcome.epoch),
        (0, 0, 0)
    );

    // A sequence executes in order: the delete sees the insert.
    let outcome = db
        .update(
            "INSERT DATA { <Jerry> <hasFriend> <George> } ; \
             DELETE WHERE { <Jerry> <hasFriend> ?f }",
        )
        .unwrap();
    assert_eq!(outcome.inserted, 1);
    assert_eq!(outcome.deleted, 3, "Julia, Larry and the fresh George");
    assert!(!db.ask("ASK { <Jerry> <hasFriend> ?f }").unwrap());

    // DELETE WHERE with a join pattern instantiates across patterns.
    let deleted = db
        .update("DELETE WHERE { ?who <actedIn> ?show . ?show <location> ?city }")
        .unwrap()
        .deleted;
    assert_eq!(deleted, 2, "the actedIn and location triples of the match");
    assert!(
        db.ask("ASK { <Larry> <actedIn> ?s }").unwrap(),
        "non-match kept"
    );

    // Deleting triples of unknown terms is a no-op, not an error.
    let outcome = db.update("DELETE DATA { <no> <such> <triple> }").unwrap();
    assert_eq!(outcome.deleted, 0);

    // Read-only databases refuse updates.
    let fixed = Database::from_ntriples(BASE).unwrap();
    assert!(matches!(
        fixed.update("INSERT DATA { <a> <b> <c> }"),
        Err(lbr::UpdateError::ReadOnly)
    ));
    assert_eq!(fixed.epoch(), 0);
}

#[test]
fn a_sequence_commits_atomically_as_one_epoch() {
    let db = updatable();
    let before = db.epoch();
    // Three operations, one request: the whole thing is one commit.
    let outcome = db
        .update(
            "INSERT DATA { <Jerry> <hasFriend> <Newman> } ; \
             DELETE DATA { <Jerry> <hasFriend> <Larry> } ; \
             INSERT DATA { <Larry> <hasFriend> <Jerry> }",
        )
        .unwrap();
    assert_eq!((outcome.inserted, outcome.deleted), (2, 1));
    assert_eq!(
        outcome.epoch,
        before + 1,
        "a whole `;`-sequence is one epoch bump, not one per operation"
    );
    assert!(db.ask("ASK { <Jerry> <hasFriend> <Newman> }").unwrap());
    assert!(!db.ask("ASK { <Jerry> <hasFriend> <Larry> }").unwrap());
    assert!(db.ask("ASK { <Larry> <hasFriend> <Jerry> }").unwrap());
}

#[test]
fn a_net_noop_sequence_keeps_the_epoch_and_logs_nothing() {
    let dir = std::env::temp_dir().join(format!("lbr-atomic-noop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::builder()
        .ntriples(BASE)
        .wal_dir(&dir)
        .build()
        .unwrap();
    // The insert introduces a fresh term, the DELETE WHERE (evaluated on
    // the staged view — exercising the scratch-index fallback, since
    // <Kramer> is not in the snapshot's dictionary) removes it again:
    // net zero, so nothing commits, nothing is logged.
    let outcome = db
        .update(
            "INSERT DATA { <Kramer> <hasFriend> <Jerry> } ; \
             DELETE WHERE { <Kramer> <hasFriend> ?f }",
        )
        .unwrap();
    assert_eq!(
        (outcome.inserted, outcome.deleted, outcome.epoch),
        (1, 1, 0)
    );
    assert!(!db.ask("ASK { <Kramer> ?p ?o }").unwrap());
    let rec = lbr::storage::Wal::inspect(&dir).unwrap();
    assert!(rec.records.is_empty(), "a net no-op reaches the WAL");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn literals_survive_the_update_path() {
    let db = updatable();
    db.update("INSERT DATA { <Seinfeld> <tagline> \"a show about\\nnothing \\\"quoted\\\"\" }")
        .unwrap();
    let rows = db
        .execute("SELECT * WHERE { <Seinfeld> <tagline> ?t . }")
        .unwrap()
        .decode(db.dict())
        .into_iter()
        .map(|r| r[0].clone().unwrap())
        .collect::<Vec<_>>();
    assert_eq!(
        rows,
        vec![Term::literal("a show about\nnothing \"quoted\"")]
    );
    for query in QUERIES {
        assert_equivalent(&db, query);
    }
    db.update("DELETE WHERE { <Seinfeld> <tagline> ?t }")
        .unwrap();
    assert!(!db.ask("ASK { <Seinfeld> <tagline> ?t }").unwrap());
}

/// `wal_dir` + `disk_index` together: the delta memtable layers over
/// **mmap'd** segments instead of heap-built ones. Fast-path updates must
/// be invisible to every engine exactly as on the in-memory overlay, and
/// reopening the same directory + index must replay the WAL to the
/// identical state without rebuilding BitMats from the triples.
#[test]
fn updatable_database_over_a_disk_index_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("lbr-upd-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let idx = dir.join("base.lbr");
    {
        let mem = Database::builder().ntriples(BASE).build().unwrap();
        lbr::bitmat::disk::save_store(mem.store(), &idx).unwrap();
    }
    let wal = dir.join("wal");

    let open = || {
        Database::builder()
            .ntriples(BASE)
            .disk_index(&idx)
            .wal_dir(&wal)
            .build()
            .unwrap()
    };

    let view = {
        let db = open();
        // Fast path: existing terms in existing roles land in the delta
        // over the mmap'd segments.
        let outcome = db
            .update(
                "INSERT DATA { <Julia> <hasFriend> <Larry> } ; \
                 DELETE DATA { <Jerry> <hasFriend> <Larry> }",
            )
            .unwrap();
        assert_eq!((outcome.inserted, outcome.deleted), (1, 1));
        assert!(db.ask("ASK { <Julia> <hasFriend> <Larry> }").unwrap());
        assert!(!db.ask("ASK { <Jerry> <hasFriend> <Larry> }").unwrap());
        // The merged view is what every engine must agree on.
        for query in QUERIES {
            assert_equivalent(&db, query);
        }
        db.triples()
    };

    // Reopen: same index + WAL replay ⇒ byte-identical merged view.
    let db = open();
    assert_eq!(db.triples(), view);
    assert_eq!(db.epoch(), 1, "the one logged record replays");
    for query in QUERIES {
        assert_equivalent(&db, query);
    }
    // And it keeps accepting updates, including a rebuild (fresh term).
    db.update("INSERT DATA { <Kramer> <hasFriend> <Jerry> }")
        .unwrap();
    assert!(db.ask("ASK { <Kramer> <hasFriend> <Jerry> }").unwrap());
    let db2 = open();
    assert!(db2.ask("ASK { <Kramer> <hasFriend> <Jerry> }").unwrap());
    assert_eq!(db2.triples(), db.triples());
    std::fs::remove_dir_all(&dir).unwrap();
}
