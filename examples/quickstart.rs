//! Quickstart: build a database, prepare an OPTIONAL query once, stream
//! the rows with name-based accessors.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lbr::Database;
use std::time::Instant;

fn main() {
    let db = Database::builder()
        .ntriples(
            r#"
            <Jerry>    <hasFriend> <Julia> .
            <Jerry>    <hasFriend> <Larry> .
            <Julia>    <actedIn>   <Seinfeld> .
            <Julia>    <actedIn>   <Veep> .
            <Larry>    <actedIn>   <CurbYourEnthusiasm> .
            <Seinfeld> <location>  <NewYorkCity> .
            <Veep>     <location>  <WashingtonDC> .
            "#,
        )
        .build()
        .expect("valid N-Triples");

    // Q2 of the paper's introduction: all of Jerry's friends; for those who
    // acted in a New York City sitcom, also the sitcom. Preparing runs the
    // parse → UNF rewrite → analysis → jvar-order pipeline once; each
    // execution afterwards only touches data.
    let prepared = db
        .prepare(
            r#"
            SELECT ?friend ?sitcom WHERE {
              <Jerry> <hasFriend> ?friend .
              OPTIONAL { ?friend <actedIn> ?sitcom .
                         ?sitcom <location> <NewYorkCity> . } }
            "#,
        )
        .expect("query prepares");

    println!("?friend\t?sitcom");
    let t = Instant::now();
    let solutions = prepared.solutions().expect("query runs");
    let elapsed = t.elapsed();
    let stats = solutions.stats().clone();
    let mut rows: Vec<String> = solutions
        .map(|row| {
            // Name-based, dictionary-bound access — no column indexes, no
            // dict() threading.
            let friend = row.term("friend").expect("friend is always bound");
            let sitcom = row
                .term("sitcom")
                .map_or_else(|| "—".to_string(), |t| t.to_string());
            format!("{friend}\t{sitcom}")
        })
        .collect();
    rows.sort();
    for row in rows {
        println!("{row}");
    }
    println!(
        "\n{} rows ({} with NULLs) in {:?}; pruned {} → {} candidate triples",
        stats.n_results,
        stats.n_results_with_nulls,
        elapsed,
        stats.initial_triples,
        stats.triples_after_pruning,
    );

    // Query forms & solution modifiers: ASK short-circuits the join at
    // the first surviving row; DISTINCT/ORDER BY/LIMIT run through the
    // shared modifier seam (dedup on encoded IDs, documented term order).
    let jerry_has_friends = db
        .ask("ASK { <Jerry> <hasFriend> ?f . }")
        .expect("ask runs");
    println!("\nASK {{ <Jerry> <hasFriend> ?f }} → {jerry_has_friends}");

    let top = db
        .execute(
            "SELECT DISTINCT ?sitcom WHERE { ?a <actedIn> ?sitcom . }
             ORDER BY ?sitcom LIMIT 2",
        )
        .expect("modifier query runs");
    println!("first two sitcoms alphabetically:");
    for line in top.render(db.dict()) {
        println!("  {line}");
    }
}
