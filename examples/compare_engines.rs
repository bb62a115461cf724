//! Head-to-head of the executors on one low-selectivity OPTIONAL query:
//! LBR, both pairwise hash-join configurations (Virtuoso/MonetDB analogs)
//! and the outer-join-reordering engine — all dispatched through the one
//! `Engine` trait via `EngineKind`, with no per-engine code.
//!
//! ```sh
//! cargo run --release --example compare_engines
//! ```

use lbr::datagen::uniprot;
use lbr::{parse_query, Database, EngineKind};
use std::time::{Duration, Instant};

fn main() {
    let ds = uniprot::dataset(&uniprot::UniProtConfig {
        proteins: 4000,
        taxa: 30,
        seed: 42,
    });
    let db = Database::builder()
        .encoded(ds.graph.clone().encode())
        .build()
        .expect("encoded graph builds");
    println!("UniProt-like dataset: {} triples", db.len());

    // Q1: three blocks, two OPTIONALs, low selectivity.
    let q = &ds.queries[0];
    let query = parse_query(&q.text).unwrap();
    println!("query {} — {}", q.id, q.note);

    // The reference oracle is O(rows²) — every other engine runs here.
    let contenders = [
        EngineKind::Lbr,
        EngineKind::PairwiseSelectivity,
        EngineKind::PairwiseQueryOrder,
        EngineKind::Reordered,
    ];
    let mut n_rows: Option<usize> = None;
    for kind in contenders {
        let engine = db.engine_of(kind);
        // Traced: LBR's stage times are its spans.
        let mut spans = Vec::new();
        let t = Instant::now();
        let out = lbr::core::traced(&mut spans, || engine.execute(&query)).expect("query runs");
        let elapsed = t.elapsed();
        let stage = |name| Duration::from_micros(lbr::obs::stage_us(&spans, name));
        match n_rows {
            None => n_rows = Some(out.len()),
            Some(n) => assert_eq!(n, out.len(), "engines disagree"),
        }
        let phases = if kind == EngineKind::Lbr {
            format!(
                "  (init {:.2?}, prune {:.2?}, join {:.2?}; pruning {} → {} candidates)",
                stage("init"),
                stage("prune"),
                stage("join"),
                out.stats.initial_triples,
                out.stats.triples_after_pruning,
            )
        } else {
            String::new()
        };
        println!("{:<12} {elapsed:>10.2?}{phases}", kind.name());
    }
    println!("rows: {}", n_rows.unwrap_or(0));
}
