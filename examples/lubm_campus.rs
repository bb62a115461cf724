//! Runs the LUBM-like workload (Appendix E.1) at a small scale and prints
//! per-query statistics — a miniature of Table 6.2. Each query is
//! prepared once and executed repeatedly, the paper's warm-run
//! methodology expressed through the `PreparedQuery` API.
//!
//! ```sh
//! cargo run --release --example lubm_campus
//! ```

use lbr::datagen::lubm;
use lbr::Database;
use std::time::Instant;

const RUNS: u32 = 3;

fn main() {
    let cfg = lubm::LubmConfig {
        universities: 3,
        departments: 6,
        seed: 42,
    };
    let ds = lubm::dataset(&cfg);
    println!(
        "generated {} triples for {} universities",
        ds.graph.len(),
        cfg.universities
    );

    let db = Database::builder()
        .encoded(ds.graph.clone().encode())
        .build()
        .expect("encoded graph builds");
    println!(
        "{:<4} {:>10} {:>12} {:>10} {:>10} {:>7} {:>12}",
        "id", "results", "with-nulls", "initial", "pruned-to", "NB?", "avg-total"
    );
    for q in &ds.queries {
        // Plan once; time only the data phases across RUNS executions.
        let prepared = db.prepare(&q.text).expect("query prepares");
        let t = Instant::now();
        let mut out = prepared.execute().expect("query runs");
        for _ in 1..RUNS {
            out = prepared.execute().expect("query runs");
        }
        let total = t.elapsed();
        println!(
            "{:<4} {:>10} {:>12} {:>10} {:>10} {:>7} {:>11.2?}",
            q.id,
            out.len(),
            out.rows_with_nulls(),
            out.stats.initial_triples,
            out.stats.triples_after_pruning,
            if out.stats.nb_required { "yes" } else { "no" },
            total / RUNS,
        );
    }
}
