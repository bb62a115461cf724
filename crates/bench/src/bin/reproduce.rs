//! Regenerates every table of the LBR paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p lbr-bench --bin reproduce            # everything
//! cargo run --release -p lbr-bench --bin reproduce -- table6.2
//! LBR_SCALE=2.0 cargo run --release -p lbr-bench --bin reproduce
//! ```
//!
//! Subcommands: `table6.1`, `table6.2`, `table6.3`, `table6.4`,
//! `index-sizes`, `ablation-prune`, `ablation-reorder`, `all` (default).
//! `--json` additionally dumps the reports as JSON to stdout.
//!
//! Environment: `LBR_SCALE` (default 1.0) scales the generators,
//! `LBR_SEED` (default 42) seeds them.

use lbr_baseline::EngineKind;
use lbr_bench::{fmt_secs, prepare, render_table, run_dataset, run_engine, run_lbr, Prepared};
use lbr_bitmat::Catalog;
use lbr_datagen::{all_datasets, Dataset};
use lbr_sparql::parse_query;
use std::time::Instant;

/// Count heap allocations so the `allocs` column is real data; compare
/// runs with `git diff BENCH_*.json`.
#[global_allocator]
static ALLOC: lbr_bench::CountingAlloc = lbr_bench::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let scale: f64 = std::env::var("LBR_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let seed: u64 = std::env::var("LBR_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    eprintln!(
        "# LBR reproduction — scale {scale}, seed {seed}, {} timed runs per query",
        lbr_bench::RUNS
    );
    let t = Instant::now();
    let datasets = all_datasets(scale, seed);
    eprintln!("# generated all datasets in {:.2?}", t.elapsed());

    match what.as_str() {
        "table6.1" => table61(&datasets),
        "table6.2" => table_queries(&datasets, 0, "6.2 (LUBM)", json),
        "table6.3" => table_queries(&datasets, 1, "6.3 (UniProt)", json),
        "table6.4" => table_queries(&datasets, 2, "6.4 (DBPedia)", json),
        "index-sizes" => index_sizes(&datasets),
        "ablation-prune" => ablation_prune(&datasets),
        "ablation-reorder" => ablation_reorder(&datasets),
        "all" => {
            table61(&datasets);
            for (i, label) in [
                (0, "6.2 (LUBM)"),
                (1, "6.3 (UniProt)"),
                (2, "6.4 (DBPedia)"),
            ] {
                table_queries(&datasets, i, label, json);
            }
            index_sizes(&datasets);
            ablation_prune(&datasets);
            ablation_reorder(&datasets);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

/// Table 6.1: dataset characteristics.
fn table61(datasets: &[Dataset]) {
    println!("\n== Table 6.1: dataset characteristics ==");
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>12}",
        "Dataset", "#triples", "#S", "#P", "#O"
    );
    for ds in datasets {
        let p = prepare(ds.clone());
        let d = p.store.dims();
        println!(
            "{:<10} {:>12} {:>12} {:>8} {:>12}",
            ds.name, d.n_triples, d.n_subjects, d.n_predicates, d.n_objects
        );
    }
}

/// Tables 6.2–6.4: per-query processing times. Each report (including the
/// steady-state allocs-per-query) is also persisted as `BENCH_<dataset>.json` for
/// EXPERIMENTS.md regeneration; `git diff` shows the change against the
/// committed one.
fn table_queries(datasets: &[Dataset], idx: usize, label: &str, json: bool) {
    let p = prepare(datasets[idx].clone());
    println!("\n== Table {label}: query processing times ==");
    let report = run_dataset(&p);
    let path = format!("BENCH_{}.json", report.name);
    print!("{}", render_table(&report));
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => eprintln!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
    if json {
        println!("{}", report.to_json());
    }
}

/// §6.2 "Index Sizes" + the §4 hybrid-compression claim.
fn index_sizes(datasets: &[Dataset]) {
    println!("\n== Index sizes (hybrid vs pure-RLE row encoding, §4) ==");
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>9}",
        "Dataset", "#matrices", "hybrid", "pure RLE", "saving"
    );
    for ds in datasets {
        let p = prepare(ds.clone());
        let r = p.store.size_report();
        println!(
            "{:<10} {:>10} {:>13}K {:>13}K {:>8.1}%",
            ds.name,
            r.n_matrices,
            r.hybrid_bytes / 1024,
            r.rle_only_bytes / 1024,
            100.0 * r.saving()
        );
    }
}

/// Ablation: LBR with `prune_triples` vs plain multi-way join on unpruned
/// BitMats (approximated by the jvar orders being empty via a pairwise
/// run on the same store — here we time init+join with pruning disabled
/// through the public engine by comparing Tprune's share).
fn ablation_prune(datasets: &[Dataset]) {
    println!("\n== Ablation: share of time spent pruning (Tprune / Ttotal, §3.3) ==");
    println!(
        "{:<10} {:<4} {:>9} {:>9} {:>8} {:>12}",
        "Dataset", "Q", "Tprune", "Ttotal", "share", "pruned-away"
    );
    for ds in datasets {
        let p = prepare(ds.clone());
        for q in &p.dataset.queries {
            let (out, t) = run_lbr(&p, &q.text);
            let (t_prune, t_total) = (t.t_prune, t.t_total);
            let removed = out
                .stats
                .initial_triples
                .saturating_sub(out.stats.triples_after_pruning);
            println!(
                "{:<10} {:<4} {:>9} {:>9} {:>7.1}% {:>11.1}%",
                ds.name,
                q.id,
                fmt_secs(t_prune),
                fmt_secs(t_total),
                100.0 * t_prune / t_total.max(1e-9),
                100.0 * removed as f64 / (out.stats.initial_triples.max(1)) as f64,
            );
        }
    }
}

/// Ablation: the §3.1 reordering baseline (nullification + best-match) vs
/// LBR on the low-selectivity query of each dataset.
fn ablation_reorder(datasets: &[Dataset]) {
    println!("\n== Ablation: reorder+nullification+best-match vs LBR (§3.1) ==");
    println!(
        "{:<10} {:<4} {:>10} {:>12} {:>9}",
        "Dataset", "Q", "LBR", "Reordered", "rows"
    );
    for ds in datasets {
        let p: Prepared = prepare(ds.clone());
        let q = &p.dataset.queries[0]; // Q1: the low-selectivity query
        let (out, t) = run_lbr(&p, &q.text);
        let t_lbr = t.t_total;
        let query = parse_query(&q.text).unwrap();
        let engine = EngineKind::Reordered.build(&p.store, &p.graph.dict);
        let warm = engine.execute(&query).expect("reordered warm-up");
        assert_eq!(warm.len(), out.len(), "engines disagree on {}", q.id);
        let t_reordered =
            run_engine(&p, &q.text, EngineKind::Reordered).expect("reordered timed runs");
        println!(
            "{:<10} {:<4} {:>10} {:>12} {:>9}",
            ds.name,
            q.id,
            fmt_secs(t_lbr),
            fmt_secs(t_reordered),
            out.len()
        );
    }
}
