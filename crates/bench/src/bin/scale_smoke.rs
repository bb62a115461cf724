//! CI scale smoke: generate a ~1M-triple LUBM tier, load its N-Triples
//! text the way every text caller does (`EncodedGraph::from_ntriples` →
//! `BitMatStore::build`), check that the one-pass load is byte-equal to
//! `parse_ntriples` → `Graph::encode`, persist the store as a v4 segment,
//! and byte-compare every Appendix E query over the mmap'd segments
//! against the heap store.
//!
//! ```sh
//! cargo run --release -p lbr-bench --bin scale_smoke
//! LBR_SMOKE_UNIS=20 cargo run --release -p lbr-bench --bin scale_smoke
//! ```
//!
//! Exits non-zero (panics) on any divergence; prints one `scale-smoke:`
//! line per milestone so CI logs show what was covered, the index build's
//! own time (`index built in …`) among them.

use lbr_bench::fmt_secs;
use lbr_bitmat::{BitMatStore, DiskCatalog};
use lbr_core::LbrEngine;
use lbr_datagen::lubm;
use lbr_sparql::parse_query;
use std::time::Instant;

fn main() {
    // ~5.2K triples per university ⇒ 200 universities ≈ 1.04M triples.
    let universities: usize = std::env::var("LBR_SMOKE_UNIS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let seed: u64 = std::env::var("LBR_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let t = Instant::now();
    let cfg = lubm::LubmConfig {
        universities,
        departments: 10,
        seed,
    };
    let graph = lbr_rdf::Graph::from_triples(lubm::generate(&cfg));
    println!(
        "scale-smoke: generated LUBM x{universities} = {} triples in {:.2?}",
        graph.len(),
        t.elapsed()
    );

    let nt = lbr_rdf::write_ntriples(graph.triples());
    drop(graph);
    let t = Instant::now();
    let encoded = lbr_rdf::EncodedGraph::from_ntriples(&nt).expect("N-Triples parse");
    let one_pass_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let two_pass =
        lbr_rdf::Graph::from_triples(lbr_rdf::parse_ntriples(&nt).expect("N-Triples parse"))
            .encode();
    let two_pass_secs = t.elapsed().as_secs_f64();
    drop(nt);
    assert!(
        encoded.dict.to_bytes() == two_pass.dict.to_bytes(),
        "the one-pass load assigns other IDs than parse + encode"
    );
    assert!(
        encoded.triples == two_pass.triples,
        "the one-pass load encodes other triples than parse + encode"
    );
    drop(two_pass);
    println!(
        "scale-smoke: one-pass load byte-equal to parse + encode ({} vs {})",
        fmt_secs(one_pass_secs),
        fmt_secs(two_pass_secs),
    );
    let t = Instant::now();
    let heap = BitMatStore::build(&encoded);
    let build_secs = t.elapsed().as_secs_f64();
    println!(
        "scale-smoke: index built in {} ({:.0} triples/s)",
        fmt_secs(build_secs),
        encoded.len() as f64 / build_secs.max(1e-9),
    );
    let load_secs = one_pass_secs + build_secs;
    let seg_path = std::env::temp_dir().join(format!("lbr-scale-smoke-{}.seg", std::process::id()));
    let segment_bytes = lbr_bitmat::disk::save_store(&heap, &seg_path).expect("segment write");
    println!(
        "scale-smoke: loaded {} triples in {} ({:.0} triples/s); segment {} MiB",
        encoded.len(),
        fmt_secs(load_secs),
        encoded.len() as f64 / load_secs.max(1e-9),
        segment_bytes.div_ceil(1024 * 1024),
    );

    let mapped = DiskCatalog::open(&seg_path).expect("segment reopens");
    for q in lubm::queries() {
        let query = parse_query(&q.text).expect("Appendix E query parses");
        let mut mem = LbrEngine::new(&heap, &encoded.dict)
            .execute(&query)
            .unwrap_or_else(|e| panic!("heap {}: {e}", q.id))
            .rows;
        let mut dsk = LbrEngine::new(&mapped, &encoded.dict)
            .execute(&query)
            .unwrap_or_else(|e| panic!("mmap {}: {e}", q.id))
            .rows;
        mem.sort();
        dsk.sort();
        assert_eq!(mem, dsk, "{} diverges between heap and mmap", q.id);
        println!("scale-smoke: {} byte-equal over mmap", q.id);
    }
    let _ = std::fs::remove_file(&seg_path);
    println!("scale-smoke: OK (six queries byte-equal, heap vs mmap)");
}
