//! The on-disk index must be execution-equivalent to the in-memory store:
//! every Appendix E query run through a `DiskCatalog` (lazy per-TP loads,
//! as the paper's LBR does against its 20–41 GB on-disk indexes) produces
//! exactly the rows of the in-memory run.

use lbr::bitmat::disk::save_store;
use lbr::datagen::{lubm, uniprot};
use lbr::{parse_query, Database, DiskCatalog, LbrEngine};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lbr_it_{name}_{}.idx", std::process::id()))
}

#[test]
fn lubm_queries_identical_on_disk() {
    let ds = lubm::dataset(&lubm::LubmConfig {
        universities: 1,
        departments: 3,
        seed: 21,
    });
    let db = Database::from_encoded(ds.graph.clone().encode());
    let path = tmp("lubm");
    save_store(db.store(), &path).unwrap();
    let disk = DiskCatalog::open(&path).unwrap();
    let engine = LbrEngine::new(&disk, db.dict());
    for q in &ds.queries {
        let query = parse_query(&q.text).unwrap();
        let mem = db.execute_query(&query).unwrap();
        let dsk = engine.execute(&query).unwrap();
        let mut a = mem.rows.clone();
        let mut b = dsk.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "disk/memory divergence on LUBM {}", q.id);
        assert_eq!(
            mem.stats.initial_triples, dsk.stats.initial_triples,
            "{}",
            q.id
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn uniprot_queries_identical_on_disk() {
    let ds = uniprot::dataset(&uniprot::UniProtConfig {
        proteins: 150,
        taxa: 8,
        seed: 22,
    });
    let db = Database::from_encoded(ds.graph.clone().encode());
    let path = tmp("uniprot");
    save_store(db.store(), &path).unwrap();
    let disk = DiskCatalog::open(&path).unwrap();
    let engine = LbrEngine::new(&disk, db.dict());
    for q in &ds.queries {
        let query = parse_query(&q.text).unwrap();
        let mut a = db.execute_query(&query).unwrap().rows;
        let mut b = engine.execute(&query).unwrap().rows;
        a.sort();
        b.sort();
        assert_eq!(a, b, "disk/memory divergence on UniProt {}", q.id);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn all_var_pattern_on_disk() {
    // The (?s ?p ?o) extension loads the S-O matrix of every predicate.
    let ds = lubm::dataset(&lubm::LubmConfig {
        universities: 1,
        departments: 1,
        seed: 23,
    });
    let db = Database::from_encoded(ds.graph.clone().encode());
    let path = tmp("allvar");
    save_store(db.store(), &path).unwrap();
    let disk = DiskCatalog::open(&path).unwrap();
    let engine = LbrEngine::new(&disk, db.dict());
    let query = parse_query("SELECT * WHERE { ?s ?p ?o . }").unwrap();
    let out = engine.execute(&query).unwrap();
    assert_eq!(
        out.len(),
        db.len(),
        "(?s ?p ?o) must scan the whole dataset"
    );
    std::fs::remove_file(&path).ok();
}

/// The PR-10 acceptance bar: the mmap'd store answers **byte-equal** to
/// the heap store on every engine behind `EngineKind` — compared at the
/// ID level (raw result rows), before any decode, so the equality really
/// is byte-for-byte.
#[test]
fn every_engine_agrees_on_mmap() {
    use lbr::EngineKind;

    let ds = lubm::dataset(&lubm::LubmConfig {
        universities: 1,
        departments: 2,
        seed: 21,
    });
    let graph = ds.graph.clone().encode();
    let heap = Database::from_encoded(graph.clone());
    let path = tmp("allengines");
    save_store(heap.store(), &path).unwrap();
    let mapped = Database::builder()
        .encoded(graph)
        .disk_index(&path)
        .build()
        .unwrap();

    for q in &ds.queries {
        let query = parse_query(&q.text).unwrap();
        for kind in EngineKind::all() {
            let mut a = heap
                .engine_of(kind)
                .execute(&query)
                .unwrap_or_else(|e| panic!("heap {kind} {}: {e}", q.id))
                .rows;
            let mut b = mapped
                .engine_of(kind)
                .execute(&query)
                .unwrap_or_else(|e| panic!("mmap {kind} {}: {e}", q.id))
                .rows;
            a.sort();
            b.sort();
            assert_eq!(a, b, "{kind} diverges on {}", q.id);
        }
    }
    std::fs::remove_file(&path).ok();
}
