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

/// A segment whose matrix stores a column wider than its family's is
/// rejected at load, not answered from: here every row of the S-O matrix
/// sets column 999, which names no object (a blob has no shape of its own;
/// its rows are checked against the family's).
#[test]
fn matrix_wider_than_its_family_is_an_error() {
    use lbr::{Graph, Term, Triple};

    let triples = (0..3)
        .map(|i| {
            Triple::new(
                Term::iri(format!("s{i}")),
                Term::iri("p"),
                Term::iri(format!("o{i}")),
            )
        })
        .collect();
    let graph = Graph::from_triples(triples).encode();
    let path = tmp("wide_so");
    save_store(Database::from_encoded(graph.clone()).store(), &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let blob_base = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    // TOC after the 48-byte fixed header: the S-O family first, `n u32`
    // then `(key u32, offset u64, len u64, count u64) × n`.
    let at = 48;
    assert_eq!(u32_at(&bytes, at), 1, "one predicate, one S-O matrix");
    let entry = at + 4;
    let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap());
    let blob = blob_base + offset as usize;
    // `n_present | n_words | ids | spans [end | RUNS, count] | words`: each
    // one-bit row is one sparse body word, in row order.
    let n_present = u32_at(&bytes, blob) as usize;
    assert_eq!(n_present, 3);
    for k in 0..n_present {
        let [end, count] = [0, 4].map(|at| u32_at(&bytes, blob + 8 + 4 * n_present + 8 * k + at));
        assert_eq!(
            (end, count),
            (k as u32 + 1, 1),
            "a one-bit row is one sparse word"
        );
        let body = blob + 8 + 12 * n_present + 4 * k;
        bytes[body..body + 4].copy_from_slice(&999u32.to_le_bytes());
    }
    std::fs::write(&path, &bytes).unwrap();
    let db = Database::builder()
        .encoded(graph)
        .disk_index(&path)
        .build()
        .unwrap();
    let got = db.execute("SELECT ?o WHERE { <s0> <p> ?o }");
    assert!(got.is_err(), "{got:?}");
    std::fs::remove_file(&path).ok();
}
