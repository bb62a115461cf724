//! Property-based checks of the v4 on-disk segment format:
//!
//! * **round-trip exactness** — `save_store` → `DiskCatalog::open` must
//!   reproduce every matrix, row and count of the in-memory
//!   [`lbr::BitMatStore`] bit for bit, across random graphs whose rows
//!   land in both compression classes (dense Runs rows from clique-like
//!   subgraphs, Sparse rows from scattered triples) and whose widths
//!   straddle 32-bit word boundaries;
//! * **corruption safety** — opening a truncated or bit-flipped segment
//!   file either fails cleanly (`BitMatError`) or yields a catalog whose
//!   every load returns a clean `Result`. Never a panic, never UB: the
//!   mmap'd bytes are untrusted input and every offset is bounds-checked
//!   before it is dereferenced. Whatever does load lies inside its
//!   family's shape.

use lbr::bitmat::disk::save_store;
use lbr::bitmat::{BitMat, BitVec, RowRef, SetScratch};
use lbr::{BitMatStore, Catalog, DiskCatalog, Family, Graph, Term, Triple};
use proptest::prelude::*;
use std::path::PathBuf;

/// Entity universe sized so bit-rows span one to three 32-bit words and
/// IDs hit the 31/32/63/64 boundaries.
const N_ENTITIES: usize = 70;
const N_PREDICATES: usize = 6;

fn ent(i: usize) -> Term {
    Term::iri(format!("e{i:03}"))
}

fn pred(i: usize) -> Term {
    Term::iri(format!("p{i}"))
}

/// Scattered triples: mostly Sparse-compressed rows.
fn arb_sparse() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (0usize..N_ENTITIES, 0usize..N_PREDICATES, 0usize..N_ENTITIES),
        1..120,
    )
    .prop_map(|ts| {
        ts.into_iter()
            .map(|(s, p, o)| Triple::new(ent(s), pred(p), ent(o)))
            .collect()
    })
}

/// A clique block: every (s, o) pair over a contiguous ID range under
/// one predicate — long runs of set bits, so the hybrid encoder picks
/// Runs. `lo` is drawn near word boundaries to cover rows whose first
/// set bit sits at bit 31/32/63 of the row.
fn arb_dense_block() -> impl Strategy<Value = Vec<Triple>> {
    const BOUNDARY_LOS: [usize; 9] = [0, 1, 30, 31, 32, 33, 62, 63, 64];
    (0usize..BOUNDARY_LOS.len(), 2usize..8, 0usize..N_PREDICATES).prop_map(|(lo_ix, width, p)| {
        let lo = BOUNDARY_LOS[lo_ix];
        let hi = (lo + width).min(N_ENTITIES);
        let mut out = Vec::new();
        for s in lo..hi {
            for o in lo..hi {
                out.push(Triple::new(ent(s), pred(p), ent(o)));
            }
        }
        out
    })
}

fn arb_graph() -> impl Strategy<Value = Vec<Triple>> {
    (arb_sparse(), prop::collection::vec(arb_dense_block(), 0..3)).prop_map(
        |(mut sparse, blocks)| {
            for b in blocks {
                sparse.extend(b);
            }
            sparse
        },
    )
}

struct TempSeg(PathBuf);

impl TempSeg {
    fn new(tag: u64) -> TempSeg {
        TempSeg(std::env::temp_dir().join(format!("lbr-prop-seg-{}-{tag}.lbr", std::process::id())))
    }
}

impl Drop for TempSeg {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A matrix or row a load returned lies inside its family's shape: a
/// position past it would decode as a term that does not exist.
fn assert_in_shape(m: &BitMat, (n_rows, n_cols): (u32, u32)) {
    assert_eq!(
        (m.as_ref().n_rows(), m.as_ref().n_cols()),
        (n_rows, n_cols),
        "matrix shape"
    );
    for (r, row) in m.as_ref().rows() {
        assert!(r < n_rows, "row {r} past {n_rows} rows");
        assert_row_in_shape(row, n_cols);
    }
}

fn assert_row_in_shape(row: RowRef<'_>, n_cols: u32) {
    assert_eq!(row.universe(), n_cols, "row universe");
    assert!(row.iter_ones().all(|c| c < n_cols), "column past {n_cols}");
}

/// Exercises every load and count of a catalog. On hostile bytes the
/// property is that none of them panics, and that whatever loads does
/// lie inside its family's shape. Keys and rows are capped because a
/// flipped header bit can claim billions. The masked load runs with no
/// mask, a sparse one (every third row and column: probed rows) and a
/// full one (walked rows).
fn drain_catalog(cat: &DiskCatalog) {
    let dims = cat.dims();
    let mut scratch = SetScratch::default();
    for f in Family::ALL {
        let (n_keys, n_rows, n_cols) = f.shape(&dims);
        let (n_rows_m, n_cols_m) = (n_rows.min(4096), n_cols.min(4096));
        let sparse = (
            BitVec::from_positions(n_rows_m, (0..n_rows_m).step_by(3)),
            BitVec::from_positions(n_cols_m, (0..n_cols_m).step_by(3)),
        );
        let full = (BitVec::ones(n_rows_m), BitVec::ones(n_cols_m));
        for key in 0..n_keys.min(128) {
            if let Ok(Some(m)) = cat.matrix(f, key) {
                assert_in_shape(&m, (n_rows, n_cols));
            }
            let masks = [
                (None, None),
                (Some(&sparse.0), Some(&sparse.1)),
                (Some(&full.0), Some(&full.1)),
            ];
            for (rows, cols) in masks {
                if let Ok(Some(m)) = cat.masked(f, key, rows, cols, &mut scratch) {
                    assert_in_shape(&m, (n_rows, n_cols));
                }
            }
            let _ = cat.count(f, key);
            for r in 0..n_rows.min(128) {
                if let Ok(Some(row)) = cat.row(f, key, r) {
                    assert_row_in_shape(row.as_ref(), n_cols);
                }
                let _ = cat.row_count(f, key, r);
            }
        }
        // The P-O or P-S matrices built from the predicate lists.
        for r in 0..n_rows.min(128) {
            if let Ok(preds) = cat.predicates(f, r) {
                assert!(preds.iter().all(|&p| p < dims.n_predicates));
            }
            let _ = cat.predicate_count(f, r);
            let by_pred = cat.predicate_matrix(f, r, None, Some(&sparse.1), &mut scratch);
            if let Ok(Some(m)) = by_pred {
                assert_in_shape(&m, (dims.n_predicates, n_cols));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn roundtrip_reproduces_every_matrix(triples in arb_graph(), tag in any::<u64>()) {
        let graph = Graph::from_triples(triples).encode();
        let store = BitMatStore::build(&graph);
        let seg = TempSeg::new(tag);
        save_store(&store, &seg.0).unwrap();
        let cat = DiskCatalog::open(&seg.0).unwrap();

        prop_assert_eq!(cat.dims(), store.dims());
        let dims = store.dims();
        for f in Family::ALL {
            let (n_keys, n_rows, _) = f.shape(&dims);
            for key in 0..n_keys {
                let decoded = cat.matrix(f, key).unwrap();
                prop_assert_eq!(decoded.as_deref(), store.get(f, key));
                prop_assert_eq!(cat.count(f, key), store.count(f, key));
                for r in 0..n_rows {
                    prop_assert_eq!(&cat.row(f, key, r).unwrap(), &store.row(f, key, r).unwrap());
                    prop_assert_eq!(cat.row_count(f, key, r), store.row_count(f, key, r));
                }
            }
            for r in 0..n_rows + 1 {
                prop_assert_eq!(cat.predicates(f, r).unwrap(), store.predicates(f, r).unwrap());
            }
        }
    }

    #[test]
    fn truncated_segments_fail_cleanly(triples in arb_graph(), cut_ppm in 0u64..1_000_000) {
        let graph = Graph::from_triples(triples).encode();
        let store = BitMatStore::build(&graph);
        let seg = TempSeg::new(cut_ppm);
        let full = save_store(&store, &seg.0).unwrap();
        let cut = full * cut_ppm / 1_000_000;
        let bytes = std::fs::read(&seg.0).unwrap();
        std::fs::write(&seg.0, &bytes[..cut as usize]).unwrap();
        // Either the open is rejected or every subsequent read returns a
        // clean Result — bounds checks make truncation an error, not UB.
        if let Ok(cat) = DiskCatalog::open(&seg.0) {
            drain_catalog(&cat);
        }
    }

    #[test]
    fn bitflipped_segments_fail_cleanly(triples in arb_graph(), at_ppm in 0u64..1_000_000, bit in 0u8..8) {
        let graph = Graph::from_triples(triples).encode();
        let store = BitMatStore::build(&graph);
        let seg = TempSeg::new(at_ppm ^ u64::from(bit));
        let full = save_store(&store, &seg.0).unwrap();
        let mut bytes = std::fs::read(&seg.0).unwrap();
        let at = ((full - 1) * at_ppm / 1_000_000) as usize;
        bytes[at] ^= 1 << bit;
        std::fs::write(&seg.0, &bytes).unwrap();
        if let Ok(cat) = DiskCatalog::open(&seg.0) {
            drain_catalog(&cat);
        }
    }
}

/// A v1, v2 or v3 header (or any foreign magic) is refused up front with a
/// clear error — not misparsed as v4.
#[test]
fn foreign_magic_is_rejected() {
    let seg = TempSeg::new(u64::MAX);
    let graph = Graph::from_triples(vec![Triple::new(ent(0), pred(0), ent(1))]).encode();
    let store = BitMatStore::build(&graph);
    save_store(&store, &seg.0).unwrap();
    let saved = std::fs::read(&seg.0).unwrap();
    for (magic, want) in [
        (b"LBRBM001", "v1 index (LBRBM001) is no longer supported"),
        (
            b"LBRBM002",
            "v2 index (LBRBM002) is no longer supported; re-save the store",
        ),
        (
            b"LBRBM003",
            "v3 index (LBRBM003) is no longer supported; re-save the store",
        ),
        (b"NOTANIDX", "bad magic"),
    ] {
        let mut bytes = saved.clone();
        bytes[..8].copy_from_slice(magic);
        std::fs::write(&seg.0, &bytes).unwrap();
        let err = DiskCatalog::open(&seg.0).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
    }
}
