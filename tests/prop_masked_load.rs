//! Property test of `init`'s masked load: loading a matrix through row and
//! column masks ([`Catalog::masked`]) yields exactly the matrix a full
//! load followed by the paper's `unfold` on each mask yields (`None` when
//! nothing is left) — on every catalog a query can run over:
//!
//! * the heap [`BitMatStore`], which copies the kept rows of the matrix it
//!   holds;
//! * an mmap'd [`DiskCatalog`], which decodes only the kept rows;
//! * an `OverlayCatalog` with inserts and tombstones over either medium,
//!   which masks its base and merges only the delta pairs the masks keep.
//!
//! Masks take every shape active pruning produces: absent (the dimension
//! loads whole), empty, full, shorter than the dimension (a shared S-O
//! prefix) and longer than it. Every key the delta touches is also loaded
//! under a sparse row mask drawn from the delta's own rows, so the merge
//! of a masked base is exercised on every case.

use lbr::bitmat::disk::save_store;
use lbr::bitmat::{BitMat, BitVec, RetainDim, SetScratch};
use lbr::rdf::EncodedTriple;
use lbr::storage::{Delta, OverlayCatalog};
use lbr::{BitMatStore, Catalog, DiskCatalog, Family, Graph, SegmentSource, Term, Triple};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

const N_ENTITIES: usize = 40;
const N_PREDICATES: usize = 4;

/// Scattered triples plus one dense block, so rows of both compression
/// classes occur.
fn arb_graph() -> impl Strategy<Value = Vec<Triple>> {
    let scattered = prop::collection::vec((0..N_ENTITIES, 0..N_PREDICATES, 0..N_ENTITIES), 1..100);
    (scattered, 0..N_ENTITIES, 2usize..10, 0..N_PREDICATES).prop_map(|(ts, lo, width, p)| {
        let e = |i: usize| Term::iri(format!("e{i:02}"));
        let pred = |i: usize| Term::iri(format!("p{i}"));
        let mut out: Vec<Triple> = ts
            .into_iter()
            .map(|(s, p, o)| Triple::new(e(s), pred(p), e(o)))
            .collect();
        let hi = (lo + width).min(N_ENTITIES);
        for s in lo..hi {
            for o in lo..hi {
                out.push(Triple::new(e(s), pred(p), e(o)));
            }
        }
        out
    })
}

/// A mask over a dimension of `n` bits, in one of the shapes active
/// pruning produces; `bits` picks the set positions of the random ones.
fn mask(shape: u8, bits: &BTreeSet<u32>, n: u32) -> Option<BitVec> {
    let random = |len: u32| BitVec::from_positions(len, bits.iter().copied().filter(|&b| b < len));
    match shape {
        0 => None,
        1 => Some(BitVec::zeros(0)),
        2 => Some(BitVec::ones(n)),
        3 => Some(random(n / 2)),
        4 => Some(random(n + 70)),
        _ => Some(random(n)),
    }
}

struct TempSeg(PathBuf);

impl Drop for TempSeg {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The masked load of `key` in `f` against the full load unfolded by each
/// mask.
fn check_key(
    cat: &impl Catalog,
    medium: &str,
    f: Family,
    key: u32,
    rows: Option<&BitVec>,
    cols: Option<&BitVec>,
    scratch: &mut SetScratch,
) -> Result<(), TestCaseError> {
    let want = cat.matrix(f, key).unwrap().map(|m| {
        let mut m: BitMat = m.into_owned();
        if let Some(mask) = rows {
            m.unfold_with(mask, RetainDim::Row, scratch);
        }
        if let Some(mask) = cols {
            m.unfold_with(mask, RetainDim::Col, scratch);
        }
        m
    });
    let want = want.filter(|m| !m.is_empty());
    let got = cat.masked(f, key, rows, cols, scratch).unwrap();
    prop_assert_eq!(got, want, "{} {} key {}", medium, f.name(), key);
    Ok(())
}

/// Every matrix of `cat`, masked-loaded, against its full load unfolded;
/// then every key `delta` touches under a sparse row mask over the rows
/// of half its pairs.
fn check(
    cat: &impl Catalog,
    medium: &str,
    shapes: (u8, u8),
    bits: &BTreeSet<u32>,
    delta: &Delta,
) -> Result<(), TestCaseError> {
    let dims = cat.dims();
    let mut scratch = SetScratch::default();
    for f in Family::ALL {
        let (n_keys, n_rows, n_cols) = f.shape(&dims);
        let rows = mask(shapes.0, bits, n_rows);
        let cols = mask(shapes.1, bits, n_cols);
        for key in 0..n_keys {
            check_key(
                cat,
                medium,
                f,
                key,
                rows.as_ref(),
                cols.as_ref(),
                &mut scratch,
            )?;
        }
        let unknown = cat.masked(f, n_keys, rows.as_ref(), None, &mut scratch);
        prop_assert_eq!(
            unknown.unwrap(),
            None,
            "{} {}: out-of-range key",
            medium,
            f.name()
        );

        for key in 0..n_keys {
            let pairs = [&delta.inserts, &delta.tombstones].map(|set| set.pairs(f, key));
            let touched = pairs.iter().flatten().step_by(2).map(|&(r, _)| r);
            let sparse = BitVec::from_positions(n_rows, touched);
            if sparse.count_ones() > 0 {
                for cols in [None, cols.as_ref()] {
                    check_key(cat, medium, f, key, Some(&sparse), cols, &mut scratch)?;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn masked_load_is_full_load_then_unfold(
        triples in arb_graph(),
        shapes in (0u8..6, 0u8..6),
        bits in prop::collection::btree_set(0u32..120, 0..60),
        inserts in prop::collection::vec((0u32..64, 0u32..8, 0u32..64), 0..6),
        tombstone_every in 2usize..9,
        tag in any::<u64>(),
    ) {
        let graph = Graph::from_triples(triples).encode();
        let store = Arc::new(BitMatStore::build(&graph));
        let seg = TempSeg(std::env::temp_dir().join(format!(
            "lbr-prop-masked-{}-{tag}.lbr",
            std::process::id()
        )));
        save_store(&store, &seg.0).unwrap();
        let disk = Arc::new(DiskCatalog::open(&seg.0).unwrap());

        // A delta in the base's ID space: every n-th base triple deleted,
        // a few absent ones inserted.
        let dims = store.dims();
        let mut delta = Delta::new();
        for e in graph.triples.iter().step_by(tombstone_every) {
            delta.tombstones.insert(*e);
        }
        for (s, p, o) in inserts {
            let e = EncodedTriple::new(s % dims.n_subjects, p % dims.n_predicates, o % dims.n_objects);
            if !graph.triples.contains(&e) {
                delta.inserts.insert(e);
            }
        }
        let delta = Arc::new(delta);

        check(store.as_ref(), "heap", shapes, &bits, &delta)?;
        check(disk.as_ref(), "mmap", shapes, &bits, &delta)?;
        let heap_overlay =
            OverlayCatalog::new(SegmentSource::Heap(Arc::clone(&store)), Arc::clone(&delta));
        check(&heap_overlay, "overlay(heap)", shapes, &bits, &delta)?;
        let mmap_overlay = OverlayCatalog::new(SegmentSource::Disk(disk), Arc::clone(&delta));
        check(&mmap_overlay, "overlay(mmap)", shapes, &bits, &delta)?;
    }
}
