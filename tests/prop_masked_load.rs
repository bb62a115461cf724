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
//! The oracle never runs the code under test: the heap and mmap catalogs
//! are checked against the heap store's full loads, and the overlays
//! against a `BitMatStore` rebuilt from the merged triples, as the overlay
//! module's rebuild sweep does — not against the overlay's own merge.
//!
//! Masks take every shape active pruning produces: absent (the dimension
//! loads whole), empty, full, shorter than the dimension (a shared S-O
//! prefix) and longer than it. Every key the delta touches is also loaded
//! under a one-row mask per touched row (the overlay probes the mask when
//! the key has more changes than a probe costs) and a full mask at least
//! as long as the key's changes (it walks the changes), and the `row` and
//! `row_count` of every touched row, and the key's `count`, are checked
//! against the oracle.
//!
//! The paper's P-O and P-S BitMats, which a catalog assembles from the S-O
//! and O-S rows its predicate lists name ([`Catalog::predicate_matrix`]),
//! are masked-loaded for every subject and object the same way, against
//! the oracle's rows of every predicate.

use lbr::bitmat::disk::save_store;
use lbr::bitmat::{BitMat, BitVec, RetainDim, SetScratch};
use lbr::rdf::{EncodedGraph, EncodedTriple};
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

/// One catalog under test and the store whose full loads are its oracle.
struct Case<'a, C> {
    cat: &'a C,
    oracle: &'a BitMatStore,
    medium: &'a str,
}

impl<C: Catalog> Case<'_, C> {
    /// The masked load of `key` in `f` against the oracle's full load of
    /// it unfolded by each mask.
    fn check_key(
        &self,
        f: Family,
        key: u32,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<(), TestCaseError> {
        let want = self.oracle.matrix(f, key).unwrap().map(|m| {
            let mut m: BitMat = m.into_owned();
            if let Some(mask) = rows {
                m.unfold_with(mask, RetainDim::Row, scratch);
            }
            if let Some(mask) = cols {
                m.unfold_with(mask, RetainDim::Col, scratch);
            }
            m
        });
        let want = want.filter(|m| !m.as_ref().is_empty());
        let got = self.cat.masked(f, key, rows, cols, scratch).unwrap();
        prop_assert_eq!(got, want, "{} {} key {}", self.medium, f.name(), key);
        Ok(())
    }

    /// The P-O (`f` S-O) or P-S (`f` O-S) matrix of `r` loaded through
    /// the masks, against row `r` of every predicate's oracle matrix
    /// unfolded by each mask; and its count.
    fn check_by_pred(
        &self,
        f: Family,
        r: u32,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<(), TestCaseError> {
        let dims = self.oracle.dims();
        let (_, _, n_cols) = f.shape(&dims);
        let mut pairs = Vec::new();
        for p in 0..dims.n_predicates {
            if let Some(row) = self.oracle.row(f, p, r).unwrap() {
                pairs.extend(row.as_ref().iter_ones().map(|c| (p, c)));
            }
        }
        let mut want = BitMat::from_sorted_pairs(dims.n_predicates, n_cols, &pairs);
        if let Some(mask) = rows {
            want.unfold_with(mask, RetainDim::Row, scratch);
        }
        if let Some(mask) = cols {
            want.unfold_with(mask, RetainDim::Col, scratch);
        }
        let want = (!want.as_ref().is_empty()).then_some(want);
        let got = self
            .cat
            .predicate_matrix(f, r, rows, cols, scratch)
            .unwrap();
        let at = format!("{} {} by predicate, row {}", self.medium, f.name(), r);
        prop_assert_eq!(got, want, "{}", at);
        prop_assert_eq!(self.cat.predicate_count(f, r), pairs.len() as u64, "{}", at);
        Ok(())
    }

    /// Every matrix, masked-loaded, against the oracle; then every key
    /// `delta` touches, under a one-row mask per touched row and a full
    /// mask, with its touched rows and its count.
    fn check(
        &self,
        shapes: (u8, u8),
        bits: &BTreeSet<u32>,
        delta: &Delta,
    ) -> Result<(), TestCaseError> {
        let (cat, oracle, medium) = (self.cat, self.oracle, self.medium);
        let dims = cat.dims();
        prop_assert_eq!(dims, oracle.dims(), "{}", medium);
        let mut scratch = SetScratch::default();
        for f in Family::ALL {
            let (n_keys, n_rows, n_cols) = f.shape(&dims);
            let rows = mask(shapes.0, bits, n_rows);
            let cols = mask(shapes.1, bits, n_cols);
            for key in 0..n_keys {
                self.check_key(f, key, rows.as_ref(), cols.as_ref(), &mut scratch)?;
            }
            let unknown = cat.masked(f, n_keys, rows.as_ref(), None, &mut scratch);
            prop_assert_eq!(
                unknown.unwrap(),
                None,
                "{} {}: out-of-range key",
                medium,
                f.name()
            );

            let preds = mask(shapes.0, bits, dims.n_predicates);
            for r in 0..n_rows + 1 {
                self.check_by_pred(f, r, preds.as_ref(), cols.as_ref(), &mut scratch)?;
            }

            for key in (0..n_keys).filter(|&key| delta.count(key) > 0) {
                // A one-row mask is probed when the key has more changes
                // than a probe costs; a mask with at least as many set bits
                // as the key has changes makes the overlay walk them.
                let changed = || delta.changed_rows(f, key).map(|(r, ..)| r);
                let one_row = changed().map(|r| BitVec::from_positions(n_rows, [r]));
                let full = BitVec::ones(n_rows.max(delta.count(key) as u32));
                for rows in one_row.chain([full]) {
                    for cols in [None, cols.as_ref()] {
                        self.check_key(f, key, Some(&rows), cols, &mut scratch)?;
                    }
                }
                let at = format!("{medium} {} key {key}", f.name());
                prop_assert_eq!(cat.count(f, key), oracle.count(f, key), "{}", at);
                for r in changed() {
                    let (got, want) = (cat.row(f, key, r).unwrap(), oracle.row(f, key, r));
                    prop_assert_eq!(got, want.unwrap(), "{} row {}", at, r);
                    let (got, want) = (cat.row_count(f, key, r), oracle.row_count(f, key, r));
                    prop_assert_eq!(got, want, "{} row {}", at, r);
                }
            }
        }
        Ok(())
    }
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
        inserts in prop::collection::vec((0u32..64, 0u32..8, 0u32..64), 0..20),
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

        // The overlays' oracle: the merged triples, rebuilt from scratch
        // under the same dictionary.
        let mut merged: Vec<EncodedTriple> = graph
            .triples
            .iter()
            .copied()
            .filter(|e| !delta.tombstones.contains(*e))
            .chain(delta.inserts.iter())
            .collect();
        merged.sort_unstable();
        let rebuilt = BitMatStore::build(&EncodedGraph {
            dict: graph.dict.clone(),
            triples: merged,
        });

        let heap_overlay =
            OverlayCatalog::new(SegmentSource::Heap(Arc::clone(&store)), Arc::clone(&delta));
        let mmap_overlay =
            OverlayCatalog::new(SegmentSource::Disk(Arc::clone(&disk)), Arc::clone(&delta));
        let (store, disk) = (store.as_ref(), disk.as_ref());
        Case { cat: store, oracle: store, medium: "heap" }.check(shapes, &bits, &delta)?;
        Case { cat: disk, oracle: store, medium: "mmap" }.check(shapes, &bits, &delta)?;
        Case { cat: &heap_overlay, oracle: &rebuilt, medium: "overlay(heap)" }
            .check(shapes, &bits, &delta)?;
        Case { cat: &mmap_overlay, oracle: &rebuilt, medium: "overlay(mmap)" }
            .check(shapes, &bits, &delta)?;
    }
}
