//! [`OverlayCatalog`]: the delta merged into the compressed cursors.
//!
//! Engines never see the delta: they consume the [`Catalog`] trait, and
//! this implementation answers every load with *base segments + inserts −
//! tombstones*, exactly like [`BitMatStore`] answers them (`None` for
//! empty). Rows untouched by the delta are the base's compressed rows
//! as they are; touched rows are re-compressed from the merged sorted
//! position list — so the result of every load is **bit-for-bit
//! identical** to what a `BitMatStore` built from the merged triples would
//! return, which is what keeps all five engines byte-equivalent to a
//! from-scratch rebuild.
//!
//! A load the delta does not touch is the base catalog's own answer
//! handed through — a heap matrix borrowed, a mapped one decoded once — so
//! the overlay never adds a copy of a base matrix on either medium, and
//! with an empty delta its overhead is one branch per load.
//!
//! `init`'s masked load ([`Catalog::masked`]) is where the merge happens:
//! the base answers its own masked load (reading only the rows the masks
//! keep), and only the delta pairs the masks keep are merged in, since
//! `((base ∪ ins) ∖ tomb) ∧ M = ((base ∧ M) ∪ (ins ∧ M)) ∖ tomb`. The
//! masked base is private, so its untouched rows move into the result. A
//! whole-matrix load of a touched key is the masked load with no mask.

use crate::delta::Delta;
use lbr_bitmat::{
    BitMat, BitMatError, BitMatStore, BitRow, BitVec, Catalog, CubeDims, DiskCatalog, Family,
    SetScratch,
};
use lbr_rdf::EncodedTriple;
use std::borrow::Cow;
use std::sync::Arc;

/// Where the immutable base segments live: built on the heap, or mmap'd
/// from an on-disk segment file written by `lbr_bitmat::disk::save_store`.
///
/// The overlay treats both uniformly through the [`Catalog`] trait, so
/// the delta/WAL layers above are agnostic to the segment medium — an
/// updatable store can reopen straight onto a mapped checkpoint segment
/// and skip the BitMat rebuild entirely.
#[derive(Debug, Clone)]
pub enum SegmentSource {
    /// Segments built in memory by [`BitMatStore::build`].
    Heap(Arc<BitMatStore>),
    /// Segments read zero-copy from an mmap'd segment file.
    Disk(Arc<DiskCatalog>),
}

impl SegmentSource {
    /// The segments as a [`Catalog`].
    pub fn catalog(&self) -> &dyn Catalog {
        match self {
            SegmentSource::Heap(s) => s.as_ref(),
            SegmentSource::Disk(d) => d.as_ref(),
        }
    }

    /// The cube dimensions of the base segments.
    pub fn dims(&self) -> CubeDims {
        self.catalog().dims()
    }

    /// True when the segments are mmap'd from disk.
    pub fn is_disk(&self) -> bool {
        matches!(self, SegmentSource::Disk(_))
    }

    /// The heap store, when the segments live in memory.
    pub fn as_heap(&self) -> Option<&Arc<BitMatStore>> {
        match self {
            SegmentSource::Heap(s) => Some(s),
            SegmentSource::Disk(_) => None,
        }
    }

    /// True when the base segments contain the encoded triple. A mapped
    /// blob is validated on this touch, not at open, so a corrupt one is
    /// an error here — never "absent", which would let a commit record a
    /// base triple as an insert.
    pub fn contains(&self, e: EncodedTriple) -> Result<bool, BitMatError> {
        let row = self.catalog().row(Family::Po, e.s, e.p)?;
        Ok(row.is_some_and(|r| r.contains(e.o)))
    }
}

/// A [`Catalog`] over immutable segments plus a delta memtable.
///
/// Cheap to clone (a few `Arc`s); a clone is pinned to the segment/delta
/// pair it was created with, which is how [`crate::Snapshot`] provides
/// isolation.
#[derive(Debug, Clone)]
pub struct OverlayCatalog {
    segments: SegmentSource,
    delta: Arc<Delta>,
    dims: CubeDims,
}

impl OverlayCatalog {
    /// Wraps segments (heap or mmap'd) and a delta. The delta must be in
    /// the segments' ID space and satisfy the [`Delta`] invariants.
    pub fn new(segments: SegmentSource, delta: Arc<Delta>) -> Self {
        let mut dims = segments.dims();
        dims.n_triples = dims.n_triples.saturating_add_signed(delta.net());
        OverlayCatalog {
            segments,
            delta,
            dims,
        }
    }

    /// The immutable base segments.
    pub fn segments(&self) -> &SegmentSource {
        &self.segments
    }

    /// The delta memtable.
    pub fn delta(&self) -> &Arc<Delta> {
        &self.delta
    }
}

impl Catalog for OverlayCatalog {
    fn dims(&self) -> CubeDims {
        self.dims
    }

    fn matrix(&self, f: Family, key: u32) -> Result<Option<Cow<'_, BitMat>>, BitMatError> {
        if self.delta.inserts.count(f, key) == 0 && self.delta.tombstones.count(f, key) == 0 {
            return self.segments.catalog().matrix(f, key);
        }
        let merged = self.masked(f, key, None, None, &mut SetScratch::default())?;
        Ok(merged.map(Cow::Owned))
    }

    fn masked(
        &self,
        f: Family,
        key: u32,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<Option<BitMat>, BitMatError> {
        let base = self
            .segments
            .catalog()
            .masked(f, key, rows, cols, scratch)?;
        if self.delta.is_empty() {
            return Ok(base);
        }
        // ((base ∪ ins) ∖ tomb) ∧ M = ((base ∧ M) ∪ (ins ∧ M)) ∖ tomb: only
        // the delta pairs the masks keep are merged into the masked base.
        let kept =
            |&(r, c): &(u32, u32)| rows.is_none_or(|m| m.get(r)) && cols.is_none_or(|m| m.get(c));
        let mut ins = self.delta.inserts.pairs(f, key);
        ins.retain(kept);
        let mut tomb = self.delta.tombstones.pairs(f, key);
        tomb.retain(kept);
        if ins.is_empty() && tomb.is_empty() {
            return Ok(base);
        }
        let (_, n_rows, n_cols) = f.shape(&self.dims);
        Ok(merge_matrix(base, n_rows, n_cols, &ins, &tomb))
    }

    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<Cow<'_, BitRow>>, BitMatError> {
        let base = self.segments.catalog().row(f, key, r)?;
        if self.delta.is_empty() {
            return Ok(base);
        }
        let mut ins = self.delta.inserts.cols(f, key, r).peekable();
        if base.is_none() && ins.peek().is_none() {
            return Ok(None);
        }
        let mut tomb = self.delta.tombstones.cols(f, key, r).peekable();
        if ins.peek().is_none() && tomb.peek().is_none() {
            return Ok(base);
        }
        let (_, _, n_cols) = f.shape(&self.dims);
        let merged = merge_row(base.as_deref(), ins, tomb, n_cols, &mut Vec::new());
        Ok(merged.map(Cow::Owned))
    }

    /// Base plus inserts minus tombstones, saturating: the base counts of a
    /// mapped segment are untrusted bytes (a corrupt TOC count, or a blob
    /// that reads as 0), so they may undercount the tombstones.
    fn count(&self, f: Family, key: u32) -> u64 {
        let base = self.segments.catalog().count(f, key);
        base.saturating_add(self.delta.inserts.count(f, key))
            .saturating_sub(self.delta.tombstones.count(f, key))
    }

    fn row_count(&self, f: Family, key: u32, r: u32) -> u64 {
        let base = self.segments.catalog().row_count(f, key, r);
        base.saturating_add(self.delta.inserts.row_count(f, key, r))
            .saturating_sub(self.delta.tombstones.row_count(f, key, r))
    }
}

/// Merges per-key delta changes into a base matrix; `None` when nothing is
/// left.
///
/// `ins` / `tomb` are `(row, col)` lists sorted ascending; rows they
/// touch are rebuilt from the merged sorted positions, all other rows
/// are moved from the base as they are.
fn merge_matrix(
    base: Option<BitMat>,
    n_rows: u32,
    n_cols: u32,
    ins: &[(u32, u32)],
    tomb: &[(u32, u32)],
) -> Option<BitMat> {
    let base_rows = base.map_or_else(Vec::new, BitMat::into_rows);
    let mut out: Vec<(u32, BitRow)> = Vec::with_capacity(base_rows.len() + ins.len());
    let mut base_rows = base_rows.into_iter().peekable();
    let (mut ii, mut ti) = (0usize, 0usize);
    // One position buffer reused across every touched row.
    let mut cols: Vec<u32> = Vec::new();
    loop {
        // The next row index any of the three sorted streams mentions.
        let next_row = [
            base_rows.peek().map(|&(r, _)| r),
            ins.get(ii).map(|&(r, _)| r),
            tomb.get(ti).map(|&(r, _)| r),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(r) = next_row else { break };

        let base_row = base_rows.next_if(|&(br, _)| br == r).map(|(_, row)| row);
        let ins_start = ii;
        while ins.get(ii).is_some_and(|&(ir, _)| ir == r) {
            ii += 1;
        }
        let tomb_start = ti;
        while tomb.get(ti).is_some_and(|&(tr, _)| tr == r) {
            ti += 1;
        }
        let row = if ins_start == ii && tomb_start == ti {
            // Untouched row: move the compressed base row over.
            base_row
        } else {
            let add = ins[ins_start..ii].iter().map(|&(_, c)| c);
            let dead = tomb[tomb_start..ti].iter().map(|&(_, c)| c);
            merge_row(base_row.as_ref(), add, dead, n_cols, &mut cols)
        };
        if let Some(row) = row {
            out.push((r, row));
        }
    }
    (!out.is_empty()).then(|| BitMat::from_rows(n_rows, n_cols, out))
}

/// Merges one compressed row with ascending inserted and tombstoned
/// positions, through the caller's `positions` buffer; `None` when the
/// result has no set bit (matching what a rebuilt store returns for an
/// absent row).
fn merge_row(
    base: Option<&BitRow>,
    ins: impl Iterator<Item = u32>,
    tomb: impl Iterator<Item = u32>,
    universe: u32,
    positions: &mut Vec<u32>,
) -> Option<BitRow> {
    let (mut ins, mut tomb) = (ins.peekable(), tomb.peekable());
    positions.clear();
    // Keeps `pos` unless it is tombstoned; called with ascending `pos`.
    let mut push = |pos: u32| {
        while tomb.next_if(|&t| t < pos).is_some() {}
        if tomb.peek() != Some(&pos) {
            positions.push(pos);
        }
    };
    if let Some(row) = base {
        for pos in row.iter_ones() {
            while let Some(added) = ins.next_if(|&a| a < pos) {
                push(added);
            }
            ins.next_if_eq(&pos);
            push(pos);
        }
    }
    ins.for_each(push);
    (!positions.is_empty()).then(|| BitRow::from_sorted_positions(universe, positions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use lbr_rdf::{EncodedGraph, EncodedTriple, Graph, Term, Triple};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// Builds the overlay (base minus `del`, plus `add`) over **both
    /// media** — the heap segments, and the same segments saved and
    /// mmap'd — and the from-scratch store over the merged triples with
    /// the same dictionary, then asserts every load and count of every
    /// family is identical.
    fn assert_overlay_matches_rebuild(base: Vec<Triple>, add: Vec<Triple>, del: Vec<Triple>) {
        static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);
        let graph = Graph::from_triples(base).encode();
        let segments = Arc::new(BitMatStore::build(&graph));

        let mut delta = Delta::new();
        for tr in &del {
            let e = graph.dict.encode(tr).expect("delete uses base terms");
            delta.tombstones.insert(e);
        }
        for tr in &add {
            let e = graph.dict.encode(tr).expect("insert uses base terms");
            delta.inserts.insert(e);
        }
        let delta = Arc::new(delta);

        // From-scratch: same dictionary, merged triple set.
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

        let path = std::env::temp_dir().join(format!(
            "lbr-overlay-{}-{}.seg",
            std::process::id(),
            NEXT_FILE.fetch_add(1, Ordering::Relaxed)
        ));
        lbr_bitmat::disk::save_store(&segments, &path).unwrap();
        let mapped = SegmentSource::Disk(Arc::new(DiskCatalog::open(&path).unwrap()));
        let overlays = [
            (
                "heap",
                OverlayCatalog::new(SegmentSource::Heap(segments), Arc::clone(&delta)),
            ),
            ("mmap", OverlayCatalog::new(mapped, delta)),
        ];
        let mut scratch = SetScratch::default();
        for (medium, overlay) in &overlays {
            let d = overlay.dims();
            assert_eq!(d, rebuilt.dims(), "{medium}");
            for f in Family::ALL {
                let (n_keys, n_rows, _) = f.shape(&d);
                for key in 0..n_keys {
                    let at = format!("{medium} {} {key}", f.name());
                    let whole = overlay.matrix(f, key).unwrap().map(Cow::into_owned);
                    assert_eq!(
                        whole.as_ref(),
                        rebuilt.matrix(f, key).unwrap().as_deref(),
                        "{at}"
                    );
                    let unmasked = overlay.masked(f, key, None, None, &mut scratch);
                    assert_eq!(whole, unmasked.unwrap(), "{at}");
                    assert_eq!(overlay.count(f, key), rebuilt.count(f, key), "{at}");
                    for r in 0..n_rows {
                        assert_eq!(
                            overlay.row(f, key, r).unwrap(),
                            rebuilt.row(f, key, r).unwrap(),
                            "{at} row {r}"
                        );
                        assert_eq!(
                            overlay.row_count(f, key, r),
                            rebuilt.row_count(f, key, r),
                            "{at} row {r}"
                        );
                    }
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    fn sitcom_base() -> Vec<Triple> {
        vec![
            t("Julia", "actedIn", "Seinfeld"),
            t("Julia", "actedIn", "Veep"),
            t("Jerry", "actedIn", "Seinfeld"),
            t("Seinfeld", "location", "NewYork"),
            t("Veep", "location", "Washington"),
            t("Jerry", "hasFriend", "Julia"),
        ]
    }

    #[test]
    fn empty_delta_is_pass_through() {
        assert_overlay_matches_rebuild(sitcom_base(), vec![], vec![]);
    }

    #[test]
    fn inserts_are_ored_in() {
        assert_overlay_matches_rebuild(
            sitcom_base(),
            vec![
                t("Julia", "actedIn", "NewYork"), // new object for existing row
                t("Julia", "hasFriend", "Julia"), // self-loop on shared term
                t("Veep", "location", "NewYork"), // second object under a predicate
            ],
            vec![],
        );
    }

    #[test]
    fn tombstones_are_masked_out() {
        assert_overlay_matches_rebuild(
            sitcom_base(),
            vec![],
            vec![
                t("Julia", "actedIn", "Veep"),       // leaves the row non-empty
                t("Veep", "location", "Washington"), // empties a whole matrix row
            ],
        );
    }

    #[test]
    fn mixed_insert_delete_on_one_row() {
        assert_overlay_matches_rebuild(
            sitcom_base(),
            vec![t("Julia", "actedIn", "NewYork")],
            vec![
                t("Julia", "actedIn", "Seinfeld"),
                t("Julia", "actedIn", "Veep"),
            ],
        );
    }

    #[test]
    fn deleting_every_triple_of_a_predicate_yields_none() {
        let base = sitcom_base();
        let dels = vec![
            t("Seinfeld", "location", "NewYork"),
            t("Veep", "location", "Washington"),
        ];
        assert_overlay_matches_rebuild(base.clone(), vec![], dels.clone());

        // And directly: the merged load is None, exactly like a rebuilt store.
        let graph = Graph::from_triples(base).encode();
        let segments = Arc::new(BitMatStore::build(&graph));
        let mut delta = Delta::new();
        for tr in &dels {
            delta.tombstones.insert(graph.dict.encode(tr).unwrap());
        }
        let p = graph
            .dict
            .id(&Term::iri("location"), lbr_rdf::Dimension::Predicate)
            .unwrap();
        let overlay = OverlayCatalog::new(SegmentSource::Heap(segments), Arc::new(delta));
        assert_eq!(overlay.matrix(Family::So, p).unwrap(), None);
        assert_eq!(overlay.count(Family::So, p), 0);
    }

    /// A mapped base may undercount the tombstones: its TOC count is never
    /// checked against the blob, and a row the directory lacks counts 0.
    /// The overlay's counts saturate at zero instead of underflowing.
    #[test]
    fn corrupt_base_counts_saturate() {
        let graph = Graph::from_triples(sitcom_base()).encode();
        let store = BitMatStore::build(&graph);
        let path =
            std::env::temp_dir().join(format!("lbr-overlay-corrupt-{}.seg", std::process::id()));
        lbr_bitmat::disk::save_store(&store, &path).unwrap();
        // Segment layout: the blob base is the u64 at byte 16, and the TOC
        // starts at byte 48 with the S-O family: n_mats u32, then per
        // matrix key u32 | offset u64 | len u64 | count u64. A blob starts
        // n_rows u32 | n_cols u32 | count u64 | n_present u32.
        let mut bytes = std::fs::read(&path).unwrap();
        let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let key = u32::from_le_bytes(bytes[52..56].try_into().unwrap());
        let blob = (u64_at(&bytes, 16) + u64_at(&bytes, 56)) as usize;
        bytes[72..80].fill(0); // the TOC count
        bytes[blob + 16..blob + 20].fill(0); // n_present: no row is listed
        std::fs::write(&path, &bytes).unwrap();
        let disk = DiskCatalog::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let (s, o) = store.get(Family::So, key).unwrap().iter().next().unwrap();
        let mut delta = Delta::new();
        delta.tombstones.insert(EncodedTriple::new(s, key, o));
        let overlay = OverlayCatalog::new(SegmentSource::Disk(Arc::new(disk)), Arc::new(delta));
        assert_eq!(overlay.count(Family::So, key), 0);
        assert_eq!(overlay.row_count(Family::So, key, s), 0);
        assert_eq!(overlay.matrix(Family::So, key).unwrap(), None);
    }

    /// Every read-only database queries through this path, so the
    /// pass-through must lend the heap segments' own matrices and rows,
    /// never copy them.
    #[test]
    fn empty_delta_lends_heap_loads_borrowed() {
        let graph = Graph::from_triples(sitcom_base()).encode();
        let segments = SegmentSource::Heap(Arc::new(BitMatStore::build(&graph)));
        let overlay = OverlayCatalog::new(segments, Arc::new(Delta::new()));
        let d = overlay.dims();
        let (mut matrices, mut rows) = (0, 0);
        for f in Family::ALL {
            let (n_keys, n_rows, _) = f.shape(&d);
            for key in 0..n_keys {
                if let Some(m) = overlay.matrix(f, key).unwrap() {
                    assert!(matches!(m, Cow::Borrowed(_)), "{} {key}", f.name());
                    matrices += 1;
                }
                for r in 0..n_rows {
                    if let Some(row) = overlay.row(f, key, r).unwrap() {
                        assert!(matches!(row, Cow::Borrowed(_)), "{} {key} {r}", f.name());
                        rows += 1;
                    }
                }
            }
        }
        assert!(matrices > 0 && rows > 0, "the sweep touched real loads");
    }
}
