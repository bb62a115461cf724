//! [`OverlayCatalog`]: the delta merged into the compressed cursors.
//!
//! Engines never see the delta: they consume the [`Catalog`] trait, and
//! this implementation answers every load with *base segments + inserts −
//! tombstones*, exactly like [`BitMatStore`] answers them (`None` for
//! empty). Rows untouched by the delta are the base's compressed rows
//! as they are; a touched row is edited at run level (`(base ∪ ins) ∖
//! tomb` over runs or sparse positions, never decoded bit by bit) into the
//! representation a rebuild would pick — so the result of every load is
//! **bit-for-bit identical** to what a `BitMatStore` built from the merged
//! triples would return, which is what keeps all five engines
//! byte-equivalent to a from-scratch rebuild.
//!
//! A load the delta does not touch is the base catalog's own answer
//! handed through — a heap matrix or row lent, a mapped matrix decoded
//! once, a mapped row lent in place — so the overlay never adds a copy of
//! a base matrix or row on either medium, and with an empty delta its
//! overhead is one branch per load. The one row it owns is a row the delta
//! edited ([`BitRow::edit`]).
//!
//! `init`'s masked load ([`Catalog::masked`]) is where the merge happens:
//! the base answers its own masked load (reading only the rows the masks
//! keep), and only the delta pairs the masks keep are read and merged in,
//! since `((base ∪ ins) ∖ tomb) ∧ M = ((base ∧ M) ∪ (ins ∧ M)) ∖ tomb`.
//! The delta is read per kept row, either by probing the row mask's set
//! bits ([`crate::TripleSet::cols`]) or in one walk over the key's changes
//! ([`Delta::changed_rows`]), whichever reads less; nothing is collected or
//! re-sorted. The merge is one pass that writes a new arena, sized up
//! front: the masked base's rows are copied into it in order, and each
//! touched or new row is edited straight into it ([`BitMat::push_edit`]),
//! so a merge allocates the same few vectors however many rows it
//! touches. A whole-matrix load of a touched key is the masked load with
//! no mask.

use crate::delta::Delta;
use lbr_bitmat::{
    BitMat, BitMatError, BitMatRef, BitMatStore, BitRow, BitVec, Catalog, CowRow, CubeDims,
    DiskCatalog, Family, SetScratch,
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
        self.catalog().contains(e.s, e.p, e.o)
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
        if self.delta.count(key) == 0 {
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
        let changes = self.delta.count(key);
        if changes == 0 {
            return Ok(base);
        }
        // ((base ∪ ins) ∖ tomb) ∧ M = ((base ∧ M) ∪ (ins ∧ M)) ∖ tomb: only
        // the rows the row mask keeps are edited, with only the inserts the
        // column mask keeps. They are found by probing the mask's set bits,
        // or by walking the key's changes, whichever reads less: a probe
        // descends both ordered sets (about log₂ of the delta's size steps),
        // a walk step reads one change.
        let (_, n_rows, n_cols) = f.shape(&self.dims);
        let base = base.unwrap_or_else(|| BitMat::empty(n_rows, n_cols));
        let (ins, tomb) = (&self.delta.inserts, &self.delta.tombstones);
        let probe_steps = u64::from(self.delta.len().max(2).ilog2());
        // A change adds at most one row, and the row mask bounds them too.
        let new_rows = rows.map_or(changes, |m| changes.min(u64::from(m.count_ones())));
        let new_rows = usize::try_from(new_rows).unwrap_or(usize::MAX);
        let merged = match rows {
            Some(mask) if u64::from(mask.count_ones()) * probe_steps < changes => {
                let probed = mask
                    .iter_ones()
                    .map(|r| (r, ins.cols(f, key, r), tomb.cols(f, key, r)));
                merge(base.as_ref(), probed, new_rows, cols)
            }
            _ => {
                let changed = self.delta.changed_rows(f, key);
                let kept = changed.filter(|row| rows.is_none_or(|m| m.get(row.0)));
                merge(base.as_ref(), kept, new_rows, cols)
            }
        };
        Ok((!merged.as_ref().is_empty()).then_some(merged))
    }

    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<CowRow<'_>>, BitMatError> {
        let base = self.segments.catalog().row(f, key, r)?;
        if self.delta.is_empty() {
            return Ok(base);
        }
        let ins = self.delta.inserts.cols(f, key, r);
        let tomb = self.delta.tombstones.cols(f, key, r);
        if ins.clone().next().is_none() && tomb.clone().next().is_none() {
            return Ok(base);
        }
        let (_, _, n_cols) = f.shape(&self.dims);
        let base = base.as_ref().map(CowRow::as_ref);
        Ok(BitRow::edit(base, n_cols, ins, tomb).map(CowRow::Owned))
    }

    /// Base plus inserts minus tombstones, saturating: the base counts of a
    /// mapped segment are untrusted bytes (a corrupt TOC count, or a blob
    /// that reads as 0), so they may undercount the tombstones.
    fn count(&self, f: Family, key: u32) -> u64 {
        let base = self.segments.catalog().count(f, key);
        base.saturating_add(self.delta.inserts.count(key))
            .saturating_sub(self.delta.tombstones.count(key))
    }

    fn row_count(&self, f: Family, key: u32, r: u32) -> u64 {
        let base = self.segments.catalog().row_count(f, key, r);
        base.saturating_add(self.delta.inserts.row_count(f, key, r))
            .saturating_sub(self.delta.tombstones.row_count(f, key, r))
    }

    /// The base's list plus each predicate an insert gives row `r`. A
    /// tombstone may empty a listed row, so the list may be a superset;
    /// the row then reads as empty, and the list stays exact for every
    /// load.
    fn predicates(&self, f: Family, r: u32) -> Result<Cow<'_, [u32]>, BitMatError> {
        let base = self.segments.catalog().predicates(f, r)?;
        let ins = &self.delta.inserts;
        let mut added = ins
            .predicates()
            .filter(|&p| ins.cols(f, p, r).next().is_some())
            .peekable();
        if added.peek().is_none() {
            return Ok(base);
        }
        let mut list: Vec<u32> = base.iter().copied().chain(added).collect();
        list.sort_unstable();
        list.dedup();
        Ok(Cow::Owned(list))
    }
}

/// Merges `changes` — ascending rows, each with its inserted and its
/// tombstoned columns — into `base`, the masked base, as a new matrix;
/// only the inserts the column mask `cols` keeps are merged. Base rows
/// are copied in order, and a changed or new row is edited straight into
/// the new arena where it belongs (and left out if nothing is left of it).
///
/// The arena is allocated once for `base` plus `new_rows` more rows of
/// two words each (a change that opens a run or splits one adds two);
/// it grows only when the edits add more than that.
fn merge<I, T>(
    base: BitMatRef<'_>,
    changes: impl Iterator<Item = (u32, I, T)>,
    new_rows: usize,
    cols: Option<&BitVec>,
) -> BitMat
where
    I: Iterator<Item = u32> + Clone,
    T: Iterator<Item = u32> + Clone,
{
    let mut out = BitMat::with_capacity(
        base.n_rows(),
        base.n_cols(),
        base.n_present().saturating_add(new_rows),
        base.arena_words()
            .saturating_add(new_rows.saturating_mul(2)),
    );
    let mut rows = base.rows().peekable();
    for (r, ins, tomb) in changes {
        let ins = ins.filter(|&c| cols.is_none_or(|m| m.get(c)));
        if ins.clone().next().is_none() && tomb.clone().next().is_none() {
            continue;
        }
        while let Some((id, row)) = rows.next_if(|&(id, _)| id < r) {
            out.push_row(id, row);
        }
        let old = rows.next_if(|&(id, _)| id == r).map(|(_, row)| row);
        out.push_edit(r, old, ins, tomb);
    }
    rows.for_each(|(id, row)| out.push_row(id, row));
    out
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
                // The predicate lists may list more than a rebuild, and the
                // P-O and P-S matrices built from them are the rebuild's.
                let (_, n_rows, _) = f.shape(&d);
                for r in 0..n_rows {
                    let at = format!("{medium} {} row {r}", f.name());
                    let listed = overlay.predicates(f, r).unwrap();
                    let exact = rebuilt.predicates(f, r).unwrap();
                    assert!(exact.iter().all(|p| listed.contains(p)), "{at}");
                    assert!(listed.windows(2).all(|w| w[0] < w[1]), "{at}");
                    let got = overlay.predicate_matrix(f, r, None, None, &mut scratch);
                    let want = rebuilt.predicate_matrix(f, r, None, None, &mut scratch);
                    assert_eq!(got.unwrap(), want.unwrap(), "{at}");
                    let count = overlay.predicate_count(f, r);
                    assert_eq!(count, rebuilt.predicate_count(f, r), "{at}");
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
        // n_present u32 | n_words u32, then its arrays.
        let mut bytes = std::fs::read(&path).unwrap();
        let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let key = u32::from_le_bytes(bytes[52..56].try_into().unwrap());
        let blob = (u64_at(&bytes, 16) + u64_at(&bytes, 56)) as usize;
        bytes[64..72].copy_from_slice(&8u64.to_le_bytes()); // the TOC length
        bytes[72..80].fill(0); // the TOC count
        bytes[blob..blob + 8].fill(0); // n_present, n_words: no row is listed
        std::fs::write(&path, &bytes).unwrap();
        let disk = DiskCatalog::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let (s, o) = store
            .get(Family::So, key)
            .unwrap()
            .as_ref()
            .iter()
            .next()
            .unwrap();
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
                        assert!(matches!(row, CowRow::Borrowed(_)), "{} {key} {r}", f.name());
                        rows += 1;
                    }
                }
            }
        }
        assert!(matrices > 0 && rows > 0, "the sweep touched real loads");
    }
}
