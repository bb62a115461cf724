//! On-disk BitMat segment format (v2) and the mmap-backed [`DiskCatalog`].
//!
//! The paper keeps its `2|Vp| + |Vs| + |Vo|` BitMats on disk (20–41 GB) and
//! loads only the matrices a query's triple patterns need. We mirror that
//! with a single page-aligned segment file that is read **zero-copy**: the
//! whole file is `mmap`'d once and every integer array inside it is 4-byte
//! aligned, so row payloads can be reinterpreted as `&[u32]` and cursored
//! directly ([`MappedMatrix::cursor`], [`crate::kernel::RowCursor`])
//! without ever copying a row onto the heap.
//!
//! ```text
//! header page(s), zero-padded to a 4096-byte boundary:
//!   magic    "LBRBM002"
//!   version  u32 (= 2) | reserved u32 (= 0)
//!   blob_base u64           — absolute offset of the blob region (page-aligned)
//!   dims     n_subjects u32 | n_predicates u32 | n_objects u32 | n_shared u32
//!            | n_triples u64
//!   toc      4 families × [ n_mats u32 | (key u32, offset u64, len u64,
//!            count u64) × n_mats ]    — offsets relative to blob_base
//! blob region, each matrix blob aligned to 64 bytes:
//!   n_rows u32 | n_cols u32 | count u64 | n_present u32 | reserved u32
//!   row directory: (row_id u32, row_count u32, rel_words u32) × n_present,
//!                  ascending by row_id; rel_words is a word offset into the
//!                  payload
//!   row payloads:  per row [tag u32 | n u32 | n or 2n u32s]
//!                  (BitRow::write_words_to — all fields full words)
//! ```
//!
//! Every length and offset is validated before it is used: the header and
//! TOC at open, a matrix's row directory on every touch
//! ([`DiskCatalog::mapped`]), and a row's payload when a load reads that
//! row. A truncated or corrupt file yields [`BitMatError::Corrupt`], never
//! UB. The v1 format (`LBRBM001`, byte-packed rows behind a seeking file
//! handle) is superseded; v1 files are rejected with a clear error.
//!
//! The row directory allows [`Catalog::row`] (the paper's single-row loads
//! for two-fixed-position patterns) and [`Catalog::row_count`] (selectivity
//! metadata) to binary-search a mapped directory plus touch one row, never
//! the whole matrix. [`Catalog::masked`] (`init`'s active-pruning load)
//! uses it the same way: rows are decoded and validated only when the
//! load's masks keep them ([`MappedMatrix::masked`]), so a row the masks
//! drop is never read. Since the mapping is shared and immutable, the
//! catalog needs no locks at all.

use crate::bitvec::BitVec;
use crate::catalog::{Catalog, CubeDims, Family};
use crate::error::BitMatError;
use crate::kernel::{RowCursor, SetScratch};
use crate::matrix::BitMat;
use crate::mmap::{words_of, Mmap};
use crate::row::{BitRow, WordRow};
use crate::store::BitMatStore;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 8] = b"LBRBM002";
const MAGIC_V1: &[u8; 8] = b"LBRBM001";
const VERSION: u32 = 2;
/// Page size the header region is padded to; blob region starts here-aligned.
const PAGE: usize = 4096;
/// Alignment of each matrix blob within the blob region (cache line).
const BLOB_ALIGN: usize = 64;
/// Fixed header bytes before the TOC: magic(8) + version(4) + reserved(4)
/// + blob_base(8) + dims(16 + 8).
const FIXED_HEADER: usize = 48;
/// Matrix blob header bytes before the row directory.
const MAT_HEADER: usize = 24;
/// Bytes per row-directory entry.
const DIR_ENTRY: usize = 12;

#[derive(Debug, Clone, Copy)]
struct TocEntry {
    offset: u64,
    len: u64,
    count: u64,
}

fn corrupt(m: impl Into<String>) -> BitMatError {
    BitMatError::Corrupt(m.into())
}

/// Serializes a store to `path` in the v2 segment format, returning the
/// number of bytes written.
pub fn save_store(store: &BitMatStore, path: &Path) -> Result<u64, BitMatError> {
    let dims = store.dims();
    let mut toc: [Vec<(u32, u64, u64, u64)>; 4] = Default::default();
    let mut blobs: Vec<u8> = Vec::new();
    for (fam, key, mat) in store.iter_families() {
        if mat.is_empty() {
            continue;
        }
        // Align each blob so every word inside it stays 4-byte aligned
        // relative to the page-aligned blob base.
        let pad = blobs.len().next_multiple_of(BLOB_ALIGN) - blobs.len();
        blobs.extend(std::iter::repeat_n(0u8, pad));
        let offset = blobs.len() as u64;
        encode_matrix(mat, &mut blobs);
        let len = blobs.len() as u64 - offset;
        toc[fam as usize].push((key, offset, len, mat.triple_count()));
    }
    let mut header: Vec<u8> = Vec::new();
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    let blob_base_at = header.len();
    header.extend_from_slice(&0u64.to_le_bytes()); // blob_base, patched below
    header.extend_from_slice(&dims.n_subjects.to_le_bytes());
    header.extend_from_slice(&dims.n_predicates.to_le_bytes());
    header.extend_from_slice(&dims.n_objects.to_le_bytes());
    header.extend_from_slice(&dims.n_shared.to_le_bytes());
    header.extend_from_slice(&dims.n_triples.to_le_bytes());
    for entries in &toc {
        header.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for &(key, offset, len, count) in entries {
            header.extend_from_slice(&key.to_le_bytes());
            header.extend_from_slice(&offset.to_le_bytes());
            header.extend_from_slice(&len.to_le_bytes());
            header.extend_from_slice(&count.to_le_bytes());
        }
    }
    let blob_base = header.len().next_multiple_of(PAGE);
    header[blob_base_at..blob_base_at + 8].copy_from_slice(&(blob_base as u64).to_le_bytes());
    header.resize(blob_base, 0);
    let mut f = File::create(path)?;
    f.write_all(&header)?;
    f.write_all(&blobs)?;
    f.flush()?;
    Ok(header.len() as u64 + blobs.len() as u64)
}

fn encode_matrix(mat: &BitMat, out: &mut Vec<u8>) {
    out.extend_from_slice(&mat.n_rows().to_le_bytes());
    out.extend_from_slice(&mat.n_cols().to_le_bytes());
    out.extend_from_slice(&mat.triple_count().to_le_bytes());
    out.extend_from_slice(&(mat.rows().len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    // Two passes: payloads first into a scratch buffer to learn offsets.
    let mut payload: Vec<u8> = Vec::new();
    let mut dir: Vec<(u32, u32, u32)> = Vec::with_capacity(mat.rows().len());
    for (id, row) in mat.rows() {
        let rel_words = (payload.len() / 4) as u32;
        row.write_words_to(&mut payload);
        dir.push((*id, row.count_ones(), rel_words));
    }
    for (id, cnt, rel) in dir {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&cnt.to_le_bytes());
        out.extend_from_slice(&rel.to_le_bytes());
    }
    out.extend_from_slice(&payload);
}

/// A zero-copy view of one matrix inside a mapped segment.
///
/// The directory and payload are `&[u32]` slices borrowed straight from
/// the mapping; [`MappedMatrix::cursor`] hands out a
/// [`RowCursor`] that walks the mapped words in place.
#[derive(Debug, Clone, Copy)]
pub struct MappedMatrix<'a> {
    n_rows: u32,
    n_cols: u32,
    count: u64,
    /// `(row_id, row_count, rel_words)` triplets, flattened.
    dir: &'a [u32],
    payload: &'a [u32],
}

impl<'a> MappedMatrix<'a> {
    fn from_blob(bytes: &'a [u8]) -> Result<MappedMatrix<'a>, BitMatError> {
        if bytes.len() < MAT_HEADER || !bytes.len().is_multiple_of(4) {
            return Err(corrupt("matrix blob too short or misaligned"));
        }
        let u32_at =
            |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"));
        let n_rows = u32_at(0);
        let n_cols = u32_at(4);
        let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        let n_present = u32_at(16) as usize;
        let dir_end = MAT_HEADER
            .checked_add(
                n_present
                    .checked_mul(DIR_ENTRY)
                    .ok_or_else(|| corrupt("dir size"))?,
            )
            .ok_or_else(|| corrupt("dir size"))?;
        if dir_end > bytes.len() {
            return Err(corrupt("row directory out of bounds"));
        }
        let dir = words_of(&bytes[MAT_HEADER..dir_end])
            .ok_or_else(|| corrupt("misaligned row directory"))?;
        let payload =
            words_of(&bytes[dir_end..]).ok_or_else(|| corrupt("misaligned row payload"))?;
        // Directory row ids must ascend (binary-searched) and stay in range.
        for k in 0..n_present {
            let id = dir[3 * k];
            if id >= n_rows || (k > 0 && dir[3 * (k - 1)] >= id) {
                return Err(corrupt("row directory not ascending"));
            }
        }
        Ok(MappedMatrix {
            n_rows,
            n_cols,
            count,
            dir,
            payload,
        })
    }

    /// Number of rows in the (conceptual, dense) row dimension.
    pub fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Number of columns (the universe of every row).
    pub fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// Number of set bits (triples held by this matrix).
    pub fn triple_count(&self) -> u64 {
        self.count
    }

    /// Number of non-empty rows present.
    pub fn n_present(&self) -> usize {
        self.dir.len() / 3
    }

    fn dir_slot(&self, row_id: u32) -> Option<usize> {
        let n = self.n_present();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.dir[3 * mid].cmp(&row_id) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Set-bit count of one row (0 when absent) — directory only.
    pub fn row_count(&self, row_id: u32) -> u32 {
        self.dir_slot(row_id).map_or(0, |k| self.dir[3 * k + 1])
    }

    /// The `(tag, body)` words of one row's payload: tag 0 = ascending
    /// sparse positions, tag 1 = flattened `[start, end)` run pairs.
    /// Returns an error (not UB) when the stored offsets are corrupt.
    pub fn row_words(&self, row_id: u32) -> Result<Option<(u32, &'a [u32])>, BitMatError> {
        let Some(k) = self.dir_slot(row_id) else {
            return Ok(None);
        };
        let rel = self.dir[3 * k + 2] as usize;
        let tag = *self
            .payload
            .get(rel)
            .ok_or_else(|| corrupt("row offset out of bounds"))?;
        let n = *self
            .payload
            .get(rel + 1)
            .ok_or_else(|| corrupt("row length out of bounds"))? as usize;
        let body_len = match tag {
            0 => n,
            1 => n
                .checked_mul(2)
                .ok_or_else(|| corrupt("run count overflow"))?,
            _ => return Err(corrupt("unknown row tag")),
        };
        let body = self
            .payload
            .get(rel + 2..rel + 2 + body_len)
            .ok_or_else(|| corrupt("row body out of bounds"))?;
        Ok(Some((tag, body)))
    }

    /// A zero-copy [`RowCursor`] over one row's mapped words (`None` when
    /// the row is absent). The cursor seeks/intersects directly on the
    /// mapped pages — nothing is decoded onto the heap.
    pub fn cursor(&self, row_id: u32) -> Result<Option<RowCursor<'a>>, BitMatError> {
        Ok(self.row_words(row_id)?.map(|(tag, body)| match tag {
            0 => RowCursor::from_mapped_sparse(body),
            _ => RowCursor::from_mapped_runs(body),
        }))
    }

    /// Decodes one row into an owned [`BitRow`] (`None` when absent).
    pub fn row(&self, row_id: u32) -> Result<Option<BitRow>, BitMatError> {
        self.dir_slot(row_id)
            .map(|k| Ok(self.word_row(k)?.decode()))
            .transpose()
    }

    /// The row in directory slot `k`, validated but not decoded.
    fn word_row(&self, k: usize) -> Result<WordRow<'a>, BitMatError> {
        let rel = self.dir[3 * k + 2] as usize;
        let words = self
            .payload
            .get(rel..)
            .ok_or_else(|| corrupt("row offset out of bounds"))?;
        WordRow::parse(words, self.n_cols).ok_or_else(|| corrupt("bad row payload"))
    }

    /// An owned matrix holding only the triples whose row is set in `rows`
    /// and whose column is set in `cols` (`None` keeps a dimension whole;
    /// masks are clipped as in [`BitMat::unfold_with`]): the masked load of
    /// [`Catalog::masked`], read off the mapped pages.
    ///
    /// It takes [`BitMat::masked`]'s two walks: the row mask's set bits are
    /// probed in the directory when there are fewer of them than present
    /// rows, and the directory is walked otherwise. Each kept row is
    /// validated from its words, then ANDed with the column mask straight
    /// from them, so it is allocated once, at its exact size, and only when
    /// something is left of it. A corrupt row the masks keep is an error;
    /// one they drop is never read.
    pub fn masked(
        &self,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<BitMat, BitMatError> {
        let n = self.n_present();
        let candidates = rows.map_or(usize::MAX, |m| m.count_ones() as usize);
        let mut kept = Vec::with_capacity(candidates.min(n));
        let mut keep = |k: usize| -> Result<(), BitMatError> {
            let row = self.word_row(k)?;
            let row = match cols {
                Some(mask) => row.and_mask_copy(mask, scratch),
                None => Some(row.decode()),
            };
            kept.extend(row.map(|row| (self.dir[3 * k], row)));
            Ok(())
        };
        match rows {
            Some(mask) if candidates < n => {
                for r in mask.iter_ones() {
                    if let Some(k) = self.dir_slot(r) {
                        keep(k)?;
                    }
                }
            }
            _ => {
                for k in 0..n {
                    if rows.is_none_or(|mask| mask.get(self.dir[3 * k])) {
                        keep(k)?;
                    }
                }
            }
        }
        Ok(BitMat::from_rows(self.n_rows, self.n_cols, kept))
    }
}

/// An mmap-backed, lock-free catalog over the on-disk segment.
///
/// The TOC (a few entries per matrix) lives in memory; matrix bodies stay
/// on their mapped pages and are either viewed zero-copy
/// ([`DiskCatalog::mapped`]) or decoded for the owned [`Catalog`] loads.
/// A row is decoded and validated only when a load reads it: a masked
/// load ([`Catalog::masked`]) reads only the rows its masks keep, and
/// [`Catalog::matrix`] is the masked load with no mask. The kernel page
/// cache does the tiering.
pub struct DiskCatalog {
    map: Mmap,
    dims: CubeDims,
    blob_base: usize,
    toc: [HashMap<u32, TocEntry>; 4],
}

impl std::fmt::Debug for DiskCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCatalog")
            .field("dims", &self.dims)
            .field("mapped_bytes", &self.map.len())
            .finish_non_exhaustive()
    }
}

impl DiskCatalog {
    /// Opens (mmaps) a segment written by [`save_store`]. Every header
    /// field and TOC entry is bounds-validated here; a matrix's directory
    /// and rows are validated when a load reads them. Corrupt input errors
    /// — it never causes an out-of-bounds access.
    pub fn open(path: &Path) -> Result<Self, BitMatError> {
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        let bytes = map.as_slice();
        if bytes.len() < FIXED_HEADER {
            return Err(corrupt("file shorter than header"));
        }
        if &bytes[0..8] != MAGIC {
            if &bytes[0..8] == MAGIC_V1 {
                return Err(corrupt(
                    "v1 index (LBRBM001) is no longer supported; re-save the store",
                ));
            }
            return Err(corrupt("bad magic"));
        }
        let u32_at = |at: usize| -> Result<u32, BitMatError> {
            Ok(u32::from_le_bytes(
                bytes
                    .get(at..at + 4)
                    .ok_or_else(|| corrupt("truncated header"))?
                    .try_into()
                    .expect("4-byte slice"),
            ))
        };
        let u64_at = |at: usize| -> Result<u64, BitMatError> {
            Ok(u64::from_le_bytes(
                bytes
                    .get(at..at + 8)
                    .ok_or_else(|| corrupt("truncated header"))?
                    .try_into()
                    .expect("8-byte slice"),
            ))
        };
        let version = u32_at(8)?;
        if version != VERSION {
            return Err(corrupt(format!("unsupported segment version {version}")));
        }
        let blob_base = u64_at(16)? as usize;
        if !blob_base.is_multiple_of(PAGE) || blob_base > bytes.len() || blob_base < FIXED_HEADER {
            return Err(corrupt("bad blob base"));
        }
        let dims = CubeDims {
            n_subjects: u32_at(24)?,
            n_predicates: u32_at(28)?,
            n_objects: u32_at(32)?,
            n_shared: u32_at(36)?,
            n_triples: u64_at(40)?,
        };
        let blob_len = bytes.len() - blob_base;
        let mut toc: [HashMap<u32, TocEntry>; 4] = Default::default();
        let mut at = FIXED_HEADER;
        for (f, fam) in Family::ALL.into_iter().zip(toc.iter_mut()) {
            let n = u32_at(at)? as usize;
            at += 4;
            for _ in 0..n {
                let key = u32_at(at)?;
                let offset = u64_at(at + 4)?;
                let len = u64_at(at + 12)?;
                let count = u64_at(at + 20)?;
                at += 28;
                let end = offset
                    .checked_add(len)
                    .ok_or_else(|| corrupt("TOC overflow"))?;
                if end > blob_len as u64 || offset % 4 != 0 {
                    return Err(corrupt(format!(
                        "{} TOC entry of key {key} out of bounds",
                        f.name()
                    )));
                }
                fam.insert(key, TocEntry { offset, len, count });
            }
            if at > blob_base {
                return Err(corrupt("TOC extends past blob base"));
            }
        }
        Ok(DiskCatalog {
            map,
            dims,
            blob_base,
            toc,
        })
    }

    /// Total size of the mapped segment in bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// Zero-copy view of the matrix of `key` in family `f`, validated on
    /// this touch.
    pub fn mapped(&self, f: Family, key: u32) -> Result<Option<MappedMatrix<'_>>, BitMatError> {
        let Some(e) = self.toc[f as usize].get(&key) else {
            return Ok(None);
        };
        let start = self.blob_base + e.offset as usize;
        let bytes = self
            .map
            .as_slice()
            .get(start..start + e.len as usize)
            .ok_or_else(|| corrupt(format!("{} blob of key {key} out of bounds", f.name())))?;
        MappedMatrix::from_blob(bytes).map(Some)
    }
}

impl Catalog for DiskCatalog {
    fn dims(&self) -> CubeDims {
        self.dims
    }

    fn matrix(&self, f: Family, key: u32) -> Result<Option<Cow<'_, BitMat>>, BitMatError> {
        let mat = self.masked(f, key, None, None, &mut SetScratch::default())?;
        Ok(mat.map(Cow::Owned))
    }

    fn masked(
        &self,
        f: Family,
        key: u32,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<Option<BitMat>, BitMatError> {
        let Some(mapped) = self.mapped(f, key)? else {
            return Ok(None);
        };
        let mat = mapped.masked(rows, cols, scratch)?;
        Ok((!mat.is_empty()).then_some(mat))
    }

    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<Cow<'_, BitRow>>, BitMatError> {
        match self.mapped(f, key)? {
            None => Ok(None),
            Some(m) => Ok(m.row(r)?.map(Cow::Owned)),
        }
    }

    fn count(&self, f: Family, key: u32) -> u64 {
        self.toc[f as usize].get(&key).map_or(0, |e| e.count)
    }

    fn row_count(&self, f: Family, key: u32, r: u32) -> u64 {
        match self.mapped(f, key) {
            Ok(Some(m)) => m.row_count(r) as u64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_rdf::{Graph, Term, Triple};

    fn sample_store() -> BitMatStore {
        let mut triples = Vec::new();
        for i in 0..40 {
            triples.push(Triple::new(
                Term::iri(format!("s{}", i % 7)),
                Term::iri(format!("p{}", i % 3)),
                Term::iri(format!("o{i}")),
            ));
            // A chain so S and O overlap.
            triples.push(Triple::new(
                Term::iri(format!("o{i}")),
                Term::iri("next"),
                Term::iri(format!("s{}", (i + 1) % 7)),
            ));
        }
        BitMatStore::build(&Graph::from_triples(triples).encode())
    }

    #[test]
    fn save_and_reload_matches_store() {
        let store = sample_store();
        let dir = std::env::temp_dir().join("lbr_bitmat_test_roundtrip.idx");
        let bytes = save_store(&store, &dir).unwrap();
        assert!(bytes > 0);
        let cat = DiskCatalog::open(&dir).unwrap();
        assert_eq!(cat.dims(), store.dims());
        assert_eq!(cat.mapped_bytes(), bytes);
        let dims = store.dims();
        for f in Family::ALL {
            let (n_keys, n_rows, _) = f.shape(&dims);
            for key in 0..n_keys {
                let name = f.name();
                assert_eq!(
                    cat.count(f, key),
                    store.count(f, key),
                    "{name} count({key})"
                );
                assert_eq!(
                    cat.matrix(f, key).unwrap(),
                    store.matrix(f, key).unwrap(),
                    "{name} matrix({key})"
                );
                for r in 0..n_rows {
                    assert_eq!(cat.row_count(f, key, r), store.row_count(f, key, r));
                    assert_eq!(cat.row(f, key, r).unwrap(), store.row(f, key, r).unwrap());
                }
            }
        }
        // The mmap side decodes what the heap side lends.
        assert!(matches!(cat.matrix(Family::So, 0), Ok(Some(Cow::Owned(_)))));
        std::fs::remove_file(&dir).ok();
    }

    /// The v2 byte layout, pinned: the Figure 3.2 graph serializes to
    /// exactly these bytes (length and FNV-1a-64 recorded before `Family`
    /// existed). A reordered discriminant, TOC or blob change fails here
    /// rather than as a benchmark digest mismatch.
    #[test]
    fn segment_format_is_pinned() {
        let store = BitMatStore::build(&crate::store::tests::figure_3_2_graph());
        let path = std::env::temp_dir().join("lbr_bitmat_test_pin.idx");
        assert_eq!(save_store(&store, &path).unwrap(), 5872);
        let bytes = std::fs::read(&path).unwrap();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (5872, 0x2e6e_e5d2_26e2_7ac8));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_cursors_match_owned_rows() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_cursors.idx");
        save_store(&store, &path).unwrap();
        let cat = DiskCatalog::open(&path).unwrap();
        let dims = store.dims();
        for p in 0..dims.n_predicates {
            let Some(mapped) = cat.mapped(Family::So, p).unwrap() else {
                continue;
            };
            let owned = store.matrix(Family::So, p).unwrap().unwrap();
            assert_eq!(mapped.triple_count(), owned.triple_count());
            for (id, row) in owned.rows() {
                // Zero-copy cursor walks the same positions.
                let mut cur = mapped.cursor(*id).unwrap().unwrap();
                let mut got = Vec::new();
                while let Some(pos) = cur.peek() {
                    got.push(pos);
                    cur.advance();
                }
                assert_eq!(got, row.iter_ones().collect::<Vec<_>>(), "so({p}) row {id}");
                assert_eq!(mapped.row_count(*id), row.count_ones());
            }
            assert!(mapped.cursor(u32::MAX).unwrap().is_none());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_bad_magic_and_v1() {
        let path = std::env::temp_dir().join("lbr_bitmat_test_badmagic.idx");
        std::fs::write(&path, b"NOTANIDX________________________________________").unwrap();
        assert!(matches!(
            DiskCatalog::open(&path),
            Err(BitMatError::Corrupt(_))
        ));
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &v1).unwrap();
        match DiskCatalog::open(&path) {
            Err(BitMatError::Corrupt(m)) => assert!(m.contains("v1"), "got: {m}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_files_error_not_ub() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_trunc.idx");
        save_store(&store, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Truncations at a spread of prefix lengths: open either fails or
        // every subsequent load fails cleanly.
        for frac in [0, 7, 47, 100, 4095, 4096, 4100] {
            let n = frac.min(full.len());
            std::fs::write(&path, &full[..n]).unwrap();
            if let Ok(cat) = DiskCatalog::open(&path) {
                let dims = cat.dims();
                for p in 0..dims.n_predicates {
                    let _ = cat.matrix(Family::So, p);
                    let _ = cat.matrix(Family::Os, p);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A row's payload is read only when a masked load keeps the row: with
    /// one row corrupt, masks that drop it load exactly what the heap store
    /// loads, on both walks, and masks that keep it are `Corrupt`.
    #[test]
    fn masked_load_reads_only_the_rows_it_keeps() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_masked_corrupt.idx");
        save_store(&store, &path).unwrap();
        // The S-O matrix with the most rows; its first row gets an unknown
        // payload tag.
        let (key, bad, n_rows) = {
            let cat = DiskCatalog::open(&path).unwrap();
            let present = |p| {
                cat.mapped(Family::So, p)
                    .unwrap()
                    .map_or(0, |m| m.n_present())
            };
            let key = (0..cat.dims().n_predicates)
                .max_by_key(|&p| present(p))
                .unwrap();
            let m = cat.mapped(Family::So, key).unwrap().unwrap();
            let blob = cat.blob_base + cat.toc[Family::So as usize][&key].offset as usize;
            let tag_at = blob + MAT_HEADER + m.n_present() * DIR_ENTRY + 4 * m.dir[2] as usize;
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[tag_at..tag_at + 4].copy_from_slice(&7u32.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            (key, m.dir[0], m.n_rows())
        };
        let cat = DiskCatalog::open(&path).unwrap();
        let heap = store.get(Family::So, key).unwrap();
        assert!(heap.rows().len() >= 3, "the sweep needs a multi-row matrix");
        let mut scratch = SetScratch::default();
        // Fewer set bits than present rows (probed), then more (walked).
        let others = BitVec::from_positions(n_rows, heap.rows()[1..].iter().map(|&(r, _)| r));
        let mut all_but = BitVec::ones(n_rows);
        all_but.clear(bad);
        // Every other column the matrix uses.
        let used = heap.fold(crate::RetainDim::Col);
        let half = BitVec::from_positions(heap.n_cols(), used.iter_ones().step_by(2));
        for rows in [&others, &all_but] {
            for cols in [None, Some(&half)] {
                let got = cat.masked(Family::So, key, Some(rows), cols, &mut scratch);
                let want = store.masked(Family::So, key, Some(rows), cols, &mut scratch);
                let want = want.unwrap().expect("the masks keep some triples");
                assert_eq!(got.unwrap(), Some(want));
            }
        }
        let only_bad = BitVec::from_positions(n_rows, [bad]);
        for rows in [Some(&only_bad), Some(&BitVec::ones(n_rows)), None] {
            for cols in [None, Some(&half)] {
                let got = cat.masked(Family::So, key, rows, cols, &mut scratch);
                assert!(matches!(got, Err(BitMatError::Corrupt(_))), "{got:?}");
            }
        }
        assert!(matches!(
            cat.matrix(Family::So, key),
            Err(BitMatError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_keys_are_none() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_missing.idx");
        save_store(&store, &path).unwrap();
        let cat = DiskCatalog::open(&path).unwrap();
        assert!(cat.matrix(Family::So, 9999).unwrap().is_none());
        assert!(cat.row(Family::Po, 0, 9999).unwrap().is_none());
        assert_eq!(cat.row_count(Family::Ps, 9999, 0), 0);
        std::fs::remove_file(&path).ok();
    }
}
