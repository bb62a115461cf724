//! On-disk BitMat segment format (v4) and the mmap-backed [`DiskCatalog`].
//!
//! The paper keeps its `2|Vp| + |Vs| + |Vo|` BitMats on disk (20–41 GB) and
//! loads only the matrices a query's triple patterns need. We mirror that
//! with a single page-aligned segment file that is read **zero-copy**: the
//! whole file is `mmap`'d once, and each matrix is stored as the three
//! arrays of its heap arena ([`BitMat`]), every field a 4-byte word. A
//! mapped matrix is therefore read through the same [`BitMatRef`] a heap
//! matrix lends, over `&[u32]` slices of the mapping, by every read kernel
//! and [`crate::kernel::RowCursor`], without ever copying a row onto the
//! heap.
//!
//! Only the `2|Vp|` S-O and O-S matrices are stored. In place of the
//! paper's P-O and P-S families the segment holds their row ids alone: per
//! subject and per object, the predicates it has ([`Catalog::predicates`]),
//! one offsets array and one id array per direction, as the heap store
//! holds them.
//!
//! ```text
//! header page(s), zero-padded to a 4096-byte boundary:
//!   magic    "LBRBM004"
//!   version  u32 (= 4) | reserved u32 (= 0)
//!   blob_base u64           — absolute offset of the blob region (page-aligned)
//!   dims     n_subjects u32 | n_predicates u32 | n_objects u32 | n_shared u32
//!            | n_triples u64
//!   toc      2 families (S-O, O-S) × [ n_mats u32 | (key u32, offset u64,
//!            len u64, count u64) × n_mats ]
//!   lists    2 directions (subjects, objects) × [ offset u64 | len u64 ]
//!                                 — offsets relative to blob_base
//! blob region, one matrix after another (its shape is its family's):
//!   n_present u32 | n_words u32
//!   ids      u32 × n_present      — the non-empty rows, ascending
//!   spans    [end | RUNS, count] u32 pairs × n_present
//!                                 — where each body ends in `words` (it
//!                                   starts where the previous one ends;
//!                                   bit 31 flags a runs body) and its bits
//!   words    u32 × n_words        — the row bodies back to back: ascending
//!                                   positions, or flattened [start, end) runs
//! then the two predicate lists, subjects' then objects':
//!   offsets  u32 × (n_rows + 1)   — row r's predicates are ids[offsets[r]
//!                                   .. offsets[r + 1]]
//!   ids      u32 × the rest       — ascending within each row
//! ```
//!
//! Every length and offset is validated before it is used: the header and
//! TOC at open, a blob's length against its two counts on every touch, its
//! ids and spans once per open catalog, on the first touch that finds them
//! sound ([`BitMatRef`]'s check: ids ascending below the family's row
//! count, every span non-empty, ends ascending to exactly `n_words`, runs
//! bodies of even length), a row's body —
//! order, the family's column bound, and its span's count — each time a
//! load reads that row ([`crate::RowRef::checked`]), and a predicate list
//! (its bounds, ascending, below `|Vp|`) each time it is read. A truncated
//! or corrupt file yields [`BitMatError::Corrupt`], never UB and never a
//! panic; corrupt ids or spans do so on every touch, since only a passed
//! check is remembered. Earlier formats — v1 (`LBRBM001`, byte-packed rows
//! behind a seeking file handle), v2 (`LBRBM002`, a row directory plus
//! tagged row payloads) and v3 (`LBRBM003`, all four families) — are
//! rejected with a clear error.
//!
//! [`Catalog::row`] (the paper's single-row loads for two-fixed-position
//! patterns) and [`Catalog::row_count`] (selectivity metadata) binary-search
//! a mapped matrix's ids and touch one span and one body, never the whole
//! matrix. [`Catalog::masked`] (`init`'s active-pruning load) is the same
//! [`BitMatRef::masked`] the heap store runs: rows are checked and copied
//! only when the load's masks keep them, so a row the masks drop is never
//! read. Since the mapping is shared and immutable, the catalog needs no
//! locks at all.

use crate::bitvec::BitVec;
use crate::catalog::{Catalog, CubeDims, Family};
use crate::error::BitMatError;
use crate::kernel::SetScratch;
use crate::matrix::{BitMat, BitMatRef};
use crate::mmap::{words_of, Mmap};
use crate::row::CowRow;
use crate::store::{list_in, BitMatStore};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

const MAGIC: &[u8; 8] = b"LBRBM004";
/// Earlier formats, each rejected by name.
const RETIRED: [(&[u8; 8], &str); 3] = [
    (b"LBRBM001", "v1"),
    (b"LBRBM002", "v2"),
    (b"LBRBM003", "v3"),
];
const VERSION: u32 = 4;
/// Page size the header region is padded to; blob region starts here-aligned.
const PAGE: usize = 4096;
/// Fixed header bytes before the TOC: magic(8) + version(4) + reserved(4)
/// + blob_base(8) + dims(16 + 8).
const FIXED_HEADER: usize = 48;

#[derive(Debug)]
struct TocEntry {
    offset: u64,
    len: u64,
    count: u64,
    /// Set once the matrix's ids and spans have passed their check.
    validated: AtomicBool,
}

fn corrupt(m: impl Into<String>) -> BitMatError {
    BitMatError::Corrupt(m.into())
}

/// Serializes a store to `path` in the v4 segment format, returning the
/// number of bytes written. Each matrix's arrays, and each direction's
/// predicate lists, are written as they are.
pub fn save_store(store: &BitMatStore, path: &Path) -> Result<u64, BitMatError> {
    let dims = store.dims();
    let mats = || {
        let mats = store
            .iter_families()
            .map(|(f, key, m)| (f, key, m.as_ref()));
        mats.filter(|(_, _, m)| !m.is_empty())
    };
    let mut toc: [Vec<(u32, u64, u64, u64)>; 2] = Default::default();
    let mut blobs = 0;
    for (fam, key, mat) in mats() {
        // Its two counts and its three arrays.
        let len = 4 * (2 + 3 * mat.n_present() as u64 + mat.arena_words() as u64);
        toc[fam as usize].push((key, blobs, len, mat.triple_count()));
        blobs += len;
    }
    let lists = Family::ALL.map(|f| store.lists(f));
    let list_toc = lists.map(|l| {
        blobs += 4 * l.len() as u64;
        (blobs - 4 * l.len() as u64, 4 * l.len() as u64)
    });
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
    for (offset, len) in list_toc {
        header.extend_from_slice(&offset.to_le_bytes());
        header.extend_from_slice(&len.to_le_bytes());
    }
    let blob_base = header.len().next_multiple_of(PAGE);
    header[blob_base_at..blob_base_at + 8].copy_from_slice(&(blob_base as u64).to_le_bytes());
    header.resize(blob_base, 0);
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&header)?;
    for (_, _, mat) in mats() {
        let counts = [mat.n_present() as u32, mat.arena_words() as u32];
        let arrays = [mat.ids, mat.spans.as_flattened(), mat.words];
        for w in counts.iter().chain(arrays.into_iter().flatten()) {
            f.write_all(&w.to_le_bytes())?;
        }
    }
    for w in lists.into_iter().flatten() {
        f.write_all(&w.to_le_bytes())?;
    }
    f.flush()?;
    Ok(header.len() as u64 + blobs)
}

/// An mmap-backed, lock-free catalog over the on-disk segment.
///
/// The TOC (a few entries per matrix) lives in memory; matrix arrays stay
/// on their mapped pages and are read in place through a [`BitMatRef`].
/// Each matrix's ids and spans are validated once per open catalog, on its
/// first touch, not at open (which would page in every matrix) and not on
/// every load. A row's body is validated only when a load reads it: a
/// masked load ([`Catalog::masked`]) reads only the rows its masks keep,
/// and [`Catalog::matrix`] is the masked load with no mask. The kernel
/// page cache does the tiering.
pub struct DiskCatalog {
    map: Mmap,
    dims: CubeDims,
    blob_base: usize,
    toc: [HashMap<u32, TocEntry>; 2],
    /// Per direction, the absolute byte range of its predicate lists.
    lists: [(usize, usize); 2],
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
    /// field and TOC entry is bounds-validated here; a matrix's ids and
    /// spans are validated on its first touch and its rows when a load
    /// reads them. Corrupt input errors — it never causes an out-of-bounds
    /// access.
    pub fn open(path: &Path) -> Result<Self, BitMatError> {
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        let bytes = map.as_slice();
        if bytes.len() < FIXED_HEADER {
            return Err(corrupt("file shorter than header"));
        }
        if &bytes[0..8] != MAGIC {
            if let Some((magic, v)) = RETIRED.iter().find(|(m, _)| &bytes[0..8] == *m) {
                let magic = String::from_utf8_lossy(*magic);
                return Err(corrupt(format!(
                    "{v} index ({magic}) is no longer supported; re-save the store"
                )));
            }
            return Err(corrupt("bad magic"));
        }
        // The little-endian integer of `n` bytes at `at`.
        let int_at = |at: usize, n: usize| {
            let field = bytes
                .get(at..at + n)
                .ok_or_else(|| corrupt("truncated header"));
            field.map(|b| b.iter().rev().fold(0, |v, &x| v << 8 | u64::from(x)))
        };
        let u32_at = |at| int_at(at, 4).map(|v| v as u32);
        let u64_at = |at| int_at(at, 8);
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
        // The `len` bytes at `offset` into the blob region, when they lie
        // in it as whole words.
        let in_blobs = |offset: u64, len: u64| {
            let end = offset.checked_add(len);
            end.is_some_and(|end| end <= blob_len as u64) && offset.is_multiple_of(4)
        };
        let mut toc: [HashMap<u32, TocEntry>; 2] = Default::default();
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
                if !in_blobs(offset, len) {
                    return Err(corrupt(format!(
                        "{} TOC entry of key {key} out of bounds",
                        f.name()
                    )));
                }
                let validated = AtomicBool::new(false);
                fam.insert(
                    key,
                    TocEntry {
                        offset,
                        len,
                        count,
                        validated,
                    },
                );
            }
            if at > blob_base {
                return Err(corrupt("TOC extends past blob base"));
            }
        }
        let mut lists = [(0, 0); 2];
        for (f, list) in Family::ALL.into_iter().zip(&mut lists) {
            let (offset, len) = (u64_at(at)?, u64_at(at + 8)?);
            at += 16;
            if !in_blobs(offset, len) {
                return Err(corrupt(format!(
                    "{} predicate lists out of bounds",
                    f.name()
                )));
            }
            *list = (blob_base + offset as usize, len as usize);
        }
        if at > blob_base {
            return Err(corrupt("TOC extends past blob base"));
        }
        Ok(DiskCatalog {
            map,
            dims,
            blob_base,
            toc,
            lists,
        })
    }

    /// Total size of the mapped segment in bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// Zero-copy view of the matrix of `key` in family `f`. Its blob's
    /// length is checked against its counts on every touch, and its ids and
    /// spans on the first touch that passes (corrupt ones are an error on
    /// every touch).
    fn mapped(&self, f: Family, key: u32) -> Result<Option<BitMatRef<'_>>, BitMatError> {
        let Some(e) = self.toc[f as usize].get(&key) else {
            return Ok(None);
        };
        let blob = || corrupt(format!("{} blob of key {key} is malformed", f.name()));
        let start = self.blob_base + e.offset as usize;
        let bytes = self.map.as_slice().get(start..start + e.len as usize);
        let words = bytes.and_then(words_of).ok_or_else(blob)?;
        let [n_present, n_words, arrays @ ..] = words else {
            return Err(blob());
        };
        let (n, n_words) = (*n_present as usize, *n_words as usize);
        if arrays.len() as u64 != 3 * n as u64 + n_words as u64 {
            return Err(blob());
        }
        let (ids, rest) = arrays.split_at(n);
        let (spans, words) = rest.split_at(2 * n);
        let (_, n_rows, n_cols) = f.shape(&self.dims);
        let arrays = (ids, spans.as_chunks::<2>().0, words);
        let mat = BitMatRef::mapped((n_rows, n_cols), e.count, arrays);
        // The bytes never change, so one successful check holds for good; a
        // failed one is not recorded and fails again on the next touch.
        if !e.validated.load(Ordering::Relaxed) {
            mat.check()?;
            e.validated.store(true, Ordering::Relaxed);
        }
        Ok(Some(mat))
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
        Ok((!mat.as_ref().is_empty()).then_some(mat))
    }

    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<CowRow<'_>>, BitMatError> {
        match self.mapped(f, key)? {
            None => Ok(None),
            Some(m) => Ok(m.read_row(r)?.map(CowRow::Borrowed)),
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

    fn predicates(&self, f: Family, r: u32) -> Result<Cow<'_, [u32]>, BitMatError> {
        let (start, len) = self.lists[f as usize];
        let words = self
            .map
            .as_slice()
            .get(start..start + len)
            .and_then(words_of);
        let (_, n_rows, _) = f.shape(&self.dims);
        let list = words.and_then(|w| list_in(w, n_rows, self.dims.n_predicates, r));
        let malformed = || {
            corrupt(format!(
                "{} predicate list of row {r} is malformed",
                f.name()
            ))
        };
        list.map(Cow::Borrowed).ok_or_else(malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::RowCursor;
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
            let (_, n_rows, _) = f.shape(&dims);
            for r in 0..n_rows + 2 {
                assert_eq!(
                    cat.predicates(f, r).unwrap(),
                    store.predicates(f, r).unwrap()
                );
                assert!(!store.predicates(f, r).unwrap().is_empty() || r >= n_rows);
            }
        }
        // The mmap side decodes what the heap side lends.
        assert!(matches!(cat.matrix(Family::So, 0), Ok(Some(Cow::Owned(_)))));
        std::fs::remove_file(&dir).ok();
    }

    /// The v4 byte layout, pinned: the Figure 3.2 graph serializes to
    /// exactly these bytes (length and FNV-1a-64 recorded when segments
    /// dropped the P-O and P-S families for predicate lists). A reordered
    /// discriminant, TOC, blob or list change fails here rather than as a
    /// benchmark digest mismatch.
    #[test]
    fn segment_format_is_pinned() {
        let store = BitMatStore::build(&crate::store::tests::figure_3_2_graph());
        let path = std::env::temp_dir().join("lbr_bitmat_test_pin.idx");
        assert_eq!(save_store(&store, &path).unwrap(), 4580);
        let bytes = std::fs::read(&path).unwrap();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (4580, 0x34c5_3262_0f5e_9990));
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
            let owned = store.get(Family::So, p).unwrap().as_ref();
            assert_eq!(mapped.triple_count(), owned.triple_count());
            for (id, row) in owned.rows() {
                // Zero-copy cursor walks the same positions.
                let mut cur = RowCursor::new(mapped.read_row(id).unwrap().unwrap());
                let mut got = Vec::new();
                while let Some(pos) = cur.peek() {
                    got.push(pos);
                    cur.advance();
                }
                assert_eq!(got, row.iter_ones().collect::<Vec<_>>(), "so({p}) row {id}");
                assert_eq!(mapped.row_count(id), row.count_ones());
            }
            assert!(mapped.read_row(u32::MAX).unwrap().is_none());
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
        for (magic, v) in RETIRED {
            let mut old = Vec::new();
            old.extend_from_slice(magic);
            old.extend_from_slice(&[0u8; 64]);
            std::fs::write(&path, &old).unwrap();
            match DiskCatalog::open(&path) {
                Err(BitMatError::Corrupt(m)) => assert!(
                    m.starts_with(&format!("{v} index (LBRBM00"))
                        && m.ends_with("is no longer supported; re-save the store"),
                    "got: {m}"
                ),
                other => panic!("expected corrupt error, got {other:?}"),
            }
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

    /// The S-O blob with the most rows in a saved segment: its key, where
    /// it starts in the file, and its arrays as saved.
    struct Blob {
        key: u32,
        at: usize,
        ids: Vec<u32>,
        spans: Vec<[u32; 2]>,
        n_words: usize,
    }

    impl Blob {
        /// File offset of id `k`.
        fn id(&self, k: usize) -> usize {
            self.at + 8 + 4 * k
        }

        /// File offset of span `k` (its end word; its count follows).
        fn span(&self, k: usize) -> usize {
            self.at + 8 + 4 * self.ids.len() + 8 * k
        }

        /// File offset of body word `i`.
        fn word(&self, i: usize) -> usize {
            self.at + 8 + 12 * self.ids.len() + 4 * i
        }

        /// Where the body of row `k` starts among the body words.
        fn start(&self, k: usize) -> usize {
            k.checked_sub(1)
                .map_or(0, |prev| (self.spans[prev][0] & !(1 << 31)) as usize)
        }
    }

    fn put(bytes: &mut [u8], at: usize, value: u32) {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Saves `store` to `path`, then patches the S-O matrix with the most
    /// rows: `patch(file, blob)` gets the file's bytes and where that
    /// matrix's arrays lie in them. Returns the blob as saved.
    fn save_patched(
        store: &BitMatStore,
        path: &Path,
        patch: impl FnOnce(&mut [u8], &Blob),
    ) -> Blob {
        save_store(store, path).unwrap();
        let blob = {
            let cat = DiskCatalog::open(path).unwrap();
            let present = |p| {
                cat.mapped(Family::So, p)
                    .unwrap()
                    .map_or(0, BitMatRef::n_present)
            };
            let key = (0..cat.dims().n_predicates)
                .max_by_key(|&p| present(p))
                .unwrap();
            let m = cat.mapped(Family::So, key).unwrap().unwrap();
            let at = cat.blob_base + cat.toc[Family::So as usize][&key].offset as usize;
            let (ids, spans) = (m.ids.to_vec(), m.spans.to_vec());
            let n_words = m.arena_words();
            Blob {
                key,
                at,
                ids,
                spans,
                n_words,
            }
        };
        let mut bytes = std::fs::read(path).unwrap();
        patch(&mut bytes, &blob);
        std::fs::write(path, &bytes).unwrap();
        blob
    }

    fn is_corrupt<T>(got: Result<T, BitMatError>) -> bool {
        matches!(got, Err(BitMatError::Corrupt(_)))
    }

    /// The first row's first body word names a column past its family's:
    /// as a position it is out of range, as a run start it begins no
    /// non-empty run.
    fn first_body_past_the_columns(bytes: &mut [u8], blob: &Blob) {
        let (_, _, n_cols) = Family::So.shape(&sample_store().dims());
        put(bytes, blob.word(0), n_cols);
    }

    /// A row's body is read only when a masked load keeps the row: with
    /// one row corrupt, masks that drop it load exactly what the heap store
    /// loads, on both walks, and masks that keep it are `Corrupt`.
    #[test]
    fn masked_load_reads_only_the_rows_it_keeps() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_masked_corrupt.idx");
        let blob = save_patched(&store, &path, first_body_past_the_columns);
        let (key, bad) = (blob.key, blob.ids[0]);
        let cat = DiskCatalog::open(&path).unwrap();
        let heap = store.get(Family::So, key).unwrap().as_ref();
        let n_rows = heap.n_rows();
        assert!(heap.n_present() >= 3, "the sweep needs a multi-row matrix");
        let mut scratch = SetScratch::default();
        // Fewer set bits than present rows (probed), then more (walked).
        let others = BitVec::from_positions(n_rows, heap.rows().skip(1).map(|(r, _)| r));
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

    /// A row holds the bits its span counts, in order, inside its family's
    /// shape. A row whose span count disagrees with its body, or whose body
    /// names a column past its family's (it would decode as a term that
    /// does not exist), is `Corrupt` when a load reads it — and only that
    /// row: the others still load.
    #[test]
    fn miscounted_or_malformed_row_body_is_corrupt() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_bad_row.idx");
        let miscount = |bytes: &mut [u8], blob: &Blob| {
            put(bytes, blob.span(0) + 4, blob.spans[0][1] + 1);
        };
        for patch in [
            &miscount as &dyn Fn(&mut [u8], &Blob),
            &first_body_past_the_columns,
        ] {
            let blob = save_patched(&store, &path, patch);
            let (key, ids) = (blob.key, &blob.ids);
            let cat = DiskCatalog::open(&path).unwrap();
            let mut scratch = SetScratch::default();
            let got = cat.masked(Family::So, key, None, None, &mut scratch);
            assert!(is_corrupt(got));
            assert!(is_corrupt(cat.row(Family::So, key, ids[0])));
            let mapped = cat.mapped(Family::So, key).unwrap().unwrap();
            assert!(is_corrupt(mapped.read_row(ids[0])));
            // The other rows still load.
            assert_eq!(
                cat.row(Family::So, key, ids[3]).unwrap(),
                store.row(Family::So, key, ids[3]).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A matrix's ids and spans are checked once per open catalog: corrupt
    /// ones are `Corrupt` on every touch, since a failed check is not
    /// remembered, and sound ones load the same before and after the touch
    /// that checked them. So is a blob whose length disagrees with its
    /// counts. None of them panics, in a debug build either.
    #[test]
    fn ids_and_spans_are_validated_once() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_arrays_once.idx");
        let (_, n_rows, _) = Family::So.shape(&store.dims());
        type Patch = fn(&mut [u8], &Blob, u32);
        let patches: [(&str, Patch); 7] = [
            ("ids swapped", |b, blob, _| {
                put(b, blob.id(0), blob.ids[1]);
                put(b, blob.id(1), blob.ids[0]);
            }),
            ("an id past the rows", |b, blob, n_rows| {
                put(b, blob.id(blob.ids.len() - 1), n_rows);
            }),
            ("a span end not ascending", |b, blob, _| {
                let flag = blob.spans[1][0] & (1 << 31);
                put(b, blob.span(1), blob.start(1) as u32 | flag);
            }),
            ("the last end past the words", |b, blob, _| {
                let last = blob.spans.len() - 1;
                let flag = blob.spans[last][0] & (1 << 31);
                put(b, blob.span(last), (blob.n_words + 1) as u32 | flag);
            }),
            ("a span count of 0", |b, blob, _| {
                put(b, blob.span(0) + 4, 0)
            }),
            ("a runs flag on an odd-length sparse body", |b, blob, _| {
                let odd = (0..blob.ids.len()).find(|&k| {
                    let [end, _] = blob.spans[k];
                    end & (1 << 31) == 0 && (end as usize - blob.start(k)) % 2 == 1
                });
                let k = odd.expect("the sample has an odd-length sparse row");
                put(b, blob.span(k), blob.spans[k][0] | 1 << 31);
            }),
            ("a blob longer than its counts", |b, blob, _| {
                put(b, blob.at + 4, blob.n_words as u32 - 1);
            }),
        ];
        for (what, patch) in patches {
            let blob = save_patched(&store, &path, |bytes, blob| patch(bytes, blob, n_rows));
            let key = blob.key;
            let cat = DiskCatalog::open(&path).unwrap();
            let validated =
                |f: Family, key: u32| cat.toc[f as usize][&key].validated.load(Ordering::Relaxed);
            let mut scratch = SetScratch::default();
            for _ in 0..3 {
                assert!(is_corrupt(cat.mapped(Family::So, key)), "{what}");
                assert!(is_corrupt(cat.masked(
                    Family::So,
                    key,
                    None,
                    None,
                    &mut scratch
                )));
                assert!(is_corrupt(cat.matrix(Family::So, key)), "{what}");
                assert!(is_corrupt(cat.row(Family::So, key, blob.ids[0])), "{what}");
                assert!((0..n_rows).all(|r| cat.row_count(Family::So, key, r) == 0));
                assert!(!validated(Family::So, key));
            }
        }
        // Every sound matrix: the touch that validates it and every later
        // one load what the heap store holds.
        let blob = save_patched(&store, &path, |bytes, blob| {
            (patches[0].1)(bytes, blob, n_rows)
        });
        let cat = DiskCatalog::open(&path).unwrap();
        let validated =
            |f: Family, key: u32| cat.toc[f as usize][&key].validated.load(Ordering::Relaxed);
        let mut scratch = SetScratch::default();
        let dims = cat.dims();
        for f in Family::ALL {
            let (n_keys, n_rows, _) = f.shape(&dims);
            for k in (0..n_keys).filter(|&k| (f, k) != (Family::So, blob.key)) {
                let Some(heap) = store.get(f, k) else {
                    continue;
                };
                let ids = heap.as_ref().rows().map(|(r, _)| r).step_by(2);
                let rows = BitVec::from_positions(n_rows, ids);
                assert!(!validated(f, k));
                for _ in 0..3 {
                    for r in 0..n_rows {
                        assert_eq!(cat.row_count(f, k, r), store.row_count(f, k, r));
                    }
                    assert!(validated(f, k));
                    for mask in [None, Some(&rows)] {
                        let got = cat.masked(f, k, mask, None, &mut scratch).unwrap();
                        let want = store.masked(f, k, mask, None, &mut scratch).unwrap();
                        assert_eq!(got, want, "{} {k}", f.name());
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_keys_are_none() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_missing.idx");
        save_store(&store, &path).unwrap();
        let cat = DiskCatalog::open(&path).unwrap();
        assert!(cat.matrix(Family::So, 9999).unwrap().is_none());
        assert!(cat.row(Family::So, 0, 9999).unwrap().is_none());
        assert_eq!(cat.row_count(Family::Os, 9999, 0), 0);
        assert!(cat.predicates(Family::Os, 9999).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A segment of the retired v3 format (all four families) is rejected
    /// by name, though its header is otherwise well formed.
    #[test]
    fn v3_segment_is_rejected_by_name() {
        let path = std::env::temp_dir().join("lbr_bitmat_test_v3.idx");
        save_store(&sample_store(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"LBRBM003");
        put(&mut bytes, 8, 3);
        std::fs::write(&path, &bytes).unwrap();
        match DiskCatalog::open(&path) {
            Err(BitMatError::Corrupt(m)) => assert_eq!(
                m,
                "v3 index (LBRBM003) is no longer supported; re-save the store"
            ),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// A predicate list is checked each time it is read: offsets that do
    /// not bound a slice of the ids, ids that do not ascend and an id past
    /// the predicates are `Corrupt` for the rows they touch, and the other
    /// rows' lists still read what the heap store lists. Lists that do not
    /// fit in the file fail at open.
    #[test]
    fn malformed_predicate_lists_are_corrupt() {
        let store = sample_store();
        let path = std::env::temp_dir().join("lbr_bitmat_test_bad_lists.idx");
        save_store(&store, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cat = DiskCatalog::open(&path).unwrap();
        let dims = cat.dims();
        let (start, _) = cat.lists[Family::So as usize];
        drop(cat);
        // The subjects' offsets start the section; their ids follow.
        let ids_at = start + 4 * (dims.n_subjects as usize + 1);
        let listed = |r: u32| store.predicates(Family::So, r).unwrap().len();
        let (two, first) = (
            (0..dims.n_subjects).find(|&r| listed(r) >= 2).unwrap(),
            listed(0),
        );
        let word_of = |r: u32| ids_at + 4 * store.lists(Family::So)[r as usize] as usize;
        let (two_at, first_at) = (word_of(two), word_of(0));
        type Patch = Box<dyn Fn(&mut [u8])>;
        let patches: [(&str, u32, Patch); 3] = [
            (
                "an offset past the ids",
                0,
                Box::new(move |b| put(b, start + 4, u32::MAX)),
            ),
            (
                "ids not ascending",
                two,
                Box::new(move |b: &mut [u8]| {
                    let w = u32::from_le_bytes(b[two_at + 4..two_at + 8].try_into().unwrap());
                    put(b, two_at, w);
                }),
            ),
            (
                "an id past the predicates",
                0,
                Box::new(move |b| put(b, first_at, dims.n_predicates)),
            ),
        ];
        assert!(first >= 1);
        for (what, bad, patch) in patches {
            let mut bytes = full.clone();
            patch(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let cat = DiskCatalog::open(&path).unwrap();
            assert!(is_corrupt(cat.predicates(Family::So, bad)), "{what}");
            assert_eq!(cat.predicate_count(Family::So, bad), 0, "{what}");
            let mut scratch = SetScratch::default();
            let got = cat.predicate_matrix(Family::So, bad, None, None, &mut scratch);
            assert!(is_corrupt(got), "{what}");
            for r in (0..dims.n_subjects).filter(|&r| r != bad && r != bad + 1) {
                assert_eq!(
                    cat.predicates(Family::So, r).unwrap(),
                    store.predicates(Family::So, r).unwrap(),
                    "{what}: row {r}"
                );
            }
            assert_eq!(
                cat.predicates(Family::Os, 0).unwrap(),
                store.predicates(Family::Os, 0).unwrap()
            );
        }
        // A section longer than the file fails at open; one too short for
        // its offsets, or not whole words, on every read.
        for len in [
            u64::MAX / 2,
            4 * u64::from(dims.n_subjects),
            4 * u64::from(dims.n_subjects) + 6,
        ] {
            let mut bytes = full.clone();
            let toc_end = {
                let n = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                let so = n(FIXED_HEADER) as usize;
                let os_at = FIXED_HEADER + 4 + 28 * so;
                os_at + 4 + 28 * n(os_at) as usize
            };
            bytes[toc_end + 8..toc_end + 16].copy_from_slice(&len.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match DiskCatalog::open(&path) {
                Ok(cat) => {
                    assert!(len < u64::MAX / 2);
                    assert!((0..dims.n_subjects).all(|r| is_corrupt(cat.predicates(Family::So, r))));
                    assert_eq!(
                        cat.predicates(Family::Os, 0).unwrap(),
                        store.predicates(Family::Os, 0).unwrap()
                    );
                }
                Err(e) => assert!(len == u64::MAX / 2 && matches!(e, BitMatError::Corrupt(_))),
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
