//! The [`Catalog`] abstraction: where the engine gets its BitMats from.
//!
//! §5 of the paper: *"with `init`, we load a BitMat for each TP in the
//! query that contains the triples matching that TP"* — only the matrices a
//! query touches are ever loaded, which is why a 41 GB index works on an
//! 8 GB laptop. The whole storage contract is six methods keyed by a
//! [`Family`] value: one whole matrix ([`Catalog::matrix`]), the part of it
//! a pair of masks keeps ([`Catalog::masked`]), one row of it
//! ([`Catalog::row`]), the two counts that answer selectivity questions
//! from metadata alone (Appendix D: *"condensed representation … helps us
//! in quickly determining the number of triples in each BitMat and its
//! selectivity"*), and the predicates a subject or object has
//! ([`Catalog::predicates`]).
//!
//! Only the S-O and O-S families are stored. The paper's P-O and P-S
//! BitMats hold the same triples keyed by subject and by object, so a
//! fixed-predicate pattern reads an S-O or O-S row, and a
//! variable-predicate one gets its P-O or P-S matrix assembled from the
//! rows of the listed predicates ([`Catalog::predicate_matrix`]).
//!
//! Whole loads are [`Cow`]s because the three catalogs produce them
//! differently: [`crate::BitMatStore`] **lends** the matrix it holds (one
//! arena per matrix, so lending it is lending three vectors),
//! [`crate::DiskCatalog`] **decodes** one from its mapped bytes into a new
//! arena, and `lbr-store`'s overlay **merges** a delta into whichever of
//! the two it got. A reader uses the value as a borrow. A single row
//! ([`Catalog::row`]) is a [`CowRow`]: the heap store lends it from its
//! arena and the mmap catalog from its mapped words, and only a row the
//! overlay's delta edited is owned. `init`, which prunes destructively,
//! needs a private copy of only what its active-pruning masks keep, so it
//! asks for exactly that: [`Catalog::masked`] is the masked load as a
//! catalog operation, and each medium reads only the rows the masks keep.
//! The heap store and the mmap catalog store a matrix in one layout — the
//! segment holds the arena's three arrays — so both read it through one
//! [`crate::BitMatRef`] and run the one [`crate::BitMatRef::masked`], which
//! appends each kept row, through the column mask, to the new matrix's
//! arena (a mapped row's body is checked as it is read); the overlay masks
//! its base and merges only the delta pairs the masks keep. A row the
//! masks drop is never copied, checked or merged.

use crate::bitvec::BitVec;
use crate::error::BitMatError;
use crate::kernel::SetScratch;
use crate::matrix::BitMat;
use crate::row::CowRow;
use lbr_rdf::{EncodedGraph, EncodedTriple};
use std::borrow::Cow;

/// Dimensions of the 3-D bitcube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CubeDims {
    /// `|Vs|` — size of the subject dimension.
    pub n_subjects: u32,
    /// `|Vp|` — size of the predicate dimension.
    pub n_predicates: u32,
    /// `|Vo|` — size of the object dimension.
    pub n_objects: u32,
    /// `|Vso|` — size of the shared S-O prefix.
    pub n_shared: u32,
    /// Total number of triples in the dataset.
    pub n_triples: u64,
}

impl CubeDims {
    /// The dimensions of the cube an encoded graph spans — what an index
    /// built from (or claiming to describe) `graph` must report.
    pub fn of(graph: &EncodedGraph) -> CubeDims {
        CubeDims {
            n_subjects: graph.dict.n_subjects(),
            n_predicates: graph.dict.n_predicates(),
            n_objects: graph.dict.n_objects(),
            n_shared: graph.dict.n_shared(),
            n_triples: graph.triples.len() as u64,
        }
    }
}

/// One of the two BitMat families kept here: the paper's S-O and O-S
/// matrices per predicate (§4). Its P-O and P-S matrices are the same
/// triples keyed by subject and by object: row `p` of the P-O BitMat of
/// `s` is row `s` of the S-O BitMat of `p`, and so a catalog serves them
/// from S-O and O-S rows ([`Catalog::predicate_matrix`]). The
/// discriminants are the on-disk TOC order of the segment format and must
/// not change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// S-O matrix per predicate (rows = subjects, cols = objects).
    So = 0,
    /// O-S matrix per predicate — the transpose of S-O.
    Os = 1,
}

impl Family {
    /// Every family, in discriminant (= serialization) order.
    pub const ALL: [Family; 2] = [Family::So, Family::Os];

    /// The paper's name of the family.
    pub fn name(self) -> &'static str {
        ["S-O", "O-S"][self as usize]
    }

    /// `(n_keys, n_rows, n_cols)`: how many matrices the family has (one
    /// per predicate) and the shape each of them shares.
    pub fn shape(self, d: &CubeDims) -> (u32, u32, u32) {
        match self {
            Family::So => (d.n_predicates, d.n_subjects, d.n_objects),
            Family::Os => (d.n_predicates, d.n_objects, d.n_subjects),
        }
    }

    /// `(key, row, col)`: the matrix of this family that holds `t`, and
    /// the bit it sets there.
    pub fn project(self, t: &EncodedTriple) -> (u32, u32, u32) {
        match self {
            Family::So => (t.p, t.s, t.o),
            Family::Os => (t.p, t.o, t.s),
        }
    }
}

/// A source of BitMats and selectivity metadata.
///
/// `Option::None` means "no triples" (e.g. a subject that never occurs);
/// out-of-range keys are also `None` so the engine can treat unknown
/// constants as empty patterns.
///
/// A catalog is `Sync`: every engine holds `&C` and a query service
/// (`lbr-server`'s worker pool) shares one catalog across threads, so
/// loads must be safe to issue concurrently.
/// [`crate::BitMatStore`] is immutable after build; [`crate::DiskCatalog`]
/// reads an immutable `mmap` region, so both are lock-free.
pub trait Catalog: Sync {
    /// Bitcube dimensions.
    fn dims(&self) -> CubeDims;

    /// The BitMat of `key` in family `f` (§5: one whole matrix for a
    /// pattern with two variable positions).
    fn matrix(&self, f: Family, key: u32) -> Result<Option<Cow<'_, BitMat>>, BitMatError>;

    /// The BitMat of `key` in family `f`, holding only the triples whose
    /// row is set in `rows` and whose column is set in `cols` — `init`'s
    /// active-pruning load (§5). `None` keeps a dimension whole; a mask
    /// shorter or longer than its dimension is clipped, as in
    /// [`BitMat::unfold_with`]. The result is the matrix a full
    /// [`Catalog::matrix`] load followed by `unfold_with` on each mask
    /// yields, or `None` when no triple survives (an absent key included).
    ///
    /// Only what the masks keep is read: a row they drop is not copied,
    /// decoded or merged, so on a mapped segment a corrupt row they drop is
    /// not an error. Kernel buffers come from `scratch`.
    fn masked(
        &self,
        f: Family,
        key: u32,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<Option<BitMat>, BitMatError>;

    /// Row `r` of that BitMat: the candidates of a pattern with two fixed
    /// positions — `(s p ?o)` is row `s` of the S-O BitMat of `p`, `(?s p
    /// o)` row `o` of the O-S BitMat of `p` (§5 loading rules).
    ///
    /// The heap store and the mmap catalog lend the row where it is
    /// stored ([`CowRow::Borrowed`]); only a row a delta edited is built
    /// ([`CowRow::Owned`]).
    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<CowRow<'_>>, BitMatError>;

    /// Triple count of the BitMat of `key` without loading it.
    fn count(&self, f: Family, key: u32) -> u64;

    /// Set-bit count of row `r` of that BitMat without loading the matrix
    /// body.
    fn row_count(&self, f: Family, key: u32, r: u32) -> u64;

    /// The predicates whose BitMat in family `f` may have row `r`,
    /// ascending: for S-O the predicates of subject `r`, for O-S those of
    /// object `r` (the row ids of the paper's P-O and P-S BitMats). The heap
    /// store and the mmap catalog list exactly the non-empty rows; an
    /// overlay may list more, and a listed predicate whose row is empty
    /// holds nothing. An out-of-range `r` has none.
    fn predicates(&self, f: Family, r: u32) -> Result<Cow<'_, [u32]>, BitMatError>;

    /// The paper's P-O BitMat of subject `r` (`f` = S-O) or P-S BitMat of
    /// object `r` (`f` = O-S): its row `p` is row `r` of the BitMat of `p`
    /// in `f`, for each listed predicate `p` ([`Catalog::predicates`]).
    /// Masked like [`Catalog::masked`]: `rows` over the predicates, `cols`
    /// over `f`'s columns; `None` when no triple survives. Only the rows of
    /// the predicates `rows` keeps are read.
    fn predicate_matrix(
        &self,
        f: Family,
        r: u32,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<Option<BitMat>, BitMatError> {
        let dims = self.dims();
        let (_, _, n_cols) = f.shape(&dims);
        let preds = self.predicates(f, r)?;
        let mut mat = BitMat::with_capacity(dims.n_predicates, n_cols, preds.len(), 0);
        for &p in preds.iter().filter(|&&p| rows.is_none_or(|m| m.get(p))) {
            if let Some(row) = self.row(f, p, r)? {
                mat.push_masked(p, row.as_ref(), cols, scratch);
            }
        }
        Ok((!mat.as_ref().is_empty()).then_some(mat))
    }

    /// Triple count of that P-O or P-S BitMat: the set-bit counts of row
    /// `r` over the listed predicates (0 when the list is corrupt).
    fn predicate_count(&self, f: Family, r: u32) -> u64 {
        let preds = self.predicates(f, r).unwrap_or_default();
        preds.iter().map(|&p| self.row_count(f, p, r)).sum()
    }

    /// Whether the triple `(s p o)` exists: the membership test of a
    /// pattern with no variable, read from row `s` of the S-O BitMat of
    /// `p`.
    fn contains(&self, s: u32, p: u32, o: u32) -> Result<bool, BitMatError> {
        let row = self.row(Family::So, p, s)?;
        Ok(row.is_some_and(|row| row.as_ref().contains(o)))
    }
}
