//! The [`Catalog`] abstraction: where the engine gets its BitMats from.
//!
//! §5 of the paper: *"with `init`, we load a BitMat for each TP in the
//! query that contains the triples matching that TP"* — only the matrices a
//! query touches are ever loaded, which is why a 41 GB index works on an
//! 8 GB laptop. The whole storage contract is five methods keyed by a
//! [`Family`] value: one whole matrix ([`Catalog::matrix`]), the part of it
//! a pair of masks keeps ([`Catalog::masked`]), one row of it
//! ([`Catalog::row`]), and the two counts that answer selectivity questions
//! from metadata alone (Appendix D: *"condensed representation … helps us
//! in quickly determining the number of triples in each BitMat and its
//! selectivity"*).
//!
//! Whole loads are [`Cow`]s because the three catalogs produce them
//! differently: [`crate::BitMatStore`] **lends** the matrix it holds,
//! [`crate::DiskCatalog`] **decodes** one from its mapped bytes, and
//! `lbr-store`'s overlay **merges** a delta into whichever of the two it
//! got. A reader uses the value as a borrow. `init`, which prunes
//! destructively, needs a private copy of only what its active-pruning
//! masks keep, so it asks for exactly that: [`Catalog::masked`] is the
//! masked load as a catalog operation, and each medium reads only the rows
//! the masks keep — the heap store copies them ([`BitMat::masked`]), the
//! mmap catalog decodes them from their mapped words, and the overlay
//! masks its base and merges only the delta pairs the masks keep. A row
//! the masks drop is never copied, decoded or merged.

use crate::bitvec::BitVec;
use crate::error::BitMatError;
use crate::kernel::SetScratch;
use crate::matrix::BitMat;
use crate::row::BitRow;
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

/// One of the four BitMat families of §4. The discriminants are the
/// on-disk TOC order of the segment format and must not change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// S-O matrix per predicate (rows = subjects, cols = objects).
    So = 0,
    /// O-S matrix per predicate — the transpose of S-O.
    Os = 1,
    /// P-O matrix per subject (rows = predicates, cols = objects).
    Po = 2,
    /// P-S matrix per object (rows = predicates, cols = subjects).
    Ps = 3,
}

impl Family {
    /// Every family, in discriminant (= serialization) order.
    pub const ALL: [Family; 4] = [Family::So, Family::Os, Family::Po, Family::Ps];

    /// The paper's name of the family.
    pub fn name(self) -> &'static str {
        ["S-O", "O-S", "P-O", "P-S"][self as usize]
    }

    /// `(n_keys, n_rows, n_cols)`: how many matrices the family has and
    /// the shape each of them shares.
    pub fn shape(self, d: &CubeDims) -> (u32, u32, u32) {
        match self {
            Family::So => (d.n_predicates, d.n_subjects, d.n_objects),
            Family::Os => (d.n_predicates, d.n_objects, d.n_subjects),
            Family::Po => (d.n_subjects, d.n_predicates, d.n_objects),
            Family::Ps => (d.n_objects, d.n_predicates, d.n_subjects),
        }
    }

    /// `(key, row, col)`: the matrix of this family that holds `t`, and
    /// the bit it sets there.
    pub fn project(self, t: &EncodedTriple) -> (u32, u32, u32) {
        match self {
            Family::So => (t.p, t.s, t.o),
            Family::Os => (t.p, t.o, t.s),
            Family::Po => (t.s, t.p, t.o),
            Family::Ps => (t.o, t.p, t.s),
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
    /// positions — `(s p ?o)` is row `p` of the P-O BitMat of `s`, `(?s p
    /// o)` row `p` of the P-S BitMat of `o` (§5 loading rules).
    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<Cow<'_, BitRow>>, BitMatError>;

    /// Triple count of the BitMat of `key` without loading it.
    fn count(&self, f: Family, key: u32) -> u64;

    /// Set-bit count of row `r` of that BitMat without loading the matrix
    /// body.
    fn row_count(&self, f: Family, key: u32, r: u32) -> u64;
}
