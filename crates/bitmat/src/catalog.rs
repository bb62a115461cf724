//! The [`Catalog`] abstraction: where the engine gets its BitMats from.
//!
//! §5 of the paper: *"with `init`, we load a BitMat for each TP in the
//! query that contains the triples matching that TP"* — only the matrices a
//! query touches are ever loaded, which is why a 41 GB index works on an
//! 8 GB laptop. [`crate::BitMatStore`] serves loads from memory;
//! [`crate::DiskCatalog`] reads them lazily from the on-disk index, and the
//! `count_*` methods answer selectivity questions from metadata alone
//! (Appendix D: *"condensed representation … helps us in quickly
//! determining the number of triples in each BitMat and its selectivity"*).

use crate::error::BitMatError;
use crate::matrix::BitMat;
use crate::row::BitRow;

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

/// A source of BitMats and selectivity metadata.
///
/// All `load_*` methods hand out owned values because the engine prunes
/// them destructively per query. `Option::None` means "no triples" (e.g. a
/// subject that never occurs); out-of-range keys are also `None` so the
/// engine can treat unknown constants as empty patterns.
///
/// A catalog is `Sync`: every engine holds `&C` and a query service
/// (`lbr-server`'s worker pool) shares one catalog across threads, so
/// loads must be safe to issue concurrently.
/// [`crate::BitMatStore`] is immutable after build; [`crate::DiskCatalog`]
/// reads an immutable `mmap` region, so both are lock-free.
pub trait Catalog: Sync {
    /// Bitcube dimensions.
    fn dims(&self) -> CubeDims;

    /// S-O BitMat of predicate `p` (rows = subjects, cols = objects).
    fn load_so(&self, p: u32) -> Result<Option<BitMat>, BitMatError>;

    /// O-S BitMat of predicate `p` (rows = objects, cols = subjects).
    fn load_os(&self, p: u32) -> Result<Option<BitMat>, BitMatError>;

    /// P-O BitMat of subject `s` (rows = predicates, cols = objects).
    fn load_po(&self, s: u32) -> Result<Option<BitMat>, BitMatError>;

    /// P-S BitMat of object `o` (rows = predicates, cols = subjects).
    fn load_ps(&self, o: u32) -> Result<Option<BitMat>, BitMatError>;

    /// Single row `p` of the P-O BitMat of subject `s`: the object
    /// candidates of a `(s p ?o)` pattern (§5 loading rules).
    fn load_po_row(&self, s: u32, p: u32) -> Result<Option<BitRow>, BitMatError>;

    /// Single row `p` of the P-S BitMat of object `o`: the subject
    /// candidates of a `(?s p o)` pattern.
    fn load_ps_row(&self, o: u32, p: u32) -> Result<Option<BitRow>, BitMatError>;

    /// Triple count of the S-O BitMat of `p` without loading it.
    fn count_so(&self, p: u32) -> u64;

    /// Triple count of the P-O BitMat of subject `s` without loading it.
    fn count_po(&self, s: u32) -> u64;

    /// Triple count of the P-S BitMat of object `o` without loading it.
    fn count_ps(&self, o: u32) -> u64;

    /// Set-bit count of row `p` in the P-O BitMat of `s` (selectivity of a
    /// `(s p ?o)` pattern) without loading the matrix body.
    fn count_po_row(&self, s: u32, p: u32) -> u64;

    /// Set-bit count of row `p` in the P-S BitMat of `o`.
    fn count_ps_row(&self, o: u32, p: u32) -> u64;
}
