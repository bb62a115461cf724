//! # lbr-bitmat
//!
//! Compressed BitMat indexes for RDF graphs — the index substrate of the
//! Left Bit Right (LBR) paper (§4, Appendix D).
//!
//! The RDF dataset is conceptually a 3-D bitcube of dimensions
//! `|Vs| × |Vp| × |Vo|`; a bit is set iff the corresponding `(S P O)` triple
//! exists. The paper slices the cube into four families of 2-D BitMats —
//! S-O and O-S per predicate, P-O per subject, P-S per object — for
//! `2·|Vp| + |Vs| + |Vo|` matrices. Row `p` of the P-O BitMat of `s` is row
//! `s` of the S-O BitMat of `p` (and likewise P-S of O-S), so only the two
//! per-predicate families are stored ([`BitMatStore`], `2·|Vp|`
//! matrices):
//!
//! * **S-O** and **O-S** BitMats per predicate (slicing the P dimension;
//!   O-S is the transpose of S-O),
//! * per subject and per object, the list of its predicates — the P-O and
//!   P-S BitMats' row ids without their bodies, from which a pattern with
//!   a variable predicate assembles its P-O or P-S matrix
//!   ([`Catalog::predicate_matrix`]).
//!
//! The family is a value ([`Family`]), so the storage contract
//! ([`Catalog`]) is six methods — `matrix(f, key)`, `masked(f, key,
//! rows, cols, ..)`, `row(f, key, r)`, `count(f, key)`, `row_count(f,
//! key, r)`, `predicates(f, r)` — that the heap store, the mmap'd
//! [`DiskCatalog`] and `lbr-store`'s delta overlay each implement once.
//! Whole loads are
//! `Cow`s: the heap store lends its matrix, the mmap catalog decodes one,
//! the overlay merges a delta into either; single rows are lent in place
//! by both media ([`CowRow`]). The one caller that mutates, the engine's
//! `init`, asks for a masked load instead, and every medium reads only the
//! rows its masks keep: the heap store and the mmap catalog run the same
//! [`BitMatRef::masked`], copying only the kept rows, and the overlay
//! merges only the delta pairs they keep.
//!
//! Each matrix row is compressed with the paper's *hybrid* scheme:
//! run-length encoding with 4-byte run lengths, or a plain list of set-bit
//! positions when that is smaller (the paper reports ≈40 % index-size
//! reduction from the hybrid scheme; see [`BitMatStore::size_report`]).
//! A [`BitMat`] keeps all its rows in **one arena**: the ascending ids of
//! its non-empty rows, one end offset and bit count per row (with the
//! runs/sparse flag), and every row body back to back in one `Vec<u32>`.
//! Building, masking, pruning and dropping a matrix therefore costs the
//! same few allocations however many rows it has. The segment file stores
//! each matrix as the same three arrays, so there is one matrix layout
//! and one reader: [`BitMatRef`], which a heap matrix lends
//! ([`BitMat::as_ref`]) and the mmap catalog lends over its mapped words.
//! A row is read through one borrowed view, [`RowRef`], whether it lives in
//! a matrix's arena ([`BitMatRef::row`]) or in an owned [`BitRow`]
//! ([`BitRow::as_ref`]).
//!
//! The two primitives every LBR semi-join is built from operate directly on
//! the compressed rows:
//!
//! * [`BitMatRef::fold`] — project the distinct values of one dimension into a
//!   dense bit-mask (bitwise OR over the other dimension);
//! * [`BitMat::unfold`] — clear all bits whose coordinate in the retained
//!   dimension is absent from a mask.
//!
//! ## The kernel layer
//!
//! Underneath fold/unfold sits the [`kernel`] module: run-aware set-algebra
//! kernels that operate **directly on the hybrid representations** without
//! ever densifying a row. Each read kernel has one body, on [`RowRef`], so
//! a heap row and a mapped one run the same code. The fold/unfold
//! semi-join path runs on the row×mask kernel (the mask's words streamed
//! through each run window), and so does the masked load, which appends
//! each kept row to the new matrix's arena ([`RowRef::and_mask_copy`] is
//! the kernel's form for one row); the row-level forms — run×run interval
//! clipping, run×sparse probing, sparse×sparse galloping, and the k-way
//! leapfrog cursor join — make up the general intersection layer. The
//! same galloping search serves the join's row lookups
//! ([`BitMatRef::seek_row`], which seeks forward from the previous lookup's
//! slot). The
//! in-place entry points ([`BitMat::unfold_with`], which compacts a
//! matrix's arena where it stands, [`BitMatRef::fold_or_clipped`],
//! [`BitRow::and_row_into`], [`kernel::intersect_into`]) write into
//! caller-owned [`SetScratch`] / accumulator buffers, so a steady-state
//! pruning pass performs **zero heap allocation**: buffers grow to a
//! high-water mark on the first use and are reused afterwards.

//! ## Unsafe policy
//!
//! The mmap'd segment path ([`mmap`], used by [`DiskCatalog`]) requires
//! real `unsafe` (the `mmap(2)` FFI and `&[u8]` → `&[u32]` reinterpretation),
//! so this crate no longer carries `#![forbid(unsafe_code)]`. Instead,
//! `lbr-analyze` statically enforces that **all** unsafe in this crate is
//! confined to `mmap.rs` and that every site carries a `// SAFETY:`
//! comment; everything above the [`mmap::Mmap`] handle is safe code over
//! ordinary slices.

pub mod bitvec;
pub mod catalog;
pub mod disk;
pub mod error;
pub mod kernel;
pub mod matrix;
pub mod mmap;
pub mod row;
pub mod store;

pub use bitvec::BitVec;
pub use catalog::{Catalog, CubeDims, Family};
pub use disk::DiskCatalog;
pub use error::BitMatError;
pub use kernel::{RowCursor, SetScratch};
pub use matrix::{BitMat, BitMatRef, RetainDim};
pub use mmap::Mmap;
pub use row::{BitRow, CowRow, RowRef};
pub use store::{BitMatStore, SizeReport};
