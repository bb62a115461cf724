//! # lbr-store
//!
//! The one storage backend under every `lbr::Database`: an LSM-style
//! **delta memtable over the immutable compressed BitMat segments**
//! (heap-built or mmap'd), optionally fronted by a write-ahead log, and
//! published through epoch-stamped snapshots. A read-only database is a
//! [`Store`] nobody writes to — its delta stays empty, its epoch stays 0,
//! and [`OverlayCatalog`] hands every load of the base segments straight
//! through — so there is exactly one catalog type on the query path.
//!
//! The paper's index ([`lbr_bitmat::BitMatStore`]) is built once from a
//! dictionary-encoded graph and never changes — that immutability is what
//! makes the fold/unfold kernels allocation-free. This crate adds writes
//! *around* that design instead of inside it:
//!
//! * [`Delta`] — per-predicate insert and tombstone triple sets in the
//!   base dictionary's ID space, with the invariants `inserts ∩ base = ∅`,
//!   `tombstones ⊆ base` and `inserts ∩ tombstones = ∅`, so every count is
//!   exact arithmetic (`base + inserts − tombstones`);
//! * [`OverlayCatalog`] — a [`lbr_bitmat::Catalog`] that merges the delta
//!   into the compressed [`lbr_bitmat::BitRow`] cursors at load time
//!   (additions OR'd in, tombstones masked out). Every engine consumes the
//!   `Catalog` trait, so all five engines see the merged view with no
//!   per-engine code;
//! * [`Wal`] — an append-only log of term-level operations (length +
//!   CRC32-framed records, one fsync per commit, torn-tail truncation on
//!   recovery);
//! * [`Store`] — snapshot isolation: the current [`Snapshot`] sits behind
//!   an `Arc` swap; readers clone the `Arc` and keep a consistent view
//!   while a writer commits; compaction folds a large delta into freshly
//!   built segments and swaps the epoch atomically.
//!
//! Updates whose terms all exist in the frozen dictionary (in the roles
//! they are used in) take the fast path: the delta absorbs them and the
//! dictionary and segments are untouched. A new term — or an existing term
//! in a new role, which would break the Appendix-D shared `Vso` prefix —
//! forces a rebuild of dictionary + segments from the merged triples,
//! which is exactly a compaction.

pub mod delta;
pub mod overlay;
pub mod store;
pub mod wal;

pub use delta::{Delta, TripleSet};
pub use overlay::{OverlayCatalog, SegmentSource};
pub use store::{CommitInfo, Snapshot, Store, StoreError, StoreObs, UpdateBatch};
pub use wal::{Wal, WalOp, WalOpKind, WalRecovery};
