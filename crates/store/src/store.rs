//! [`Store`]: epoch-stamped snapshots over segments + delta + WAL.
//!
//! ## Snapshot isolation
//!
//! The current [`Snapshot`] sits behind an `RwLock<Arc<Snapshot>>`.
//! Readers call [`Store::snapshot`] and keep serving from their `Arc`
//! regardless of what writers do; a commit builds a **new** snapshot off
//! to the side and swaps the `Arc` in one assignment. Writers serialize
//! on a separate mutex, so the data path never blocks behind a rebuild.
//!
//! ## Fast path vs rebuild
//!
//! The dictionary is frozen at build time (the Appendix-D shared `Vso`
//! prefix bakes "is this term both a subject and an object?" into the ID
//! layout), so there are two commit shapes:
//!
//! * **fast**: every inserted triple is encodable in the current
//!   dictionary — the commit clones the (small) delta, applies the batch,
//!   and publishes a snapshot sharing the old graph + segments `Arc`s;
//! * **rebuild**: an insert carries a new term, or an existing term in a
//!   new role — dictionary + segments are rebuilt from the merged triples
//!   (this is exactly a compaction, so the new delta is empty).
//!
//! Deletes never force a rebuild: a triple whose terms the dictionary
//! does not know cannot be present, so the delete is a no-op.
//!
//! ## Compaction & checkpointing
//!
//! When the delta reaches the threshold (default
//! [`DEFAULT_COMPACT_THRESHOLD`]) the commit folds base + delta into
//! freshly built segments **under the same dictionary** and publishes an
//! empty delta. Rebuild commits compact as a side effect (their delta is
//! empty by construction).
//!
//! Every compaction point also **checkpoints** the WAL: the merged view
//! is written atomically to `lbr.ckpt` and the log is truncated, so the
//! WAL only ever holds the updates since the last fold and reopen cost
//! is bounded by (checkpoint size + tail length) instead of the full
//! update history. [`Store::open`] prefers the checkpoint over the
//! passed-in base when one exists. Checkpointing is best-effort
//! ([`CommitInfo::checkpointed`] reports it): if writing the image
//! fails, the old checkpoint + full log still replay to the same state;
//! if only the truncation fails, replaying the stale log over the new
//! checkpoint is idempotent because records hold absolute term-level
//! ops (per-triple last-writer-wins).

use crate::delta::Delta;
use crate::overlay::{OverlayCatalog, SegmentSource};
use crate::wal::{self, Wal, WalOp, WalOpKind};
use lbr_bitmat::{BitMatError, BitMatStore, Catalog, CubeDims, DiskCatalog};
use lbr_rdf::{Dictionary, EncodedGraph, EncodedTriple, Graph, Triple};
use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Delta size (inserts + tombstones) at which a commit folds the delta
/// into fresh segments.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 100_000;

/// One consistent, immutable view of the database.
///
/// Cheap to clone via `Arc`; everything an engine needs — dictionary,
/// merged catalog — hangs off it, pinned to the epoch it was created at.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    graph: Arc<EncodedGraph>,
    catalog: OverlayCatalog,
}

impl Snapshot {
    fn new(epoch: u64, graph: Arc<EncodedGraph>, segments: SegmentSource, delta: Delta) -> Self {
        Snapshot {
            epoch,
            catalog: OverlayCatalog::new(segments, Arc::new(delta)),
            graph,
        }
    }

    /// The epoch this snapshot was published at (0 = as loaded).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The base graph (dictionary + the encoded triples the segments were
    /// built from — delta changes are *not* reflected here).
    pub fn graph(&self) -> &EncodedGraph {
        &self.graph
    }

    /// The dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.graph.dict
    }

    /// The merged catalog engines should run on.
    pub fn catalog(&self) -> &OverlayCatalog {
        &self.catalog
    }

    /// The immutable base segments (without the delta) — heap-built or
    /// mmap'd from an on-disk checkpoint segment.
    pub fn segments(&self) -> &SegmentSource {
        self.catalog.segments()
    }

    /// The delta memtable.
    pub fn delta(&self) -> &Delta {
        self.catalog.delta()
    }

    /// Total triples in the merged view.
    pub fn n_triples(&self) -> u64 {
        self.catalog.dims().n_triples
    }

    /// True when `t` is in the merged view. `Err` when the base segments
    /// cannot answer (a corrupt mapped blob).
    pub fn contains(&self, t: &Triple) -> Result<bool, StoreError> {
        match self.graph.dict.encode(t) {
            None => Ok(false),
            Some(e) => present_in(self.segments(), self.delta(), e),
        }
    }

    /// Materializes the merged view as term-level triples (sorted) — the
    /// rebuild and equivalence-test substrate, not a hot path.
    pub fn triples(&self) -> Vec<Triple> {
        let delta = self.catalog.delta();
        let dict = &self.graph.dict;
        let decode = |e: EncodedTriple| dict.decode(&e).expect("base IDs decode");
        let mut out: Vec<Triple> = self
            .graph
            .triples
            .iter()
            .filter(|e| !delta.tombstones.contains(**e))
            .map(|e| decode(*e))
            .chain(delta.inserts.iter().map(decode))
            .collect();
        out.sort_unstable();
        out
    }

    /// The merged view with `staged` net-presence overrides composed on
    /// top, as a catalog sharing this snapshot's segments + dictionary.
    /// Lets a multi-operation update evaluate patterns against its own
    /// uncommitted effects without committing anything.
    ///
    /// Returns `Ok(None)` when a staged **insert** is not encodable in
    /// this dictionary (new term, or an old term in a new role) — the
    /// caller must fall back to a materialized view. Unencodable *deletes*
    /// are vacuous: the triple cannot be present.
    pub fn overlay_with(
        &self,
        staged: &[(Triple, bool)],
    ) -> Result<Option<OverlayCatalog>, StoreError> {
        if staged.is_empty() {
            return Ok(Some(self.catalog.clone()));
        }
        let mut delta = self.delta().clone();
        for (t, present) in staged {
            match self.graph.dict.encode(t) {
                None => {
                    if *present {
                        return Ok(None);
                    }
                }
                Some(e) => {
                    if self.segments().contains(e)? {
                        if *present {
                            delta.tombstones.remove(e);
                        } else {
                            delta.tombstones.insert(e);
                        }
                        delta.inserts.remove(e);
                    } else if *present {
                        delta.inserts.insert(e);
                    } else {
                        delta.inserts.remove(e);
                    }
                }
            }
        }
        Ok(Some(OverlayCatalog::new(
            self.catalog.segments().clone(),
            Arc::new(delta),
        )))
    }
}

/// True when `e` is in the view `segments + delta`.
fn present_in(
    segments: &SegmentSource,
    delta: &Delta,
    e: EncodedTriple,
) -> Result<bool, StoreError> {
    Ok(delta.inserts.contains(e) || (segments.contains(e)? && !delta.tombstones.contains(e)))
}

/// A set of concrete triples to apply atomically. Deletes are applied
/// before inserts.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// Triples to add.
    pub inserts: Vec<Triple>,
    /// Triples to remove.
    pub deletes: Vec<Triple>,
}

impl UpdateBatch {
    /// A pure-insert batch.
    pub fn insert(triples: Vec<Triple>) -> Self {
        UpdateBatch {
            inserts: triples,
            deletes: Vec::new(),
        }
    }

    /// A pure-delete batch.
    pub fn delete(triples: Vec<Triple>) -> Self {
        UpdateBatch {
            inserts: Vec::new(),
            deletes: triples,
        }
    }
}

/// What a commit did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitInfo {
    /// Triples actually added (no-ops excluded).
    pub inserted: u64,
    /// Triples actually removed (no-ops excluded).
    pub deleted: u64,
    /// The epoch after the commit (unchanged if the batch was a no-op).
    pub epoch: u64,
    /// The dictionary + segments were rebuilt (new term or new role).
    pub rebuilt: bool,
    /// The delta was folded into fresh segments.
    pub compacted: bool,
    /// A WAL checkpoint was written and the log truncated (only ever
    /// true when `compacted` is; checkpointing is best-effort).
    pub checkpointed: bool,
}

/// Monotone storage-activity counters, snapshotted for `/metrics` and
/// `/stats`. Durations live in the per-query trace spans (`wal_append`,
/// `compact`, `checkpoint`); these count occurrences across the store's
/// lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreObs {
    /// WAL records appended (one per effective logged commit).
    pub wal_appends: u64,
    /// Delta folds into fresh segments (explicit or threshold-triggered).
    pub compactions: u64,
    /// Checkpoint images written with the log truncated.
    pub checkpoints: u64,
}

/// Everything that can go wrong committing an update.
#[derive(Debug)]
pub enum StoreError {
    /// Writing or syncing the WAL failed; the commit did not publish.
    Io(std::io::Error),
    /// The base segments could not be read (a corrupt mapped blob); the
    /// commit did not log or publish anything.
    Segment(BitMatError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "write-ahead log error: {e}"),
            StoreError::Segment(e) => write!(f, "base segment error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<BitMatError> for StoreError {
    fn from(e: BitMatError) -> Self {
        StoreError::Segment(e)
    }
}

/// The store: immutable segments + delta (+ optional WAL) behind an
/// epoch-stamped `Arc` swap. Whether anyone may commit to it is the
/// caller's policy (`lbr::Database` keeps a read-only bit); a store that
/// is never written to serves its base segments unchanged at epoch 0.
pub struct Store {
    current: RwLock<Arc<Snapshot>>,
    /// Snapshots that have been vended as plain borrows, in vend order.
    /// [`Store::current_ref`] pins its snapshot here **on first vend**
    /// (not on publish), which is what makes the unsafe borrow sound:
    /// the list only grows and lives as long as the store. Epochs that
    /// are never borrowed — the common case, since the facade's
    /// owned-output paths use `Arc` snapshots — are freed as soon as
    /// their readers drop, so memory does not grow with the commit
    /// count.
    retained: Mutex<Vec<Arc<Snapshot>>>,
    writer: Mutex<Option<Wal>>,
    compact_threshold: AtomicUsize,
    /// Lock-free mirror of the current snapshot's epoch, updated by
    /// [`Store::publish`] *after* the swap: once a reader observes epoch
    /// `N` here, [`Store::snapshot`] returns epoch ≥ `N`. Lets hot
    /// serving paths (result-cache staleness probes, `/stats`) read the
    /// epoch without contending on the snapshot `RwLock`.
    epoch: AtomicU64,
    wal_appends: AtomicU64,
    compactions: AtomicU64,
    checkpoints: AtomicU64,
}

impl Store {
    /// Opens a store over a loaded base graph — the one way to get a
    /// [`Store`].
    ///
    /// `segments` are pre-opened immutable segments for `base` (an mmap'd
    /// disk index written by `lbr_bitmat::disk::save_store` over the same
    /// data); `None` builds them on the heap. They are used only when
    /// their dimensions match the graph that actually boots the store — a
    /// checkpoint in `wal_dir` supersedes `base`, and then the
    /// checkpoint's own segment file is preferred. On any mismatch the
    /// store falls back to building heap segments, which is always
    /// correct, just slower.
    ///
    /// With a `wal_dir`, the log is created (or recovered — torn tail
    /// truncated, committed records replayed) and every future commit is
    /// logged there. When the directory holds a checkpoint, it replaces
    /// `base`: the checkpoint is the merged view as of the last
    /// compaction, and the (truncated) log holds only the updates since.
    /// A v2 checkpoint ships with a compacted on-disk segment file
    /// (`lbr.seg`), which reopen `mmap`s directly — the BitMat rebuild is
    /// skipped entirely. Without one, commits are in-memory only (lost on
    /// drop) and opening cannot fail.
    pub fn open(
        base: EncodedGraph,
        segments: Option<SegmentSource>,
        wal_dir: Option<&Path>,
    ) -> Result<Store, StoreError> {
        let (graph, source) = match wal_dir {
            Some(dir) => match wal::read_checkpoint_image(dir)? {
                Some(image) => {
                    let source = open_checkpoint_segments(dir, &image);
                    (image.graph, source)
                }
                None => (base, segments),
            },
            None => (base, segments),
        };
        let graph = Arc::new(graph);
        let source = match source {
            Some(s) if s.dims() == CubeDims::of(&graph) => s,
            _ => SegmentSource::Heap(Arc::new(BitMatStore::build(&graph))),
        };
        let snapshot = Arc::new(Snapshot::new(0, graph, source, Delta::new()));
        let store = Store {
            current: RwLock::new(snapshot),
            retained: Mutex::new(Vec::new()),
            writer: Mutex::new(None),
            compact_threshold: AtomicUsize::new(DEFAULT_COMPACT_THRESHOLD),
            epoch: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        };
        if let Some(dir) = wal_dir {
            let (wal, recovery) = Wal::open(dir)?;
            for record in recovery.records {
                let mut batch = UpdateBatch::default();
                for op in record {
                    match op.kind {
                        WalOpKind::Insert => batch.inserts.push(op.triple),
                        WalOpKind::Delete => batch.deletes.push(op.triple),
                    }
                }
                // Replay through the normal commit path, minus logging.
                store.commit(batch, false)?;
            }
            *store.writer.lock().expect("store lock poisoned") = Some(wal);
        }
        Ok(store)
    }

    /// The current snapshot; callers keep a consistent view for as long
    /// as they hold the `Arc`, no matter how many commits happen.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("store lock poisoned"))
    }

    /// The current snapshot as a plain borrow of `self`.
    ///
    /// This is what lets the `lbr` facade keep its borrow-shaped API
    /// (`dict()`, `engine_of()`) over a mutable store. The borrow is
    /// pinned to the epoch current at the call; later commits do not move
    /// or free it. Each **distinct epoch** vended this way stays
    /// allocated for the store's lifetime — fine for borrow-shaped
    /// facade accessors, but owned-output paths should use
    /// [`Store::snapshot`] so unvended epochs can be freed.
    pub fn current_ref(&self) -> &Snapshot {
        let arc = self.snapshot();
        let mut retained = self.retained.lock().expect("store lock poisoned");
        // Recent epochs sit at the tail; one snapshot is vended many
        // times, so the reverse scan usually stops immediately.
        if !retained.iter().rev().any(|r| Arc::ptr_eq(r, &arc)) {
            retained.push(Arc::clone(&arc));
        }
        drop(retained);
        let ptr = Arc::as_ptr(&arc);
        // SAFETY: the pointee is kept alive by the `retained` entry just
        // ensured above; `retained` only grows and lives as long as
        // `self`, and `Arc` contents never move. The full soundness
        // argument (why commits cannot free a vended epoch) is on the
        // `retained` field declaration.
        unsafe { &*ptr }
    }

    /// The current epoch (0 = as loaded, +1 per effective commit).
    /// Lock-free: reads the atomic mirror, not the snapshot `RwLock`, so
    /// serving paths can poll it per-request without writer contention.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Snapshots the monotone storage-activity counters (lock-free).
    pub fn obs(&self) -> StoreObs {
        StoreObs {
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }

    /// Sets the delta size at which commits auto-compact.
    pub fn set_compact_threshold(&self, threshold: usize) {
        self.compact_threshold
            .store(threshold.max(1), Ordering::Relaxed);
    }

    /// Disables the per-commit WAL fsync (bulk loads, benchmarks).
    pub fn set_sync(&self, sync: bool) {
        if let Some(wal) = self.writer.lock().expect("store lock poisoned").as_mut() {
            wal.set_sync(sync);
        }
    }

    /// Applies one batch atomically: logs the effective ops to the WAL
    /// (one record, one fsync), then publishes the new snapshot. A batch
    /// with no effect writes nothing and keeps the epoch.
    pub fn apply(&self, batch: UpdateBatch) -> Result<CommitInfo, StoreError> {
        self.commit(batch, true)
    }

    /// Folds the delta into freshly built segments now (same dictionary,
    /// empty delta) and bumps the epoch. No-op on an empty delta.
    pub fn compact(&self) -> Result<CommitInfo, StoreError> {
        let mut writer = self.writer.lock().expect("store lock poisoned");
        let snap = self.snapshot();
        if snap.delta().is_empty() {
            return Ok(CommitInfo {
                epoch: snap.epoch(),
                ..CommitInfo::default()
            });
        }
        let t_compact = Instant::now();
        let next = Arc::new(fold(&snap, snap.epoch() + 1));
        let epoch = next.epoch();
        self.publish(Arc::clone(&next));
        self.compactions.fetch_add(1, Ordering::Relaxed);
        lbr_obs::span_since("compact", t_compact, &[("triples", next.n_triples())]);
        let checkpointed = self.checkpoint_with(&mut writer, &next);
        Ok(CommitInfo {
            epoch,
            compacted: true,
            checkpointed,
            ..CommitInfo::default()
        })
    }

    fn publish(&self, next: Arc<Snapshot>) {
        let epoch = next.epoch();
        *self.current.write().expect("store lock poisoned") = next;
        // Stored after the swap, inside the commit: the mirror is updated
        // before the committing call returns, so any request ordered
        // after an update's response observes the new epoch (the
        // result-cache invalidation contract). A concurrent reader may
        // briefly see the previous epoch — the same snapshot-isolation
        // semantics as pinning a view an instant before the commit.
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Writes the checkpoint image for `snap` — the dictionary + encoded
    /// triples plus a compacted on-disk segment file (`lbr.seg`) that the
    /// next open `mmap`s instead of rebuilding BitMats — and truncates
    /// the log. Best-effort: any failure leaves the previous checkpoint
    /// + log intact, which still replay to the same state.
    fn checkpoint_with(&self, writer: &mut Option<Wal>, snap: &Snapshot) -> bool {
        let Some(wal) = writer.as_mut() else {
            return false;
        };
        let Some(dir) = wal.path().parent().map(Path::to_path_buf) else {
            return false;
        };
        // Checkpoints happen right after a fold/rebuild, so the snapshot
        // always carries freshly built heap segments; a disk-sourced
        // snapshot has an empty delta and nothing to checkpoint.
        let Some(segments) = snap.segments().as_heap() else {
            return false;
        };
        let t_checkpoint = Instant::now();
        if wal::write_checkpoint_v2(&dir, &snap.graph, segments, wal.is_sync()).is_err() {
            return false;
        }
        // A failed truncation is safe: replaying the stale log over the
        // fresh checkpoint is idempotent (absolute term-level ops).
        let _ = wal.reset();
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        lbr_obs::span_since("checkpoint", t_checkpoint, &[("triples", snap.n_triples())]);
        true
    }

    fn commit(&self, batch: UpdateBatch, log: bool) -> Result<CommitInfo, StoreError> {
        let mut writer = self.writer.lock().expect("store lock poisoned");
        let snap = self.snapshot();
        let dict = snap.dict();

        // Fast-path attempt: apply the batch to a working copy of the
        // delta, recording the effective (non-no-op) term-level ops.
        // Deletes first, then inserts.
        let mut working = snap.delta().clone();
        let mut effective: Vec<WalOp> = Vec::new();
        let mut needs_rebuild = false;
        for t in &batch.deletes {
            let Some(e) = dict.encode(t) else {
                continue; // unknown term in that role ⇒ cannot be present
            };
            if !present_in(snap.segments(), &working, e)? {
                continue;
            }
            if !working.inserts.remove(e) {
                working.tombstones.insert(e);
            }
            effective.push(WalOp {
                kind: WalOpKind::Delete,
                triple: t.clone(),
            });
        }
        for t in &batch.inserts {
            let Some(e) = dict.encode(t) else {
                needs_rebuild = true; // new term, or an old term in a new role
                break;
            };
            if present_in(snap.segments(), &working, e)? {
                continue;
            }
            if !working.tombstones.remove(e) {
                working.inserts.insert(e);
            }
            effective.push(WalOp {
                kind: WalOpKind::Insert,
                triple: t.clone(),
            });
        }

        // Rebuild path: redo the effect computation at term level against
        // the materialized view, then rebuild dictionary + segments from
        // the merged set (canonical: `Graph::from_triples` sorts, so the
        // result is identical to a from-scratch load of these triples).
        let mut compacted = false;
        let next: Arc<Snapshot> = if needs_rebuild {
            effective.clear();
            let mut view: HashSet<Triple> = snap.triples().into_iter().collect();
            for t in &batch.deletes {
                if view.remove(t) {
                    effective.push(WalOp {
                        kind: WalOpKind::Delete,
                        triple: t.clone(),
                    });
                }
            }
            for t in &batch.inserts {
                if view.insert(t.clone()) {
                    effective.push(WalOp {
                        kind: WalOpKind::Insert,
                        triple: t.clone(),
                    });
                }
            }
            if effective.is_empty() {
                return Ok(CommitInfo {
                    epoch: snap.epoch(),
                    ..CommitInfo::default()
                });
            }
            compacted = true;
            let graph = Arc::new(Graph::from_triples(view.into_iter().collect()).encode());
            let segments = SegmentSource::Heap(Arc::new(BitMatStore::build(&graph)));
            Arc::new(Snapshot::new(
                snap.epoch() + 1,
                graph,
                segments,
                Delta::new(),
            ))
        } else {
            if effective.is_empty() {
                return Ok(CommitInfo {
                    epoch: snap.epoch(),
                    ..CommitInfo::default()
                });
            }
            let staged = Snapshot::new(
                snap.epoch() + 1,
                Arc::clone(&snap.graph),
                snap.catalog().segments().clone(),
                working,
            );
            if staged.delta().len() >= self.compact_threshold.load(Ordering::Relaxed) {
                compacted = true;
                Arc::new(fold(&staged, staged.epoch()))
            } else {
                Arc::new(staged)
            }
        };

        let inserted = effective
            .iter()
            .filter(|op| op.kind == WalOpKind::Insert)
            .count() as u64;
        let deleted = effective.len() as u64 - inserted;

        // WAL before data: if the append or fsync fails, nothing is
        // published and the store keeps serving the old epoch.
        if log {
            if let Some(wal) = writer.as_mut() {
                let t_append = Instant::now();
                wal.append(&effective)?;
                self.wal_appends.fetch_add(1, Ordering::Relaxed);
                lbr_obs::span_since("wal_append", t_append, &[("ops", effective.len() as u64)]);
            }
        }

        let mut info = CommitInfo {
            inserted,
            deleted,
            epoch: next.epoch(),
            rebuilt: needs_rebuild,
            compacted,
            checkpointed: false,
        };
        self.publish(Arc::clone(&next));
        if compacted {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        // Compaction points bound the log: checkpoint the folded view and
        // truncate. Skipped during replay (`log == false`, and the writer
        // is not installed yet anyway) so a partially replayed log is
        // never clobbered.
        if log && compacted {
            info.checkpointed = self.checkpoint_with(&mut writer, &next);
        }
        Ok(info)
    }
}

/// Folds a snapshot's delta into freshly built segments under the same
/// dictionary, producing a snapshot at `epoch` with an empty delta.
fn fold(snap: &Snapshot, epoch: u64) -> Snapshot {
    let delta = snap.delta();
    let mut triples: Vec<EncodedTriple> = snap
        .graph
        .triples
        .iter()
        .filter(|e| !delta.tombstones.contains(**e))
        .copied()
        .chain(delta.inserts.iter())
        .collect();
    triples.sort_unstable();
    let graph = Arc::new(EncodedGraph {
        dict: snap.graph.dict.clone(),
        triples,
    });
    let segments = SegmentSource::Heap(Arc::new(BitMatStore::build(&graph)));
    Snapshot::new(epoch, graph, segments, Delta::new())
}

/// Tries to `mmap` the segment file a v2 checkpoint ships with. `None`
/// whenever anything disagrees with the checkpoint image (missing file,
/// stale length or header checksum, dimension mismatch, corrupt format):
/// the caller then rebuilds heap segments from the checkpoint graph,
/// which is always correct — the segment file is purely an opener
/// fast-path, never the source of truth.
fn open_checkpoint_segments(dir: &Path, image: &wal::CheckpointImage) -> Option<SegmentSource> {
    let seg = image.segments.as_ref()?;
    let path = dir.join(wal::SEGMENTS_FILE);
    let meta = std::fs::metadata(&path).ok()?;
    if meta.len() != seg.len {
        return None;
    }
    let head = wal::read_segment_head(&path).ok()?;
    if wal::crc32(&head) != seg.head_crc {
        return None;
    }
    let catalog = DiskCatalog::open(&path).ok()?;
    (catalog.dims() == CubeDims::of(&image.graph)).then(|| SegmentSource::Disk(Arc::new(catalog)))
}

// The facade shares one `Store` across `lbr-server`'s worker pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Store>();
    assert_send_sync::<Snapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_bitmat::Family;
    use lbr_rdf::Term;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn base() -> EncodedGraph {
        Graph::from_triples(vec![t("a", "p", "b"), t("b", "p", "c"), t("a", "q", "c")]).encode()
    }

    /// A store without a WAL: heap segments, commits lost on drop.
    fn mem() -> Store {
        Store::open(base(), None, None).unwrap()
    }

    #[test]
    fn fast_path_insert_and_delete() {
        let store = mem();
        assert_eq!(store.epoch(), 0);

        // Insert with existing terms in existing roles: no rebuild.
        let info = store
            .apply(UpdateBatch::insert(vec![
                t("a", "p", "c"),
                t("a", "p", "b"),
            ]))
            .unwrap();
        assert_eq!(
            (info.inserted, info.deleted),
            (1, 0),
            "duplicate is a no-op"
        );
        assert!(!info.rebuilt);
        assert_eq!(info.epoch, 1);
        let snap = store.snapshot();
        assert!(snap.contains(&t("a", "p", "c")).unwrap());
        assert_eq!(snap.n_triples(), 4);

        let info = store
            .apply(UpdateBatch::delete(vec![
                t("a", "p", "b"),
                t("x", "p", "y"),
            ]))
            .unwrap();
        assert_eq!(
            (info.inserted, info.deleted),
            (0, 1),
            "unknown term delete is a no-op"
        );
        assert_eq!(store.epoch(), 2);
        assert!(!store.snapshot().contains(&t("a", "p", "b")).unwrap());
    }

    #[test]
    fn insert_then_delete_cancels_in_the_delta() {
        let store = mem();
        store
            .apply(UpdateBatch::insert(vec![t("b", "q", "c")]))
            .unwrap();
        store
            .apply(UpdateBatch::delete(vec![t("b", "q", "c")]))
            .unwrap();
        let snap = store.snapshot();
        assert!(snap.delta().is_empty(), "insert+delete cancel exactly");
        assert_eq!(snap.n_triples(), 3);
    }

    #[test]
    fn new_term_forces_rebuild_with_empty_delta() {
        let store = mem();
        let info = store
            .apply(UpdateBatch::insert(vec![t("new", "p", "a")]))
            .unwrap();
        assert!(info.rebuilt);
        let snap = store.snapshot();
        assert!(snap.delta().is_empty());
        assert_eq!(snap.n_triples(), 4);
        assert!(snap.contains(&t("new", "p", "a")).unwrap());
        // Role change (object-only term used as subject) also rebuilds
        // when it is not encodable… "c" appears as S already; use a pure
        // object term: "b" is S and O; add literal object term first.
        let info = store
            .apply(UpdateBatch::insert(vec![t("a", "p", "lit-only")]))
            .unwrap();
        assert!(info.rebuilt);
        let info = store
            .apply(UpdateBatch::insert(vec![t("lit-only", "p", "a")]))
            .unwrap();
        assert!(info.rebuilt, "O-only term used as S breaks the Vso prefix");
        assert!(store.snapshot().contains(&t("lit-only", "p", "a")).unwrap());
    }

    #[test]
    fn noop_batch_keeps_epoch_and_writes_nothing() {
        let store = mem();
        let info = store
            .apply(UpdateBatch::insert(vec![t("a", "p", "b")]))
            .unwrap();
        assert_eq!(info.epoch, 0);
        assert_eq!(store.epoch(), 0);
        let info = store
            .apply(UpdateBatch::delete(vec![t("nope", "p", "nope")]))
            .unwrap();
        assert_eq!(info.epoch, 0);
    }

    #[test]
    fn compaction_folds_and_preserves_the_view() {
        let store = mem();
        store.set_compact_threshold(1_000_000);
        store
            .apply(UpdateBatch::insert(vec![
                t("a", "p", "c"),
                t("c", "q", "b"),
            ]))
            .unwrap();
        store
            .apply(UpdateBatch::delete(vec![t("b", "p", "c")]))
            .unwrap();
        let before = store.snapshot();
        let view = before.triples();
        assert!(!before.delta().is_empty());

        let info = store.compact().unwrap();
        assert!(info.compacted);
        let after = store.snapshot();
        assert!(after.delta().is_empty());
        assert_eq!(after.triples(), view, "fold preserves the merged view");
        assert_eq!(after.epoch(), before.epoch() + 1);

        // Old snapshot still serves its own epoch untouched.
        assert_eq!(before.triples(), view);
        assert!(!before.delta().is_empty());
    }

    #[test]
    fn obs_counters_track_wal_compaction_and_checkpoint_activity() {
        // In-memory store: no WAL, so only compactions count.
        let store = mem();
        store.set_compact_threshold(1_000_000);
        assert_eq!(store.obs(), StoreObs::default());
        store
            .apply(UpdateBatch::insert(vec![t("a", "p", "c")]))
            .unwrap();
        let obs = store.obs();
        assert_eq!(
            (obs.wal_appends, obs.compactions, obs.checkpoints),
            (0, 0, 0),
            "plain in-memory commit touches no counter"
        );
        store.compact().unwrap();
        let obs = store.obs();
        assert_eq!(
            (obs.wal_appends, obs.compactions, obs.checkpoints),
            (0, 1, 0),
            "explicit compaction counts; no WAL, no checkpoint"
        );
        store.compact().unwrap();
        assert_eq!(store.obs().compactions, 1, "empty-delta compact is a no-op");

        // WAL-backed store: appends and checkpoints count too.
        let dir = std::env::temp_dir().join(format!("lbr-store-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = Store::open(base(), None, Some(&dir)).unwrap();
        store.set_compact_threshold(2);
        store
            .apply(UpdateBatch::insert(vec![t("a", "p", "c")]))
            .unwrap();
        let obs = store.obs();
        assert_eq!((obs.wal_appends, obs.compactions), (1, 0));
        let info = store
            .apply(UpdateBatch::insert(vec![t("c", "p", "a")]))
            .unwrap();
        assert!(info.compacted && info.checkpointed);
        let obs = store.obs();
        assert_eq!(
            (obs.wal_appends, obs.compactions, obs.checkpoints),
            (2, 1, 1),
            "threshold commit logs, folds and checkpoints"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_triggers_at_threshold() {
        let store = mem();
        store.set_compact_threshold(2);
        store
            .apply(UpdateBatch::insert(vec![t("a", "p", "c")]))
            .unwrap();
        assert!(!store.snapshot().delta().is_empty());
        let info = store
            .apply(UpdateBatch::insert(vec![t("c", "p", "a")]))
            .unwrap();
        assert!(info.compacted, "second change reaches the threshold");
        assert!(store.snapshot().delta().is_empty());
        assert_eq!(store.snapshot().n_triples(), 5);
    }

    #[test]
    fn current_ref_survives_epoch_swaps() {
        let store = mem();
        let before = store.current_ref();
        let epoch0 = before.epoch();
        // Base roles: subjects {a, b}, predicates {p, q}, objects {b, c};
        // every combination is encodable, so all commits take the fast path.
        for s in ["a", "b"] {
            for p in ["p", "q"] {
                for o in ["b", "c"] {
                    let info = store.apply(UpdateBatch::insert(vec![t(s, p, o)])).unwrap();
                    assert!(!info.rebuilt);
                }
            }
        }
        assert_eq!(store.epoch(), 5, "8 combinations, 3 already present");
        // The borrow taken before the commits still reads its own epoch.
        assert_eq!(before.epoch(), epoch0);
        assert_eq!(before.n_triples(), 3);
        assert_eq!(store.current_ref().n_triples(), 8);
    }

    /// A store nobody writes to is what every read-only `Database` sits
    /// on: its borrow-shaped accessors (`dict()`, `engine_of()`) vend the
    /// one snapshot over and over, which must pin it exactly once.
    #[test]
    fn read_only_use_retains_one_snapshot() {
        let store = mem();
        assert!(store.retained.lock().unwrap().is_empty());
        for _ in 0..1000 {
            assert_eq!(store.current_ref().dict().n_predicates(), 2);
        }
        assert_eq!(store.retained.lock().unwrap().len(), 1);
    }

    #[test]
    fn wal_roundtrip_replays_to_the_same_state() {
        let dir = std::env::temp_dir().join(format!("lbr-store-walrt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let view = {
            let store = Store::open(base(), None, Some(&dir)).unwrap();
            store
                .apply(UpdateBatch::insert(vec![
                    t("a", "p", "c"),
                    t("zz", "p", "a"),
                ]))
                .unwrap();
            store
                .apply(UpdateBatch::delete(vec![t("a", "q", "c")]))
                .unwrap();
            store.snapshot().triples()
        };
        let reopened = Store::open(base(), None, Some(&dir)).unwrap();
        assert_eq!(reopened.snapshot().triples(), view);
        // The zz-insert was a rebuild ⇒ checkpointed + truncated the log,
        // so only the later delete replays: epoch 1, not 2.
        assert_eq!(reopened.epoch(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_not_vended_as_borrows_are_freed() {
        let store = mem();
        store
            .apply(UpdateBatch::insert(vec![t("a", "p", "c")]))
            .unwrap();
        let weak = Arc::downgrade(&store.snapshot());
        store
            .apply(UpdateBatch::insert(vec![t("b", "q", "c")]))
            .unwrap();
        assert!(
            weak.upgrade().is_none(),
            "an epoch never vended as a borrow must drop once superseded"
        );
        // A vended borrow, by contrast, pins its epoch for the store's
        // lifetime across any number of commits.
        let pinned = store.current_ref();
        let epoch = pinned.epoch();
        store
            .apply(UpdateBatch::insert(vec![t("c", "q", "b")]))
            .unwrap();
        store.compact().unwrap();
        assert_eq!(pinned.epoch(), epoch);
    }

    #[test]
    fn rebuild_checkpoints_and_truncates_the_wal() {
        let dir = std::env::temp_dir().join(format!("lbr-store-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let view = {
            let store = Store::open(base(), None, Some(&dir)).unwrap();
            let info = store
                .apply(UpdateBatch::insert(vec![t("fresh", "p", "a")]))
                .unwrap();
            assert!(info.rebuilt && info.compacted && info.checkpointed);
            let rec = Wal::inspect(&dir).unwrap();
            assert!(rec.records.is_empty(), "checkpoint truncated the log");
            // A following fast-path commit lands in the (short) tail.
            let info = store
                .apply(UpdateBatch::delete(vec![t("a", "q", "c")]))
                .unwrap();
            assert!(!info.compacted && !info.checkpointed);
            assert_eq!(Wal::inspect(&dir).unwrap().records.len(), 1);
            store.snapshot().triples()
        };
        let ckpt = wal::read_checkpoint(&dir).unwrap().expect("image exists");
        assert!(ckpt.contains(&t("fresh", "p", "a")));
        let reopened = Store::open(base(), None, Some(&dir)).unwrap();
        assert_eq!(reopened.snapshot().triples(), view);
        assert_eq!(reopened.epoch(), 1, "only the tail record replays");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_uses_checkpoint_segments() {
        let dir = std::env::temp_dir().join(format!("lbr-store-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let view = {
            let store = Store::open(base(), None, Some(&dir)).unwrap();
            let info = store
                .apply(UpdateBatch::insert(vec![t("fresh", "p", "a")]))
                .unwrap();
            assert!(info.checkpointed, "rebuild writes a v2 checkpoint");
            store.snapshot().triples()
        };
        assert!(
            dir.join(wal::SEGMENTS_FILE).is_file(),
            "checkpoint persisted a compacted segment file"
        );
        // Reopen: the checkpointed segments are mmap'd instead of rebuilt,
        // and the merged view is identical.
        let reopened = Store::open(base(), None, Some(&dir)).unwrap();
        assert!(
            reopened.snapshot().segments().is_disk(),
            "reopen serves the checkpointed segments zero-copy"
        );
        assert_eq!(reopened.snapshot().triples(), view);
        // Further fast-path commits work against disk segments.
        reopened
            .apply(UpdateBatch::delete(vec![t("a", "q", "c")]))
            .unwrap();
        assert!(!reopened.snapshot().contains(&t("a", "q", "c")).unwrap());
        assert!(reopened.snapshot().contains(&t("fresh", "p", "a")).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_file_falls_back_to_heap_rebuild() {
        let dir = std::env::temp_dir().join(format!("lbr-store-segcor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let view = {
            let store = Store::open(base(), None, Some(&dir)).unwrap();
            store
                .apply(UpdateBatch::insert(vec![t("fresh", "p", "a")]))
                .unwrap();
            store.snapshot().triples()
        };
        // Simulate a crash between the two checkpoint renames: the segment
        // file no longer matches the pin (length + head CRC) in the ckpt.
        let seg = dir.join(wal::SEGMENTS_FILE);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let reopened = Store::open(base(), None, Some(&dir)).unwrap();
        assert!(
            !reopened.snapshot().segments().is_disk(),
            "mismatched segment pin falls back to a heap rebuild"
        );
        assert_eq!(reopened.snapshot().triples(), view);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Mapped blobs are validated on first touch, not at open. A corrupt
    /// P-O row directory must fail the commit — read as "absent", it would
    /// log and stage a triple the base already holds as an insert.
    #[test]
    fn corrupt_mapped_blob_fails_the_commit() {
        let dir = std::env::temp_dir().join(format!("lbr-store-blobcor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let graph = base();
        let a = graph
            .dict
            .id(&Term::iri("a"), lbr_rdf::Dimension::Subject)
            .unwrap();
        let seg = dir.join("index.seg");
        lbr_bitmat::disk::save_store(&BitMatStore::build(&graph), &seg).unwrap();

        // Walk the v2 TOC (48-byte fixed header, then per family
        // `n u32 | (key u32, offset u64, len u64, count u64) × n`) to the
        // P-O blob of subject `a`, and push the first row id of its
        // directory (24 bytes in) out of range.
        let mut bytes = std::fs::read(&seg).unwrap();
        let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let blob_base = u64_at(&bytes, 16) as usize;
        let mut at = 48;
        let mut blob = None;
        for f in Family::ALL {
            let n = u32_at(&bytes, at) as usize;
            at += 4;
            for _ in 0..n {
                if f == Family::Po && u32_at(&bytes, at) == a {
                    blob = Some(blob_base + u64_at(&bytes, at + 4) as usize);
                }
                at += 28;
            }
        }
        let dir_at = blob.expect("subject `a` has a P-O blob") + 24;
        bytes[dir_at..dir_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&seg, &bytes).unwrap();

        // The header is intact, so the store opens over the mapping.
        let source = SegmentSource::Disk(Arc::new(DiskCatalog::open(&seg).unwrap()));
        let store = Store::open(graph, Some(source), Some(&dir)).unwrap();
        assert!(store.snapshot().segments().is_disk());
        let wal_len = || std::fs::metadata(dir.join(wal::WAL_FILE)).unwrap().len();
        let before = wal_len();

        let held = t("a", "p", "b");
        let err = store.apply(UpdateBatch::insert(vec![held.clone()]));
        assert!(matches!(err, Err(StoreError::Segment(_))), "{err:?}");
        assert_eq!(store.epoch(), 0, "nothing published");
        assert_eq!(wal_len(), before, "nothing logged");
        let snap = store.snapshot();
        assert!(snap.delta().is_empty());
        assert!(matches!(snap.contains(&held), Err(StoreError::Segment(_))));
        assert!(snap.overlay_with(&[(held, false)]).is_err());
        // Other subjects' blobs are untouched and still commit.
        let info = store
            .apply(UpdateBatch::delete(vec![t("b", "p", "c")]))
            .unwrap();
        assert_eq!((info.deleted, info.epoch), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
