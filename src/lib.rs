//! # lbr — Left Bit Right
//!
//! A reproduction of Medha Atre's *"Left Bit Right: For SPARQL Join
//! Queries with OPTIONAL Patterns (Left-outer-joins)"* (SIGMOD-era, 2015):
//! a query processor for SPARQL BGP + OPTIONAL queries over compressed
//! BitMat indexes, with semi-join pruning that makes reordered left-outer
//! joins safe without nullification / best-match on well-designed acyclic
//! queries.
//!
//! ## Quickstart
//!
//! Build a [`Database`], prepare a query once, then stream [`Row`]s with
//! name-based accessors:
//!
//! ```
//! use lbr::Database;
//!
//! let db = Database::builder()
//!     .ntriples(r#"
//!         <Jerry> <hasFriend> <Julia> .
//!         <Jerry> <hasFriend> <Larry> .
//!         <Julia> <actedIn> <Seinfeld> .
//!         <Seinfeld> <location> <NewYorkCity> .
//!     "#)
//!     .build()
//!     .unwrap();
//!
//! let prepared = db.prepare(r#"
//!     SELECT * WHERE {
//!       <Jerry> <hasFriend> ?friend .
//!       OPTIONAL { ?friend <actedIn> ?sitcom .
//!                  ?sitcom <location> <NewYorkCity> . } }
//! "#).unwrap();
//!
//! // The parse → UNF rewrite → analysis → jvar-order pipeline ran once in
//! // `prepare`; each `solutions()` call only executes.
//! let mut friends: Vec<String> = prepared
//!     .solutions()
//!     .unwrap()
//!     .map(|row| row.term("friend").unwrap().to_string())
//!     .collect();
//! friends.sort();
//! assert_eq!(friends, vec!["<Julia>".to_string(), "<Larry>".to_string()]);
//! ```
//!
//! Queries are full SPARQL query specs: the `SELECT [DISTINCT|REDUCED]`
//! and `ASK` forms plus the `ORDER BY` / `LIMIT` / `OFFSET` solution
//! modifiers, parsed into [`Query`] (`form` + `pattern` + `modifiers`)
//! and applied by one shared seam (`lbr_core::modifiers`) for every
//! engine. `ASK` and plain `LIMIT` push a row quota into the LBR
//! multi-way join, which stops enumerating seeds once enough rows exist:
//!
//! ```
//! use lbr::Database;
//!
//! let db = Database::from_ntriples(r#"
//!     <Jerry> <hasFriend> <Julia> .
//!     <Jerry> <hasFriend> <Larry> .
//!     <Julia> <actedIn> <Seinfeld> .
//! "#).unwrap();
//!
//! // Existence short-circuits: the join stops at the first row.
//! assert!(db.ask("ASK { <Jerry> <hasFriend> ?f . }").unwrap());
//!
//! // DISTINCT dedupes on encoded dictionary IDs; ORDER BY sorts decoded
//! // terms under a documented total order; LIMIT/OFFSET slice.
//! let out = db.execute(
//!     "SELECT DISTINCT ?f WHERE { <Jerry> <hasFriend> ?f . }
//!      ORDER BY DESC(?f) LIMIT 1").unwrap();
//! assert_eq!(out.render(db.dict()), vec!["<Larry>".to_string()]);
//! ```
//!
//! [`Database`] always runs the LBR engine. Every engine of the paper's
//! evaluation — LBR, the two pairwise hash-join configurations, the
//! outer-join reordering baseline and the nested-loop reference oracle —
//! implements the same [`Engine`] trait, and the comparators are reached
//! through one door, [`Database::engine_of`] with an [`EngineKind`]:
//!
//! ```
//! use lbr::{Database, EngineKind};
//!
//! let db = Database::from_ntriples("<a> <p> <b> .").unwrap();
//! for kind in EngineKind::all() {
//!     let engine = db.engine_of(kind);
//!     let out = engine.execute(&lbr::parse_query("SELECT * WHERE { ?s <p> ?o . }").unwrap());
//!     assert_eq!(out.unwrap().len(), 1, "{kind}");
//! }
//! ```
//!
//! ## Crate map
//!
//! * [`rdf`] — terms, triples, dictionary encoding, N-Triples I/O;
//! * [`bitmat`] — compressed bit-matrices, `fold`/`unfold`, the on-disk
//!   index;
//! * [`sparql`] — parser, algebra (query forms + solution modifiers),
//!   GoSN / GoT / GoJ, well-designedness, rewrites;
//! * [`core`] — the LBR engine (init, `prune_triples`, multi-way join,
//!   nullification, best-match), the [`Engine`] trait, the shared
//!   form/modifier seam (`lbr_core::modifiers`) and the streaming
//!   [`Solutions`] API;
//! * [`mod@format`] — W3C SPARQL 1.1 Results JSON / TSV serialization,
//!   streaming over any `io::Write` (what `lbr-cli --format` emits and
//!   `lbr-server` streams onto the socket);
//! * [`cache`] — the thread-safe LRU plan cache serving layers share
//!   ([`PlanCache`], keyed by canonicalized query text and pinned to the
//!   database epoch);
//! * [`storage`] — the one backend under every [`Database`]: immutable
//!   BitMat segments (heap-built or mmap'd) + delta memtable (+ WAL),
//!   snapshot isolation via epoch'd `Arc` swaps, compaction. A read-only
//!   database is a store without a writer: [`DatabaseBuilder::wal_dir`]
//!   / [`DatabaseBuilder::updatable`] only decide whether
//!   [`Database::update`] may commit to it;
//! * [`baseline`] — comparator engines behind [`EngineKind`] (pairwise
//!   hash joins; outer-join reordering with repair operators; the
//!   reference oracle);
//! * [`datagen`] — LUBM/UniProt/DBPedia-like workload generators and the
//!   Appendix E benchmark queries.

#![forbid(unsafe_code)]

pub use lbr_baseline as baseline;
pub use lbr_bitmat as bitmat;
pub use lbr_core as core;
pub use lbr_datagen as datagen;
pub use lbr_obs as obs;
pub use lbr_rdf as rdf;
pub use lbr_sparql as sparql;
pub use lbr_store as storage;

pub mod cache;
pub mod format;

pub use cache::{canonicalize, CacheStats, CachedPlan, PlanCache, ResultCache, ResultCacheStats};
pub use format::OutputFormat;
pub use lbr_baseline::{EngineKind, EngineOptions};
pub use lbr_bitmat::{BitMatStore, Catalog, DiskCatalog, Family};
pub use lbr_core::{Engine, LbrEngine, QueryOutput, QueryStats, Row, Solutions, StatsAggregate};
pub use lbr_rdf::{Dictionary, EncodedGraph, Graph, Term, Triple};
pub use lbr_sparql::{parse_query, Dedup, Modifiers, OrderKey, Query, QueryForm};
pub use lbr_sparql::{parse_update, Update, UpdateOp};
pub use lbr_store::{CommitInfo, SegmentSource, Snapshot, Store, StoreError, UpdateBatch};

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An RDF database: a [`Store`] (segments + delta memtable, published as
/// epoch-stamped snapshots) queried by the LBR engine.
///
/// Every database sits on the same backend and every query runs an
/// [`LbrEngine`] over the current snapshot's [`storage::OverlayCatalog`]
/// (the comparator engines are reached through
/// [`Database::engine_of`]); a read-only
/// database is simply one whose store nobody may write to, so its delta
/// stays empty, its epoch stays 0 and every load is the base segments'
/// own.
///
/// [`Database::builder`] is the front door; [`Database::from_triples`],
/// [`Database::from_ntriples`] and [`Database::from_encoded`] remain as
/// one-line shortcuts for the common in-memory/LBR configuration. The
/// underlying pieces stay public for users who need the catalog, the
/// baselines, or the disk index directly.
pub struct Database {
    store: Store,
    /// Policy, not mechanism: built without `wal_dir()` / `updatable()`.
    read_only: bool,
}

/// Everything that can go wrong assembling a [`Database`].
#[derive(Debug)]
pub enum DatabaseError {
    /// The builder was given no triple source (the dictionary needs one
    /// even when querying an on-disk index).
    NoSource,
    /// Reading a data or index file failed.
    Io(PathBuf, std::io::Error),
    /// Parsing N-Triples failed.
    Rdf(rdf::RdfError),
    /// Opening the on-disk BitMat index failed.
    Index(bitmat::BitMatError),
    /// The on-disk index was built from different data than the given
    /// triples (dimension mismatch) — querying it would silently return
    /// wrong results.
    IndexMismatch {
        /// Dimensions of the opened index.
        index: bitmat::CubeDims,
        /// Dimensions implied by the triple source's dictionary.
        data: bitmat::CubeDims,
    },
    /// Opening or replaying the write-ahead log failed.
    Wal(StoreError),
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::NoSource => f.write_str(
                "no triple source: give the builder ntriples(), ntriples_file(), \
                 triples() or encoded()",
            ),
            DatabaseError::Io(path, e) => write!(f, "cannot read {}: {e}", path.display()),
            DatabaseError::Rdf(e) => write!(f, "{e}"),
            DatabaseError::Index(e) => write!(f, "{e}"),
            DatabaseError::IndexMismatch { index, data } => write!(
                f,
                "on-disk index does not match the data: index has {}/{}/{} S/P/O \
                 over {} triples, data has {}/{}/{} over {}",
                index.n_subjects,
                index.n_predicates,
                index.n_objects,
                index.n_triples,
                data.n_subjects,
                data.n_predicates,
                data.n_objects,
                data.n_triples,
            ),
            DatabaseError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DatabaseError {}

impl From<rdf::RdfError> for DatabaseError {
    fn from(e: rdf::RdfError) -> Self {
        DatabaseError::Rdf(e)
    }
}

impl From<bitmat::BitMatError> for DatabaseError {
    fn from(e: bitmat::BitMatError) -> Self {
        DatabaseError::Index(e)
    }
}

enum Source {
    Triples(Vec<Triple>),
    Ntriples(String),
    NtriplesFile(PathBuf),
    Encoded(Box<EncodedGraph>),
}

/// Configures and assembles a [`Database`].
///
/// Exactly one triple source is required; the last one set wins. With
/// [`DatabaseBuilder::disk_index`] the triples still provide the
/// dictionary while BitMat rows are read lazily from the index file.
#[must_use = "call .build() to assemble the Database"]
pub struct DatabaseBuilder {
    source: Option<Source>,
    index: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
    updatable: bool,
}

impl DatabaseBuilder {
    /// Uses raw triples as the source.
    pub fn triples(mut self, triples: Vec<Triple>) -> Self {
        self.source = Some(Source::Triples(triples));
        self
    }

    /// Uses an N-Triples document as the source.
    pub fn ntriples(mut self, text: impl Into<String>) -> Self {
        self.source = Some(Source::Ntriples(text.into()));
        self
    }

    /// Uses an N-Triples file as the source.
    pub fn ntriples_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = Some(Source::NtriplesFile(path.into()));
        self
    }

    /// Uses an already-encoded graph as the source.
    pub fn encoded(mut self, graph: EncodedGraph) -> Self {
        self.source = Some(Source::Encoded(Box::new(graph)));
        self
    }

    /// Reads BitMat rows lazily from an index written by
    /// [`bitmat::disk::save_store`] instead of building them in memory.
    pub fn disk_index(mut self, path: impl Into<PathBuf>) -> Self {
        self.index = Some(path.into());
        self
    }

    /// Lets the database accept updates, **durably**: updates are logged
    /// to a write-ahead log in `dir` (created if missing) and fsynced
    /// before they are visible; on the next open with the same `dir`
    /// the log is replayed over the triple source, so the database
    /// reopens to exactly the committed updates — even after a crash
    /// mid-write (a torn tail is truncated to the last whole record).
    ///
    /// Implies [`DatabaseBuilder::updatable`]. Combines with
    /// [`DatabaseBuilder::disk_index`]: the delta memtable then layers
    /// over the mmap'd segments, and after the first compaction the
    /// checkpoint's own segment file takes over.
    pub fn wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Lets the database accept updates without durability: they go to
    /// the in-memory delta only and die with the process. Useful for
    /// tests and scratch stores; use [`DatabaseBuilder::wal_dir`] to
    /// persist updates. (Without either, the same store is read-only:
    /// [`Database::update`] returns [`UpdateError::ReadOnly`].)
    pub fn updatable(mut self) -> Self {
        self.updatable = true;
        self
    }

    // Kept only because the frozen `benchmark/` (its one caller) still
    // sets it: there is one serial join, so the argument is ignored. Goes
    // with `core.mt_ratio` in the next benchmark issue.
    #[doc(hidden)]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Assembles the database.
    pub fn build(self) -> Result<Database, DatabaseError> {
        let graph = match self.source {
            None => return Err(DatabaseError::NoSource),
            Some(Source::Encoded(graph)) => *graph,
            Some(Source::Triples(triples)) => Graph::from_triples(triples).encode(),
            Some(Source::Ntriples(text)) => EncodedGraph::from_ntriples(&text)?,
            Some(Source::NtriplesFile(path)) => {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| DatabaseError::Io(path.clone(), e))?;
                EncodedGraph::from_ntriples(&text)?
            }
        };
        // An on-disk index must describe exactly the triple source's
        // dictionary — querying a mismatched index would silently return
        // wrong results.
        let segments = match &self.index {
            Some(path) => {
                let catalog = DiskCatalog::open(Path::new(path))?;
                let (index, data) = (catalog.dims(), bitmat::CubeDims::of(&graph));
                if index != data {
                    return Err(DatabaseError::IndexMismatch { index, data });
                }
                Some(SegmentSource::Disk(Arc::new(catalog)))
            }
            None => None,
        };
        // The store layers its delta over either segment medium; mmap'd
        // segments from disk_index() skip the build.
        let store =
            Store::open(graph, segments, self.wal_dir.as_deref()).map_err(DatabaseError::Wal)?;
        Ok(Database {
            store,
            read_only: !self.updatable && self.wal_dir.is_none(),
        })
    }
}

impl Database {
    /// Starts a [`DatabaseBuilder`].
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder {
            source: None,
            index: None,
            wal_dir: None,
            updatable: false,
        }
    }

    /// Shortcut: in-memory database over raw triples.
    pub fn from_triples(triples: Vec<Triple>) -> Database {
        Self::builder()
            .triples(triples)
            .build()
            .expect("in-memory build cannot fail")
    }

    /// Shortcut: in-memory database over an N-Triples document.
    pub fn from_ntriples(text: &str) -> Result<Database, rdf::RdfError> {
        Ok(Self::from_encoded(EncodedGraph::from_ntriples(text)?))
    }

    /// Shortcut: in-memory database over an encoded graph.
    pub fn from_encoded(graph: EncodedGraph) -> Database {
        Self::builder()
            .encoded(graph)
            .build()
            .expect("in-memory build cannot fail")
    }

    /// Pins one consistent view of the database for a whole request.
    ///
    /// This captures the current snapshot **once**: every execution on
    /// the view, every epoch check and every dictionary decode then
    /// agree on the same data, no matter how many updates commit
    /// concurrently. (The borrow-shaped accessors [`Database::dict`] /
    /// [`Database::engine_of`] each pin the snapshot current at *their*
    /// call — correct in isolation, but two calls can straddle a commit;
    /// a `ReadView` is how the serving layers make
    /// validate-then-execute-then-decode atomic.)
    pub fn read(&self) -> ReadView {
        ReadView {
            snap: self.store.snapshot(),
        }
    }

    /// A specific engine over this database's catalog — the one door to
    /// the comparator engines (`Database`'s own queries always run LBR).
    pub fn engine_of(&self, kind: EngineKind) -> Box<dyn Engine + '_> {
        self.engine_with(kind, &EngineOptions::default())
    }

    /// A specific engine with explicit [`EngineOptions`].
    ///
    /// The engine is bound to the snapshot current at this call: it
    /// sees that snapshot's triples for its whole lifetime, unaffected
    /// by concurrent updates (snapshot isolation — each epoch vended
    /// this way stays readable, and allocated, until the database is
    /// dropped; serving loops should prefer [`Database::read`], whose
    /// snapshots are freed when the view drops).
    pub fn engine_with(&self, kind: EngineKind, options: &EngineOptions) -> Box<dyn Engine + '_> {
        let snap = self.store.current_ref();
        kind.build_with(snap.catalog(), snap.dict(), options)
    }

    // Kept only because the frozen `benchmark/` (its one caller) still
    // reads it; see `DatabaseBuilder::threads`.
    #[doc(hidden)]
    pub fn threads(&self) -> usize {
        1
    }

    /// Parses and executes a query.
    pub fn execute(&self, query_text: &str) -> Result<QueryOutput, core::LbrError> {
        let query = parse_traced(query_text)?;
        self.execute_query(&query)
    }

    /// Executes a parsed query.
    pub fn execute_query(&self, query: &Query) -> Result<QueryOutput, core::LbrError> {
        self.read().execute_query(query)
    }

    /// Parses and executes a query, streaming the solutions. Execution
    /// and decoding share one snapshot, so a concurrent update between
    /// the two cannot mismatch IDs and dictionary.
    pub fn solutions(&self, query_text: &str) -> Result<Solutions<'_>, core::LbrError> {
        let query = parse_traced(query_text)?;
        let snap = self.store.current_ref();
        Ok(lbr(snap).execute(&query)?.into_solutions(snap.dict()))
    }

    /// Parses and executes an existence query, returning its boolean
    /// answer. The text may be a full `ASK { … }` query or a `SELECT`
    /// (whose answer is "did any solution survive the modifiers?" — the
    /// same semantics ASK applies). `ASK` short-circuits inside the LBR
    /// engine: the multi-way join stops at the first surviving row.
    pub fn ask(&self, query_text: &str) -> Result<bool, core::LbrError> {
        let mut query = parse_traced(query_text)?;
        if !query.is_ask() && query.dedup() == Dedup::None {
            // Same truth value, but the ASK form unlocks the existence
            // fast path (DISTINCT + OFFSET must keep SELECT semantics:
            // emptiness then depends on the *deduplicated* count).
            query.form = QueryForm::Ask;
        }
        let out = self.execute_query(&query)?;
        Ok(out.boolean().unwrap_or(!out.is_empty()))
    }

    /// Executes a query through a shared [`PlanCache`]: repeated query
    /// texts (modulo whitespace) skip parsing + UNF rewrite + GoSN/GoJ
    /// planning entirely — the serving hot path of `lbr-server` and
    /// `lbr-cli --repeat`.
    pub fn execute_cached(
        &self,
        cache: &PlanCache,
        query_text: &str,
    ) -> Result<QueryOutput, core::LbrError> {
        // Pin the view first: if an update slips in between the cache
        // lookup and execution, the plan's epoch no longer matches the
        // view's and `execute_plan` re-plans instead of running baked
        // constant IDs against the wrong dictionary.
        let view = self.read();
        let cached = cache.get_or_prepare(self, query_text)?;
        view.execute_plan(&cached)
    }

    /// Executes a [`CachedPlan`] on a fresh LBR engine over one pinned
    /// view. The plan is only used when its epoch matches the view's (see
    /// [`ReadView::execute_plan`]); a stale plan falls back to unprepared
    /// execution, so this is always correct — at worst it re-plans.
    pub fn execute_plan(&self, cached: &CachedPlan) -> Result<QueryOutput, core::LbrError> {
        self.read().execute_plan(cached)
    }

    /// Parses and prepares a query: the planning pipeline (parse → UNF
    /// rewrite → analyze/classify → jvar order) runs once here;
    /// [`PreparedQuery::execute`] / [`PreparedQuery::solutions`] skip
    /// straight to execution.
    pub fn prepare(&self, query_text: &str) -> Result<PreparedQuery<'_>, core::LbrError> {
        self.prepare_query(parse_traced(query_text)?)
    }

    /// Prepares an already-parsed query.
    pub fn prepare_query(&self, query: Query) -> Result<PreparedQuery<'_>, core::LbrError> {
        Ok(PreparedQuery {
            db: self,
            cached: CachedPlan::prepare(&self.read(), query)?,
        })
    }

    /// Renders the LBR plan for a query.
    pub fn explain(&self, query_text: &str) -> Result<String, core::LbrError> {
        let query = parse_query(query_text)?;
        lbr(&self.read().snap).explain(&query)
    }

    /// EXPLAIN ANALYZE: executes the query under a forced trace and
    /// renders the plan annotated with actual per-stage wall time and
    /// estimated-vs-actual cardinalities per TP and per jvar.
    pub fn explain_analyze(&self, query_text: &str) -> Result<String, core::LbrError> {
        let query = parse_query(query_text)?;
        lbr(&self.read().snap).explain_analyze(&query)
    }

    /// The dictionary (for decoding results).
    ///
    /// The current snapshot's dictionary. It stays valid for the database's lifetime even across updates that
    /// rebuild the dictionary (each epoch vended this way is retained
    /// until the database drops — prefer [`Database::read`] for
    /// request-scoped work), but IDs it hands out describe the snapshot
    /// it came from. To decode results, execute and take the dictionary
    /// on one [`ReadView`] so they cannot straddle an update.
    pub fn dict(&self) -> &Dictionary {
        self.store.current_ref().dict()
    }

    /// The in-memory BitMat store (for baselines, benches, size reports).
    ///
    /// This is the current snapshot's immutable *segment* store — the
    /// compacted base, **without** the delta memtable. Use
    /// [`Database::engine_of`] (which layers the delta) to query; use
    /// this only for size/shape inspection.
    ///
    /// # Panics
    ///
    /// Panics when the current segments are mmap'd (a
    /// [`DatabaseBuilder::disk_index`], or a reopened checkpoint) —
    /// there is no in-memory store; use [`Database::engine_of`], which
    /// works over either medium.
    pub fn store(&self) -> &BitMatStore {
        match self.store.current_ref().segments().as_heap() {
            Some(segments) => segments,
            None => panic!(
                "Database::store(): this database serves mmap'd segments and has no \
                 in-memory BitMat store; go through Database::engine_of instead"
            ),
        }
    }

    /// The encoded graph.
    ///
    /// The current snapshot's *base* graph — delta-resident updates are not reflected here until a rebuild or
    /// compaction folds them in. [`Database::triples`] gives the merged
    /// view.
    pub fn graph(&self) -> &EncodedGraph {
        self.store.current_ref().graph()
    }

    /// Number of triples (of the current snapshot, delta included).
    pub fn len(&self) -> usize {
        self.store.snapshot().n_triples() as usize
    }

    /// True when the database has no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One consistent view of a [`Database`], created by [`Database::read`].
///
/// Holds the snapshot `Arc` current when it was created, so execution,
/// plan-epoch validation and result decoding all run against the same
/// data — and the snapshot is freed when the last view/reader drops it.
pub struct ReadView {
    snap: Arc<Snapshot>,
}

impl ReadView {
    /// The storage epoch this view is pinned to (`0` on a read-only
    /// database, which never changes epoch).
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// This view's dictionary — decodes exactly the IDs executions on
    /// this view produce.
    pub fn dict(&self) -> &Dictionary {
        self.snap.dict()
    }

    /// Executes a parsed query on this view's data.
    pub fn execute_query(&self, query: &Query) -> Result<QueryOutput, core::LbrError> {
        lbr(&self.snap).execute(query)
    }

    /// Executes a [`CachedPlan`] against this view. The plan's baked
    /// constant IDs are only meaningful in the dictionary they were
    /// planned under, so the plan is used **only** when its epoch
    /// matches this view's; otherwise the query is re-planned here —
    /// always correct, at worst it re-plans.
    pub fn execute_plan(&self, cached: &CachedPlan) -> Result<QueryOutput, core::LbrError> {
        self.execute_plan_deadline(cached, None)
    }

    /// [`ReadView::execute_plan`] under a per-request execution deadline:
    /// once `deadline` passes, the LBR engine stops enumerating join
    /// seeds and execution returns [`core::LbrError::DeadlineExceeded`]
    /// (mapped to HTTP `504` by `lbr-server`). `None` never expires.
    pub fn execute_plan_deadline(
        &self,
        cached: &CachedPlan,
        deadline: Option<std::time::Instant>,
    ) -> Result<QueryOutput, core::LbrError> {
        execute_plan_on(&self.snap, cached, deadline)
    }
}

/// Parses a query under the one `parse` span: what `Database::execute`,
/// `solutions`, `ask`, `prepare` and the plan cache's miss path call.
fn parse_traced(text: &str) -> Result<Query, lbr_sparql::SparqlError> {
    let t = std::time::Instant::now();
    let query = parse_query(text);
    lbr_obs::span_since("parse", t, &[("bytes", text.len() as u64)]);
    query
}

/// The LBR engine over `snap`'s data: what every `Database` query runs.
fn lbr(snap: &Snapshot) -> LbrEngine<'_, storage::OverlayCatalog> {
    LbrEngine::new(snap.catalog(), snap.dict())
}

/// Runs `cached` against `snap`: as planned when it was planned at
/// `snap`'s epoch, re-planned otherwise.
fn execute_plan_on(
    snap: &Snapshot,
    cached: &CachedPlan,
    deadline: Option<std::time::Instant>,
) -> Result<QueryOutput, core::LbrError> {
    let engine = lbr(snap).with_deadline(deadline);
    if cached.epoch() == snap.epoch() {
        engine.execute_plan(cached.plan())
    } else {
        engine.execute(cached.query())
    }
}

/// What a [`Database::update`] did, summed over its operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Triples actually added (already-present triples don't count).
    pub inserted: u64,
    /// Triples actually removed (absent triples don't count).
    pub deleted: u64,
    /// The database epoch after the update (unchanged on a no-op).
    pub epoch: u64,
}

/// Everything that can go wrong in [`Database::update`].
#[derive(Debug)]
pub enum UpdateError {
    /// The update request did not parse.
    Parse(sparql::SparqlError),
    /// The database was built without [`DatabaseBuilder::wal_dir`] /
    /// [`DatabaseBuilder::updatable`] and cannot be modified.
    ReadOnly,
    /// Evaluating a `DELETE WHERE` pattern failed.
    Eval(core::LbrError),
    /// Committing to the store failed (WAL write/sync, or a corrupt
    /// base segment).
    Store(StoreError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Parse(e) => write!(f, "{e}"),
            UpdateError::ReadOnly => f.write_str(
                "read-only database: build it with wal_dir(…) or updatable() to accept updates",
            ),
            UpdateError::Eval(e) => write!(f, "DELETE WHERE evaluation failed: {e}"),
            UpdateError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<sparql::SparqlError> for UpdateError {
    fn from(e: sparql::SparqlError) -> Self {
        UpdateError::Parse(e)
    }
}

impl From<StoreError> for UpdateError {
    fn from(e: StoreError) -> Self {
        UpdateError::Store(e)
    }
}

/// Updates (SPARQL 1.1 Update) — only on databases built with
/// [`DatabaseBuilder::wal_dir`] or [`DatabaseBuilder::updatable`].
impl Database {
    /// The store, when this database may commit to it (`None` on a
    /// read-only database).
    pub fn mutable_store(&self) -> Option<&Store> {
        (!self.read_only).then_some(&self.store)
    }

    fn mutable(&self) -> Result<&Store, UpdateError> {
        self.mutable_store().ok_or(UpdateError::ReadOnly)
    }

    /// The storage epoch: bumped by every effective update, `0` forever
    /// on a read-only database. [`PlanCache`] keys plans to this.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Parses and executes a SPARQL 1.1 Update request (`INSERT DATA`,
    /// `DELETE DATA`, `DELETE WHERE`, `;`-sequences thereof). The whole
    /// request commits **atomically**: its operations are staged against
    /// the snapshot current at the start — later operations see earlier
    /// ones' staged effects — and the net change lands as one commit,
    /// one WAL record, one epoch bump (when a WAL is configured, one
    /// fsync). An error anywhere in the sequence leaves the database
    /// untouched. Queries running concurrently keep their snapshot and
    /// are unaffected.
    pub fn update(&self, update_text: &str) -> Result<UpdateOutcome, UpdateError> {
        let update = parse_update(update_text)?;
        self.update_parsed(&update)
    }

    /// Executes an already-parsed update request (atomically; see
    /// [`Database::update`]).
    pub fn update_parsed(&self, update: &Update) -> Result<UpdateOutcome, UpdateError> {
        let store = self.mutable()?;
        let snap = store.snapshot();
        // Net presence overrides relative to `snap`; `inserted`/`deleted`
        // count the *effective* ops in request order, matching what a
        // sequence of separate commits would have reported.
        let mut staged: HashMap<Triple, bool> = HashMap::new();
        let (mut inserted, mut deleted) = (0u64, 0u64);
        let stage = |staged: &mut HashMap<Triple, bool>, t: &Triple, to: bool, n: &mut u64| {
            let present = match staged.get(t) {
                Some(&present) => present,
                None => snap.contains(t)?,
            };
            if present != to {
                *n += 1;
                staged.insert(t.clone(), to);
            }
            Ok::<(), UpdateError>(())
        };
        for op in &update.ops {
            match op {
                UpdateOp::InsertData(ts) => {
                    for t in ts {
                        stage(&mut staged, t, true, &mut inserted)?;
                    }
                }
                UpdateOp::DeleteData(ts) => {
                    for t in ts {
                        stage(&mut staged, t, false, &mut deleted)?;
                    }
                }
                UpdateOp::DeleteWhere(tps) => {
                    for t in self.resolve_delete_where(&snap, &staged, tps)? {
                        stage(&mut staged, &t, false, &mut deleted)?;
                    }
                }
            }
        }
        // Only net changes commit: a triple inserted then deleted in the
        // same request (or vice versa) cancels out entirely.
        let mut batch = UpdateBatch::default();
        for (t, present) in staged {
            match (present, snap.contains(&t)?) {
                (true, false) => batch.inserts.push(t),
                (false, true) => batch.deletes.push(t),
                _ => {}
            }
        }
        batch.inserts.sort_unstable();
        batch.deletes.sort_unstable();
        // An empty batch commits nothing: no WAL record, same epoch.
        let info = store.apply(batch)?;
        Ok(UpdateOutcome {
            inserted,
            deleted,
            epoch: info.epoch,
        })
    }

    /// Adds triples (the programmatic `INSERT DATA`).
    pub fn insert_triples(&self, triples: Vec<Triple>) -> Result<UpdateOutcome, UpdateError> {
        let info = self.mutable()?.apply(UpdateBatch::insert(triples))?;
        Ok(UpdateOutcome {
            inserted: info.inserted,
            deleted: info.deleted,
            epoch: info.epoch,
        })
    }

    /// Removes triples (the programmatic `DELETE DATA`).
    pub fn delete_triples(&self, triples: Vec<Triple>) -> Result<UpdateOutcome, UpdateError> {
        let info = self.mutable()?.apply(UpdateBatch::delete(triples))?;
        Ok(UpdateOutcome {
            inserted: info.inserted,
            deleted: info.deleted,
            epoch: info.epoch,
        })
    }

    /// Folds the delta memtable into freshly built segments, publishing
    /// the result as a new epoch (queries in flight keep their
    /// snapshot). Returns the epoch after compaction. The store also
    /// compacts automatically once the delta passes its threshold.
    pub fn compact(&self) -> Result<u64, UpdateError> {
        Ok(self.mutable()?.compact()?.epoch)
    }

    /// Materializes the current triples, sorted — on an updatable
    /// database the merged (segments + delta) view of the current
    /// snapshot. A test/inspection substrate, not a hot path.
    pub fn triples(&self) -> Vec<Triple> {
        self.store.snapshot().triples()
    }

    /// Evaluates a `DELETE WHERE` pattern to the concrete triples it
    /// matches, on the request's staging snapshot with the request's
    /// earlier staged effects composed on top (one pinned view, so
    /// result IDs and the decoding dictionary cannot drift apart).
    fn resolve_delete_where(
        &self,
        snap: &Snapshot,
        staged: &HashMap<Triple, bool>,
        tps: &[sparql::TriplePattern],
    ) -> Result<Vec<Triple>, UpdateError> {
        use sparql::{GraphPattern, Selection, TermPattern};

        if tps.is_empty() {
            return Ok(Vec::new());
        }
        // Ground pattern: the matches are the pattern itself (staging
        // drops the ones that aren't present).
        if let Some(ground) = tps
            .iter()
            .map(|tp| match (&tp.s, &tp.p, &tp.o) {
                (TermPattern::Const(s), TermPattern::Const(p), TermPattern::Const(o)) => {
                    Some(Triple::new(s.clone(), p.clone(), o.clone()))
                }
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
        {
            return Ok(ground);
        }

        let query = Query {
            form: QueryForm::Select {
                selection: Selection::All,
                dedup: Dedup::None,
            },
            pattern: GraphPattern::Bgp(tps.to_vec()),
            modifiers: Modifiers::default(),
        };
        let staged_vec: Vec<(Triple, bool)> = staged.iter().map(|(t, p)| (t.clone(), *p)).collect();
        // Fast path: compose the staged ops into a delta overlay sharing
        // the snapshot's segments + dictionary. Falls back to indexing a
        // scratch copy of the staged view when a staged insert carries a
        // term the snapshot's dictionary cannot encode.
        let scratch;
        let (catalog, dict) = match snap.overlay_with(&staged_vec)? {
            Some(catalog) => (catalog, snap.dict()),
            None => {
                let mut view: HashSet<Triple> = snap.triples().into_iter().collect();
                for (t, present) in staged {
                    if *present {
                        view.insert(t.clone());
                    } else {
                        view.remove(t);
                    }
                }
                let graph = Graph::from_triples(view.into_iter().collect()).encode();
                scratch = Store::open(graph, None, None)?.snapshot();
                (scratch.catalog().clone(), scratch.dict())
            }
        };
        let out = LbrEngine::new(&catalog, dict)
            .execute(&query)
            .map_err(UpdateError::Eval)?;
        let (vars, rows) = (&out.vars, out.decode(dict));
        let var_slot: Vec<Option<usize>> = {
            let slot_of = |v: &str| vars.iter().position(|name| name == v);
            tps.iter()
                .flat_map(|tp| [&tp.s, &tp.p, &tp.o])
                .map(|t| match t {
                    TermPattern::Var(v) => slot_of(v),
                    TermPattern::Const(_) => None,
                })
                .collect()
        };
        let mut matches = Vec::new();
        'rows: for row in &rows {
            for (i, tp) in tps.iter().enumerate() {
                let term = |j: usize, c: &TermPattern| -> Option<Term> {
                    match c {
                        TermPattern::Const(t) => Some(t.clone()),
                        TermPattern::Var(_) => row[var_slot[3 * i + j]?].clone(),
                    }
                };
                // An unbound position can't happen in a pure BGP; skip
                // the pattern defensively rather than delete wrongly.
                match (term(0, &tp.s), term(1, &tp.p), term(2, &tp.o)) {
                    (Some(s), Some(p), Some(o)) => matches.push(Triple::new(s, p, o)),
                    _ => continue 'rows,
                }
            }
        }
        matches.sort_unstable();
        matches.dedup();
        Ok(matches)
    }
}

/// A query whose planning pipeline already ran.
///
/// Created by [`Database::prepare`]; holds the parsed query and its LBR
/// plan (the UNF branches with their GoSN/GoJ analyses, variable tables,
/// selectivity estimates and jvar orders), stamped with the epoch it was
/// planned at.
/// Re-executing costs only the data phases — the million-execution
/// serving path. Every execution reads the snapshot current at *that*
/// call: after an update the query sees the new data (and re-plans,
/// since the plan's constant IDs belong to the old dictionary).
pub struct PreparedQuery<'db> {
    db: &'db Database,
    cached: CachedPlan,
}

// The serving layer (`lbr-server`, the shared plan cache, the concurrency
// tests) shares one `Database` — and prepared queries on it — across a
// worker pool. Keep that auditable at compile time: if an interior type
// ever loses `Send + Sync` (an `Rc`, a non-sync cache), this fails to
// build rather than failing at the `Arc<Database>` use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<DatabaseBuilder>();
    assert_send_sync::<PreparedQuery<'static>>();
    assert_send_sync::<ReadView>();
    assert_send_sync::<cache::PlanCache>();
    assert_send_sync::<core::StatsAggregate>();
    assert_send_sync::<obs::Tracing>();
    assert_send_sync::<obs::FinishedTrace>();
    // `Engine: Send + Sync` is a supertrait bound, so every engine the
    // `EngineKind` seam can build satisfies it; assert the trait-object
    // types the facade actually hands out.
    assert_send_sync::<dyn Engine>();
    assert_send_sync::<Box<dyn Engine>>();
};

impl PreparedQuery<'_> {
    /// Executes the prepared query to a materialized [`QueryOutput`].
    pub fn execute(&self) -> Result<QueryOutput, core::LbrError> {
        self.db.read().execute_plan(&self.cached)
    }

    /// Executes the prepared query, streaming the solutions (execution
    /// and decoding share one snapshot).
    pub fn solutions(&self) -> Result<Solutions<'_>, core::LbrError> {
        let snap = self.db.store.current_ref();
        Ok(execute_plan_on(snap, &self.cached, None)?.into_solutions(snap.dict()))
    }

    /// EXPLAIN ANALYZE for the prepared query: re-executes it under a
    /// forced trace and renders actual timings and cardinalities.
    pub fn explain_analyze(&self) -> Result<String, core::LbrError> {
        lbr(&self.db.read().snap).explain_analyze(self.query())
    }

    /// Renders the plan this query will run with.
    pub fn explain(&self) -> Result<String, core::LbrError> {
        lbr(&self.db.read().snap).explain(self.query())
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        self.cached.query()
    }
}
