//! A thread-safe LRU **plan cache**: the serving layer's front door to
//! the planning pipeline.
//!
//! Planning a query (parse → UNF rewrite → GoSN/GoJ analysis →
//! classification → selectivity estimates → jvar order) costs far more
//! than re-executing a prepared plan, and a serving workload repeats a
//! small set of query shapes millions of times. [`PlanCache`] memoizes
//! [`LbrEngine::plan`](lbr_core::LbrEngine::plan) results keyed by the
//! *canonicalized* query text (whitespace collapsed outside string
//! literals), so `curl`-style reformatting still hits.
//!
//! The cache stores [`CachedPlan`]s — parsed [`Query`] + its
//! [`LbrPlan`] — rather than borrowing engines, so one cache can outlive
//! any particular engine instance and be shared freely across an
//! `Arc<Database>` worker pool. A hit skips parsing and planning
//! entirely; execution builds a fresh (thin, borrow-only) `LbrEngine`
//! per call via [`Database::execute_plan`].
//!
//! Every entry is pinned to the **database epoch** it was planned at
//! ([`Database::epoch`]). Plans bake in snapshot-specific facts —
//! encoded constant IDs, selectivity estimates — that an update can
//! invalidate (a dictionary rebuild reassigns IDs), so serving a
//! stale-epoch plan could silently return wrong rows. A lookup that
//! finds an entry from an older epoch treats it as a miss, drops the
//! entry and counts an `epoch_eviction`. Read-only databases sit at
//! epoch 0 forever and never pay this check a second glance.
//!
//! Hit / miss / eviction counters are monotone atomics, surfaced by
//! [`PlanCache::stats`] in `lbr-server`'s `/stats` endpoint and in
//! `lbr-cli --repeat` output.
//!
//! [`ResultCache`] — serialized response bytes, one level up — is the
//! same epoch-pinned LRU with a byte weight per entry; both are thin
//! wrappers over one private implementation.

use crate::{Database, Query, ReadView};
use lbr_core::{LbrError, LbrPlan};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard from a poisoned mutex instead of
/// panicking: the serving path must stay panic-free. Only for state every
/// update leaves valid at every step — the caches' maps (entries are
/// immutable once inserted and epoch-checked on every read; the worst a
/// panic mid-edit leaves behind is a weight meter that drifts from the
/// map, kept safe by saturating arithmetic and rebuilt by eviction churn)
/// and plain counter structs (`lbr-server`'s stats aggregate).
pub fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One cached planning result: the parsed query, the epoch it was
/// planned at, and its [`LbrPlan`].
///
/// Execution runs the plan on a fresh `LbrEngine` over the reader's
/// snapshot when the epochs match, and re-plans otherwise
/// ([`Database::execute_plan`]), so a stale entry can never produce
/// wrong results — only wasted planning.
pub struct CachedPlan {
    query: Query,
    epoch: u64,
    plan: LbrPlan,
}

impl CachedPlan {
    /// Plans `query` on `view`'s data, stamped with the epoch of the very
    /// snapshot its constant IDs were encoded in.
    pub(crate) fn prepare(view: &ReadView, query: Query) -> Result<CachedPlan, LbrError> {
        let plan = crate::lbr(&view.snap).plan(&query)?;
        Ok(CachedPlan {
            query,
            epoch: view.epoch(),
            plan,
        })
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The database epoch the plan was produced at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The plan, valid only against a snapshot at [`CachedPlan::epoch`].
    pub(crate) fn plan(&self) -> &LbrPlan {
        &self.plan
    }
}

struct Slot<V> {
    value: V,
    epoch: u64,
    weight: usize,
    last_used: u64,
}

struct LruInner<K, V> {
    entries: HashMap<K, Slot<V>>,
    /// Sum of `weight` over `entries` (the weight budget's meter).
    weight: usize,
    /// Logical clock: bumped per touch, orders entries for LRU eviction.
    clock: u64,
}

/// The epoch-pinned LRU both caches are: every entry carries the database
/// epoch it was computed at and a weight; a lookup at another epoch drops
/// the entry instead of serving it; inserts evict least-recently-used
/// entries until both the entry and the weight budget hold.
///
/// Interior locking: one `Mutex` guards the map (callers compute values
/// *outside* it, so a slow plan never serializes unrelated hits), and the
/// counters are relaxed atomics. Eviction scans for the LRU entry, which
/// is O(capacity) — capacities are small (tens to thousands), misses are
/// rare by design, and the scan only runs on insert-over-budget.
struct EpochLru<K, V> {
    capacity: usize,
    max_weight: usize,
    inner: Mutex<LruInner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    epoch_evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> EpochLru<K, V> {
    fn new(capacity: usize, max_weight: usize) -> Self {
        EpochLru {
            capacity: capacity.max(1),
            max_weight,
            inner: Mutex::new(LruInner {
                entries: HashMap::new(),
                weight: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            epoch_evictions: AtomicU64::new(0),
        }
    }

    /// The value cached under `key` at exactly `epoch` (counted as a
    /// hit). An entry found at a different epoch is dropped and counted
    /// as an `epoch_eviction`. The caller counts the miss ([`Self::miss`])
    /// once it knows the lookup has to be paid for.
    fn get(&self, key: &K, epoch: u64) -> Option<V> {
        let mut inner = locked(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        let slot = inner.entries.get_mut(key)?;
        if slot.epoch == epoch {
            slot.last_used = clock;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(slot.value.clone());
        }
        let stale = inner.entries.remove(key).map_or(0, |s| s.weight);
        inner.weight = inner.weight.saturating_sub(stale);
        self.epoch_evictions.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Caches `value` under `key` at `epoch` and returns what the cache
    /// now holds there: an incumbent at least as fresh wins a race and is
    /// returned instead, so concurrent misses on one key never leave
    /// duplicates. Evicts LRU entries to respect both budgets; a value
    /// heavier than the whole weight budget is not cached.
    fn insert(&self, key: K, epoch: u64, value: V, weight: usize) -> V {
        if weight > self.max_weight {
            return value;
        }
        let mut inner = locked(&self.inner);
        inner.clock += 1;
        let fresh = Slot {
            value: value.clone(),
            epoch,
            weight,
            last_used: inner.clock,
        };
        let replaced = match inner.entries.entry(key) {
            MapEntry::Occupied(mut incumbent) if incumbent.get().epoch >= epoch => {
                incumbent.get_mut().last_used = fresh.last_used;
                return incumbent.get().value.clone();
            }
            MapEntry::Occupied(mut stale) => {
                self.epoch_evictions.fetch_add(1, Ordering::Relaxed);
                stale.insert(fresh).weight
            }
            MapEntry::Vacant(vacant) => {
                vacant.insert(fresh);
                0
            }
        };
        inner.weight = inner.weight.saturating_sub(replaced) + weight;
        while inner.entries.len() > self.capacity || inner.weight > self.max_weight {
            let Some(lru) = inner
                .entries
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            else {
                break; // over-budget implies non-empty, but stay panic-free
            };
            let freed = inner.entries.remove(&lru).map_or(0, |s| s.weight);
            inner.weight = inner.weight.saturating_sub(freed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Snapshots the counters plus occupancy (weight reads as bytes).
    fn stats(&self) -> ResultCacheStats {
        let (len, weight) = {
            let inner = locked(&self.inner);
            (inner.entries.len(), inner.weight)
        };
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epoch_evictions: self.epoch_evictions.load(Ordering::Relaxed),
            len,
            capacity: self.capacity,
            bytes: weight as u64,
            max_bytes: self.max_weight as u64,
        }
    }

    fn clear(&self) {
        let mut inner = locked(&self.inner);
        inner.entries.clear();
        inner.weight = 0;
    }
}

/// A monotone snapshot of the cache counters plus current occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the planning pipeline.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries dropped because an update moved the database past the
    /// epoch they were planned at (each also counts as a miss).
    pub epoch_evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries.
    pub capacity: usize,
}

/// A fixed-capacity, thread-safe, least-recently-used plan cache: an
/// epoch-pinned LRU of weightless entries keyed by canonicalized text.
pub struct PlanCache {
    lru: EpochLru<String, Arc<CachedPlan>>,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            lru: EpochLru::new(capacity, usize::MAX),
        }
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.lru.capacity
    }

    /// Returns the cached plan for `text`, planning (and caching) it over
    /// `db`'s current snapshot on a miss.
    ///
    /// Two threads missing on the same key concurrently both plan, but
    /// only the first insert sticks — the loser adopts the winner's entry
    /// so the cache never holds duplicates.
    pub fn get_or_prepare(&self, db: &Database, text: &str) -> Result<Arc<CachedPlan>, LbrError> {
        let key = canonicalize(text);
        // Pin one view for the whole call: the plan is built against this
        // view's snapshot and stamped with the *same* snapshot's epoch, so
        // an update landing mid-plan cannot stamp the entry fresher than
        // the dictionary its constant IDs were encoded in.
        let view = db.read();
        if let Some(cached) = self.lru.get(&key, view.epoch()) {
            return Ok(cached);
        }

        // Miss: run the planning pipeline outside the lock, on the view
        // pinned above. Parsing and planning each record their one span
        // (`parse` here, `plan` inside `LbrEngine::plan`), so
        // `/debug/traces` shows where a cold query's time went (a hit
        // skips both, which is the point of the cache).
        let query = crate::parse_traced(text)?;
        let cached = Arc::new(CachedPlan::prepare(&view, query)?);
        self.lru.miss();
        Ok(self.lru.insert(key, view.epoch(), cached, 0))
    }

    /// Snapshots the counters (hits/misses/evictions are monotone).
    pub fn stats(&self) -> CacheStats {
        let s = self.lru.stats();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            epoch_evictions: s.epoch_evictions,
            len: s.len,
            capacity: s.capacity,
        }
    }

    /// Drops every entry (counters keep their values).
    pub fn clear(&self) {
        self.lru.clear();
    }
}

/// A monotone snapshot of the [`ResultCache`] counters plus occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups answered from the cache (serialized bytes served without
    /// parse, plan or execution).
    pub hits: u64,
    /// Lookups that had to execute the query.
    pub misses: u64,
    /// Entries evicted to stay within the entry or byte budget.
    pub evictions: u64,
    /// Entries dropped because an update moved the store past the epoch
    /// they were computed at (each also counts as a miss).
    pub epoch_evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries.
    pub capacity: usize,
    /// Serialized bytes currently cached.
    pub bytes: u64,
    /// Maximum serialized bytes.
    pub max_bytes: u64,
}

/// A fixed-capacity LRU **result cache** layered over [`PlanCache`]:
/// `(canonicalized query text, response media type, store epoch)` →
/// serialized response bytes.
///
/// Where a plan-cache hit skips parsing and planning, a result-cache hit
/// skips *everything* — the bytes on the wire are the bytes cached. That
/// is only sound because every entry is pinned to the store epoch its
/// response was computed at: a lookup presents the epoch of the request's
/// pinned [`crate::ReadView`], and an entry from any other epoch is
/// dropped (an `epoch_eviction`) instead of served. Updates therefore
/// invalidate structurally — no flush call, no TTL; the first request
/// after a commit misses, recomputes at the new epoch, and repopulates.
///
/// Bounded twice: at most `capacity` entries and at most `max_bytes` of
/// cached body bytes (a response larger than the whole byte budget is
/// simply not cached). Eviction is LRU under both limits.
pub struct ResultCache {
    /// Keyed by `(canonicalized query text, media type)` — the same text
    /// normalization as the plan cache, so `curl`-reformatted repeats of
    /// one query share an entry per `Accept` type; weighed by body bytes.
    lru: EpochLru<(String, String), Arc<Vec<u8>>>,
}

impl ResultCache {
    /// Creates a cache of at most `capacity` entries (minimum 1) and
    /// `max_bytes` of cached response bytes.
    pub fn new(capacity: usize, max_bytes: usize) -> ResultCache {
        ResultCache {
            lru: EpochLru::new(capacity, max_bytes),
        }
    }

    /// The serialized response for `(key, media)` computed at exactly
    /// `epoch`, or `None` (counted as a miss). `key` must already be
    /// [`canonicalize`]d — the caller canonicalizes once and reuses the
    /// key for the [`ResultCache::insert`] after a miss. An entry found
    /// at a different epoch is dropped and counted as an
    /// `epoch_eviction`.
    pub fn get(&self, key: &str, media: &str, epoch: u64) -> Option<Arc<Vec<u8>>> {
        // The map key is owned, so lookups build a transient pair;
        // entries are few and hits dominate, so the two small clones are
        // noise next to the execution they avoid.
        let hit = self.lru.get(&(key.to_string(), media.to_string()), epoch);
        if hit.is_none() {
            self.lru.miss();
        }
        hit
    }

    /// Caches the serialized response for `(key, media)` computed at
    /// `epoch`, evicting LRU entries to respect both budgets. A body
    /// larger than the whole byte budget is not cached.
    pub fn insert(&self, key: String, media: &str, epoch: u64, body: Arc<Vec<u8>>) {
        let weight = body.len();
        self.lru
            .insert((key, media.to_string()), epoch, body, weight);
    }

    /// Snapshots the counters (hits/misses/evictions are monotone).
    pub fn stats(&self) -> ResultCacheStats {
        self.lru.stats()
    }

    /// Drops every entry (counters keep their values).
    pub fn clear(&self) {
        self.lru.clear();
    }
}

/// The cache key: query text with `#`-to-end-of-line comments stripped
/// and runs of whitespace collapsed to one space (and trimmed at both
/// ends), except inside `"…"` string literals where every byte is
/// significant. `SELECT * WHERE { ?s <p> ?o . }` and its pretty-printed
/// or commented forms share one cache entry; queries differing inside a
/// literal do not.
///
/// Comment handling must mirror the parser exactly: `# LIMIT 1` on its
/// own line is dead text while a bare `LIMIT 1` is a modifier, so
/// treating `#` literally would let two semantically different queries
/// collide on one cache key — and the cache would serve one of them the
/// other's plan. Conversely the parser lexes `<…>` verbatim up to the
/// closing `>`, so a `#` *inside* an IRI (`<http://ex.org/ns#p>`) is not
/// a comment — IRI spans are preserved byte-for-byte here too. Where the
/// grammar is ambiguous without full parsing (a `<` that is really a
/// FILTER less-than), this errs toward *distinct* keys: a conservative
/// key costs a duplicate plan, never a wrong one.
pub fn canonicalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut pending_space = false;
    let mut in_string = false;
    let mut in_iri = false;
    let mut in_comment = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        if in_iri {
            out.push(c);
            if c == '>' {
                in_iri = false;
            }
            continue;
        }
        if in_comment {
            if c == '\n' {
                in_comment = false;
                pending_space = !out.is_empty();
            }
            continue;
        }
        if c == '#' {
            // A comment runs to end of line and reads as whitespace,
            // exactly like the parser's lexer skips it.
            in_comment = true;
            continue;
        }
        if c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        out.push(c);
        if c == '"' {
            in_string = true;
        } else if c == '<' {
            in_iri = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::from_ntriples(
            r#"
            <a> <p> <b> .
            <a> <p> <c> .
            <b> <q> <x> .
        "#,
        )
        .unwrap()
    }

    #[test]
    fn canonicalization_collapses_whitespace_outside_strings() {
        assert_eq!(
            canonicalize("  SELECT *\n\tWHERE  { ?s <p> ?o . }\n"),
            "SELECT * WHERE { ?s <p> ?o . }"
        );
        // Whitespace inside a string literal is preserved verbatim…
        assert_eq!(
            canonicalize("SELECT * WHERE { ?s <p> \"a  b\\\"c  d\" . }"),
            "SELECT * WHERE { ?s <p> \"a  b\\\"c  d\" . }"
        );
        // …so two queries differing only inside a literal stay distinct.
        assert_ne!(
            canonicalize("ASK { ?s <p> \"a b\" . }"),
            canonicalize("ASK { ?s <p> \"a  b\" . }")
        );
    }

    #[test]
    fn canonicalization_strips_comments_like_the_parser() {
        // A commented-out modifier is dead text; a live one is not. The
        // two must NOT share a cache key (regression: a literal '#' let
        // them collide and the cache served one query the other's plan).
        let commented = "SELECT * WHERE { ?s <p> ?o . }\n# LIMIT 1";
        let live = "SELECT * WHERE { ?s <p> ?o . }\nLIMIT 1";
        assert_ne!(canonicalize(commented), canonicalize(live));
        assert_eq!(canonicalize(commented), "SELECT * WHERE { ?s <p> ?o . }");
        // A trailing comment hiding a modifier keeps the modifier dead.
        assert_eq!(
            canonicalize("SELECT * WHERE { ?s <p> ?o . } #\nLIMIT 1"),
            "SELECT * WHERE { ?s <p> ?o . } LIMIT 1"
        );
        // Comment-only differences share one key (parser-equivalent).
        assert_eq!(
            canonicalize("# header\nASK { ?s <p> ?o . } # trailing"),
            canonicalize("ASK { ?s <p> ?o . }")
        );
        // '#' inside an IRI is part of the IRI, never a comment…
        assert_eq!(
            canonicalize("ASK { ?s <http://ex.org/ns#p> ?o . }"),
            "ASK { ?s <http://ex.org/ns#p> ?o . }"
        );
        // …and distinct fragments stay distinct keys.
        assert_ne!(
            canonicalize("ASK { ?s <http://e/#a> ?o . }"),
            canonicalize("ASK { ?s <http://e/#b> ?o . }")
        );
        // '#' inside a string literal is literal text.
        assert_eq!(
            canonicalize("ASK { ?s <p> \"a#b\" . }"),
            "ASK { ?s <p> \"a#b\" . }"
        );
    }

    #[test]
    fn commented_and_live_modifiers_execute_differently_through_the_cache() {
        let db = db();
        let cache = PlanCache::new(4);
        let commented = db
            .execute_cached(&cache, "SELECT * WHERE { <a> <p> ?o . }\n# LIMIT 1")
            .unwrap();
        let live = db
            .execute_cached(&cache, "SELECT * WHERE { <a> <p> ?o . }\nLIMIT 1")
            .unwrap();
        assert_eq!(commented.rows.len(), 2, "comment is dead text");
        assert_eq!(live.rows.len(), 1, "live LIMIT applies");
        assert_eq!(cache.stats().misses, 2, "two distinct cache entries");
    }

    #[test]
    fn hit_after_prepare() {
        let db = db();
        let cache = PlanCache::new(4);
        let q = "SELECT * WHERE { ?s <p> ?o . }";
        let out1 = db.execute_cached(&cache, q).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
        // Reformatted text hits the same entry.
        let out2 = db
            .execute_cached(&cache, "SELECT *\n  WHERE {\n    ?s <p> ?o .\n  }")
            .unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(out1.rows, out2.rows);
        // And the cached result equals the uncached path.
        assert_eq!(out1.rows, db.execute(q).unwrap().rows);
    }

    #[test]
    fn capacity_one_evicts() {
        let db = db();
        let cache = PlanCache::new(1);
        let q1 = "SELECT * WHERE { ?s <p> ?o . }";
        let q2 = "SELECT * WHERE { ?s <q> ?o . }";
        db.execute_cached(&cache, q1).unwrap();
        assert_eq!(cache.stats().len, 1);
        db.execute_cached(&cache, q2).unwrap(); // evicts q1
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.len), (2, 1, 1));
        db.execute_cached(&cache, q1).unwrap(); // q1 must re-plan
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 3, 2));
        db.execute_cached(&cache, q1).unwrap(); // now a hit
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let db = db();
        let cache = PlanCache::new(2);
        let q1 = "SELECT * WHERE { ?s <p> ?o . }";
        let q2 = "SELECT * WHERE { ?s <q> ?o . }";
        let q3 = "ASK { ?s <p> ?o . }";
        db.execute_cached(&cache, q1).unwrap();
        db.execute_cached(&cache, q2).unwrap();
        db.execute_cached(&cache, q1).unwrap(); // touch q1: q2 is now LRU
        db.execute_cached(&cache, q3).unwrap(); // evicts q2
        db.execute_cached(&cache, q1).unwrap(); // still cached
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 3, 1));
    }

    #[test]
    fn stats_counters_monotone() {
        let db = db();
        let cache = PlanCache::new(2);
        let queries = [
            "SELECT * WHERE { ?s <p> ?o . }",
            "ASK { ?s <q> ?o . }",
            "SELECT ?s WHERE { ?s <p> ?o . } LIMIT 1",
        ];
        let mut prev = cache.stats();
        assert_eq!(prev, CacheStats::default().with_capacity(2));
        for i in 0..12 {
            db.execute_cached(&cache, queries[i % queries.len()])
                .unwrap();
            let now = cache.stats();
            assert!(now.hits >= prev.hits, "hits not monotone");
            assert!(now.misses >= prev.misses, "misses not monotone");
            assert!(now.evictions >= prev.evictions, "evictions not monotone");
            assert_eq!(now.hits + now.misses, i as u64 + 1, "every lookup counted");
            assert!(now.len <= now.capacity);
            prev = now;
        }
        assert!(
            prev.evictions > 0,
            "3 queries through capacity 2 must evict"
        );
    }

    #[test]
    fn update_epoch_invalidates_cached_plans() {
        let db = Database::builder()
            .ntriples("<a> <p> <b> .\n<a> <p> <c> .")
            .updatable()
            .build()
            .unwrap();
        let cache = PlanCache::new(4);
        let q = "SELECT * WHERE { <a> <p> ?o . }";
        assert_eq!(db.execute_cached(&cache, q).unwrap().rows.len(), 2);
        assert_eq!(db.execute_cached(&cache, q).unwrap().rows.len(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.epoch_evictions), (1, 1, 0));

        // An update bumps the epoch; the cached plan must not be served.
        db.update("INSERT DATA { <a> <p> <d> }").unwrap();
        assert_eq!(db.execute_cached(&cache, q).unwrap().rows.len(), 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.epoch_evictions), (1, 2, 1));

        // Re-planned at the new epoch: hits again until the next update.
        assert_eq!(db.execute_cached(&cache, q).unwrap().rows.len(), 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.epoch_evictions), (2, 2, 1));

        // A no-op update leaves the epoch — and the cache — alone.
        db.update("DELETE DATA { <zzz> <zzz> <zzz> }").unwrap();
        assert_eq!(db.execute_cached(&cache, q).unwrap().rows.len(), 3);
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn parse_error_is_not_cached() {
        let db = db();
        let cache = PlanCache::new(4);
        assert!(db.execute_cached(&cache, "SELECT WHERE {").is_err());
        let s = cache.stats();
        assert_eq!((s.len, s.hits), (0, 0));
    }

    impl CacheStats {
        fn with_capacity(mut self, capacity: usize) -> CacheStats {
            self.capacity = capacity;
            self
        }
    }
}
