//! Concurrency: one shared `Arc<Database>` serving many threads — the
//! exact sharing pattern `lbr-server`'s worker pool relies on, checked
//! here at the library level against a single-threaded oracle.
//!
//! `Engine: Send + Sync` and `Catalog: Sync` make this compile; these
//! tests make it *correct*: 8 threads fire a mix of prepared SELECT /
//! ASK / LIMIT queries (both through `PreparedQuery` re-execution and
//! through the shared `PlanCache`) and every response must be
//! row-identical to the single-threaded answer.

use lbr::datagen::lubm;
use lbr::{Database, PlanCache, QueryOutput};
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 4;

fn lubm_db() -> (Arc<Database>, Vec<String>) {
    let ds = lubm::dataset(&lubm::LubmConfig {
        universities: 1,
        departments: 2,
        seed: 7,
    });
    // A mix of forms: every Appendix E SELECT, plus ASK and LIMIT
    // variants of each (the serving workload shapes).
    let mut queries = Vec::new();
    for q in &ds.queries {
        queries.push(q.text.clone());
        queries.push(q.text.replacen("SELECT * WHERE", "ASK", 1));
        queries.push(format!("{} LIMIT 3", q.text));
    }
    let db = Arc::new(Database::from_encoded(ds.graph.encode()));
    (db, queries)
}

/// The single-threaded oracle: the same data in a database of its own,
/// queried from one thread.
fn oracle(queries: &[String]) -> Vec<QueryOutput> {
    let ds = lubm::dataset(&lubm::LubmConfig {
        universities: 1,
        departments: 2,
        seed: 7,
    });
    let db = Database::builder()
        .encoded(ds.graph.encode())
        .build()
        .unwrap();
    queries.iter().map(|q| db.execute(q).unwrap()).collect()
}

#[test]
fn eight_threads_on_one_database_match_the_single_threaded_oracle() {
    let (db, queries) = lubm_db();
    let expected = oracle(&queries);

    // Prepare every query once on the shared database; the prepared
    // queries themselves are then shared (`PreparedQuery: Sync`) and
    // re-executed concurrently.
    let prepared: Vec<_> = queries.iter().map(|q| db.prepare(q).unwrap()).collect();
    let cache = PlanCache::new(queries.len());

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let db = Arc::clone(&db);
            let (prepared, queries, expected, cache) = (&prepared, &queries, &expected, &cache);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..queries.len() {
                        // Interleave differently per thread so threads are
                        // rarely on the same query at the same time.
                        let i = (i + thread + round) % queries.len();
                        let out = if (thread + round) % 2 == 0 {
                            prepared[i].execute().unwrap()
                        } else {
                            db.execute_cached(cache, &queries[i]).unwrap()
                        };
                        assert_eq!(out.vars, expected[i].vars, "query {i}");
                        assert_eq!(out.rows, expected[i].rows, "query {i}");
                        assert_eq!(
                            out.boolean(),
                            expected[i].boolean(),
                            "query {i} (ASK boolean)"
                        );
                    }
                }
            });
        }
    });

    // Every cache lookup was counted, and the cache never re-planned a
    // query outside the initial (possibly racing) misses.
    let stats = cache.stats();
    assert_eq!(stats.evictions, 0, "capacity fits every query");
    assert!(
        stats.misses <= (THREADS * queries.len()) as u64,
        "misses bounded by racing first lookups: {stats:?}"
    );
    assert!(stats.hits > 0, "repeats must hit: {stats:?}");
}

#[test]
fn plan_cache_shared_across_threads_plans_each_query_once() {
    let (db, queries) = lubm_db();
    let cache = PlanCache::new(queries.len());
    // Warm serially: one miss per distinct query.
    for q in &queries {
        db.execute_cached(&cache, q).unwrap();
    }
    let warm = cache.stats();
    assert_eq!(warm.misses, queries.len() as u64);

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (db, queries, cache) = (&db, &queries, &cache);
            scope.spawn(move || {
                for q in queries {
                    db.execute_cached(cache, q).unwrap();
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(
        stats.misses, warm.misses,
        "a warmed cache never re-plans: {stats:?}"
    );
    assert_eq!(
        stats.hits,
        warm.hits + (THREADS * queries.len()) as u64,
        "{stats:?}"
    );
}
