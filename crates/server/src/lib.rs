//! # lbr-server
//!
//! A W3C **SPARQL 1.1 Protocol** HTTP endpoint over the LBR engine — the
//! serving layer of the workspace, built on the event-driven
//! [`lbr_net`] connection layer with zero external dependencies.
//!
//! * `GET /sparql?query=…` and `POST /sparql` (both
//!   `application/x-www-form-urlencoded` and raw
//!   `application/sparql-query` bodies) execute queries;
//! * `Accept` negotiation selects the W3C SPARQL JSON
//!   (`application/sparql-results+json`, the default), W3C TSV
//!   (`text/tab-separated-values`) or the CLI's human table
//!   (`text/plain`) — serialized through `lbr::format`'s writers,
//!   byte-identical to `lbr-cli --format` output for the same query;
//! * `POST /update` (form `update=…` or raw `application/sparql-update`
//!   bodies) executes SPARQL 1.1 Update requests when the database was
//!   built updatable ([`lbr::DatabaseBuilder::wal_dir`] /
//!   [`lbr::DatabaseBuilder::updatable`]; `lbr-server --wal-dir`),
//!   answering `{"inserted":…,"deleted":…,"epoch":…}` — against a
//!   read-only database it answers 403;
//! * every execution goes through one shared [`lbr::PlanCache`] (a
//!   repeated query skips parsing + UNF rewrite + GoSN/GoJ planning) AND
//!   one shared [`lbr::ResultCache`]: a repeated query at an unchanged
//!   store epoch skips *execution and serialization* entirely, answered
//!   from cached bytes. Updates bump the epoch, which invalidates both
//!   caches (counted as `epoch_evictions`);
//! * `GET /healthz` answers `ok`; `GET /stats` reports plan-cache and
//!   result-cache counters, admission counters (including
//!   `dropped_requests`), per-endpoint latency percentiles
//!   (p50/p95/p99/max), update counters, the storage epoch, and
//!   aggregated [`lbr_core::StatsAggregate`] query
//!   counts as JSON.
//!
//! Concurrency model (see [`lbr_net`] for the full picture): one epoll
//! readiness loop multiplexes every connection — HTTP/1.1 keep-alive
//! and pipelining included — and parsed requests pass through a
//! *bounded admission queue* to a worker pool. A full queue is answered
//! `503` + `Retry-After` inline; admitted requests carry a deadline
//! that propagates into the join kernels, so a query that outlives its
//! budget is cut short and answered `504`. All workers share one
//! `Arc<Database>`; each request runs a thin, read-only `LbrEngine`
//! over its pinned snapshot, and `Database: Send + Sync` is asserted at
//! compile time.
//!
//! ```no_run
//! use lbr::Database;
//! use lbr_server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(Database::from_ntriples("<a> <p> <b> .").unwrap());
//! let server = Server::bind("127.0.0.1:7878", db, ServerConfig::default()).unwrap();
//! eprintln!("listening on http://{}", server.local_addr().unwrap());
//! server.run().unwrap(); // blocks, serving until shut down
//! ```

#![forbid(unsafe_code)]

pub mod http;

use http::{parse_form, HttpError, Request, Response};
use lbr::cache::locked;
use lbr::core::{LbrError, StatsAggregate};
use lbr::{Database, OutputFormat, PlanCache, ResultCache, UpdateError};
use lbr_net::{Handler, LatencyHistogram, NetCounters, NetServer, Shutdown};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests (default: available
    /// parallelism, at least 2 so one slow query cannot starve
    /// `/healthz`).
    pub workers: usize,
    /// Plan-cache capacity in entries.
    pub cache_capacity: usize,
    /// Result-cache capacity in entries.
    pub result_cache_capacity: usize,
    /// Result-cache byte budget (serialized response bodies).
    pub result_cache_bytes: usize,
    /// Bounded admission queue: requests waiting for a worker beyond
    /// this are answered `503` + `Retry-After`.
    pub queue_capacity: usize,
    /// Per-request execution budget (admission → response). Exceeding
    /// it answers `504`; `None` disables deadlines.
    pub request_timeout: Option<Duration>,
    /// How long a connection may dribble an incomplete request before
    /// `408` + close (slow-loris defense).
    pub header_timeout: Duration,
    /// How long an idle keep-alive connection is retained.
    pub idle_timeout: Duration,
    /// Requests at least this slow always publish an execution trace to
    /// `/debug/traces` and the slow-query log. `Duration::ZERO` disables
    /// slow capture (traces then come only from sampling).
    pub slow_query: Duration,
    /// Finished-trace ring capacity (must be ≥ 1; [`Server::bind`]
    /// rejects 0 with a clear error instead of panicking later).
    pub trace_ring: usize,
    /// Probabilistic trace sampling: requests per 1024 that publish a
    /// trace even when fast. 0 (the default) keeps the steady-state hot
    /// path allocation-free and effectively zero-cost.
    pub trace_sample_per_1024: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().max(2)),
            cache_capacity: 256,
            result_cache_capacity: 256,
            result_cache_bytes: 64 * 1024 * 1024,
            queue_capacity: 256,
            request_timeout: Some(Duration::from_secs(30)),
            header_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            slow_query: Duration::from_millis(250),
            trace_ring: 256,
            trace_sample_per_1024: 0,
        }
    }
}

/// Shared per-server state; the [`lbr_net::Handler`] implementation.
struct Service {
    db: Arc<Database>,
    cache: PlanCache,
    results: ResultCache,
    agg: Mutex<StatsAggregate>,
    counters: Arc<NetCounters>,
    lat_sparql: LatencyHistogram,
    lat_update: LatencyHistogram,
    /// `/update` requests that committed (no-ops included).
    updates: AtomicU64,
    /// Triples actually inserted / deleted across all updates.
    update_inserted: AtomicU64,
    update_deleted: AtomicU64,
    /// Per-query execution tracing: slow-query capture + sampling,
    /// bounded ring of finished traces (`/debug/traces`).
    tracing: Arc<lbr_obs::Tracing>,
    /// Process start, for `uptime_secs` in `/healthz` and `/stats`.
    started: Instant,
}

/// A bound (but not yet serving) SPARQL endpoint.
pub struct Server {
    net: NetServer<Service>,
    service: Arc<Service>,
    workers: usize,
}

impl Server {
    /// Binds the endpoint. Use port `0` for an ephemeral port and read it
    /// back with [`Server::local_addr`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: Arc<Database>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let counters = Arc::new(NetCounters::new());
        // A 0-capacity ring is a configuration error, surfaced at bind
        // time with a clear message instead of a panic mid-serve.
        let tracing = Arc::new(
            lbr_obs::Tracing::new(
                config.trace_ring,
                config.slow_query,
                config.trace_sample_per_1024,
            )
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?
            .with_slow_log(true),
        );
        let service = Arc::new(Service {
            db,
            cache: PlanCache::new(config.cache_capacity),
            results: ResultCache::new(config.result_cache_capacity, config.result_cache_bytes),
            agg: Mutex::new(StatsAggregate::default()),
            counters: Arc::clone(&counters),
            lat_sparql: LatencyHistogram::new(),
            lat_update: LatencyHistogram::new(),
            updates: AtomicU64::new(0),
            update_inserted: AtomicU64::new(0),
            update_deleted: AtomicU64::new(0),
            tracing: Arc::clone(&tracing),
            started: Instant::now(),
        });
        let workers = config.workers.max(1);
        let net_config = lbr_net::ServerConfig {
            workers,
            queue_capacity: config.queue_capacity,
            request_deadline: config.request_timeout,
            header_timeout: config.header_timeout,
            idle_timeout: config.idle_timeout,
            retry_after_secs: 1,
            tracing: Some(tracing),
        };
        let net = NetServer::bind(addr, Arc::clone(&service), net_config)?.with_counters(counters);
        Ok(Server {
            net,
            service,
            workers,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.net.local_addr()
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Serves on the calling thread until [`ServerHandle`]-less shutdown
    /// (i.e. forever for the CLI binary).
    pub fn run(self) -> std::io::Result<()> {
        self.net.run()
    }

    /// Serves on background threads, returning a handle that stops the
    /// server when dropped — what tests and the bench harness use.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let service = Arc::clone(&self.service);
        let shutdown = self.net.shutdown_handle();
        let thread = std::thread::spawn(move || {
            let _ = self.net.run();
        });
        Ok(ServerHandle {
            addr,
            service,
            shutdown,
            thread: Some(thread),
        })
    }
}

/// A running server (from [`Server::spawn`]); stops on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Shutdown,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Plan-cache counters (what `/stats` reports).
    pub fn cache_stats(&self) -> lbr::CacheStats {
        self.service.cache.stats()
    }

    /// Result-cache counters (what `/stats` reports).
    pub fn result_cache_stats(&self) -> lbr::ResultCacheStats {
        self.service.results.stats()
    }

    /// Aggregated query statistics (what `/stats` reports).
    pub fn query_stats(&self) -> StatsAggregate {
        locked(&self.service.agg).clone()
    }

    /// Connection/admission counters maintained by the event loop.
    pub fn net_counters(&self) -> Arc<NetCounters> {
        Arc::clone(&self.service.counters)
    }

    /// The per-server trace store (slow-query capture + sampling).
    pub fn tracing(&self) -> Arc<lbr_obs::Tracing> {
        Arc::clone(&self.service.tracing)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.signal();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Handler for Service {
    fn handle(&self, request: Request, deadline: Option<Instant>) -> Response {
        let start = Instant::now();
        let response = self
            .respond(&request, deadline)
            .unwrap_or_else(|err| Response::from_error(&err));
        match request.path.as_str() {
            "/sparql" => self.lat_sparql.record(start.elapsed()),
            "/update" => self.lat_update.record(start.elapsed()),
            _ => {}
        }
        response
    }
}

impl Service {
    /// Routes one request to a complete, framed response.
    fn respond(&self, request: &Request, deadline: Option<Instant>) -> Result<Response, HttpError> {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Ok(Response::new(
                200,
                "application/json",
                self.healthz_json().into_bytes(),
            )),
            (_, "/healthz") => Err(HttpError::method_not_allowed("GET")),
            ("GET", "/stats") => Ok(Response::new(
                200,
                "application/json",
                self.stats_json().into_bytes(),
            )),
            (_, "/stats") => Err(HttpError::method_not_allowed("GET")),
            ("GET", "/metrics") => Ok(Response::new(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.exposition().render_prometheus().into_bytes(),
            )),
            (_, "/metrics") => Err(HttpError::method_not_allowed("GET")),
            ("GET", "/debug/traces") => Ok(Response::new(
                200,
                "application/json",
                lbr_obs::render_traces_json(&self.tracing.snapshot()).into_bytes(),
            )),
            (_, "/debug/traces") => Err(HttpError::method_not_allowed("GET")),
            ("GET", "/sparql") => {
                let (query, analyze) = query_from_get(request)?;
                if analyze {
                    return self.explain_analyze(&query);
                }
                self.execute(&query, request, deadline)
            }
            ("POST", "/sparql") => {
                let (query, analyze) = query_from_post(request)?;
                if analyze {
                    return self.explain_analyze(&query);
                }
                self.execute(&query, request, deadline)
            }
            (_, "/sparql") => Err(HttpError::method_not_allowed("GET, POST")),
            ("POST", "/update") => {
                let update = update_from_post(request)?;
                self.update(&update)
            }
            (_, "/update") => Err(HttpError::method_not_allowed("POST")),
            _ => Err(HttpError::new(
                404,
                format!(
                    "no such resource {}; the endpoints are /sparql and /update \
                     (plus /healthz, /stats, /metrics, /debug/traces)",
                    request.path
                ),
            )),
        }
    }

    /// `EXPLAIN ANALYZE` over HTTP (`explain=analyze`): executes the
    /// query and answers the annotated plan as plain text. Bypasses both
    /// caches on purpose — the whole point is a fresh, traced execution.
    fn explain_analyze(&self, query_text: &str) -> Result<Response, HttpError> {
        let rendered = self
            .db
            .explain_analyze(query_text)
            .map_err(|e| self.query_error(e))?;
        Ok(Response::text(200, rendered))
    }

    /// Executes a SPARQL query through the shared caches.
    ///
    /// Cache discipline: the query text is canonicalized **once**; the
    /// result cache is probed with `(canonical text, media type)` at the
    /// pinned view's epoch — a hit skips parsing, planning, execution
    /// and serialization. On a miss, the plan cache skips the front half
    /// and the serialized bytes are published for the next client.
    fn execute(
        &self,
        query_text: &str,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<Response, HttpError> {
        let format = negotiate(request.header("accept"))?;
        let media = format.media_type();
        // One pinned view serves the whole request: the cache probe, plan
        // validation, execution and result decoding all see the same
        // snapshot even if an update commits mid-request.
        let view = self.db.read();
        let key = lbr::canonicalize(query_text);
        if let Some(body) = self.results.get(&key, media, view.epoch()) {
            return Ok(Response::new(200, media, body.as_ref().clone()));
        }
        let cached = self
            .cache
            .get_or_prepare(&self.db, query_text)
            .map_err(|e| self.query_error(e))?;
        let output = view
            .execute_plan_deadline(&cached, deadline)
            .map_err(|e| self.query_error(e))?;
        locked(&self.agg).record(&output.stats);
        let t_serialize = Instant::now();
        let rendered = format.render(cached.query(), &output, view.dict());
        lbr_obs::span_since(
            "serialize",
            t_serialize,
            &[("bytes", rendered.len() as u64)],
        );
        let body = Arc::new(rendered.into_bytes());
        self.results
            .insert(key, media, view.epoch(), Arc::clone(&body));
        Ok(Response::new(200, media, body.as_ref().clone()))
    }

    /// Executes a SPARQL 1.1 Update request and answers a small JSON
    /// summary. The whole request commits atomically (durably, when the
    /// store has a WAL) before the response is written; post-commit
    /// requests observe the new epoch, so stale cached results can never
    /// be served after the update's response.
    fn update(&self, update_text: &str) -> Result<Response, HttpError> {
        let outcome = self.db.update(update_text).map_err(update_error)?;
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.update_inserted
            .fetch_add(outcome.inserted, Ordering::Relaxed);
        self.update_deleted
            .fetch_add(outcome.deleted, Ordering::Relaxed);
        let body = format!(
            "{{\"inserted\":{},\"deleted\":{},\"epoch\":{}}}\n",
            outcome.inserted, outcome.deleted, outcome.epoch
        );
        Ok(Response::new(200, "application/json", body.into_bytes()))
    }

    fn query_error(&self, e: LbrError) -> HttpError {
        locked(&self.agg).record_error();
        match e {
            // The client's query is at fault.
            LbrError::Sparql(_) | LbrError::Unsupported(_) => HttpError::new(400, e.to_string()),
            // The query outlived its budget.
            LbrError::DeadlineExceeded => HttpError::new(504, e.to_string()),
            // The server (or its configuration) is at fault.
            LbrError::BitMat(_) | LbrError::ResourceLimit(_) => HttpError::new(500, e.to_string()),
        }
    }

    /// `/healthz`: liveness plus build identity and uptime, as JSON.
    fn healthz_json(&self) -> String {
        let info = lbr_obs::build_info();
        format!(
            "{{\"status\":\"ok\",\"version\":\"{}\",\"git_hash\":\"{}\",\
             \"profile\":\"{}\",\"uptime_secs\":{}}}\n",
            info.version,
            info.git_hash,
            info.profile,
            self.started.elapsed().as_secs()
        )
    }

    /// The unified metric registry: **one** enumeration of every counter,
    /// gauge and histogram, rendered as the `/stats` JSON document (field
    /// insertion order is the document shape) and as the `/metrics`
    /// Prometheus text exposition (family grouping and escaping handled
    /// by [`lbr_obs::Exposition`]). Durations are integer microseconds on
    /// both surfaces (`_us`).
    fn exposition(&self) -> lbr_obs::Exposition {
        let cache = self.cache.stats();
        let results = self.results.stats();
        let agg = locked(&self.agg).clone();
        let net = &self.counters;
        let mut x = lbr_obs::Exposition::new();
        let plan = || vec![("cache", "plan".to_string())];
        let result = || vec![("cache", "result".to_string())];

        x.counter_l(
            "lbr_cache_hits_total",
            plan(),
            "cache.hits",
            "Cache lookups answered from the cache.",
            cache.hits,
        );
        x.counter_l(
            "lbr_cache_misses_total",
            plan(),
            "cache.misses",
            "Cache lookups that had to do the work.",
            cache.misses,
        );
        x.counter_l(
            "lbr_cache_evictions_total",
            plan(),
            "cache.evictions",
            "Entries evicted to stay within capacity.",
            cache.evictions,
        );
        x.counter_l(
            "lbr_cache_epoch_evictions_total",
            plan(),
            "cache.epoch_evictions",
            "Entries dropped because an update moved the epoch.",
            cache.epoch_evictions,
        );
        x.gauge_l(
            "lbr_cache_entries",
            plan(),
            "cache.len",
            "Entries currently cached.",
            cache.len as u64,
        );
        x.gauge_l(
            "lbr_cache_capacity",
            plan(),
            "cache.capacity",
            "Maximum cache entries.",
            cache.capacity as u64,
        );

        x.counter_l(
            "lbr_cache_hits_total",
            result(),
            "result_cache.hits",
            "",
            results.hits,
        );
        x.counter_l(
            "lbr_cache_misses_total",
            result(),
            "result_cache.misses",
            "",
            results.misses,
        );
        x.counter_l(
            "lbr_cache_evictions_total",
            result(),
            "result_cache.evictions",
            "",
            results.evictions,
        );
        x.counter_l(
            "lbr_cache_epoch_evictions_total",
            result(),
            "result_cache.epoch_evictions",
            "",
            results.epoch_evictions,
        );
        x.gauge_l(
            "lbr_cache_entries",
            result(),
            "result_cache.len",
            "",
            results.len as u64,
        );
        x.gauge_l(
            "lbr_cache_capacity",
            result(),
            "result_cache.capacity",
            "",
            results.capacity as u64,
        );
        x.gauge(
            "lbr_result_cache_bytes",
            "result_cache.bytes",
            "Serialized bytes currently cached.",
            results.bytes,
        );
        x.gauge(
            "lbr_result_cache_max_bytes",
            "result_cache.max_bytes",
            "Result-cache byte budget.",
            results.max_bytes,
        );

        x.counter(
            "lbr_net_connections_total",
            "net.connections",
            "TCP connections accepted.",
            NetCounters::get(&net.connections_accepted),
        );
        x.counter(
            "lbr_net_requests_admitted_total",
            "net.admitted",
            "Requests admitted to the worker queue.",
            NetCounters::get(&net.requests_admitted),
        );
        x.counter(
            "lbr_net_requests_dropped_total",
            "net.dropped_requests",
            "Requests shed with 503 (queue full).",
            NetCounters::get(&net.requests_dropped),
        );
        x.counter(
            "lbr_net_requests_timed_out_total",
            "net.timed_out",
            "Connections timed out reading a request.",
            NetCounters::get(&net.requests_timed_out),
        );
        x.counter(
            "lbr_net_requests_malformed_total",
            "net.malformed",
            "Malformed requests answered 400.",
            NetCounters::get(&net.requests_malformed),
        );
        x.counter(
            "lbr_net_deadline_504s_total",
            "net.queue_504s",
            "Requests answered 504 (deadline exceeded).",
            NetCounters::get(&net.deadlines_exceeded),
        );
        x.gauge(
            "lbr_net_queue_depth",
            "net.queue_depth",
            "Requests waiting in the admission queue right now.",
            NetCounters::get(&net.queue_depth),
        );

        for (endpoint, hist) in [("sparql", &self.lat_sparql), ("update", &self.lat_update)] {
            let s = hist.summary();
            let (buckets, count, sum) = hist.cumulative_buckets();
            x.histogram(
                "lbr_request_duration_us",
                vec![("endpoint", endpoint.to_string())],
                "End-to-end request latency, microseconds.",
                lbr_obs::HistogramData {
                    buckets,
                    count,
                    sum,
                },
            );
            // JSON keeps the percentile summary shape (micros).
            let (c, p50, p95, p99, max) = match endpoint {
                "sparql" => (
                    "latency.sparql.count",
                    "latency.sparql.p50_us",
                    "latency.sparql.p95_us",
                    "latency.sparql.p99_us",
                    "latency.sparql.max_us",
                ),
                _ => (
                    "latency.update.count",
                    "latency.update.p50_us",
                    "latency.update.p95_us",
                    "latency.update.p99_us",
                    "latency.update.max_us",
                ),
            };
            x.json_u64(c, s.count);
            x.json_u64(p50, s.p50_micros);
            x.json_u64(p95, s.p95_micros);
            x.json_u64(p99, s.p99_micros);
            x.json_u64(max, s.max_micros);
        }

        x.counter(
            "lbr_queries_ok_total",
            "queries.ok",
            "Queries executed successfully.",
            agg.queries,
        );
        x.counter(
            "lbr_queries_errors_total",
            "queries.errors",
            "Queries that failed.",
            agg.errors,
        );
        x.counter(
            "lbr_query_rows_total",
            "queries.rows",
            "Result rows produced.",
            agg.rows,
        );
        x.counter(
            "lbr_query_rows_with_nulls_total",
            "queries.rows_with_nulls",
            "Result rows containing NULL bindings.",
            agg.rows_with_nulls,
        );
        x.counter(
            "lbr_queries_nb_required_total",
            "queries.nb_required",
            "Queries that needed nullification/best-match.",
            agg.nb_required_queries,
        );
        x.counter(
            "lbr_join_seeds_total",
            "queries.join_seeds",
            "Multi-way join seed rows.",
            agg.join_seeds,
        );
        x.counter(
            "lbr_prune_intersections_total",
            "queries.prune_intersections",
            "Compressed-set intersections during pruning.",
            agg.prune_intersections,
        );

        x.counter(
            "lbr_updates_requests_total",
            "updates.requests",
            "Update requests committed (no-ops included).",
            self.updates.load(Ordering::Relaxed),
        );
        x.counter(
            "lbr_updates_inserted_total",
            "updates.inserted",
            "Triples inserted across all updates.",
            self.update_inserted.load(Ordering::Relaxed),
        );
        x.counter(
            "lbr_updates_deleted_total",
            "updates.deleted",
            "Triples deleted across all updates.",
            self.update_deleted.load(Ordering::Relaxed),
        );

        x.gauge(
            "lbr_store_triples",
            "database.triples",
            "Triples in the current snapshot.",
            self.db.len() as u64,
        );
        x.gauge(
            "lbr_store_epoch",
            "database.epoch",
            "Storage epoch (0 = as loaded, +1 per commit).",
            self.db.epoch(),
        );
        x.bool_field(
            "lbr_database_updatable",
            "database.updatable",
            "Whether the database accepts updates.",
            self.db.mutable_store().is_some(),
        );

        if let Some(store) = self.db.mutable_store() {
            let obs = store.obs();
            x.counter(
                "lbr_store_wal_appends_total",
                "store.wal_appends",
                "WAL records appended.",
                obs.wal_appends,
            );
            x.counter(
                "lbr_store_compactions_total",
                "store.compactions",
                "Delta folds into fresh segments.",
                obs.compactions,
            );
            x.counter(
                "lbr_store_checkpoints_total",
                "store.checkpoints",
                "Checkpoint images written.",
                obs.checkpoints,
            );
        }

        x.counter(
            "lbr_traces_finished_total",
            "traces.finished",
            "Request traces finished (published or not).",
            self.tracing.finished(),
        );
        x.counter(
            "lbr_traces_published_total",
            "traces.published",
            "Request traces published to the ring.",
            self.tracing.published(),
        );
        x.gauge(
            "lbr_traces_retained",
            "traces.len",
            "Finished traces currently retained.",
            self.tracing.len() as u64,
        );
        x.gauge(
            "lbr_traces_capacity",
            "traces.capacity",
            "Finished-trace ring capacity.",
            self.tracing.capacity() as u64,
        );

        let info = lbr_obs::build_info();
        x.info(
            "lbr_build_info",
            "Build identity (constant 1; labels carry the identity).",
            vec![
                ("version", info.version.to_string()),
                ("git_hash", info.git_hash.to_string()),
                ("profile", info.profile.to_string()),
            ],
        );
        x.json_text("build_info.version", info.version.to_string());
        x.json_text("build_info.git_hash", info.git_hash.to_string());
        x.json_text("build_info.profile", info.profile.to_string());
        x.gauge(
            "lbr_uptime_seconds",
            "uptime_secs",
            "Seconds since the server started.",
            self.started.elapsed().as_secs(),
        );
        x
    }

    /// `/stats` as hand-rolled JSON, rendered from the same registry as
    /// `/metrics` (no serde in the build environment).
    fn stats_json(&self) -> String {
        let mut out = self.exposition().render_json();
        out.push('\n');
        out
    }
}

/// Reads the optional `explain` parameter from decoded form pairs: only
/// `explain=analyze` is defined (the EXPLAIN ANALYZE surface); any other
/// value is a 400 rather than being silently ignored.
fn explain_param(pairs: &[(String, String)]) -> Result<bool, HttpError> {
    match pairs
        .iter()
        .find(|(k, _)| k == "explain")
        .map(|(_, v)| v.as_str())
    {
        None => Ok(false),
        Some("analyze") => Ok(true),
        Some(other) => Err(HttpError::new(
            400,
            format!("unknown explain mode '{other}' (only 'analyze' is supported)"),
        )),
    }
}

/// Extracts the query (plus the `explain=analyze` flag) from a GET
/// request's query string (`?query=…`, percent-decoded with `+` as
/// space).
fn query_from_get(request: &Request) -> Result<(String, bool), HttpError> {
    let qs = request
        .query_string
        .as_deref()
        .ok_or_else(|| HttpError::new(400, "missing query string (?query=…)"))?;
    let pairs = parse_form(qs)?;
    let analyze = explain_param(&pairs)?;
    pairs
        .into_iter()
        .find(|(k, _)| k == "query")
        .map(|(_, v)| (v, analyze))
        .ok_or_else(|| HttpError::new(400, "missing 'query' parameter"))
}

/// Extracts the query (plus the `explain=analyze` flag, accepted as a
/// form field or a query-string parameter) from a POST body per its
/// `Content-Type`: the two SPARQL Protocol flavors are urlencoded forms
/// and raw `application/sparql-query`; anything else is 415.
fn query_from_post(request: &Request) -> Result<(String, bool), HttpError> {
    let qs_analyze = match request.query_string.as_deref() {
        Some(qs) => explain_param(&parse_form(qs)?)?,
        None => false,
    };
    match request.content_type().as_deref() {
        Some("application/x-www-form-urlencoded") => {
            let body = std::str::from_utf8(&request.body)
                .map_err(|_| HttpError::new(400, "form body is not UTF-8"))?;
            let pairs = parse_form(body)?;
            let analyze = qs_analyze || explain_param(&pairs)?;
            pairs
                .into_iter()
                .find(|(k, _)| k == "query")
                .map(|(_, v)| (v, analyze))
                .ok_or_else(|| HttpError::new(400, "missing 'query' form field"))
        }
        Some("application/sparql-query") => String::from_utf8(request.body.clone())
            .map(|q| (q, qs_analyze))
            .map_err(|_| HttpError::new(400, "query body is not UTF-8")),
        Some(other) => Err(HttpError::new(
            415,
            format!(
                "unsupported media type '{other}'; use application/x-www-form-urlencoded \
                 or application/sparql-query"
            ),
        )),
        None => Err(HttpError::new(
            415,
            "missing Content-Type; use application/x-www-form-urlencoded \
             or application/sparql-query",
        )),
    }
}

/// Extracts the update request from a POST body per its `Content-Type`:
/// the two SPARQL Protocol flavors are urlencoded forms (`update=…`) and
/// raw `application/sparql-update`; anything else is 415.
fn update_from_post(request: &Request) -> Result<String, HttpError> {
    match request.content_type().as_deref() {
        Some("application/x-www-form-urlencoded") => {
            let body = std::str::from_utf8(&request.body)
                .map_err(|_| HttpError::new(400, "form body is not UTF-8"))?;
            parse_form(body)?
                .into_iter()
                .find(|(k, _)| k == "update")
                .map(|(_, v)| v)
                .ok_or_else(|| HttpError::new(400, "missing 'update' form field"))
        }
        Some("application/sparql-update") => String::from_utf8(request.body.clone())
            .map_err(|_| HttpError::new(400, "update body is not UTF-8")),
        Some(other) => Err(HttpError::new(
            415,
            format!(
                "unsupported media type '{other}'; use application/x-www-form-urlencoded \
                 or application/sparql-update"
            ),
        )),
        None => Err(HttpError::new(
            415,
            "missing Content-Type; use application/x-www-form-urlencoded \
             or application/sparql-update",
        )),
    }
}

/// Maps an update failure to a protocol status: the client's request is
/// at fault for parse errors (400); updating a read-only database is
/// forbidden (403); evaluation errors split like query errors; a WAL
/// write failure is the server's problem (500).
fn update_error(e: UpdateError) -> HttpError {
    match e {
        UpdateError::Parse(_) => HttpError::new(400, e.to_string()),
        UpdateError::ReadOnly => HttpError::new(403, e.to_string()),
        UpdateError::Eval(LbrError::Sparql(_)) | UpdateError::Eval(LbrError::Unsupported(_)) => {
            HttpError::new(400, e.to_string())
        }
        UpdateError::Eval(_) | UpdateError::Store(_) => HttpError::new(500, e.to_string()),
    }
}

/// Content negotiation over `Accept`: first acceptable media range wins
/// (q-values are ignored — list order is the preference order).
/// No header, an empty header, or a wildcard selects the protocol
/// default, W3C SPARQL JSON. Unmatchable ranges are 406.
pub fn negotiate(accept: Option<&str>) -> Result<OutputFormat, HttpError> {
    let Some(accept) = accept else {
        return Ok(OutputFormat::Json);
    };
    let mut saw_any = false;
    for item in accept.split(',') {
        let media = item
            .split(';')
            .next()
            .unwrap_or("")
            .trim()
            .to_ascii_lowercase();
        if media.is_empty() {
            continue;
        }
        saw_any = true;
        match media.as_str() {
            "application/sparql-results+json" | "application/json" => {
                return Ok(OutputFormat::Json)
            }
            "text/tab-separated-values" => return Ok(OutputFormat::Tsv),
            "text/plain" => return Ok(OutputFormat::Table),
            "*/*" | "application/*" => return Ok(OutputFormat::Json),
            "text/*" => return Ok(OutputFormat::Tsv),
            _ => continue,
        }
    }
    if !saw_any {
        return Ok(OutputFormat::Json);
    }
    Err(HttpError::new(
        406,
        format!(
            "no acceptable representation for '{accept}'; offered: \
             application/sparql-results+json, text/tab-separated-values, text/plain"
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr::parse_query;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    const DATA: &str = r#"
        <Jerry> <hasFriend> <Julia> .
        <Jerry> <hasFriend> <Larry> .
        <Julia> <actedIn> <Seinfeld> .
        <Seinfeld> <location> <NewYorkCity> .
    "#;

    fn serve() -> ServerHandle {
        let db = Arc::new(Database::from_ntriples(DATA).unwrap());
        let config = ServerConfig {
            workers: 4,
            cache_capacity: 8,
            ..ServerConfig::default()
        };
        Server::bind("127.0.0.1:0", db, config)
            .unwrap()
            .spawn()
            .unwrap()
    }

    /// Reads one `Content-Length`-framed response off `stream` (plus a
    /// small carry so pipelined responses split correctly), returning
    /// (status, head, body).
    fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "connection closed before response head");
            carry.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(carry[..head_end - 4].to_vec()).unwrap();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .expect("numeric status");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("framed response")
            .parse()
            .unwrap();
        while carry.len() < head_end + len {
            let n = stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            carry.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(carry[head_end..head_end + len].to_vec()).unwrap();
        carry.drain(..head_end + len);
        (status, head, body)
    }

    /// Sends one raw HTTP request on a fresh connection; returns
    /// (status, headers, body).
    fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        read_framed(&mut stream, &mut Vec::new())
    }

    fn get(addr: SocketAddr, target: &str, accept: Option<&str>) -> (u16, String, String) {
        let accept_line = accept.map_or(String::new(), |a| format!("Accept: {a}\r\n"));
        roundtrip(
            addr,
            &format!("GET {target} HTTP/1.1\r\nHost: t\r\n{accept_line}\r\n"),
        )
    }

    fn post(addr: SocketAddr, content_type: Option<&str>, body: &str) -> (u16, String, String) {
        let ct = content_type.map_or(String::new(), |c| format!("Content-Type: {c}\r\n"));
        roundtrip(
            addr,
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\n{ct}Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    const QUERY: &str = "SELECT * WHERE { <Jerry> <hasFriend> ?friend . } ORDER BY ?friend";
    const QUERY_ENC: &str =
        "SELECT+*+WHERE+%7B+%3CJerry%3E+%3ChasFriend%3E+%3Ffriend+.+%7D+ORDER+BY+%3Ffriend";

    fn expected(format: OutputFormat) -> String {
        let db = Database::from_ntriples(DATA).unwrap();
        let q = parse_query(QUERY).unwrap();
        let out = db.execute_query(&q).unwrap();
        format.render(&q, &out, db.dict())
    }

    #[test]
    fn get_query_answers_w3c_json() {
        let server = serve();
        let (status, head, body) = get(server.addr(), &format!("/sparql?query={QUERY_ENC}"), None);
        assert_eq!(status, 200, "{body}");
        assert!(
            head.contains("Content-Type: application/sparql-results+json"),
            "{head}"
        );
        assert_eq!(body, expected(OutputFormat::Json));
    }

    #[test]
    fn keep_alive_reuses_one_connection_byte_identical_to_cli() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut carry = Vec::new();
        let oracle = expected(OutputFormat::Json);
        // Ten requests over ONE connection; every response framed,
        // keep-alive, and byte-identical to the CLI's serialization.
        for _ in 0..10 {
            write!(
                stream,
                "GET /sparql?query={QUERY_ENC} HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            .unwrap();
            let (status, head, body) = read_framed(&mut stream, &mut carry);
            assert_eq!(status, 200, "{body}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
            assert_eq!(body, oracle);
        }
        // One TCP connection total.
        assert_eq!(
            NetCounters::get(&server.net_counters().connections_accepted),
            1
        );
    }

    #[test]
    fn pipelined_queries_answered_in_order() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut carry = Vec::new();
        // Two different queries plus /healthz, all on the wire at once.
        let ask = "ASK+%7B+%3CJerry%3E+%3ChasFriend%3E+%3Ff+.+%7D";
        write!(
            stream,
            "GET /sparql?query={QUERY_ENC} HTTP/1.1\r\n\r\n\
             GET /sparql?query={ask} HTTP/1.1\r\n\r\n\
             GET /healthz HTTP/1.1\r\n\r\n"
        )
        .unwrap();
        let (s1, _, b1) = read_framed(&mut stream, &mut carry);
        let (s2, _, b2) = read_framed(&mut stream, &mut carry);
        let (s3, _, b3) = read_framed(&mut stream, &mut carry);
        assert_eq!((s1, s2, s3), (200, 200, 200));
        assert_eq!(b1, expected(OutputFormat::Json));
        assert_eq!(b2, "{\"head\":{},\"boolean\":true}\n");
        assert!(b3.contains("\"status\":\"ok\""), "{b3}");
    }

    #[test]
    fn post_both_flavors_match_get() {
        let server = serve();
        let (status, _, body) = post(
            server.addr(),
            Some("application/x-www-form-urlencoded"),
            &format!("query={QUERY_ENC}"),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected(OutputFormat::Json));

        let (status, _, body) = post(server.addr(), Some("application/sparql-query"), QUERY);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected(OutputFormat::Json));
    }

    #[test]
    fn accept_negotiation_selects_tsv_and_table() {
        let server = serve();
        let target = format!("/sparql?query={QUERY_ENC}");
        let (status, head, body) = get(server.addr(), &target, Some("text/tab-separated-values"));
        assert_eq!(status, 200);
        assert!(
            head.contains("Content-Type: text/tab-separated-values"),
            "{head}"
        );
        assert_eq!(body, expected(OutputFormat::Tsv));

        let (status, _, body) = get(server.addr(), &target, Some("text/plain"));
        assert_eq!(status, 200);
        assert_eq!(body, expected(OutputFormat::Table));

        // q-values and params are tolerated; first acceptable range wins.
        let (status, _, body) = get(
            server.addr(),
            &target,
            Some("application/xml, application/sparql-results+json;q=0.9"),
        );
        assert_eq!(status, 200);
        assert_eq!(body, expected(OutputFormat::Json));
    }

    #[test]
    fn ask_boolean_over_http() {
        let server = serve();
        let (status, _, body) = get(
            server.addr(),
            "/sparql?query=ASK+%7B+%3CJerry%3E+%3ChasFriend%3E+%3Ff+.+%7D",
            None,
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "{\"head\":{},\"boolean\":true}\n");
    }

    #[test]
    fn status_codes() {
        let server = serve();
        let addr = server.addr();
        // 400: malformed escape, missing parameter, bad SPARQL.
        assert_eq!(get(addr, "/sparql?query=%G1", None).0, 400);
        assert_eq!(get(addr, "/sparql?query=SELECT%20WHERE%20%7B", None).0, 400);
        assert_eq!(get(addr, "/sparql?other=1", None).0, 400);
        assert_eq!(get(addr, "/sparql", None).0, 400);
        // 404: unknown path.
        assert_eq!(get(addr, "/nope", None).0, 404);
        // 405: wrong method, with Allow.
        let (status, head, _) = roundtrip(addr, "PUT /sparql HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);
        assert!(head.contains("Allow: GET, POST"), "{head}");
        let (status, _, _) = roundtrip(
            addr,
            "POST /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 405);
        // 406: unmatchable Accept.
        assert_eq!(
            get(
                addr,
                &format!("/sparql?query={QUERY_ENC}"),
                Some("application/xml")
            )
            .0,
            406
        );
        // 411: POST without Content-Length (framing error: closes).
        let (status, head, _) = roundtrip(addr, "POST /sparql HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 411);
        assert!(head.contains("Connection: close"), "{head}");
        // 415: POST with the wrong media type.
        assert_eq!(post(addr, Some("text/turtle"), QUERY).0, 415);
        assert_eq!(post(addr, None, QUERY).0, 415);
    }

    #[test]
    fn malformed_bytes_answered_400_and_closed() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut carry = Vec::new();
        // A valid pipelined request followed by garbage: the query is
        // answered, the garbage draws 400 and the connection closes.
        write!(
            stream,
            "GET /healthz HTTP/1.1\r\n\r\n\x02\x03 not http\r\n\r\n"
        )
        .unwrap();
        let (s1, _, b1) = read_framed(&mut stream, &mut carry);
        assert_eq!(s1, 200);
        assert!(b1.contains("\"status\":\"ok\""), "{b1}");
        let (s2, head, _) = read_framed(&mut stream, &mut carry);
        assert_eq!(s2, 400);
        assert!(head.contains("Connection: close"), "{head}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(
            NetCounters::get(&server.net_counters().requests_malformed),
            1
        );
    }

    #[test]
    fn healthz_and_stats_with_cache_hits() {
        let server = serve();
        let addr = server.addr();
        let (status, _, body) = get(addr, "/healthz", None);
        assert_eq!(status, 200);
        // Liveness plus build identity and uptime (satellite surface).
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"version\":\""), "{body}");
        assert!(body.contains("\"git_hash\":\""), "{body}");
        assert!(body.contains("\"uptime_secs\":"), "{body}");

        // Two identical queries: the first executes (plan-cache miss),
        // the second is answered from the result cache without touching
        // the plan cache or the engine. An error increments the error
        // counter but never either cache.
        let target = format!("/sparql?query={QUERY_ENC}");
        assert_eq!(get(addr, &target, None).0, 200);
        assert_eq!(get(addr, &target, None).0, 200);
        assert_eq!(get(addr, "/sparql?query=NONSENSE", None).0, 400);

        let (status, head, body) = get(addr, "/stats", None);
        assert_eq!(status, 200);
        assert!(head.contains("Content-Type: application/json"), "{head}");
        // The bad query probed the result cache too (the probe precedes
        // parsing — that's what lets a hit skip the parser entirely).
        assert!(
            body.contains("\"result_cache\":{\"hits\":1,\"misses\":2"),
            "{body}"
        );
        assert!(body.contains("\"dropped_requests\":0"), "{body}");
        assert!(
            body.contains("\"latency\":{\"sparql\":{\"count\":3"),
            "{body}"
        );
        assert!(body.contains("\"ok\":1"), "{body}");
        assert!(body.contains("\"errors\":1"), "{body}");
        assert!(body.contains("\"rows\":2"), "{body}"); // 1 execution × 2 friends

        // Kernel observability: the prune phase ran compressed-set
        // intersections.
        assert!(body.contains("\"prune_intersections\":"), "{body}");
        // The result hit skipped the plan cache: 1 miss, 0 hits.
        let stats = server.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let results = server.result_cache_stats();
        assert_eq!((results.hits, results.misses), (1, 2));
        assert_eq!(server.query_stats().queries, 1);
    }

    #[test]
    fn concurrent_clients_all_get_oracle_answers() {
        let server = serve();
        let addr = server.addr();
        let json = expected(OutputFormat::Json);
        let tsv = expected(OutputFormat::Tsv);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (json, tsv) = (&json, &tsv);
                scope.spawn(move || {
                    for round in 0..6 {
                        if (i + round) % 2 == 0 {
                            let (status, _, body) =
                                get(addr, &format!("/sparql?query={QUERY_ENC}"), None);
                            assert_eq!((status, body.as_str()), (200, json.as_str()));
                        } else {
                            let (status, _, body) = get(
                                addr,
                                &format!("/sparql?query={QUERY_ENC}"),
                                Some("text/tab-separated-values"),
                            );
                            assert_eq!((status, body.as_str()), (200, tsv.as_str()));
                        }
                    }
                });
            }
        });
        // Every request probed the result cache exactly once; each miss
        // went on to probe the plan cache exactly once.
        let results = server.result_cache_stats();
        assert_eq!(results.hits + results.misses, 48);
        assert!(results.hits >= 40, "{results:?}"); // one canonical query × 2 formats
        let stats = server.cache_stats();
        assert_eq!(stats.hits + stats.misses, results.misses);
        assert_eq!(server.query_stats().queries, results.misses);
    }

    fn serve_updatable() -> ServerHandle {
        let db = Arc::new(
            Database::builder()
                .ntriples(DATA)
                .updatable()
                .build()
                .unwrap(),
        );
        let config = ServerConfig {
            workers: 4,
            cache_capacity: 8,
            ..ServerConfig::default()
        };
        Server::bind("127.0.0.1:0", db, config)
            .unwrap()
            .spawn()
            .unwrap()
    }

    fn post_update(addr: SocketAddr, body: &str) -> (u16, String, String) {
        let ct = "Content-Type: application/sparql-update\r\n";
        roundtrip(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\n{ct}Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn update_endpoint_inserts_and_deletes() {
        let server = serve_updatable();
        let addr = server.addr();
        let ask = "/sparql?query=ASK+%7B+%3CKramer%3E+%3ChasFriend%3E+%3Ff+.+%7D";

        // Warm both caches on the pre-update snapshot.
        assert!(get(addr, ask, None).2.contains("false"));
        assert!(get(addr, ask, None).2.contains("false"));

        // INSERT DATA: committed and immediately queryable.
        let (status, head, body) =
            post_update(addr, "INSERT DATA { <Kramer> <hasFriend> <Jerry> }");
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Content-Type: application/json"), "{head}");
        assert_eq!(body, "{\"inserted\":1,\"deleted\":0,\"epoch\":1}\n");
        assert!(get(addr, ask, None).2.contains("true"), "insert visible");

        // DELETE WHERE: the pattern's instantiations are removed.
        let (status, _, body) = post_update(addr, "DELETE WHERE { <Kramer> <hasFriend> ?who }");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "{\"inserted\":0,\"deleted\":1,\"epoch\":2}\n");
        assert!(get(addr, ask, None).2.contains("false"), "delete visible");

        // The form flavor works too, and a no-op delete leaves the epoch.
        let form = "update=DELETE+DATA+%7B+%3CKramer%3E+%3ChasFriend%3E+%3CJerry%3E+%7D";
        let (status, _, body) = roundtrip(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: \
                 application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{form}",
                form.len()
            ),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "{\"inserted\":0,\"deleted\":0,\"epoch\":2}\n");

        // /stats: update counters, the bumped epoch, and the epoch
        // evictions the post-update queries caused in BOTH caches.
        let (_, _, stats) = get(addr, "/stats", None);
        assert!(
            stats.contains("\"updates\":{\"requests\":3,\"inserted\":1,\"deleted\":1}"),
            "{stats}"
        );
        assert!(stats.contains("\"epoch\":2"), "{stats}");
        assert!(stats.contains("\"updatable\":true"), "{stats}");
        assert!(
            server.cache_stats().epoch_evictions >= 1,
            "stale plans dropped"
        );
        assert!(
            server.result_cache_stats().epoch_evictions >= 1,
            "stale results dropped"
        );
    }

    #[test]
    fn result_cache_invalidated_by_first_post_update_request() {
        let server = serve_updatable();
        let addr = server.addr();
        let target = format!("/sparql?query={QUERY_ENC}");

        // Warm: miss then hit, same bytes.
        let (_, _, before1) = get(addr, &target, None);
        let (_, _, before2) = get(addr, &target, None);
        assert_eq!(before1, before2);
        assert_eq!(server.result_cache_stats().hits, 1);

        // Commit an update that changes this query's answer.
        let (status, _, _) = post_update(addr, "INSERT DATA { <Jerry> <hasFriend> <Kramer> }");
        assert_eq!(status, 200);

        // The FIRST post-update request must see fresh results: the
        // store epoch moved, so the cached entry is evicted, the query
        // re-executes, and the new friend appears.
        let (status, _, after) = get(addr, &target, None);
        assert_eq!(status, 200);
        assert_ne!(after, before1, "stale cached bytes served after update");
        assert!(after.contains("Kramer"), "{after}");
        assert_eq!(server.result_cache_stats().epoch_evictions, 1);

        // And the fresh result is itself cached again.
        let (_, _, again) = get(addr, &target, None);
        assert_eq!(again, after);
        assert_eq!(server.result_cache_stats().hits, 2);
    }

    #[test]
    fn update_against_read_only_database_is_403() {
        let server = serve();
        let (status, _, body) = post_update(server.addr(), "INSERT DATA { <x> <y> <z> }");
        assert_eq!(status, 403, "{body}");
        assert!(body.contains("read-only"), "{body}");
        // Nothing changed; stats still reports a fixed epoch-0 database.
        let (_, _, stats) = get(server.addr(), "/stats", None);
        assert!(stats.contains("\"updatable\":false"), "{stats}");
    }

    #[test]
    fn update_status_codes() {
        let server = serve_updatable();
        let addr = server.addr();
        // 400: malformed update.
        assert_eq!(post_update(addr, "INSERT NONSENSE").0, 400);
        // 405: wrong method, with Allow.
        let (status, head, _) = roundtrip(addr, "GET /update HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);
        assert!(head.contains("Allow: POST"), "{head}");
        // 415: wrong media type (a query content type is not an update).
        let (status, _, _) = roundtrip(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: \
                 application/sparql-query\r\nContent-Length: {}\r\n\r\nASK {{}}",
                "ASK {}".len()
            ),
        );
        assert_eq!(status, 415);
    }

    /// A chain graph big enough that a multi-hop join takes real time —
    /// the fixture for the deadline and overload tests.
    fn heavy_db() -> Arc<Database> {
        use std::fmt::Write as _;
        let n = 200_000;
        let mut nt = String::with_capacity(n * 24);
        for i in 0..n {
            let _ = writeln!(nt, "<n{}> <next> <n{}> .", i, i + 1);
        }
        Arc::new(Database::from_ntriples(&nt).unwrap())
    }

    const HEAVY_QUERY: &str = "/sparql?query=SELECT+*+WHERE+%7B+%3Fa+%3Cnext%3E+%3Fb+.+\
                               %3Fb+%3Cnext%3E+%3Fc+.+%3Fc+%3Cnext%3E+%3Fd+.+%7D+ORDER+BY+%3Fd";

    #[test]
    fn deadline_exceeded_mid_query_answered_504() {
        let config = ServerConfig {
            workers: 2,
            request_timeout: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", heavy_db(), config)
            .unwrap()
            .spawn()
            .unwrap();
        // 1ms budget against a 200k-row three-hop join + sort: the
        // deadline fires (in the queue or inside the join kernels) and
        // the client gets 504, not a stalled socket.
        let (status, _, body) = get(server.addr(), HEAVY_QUERY, None);
        assert_eq!(status, 504, "{body}");
        assert!(
            body.contains("deadline") || body.contains("timed out"),
            "{body}"
        );
    }

    #[test]
    fn no_deadline_heavy_query_completes() {
        let config = ServerConfig {
            workers: 2,
            request_timeout: None,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", heavy_db(), config)
            .unwrap()
            .spawn()
            .unwrap();
        let (status, _, body) = get(server.addr(), HEAVY_QUERY, None);
        assert_eq!(status, 200, "{body}");
    }

    #[test]
    fn overloaded_server_sheds_with_503_retry_after() {
        let config = ServerConfig {
            workers: 1,
            queue_capacity: 1,
            request_timeout: None,
            // Distinct-looking queries below defeat the result cache so
            // every request really executes.
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", heavy_db(), config)
            .unwrap()
            .spawn()
            .unwrap();
        let addr = server.addr();

        // Occupy the single worker and the single queue slot with heavy
        // queries (comments make the texts distinct, so no cache hits),
        // then observe the third request shed inline.
        let heavy = |tag: u32| {
            format!(
                "/sparql?query=%23{tag}%0ASELECT+*+WHERE+%7B+%3Fa+%3Cnext%3E+%3Fb+.+\
                 %3Fb+%3Cnext%3E+%3Fc+.+%3Fc+%3Cnext%3E+%3Fd+.+%7D+ORDER+BY+%3Fd"
            )
        };
        std::thread::scope(|scope| {
            // Stagger the sends: the first heavy query must reach the
            // worker before the second occupies the lone queue slot, and
            // both must be in place before the probe arrives, while the
            // first still runs (a release build answers it in about
            // 200 ms).
            for tag in 0..2u32 {
                let heavy = &heavy;
                scope.spawn(move || {
                    let (status, _, body) = get(addr, &heavy(tag), None);
                    assert_eq!(status, 200, "{body}");
                });
                std::thread::sleep(Duration::from_millis(50));
            }
            let (status, head, _) = get(addr, &heavy(9), None);
            assert_eq!(status, 503, "expected the third request shed");
            assert!(head.contains("Retry-After:"), "{head}");
        });
        assert_eq!(NetCounters::get(&server.net_counters().requests_dropped), 1);
        // /stats carries the drop.
        let (_, _, stats) = get(addr, "/stats", None);
        assert!(stats.contains("\"dropped_requests\":1"), "{stats}");
    }

    #[test]
    fn metrics_exposition_is_valid_prometheus_and_covers_every_layer() {
        let server = serve();
        let addr = server.addr();
        // Exercise engine + caches so counters are non-zero.
        let target = format!("/sparql?query={QUERY_ENC}");
        assert_eq!(get(addr, &target, None).0, 200);
        assert_eq!(get(addr, &target, None).0, 200);

        let (status, head, body) = get(addr, "/metrics", None);
        assert_eq!(status, 200);
        assert!(head.contains("Content-Type: text/plain"), "{head}");
        // The server's own linter accepts its own exposition.
        let report = lbr_obs::lint_exposition(&body)
            .unwrap_or_else(|errs| panic!("invalid exposition: {errs:?}\n{body}"));
        assert!(report.families >= 20, "{report:?}");
        // One family per layer: engine, caches, net, latency histogram,
        // traces, identity.
        // The repeat request was answered by the result cache (and so
        // never reached the plan cache); both appear as one family.
        assert!(
            body.contains("lbr_cache_hits_total{cache=\"plan\"} 0"),
            "{body}"
        );
        assert!(
            body.contains("lbr_cache_hits_total{cache=\"result\"} 1"),
            "{body}"
        );
        assert!(body.contains("lbr_net_connections_total"), "{body}");
        assert!(
            body.contains("lbr_request_duration_us_bucket{endpoint=\"sparql\",le=\"+Inf\"}"),
            "{body}"
        );
        assert!(body.contains("lbr_queries_ok_total 1"), "{body}");
        assert!(body.contains("lbr_store_epoch 0"), "{body}");
        assert!(body.contains("lbr_build_info{version=\""), "{body}");
        assert!(body.contains("lbr_uptime_seconds"), "{body}");
        // Zero-observation histogram still renders a complete family.
        assert!(
            body.contains("lbr_request_duration_us_count{endpoint=\"update\"} 0"),
            "{body}"
        );
        // /metrics itself is not a query endpoint.
        assert_eq!(get(addr, "/metrics", None).0, 200);
        let (status, _, _) = roundtrip(
            addr,
            "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 405);
    }

    #[test]
    fn slow_queries_publish_traces_with_response_header() {
        let db = Arc::new(Database::from_ntriples(DATA).unwrap());
        let config = ServerConfig {
            workers: 2,
            // Everything is "slow" at a 1µs threshold: every request
            // publishes a trace and advertises its id.
            slow_query: Duration::from_micros(1),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", db, config)
            .unwrap()
            .spawn()
            .unwrap();
        let addr = server.addr();
        let (status, head, _) = get(addr, &format!("/sparql?query={QUERY_ENC}"), None);
        assert_eq!(status, 200);
        assert!(head.contains("X-Lbr-Trace-Id: "), "{head}");

        let (status, _, body) = get(addr, "/debug/traces", None);
        assert_eq!(status, 200);
        assert!(body.contains("\"label\":\"GET /sparql\""), "{body}");
        assert!(body.contains("\"slow\":true"), "{body}");
        // The trace carries wire + engine + serialization spans.
        for span in ["queue_wait", "parse", "plan", "join", "serialize"] {
            assert!(
                body.contains(&format!("\"name\":\"{span}\"")),
                "missing {span}: {body}"
            );
        }
        assert!(server.tracing().published() >= 1);

        // /stats carries the trace counters from the same registry.
        let (_, _, stats) = get(addr, "/stats", None);
        assert!(stats.contains("\"traces\":{"), "{stats}");
        assert!(stats.contains("\"published\":"), "{stats}");
    }

    #[test]
    fn fast_requests_with_default_config_carry_no_trace_header() {
        let server = serve();
        let (status, head, _) = get(server.addr(), &format!("/sparql?query={QUERY_ENC}"), None);
        assert_eq!(status, 200);
        // Default: 250ms slow threshold, sampling off — a microsecond
        // query publishes nothing and pays (almost) nothing.
        assert!(!head.contains("X-Lbr-Trace-Id"), "{head}");
        assert_eq!(server.tracing().published(), 0);
    }

    #[test]
    fn explain_analyze_over_http() {
        let server = serve();
        let addr = server.addr();
        let (status, head, body) = get(
            addr,
            &format!("/sparql?query={QUERY_ENC}&explain=analyze"),
            None,
        );
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Content-Type: text/plain"), "{head}");
        assert!(body.contains("══ ANALYZE (executed) ══"), "{body}");
        assert!(body.contains("est≈"), "{body}");
        assert!(body.contains("err="), "{body}");
        // Unknown explain modes are a client error, not silently ignored.
        let (status, _, body) = get(
            addr,
            &format!("/sparql?query={QUERY_ENC}&explain=verbose"),
            None,
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("unknown explain mode"), "{body}");
    }

    #[test]
    fn zero_capacity_trace_ring_is_rejected_at_bind() {
        let db = Arc::new(Database::from_ntriples(DATA).unwrap());
        let config = ServerConfig {
            trace_ring: 0,
            ..ServerConfig::default()
        };
        let err = match Server::bind("127.0.0.1:0", db, config) {
            Ok(_) => panic!("bind accepted a zero-capacity trace ring"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("trace ring capacity"), "{err}");
    }

    #[test]
    fn negotiation_unit_cases() {
        assert_eq!(negotiate(None).unwrap(), OutputFormat::Json);
        assert_eq!(negotiate(Some("")).unwrap(), OutputFormat::Json);
        assert_eq!(negotiate(Some("*/*")).unwrap(), OutputFormat::Json);
        assert_eq!(negotiate(Some("text/*")).unwrap(), OutputFormat::Tsv);
        assert_eq!(
            negotiate(Some("Application/Sparql-Results+JSON")).unwrap(),
            OutputFormat::Json
        );
        assert_eq!(
            negotiate(Some("application/xml, text/plain;q=0.2")).unwrap(),
            OutputFormat::Table
        );
        assert_eq!(negotiate(Some("application/xml")).unwrap_err().status, 406);
    }
}
