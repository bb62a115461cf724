//! # lbr-bench
//!
//! The reproduction harness for the LBR paper's evaluation (§6): generates
//! the three workloads, runs every Appendix E query on the LBR engine and
//! the baseline engines, and prints Tables 6.1–6.4 plus the index-size
//! report and the two ablations. See `src/bin/reproduce.rs` for the
//! command-line entry point and `benches/` for the Criterion
//! micro-benchmarks.
//!
//! All engines run through the shared [`lbr_core::api::Engine`] trait via
//! [`EngineKind`], so adding an engine to the evaluation means extending
//! [`BASELINE_KINDS`] — nothing else.
//!
//! Methodology mirrors §6.1: each query runs `1 + RUNS` times; the first
//! (cold) run is discarded and the remaining times averaged. Results are
//! also emitted as JSON for EXPERIMENTS.md regeneration.

use lbr::obs::{json_escape_into, stage_us, Span};
use lbr_baseline::{EngineKind, EngineOptions};
use lbr_bitmat::{BitMatStore, Catalog};
use lbr_core::{traced, LbrEngine, LbrError, QueryOutput};
use lbr_datagen::Dataset;
use lbr_rdf::EncodedGraph;
use lbr_sparql::parse_query;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub mod count_alloc;
pub use count_alloc::{allocation_count, CountingAlloc};

/// Timed runs per query after the warm-up run (the paper uses 5).
pub const RUNS: u32 = 5;

/// Intermediate-row budget for the baselines (stand-in for ">30 min").
pub const ROW_LIMIT: usize = 40_000_000;

/// The engines timed against LBR in the query tables. The reference
/// oracle is excluded: it is the correctness gate of the test suite, not
/// a performance contender.
pub const BASELINE_KINDS: [EngineKind; 3] = [
    EngineKind::PairwiseSelectivity,
    EngineKind::PairwiseQueryOrder,
    EngineKind::Reordered,
];

/// Average seconds of one engine on one query; `None` when the row
/// budget blew (the paper's ">30 min" entries).
#[derive(Debug, Clone)]
pub struct EngineTime {
    /// Engine name ([`EngineKind::name`]).
    pub engine: &'static str,
    /// Averaged seconds, or `None` on resource-limit abort.
    pub secs: Option<f64>,
}

/// One row of a Table 6.2/6.3/6.4-style report.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Query id ("Q1"…).
    pub id: String,
    /// LBR init time (BitMat loads + active pruning), averaged.
    pub t_init: f64,
    /// LBR `prune_triples` time, averaged.
    pub t_prune: f64,
    /// LBR multi-way-join time (schedule included, best-match not),
    /// averaged.
    pub t_join: f64,
    /// LBR end-to-end time, averaged.
    pub t_total: f64,
    /// LBR planning time (the `plan` span of each timed run), averaged.
    pub t_plan: f64,
    /// Heap allocations of one `LbrEngine::plan` (minimum over the
    /// timed runs; 0 without the counting allocator).
    pub allocs_per_plan: u64,
    /// Steady-state heap allocations of one cached-plan execution
    /// (minimum over the timed runs, counted by [`CountingAlloc`]; 0 when
    /// the host binary did not install the counting allocator).
    pub allocs_per_query: u64,
    /// LBR end-to-end time of the same query under `LIMIT 10`,
    /// averaged — tracks the row-quota early-exit win for top-k serving.
    pub t_limit10: f64,
    /// Root seeds the `LIMIT 10` run enumerated (vs. the full run's count
    /// implied by `initial_triples`): the verifiable early-exit evidence.
    pub limit10_seeds: u64,
    /// One entry per [`BASELINE_KINDS`] engine.
    pub baselines: Vec<EngineTime>,
    /// Σ triples matching each TP before pruning.
    pub initial_triples: u64,
    /// Σ triples left after `prune_triples`.
    pub triples_after_pruning: u64,
    /// Result rows.
    pub n_results: usize,
    /// Result rows with ≥1 NULL.
    pub n_null_results: usize,
    /// Whether nullification/best-match were required.
    pub best_match_required: bool,
}

/// A full dataset report.
#[derive(Debug, Clone)]
pub struct DatasetReport {
    /// Dataset name.
    pub name: String,
    /// The host the times were measured on: logical CPUs and CPU model.
    pub host: String,
    /// Triple count and per-dimension cardinalities (Table 6.1 row).
    pub n_triples: u64,
    /// Distinct subjects.
    pub n_subjects: u32,
    /// Distinct predicates.
    pub n_predicates: u32,
    /// Distinct objects.
    pub n_objects: u32,
    /// Per-query rows.
    pub rows: Vec<QueryRow>,
    /// Geometric mean (seconds) of LBR over all queries.
    pub geomean_lbr: f64,
    /// Geometric means per baseline engine, over the queries that engine
    /// completed.
    pub geomean_baselines: Vec<EngineTime>,
    /// Updatable-store overhead: query latency with 0%/1%/10% of the
    /// triples resident in the delta memtable, and after compaction.
    pub delta: DeltaReport,
}

/// A prepared (indexed) dataset.
pub struct Prepared {
    /// The dataset (graph + queries).
    pub dataset: Dataset,
    /// Encoded graph.
    pub graph: EncodedGraph,
    /// The BitMat store.
    pub store: BitMatStore,
}

/// Encodes and indexes a dataset.
pub fn prepare(dataset: Dataset) -> Prepared {
    let graph = dataset.graph.clone().encode();
    let store = BitMatStore::build(&graph);
    Prepared {
        dataset,
        graph,
        store,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Seconds the `stage` spans of one traced execution add up to.
fn stage_secs(spans: &[Span], stage: &str) -> f64 {
    stage_us(spans, stage) as f64 * 1e-6
}

/// Averaged phase timings plus the steady-state allocation count of one
/// LBR query ([`run_lbr`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct LbrTimes {
    /// Averaged init seconds.
    pub t_init: f64,
    /// Averaged prune seconds.
    pub t_prune: f64,
    /// Averaged join seconds.
    pub t_join: f64,
    /// Averaged end-to-end seconds.
    pub t_total: f64,
    /// Averaged planning seconds.
    pub t_plan: f64,
    /// Minimum heap allocations of one `LbrEngine::plan`.
    pub allocs_per_plan: u64,
    /// Minimum heap allocations of one cached-plan execution (0 when the
    /// counting allocator is not installed).
    pub allocs_per_query: u64,
}

/// Runs one query on the LBR engine with warm-up, returning averaged
/// stats and the last output.
///
/// Each timed run is a full `execute` (planning included), matching how
/// [`run_engine`] times the baselines — the columns stay comparable. It
/// runs under [`traced`], so the stage columns are its spans and the
/// total is this function's own clock. The allocation count is measured
/// separately over cached-plan executions (the plan-cache serving path):
/// minimum across runs, so one-off lazy initialization does not pollute
/// the steady-state number.
pub fn run_lbr(p: &Prepared, text: &str) -> (QueryOutput, LbrTimes) {
    let query = parse_query(text).expect("benchmark query parses");
    let engine = LbrEngine::new(&p.store, &p.graph.dict);
    let mut out = engine.execute(&query).expect("warm-up run");
    let mut t = LbrTimes::default();
    let mut spans = Vec::new();
    for _ in 0..RUNS {
        let t0 = Instant::now();
        out = traced(&mut spans, || engine.execute(&query)).expect("timed run");
        t.t_total += secs(t0.elapsed());
        t.t_init += stage_secs(&spans, "init");
        t.t_prune += stage_secs(&spans, "prune");
        t.t_join += stage_secs(&spans, "join");
        t.t_plan += stage_secs(&spans, "plan");
    }
    let n = RUNS as f64;
    t.t_init /= n;
    t.t_prune /= n;
    t.t_join /= n;
    t.t_total /= n;
    t.t_plan /= n;
    let (mut allocs, mut plan_allocs) = (u64::MAX, u64::MAX);
    for _ in 0..RUNS {
        let a0 = allocation_count();
        let plan = engine.plan(&query).expect("plan");
        plan_allocs = plan_allocs.min(allocation_count() - a0);
        let a0 = allocation_count();
        engine.execute_plan(&plan).expect("alloc-count run");
        allocs = allocs.min(allocation_count() - a0);
    }
    t.allocs_per_query = allocs;
    t.allocs_per_plan = plan_allocs;
    (out, t)
}

/// Runs one query with `LIMIT 10` forced onto it (warm-up included),
/// returning the averaged end-to-end seconds and the number of root seeds
/// the quota-limited multi-way join enumerated. Queries that already
/// carry a LIMIT keep the tighter of the two.
pub fn run_lbr_limit10(p: &Prepared, text: &str) -> (f64, u64) {
    let mut query = parse_query(text).expect("benchmark query parses");
    query.modifiers.limit = Some(query.modifiers.limit.map_or(10, |k| k.min(10)));
    let engine = LbrEngine::new(&p.store, &p.graph.dict);
    let mut out = engine.execute(&query).expect("warm-up run");
    let mut t_total = 0.0;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        out = engine.execute(&query).expect("timed run");
        t_total += secs(t0.elapsed());
    }
    (t_total / RUNS as f64, out.stats.join_seeds)
}

/// Runs one query on any engine through the [`EngineKind`] seam with
/// warm-up; `None` when the row budget blew.
pub fn run_engine(p: &Prepared, text: &str, kind: EngineKind) -> Option<f64> {
    let query = parse_query(text).expect("benchmark query parses");
    let options = EngineOptions {
        row_limit: Some(ROW_LIMIT),
        ..EngineOptions::default()
    };
    let engine = kind.build_with(&p.store, &p.graph.dict, &options);
    match engine.execute(&query) {
        Err(LbrError::ResourceLimit(_)) => return None,
        Err(e) => panic!("{kind} failed: {e}"),
        Ok(_) => {}
    }
    let mut total = 0.0;
    for _ in 0..RUNS {
        let t = Instant::now();
        engine.execute(&query).expect("timed run");
        total += secs(t.elapsed());
    }
    Some(total / RUNS as f64)
}

/// The delta fractions measured by [`run_delta`]: no delta, then 1% and
/// 10% of the dataset's triples resident in the updatable store's
/// memtable.
pub const DELTA_FRACTIONS: [f64; 3] = [0.0, 0.01, 0.10];

/// Query latency with part of the dataset living in the delta memtable
/// of an updatable [`lbr::Database`] (one point of [`DeltaReport`]).
#[derive(Debug, Clone)]
pub struct DeltaPoint {
    /// Requested fraction of the dataset's triples held out of the base
    /// segments and re-inserted through `Database::insert_triples`.
    pub fraction: f64,
    /// Triples actually resident in the delta while the queries ran.
    pub delta_triples: u64,
    /// Geometric mean (seconds) of all dataset queries on LBR.
    pub geomean_secs: f64,
}

/// Updatable-store overhead report: query latency as the delta memtable
/// grows, and after compaction folds it back into fresh segments.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// One measurement per [`DELTA_FRACTIONS`] entry.
    pub points: Vec<DeltaPoint>,
    /// Geometric mean (seconds) after `compact()` on the largest-delta
    /// database — the floor the overlay overhead returns to.
    pub compacted_geomean_secs: f64,
    /// Wall-clock seconds of that compaction.
    pub compact_secs: f64,
}

/// SplitMix64 — a tiny deterministic mixer used to spread the held-out
/// triples across the dataset instead of clustering them at one end (and
/// to draw `alloc_check`'s seeded delta).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Picks up to `target` triples that can be held out of the base load
/// and re-inserted without forcing a dictionary rebuild: every term of a
/// picked triple still appears in the same role in some remaining
/// triple, so the re-insert is encodable under the base dictionary and
/// stays delta-resident — the state this benchmark exists to measure.
fn pick_holdout(triples: &[lbr_rdf::Triple], target: usize) -> Vec<usize> {
    use std::collections::HashMap;
    let mut subjects: HashMap<&lbr_rdf::Term, usize> = HashMap::new();
    let mut predicates: HashMap<&lbr_rdf::Term, usize> = HashMap::new();
    let mut objects: HashMap<&lbr_rdf::Term, usize> = HashMap::new();
    for t in triples {
        *subjects.entry(&t.s).or_insert(0) += 1;
        *predicates.entry(&t.p).or_insert(0) += 1;
        *objects.entry(&t.o).or_insert(0) += 1;
    }
    let mut order: Vec<usize> = (0..triples.len()).collect();
    order.sort_by_key(|&i| splitmix64(i as u64));
    let mut picked = Vec::with_capacity(target);
    for i in order {
        if picked.len() >= target {
            break;
        }
        let t = &triples[i];
        if subjects[&t.s] > 1 && predicates[&t.p] > 1 && objects[&t.o] > 1 {
            *subjects.get_mut(&t.s).unwrap() -= 1;
            *predicates.get_mut(&t.p).unwrap() -= 1;
            *objects.get_mut(&t.o).unwrap() -= 1;
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

/// Geometric mean of end-to-end seconds over the dataset's queries
/// against a facade database: warm-up plus [`RUNS`] timed executions per
/// query, planning included — comparable to [`run_engine`].
fn geomean_facade(db: &lbr::Database, queries: &[lbr_datagen::BenchQuery]) -> f64 {
    let mut times = Vec::with_capacity(queries.len());
    for q in queries {
        db.execute(&q.text).expect("warm-up run");
        let mut total = 0.0;
        for _ in 0..RUNS {
            let t = Instant::now();
            db.execute(&q.text).expect("timed run");
            total += secs(t.elapsed());
        }
        times.push(total / RUNS as f64);
    }
    geomean(times.iter().copied())
}

/// Measures the updatable-store overhead: loads the dataset with a
/// fraction of its triples held back, re-inserts them through the update
/// path so they live in the delta memtable, and times every benchmark
/// query at each fraction; then compacts the largest delta and times
/// again. The holdout is role-compatible by construction (see
/// `pick_holdout`) so the inserts ride the fast delta path instead of
/// a dictionary rebuild, and auto-compaction is disabled for the run so
/// the delta stays where the benchmark put it.
pub fn run_delta(p: &Prepared) -> DeltaReport {
    let triples = p.dataset.graph.triples();
    let mut points = Vec::new();
    let mut compacted_geomean_secs = f64::NAN;
    let mut compact_secs = f64::NAN;
    for (step, &fraction) in DELTA_FRACTIONS.iter().enumerate() {
        let target = (triples.len() as f64 * fraction).round() as usize;
        let held = pick_holdout(triples, target);
        let mut in_delta = vec![false; triples.len()];
        for &i in &held {
            in_delta[i] = true;
        }
        let base: Vec<lbr_rdf::Triple> = triples
            .iter()
            .enumerate()
            .filter(|&(i, _)| !in_delta[i])
            .map(|(_, t)| t.clone())
            .collect();
        let db = lbr::Database::builder()
            .triples(base)
            .updatable()
            .build()
            .expect("updatable bench database");
        let store = db.mutable_store().expect("updatable database has a store");
        store.set_compact_threshold(usize::MAX);
        if !held.is_empty() {
            db.insert_triples(held.iter().map(|&i| triples[i].clone()).collect())
                .expect("delta insert");
        }
        let delta_triples = store.current_ref().delta().len() as u64;
        assert_eq!(
            db.len(),
            triples.len(),
            "holdout re-insert changed the triple count"
        );
        assert_eq!(
            delta_triples as usize,
            held.len(),
            "a holdout insert forced a rebuild; the delta would be empty \
             and the measurement vacuous"
        );
        let geomean_secs = geomean_facade(&db, &p.dataset.queries);
        points.push(DeltaPoint {
            fraction,
            delta_triples,
            geomean_secs,
        });
        if step == DELTA_FRACTIONS.len() - 1 {
            let t = Instant::now();
            db.compact().expect("compaction");
            compact_secs = secs(t.elapsed());
            compacted_geomean_secs = geomean_facade(&db, &p.dataset.queries);
        }
    }
    DeltaReport {
        points,
        compacted_geomean_secs,
        compact_secs,
    }
}

fn geomean(xs: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = xs.clone().count();
    if n == 0 {
        return f64::NAN;
    }
    (xs.map(|x| x.max(1e-9).ln()).sum::<f64>() / n as f64).exp()
}

/// Benchmarks every query of a prepared dataset.
pub fn run_dataset(p: &Prepared) -> DatasetReport {
    let dims = p.store.dims();
    let mut rows = Vec::new();
    for q in &p.dataset.queries {
        let (out, t) = run_lbr(p, &q.text);
        let (t_limit10, limit10_seeds) = run_lbr_limit10(p, &q.text);
        let baselines = BASELINE_KINDS
            .iter()
            .map(|&kind| EngineTime {
                engine: kind.name(),
                secs: run_engine(p, &q.text, kind),
            })
            .collect();
        rows.push(QueryRow {
            id: q.id.to_string(),
            t_init: t.t_init,
            t_prune: t.t_prune,
            t_join: t.t_join,
            t_total: t.t_total,
            t_plan: t.t_plan,
            allocs_per_plan: t.allocs_per_plan,
            allocs_per_query: t.allocs_per_query,
            t_limit10,
            limit10_seeds,
            baselines,
            initial_triples: out.stats.initial_triples,
            triples_after_pruning: out.stats.triples_after_pruning,
            n_results: out.len(),
            n_null_results: out.rows_with_nulls(),
            best_match_required: out.stats.nb_required,
        });
    }
    let geomean_baselines = BASELINE_KINDS
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let completed = rows.iter().filter_map(|r| r.baselines[i].secs);
            EngineTime {
                engine: kind.name(),
                // `None` (rendered "n/a") when the engine completed no
                // query at all, rather than a NaN geomean.
                secs: (completed.clone().count() > 0).then(|| geomean(completed)),
            }
        })
        .collect();
    DatasetReport {
        name: p.dataset.name.to_string(),
        host: host(),
        n_triples: dims.n_triples,
        n_subjects: dims.n_subjects,
        n_predicates: dims.n_predicates,
        n_objects: dims.n_objects,
        geomean_lbr: geomean(rows.iter().map(|r| r.t_total)),
        geomean_baselines,
        rows,
        delta: run_delta(p),
    }
}

/// Logical CPUs and CPU model of this host (the model as Linux reports
/// it, "unknown CPU" elsewhere).
fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = (cpuinfo.lines())
        .find_map(|l| {
            Some(
                l.strip_prefix("model name")?
                    .trim_start_matches([' ', '\t', ':']),
            )
        })
        .unwrap_or("unknown CPU");
    format!("{cpus} vCPU, {model}")
}

/// Formats seconds the way the paper's tables do.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.0005 {
        format!("{:.0}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Renders a dataset report as the Table 6.2-style fixed-width table
/// (one column per baseline engine).
pub fn render_table(r: &DatasetReport) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{:<4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>16} {:>11}",
        "", "Tplan", "Tinit", "Tprune", "Tjoin", "Ttotal", "Tlim10", "allocs", "plan allocs"
    );
    for kind in BASELINE_KINDS {
        let _ = write!(s, " {:>12}", format!("T{}", kind.name()));
    }
    let _ = writeln!(
        s,
        " {:>12} {:>12} {:>10} {:>10} {:>6}",
        "#initial", "#aftPrune", "#results", "#nulls", "BM?"
    );
    for row in &r.rows {
        let _ = write!(
            s,
            "{:<4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>16} {:>11}",
            row.id,
            fmt_secs(row.t_plan),
            fmt_secs(row.t_init),
            fmt_secs(row.t_prune),
            fmt_secs(row.t_join),
            fmt_secs(row.t_total),
            fmt_secs(row.t_limit10),
            row.allocs_per_query,
            row.allocs_per_plan,
        );
        for b in &row.baselines {
            let _ = write!(s, " {:>12}", b.secs.map_or(">budget".into(), fmt_secs));
        }
        let _ = writeln!(
            s,
            " {:>12} {:>12} {:>10} {:>10} {:>6}",
            row.initial_triples,
            row.triples_after_pruning,
            row.n_results,
            row.n_null_results,
            if row.best_match_required { "Yes" } else { "No" },
        );
    }
    let gm: Vec<String> = r
        .geomean_baselines
        .iter()
        .map(|g| format!("{} {}", g.engine, g.secs.map_or("n/a".into(), fmt_secs)))
        .collect();
    let _ = writeln!(
        s,
        "geometric means: LBR {}, {}",
        fmt_secs(r.geomean_lbr),
        gm.join(", "),
    );
    let pts: Vec<String> = r
        .delta
        .points
        .iter()
        .map(|pt| {
            format!(
                "{:.0}%={} ({} triples)",
                pt.fraction * 100.0,
                fmt_secs(pt.geomean_secs),
                pt.delta_triples
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "updatable: delta-resident geomeans {}; after compaction {} \
         (compact took {})",
        pts.join(", "),
        fmt_secs(r.delta.compacted_geomean_secs),
        fmt_secs(r.delta.compact_secs),
    );
    s
}

// ---------------------------------------------------------------------
// Minimal JSON emission (the environment has no serde; reports are flat
// enough to serialize by hand).

fn json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn json_opt_f64(out: &mut String, x: Option<f64>) {
    match x {
        Some(v) => json_f64(out, v),
        None => out.push_str("null"),
    }
}

impl EngineTime {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"engine\":");
        json_escape_into(out, self.engine);
        out.push_str(",\"secs\":");
        json_opt_f64(out, self.secs);
        out.push('}');
    }
}

impl QueryRow {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"id\":");
        json_escape_into(out, &self.id);
        let _ = write!(
            out,
            ",\"t_init\":{},\"t_prune\":{},\"t_join\":{},\"allocs_per_query\":{}",
            self.t_init, self.t_prune, self.t_join, self.allocs_per_query
        );
        let _ = write!(out, ",\"t_total\":{}", self.t_total);
        let _ = write!(
            out,
            ",\"t_plan\":{},\"allocs_per_plan\":{}",
            self.t_plan, self.allocs_per_plan
        );
        let _ = write!(
            out,
            ",\"t_limit10\":{},\"limit10_seeds\":{}",
            self.t_limit10, self.limit10_seeds
        );
        out.push_str(",\"baselines\":[");
        for (i, b) in self.baselines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            b.write_json(out);
        }
        let _ = write!(
            out,
            "],\"initial_triples\":{},\"triples_after_pruning\":{},\
             \"n_results\":{},\"n_null_results\":{},\"best_match_required\":{}}}",
            self.initial_triples,
            self.triples_after_pruning,
            self.n_results,
            self.n_null_results,
            self.best_match_required
        );
    }
}

impl DatasetReport {
    /// Serializes the report as one JSON object (no external crates).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":");
        json_escape_into(&mut out, &self.name);
        out.push_str(",\"host\":");
        json_escape_into(&mut out, &self.host);
        let _ = write!(
            out,
            ",\"n_triples\":{},\"n_subjects\":{},\"n_predicates\":{},\"n_objects\":{}",
            self.n_triples, self.n_subjects, self.n_predicates, self.n_objects
        );
        out.push_str(",\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.write_json(&mut out);
        }
        out.push_str("],\"geomean_lbr\":");
        json_f64(&mut out, self.geomean_lbr);
        out.push_str(",\"geomean_baselines\":[");
        for (i, g) in self.geomean_baselines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            g.write_json(&mut out);
        }
        out.push_str("],\"delta\":{\"points\":[");
        for (i, pt) in self.delta.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"fraction\":{},\"delta_triples\":{},\"geomean_secs\":",
                pt.fraction, pt.delta_triples
            );
            json_f64(&mut out, pt.geomean_secs);
            out.push('}');
        }
        out.push_str("],\"compacted_geomean_secs\":");
        json_f64(&mut out, self.delta.compacted_geomean_secs);
        out.push_str(",\"compact_secs\":");
        json_f64(&mut out, self.delta.compact_secs);
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_datagen::lubm;

    #[test]
    fn harness_runs_a_tiny_workload() {
        let ds = lubm::dataset(&lubm::LubmConfig {
            universities: 1,
            departments: 2,
            seed: 3,
        });
        let p = prepare(ds);
        let report = run_dataset(&p);
        assert_eq!(report.rows.len(), 6);
        assert!(report.n_triples > 0);
        assert!(report.geomean_lbr > 0.0);
        // Every row carries one time per baseline engine, in kind order.
        for row in &report.rows {
            assert_eq!(row.baselines.len(), BASELINE_KINDS.len());
            for (b, kind) in row.baselines.iter().zip(BASELINE_KINDS) {
                assert_eq!(b.engine, kind.name());
            }
            assert!(row.t_limit10 > 0.0);
            // The stage columns are disjoint spans inside the timed run.
            assert!(
                row.t_init + row.t_prune + row.t_join <= row.t_total,
                "{}: stages exceed the total",
                row.id
            );
        }
        let table = render_table(&report);
        assert!(table.contains("Q1") && table.contains("Q6"));
        assert!(table.contains("Tpairwise") && table.contains("Treordered"));
        // Q4/Q5 are the best-match rows.
        assert!(report.rows[3].best_match_required);
        assert!(!report.rows[5].best_match_required);
        // JSON for EXPERIMENTS.md regeneration.
        let json = report.to_json();
        assert!(json.contains("\"geomean_lbr\""));
        assert!(json.contains("\"engine\":\"pairwise\""));
        assert!(json.contains("\"t_limit10\"") && json.contains("\"limit10_seeds\""));
        assert!(json.contains("\"t_join\"") && json.contains("\"allocs_per_query\""));
        assert!(table.contains("Tlim10"));
        assert!(table.contains("Tjoin") && table.contains("allocs"));
        // The updatable-store measurement: the larger fractions really
        // lived in the delta, and compaction yielded a follow-up number.
        let delta = &report.delta;
        assert_eq!(delta.points.len(), DELTA_FRACTIONS.len());
        assert_eq!(delta.points[0].delta_triples, 0);
        assert!(delta.points[2].delta_triples > delta.points[1].delta_triples);
        assert!(delta.points.iter().all(|pt| pt.geomean_secs > 0.0));
        assert!(delta.compacted_geomean_secs > 0.0);
        assert!(delta.compact_secs >= 0.0);
        assert!(json.contains("\"delta\":{\"points\":["));
        assert!(json.contains("\"compacted_geomean_secs\""));
        assert!(table.contains("after compaction"));
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.0123).ends_with("ms"));
        assert_eq!(fmt_secs(2.5), "2.50s");
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd");
        assert_eq!(out, r#""a\"b\\c\nd""#);
        let mut out = String::new();
        json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
