//! Allocation-regression gate: measures steady-state heap
//! allocations-per-query on the LUBM sample workload (every Appendix E
//! query, cached-plan execution, minimum over repeated runs) and fails if
//! any query exceeds the committed ceiling.
//!
//! ```sh
//! cargo run --release -p lbr-bench --bin alloc_check
//! ```
//!
//! The ceiling is deliberately a hard-committed constant: it encodes the
//! post-kernel-layer steady state (prune scratch pools + cursor-based
//! join), so any change that reintroduces per-semi-join or per-recursion
//! allocation trips CI instead of silently regressing.
//!
//! Three exact gates check the stages one by one, driving init → prune →
//! schedule → join through `lbr_core` directly: `init` allocates at most
//! [`INIT_PER_TP`] times per loaded TP however many rows its masked loads
//! keep (each loaded matrix is one arena), a warm `prune_triples`
//! allocates nothing, and the join's enumeration allocates at most once
//! per emitted row plus [`JOIN_CONSTANT`]. The `init` gate runs three
//! times: over the heap store; over the same store saved to a segment and
//! mmap'd, where a kept row is read from its mapped words into the arena
//! and a dropped one is never read; and over that segment under a dirty
//! delta overlay (5% of the triples re-paired within their predicate as
//! inserts, 1% deleted, as the `disk_overlay` benchmark builds its
//! overlay), where each kept row the delta touches is also allowed one
//! allocation. As on the query path, every stage runs through one warm
//! `PruneScratch`: `init` fills its fold memo and the measured prune starts
//! from those folds.

use lbr::storage::{Delta, OverlayCatalog};
use lbr::SegmentSource;
use lbr_bench::{allocation_count, prepare, splitmix64, Prepared};
use lbr_bitmat::disk::save_store;
use lbr_bitmat::{
    BitMat, BitMatError, BitVec, Catalog, CowRow, CubeDims, DiskCatalog, Family, SetScratch,
};
use lbr_core::bindings::VarTable;
use lbr_core::init::{init, InitOutcome, TpState};
use lbr_core::jvar_order::get_jvar_order;
use lbr_core::multiway::{multi_way_join, schedule, JoinInputs};
use lbr_core::prune::{prune_triples, PruneScratch};
use lbr_core::selectivity::estimate_all;
use lbr_core::LbrEngine;
use lbr_datagen::lubm;
use lbr_sparql::algebra::Query;
use lbr_sparql::classify::analyze;
use lbr_sparql::parse_query;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[global_allocator]
static ALLOC: lbr_bench::CountingAlloc = lbr_bench::CountingAlloc;

/// Fixed part of the per-query allocation ceiling on the LUBM sample
/// (universities 1, departments 2, seed 3): covers the init-phase BitMat
/// loads (the engine prunes owned copies destructively) and the
/// first-pass growth of the scratch pools.
const BASE_CEILING: u64 = 1_000;

/// Per-result-row allowance: a produced row is cloned out of the reusable
/// assembly buffer and re-projected onto the execution schema — a few
/// unavoidable output allocations per row. Anything above this multiple
/// means per-row churn crept back into the join.
const PER_ROW: u64 = 4;

/// Per-TP allowance of the exact init gate (over the overlay, beside one
/// allocation per kept row the delta touches): the TP's candidate vector
/// or its matrix's three arena vectors, the first growth of the mask
/// buffers and kernel scratch, and a share of `init`'s order and result
/// vectors. It does not grow with the data.
const INIT_PER_TP: u64 = 8;

/// Per-join allowance of the exact join gate, beside one allocation per
/// emitted row: the join state's set-up (variable map, filter scopes,
/// failure and row buffers) and the output vector's doublings. It does
/// not grow with the rows.
const JOIN_CONSTANT: u64 = 64;

fn main() {
    let ds = lubm::dataset(&lubm::LubmConfig {
        universities: 1,
        departments: 2,
        seed: 3,
    });
    let p = prepare(ds);
    let seg = std::env::temp_dir().join(format!("lbr-alloc-check-{}.seg", std::process::id()));
    save_store(&p.store, &seg).expect("save the sample segment");
    let disk = Arc::new(DiskCatalog::open(&seg).expect("open the sample segment"));
    let overlay = dirty_overlay(&p, Arc::clone(&disk));
    let engine = LbrEngine::new(&p.store, &p.graph.dict);
    let mut failed = false;
    println!(
        "allocation check: LUBM sample, cached-plan steady state, \
         ceiling {BASE_CEILING} + {PER_ROW}/result-row; \
         init ≤ {INIT_PER_TP}/TP on heap and mmap, \
         + touched rows over a dirty overlay, warm prune 0, join ≤ rows + {JOIN_CONSTANT}"
    );
    for q in &p.dataset.queries {
        let query = parse_query(&q.text).expect("workload query parses");
        let plan = engine.plan(&query).expect("plan");
        // Two warm-up executions let every lazy buffer reach its
        // high-water mark before measuring.
        engine.execute_plan(&plan).expect("warm-up");
        let rows = engine.execute_plan(&plan).expect("warm-up").len() as u64;
        let mut best = u64::MAX;
        for _ in 0..5 {
            let a0 = allocation_count();
            engine.execute_plan(&plan).expect("measured run");
            best = best.min(allocation_count() - a0);
        }
        let ceiling = BASE_CEILING + PER_ROW * rows;
        let s = stage_allocs(&p, &disk, &overlay, &query);
        let ok = best <= ceiling
            && s.init.within_gate()
            && s.mmap_init.within_gate()
            && s.overlay_init.within_gate()
            && s.prune == 0
            && s.join <= s.join_rows + JOIN_CONSTANT;
        println!(
            "{:<4} {best:>8} allocs/query (ceiling {ceiling:>6}, {rows} rows)  \
             init {} ({} TPs)  mmap init {}  overlay init {} ({} touched rows)  \
             prune {}  join {} ({} rows)  [{}]",
            q.id,
            s.init.allocs,
            s.init.tps,
            s.mmap_init.allocs,
            s.overlay_init.allocs,
            s.overlay_init.touched_rows,
            s.prune,
            s.join,
            s.join_rows,
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
    }
    std::fs::remove_file(&seg).ok();
    if failed {
        eprintln!(
            "FAIL: allocations exceeded a committed ceiling \
             ({BASE_CEILING} + {PER_ROW}/row per query, {INIT_PER_TP}/TP per \
             init on heap and mmap, + touched rows over the overlay, 0 per \
             warm prune, rows + {JOIN_CONSTANT} per join)"
        );
        std::process::exit(1);
    }
}

/// The exact gates' measurements for one query.
struct StageAllocs {
    /// `init` over the heap store.
    init: InitAllocs,
    /// `init` over the mmap'd segment.
    mmap_init: InitAllocs,
    /// `init` over the mmap'd segment under the dirty delta.
    overlay_init: InitAllocs,
    /// Allocations of a warm `prune_triples`.
    prune: u64,
    /// Allocations of the join's enumeration alone.
    join: u64,
    /// Rows the join emitted.
    join_rows: u64,
}

/// One `init`'s allocations and what its gate allows them.
struct InitAllocs {
    allocs: u64,
    /// TPs `init` loaded.
    tps: u64,
    /// Rows of the masked loads that the delta touches and the row masks
    /// keep (0 without a delta).
    touched_rows: u64,
}

impl InitAllocs {
    fn within_gate(&self) -> bool {
        self.allocs <= self.touched_rows + INIT_PER_TP * self.tps
    }
}

/// Counts the allocations of `run` (one `init`), and its gate's inputs.
fn measured_init(run: impl FnOnce() -> InitOutcome) -> (InitAllocs, Option<Vec<TpState>>) {
    let a0 = allocation_count();
    let out = run();
    let allocs = allocation_count() - a0;
    let init = InitAllocs {
        allocs,
        tps: out.tps_loaded,
        touched_rows: 0,
    };
    (init, out.tps)
}

/// Measures the stages one by one, as `tests/prop_minimality.rs` drives
/// them; `init` runs over the heap store, over `disk`, its mmap'd copy,
/// and over `overlay`, that copy under a dirty delta, with the same plan.
fn stage_allocs(
    p: &Prepared,
    disk: &DiskCatalog,
    overlay: &OverlayCatalog,
    query: &Query,
) -> StageAllocs {
    let a = analyze(&query.pattern).expect("workload query analyzes");
    assert!(a.class.connected, "the LUBM sample queries are connected");
    let (gosn, goj, dict) = (&a.gosn, &a.goj, &p.graph.dict);
    let vt = VarTable::from_tps(gosn.tps()).expect("variable table");
    let est = estimate_all(gosn.tps(), dict, &p.store);
    let jorder = get_jvar_order(gosn, goj, &vt, &est);
    let dims = p.store.dims();
    // Warm the pool the way a serving thread's earlier queries do: one
    // init and one prune of what it loaded.
    let mut scratch = PruneScratch::new();
    let warm = init(gosn, &vt, &jorder, &est, dict, &p.store, &mut scratch).expect("warm-up init");
    if let Some(mut warm) = warm.tps {
        prune_triples(&mut warm, gosn, goj, &vt, &jorder, &dims, &mut scratch);
    }
    let (mmap_init, _) = measured_init(|| {
        init(gosn, &vt, &jorder, &est, dict, disk, &mut scratch).expect("mmap init")
    });
    let touching = Touching {
        overlay,
        touched_rows: AtomicU64::new(0),
    };
    let (mut overlay_init, _) = measured_init(|| {
        init(gosn, &vt, &jorder, &est, dict, &touching, &mut scratch).expect("overlay init")
    });
    overlay_init.touched_rows = touching.touched_rows.into_inner();
    let (heap_init, loaded) = measured_init(|| {
        init(gosn, &vt, &jorder, &est, dict, &p.store, &mut scratch).expect("init")
    });
    let mut s = StageAllocs {
        init: heap_init,
        mmap_init,
        overlay_init,
        prune: 0,
        join: 0,
        join_rows: 0,
    };
    let Some(mut tps) = loaded else {
        return s;
    };
    let a0 = allocation_count();
    prune_triples(&mut tps, gosn, goj, &vt, &jorder, &dims, &mut scratch);
    s.prune = allocation_count() - a0;

    let order = schedule(&mut tps, gosn);
    let inputs = JoinInputs {
        tps: &tps,
        order: &order,
        gosn,
        vt: &vt,
        dims,
        dict,
        fan_filters: Vec::new(),
        quota: None,
        deadline: None,
    };
    let a0 = allocation_count();
    let (rows, _) = multi_way_join(&inputs);
    s.join = allocation_count() - a0;
    s.join_rows = rows.len() as u64;
    s
}

/// The sample store's segment under a seeded delta of the shape the
/// `disk_overlay` benchmark builds: 5% of the triples re-paired within
/// their predicate (the subject of one with the object of another) as
/// inserts, and 1% of the triples deleted.
fn dirty_overlay(p: &Prepared, disk: Arc<DiskCatalog>) -> OverlayCatalog {
    let triples = &p.graph.triples;
    let base: HashSet<_> = triples.iter().copied().collect();
    let mut by_predicate: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, t) in triples.iter().enumerate() {
        by_predicate.entry(t.p).or_default().push(i);
    }
    let mut draws = (0u64..).map(splitmix64);
    let mut pick = |n: usize| (draws.next().expect("endless draws") % n as u64) as usize;
    let mut delta = Delta::new();
    while delta.inserts.len() < triples.len() / 20 {
        let a = triples[pick(triples.len())];
        let group = &by_predicate[&a.p];
        let b = triples[group[pick(group.len())]];
        let e = lbr_rdf::EncodedTriple::new(a.s, a.p, b.o);
        if !base.contains(&e) {
            delta.inserts.insert(e);
        }
    }
    while delta.tombstones.len() < triples.len() / 100 {
        delta.tombstones.insert(triples[pick(triples.len())]);
    }
    OverlayCatalog::new(SegmentSource::Disk(disk), Arc::new(delta))
}

/// An overlay that counts, per masked load, the rows its delta touches and
/// the row mask keeps: the rows the merge may edit. Counting walks the
/// delta's ordered sets and allocates nothing.
struct Touching<'a> {
    overlay: &'a OverlayCatalog,
    touched_rows: AtomicU64,
}

impl Catalog for Touching<'_> {
    fn dims(&self) -> CubeDims {
        self.overlay.dims()
    }

    fn matrix(&self, f: Family, key: u32) -> Result<Option<Cow<'_, BitMat>>, BitMatError> {
        self.overlay.matrix(f, key)
    }

    fn masked(
        &self,
        f: Family,
        key: u32,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<Option<BitMat>, BitMatError> {
        let changed = self.overlay.delta().changed_rows(f, key);
        let touched = changed.filter(|row| rows.is_none_or(|m| m.get(row.0)));
        self.touched_rows
            .fetch_add(touched.count() as u64, Ordering::Relaxed);
        self.overlay.masked(f, key, rows, cols, scratch)
    }

    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<CowRow<'_>>, BitMatError> {
        self.overlay.row(f, key, r)
    }

    fn count(&self, f: Family, key: u32) -> u64 {
        self.overlay.count(f, key)
    }

    fn row_count(&self, f: Family, key: u32, r: u32) -> u64 {
        self.overlay.row_count(f, key, r)
    }
}
