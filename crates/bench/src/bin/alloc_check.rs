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
//! once per matrix row its masked loads keep plus [`INIT_PER_TP`] per
//! loaded TP (a row the masks drop is never copied or decoded), a warm
//! `prune_triples` allocates nothing, and the join's enumeration
//! allocates at most once per emitted row plus [`JOIN_CONSTANT`]. The
//! `init` gate runs twice: over the heap store, and over the same store
//! saved to a segment and mmap'd, where a kept row is decoded from its
//! mapped words and a dropped one is never read.

use lbr_bench::{allocation_count, prepare, Prepared};
use lbr_bitmat::disk::save_store;
use lbr_bitmat::{Catalog, DiskCatalog};
use lbr_core::bindings::VarTable;
use lbr_core::init::{init, InitOutcome, TpData, TpState};
use lbr_core::jvar_order::get_jvar_order;
use lbr_core::multiway::{multi_way_join, schedule, JoinInputs};
use lbr_core::prune::{prune_triples, PruneScratch};
use lbr_core::selectivity::estimate_all;
use lbr_core::LbrEngine;
use lbr_datagen::lubm;
use lbr_sparql::algebra::Query;
use lbr_sparql::classify::analyze;
use lbr_sparql::parse_query;

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

/// Per-TP allowance of the exact init gate, beside one allocation per
/// kept matrix row: the TP's candidate vector or row list, the first
/// growth of the mask buffers and kernel scratch, and a share of `init`'s
/// order and result vectors. It does not grow with the data.
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
    let disk = DiskCatalog::open(&seg).expect("open the sample segment");
    let engine = LbrEngine::new(&p.store, &p.graph.dict);
    let mut failed = false;
    println!(
        "allocation check: LUBM sample, cached-plan steady state, \
         ceiling {BASE_CEILING} + {PER_ROW}/result-row; \
         init ≤ kept rows + {INIT_PER_TP}/TP on heap and mmap, warm prune 0, \
         join ≤ rows + {JOIN_CONSTANT}"
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
        let s = stage_allocs(&p, &disk, &query);
        let ok = best <= ceiling
            && s.init.within_gate()
            && s.mmap_init.within_gate()
            && s.prune == 0
            && s.join <= s.join_rows + JOIN_CONSTANT;
        println!(
            "{:<4} {best:>8} allocs/query (ceiling {ceiling:>6}, {rows} rows)  \
             init {} ({} kept rows, {} TPs)  mmap init {} ({} kept rows)  \
             prune {}  join {} ({} rows)  [{}]",
            q.id,
            s.init.allocs,
            s.init.kept_rows,
            s.init.tps,
            s.mmap_init.allocs,
            s.mmap_init.kept_rows,
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
             ({BASE_CEILING} + {PER_ROW}/row per query, kept rows + \
             {INIT_PER_TP}/TP per init on heap and mmap, 0 per warm prune, \
             rows + {JOIN_CONSTANT} per join)"
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
    /// Matrix rows the masked loads kept (bounded by the kept triples
    /// when the load aborted and dropped them).
    kept_rows: u64,
    /// TPs `init` loaded.
    tps: u64,
}

impl InitAllocs {
    fn within_gate(&self) -> bool {
        self.allocs <= self.kept_rows + INIT_PER_TP * self.tps
    }
}

/// Counts the allocations of `run` (one `init`), and its gate's inputs.
fn measured_init(run: impl FnOnce() -> InitOutcome) -> (InitAllocs, Option<Vec<TpState>>) {
    let a0 = allocation_count();
    let out = run();
    let allocs = allocation_count() - a0;
    let kept_rows = match &out.tps {
        Some(tps) => tps.iter().map(matrix_rows).sum(),
        None => out.triples_loaded,
    };
    let init = InitAllocs {
        allocs,
        kept_rows,
        tps: out.tps_loaded,
    };
    (init, out.tps)
}

/// Measures the stages one by one, as `tests/prop_minimality.rs` drives
/// them; `init` runs over the heap store and over `disk`, its mmap'd copy,
/// with the same plan.
fn stage_allocs(p: &Prepared, disk: &DiskCatalog, query: &Query) -> StageAllocs {
    let a = analyze(&query.pattern).expect("workload query analyzes");
    assert!(a.class.connected, "the LUBM sample queries are connected");
    let (gosn, goj, dict) = (&a.gosn, &a.goj, &p.graph.dict);
    let vt = VarTable::from_tps(gosn.tps()).expect("variable table");
    let est = estimate_all(gosn.tps(), dict, &p.store);
    let jorder = get_jvar_order(gosn, goj, &vt, &est);
    let (mmap_init, _) =
        measured_init(|| init(gosn, &vt, &jorder, &est, dict, disk).expect("mmap init"));
    let (heap_init, loaded) =
        measured_init(|| init(gosn, &vt, &jorder, &est, dict, &p.store).expect("init"));
    let mut s = StageAllocs {
        init: heap_init,
        mmap_init,
        prune: 0,
        join: 0,
        join_rows: 0,
    };
    let Some(loaded) = loaded else {
        return s;
    };
    let dims = p.store.dims();
    let mut scratch = PruneScratch::new();
    let mut warm = loaded.clone();
    prune_triples(&mut warm, gosn, goj, &vt, &jorder, &dims, &mut scratch);
    let mut tps = loaded;
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

/// Matrix rows a loaded TP holds.
fn matrix_rows(tp: &TpState) -> u64 {
    match &tp.data {
        TpData::Zero { .. } | TpData::One { .. } => 0,
        TpData::Two { mat, .. } => mat.rows().len() as u64,
        TpData::Three { mats, .. } => mats.iter().map(|(_, m)| m.rows().len() as u64).sum(),
    }
}
