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
//! allocation trips CI instead of silently regressing. Loads during
//! `init` (the engine prunes owned BitMat copies destructively) dominate
//! the remaining number — that is inherent to the §5 design, not churn.
//!
//! Two exact gates check the `no_alloc` regions' promise stage by stage,
//! driving init → prune → schedule → join through `lbr_core` directly: a
//! warm `prune_triples` allocates nothing, and the join's enumeration
//! allocates at most once per emitted row plus [`JOIN_CONSTANT`].

use lbr_bench::{allocation_count, prepare, Prepared};
use lbr_bitmat::Catalog;
use lbr_core::bindings::VarTable;
use lbr_core::init::init;
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
    let engine = LbrEngine::new(&p.store, &p.graph.dict);
    let mut failed = false;
    println!(
        "allocation check: LUBM sample, cached-plan steady state, \
         ceiling {BASE_CEILING} + {PER_ROW}/result-row; \
         warm prune 0, join ≤ rows + {JOIN_CONSTANT}"
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
        let (prune, join, join_rows) = stage_allocs(&p, &query);
        let ok = best <= ceiling && prune == 0 && join <= join_rows + JOIN_CONSTANT;
        println!(
            "{:<4} {best:>8} allocs/query (ceiling {ceiling:>6}, {rows} rows)  \
             prune {prune}  join {join} ({join_rows} rows)  [{}]",
            q.id,
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if failed {
        eprintln!(
            "FAIL: allocations exceeded a committed ceiling \
             ({BASE_CEILING} + {PER_ROW}/row per query, 0 per warm prune, \
             rows + {JOIN_CONSTANT} per join)"
        );
        std::process::exit(1);
    }
}

/// The exact gates' measurements for one query, stage by stage as
/// `tests/prop_minimality.rs` drives them: allocations of a warm
/// `prune_triples`, and of the join's enumeration alone with the number
/// of rows it emitted.
fn stage_allocs(p: &Prepared, query: &Query) -> (u64, u64, u64) {
    let a = analyze(&query.pattern).expect("workload query analyzes");
    assert!(a.class.connected, "the LUBM sample queries are connected");
    let (gosn, goj, dict) = (&a.gosn, &a.goj, &p.graph.dict);
    let vt = VarTable::from_tps(gosn.tps()).expect("variable table");
    let est = estimate_all(gosn.tps(), dict, &p.store);
    let jorder = get_jvar_order(gosn, goj, &vt, &est);
    let loaded = init(gosn, &vt, &jorder, &est, dict, &p.store).expect("init");
    let dims = p.store.dims();
    let mut scratch = PruneScratch::new();
    let mut warm = loaded.tps.clone();
    prune_triples(&mut warm, gosn, goj, &vt, &jorder, &dims, &mut scratch);
    let mut tps = loaded.tps.clone();
    let a0 = allocation_count();
    prune_triples(&mut tps, gosn, goj, &vt, &jorder, &dims, &mut scratch);
    let prune = allocation_count() - a0;

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
    let join = allocation_count() - a0;
    (prune, join, rows.len() as u64)
}
