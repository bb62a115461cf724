//! Benchmarks of the LBR pipeline phases in isolation on the LUBM Q1
//! workload: init (loads + active pruning), `prune_triples`, and the
//! multi-way join — the decomposition behind Tables 6.2–6.4's
//! Tinit / Tprune columns.

use criterion::{criterion_group, criterion_main, Criterion};
use lbr_bitmat::{BitMatStore, Catalog};
use lbr_core::bindings::VarTable;
use lbr_core::init::init;
use lbr_core::jvar_order::get_jvar_order;
use lbr_core::multiway::{multi_way_join, schedule, JoinInputs};
use lbr_core::prune::{prune_triples, PruneScratch};
use lbr_core::selectivity::estimate_all;
use lbr_datagen::lubm;
use lbr_sparql::classify::analyze;
use lbr_sparql::parse_query;

fn bench_phases(c: &mut Criterion) {
    let ds = lubm::dataset(&lubm::LubmConfig {
        universities: 3,
        departments: 8,
        seed: 42,
    });
    let graph = ds.graph.clone().encode();
    let store = BitMatStore::build(&graph);
    let q = parse_query(&ds.queries[0].text).unwrap();
    let analyzed = analyze(&q.pattern).unwrap();
    let gosn = &analyzed.gosn;
    let goj = &analyzed.goj;
    let vt = VarTable::from_tps(gosn.tps()).unwrap();
    let est = estimate_all(gosn.tps(), &graph.dict, &store);
    let jorder = get_jvar_order(gosn, goj, &vt, &est);

    let mut scratch = PruneScratch::new();
    c.bench_function("lubm_q1_init_active_pruning", |b| {
        b.iter(|| {
            let out = init(gosn, &vt, &jorder, &est, &graph.dict, &store, &mut scratch).unwrap();
            std::hint::black_box(out.tps_loaded)
        })
    });

    let loaded = init(gosn, &vt, &jorder, &est, &graph.dict, &store, &mut scratch)
        .unwrap()
        .tps
        .expect("Q1 has answers");
    // A cold prune each iteration: the clone carries the loaded
    // generations, so without forgetting the memo every fold would be a
    // hit left by the previous iteration.
    c.bench_function("lubm_q1_prune_triples", |b| {
        b.iter(|| {
            let mut tps = loaded.clone();
            scratch.clear_folds();
            std::hint::black_box(prune_triples(
                &mut tps,
                gosn,
                goj,
                &vt,
                &jorder,
                &store.dims(),
                &mut scratch,
            ))
        })
    });

    let mut pruned = loaded.clone();
    prune_triples(
        &mut pruned,
        gosn,
        goj,
        &vt,
        &jorder,
        &store.dims(),
        &mut scratch,
    );
    let order = schedule(&mut pruned, gosn);
    c.bench_function("lubm_q1_multiway_join", |b| {
        b.iter(|| {
            let inputs = JoinInputs {
                tps: &pruned,
                order: &order,
                gosn,
                vt: &vt,
                dims: store.dims(),
                dict: &graph.dict,
                fan_filters: Vec::new(),
                quota: None,
                deadline: None,
            };
            let (rows, _) = multi_way_join(&inputs);
            std::hint::black_box(rows.len())
        })
    });

    c.bench_function("lubm_index_build", |b| {
        b.iter(|| std::hint::black_box(BitMatStore::build(&graph).dims().n_triples))
    });
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
