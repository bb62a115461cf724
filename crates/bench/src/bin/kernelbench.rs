//! Kernel microbenchmark smoke: times each compressed-set kernel on a
//! fixed small input and verifies the in-place entry points are
//! allocation-free in the steady state.
//!
//! ```sh
//! cargo run --release -p lbr-bench --bin kernelbench
//! ```
//!
//! Output is one `<name>  <ops/s> ops/s` line per kernel (CI parses the
//! numbers and asserts they are nonzero) plus a final
//! `steady-state allocations: N` line; the process exits nonzero when any
//! in-place kernel allocated after warm-up, so the zero-allocation claim
//! is machine-checked on every CI run.

use lbr_bench::allocation_count;
use lbr_bitmat::kernel::intersect_into;
use lbr_bitmat::{BitMat, BitRow, BitVec, RetainDim, RowRef, SetScratch};
use std::time::Instant;

#[global_allocator]
static ALLOC: lbr_bench::CountingAlloc = lbr_bench::CountingAlloc;

const UNIVERSE: u32 = 100_000;
const ITERS: u32 = 2_000;

/// A run-heavy row: 200 runs of 48 bits.
fn runs_row(phase: u32) -> BitRow {
    let positions: Vec<u32> = (0..200u32)
        .flat_map(|i| {
            let s = (i * 499 + phase) % (UNIVERSE - 64);
            s..s + 48
        })
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    BitRow::from_sorted_positions(UNIVERSE, &positions)
}

/// A scatter-heavy row: ~1500 isolated bits.
fn sparse_row(phase: u32) -> BitRow {
    let positions: Vec<u32> = (0..1500u32)
        .map(|i| (i * 66_600 + phase * 7) % UNIVERSE)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    BitRow::from_sorted_positions(UNIVERSE, &positions)
}

/// Times `f` over [`ITERS`] iterations and prints `name  <ops/s> ops/s`.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm-up pass lets scratch buffers reach their high-water mark.
    f();
    let t = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let ops = ITERS as f64 / t.elapsed().as_secs_f64().max(1e-12);
    println!("{name:<28} {ops:>14.0} ops/s");
}

fn main() {
    let run_a = runs_row(0);
    let run_b = runs_row(17);
    let sp_a = sparse_row(0);
    let sp_b = sparse_row(3);
    let mask = sp_a.to_bitvec();

    let mut scratch = SetScratch::default();
    let mut dst = BitRow::empty(UNIVERSE);
    let mut pos_buf: Vec<u32> = Vec::new();
    let mut acc = BitVec::zeros(UNIVERSE);

    bench("and_row_runs_runs", || {
        run_a.and_row_into(&run_b, &mut dst, &mut scratch);
        std::hint::black_box(dst.count_ones());
    });
    bench("and_row_runs_sparse", || {
        run_a.and_row_into(&sp_a, &mut dst, &mut scratch);
        std::hint::black_box(dst.count_ones());
    });
    bench("and_row_sparse_sparse", || {
        sp_a.and_row_into(&sp_b, &mut dst, &mut scratch);
        std::hint::black_box(dst.count_ones());
    });
    // The prune's in-place unfold, on a one-row matrix of the runs row.
    let pairs: Vec<(u32, u32)> = run_a.iter_ones().map(|c| (0, c)).collect();
    let run_a_mat = BitMat::from_sorted_pairs(1, UNIVERSE, &pairs);
    bench("unfold_with_runs", || {
        let mut m = run_a_mat.clone();
        m.unfold_with(&mask, RetainDim::Col, &mut scratch);
        std::hint::black_box(m.as_ref().triple_count());
    });
    bench("kway_intersect_4", || {
        intersect_into(&[&run_a, &run_b, &sp_a, &sp_b], &mut pos_buf);
        std::hint::black_box(pos_buf.len());
    });
    bench("or_into_clipped_runs", || {
        acc.reset(UNIVERSE / 2);
        run_a.as_ref().or_into_clipped(&mut acc);
        std::hint::black_box(acc.count_ones());
    });
    // The masked load's kernel, on a heap row and on a copy of its body
    // read through the check a mapped segment's row passes.
    let (runs, words) = run_a.as_ref().body_words();
    let words = words.to_vec();
    let run_a_words =
        RowRef::checked(UNIVERSE, run_a.count_ones(), runs, &words).expect("a stored body checks");
    bench("and_mask_copy_heap", || {
        std::hint::black_box(run_a.as_ref().and_mask_copy(&mask, &mut scratch));
    });
    bench("and_mask_copy_words", || {
        std::hint::black_box(run_a_words.and_mask_copy(&mask, &mut scratch));
    });

    // Zero-allocation verification for the in-place kernels (the
    // `unfold_with_runs` bench above clones its matrix per call,
    // `kway_intersect_4` allocates its k cursor slots, and `and_mask_copy`
    // allocates its result row, so they are timed but excluded here). One
    // full round warms every buffer — including the representation-flip
    // spares — before the counter snapshot.
    let mut m = run_a_mat.clone();
    let mut round = |dst: &mut BitRow, scratch: &mut SetScratch, acc: &mut BitVec| {
        run_a.and_row_into(&run_b, dst, scratch);
        run_a.and_row_into(&sp_a, dst, scratch);
        sp_a.and_row_into(&sp_b, dst, scratch);
        m.unfold_with(&mask, RetainDim::Col, scratch);
        acc.reset(UNIVERSE);
        run_b.as_ref().or_into_clipped(acc);
    };
    for _ in 0..3 {
        round(&mut dst, &mut scratch, &mut acc);
    }
    let a0 = allocation_count();
    for _ in 0..1_000 {
        round(&mut dst, &mut scratch, &mut acc);
    }
    let steady = allocation_count() - a0;
    println!("steady-state allocations: {steady}");
    if steady != 0 {
        eprintln!("FAIL: in-place kernels allocated {steady} times after warm-up");
        std::process::exit(1);
    }
}
