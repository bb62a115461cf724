//! Micro-benchmarks of the compressed-bitvector primitives everything is
//! built on: `fold`, `unfold`, semi-join and clustered-semi-join (§4, §5).

use criterion::{criterion_group, criterion_main, Criterion};
use lbr_bitmat::kernel::intersect_into;
use lbr_bitmat::{BitMat, BitRow, BitVec, RetainDim, SetScratch};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

const N_ROWS: u32 = 50_000;
const N_COLS: u32 = 50_000;

/// A pseudo-random matrix with both dense runs and scattered bits.
fn sample_matrix(density_per_row: usize, n_rows: usize, seed: u64) -> BitMat {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for _ in 0..n_rows {
        let r = rng.random_range(0..N_ROWS);
        let base = rng.random_range(0..N_COLS - 64);
        for k in 0..density_per_row {
            let c = if k % 3 == 0 {
                base + k as u32 // a run
            } else {
                rng.random_range(0..N_COLS) // scattered
            };
            pairs.push((r, c));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    BitMat::from_sorted_pairs(N_ROWS, N_COLS, &pairs)
}

fn sample_mask(bits: usize, seed: u64) -> BitVec {
    let mut rng = StdRng::seed_from_u64(seed);
    BitVec::from_positions(N_COLS, (0..bits).map(|_| rng.random_range(0..N_COLS)))
}

fn bench_fold_unfold(c: &mut Criterion) {
    let mat = sample_matrix(24, 8_000, 7);
    let mask = sample_mask(20_000, 8);
    c.bench_function("fold_cols_190k_bits", |b| {
        b.iter(|| std::hint::black_box(mat.as_ref().fold(RetainDim::Col)))
    });
    c.bench_function("fold_rows_190k_bits", |b| {
        b.iter(|| std::hint::black_box(mat.as_ref().fold(RetainDim::Row)))
    });
    c.bench_function("unfold_cols_190k_bits", |b| {
        b.iter(|| {
            let mut m = mat.clone();
            m.unfold(&mask, RetainDim::Col);
            std::hint::black_box(m.as_ref().triple_count())
        })
    });
    c.bench_function("unfold_rows_190k_bits", |b| {
        let row_mask = sample_mask(20_000, 9).resized(N_ROWS);
        b.iter(|| {
            let mut m = mat.clone();
            m.unfold(&row_mask, RetainDim::Row);
            std::hint::black_box(m.as_ref().triple_count())
        })
    });
}

fn bench_semijoin_shape(c: &mut Criterion) {
    // A semi-join is fold + fold + AND + unfold; measure the composite.
    let master = sample_matrix(8, 6_000, 21);
    let slave = sample_matrix(30, 9_000, 22);
    c.bench_function("semi_join_fold_and_unfold", |b| {
        b.iter(|| {
            let mut beta = master.as_ref().fold(RetainDim::Col);
            beta.and_assign(&slave.as_ref().fold(RetainDim::Col));
            let mut s = slave.clone();
            s.unfold(&beta, RetainDim::Col);
            std::hint::black_box(s.as_ref().triple_count())
        })
    });
    c.bench_function("clustered_semi_join_3_members", |b| {
        let m3 = sample_matrix(16, 7_000, 23);
        b.iter(|| {
            let mut beta = master.as_ref().fold(RetainDim::Col);
            beta.and_assign(&slave.as_ref().fold(RetainDim::Col));
            beta.and_assign(&m3.as_ref().fold(RetainDim::Col));
            let mut out = 0;
            for m in [&master, &slave, &m3] {
                let mut x = m.clone();
                x.unfold(&beta, RetainDim::Col);
                out += x.as_ref().triple_count();
            }
            std::hint::black_box(out)
        })
    });
}

fn bench_transpose(c: &mut Criterion) {
    let mat = sample_matrix(24, 8_000, 31);
    c.bench_function("transpose_190k_bits", |b| {
        b.iter(|| std::hint::black_box(mat.as_ref().transpose().as_ref().triple_count()))
    });
}

/// The run-aware compressed-set kernels: row×row intersection per
/// representation pair, the in-place mask kernel, and k-way leapfrog.
fn bench_kernels(c: &mut Criterion) {
    let blocky = |n_runs: usize, run_len: u32, seed: u64| -> BitRow {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = BTreeSet::new();
        for _ in 0..n_runs {
            let s = rng.random_range(0..N_COLS - run_len);
            for p in s..s + run_len {
                set.insert(p);
            }
        }
        BitRow::from_sorted_positions(N_COLS, &set.into_iter().collect::<Vec<_>>())
    };
    let scatter = |n_bits: usize, seed: u64| -> BitRow {
        let mut rng = StdRng::seed_from_u64(seed);
        let set: BTreeSet<u32> = (0..n_bits).map(|_| rng.random_range(0..N_COLS)).collect();
        BitRow::from_sorted_positions(N_COLS, &set.into_iter().collect::<Vec<_>>())
    };
    let run_a = blocky(400, 48, 41);
    let run_b = blocky(400, 48, 42);
    let sp_a = scatter(2_000, 43);
    let sp_b = scatter(2_000, 44);
    let mask = sp_a.to_bitvec();
    let mut scratch = SetScratch::default();
    let mut dst = BitRow::empty(N_COLS);
    c.bench_function("kernel_and_row_runs_runs", |b| {
        b.iter(|| {
            run_a.and_row_into(&run_b, &mut dst, &mut scratch);
            std::hint::black_box(dst.count_ones())
        })
    });
    c.bench_function("kernel_and_row_runs_sparse", |b| {
        b.iter(|| {
            run_a.and_row_into(&sp_a, &mut dst, &mut scratch);
            std::hint::black_box(dst.count_ones())
        })
    });
    c.bench_function("kernel_and_row_sparse_sparse", |b| {
        b.iter(|| {
            sp_a.and_row_into(&sp_b, &mut dst, &mut scratch);
            std::hint::black_box(dst.count_ones())
        })
    });
    let run_a_mat = one_row_matrix(&run_a);
    c.bench_function("kernel_unfold_with_runs", |b| {
        // Re-clone per iteration: unfolding in place would otherwise
        // collapse the runs row on the first call and time idempotent
        // re-masks of the tiny result instead of the runs×mask kernel.
        b.iter(|| {
            let mut m = run_a_mat.clone();
            m.unfold_with(&mask, RetainDim::Col, &mut scratch);
            std::hint::black_box(m.as_ref().triple_count())
        })
    });
    c.bench_function("kernel_kway_leapfrog_4", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            intersect_into(&[&run_a, &run_b, &sp_a, &sp_b], &mut out);
            std::hint::black_box(out.len())
        })
    });
}

/// A one-row matrix holding `row` (row 0).
fn one_row_matrix(row: &BitRow) -> BitMat {
    let pairs: Vec<(u32, u32)> = row.iter_ones().map(|c| (0, c)).collect();
    BitMat::from_sorted_pairs(1, row.universe(), &pairs)
}

criterion_group!(
    benches,
    bench_fold_unfold,
    bench_semijoin_shape,
    bench_transpose,
    bench_kernels
);
criterion_main!(benches);
