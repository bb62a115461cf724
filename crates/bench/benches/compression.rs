//! Benchmarks of the hybrid row codec (§4): construction, iteration,
//! masking and the segment word codec's encode/parse/copy path, at
//! run-friendly and scatter-friendly densities.

use criterion::{criterion_group, criterion_main, Criterion};
use lbr_bitmat::{BitRow, BitVec, RowRef, SetScratch};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

const UNIVERSE: u32 = 1_000_000;

fn runs_row(n_runs: usize, run_len: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = BTreeSet::new();
    for _ in 0..n_runs {
        let s = rng.random_range(0..UNIVERSE - run_len);
        for p in s..s + run_len {
            set.insert(p);
        }
    }
    set.into_iter().collect()
}

fn sparse_row(n_bits: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let set: BTreeSet<u32> = (0..n_bits).map(|_| rng.random_range(0..UNIVERSE)).collect();
    set.into_iter().collect()
}

fn bench_construction(c: &mut Criterion) {
    let runs = runs_row(500, 64, 1);
    let sparse = sparse_row(2_000, 2);
    c.bench_function("row_build_runs_32k_bits", |b| {
        b.iter(|| std::hint::black_box(BitRow::from_sorted_positions(UNIVERSE, &runs)))
    });
    c.bench_function("row_build_sparse_2k_bits", |b| {
        b.iter(|| std::hint::black_box(BitRow::from_sorted_positions(UNIVERSE, &sparse)))
    });
}

fn bench_ops(c: &mut Criterion) {
    let runs = BitRow::from_sorted_positions(UNIVERSE, &runs_row(500, 64, 3));
    let sparse = BitRow::from_sorted_positions(UNIVERSE, &sparse_row(2_000, 4));
    let mask = BitVec::from_positions(UNIVERSE, sparse_row(100_000, 5));
    let mut scratch = SetScratch::default();
    c.bench_function("row_and_mask_runs", |b| {
        b.iter(|| std::hint::black_box(runs.as_ref().and_mask_copy(&mask, &mut scratch)))
    });
    c.bench_function("row_and_mask_sparse", |b| {
        b.iter(|| std::hint::black_box(sparse.as_ref().and_mask_copy(&mask, &mut scratch)))
    });
    c.bench_function("row_or_into_runs", |b| {
        b.iter(|| {
            let mut acc = BitVec::zeros(UNIVERSE);
            runs.as_ref().or_into(&mut acc);
            std::hint::black_box(acc.count_ones())
        })
    });
    c.bench_function("row_iter_ones_runs", |b| {
        b.iter(|| std::hint::black_box(runs.iter_ones().count()))
    });
}

/// A row through the segment's body check: its stored body (the words a
/// segment holds for it) checked back against its span and copied onto
/// the heap.
fn word_roundtrip(row: &BitRow) -> BitRow {
    let (runs, words) = row.as_ref().body_words();
    RowRef::checked(UNIVERSE, row.count_ones(), runs, words)
        .expect("a stored body checks")
        .to_owned()
}

fn bench_codec(c: &mut Criterion) {
    let runs = BitRow::from_sorted_positions(UNIVERSE, &runs_row(500, 64, 6));
    let sparse = BitRow::from_sorted_positions(UNIVERSE, &sparse_row(2_000, 7));
    c.bench_function("row_codec_roundtrip_runs", |b| {
        b.iter(|| std::hint::black_box(word_roundtrip(&runs).count_ones()))
    });
    c.bench_function("row_codec_roundtrip_sparse", |b| {
        b.iter(|| std::hint::black_box(word_roundtrip(&sparse).count_ones()))
    });
    // Size comparison printed once (the §4 hybrid claim, not a timing).
    let (runs, sparse) = (runs.as_ref(), sparse.as_ref());
    eprintln!(
        "hybrid sizes: runs-row {}B (rle {}B), sparse-row {}B (rle {}B)",
        runs.encoded_bytes(),
        runs.rle_only_bytes(),
        sparse.encoded_bytes(),
        sparse.rle_only_bytes()
    );
}

criterion_group!(benches, bench_construction, bench_ops, bench_codec);
criterion_main!(benches);
