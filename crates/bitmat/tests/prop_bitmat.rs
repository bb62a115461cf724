//! Property tests: compressed rows and matrices must agree with a naive
//! uncompressed model on every operation, the run-aware set-algebra
//! kernels must agree with the dense [`BitVec`] oracle, and the disk codec
//! must be lossless.

use lbr_bitmat::kernel::intersect_into;
use lbr_bitmat::{BitMat, BitRow, BitVec, RetainDim, SetScratch};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_positions(universe: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..universe, 0..(universe as usize).min(80))
        .prop_map(|s| s.into_iter().collect())
}

/// Runs-biased rows: dense blocks interleaved with isolated bits.
fn arb_blocky_positions(universe: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec((0..universe, 1u32..12), 0..8).prop_map(move |blocks| {
        let mut set = BTreeSet::new();
        for (start, len) in blocks {
            for p in start..(start + len).min(universe) {
                set.insert(p);
            }
        }
        set.into_iter().collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_ops_match_reference(
        a in arb_blocky_positions(300),
        b in arb_positions(300),
    ) {
        let row = BitRow::from_sorted_positions(300, &a);
        let mask = BitVec::from_positions(300, b.iter().copied());

        // count / iterate / contains
        prop_assert_eq!(row.count_ones() as usize, a.len());
        prop_assert_eq!(row.iter_ones().collect::<Vec<_>>(), a.clone());
        for p in 0..300 {
            prop_assert_eq!(row.contains(p), a.binary_search(&p).is_ok());
        }

        // AND against the mask.
        let expect: Vec<u32> = a.iter().copied().filter(|p| b.contains(p)).collect();
        let got = row.and_mask(&mask);
        prop_assert_eq!(got.iter_ones().collect::<Vec<_>>(), expect);

        // OR into an accumulator seeded with b.
        let mut acc = mask.clone();
        row.or_into(&mut acc);
        let expect: BTreeSet<u32> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(acc.iter_ones().collect::<Vec<_>>(), expect.into_iter().collect::<Vec<_>>());

        // Hybrid is never larger than pure RLE.
        prop_assert!(row.encoded_bytes() <= row.rle_only_bytes());
    }

    /// Every pairwise kernel (run×run clipping, run×sparse probing,
    /// sparse×sparse galloping) against the dense AND oracle, on a
    /// word-boundary universe (`256 % 64 == 0`) so tail-word handling is
    /// exercised, including empty and full operands.
    #[test]
    fn and_row_matches_dense_oracle(
        a in arb_blocky_positions(256),
        b in arb_positions(256),
        full_a in any::<bool>(),
        empty_b in any::<bool>(),
    ) {
        let ra = if full_a { BitRow::full(256) } else { BitRow::from_sorted_positions(256, &a) };
        let rb = if empty_b { BitRow::empty(256) } else { BitRow::from_sorted_positions(256, &b) };
        // Dense oracle: AND of the expanded masks.
        let mut oracle = ra.to_bitvec();
        oracle.and_assign(&rb.to_bitvec());
        let expect: Vec<u32> = oracle.iter_ones().collect();

        // Allocating kernel, both operand orders.
        prop_assert_eq!(ra.and_row(&rb).iter_ones().collect::<Vec<_>>(), expect.clone());
        prop_assert_eq!(rb.and_row(&ra).iter_ones().collect::<Vec<_>>(), expect.clone());
        // Kernel output representation must equal the canonical one.
        prop_assert_eq!(ra.and_row(&rb), BitRow::from_sorted_positions(256, &expect));

        // In-place kernel through reused scratch + destination.
        let mut scratch = SetScratch::default();
        let mut dst = BitRow::empty(256);
        for _ in 0..2 {
            ra.and_row_into(&rb, &mut dst, &mut scratch);
            prop_assert_eq!(dst.iter_ones().collect::<Vec<_>>(), expect.clone());
            prop_assert_eq!(dst.count_ones() as usize, expect.len());
        }

        // k-way leapfrog degenerates to the same answer for k = 2, and
        // agrees on k = 3 with a full third operand.
        let mut out = Vec::new();
        intersect_into(&[&ra, &rb], &mut out);
        prop_assert_eq!(out.clone(), expect.clone());
        let full = BitRow::full(256);
        intersect_into(&[&ra, &rb, &full], &mut out);
        prop_assert_eq!(out, expect);
    }

    /// The rewritten `and_mask` (and its in-place and copying forms)
    /// against the dense oracle, including masks shorter and longer than
    /// the universe for the clipped semantics.
    #[test]
    fn and_mask_in_place_matches_dense_oracle(
        a in arb_blocky_positions(320),
        b in arb_positions(320),
        mask_len in (0usize..4).prop_map(|i| [64u32, 256, 320, 448][i]),
    ) {
        let row = BitRow::from_sorted_positions(320, &a);
        let mask = BitVec::from_positions(mask_len, b.iter().copied().filter(|&p| p < mask_len));
        let expect: Vec<u32> = a.iter().copied()
            .filter(|&p| p < mask_len && b.contains(&p))
            .collect();
        let mut scratch = SetScratch::default();
        let mut got = row.clone();
        got.and_mask_in_place(&mask, &mut scratch);
        prop_assert_eq!(got.iter_ones().collect::<Vec<_>>(), expect.clone());
        prop_assert_eq!(got.universe(), 320);
        prop_assert_eq!(&got, &BitRow::from_sorted_positions(320, &expect));
        // The copying kernel: the same row, representation included, and
        // no row at all when the result is empty.
        let copy = row.and_mask_copy(&mask, &mut scratch);
        prop_assert_eq!(copy.as_ref(), (!expect.is_empty()).then_some(&got));
        // Exact-length mask: the allocating wrapper agrees.
        if mask_len == 320 {
            prop_assert_eq!(row.and_mask(&mask), got);
        }
        // In-place repetition is idempotent and allocation-stable.
        let grows = scratch.grows();
        let mut again = got.clone();
        again.and_mask_in_place(&mask, &mut scratch);
        prop_assert_eq!(again, got);
        prop_assert!(scratch.grows() <= grows + 1);
    }

    /// `or_into` (word-batched sparse path) and `or_into_clipped` against
    /// the dense oracle, on a word-boundary universe.
    #[test]
    fn or_into_matches_dense_oracle(
        a in arb_positions(256),
        seed in arb_blocky_positions(256),
        clip_len in (0usize..6).prop_map(|i| [0u32, 1, 63, 64, 128, 256][i]),
    ) {
        let row = BitRow::from_sorted_positions(256, &a);
        let mut acc = BitVec::from_positions(256, seed.iter().copied());
        row.or_into(&mut acc);
        let expect: BTreeSet<u32> = a.iter().chain(seed.iter()).copied().collect();
        prop_assert_eq!(acc.iter_ones().collect::<Vec<_>>(),
                        expect.into_iter().collect::<Vec<_>>());

        let mut clipped = BitVec::zeros(clip_len);
        row.or_into_clipped(&mut clipped);
        let expect: Vec<u32> = a.iter().copied().filter(|&p| p < clip_len).collect();
        prop_assert_eq!(clipped.iter_ones().collect::<Vec<_>>(), expect);
    }

    /// `fold_or_clipped` / `unfold_with` agree with the allocating
    /// `fold().resized()` / resized-mask `unfold` they replace.
    #[test]
    fn clipped_fold_unfold_match_allocating_path(
        pairs in prop::collection::btree_set((0u32..64, 0u32..80), 0..150),
        mask_bits in arb_positions(80),
        space in (0usize..4).prop_map(|i| [16u32, 64, 80, 128][i]),
    ) {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let m = BitMat::from_sorted_pairs(64, 80, &pairs);
        for dim in [RetainDim::Row, RetainDim::Col] {
            let mut acc = BitVec::zeros(space);
            m.fold_or_clipped(dim, &mut acc);
            prop_assert_eq!(acc, m.fold(dim).resized(space));
        }
        // unfold_with on a short/long mask == unfold on the resized mask.
        let mask = BitVec::from_positions(space, mask_bits.iter().copied().filter(|&p| p < space));
        let mut scratch = SetScratch::default();
        let mut a = m.clone();
        a.unfold_with(&mask, RetainDim::Col, &mut scratch);
        let mut b = m.clone();
        b.unfold(&mask.resized(80), RetainDim::Col);
        prop_assert_eq!(&a, &b);
        let mut a = m.clone();
        a.unfold_with(&mask, RetainDim::Row, &mut scratch);
        let mut b = m.clone();
        b.unfold(&mask.resized(64), RetainDim::Row);
        prop_assert_eq!(a, b);
        // `masked` copies exactly what the two unfolds leave, whichever
        // way it finds the kept rows (probing a sparse row mask or
        // walking the rows).
        for (rows, cols) in [(Some(&mask), None), (None, Some(&mask)), (Some(&mask), Some(&mask))] {
            let mut want = m.clone();
            for (mask, dim) in [(rows, RetainDim::Row), (cols, RetainDim::Col)] {
                if let Some(mask) = mask {
                    want.unfold_with(mask, dim, &mut scratch);
                }
            }
            prop_assert_eq!(m.masked(rows, cols, &mut scratch), want);
        }
        prop_assert_eq!(m.masked(None, None, &mut scratch), m);
    }

    /// k-way leapfrog against the iterated dense oracle for 1–5 operands of
    /// mixed representations.
    #[test]
    fn kway_intersection_matches_dense_oracle(
        sets in prop::collection::vec(arb_blocky_positions(192), 1..5),
    ) {
        let rows: Vec<BitRow> =
            sets.iter().map(|s| BitRow::from_sorted_positions(192, s)).collect();
        let refs: Vec<&BitRow> = rows.iter().collect();
        let mut oracle = BitVec::ones(192);
        for r in &rows {
            oracle.and_assign(&r.to_bitvec());
        }
        let mut out = Vec::new();
        intersect_into(&refs, &mut out);
        prop_assert_eq!(out, oracle.iter_ones().collect::<Vec<_>>());
    }

    #[test]
    fn row_codec_roundtrip(a in arb_blocky_positions(400)) {
        let row = BitRow::from_sorted_positions(400, &a);
        let mut buf = Vec::new();
        row.write_to(&mut buf);
        let (back, used) = BitRow::read_from(&buf, 400).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back, row);
    }

    #[test]
    fn matrix_fold_unfold_match_reference(
        pairs in prop::collection::btree_set((0u32..40, 0u32..50), 0..120),
        row_mask in arb_positions(40),
        col_mask in arb_positions(50),
    ) {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let m = BitMat::from_sorted_pairs(40, 50, &pairs);
        prop_assert_eq!(m.triple_count() as usize, pairs.len());
        prop_assert_eq!(m.iter().collect::<Vec<_>>(), pairs.clone());

        // fold = projection of distinct coordinates.
        let rows_expect: BTreeSet<u32> = pairs.iter().map(|&(r, _)| r).collect();
        let cols_expect: BTreeSet<u32> = pairs.iter().map(|&(_, c)| c).collect();
        prop_assert_eq!(
            m.fold(RetainDim::Row).iter_ones().collect::<BTreeSet<_>>(), rows_expect);
        prop_assert_eq!(
            m.fold(RetainDim::Col).iter_ones().collect::<BTreeSet<_>>(), cols_expect);

        // unfold = triple filtering on the retained dimension.
        let rmask = BitVec::from_positions(40, row_mask.iter().copied());
        let mut mr = m.clone();
        mr.unfold(&rmask, RetainDim::Row);
        let expect: Vec<(u32, u32)> =
            pairs.iter().copied().filter(|&(r, _)| row_mask.contains(&r)).collect();
        prop_assert_eq!(mr.iter().collect::<Vec<_>>(), expect.clone());
        prop_assert_eq!(mr.triple_count() as usize, expect.len());

        let cmask = BitVec::from_positions(50, col_mask.iter().copied());
        let mut mc = m.clone();
        mc.unfold(&cmask, RetainDim::Col);
        let expect: Vec<(u32, u32)> =
            pairs.iter().copied().filter(|&(_, c)| col_mask.contains(&c)).collect();
        prop_assert_eq!(mc.iter().collect::<Vec<_>>(), expect.clone());

        // transpose is an involution and flips coordinates.
        let t = m.transpose();
        prop_assert_eq!(t.triple_count(), m.triple_count());
        for &(r, c) in &pairs {
            prop_assert!(t.get(c, r));
        }
        prop_assert_eq!(t.transpose(), m);
    }
}
