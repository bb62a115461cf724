//! Property tests: compressed rows and matrices must agree with a naive
//! uncompressed model on every operation, the run-aware set-algebra
//! kernels must agree with the dense [`BitVec`] oracle, the finger seek must
//! agree with the plain row lookup, a heap row and the
//! same row read from its segment words must agree on every read kernel,
//! and the segment word codec must be lossless.

use lbr_bitmat::kernel::intersect_into;
use lbr_bitmat::{BitMat, BitRow, BitVec, RetainDim, RowCursor, RowRef, SetScratch};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A row serialized to its segment words (`RowRef::write_words_to`).
fn row_words(row: &BitRow) -> Vec<u32> {
    let mut bytes = Vec::new();
    row.as_ref().write_words_to(&mut bytes);
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .collect()
}

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

    /// Every read kernel against the model, on both views of one row: the
    /// heap row's (`as_ref`) and the one parsed from its segment words.
    #[test]
    fn row_ops_match_reference(
        a in arb_blocky_positions(300),
        b in arb_positions(300),
        mask_len in (0usize..4).prop_map(|i| [64u32, 256, 300, 448][i]),
        seeks in prop::collection::vec((0u32..320, any::<bool>()), 0..8),
    ) {
        let row = BitRow::from_sorted_positions(300, &a);
        let mask = BitVec::from_positions(300, b.iter().copied());
        let words = row_words(&row);
        let parsed = RowRef::parse(&words, 300);
        prop_assert_eq!(parsed.is_some(), !a.is_empty(), "a stored row is never empty");
        let short_mask =
            BitVec::from_positions(mask_len, b.iter().copied().filter(|&p| p < mask_len));
        let mut scratch = SetScratch::default();

        for view in [Some(row.as_ref()), parsed].into_iter().flatten() {
            // count / iterate / contains
            prop_assert_eq!(view.universe(), 300);
            prop_assert_eq!(view.count_ones() as usize, a.len());
            prop_assert_eq!(view.iter_ones().collect::<Vec<_>>(), a.clone());
            for p in 0..300 {
                prop_assert_eq!(view.contains(p), a.binary_search(&p).is_ok());
            }
            prop_assert_eq!(view.to_owned(), row.clone());
            prop_assert_eq!(view.to_bitvec(), BitVec::from_positions(300, a.iter().copied()));

            // AND against the mask, at the universe's length and at a
            // shorter or longer one (bits past the mask read as zero).
            let expect: Vec<u32> = a.iter().copied().filter(|p| b.contains(p)).collect();
            let masked = view.and_mask_copy(&mask, &mut scratch);
            prop_assert_eq!(masked.map_or_else(Vec::new, |r| r.iter_ones().collect()), expect);
            let expect: Vec<u32> =
                a.iter().copied().filter(|&p| p < mask_len && b.contains(&p)).collect();
            let copy = view.and_mask_copy(&short_mask, &mut scratch);
            let want = (!expect.is_empty()).then(|| BitRow::from_sorted_positions(300, &expect));
            prop_assert_eq!(copy, want);

            // OR into an accumulator seeded with b, and clipped to a
            // shorter one.
            let mut acc = mask.clone();
            view.or_into(&mut acc);
            let expect: BTreeSet<u32> = a.iter().chain(b.iter()).copied().collect();
            prop_assert_eq!(acc.iter_ones().collect::<Vec<_>>(), expect.into_iter().collect::<Vec<_>>());
            let mut clipped = BitVec::zeros(mask_len.min(300));
            view.or_into_clipped(&mut clipped);
            let expect: Vec<u32> = a.iter().copied().filter(|&p| p < mask_len).collect();
            prop_assert_eq!(clipped.iter_ones().collect::<Vec<_>>(), expect);

            // The cursor: each seek lands on the first set bit at or past
            // both its bound and the cursor, each advance steps one bit.
            let mut cur = RowCursor::new(view);
            let mut at = 0usize;
            for &(bound, advance) in &seeks {
                at += a[at..].partition_point(|&p| p < bound);
                prop_assert_eq!(cur.seek(bound), a.get(at).copied());
                if advance {
                    cur.advance();
                    at = (at + 1).min(a.len());
                }
                prop_assert_eq!(cur.peek(), a.get(at).copied());
            }

            // Both views write the same words, and the hybrid is never
            // larger than pure RLE.
            let mut bytes = Vec::new();
            view.write_words_to(&mut bytes);
            prop_assert_eq!(bytes.len(), 4 * words.len());
            prop_assert!(view.encoded_bytes() <= view.rle_only_bytes());
            prop_assert_eq!(view.encoded_bytes(), row.as_ref().encoded_bytes());
        }
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

    /// The row×mask kernel against the dense oracle, in its copying form
    /// and through a one-row matrix's in-place unfold, including masks
    /// shorter and longer than the universe for the clipped semantics.
    #[test]
    fn and_mask_matches_dense_oracle(
        a in arb_blocky_positions(320),
        b in arb_positions(320),
        mask_len in (0usize..4).prop_map(|i| [64u32, 256, 320, 448][i]),
    ) {
        let row = BitRow::from_sorted_positions(320, &a);
        let mask = BitVec::from_positions(mask_len, b.iter().copied().filter(|&p| p < mask_len));
        let expect: Vec<u32> = a.iter().copied()
            .filter(|&p| p < mask_len && b.contains(&p))
            .collect();
        let want = (!expect.is_empty()).then(|| BitRow::from_sorted_positions(320, &expect));
        let mut scratch = SetScratch::default();
        // The copying kernel: the same row, representation included, and
        // no row at all when the result is empty.
        let copy = row.as_ref().and_mask_copy(&mask, &mut scratch);
        prop_assert_eq!(&copy, &want);
        // The in-place unfold of a one-row matrix leaves that same row.
        let pairs: Vec<(u32, u32)> = a.iter().map(|&c| (0, c)).collect();
        let mut m = BitMat::from_sorted_pairs(1, 320, &pairs);
        m.unfold_with(&mask, RetainDim::Col, &mut scratch);
        prop_assert_eq!(m.row(0).map(RowRef::to_owned), want);
        prop_assert_eq!(m.triple_count() as usize, expect.len());
        // Repetition is idempotent and allocation-stable.
        let grows = scratch.grows();
        let mut again = m.clone();
        again.unfold_with(&mask, RetainDim::Col, &mut scratch);
        prop_assert_eq!(&again, &m);
        prop_assert_eq!(scratch.grows(), grows);
    }

    /// The arena's in-place unfold on both dimensions, with clipped masks,
    /// against the dense oracle. A runs row sits mid-matrix, and a comb
    /// column mask splits it into more words than its slot holds, so it
    /// outgrows the space it may be written into. Every result is also
    /// `==` to the matrix built from the surviving pairs: the compacted
    /// arena is canonical, so `PartialEq` is set equality.
    #[test]
    fn arena_unfold_matches_dense_oracle_and_rebuild(
        pairs in prop::collection::btree_set((0u32..24, 0u32..200), 0..160),
        block_row in 1u32..23,
        block in (0u32..150, 16u32..50),
        col_bits in arb_positions(200),
        row_bits in arb_positions(24),
        col_len in (0usize..4).prop_map(|i| [64u32, 130, 200, 256][i]),
        row_len in (0usize..3).prop_map(|i| [8u32, 24, 40][i]),
        comb in any::<bool>(),
        rows_first in any::<bool>(),
    ) {
        let mut model: BTreeSet<(u32, u32)> = pairs;
        model.extend((block.0..block.0 + block.1).map(|c| (block_row, c)));
        model.extend([(0, 7), (23, 9)]);
        let pairs: Vec<(u32, u32)> = model.iter().copied().collect();
        let m = BitMat::from_sorted_pairs(24, 200, &pairs);
        prop_assert!(!m.row(block_row).unwrap().to_owned().is_sparse(), "the block is a runs row");

        let col_set: BTreeSet<u32> = if comb {
            (0..col_len).filter(|c| c % 2 == 1).collect()
        } else {
            col_bits.iter().copied().filter(|&c| c < col_len).collect()
        };
        let row_set: BTreeSet<u32> = row_bits.iter().copied().filter(|&r| r < row_len).collect();
        let col_mask = BitVec::from_positions(col_len, col_set.iter().copied());
        let row_mask = BitVec::from_positions(row_len, row_set.iter().copied());
        let steps = if rows_first {
            [(&row_mask, RetainDim::Row), (&col_mask, RetainDim::Col)]
        } else {
            [(&col_mask, RetainDim::Col), (&row_mask, RetainDim::Row)]
        };
        let mut scratch = SetScratch::default();
        let mut got = m.clone();
        for (mask, dim) in steps {
            got.unfold_with(mask, dim, &mut scratch);
            model.retain(|&(r, c)| match dim {
                RetainDim::Row => row_set.contains(&r),
                RetainDim::Col => col_set.contains(&c),
            });
            let survivors: Vec<(u32, u32)> = model.iter().copied().collect();
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), survivors.clone());
            prop_assert_eq!(got.triple_count() as usize, survivors.len());
            prop_assert_eq!(&got, &BitMat::from_sorted_pairs(24, 200, &survivors));
            for (_, row) in got.rows() {
                prop_assert!(row.count_ones() > 0, "no stored row is empty");
            }
        }
        // A warm repeat changes nothing and allocates nothing.
        let grows = scratch.grows();
        let settled = got.clone();
        for (mask, dim) in steps {
            got.unfold_with(mask, dim, &mut scratch);
        }
        prop_assert_eq!(&got, &settled);
        prop_assert_eq!(scratch.grows(), grows);
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
        row.as_ref().or_into(&mut acc);
        let expect: BTreeSet<u32> = a.iter().chain(seed.iter()).copied().collect();
        prop_assert_eq!(acc.iter_ones().collect::<Vec<_>>(),
                        expect.into_iter().collect::<Vec<_>>());

        let mut clipped = BitVec::zeros(clip_len);
        row.as_ref().or_into_clipped(&mut clipped);
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
            let clipped = m.fold_or_clipped(dim, &mut acc);
            prop_assert_eq!(acc, m.fold(dim).resized(space));
            // It reports whether a coordinate lay beyond the space.
            let coord = |&(r, c): &(u32, u32)| if dim == RetainDim::Row { r } else { c };
            prop_assert_eq!(clipped, pairs.iter().map(coord).any(|x| x >= space));
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

    /// The delta edit `(base ∪ ins) ∖ tomb`, computed over runs, against
    /// the positions it must hold: the same row, representation included,
    /// for a base of either representation or none, and `None` exactly
    /// when nothing is left. Inserts may repeat base bits and tombstones
    /// may miss them, or hit inserts.
    #[test]
    fn row_edit_matches_rebuilt_positions(
        base_kind in 0u8..4,
        blocks in arb_blocky_positions(200),
        bits in arb_positions(200),
        ins in prop::collection::btree_set(0u32..200, 0..24),
        tomb_blocks in arb_blocky_positions(200),
        tomb_bits in arb_positions(200),
    ) {
        // No base, a runs-biased one, scattered bits (mostly sparse), or
        // runs of one and two bits, near the hybrid rule's boundary.
        let pairs: BTreeSet<u32> = bits
            .iter()
            .flat_map(|&b| if b % 3 == 0 { b..b + 1 } else { b..(b + 2).min(200) })
            .collect();
        let base = match base_kind {
            0 => None,
            1 => Some(BitRow::from_sorted_positions(200, &blocks)),
            2 => Some(BitRow::from_sorted_positions(200, &bits)),
            _ => Some(BitRow::from_sorted_positions(200, &pairs.into_iter().collect::<Vec<_>>())),
        };
        let tomb: BTreeSet<u32> = tomb_blocks.iter().chain(tomb_bits.iter().step_by(3)).copied().collect();
        let want: BTreeSet<u32> = base.iter().flat_map(BitRow::iter_ones)
            .chain(ins.iter().copied())
            .filter(|p| !tomb.contains(p))
            .collect();
        let want: Vec<u32> = want.into_iter().collect();
        let got = BitRow::edit(base.as_ref().map(BitRow::as_ref), 200, ins.iter().copied(), tomb.iter().copied());
        let want = (!want.is_empty()).then(|| BitRow::from_sorted_positions(200, &want));
        prop_assert_eq!(got, want);
    }

    /// The segment word codec: a written row parses back to itself and
    /// consumes exactly the words it wrote; every truncation of them, and
    /// an empty row, is rejected.
    #[test]
    fn row_codec_roundtrip(a in arb_blocky_positions(400)) {
        let row = BitRow::from_sorted_positions(400, &a);
        let words = row_words(&row);
        match RowRef::parse(&words, 400) {
            Some(back) => {
                prop_assert_eq!(back.to_owned(), row);
                prop_assert_eq!(4 * words.len(), 4 * 2 + back.encoded_bytes() - 1);
            }
            None => prop_assert!(a.is_empty(), "a non-empty row must parse"),
        }
        for n in 0..words.len() {
            prop_assert!(RowRef::parse(&words[..n], 400).is_none(), "truncated to {} words", n);
        }
    }

    /// `seek_row` answers what `row` does for any lookup sequence —
    /// ascending, descending, repeated or arbitrary ids, present or absent,
    /// from any starting finger including one past the last row — and
    /// leaves the finger at the first slot whose id is at least the one
    /// sought.
    #[test]
    fn seek_row_agrees_with_row(
        pairs in prop::collection::btree_set((0u32..48, 0u32..20), 0..80),
        lookups in prop::collection::vec(0u32..56, 0..40),
        order in 0u8..3,
        start in 0usize..64,
    ) {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let m = BitMat::from_sorted_pairs(56, 20, &pairs);
        let ids: Vec<u32> = m.rows().map(|(id, _)| id).collect();
        let mut lookups = lookups;
        match order {
            0 => lookups.sort_unstable(),
            1 => lookups.sort_unstable_by(|a, b| b.cmp(a)),
            _ => {}
        }
        // Repeat every other lookup at once.
        let lookups: Vec<u32> = lookups
            .iter()
            .enumerate()
            .flat_map(|(i, &r)| std::iter::repeat_n(r, 1 + i % 2))
            .collect();
        let mut finger = start;
        for r in lookups {
            let got = m.seek_row(r, &mut finger).map(|row| row.iter_ones().collect::<Vec<_>>());
            let want = m.row(r).map(|row| row.iter_ones().collect::<Vec<_>>());
            prop_assert_eq!(got, want, "row {}", r);
            prop_assert_eq!(finger, ids.partition_point(|&id| id < r), "finger after row {}", r);
        }
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
