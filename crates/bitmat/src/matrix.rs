//! 2-D BitMats with the paper's `fold` / `unfold` primitives.

use crate::bitvec::BitVec;
use crate::kernel::SetScratch;
use crate::row::BitRow;

/// Which dimension a `fold`/`unfold` retains (the paper's
/// `RetainDimension` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainDim {
    /// The row dimension of this matrix.
    Row,
    /// The column dimension of this matrix.
    Col,
}

/// A sparse 2-D bit matrix: non-empty rows only, each hybrid-compressed.
///
/// For an S-O BitMat of predicate `p`, a set bit `(s, o)` means the triple
/// `(s p o)` exists. Folds project one dimension; unfolds clear bits whose
/// retained-dimension coordinate is absent from a mask — together they
/// implement the paper's semi-joins without decompressing rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMat {
    n_rows: u32,
    n_cols: u32,
    /// Non-empty rows, ascending by row index.
    rows: Vec<(u32, BitRow)>,
    count: u64,
}

impl BitMat {
    /// An empty matrix.
    pub fn empty(n_rows: u32, n_cols: u32) -> Self {
        BitMat {
            n_rows,
            n_cols,
            rows: Vec::new(),
            count: 0,
        }
    }

    /// Builds from `(row, col)` pairs sorted ascending by `(row, col)` with
    /// no duplicates.
    pub fn from_sorted_pairs(n_rows: u32, n_cols: u32, pairs: &[(u32, u32)]) -> Self {
        let mut rows: Vec<(u32, BitRow)> = Vec::new();
        let mut i = 0;
        let mut cols: Vec<u32> = Vec::new();
        while i < pairs.len() {
            let r = pairs[i].0;
            cols.clear();
            while i < pairs.len() && pairs[i].0 == r {
                cols.push(pairs[i].1);
                i += 1;
            }
            debug_assert!(r < n_rows, "row out of range");
            rows.push((r, BitRow::from_sorted_positions(n_cols, &cols)));
        }
        let count = pairs.len() as u64;
        BitMat {
            n_rows,
            n_cols,
            rows,
            count,
        }
    }

    /// Builds a matrix from pre-compressed rows (ascending, non-empty).
    pub fn from_rows(n_rows: u32, n_cols: u32, rows: Vec<(u32, BitRow)>) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        let count = rows.iter().map(|(_, r)| r.count_ones() as u64).sum();
        BitMat {
            n_rows,
            n_cols,
            rows,
            count,
        }
    }

    /// Number of rows in the (conceptual, dense) row dimension.
    pub fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Number of columns in the column dimension.
    pub fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// Number of set bits (triples held by this matrix).
    pub fn triple_count(&self) -> u64 {
        self.count
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The non-empty rows, ascending by row index.
    pub fn rows(&self) -> &[(u32, BitRow)] {
        &self.rows
    }

    /// The non-empty rows, moved out.
    pub fn into_rows(self) -> Vec<(u32, BitRow)> {
        self.rows
    }

    /// Fetches a row by index (binary search; `None` if empty).
    pub fn row(&self, r: u32) -> Option<&BitRow> {
        self.rows
            .binary_search_by_key(&r, |&(id, _)| id)
            .ok()
            .map(|i| &self.rows[i].1)
    }

    /// Membership test for a single bit.
    pub fn get(&self, r: u32, c: u32) -> bool {
        self.row(r).is_some_and(|row| row.contains(c))
    }

    /// `fold(BM, dim)` — projects the distinct coordinates of `dim`
    /// (paper: `fold(BMtp, dim?j) ≡ π?j(BMtp)`).
    ///
    /// * `Row`: a mask with one bit per **non-empty row** (no row needs to
    ///   be decompressed — row presence is already explicit),
    /// * `Col`: the bitwise OR of all rows, streamed run-wise.
    pub fn fold(&self, dim: RetainDim) -> BitVec {
        let mut v = BitVec::zeros(match dim {
            RetainDim::Row => self.n_rows,
            RetainDim::Col => self.n_cols,
        });
        self.fold_or_clipped(dim, &mut v);
        v
    }

    /// `acc |= fold(BM, dim)`, clipped to `acc.len()` — the in-place fold
    /// kernel: projects straight into a caller-owned accumulator that may
    /// live in a shorter (shared-prefix) binding space, without allocating
    /// the intermediate mask `fold().resized()` would.
    pub fn fold_or_clipped(&self, dim: RetainDim, acc: &mut BitVec) {
        match dim {
            RetainDim::Row => {
                // Rows ascend, so the first out-of-space row ends the scan.
                for &(r, _) in &self.rows {
                    if r >= acc.len() {
                        break;
                    }
                    acc.set(r);
                }
            }
            RetainDim::Col => {
                for (_, row) in &self.rows {
                    row.or_into_clipped(acc);
                }
            }
        }
    }

    /// `unfold(BM, mask, dim)` — clears every bit whose `dim` coordinate is
    /// **not** set in `mask` (paper: keep triples `t` with `t.?j ∈ β?j`).
    ///
    /// * `Row`: drops rows absent from the mask (O(#rows), no row touched),
    /// * `Col`: ANDs every row with the mask, dropping emptied rows.
    ///
    /// Allocating convenience wrapper over [`BitMat::unfold_with`].
    pub fn unfold(&mut self, mask: &BitVec, dim: RetainDim) {
        match dim {
            RetainDim::Row => debug_assert_eq!(mask.len(), self.n_rows),
            RetainDim::Col => debug_assert_eq!(mask.len(), self.n_cols),
        }
        let mut scratch = SetScratch::default();
        self.unfold_with(mask, dim, &mut scratch);
    }

    /// [`BitMat::unfold`] through caller-owned kernel scratch, with clipped
    /// mask semantics: mask bits beyond `mask.len()` read as zero, so the
    /// mask may live in a shorter (shared-prefix) or longer binding space
    /// without a resizing copy. Steady-state calls perform no heap
    /// allocation (rows are rewritten in place via
    /// [`BitRow::and_mask_in_place`]).
    pub fn unfold_with(&mut self, mask: &BitVec, dim: RetainDim, scratch: &mut SetScratch) {
        match dim {
            RetainDim::Row => {
                // Out-of-range reads are false, matching the zero-padding
                // of a resized mask.
                self.rows.retain(|&(r, _)| mask.get(r));
            }
            RetainDim::Col => {
                for (_, row) in self.rows.iter_mut() {
                    row.and_mask_in_place(mask, scratch);
                }
                self.rows.retain(|(_, row)| !row.is_empty());
            }
        }
        self.count = self.rows.iter().map(|(_, r)| r.count_ones() as u64).sum();
    }

    /// A copy holding only the triples the masks keep: the same matrix as
    /// `clone()` followed by [`BitMat::unfold_with`] on the row mask and
    /// on the column mask (`None` keeps that dimension whole; masks are
    /// clipped the same way), without cloning a row the masks drop.
    ///
    /// Kept rows are found by probing the row mask's set bits when it has
    /// fewer of them than the matrix has rows, and by walking the rows
    /// otherwise. Each is ANDed with the column mask by
    /// [`BitRow::and_mask_copy`], so only non-empty rows are allocated.
    pub fn masked(
        &self,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> BitMat {
        let candidates = rows.map_or(usize::MAX, |m| m.count_ones() as usize);
        let mut kept = Vec::with_capacity(candidates.min(self.rows.len()));
        let mut keep = |r: u32, row: &BitRow| {
            let row = match cols {
                Some(mask) => row.and_mask_copy(mask, scratch),
                None => Some(row.clone()),
            };
            kept.extend(row.map(|row| (r, row)));
        };
        match rows {
            Some(mask) if candidates < self.rows.len() => {
                for r in mask.iter_ones() {
                    if let Some(row) = self.row(r) {
                        keep(r, row);
                    }
                }
            }
            _ => {
                for (r, row) in &self.rows {
                    if rows.is_none_or(|mask| mask.get(*r)) {
                        keep(*r, row);
                    }
                }
            }
        }
        BitMat::from_rows(self.n_rows, self.n_cols, kept)
    }

    /// Transposed copy (rows ↔ columns). An O-S BitMat is the transpose of
    /// the corresponding S-O BitMat (§4).
    pub fn transpose(&self) -> BitMat {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(self.count as usize);
        for (r, row) in &self.rows {
            for c in row.iter_ones() {
                pairs.push((c, *r));
            }
        }
        pairs.sort_unstable();
        BitMat::from_sorted_pairs(self.n_cols, self.n_rows, &pairs)
    }

    /// Iterates set bits as `(row, col)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.rows
            .iter()
            .flat_map(|(r, row)| row.iter_ones().map(move |c| (*r, c)))
    }

    /// Hybrid-encoded size in bytes (per-row tag + integers + row directory).
    pub fn encoded_bytes(&self) -> usize {
        // 8 bytes of row directory (id + offset) per non-empty row.
        self.rows
            .iter()
            .map(|(_, r)| r.encoded_bytes() + 8)
            .sum::<usize>()
            + 24
    }

    /// Size in bytes if every row were forced into pure RLE (ablation).
    pub fn rle_only_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|(_, r)| r.rle_only_bytes() + 8)
            .sum::<usize>()
            + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The S-O BitMat of predicate `:actedIn` from Figure 4.1 of the paper
    /// (data of Figure 3.2), with IDs assigned in first-seen order:
    /// subjects {Julia=0, Larry=1}, objects {Seinfeld=0, Veep=1,
    /// NewAdvOldChristine=2, CurbYourEnthu=3}.
    fn acted_in() -> BitMat {
        BitMat::from_sorted_pairs(2, 4, &[(0, 0), (0, 1), (0, 2), (0, 3), (1, 3)])
    }

    #[test]
    fn figure_4_1_counts() {
        let m = acted_in();
        assert_eq!(m.triple_count(), 5);
        assert!(m.get(0, 0) && m.get(1, 3));
        assert!(!m.get(1, 0));
        assert_eq!(m.row(1).unwrap().count_ones(), 1);
        assert!(m.row(5).is_none());
    }

    #[test]
    fn fold_row_and_col() {
        let m = acted_in();
        assert_eq!(
            m.fold(RetainDim::Row).iter_ones().collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            m.fold(RetainDim::Col).iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn unfold_col_removes_bindings() {
        // Keep only object Seinfeld(0): Larry's row empties out — exactly the
        // ripple effect of Example-1 in §3.1.
        let mut m = acted_in();
        let mask = BitVec::from_positions(4, [0]);
        m.unfold(&mask, RetainDim::Col);
        assert_eq!(m.triple_count(), 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, 0)]);
        assert_eq!(
            m.fold(RetainDim::Row).iter_ones().collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn unfold_row() {
        let mut m = acted_in();
        let mask = BitVec::from_positions(2, [1]);
        m.unfold(&mask, RetainDim::Row);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(1, 3)]);
        assert_eq!(m.triple_count(), 1);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = acted_in();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.triple_count(), m.triple_count());
        assert!(t.get(3, 1) && t.get(0, 0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn empty_matrix_behaviour() {
        let mut m = BitMat::empty(3, 3);
        assert!(m.is_empty());
        assert_eq!(m.fold(RetainDim::Col).count_ones(), 0);
        m.unfold(&BitVec::ones(3), RetainDim::Col);
        assert!(m.is_empty());
        assert_eq!(m.transpose().triple_count(), 0);
    }

    #[test]
    fn sizes_hybrid_not_larger_than_rle() {
        let m = acted_in();
        assert!(m.encoded_bytes() <= m.rle_only_bytes());
    }
}
