//! 2-D BitMats with the paper's `fold` / `unfold` primitives, each stored
//! as one flat arena.
//!
//! A matrix is three vectors, whatever its row count: the ids of its
//! non-empty rows (ascending, the binary-search key), one span per row
//! (where its body ends, its bit count, and whether the body is runs or
//! sparse positions), and one `Vec<u32>` holding every row body back to
//! back. A row is read by lending a [`RowRef`] over its slice of the
//! arena, so building, masking, pruning, joining over and dropping a
//! matrix costs O(1) allocations, not one per row.

use crate::bitvec::BitVec;
use crate::kernel::{and_mask_compute, SetScratch};
use crate::row::{edit_into, Hybrid, RowRef};
use std::convert::Infallible;

/// Which dimension a `fold`/`unfold` retains (the paper's
/// `RetainDimension` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainDim {
    /// The row dimension of this matrix.
    Row,
    /// The column dimension of this matrix.
    Col,
}

/// Flags a runs body in [`Span::end`].
const RUNS: u32 = 1 << 31;

/// One stored row's place in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    /// Where the body ends in the arena (it starts where the previous
    /// row's ends); the top bit ([`RUNS`]) is set for a runs body.
    end: u32,
    /// Set bits of the row.
    count: u32,
}

impl Span {
    fn new(end: usize, count: u32, runs: bool) -> Span {
        let end = u32::try_from(end)
            .ok()
            .filter(|&e| e < RUNS)
            .expect("a matrix's arena holds fewer than 2^31 words");
        Span {
            end: end | if runs { RUNS } else { 0 },
            count,
        }
    }

    fn end(self) -> usize {
        (self.end & !RUNS) as usize
    }

    /// The span of the same body moved `shift` words towards the front.
    fn moved_down(self, shift: usize) -> Span {
        Span {
            end: self.end - shift as u32,
            count: self.count,
        }
    }

    fn runs(self) -> bool {
        self.end & RUNS != 0
    }
}

/// A sparse 2-D bit matrix: non-empty rows only, each hybrid-compressed,
/// all in one arena.
///
/// For an S-O BitMat of predicate `p`, a set bit `(s, o)` means the triple
/// `(s p o)` exists. Folds project one dimension; unfolds clear bits whose
/// retained-dimension coordinate is absent from a mask — together they
/// implement the paper's semi-joins without decompressing rows.
///
/// The arena is canonical: rows ascend, none is empty, bodies are packed
/// with no gap, and every row built or rewritten here takes the encoding
/// the hybrid rule picks. The derived `PartialEq` is therefore set
/// equality for any two matrices built from the same triples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMat {
    n_rows: u32,
    n_cols: u32,
    /// Ids of the non-empty rows, ascending.
    ids: Vec<u32>,
    /// One span per id.
    spans: Vec<Span>,
    /// The row bodies, back to back in row order: ascending positions or
    /// flattened `[start, end)` runs.
    words: Vec<u32>,
    count: u64,
}

impl BitMat {
    /// An empty matrix.
    pub fn empty(n_rows: u32, n_cols: u32) -> Self {
        Self::with_capacity(n_rows, n_cols, 0, 0)
    }

    /// An empty matrix whose arena has room for `rows` rows of `words`
    /// body words in all, to be filled by [`BitMat::push_row`] and
    /// [`BitMat::push_edit`].
    pub fn with_capacity(n_rows: u32, n_cols: u32, rows: usize, words: usize) -> Self {
        BitMat {
            n_rows,
            n_cols,
            ids: Vec::with_capacity(rows),
            spans: Vec::with_capacity(rows),
            words: Vec::with_capacity(words),
            count: 0,
        }
    }

    /// Builds from `(row, col)` pairs sorted ascending by `(row, col)` with
    /// no duplicates. One pass sizes the arena exactly, a second fills it.
    pub fn from_sorted_pairs(n_rows: u32, n_cols: u32, pairs: &[(u32, u32)]) -> Self {
        fn cols(row: &[(u32, u32)]) -> impl Iterator<Item = u32> + Clone + '_ {
            row.iter().map(|&(_, c)| c)
        }
        let rows = || pairs.chunk_by(|a, b| a.0 == b.0);
        let (n, words) = rows().fold((0, 0), |(n, words), row| {
            (n + 1, words + Hybrid::of(cols(row)).words())
        });
        let mut mat = Self::with_capacity(n_rows, n_cols, n, words);
        for row in rows() {
            debug_assert!(row[0].0 < n_rows, "row out of range");
            mat.push_positions(row[0].0, cols(row));
        }
        mat
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

    /// Number of non-empty rows.
    pub fn n_present(&self) -> usize {
        self.ids.len()
    }

    /// Words the row bodies take in the arena.
    pub fn arena_words(&self) -> usize {
        self.words.len()
    }

    /// The non-empty rows, ascending by row index, each lent from the
    /// arena.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (u32, RowRef<'_>)> + '_ {
        let mut start = 0;
        self.ids.iter().zip(&self.spans).map(move |(&id, &span)| {
            let body = &self.words[start..span.end()];
            start = span.end();
            (
                id,
                RowRef::from_body(self.n_cols, span.count, span.runs(), body),
            )
        })
    }

    /// Fetches a row by index (binary search; `None` if empty).
    pub fn row(&self, r: u32) -> Option<RowRef<'_>> {
        self.slot_of(r).map(|k| self.row_at(k))
    }

    /// Slot of row `r` in the arena, `None` when it is empty.
    fn slot_of(&self, r: u32) -> Option<usize> {
        self.ids.binary_search(&r).ok()
    }

    /// Where the body of the row in slot `k` starts.
    fn start_of(&self, k: usize) -> usize {
        k.checked_sub(1).map_or(0, |prev| self.spans[prev].end())
    }

    /// The row in slot `k`.
    fn row_at(&self, k: usize) -> RowRef<'_> {
        let span = self.spans[k];
        let body = &self.words[self.start_of(k)..span.end()];
        RowRef::from_body(self.n_cols, span.count, span.runs(), body)
    }

    /// Appends row `id`, which must come after every stored row, as a copy
    /// of `row` (non-empty, over this matrix's columns).
    pub fn push_row(&mut self, id: u32, row: RowRef<'_>) {
        debug_assert_eq!(row.universe(), self.n_cols, "row/column mismatch");
        let (runs, body) = row.body_words();
        self.words.extend_from_slice(body);
        self.close_row(id, row.count_ones(), runs);
    }

    /// Appends row `id`, which must come after every stored row, as
    /// `(base ∪ ins) ∖ tomb` (`base` `None`: the row is new), edited
    /// straight into the arena at run level like [`crate::BitRow::edit`];
    /// nothing is appended when the edit leaves the row empty. `ins` and
    /// `tomb` are ascending columns of this matrix; a column in both is
    /// removed.
    pub fn push_edit(
        &mut self,
        id: u32,
        base: Option<RowRef<'_>>,
        ins: impl Iterator<Item = u32> + Clone,
        tomb: impl Iterator<Item = u32> + Clone,
    ) {
        let shape = edit_into(base, ins, tomb, &mut self.words);
        if shape.count > 0 {
            self.close_row(id, shape.count, shape.runs());
        }
    }

    /// Appends row `id` holding the ascending `positions` (at least one)
    /// in the encoding the hybrid rule picks.
    fn push_positions(&mut self, id: u32, positions: impl Iterator<Item = u32> + Clone) {
        let shape = Hybrid::of(positions.clone());
        shape.write(positions, &mut self.words);
        self.close_row(id, shape.count, shape.runs());
    }

    /// Appends row `id` as `row & mask`, when anything is left of it.
    fn push_masked(&mut self, id: u32, row: RowRef<'_>, mask: &BitVec, scratch: &mut SetScratch) {
        and_mask_compute(row, mask, &mut scratch.pos);
        if !scratch.pos.is_empty() {
            self.push_positions(id, scratch.pos.iter().copied());
        }
    }

    /// Records the row whose body was just appended to the arena.
    fn close_row(&mut self, id: u32, count: u32, runs: bool) {
        debug_assert!(count > 0, "a stored row is never empty");
        debug_assert!(id < self.n_rows, "row out of range");
        debug_assert!(self.ids.last().is_none_or(|&last| last < id), "rows ascend");
        self.ids.push(id);
        self.spans.push(Span::new(self.words.len(), count, runs));
        self.count += u64::from(count);
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
                for &r in &self.ids {
                    if r >= acc.len() {
                        break;
                    }
                    acc.set(r);
                }
            }
            RetainDim::Col => {
                for (_, row) in self.rows() {
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
    /// without a resizing copy.
    ///
    /// The arena is compacted in place, front to back: nothing moves before
    /// the first row the mask drops or changes, each later row moves down
    /// once, and the triple count drops by what was cleared. A rewritten row
    /// is usually no longer than before, but a runs row the mask splits can
    /// outgrow the space it may be written into; then the bodies not yet
    /// read move aside into `scratch` and the rest of the arena is appended.
    /// Steady-state calls perform no heap allocation.
    pub fn unfold_with(&mut self, mask: &BitVec, dim: RetainDim, scratch: &mut SetScratch) {
        match dim {
            RetainDim::Row => self.retain_rows(mask),
            RetainDim::Col => self.mask_cols(mask, scratch),
        }
    }

    // lbr-lint: no_alloc — the in-place unfold: it compacts the arena and
    // reuses caller-owned scratch; alloc_check's warm prune measures the
    // same property at runtime.
    /// `unfold_with` on the row dimension: drops the rows absent from
    /// `mask`, moving each run of kept bodies down over them at once.
    fn retain_rows(&mut self, mask: &BitVec) {
        // Nothing moves before the first dropped row.
        let Some(first) = self.ids.iter().position(|&id| !mask.get(id)) else {
            return;
        };
        // Rows kept, words dropped so far (`shift`), and where the next body
        // starts; the kept bodies from `pending` on have yet to move down
        // by `shift`.
        let (mut kept, mut shift, mut from) = (first, 0, self.start_of(first));
        let mut pending = from;
        for k in first..self.ids.len() {
            let (id, span) = (self.ids[k], self.spans[k]);
            let end = span.end();
            if mask.get(id) {
                self.ids[kept] = id;
                self.spans[kept] = span.moved_down(shift);
                kept += 1;
            } else {
                move_down(&mut self.words, pending..from, shift);
                shift += end - from;
                pending = end;
                self.count -= u64::from(span.count);
            }
            from = end;
        }
        move_down(&mut self.words, pending..from, shift);
        self.ids.truncate(kept);
        self.spans.truncate(kept);
        self.words.truncate(from - shift);
    }

    /// `unfold_with` on the column dimension: ANDs every row with `mask`
    /// and packs what is left.
    fn mask_cols(&mut self, mask: &BitVec, scratch: &mut SetScratch) {
        let (caps, words_cap) = (scratch.caps(), self.words.capacity());
        // As in `retain_rows`: rows kept, words freed ahead of the next
        // body (`shift`), where it starts, and the unchanged kept bodies
        // from `pending` on that have yet to move down by `shift`. Once a
        // rewritten row has spilled, the bodies from `spilled` on are read
        // from `scratch.spill` and every kept body is appended instead.
        let (mut kept, mut shift, mut from, mut pending) = (0, 0, 0, 0);
        let mut spilled: Option<usize> = None;
        for k in 0..self.ids.len() {
            let span = self.spans[k];
            let (start, end) = (from, span.end());
            from = end;
            let body = match spilled {
                None => &self.words[start..end],
                Some(at) => &scratch.spill[start - at..end - at],
            };
            let row = RowRef::from_body(self.n_cols, span.count, span.runs(), body);
            and_mask_compute(row, mask, &mut scratch.pos);
            let count = scratch.pos.len() as u32;
            let (new_end, runs) = if count == span.count {
                // Unchanged: the body moves as it is, if it moves at all.
                let new_end = match spilled {
                    None if kept == k && shift == 0 => {
                        kept += 1;
                        continue;
                    }
                    None => end - shift,
                    Some(at) => {
                        let body = &scratch.spill[start - at..end - at];
                        self.words.extend_from_slice(body);
                        self.words.len()
                    }
                };
                (new_end, span.runs())
            } else {
                self.count -= u64::from(span.count - count);
                if spilled.is_none() {
                    move_down(&mut self.words, pending..start, shift);
                    pending = end;
                }
                if count == 0 {
                    shift += end - start;
                    continue;
                }
                let shape = Hybrid::of(scratch.pos.iter().copied());
                let body = if shape.runs() {
                    scratch.body.clear();
                    shape.write(scratch.pos.iter().copied(), &mut scratch.body);
                    &scratch.body
                } else {
                    &scratch.pos
                };
                if spilled.is_none() && start - shift + body.len() > end {
                    scratch.spill.clear();
                    scratch.spill.extend_from_slice(&self.words[end..]);
                    self.words.truncate(start - shift);
                    spilled = Some(end);
                }
                let new_end = if spilled.is_none() {
                    let to = start - shift;
                    self.words[to..to + body.len()].copy_from_slice(body);
                    shift = end - (to + body.len());
                    to + body.len()
                } else {
                    self.words.extend_from_slice(body);
                    self.words.len()
                };
                (new_end, shape.runs())
            };
            self.ids[kept] = self.ids[k];
            self.spans[kept] = Span::new(new_end, count, runs);
            kept += 1;
        }
        if spilled.is_none() {
            move_down(&mut self.words, pending..from, shift);
            self.words.truncate(from - shift);
        }
        self.ids.truncate(kept);
        self.spans.truncate(kept);
        scratch.account(caps, self.words.capacity() != words_cap);
    }
    // lbr-lint: end

    /// A copy holding only the triples the masks keep: the same matrix as
    /// `clone()` followed by [`BitMat::unfold_with`] on the row mask and
    /// on the column mask (`None` keeps that dimension whole; masks are
    /// clipped the same way), without copying a row the masks drop — the
    /// heap's side of the one masked-load walk the mmap catalog's
    /// [`crate::Catalog::masked`] takes too.
    pub fn masked(
        &self,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> BitMat {
        let Ok(mat) = masked_walk(self, (self.n_rows, self.n_cols), rows, cols, scratch);
        mat
    }

    /// Transposed copy (rows ↔ columns). An O-S BitMat is the transpose of
    /// the corresponding S-O BitMat (§4).
    pub fn transpose(&self) -> BitMat {
        let mut pairs: Vec<(u32, u32)> = self.iter().map(|(r, c)| (c, r)).collect();
        pairs.sort_unstable();
        BitMat::from_sorted_pairs(self.n_cols, self.n_rows, &pairs)
    }

    /// Iterates set bits as `(row, col)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.rows()
            .flat_map(|(r, row)| row.iter_ones().map(move |c| (r, c)))
    }

    /// Hybrid-encoded size in bytes (per-row tag + integers + row directory).
    pub fn encoded_bytes(&self) -> usize {
        // Per row a 1-byte tag and 8 bytes of row directory (id + offset),
        // plus 4 bytes per body word.
        9 * self.ids.len() + 4 * self.words.len() + 24
    }

    /// Size in bytes if every row were forced into pure RLE (ablation).
    pub fn rle_only_bytes(&self) -> usize {
        self.rows()
            .map(|(_, r)| r.rle_only_bytes() + 8)
            .sum::<usize>()
            + 24
    }
}

/// Moves the bodies in `words[range]` down by `shift` words; a no-op when
/// there is nothing to move.
fn move_down(words: &mut [u32], range: std::ops::Range<usize>, shift: usize) {
    if shift > 0 && !range.is_empty() {
        let to = range.start - shift;
        words.copy_within(range, to);
    }
}

/// A medium's stored rows as the masked load reads them: present rows,
/// ascending by row id, addressed by their slot in that order.
pub(crate) trait RowDirectory<'a> {
    /// Why reading a row can fail: a mapped row's words may be corrupt.
    type Error;
    /// Number of present (non-empty) rows.
    fn n_present(&self) -> usize;
    /// Body words of all present rows together (an estimate is enough: it
    /// sizes the loaded arena).
    fn body_words(&self) -> usize;
    /// Row id at `slot`.
    fn id_at(&self, slot: usize) -> u32;
    /// Slot of row `r`, `None` when the row is absent.
    fn slot_of(&self, r: u32) -> Option<usize>;
    /// The row at `slot`.
    fn row_at(&self, slot: usize) -> Result<RowRef<'a>, Self::Error>;
}

impl<'a> RowDirectory<'a> for &'a BitMat {
    type Error = Infallible;

    fn n_present(&self) -> usize {
        self.ids.len()
    }

    fn body_words(&self) -> usize {
        self.words.len()
    }

    fn id_at(&self, slot: usize) -> u32 {
        self.ids[slot]
    }

    fn slot_of(&self, r: u32) -> Option<usize> {
        BitMat::slot_of(self, r)
    }

    fn row_at(&self, slot: usize) -> Result<RowRef<'a>, Infallible> {
        Ok(BitMat::row_at(self, slot))
    }
}

/// The masked load over any medium's rows ([`BitMat::masked`],
/// [`crate::Catalog::masked`]): an `n_rows × n_cols` matrix of only the
/// triples whose row is set in `rows` and whose column is set in `cols`
/// (`None` keeps a dimension whole; masks are clipped as in
/// [`BitMat::unfold_with`]).
///
/// Kept rows are found by probing the row mask's set bits when it has
/// fewer of them than the medium has rows, and by walking the directory
/// otherwise. Each is read, then ANDed with the column mask in `scratch`
/// and appended to the new matrix's arena, which is sized up front for
/// the rows the row mask may keep; a whole load is sized exactly. A row
/// the masks drop is never read, so on a mapped segment a corrupt one is
/// not an error.
pub(crate) fn masked_walk<'a, D: RowDirectory<'a>>(
    dir: D,
    (n_rows, n_cols): (u32, u32),
    rows: Option<&BitVec>,
    cols: Option<&BitVec>,
    scratch: &mut SetScratch,
) -> Result<BitMat, D::Error> {
    let n = dir.n_present();
    let candidates = rows.map_or(usize::MAX, |m| m.count_ones() as usize);
    let kept = candidates.min(n);
    let words = (dir.body_words() as u64 * kept as u64 / n.max(1) as u64) as usize;
    let mut mat = BitMat::with_capacity(n_rows, n_cols, kept, words);
    let mut keep = |slot: usize| -> Result<(), D::Error> {
        let (id, row) = (dir.id_at(slot), dir.row_at(slot)?);
        match cols {
            Some(mask) => mat.push_masked(id, row, mask, scratch),
            None => mat.push_row(id, row),
        }
        Ok(())
    };
    match rows {
        Some(mask) if candidates < n => {
            for r in mask.iter_ones() {
                if let Some(slot) = dir.slot_of(r) {
                    keep(slot)?;
                }
            }
        }
        _ => {
            for slot in 0..n {
                if rows.is_none_or(|mask| mask.get(dir.id_at(slot))) {
                    keep(slot)?;
                }
            }
        }
    }
    Ok(mat)
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

    /// A runs row mid-matrix that the mask splits into isolated bits
    /// needs more words than its slot: the unread bodies move aside, the
    /// result is the matrix rebuilt from the surviving triples, and a warm
    /// repeat allocates nothing.
    #[test]
    fn runs_row_outgrowing_its_slot_spills() {
        let mut pairs = vec![(0, 1)];
        pairs.extend((0..40).map(|c| (1, c)));
        pairs.extend([(2, 5), (2, 7)]);
        pairs.extend((2..10).map(|c| (3, c)));
        let mut m = BitMat::from_sorted_pairs(4, 64, &pairs);
        assert!(!m.row(1).unwrap().to_owned().is_sparse());
        let odd = BitVec::from_positions(64, (1..64).step_by(2));
        let mut scratch = SetScratch::default();
        m.unfold_with(&odd, RetainDim::Col, &mut scratch);
        let kept: Vec<(u32, u32)> = pairs.into_iter().filter(|&(_, c)| c % 2 == 1).collect();
        assert_eq!(m, BitMat::from_sorted_pairs(4, 64, &kept));
        assert_eq!(m.triple_count(), kept.len() as u64);
        let grows = scratch.grows();
        m.unfold_with(&odd, RetainDim::Col, &mut scratch);
        assert_eq!(m, BitMat::from_sorted_pairs(4, 64, &kept));
        assert_eq!(scratch.grows(), grows, "a warm unfold allocates nothing");
    }

    /// Rows before the first dropped one stay where they are; the rest move
    /// down over it, and the arena is the rebuilt one.
    #[test]
    fn unfold_compacts_the_arena() {
        let mut m = acted_in();
        m.unfold(&BitVec::from_positions(2, [1]), RetainDim::Row);
        assert_eq!(m, BitMat::from_sorted_pairs(2, 4, &[(1, 3)]));
        assert_eq!((m.n_present(), m.arena_words()), (1, 1));
        let mut m = acted_in();
        m.unfold(&BitVec::from_positions(4, [3]), RetainDim::Col);
        assert_eq!(m, BitMat::from_sorted_pairs(2, 4, &[(0, 3), (1, 3)]));
    }

    #[test]
    fn sizes_hybrid_not_larger_than_rle() {
        let m = acted_in();
        assert!(m.encoded_bytes() <= m.rle_only_bytes());
    }
}
