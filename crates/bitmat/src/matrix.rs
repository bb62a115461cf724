//! 2-D BitMats with the paper's `fold` / `unfold` primitives, each stored
//! as one flat arena.
//!
//! A matrix is three vectors, whatever its row count: the ids of its
//! non-empty rows (ascending, the binary-search key), one span per row
//! (where its body ends, its bit count, and whether the body is runs or
//! sparse positions), and one `Vec<u32>` holding every row body back to
//! back. A [`BitMat`] builds and edits the arena; every read runs on the
//! borrowed [`BitMatRef`] it lends, which a mapped segment lends over the
//! same three arrays in its bytes. A row is read by lending a [`RowRef`]
//! over its slice of the arena, so building, masking, pruning, joining
//! over and dropping a matrix costs O(1) allocations, not one per row.

use crate::bitvec::BitVec;
use crate::error::BitMatError;
use crate::kernel::{and_mask_compute, gallop_geq, SetScratch};
use crate::row::{edit_into, Hybrid, RowRef};

/// Which dimension a `fold`/`unfold` retains (the paper's
/// `RetainDimension` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainDim {
    /// The row dimension of this matrix.
    Row,
    /// The column dimension of this matrix.
    Col,
}

/// Flags a runs body in a [`Span`]'s end word.
const RUNS: u32 = 1 << 31;

/// One stored row's place in the arena, `[end | RUNS, count]`: where its
/// body ends (it starts where the previous row's ends), with the top bit
/// ([`RUNS`]) set for a runs body, and its bit count. A heap arena and a
/// mapped segment hold spans as the same slice type.
pub(crate) type Span = [u32; 2];

fn span(end: usize, count: u32, runs: bool) -> Span {
    let end = u32::try_from(end)
        .ok()
        .filter(|&e| e < RUNS)
        .expect("a matrix's arena holds fewer than 2^31 words");
    [end | if runs { RUNS } else { 0 }, count]
}

fn end_of([end, _]: Span) -> usize {
    (end & !RUNS) as usize
}

fn runs_of([end, _]: Span) -> bool {
    end & RUNS != 0
}

/// A sparse 2-D bit matrix: non-empty rows only, each hybrid-compressed,
/// all in one arena.
///
/// For an S-O BitMat of predicate `p`, a set bit `(s, o)` means the triple
/// `(s p o)` exists. Folds project one dimension; unfolds clear bits whose
/// retained-dimension coordinate is absent from a mask — together they
/// implement the paper's semi-joins without decompressing rows.
///
/// A `BitMat` only builds and edits its arena; every read, its shape and
/// counts included, goes through the view [`BitMat::as_ref`] lends, the
/// same [`BitMatRef`] a mapped segment's matrix is read through.
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

    /// The borrowed view every read runs on.
    #[inline]
    pub fn as_ref(&self) -> BitMatRef<'_> {
        BitMatRef {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            count: self.count,
            ids: &self.ids,
            spans: &self.spans,
            words: &self.words,
            mapped: false,
        }
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
        self.spans.push(span(self.words.len(), count, runs));
        self.count += u64::from(count);
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
        let (mut kept, mut shift, mut from) = (first, 0, self.as_ref().start_of(first));
        let mut pending = from;
        for k in first..self.ids.len() {
            let (id, [end_word, count]) = (self.ids[k], self.spans[k]);
            let end = end_of([end_word, count]);
            if mask.get(id) {
                self.ids[kept] = id;
                self.spans[kept] = [end_word - shift as u32, count];
                kept += 1;
            } else {
                move_down(&mut self.words, pending..from, shift);
                shift += end - from;
                pending = end;
                self.count -= u64::from(count);
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
            let old = self.spans[k];
            let (start, end) = (from, end_of(old));
            from = end;
            let body = match spilled {
                None => &self.words[start..end],
                Some(at) => &scratch.spill[start - at..end - at],
            };
            let row = RowRef::from_body(self.n_cols, old[1], runs_of(old), body);
            and_mask_compute(row, mask, &mut scratch.pos);
            let count = scratch.pos.len() as u32;
            let (new_end, runs) = if count == old[1] {
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
                (new_end, runs_of(old))
            } else {
                self.count -= u64::from(old[1] - count);
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
            self.spans[kept] = span(new_end, count, runs);
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
}

/// Moves the bodies in `words[range]` down by `shift` words; a no-op when
/// there is nothing to move.
fn move_down(words: &mut [u32], range: std::ops::Range<usize>, shift: usize) {
    if shift > 0 && !range.is_empty() {
        let to = range.start - shift;
        words.copy_within(range, to);
    }
}

/// A borrowed, `Copy` view of one matrix's three arrays — a heap
/// [`BitMat`]'s arena ([`BitMat::as_ref`]) or a matrix in a mapped
/// segment, whose blob holds the same arrays: every read of a matrix runs
/// on it.
///
/// A heap arena is trusted. A mapped one is untrusted bytes: its ids and
/// spans are checked once, when the catalog first opens the matrix, and a
/// row's body each time a load reads it, so a corrupt row is an error, not
/// a malformed row. The view records which medium it came from.
#[derive(Debug, Clone, Copy)]
pub struct BitMatRef<'a> {
    n_rows: u32,
    n_cols: u32,
    count: u64,
    pub(crate) ids: &'a [u32],
    pub(crate) spans: &'a [Span],
    pub(crate) words: &'a [u32],
    /// The arrays are a mapped segment's: a row's body is checked when a
    /// load reads it.
    mapped: bool,
}

impl<'a> BitMatRef<'a> {
    /// The `n_rows × n_cols` matrix of `count` bits a mapped segment
    /// stores as these arrays, to be [`BitMatRef::check`]ed before its
    /// rows are read.
    pub(crate) fn mapped(
        (n_rows, n_cols): (u32, u32),
        count: u64,
        (ids, spans, words): (&'a [u32], &'a [Span], &'a [u32]),
    ) -> BitMatRef<'a> {
        BitMatRef {
            n_rows,
            n_cols,
            count,
            ids,
            spans,
            words,
            mapped: true,
        }
    }

    /// Checks a mapped matrix's ids and spans, as a catalog does once per
    /// matrix: the ids ascend below `n_rows`, every span holds at least one
    /// bit and one body word (a runs body an even number), and the bodies
    /// tile the words exactly. Once it passes, every row slices the words
    /// in bounds; a body is checked only when a load reads it.
    pub(crate) fn check(self) -> Result<(), BitMatError> {
        let corrupt = |m: &str| Err(BitMatError::Corrupt(m.into()));
        let ids = self.ids;
        if !ids.windows(2).all(|w| w[0] < w[1]) || ids.last().is_some_and(|&id| id >= self.n_rows) {
            return corrupt("row ids do not ascend below the row count");
        }
        let mut start = 0;
        for &s in self.spans {
            let end = end_of(s);
            if s[1] == 0 || end <= start || (runs_of(s) && !(end - start).is_multiple_of(2)) {
                return corrupt("a row span is empty, does not ascend, or splits a run");
            }
            start = end;
        }
        if start != self.words.len() {
            return corrupt("row spans do not end at the body words' end");
        }
        Ok(())
    }

    /// Number of rows in the (conceptual, dense) row dimension.
    pub fn n_rows(self) -> u32 {
        self.n_rows
    }

    /// Number of columns in the column dimension.
    pub fn n_cols(self) -> u32 {
        self.n_cols
    }

    /// Number of set bits (triples held by this matrix).
    pub fn triple_count(self) -> u64 {
        self.count
    }

    /// True when no bit is set.
    pub fn is_empty(self) -> bool {
        self.count == 0
    }

    /// Number of non-empty rows.
    pub fn n_present(self) -> usize {
        self.ids.len()
    }

    /// Words the row bodies take in the arena.
    pub fn arena_words(self) -> usize {
        self.words.len()
    }

    /// The non-empty rows, ascending by row index, each lent from the
    /// arena.
    pub fn rows(self) -> impl ExactSizeIterator<Item = (u32, RowRef<'a>)> {
        let mut start = 0;
        self.ids.iter().zip(self.spans).map(move |(&id, &s)| {
            let body = &self.words[start..end_of(s)];
            start = end_of(s);
            (id, RowRef::from_body(self.n_cols, s[1], runs_of(s), body))
        })
    }

    /// Fetches a row by index (binary search; `None` if empty).
    pub fn row(self, r: u32) -> Option<RowRef<'a>> {
        self.slot_of(r).map(|k| self.row_at(k))
    }

    /// Slot of row `r` in the arena, `None` when it is empty.
    fn slot_of(self, r: u32) -> Option<usize> {
        self.ids.binary_search(&r).ok()
    }

    // lbr-lint: no_alloc — the join's row lookup: a gallop over the ids.
    /// [`BitMatRef::row`] for lookups that mostly ascend: `finger` is the
    /// slot where the previous lookup on this matrix ended (start it at 0).
    /// The search gallops forward from the finger, and binary-searches the
    /// slots before it only when `r` lies there; either way the finger
    /// ends at the first slot whose id is at least `r`.
    pub fn seek_row(self, r: u32, finger: &mut usize) -> Option<RowRef<'a>> {
        let from = (*finger).min(self.ids.len());
        let k = if from > 0 && self.ids[from - 1] >= r {
            self.ids[..from].partition_point(|&id| id < r)
        } else {
            from + gallop_geq(&self.ids[from..], r)
        };
        *finger = k;
        (self.ids.get(k) == Some(&r)).then(|| self.row_at(k))
    }
    // lbr-lint: end

    /// Where the body of the row in slot `k` starts.
    fn start_of(self, k: usize) -> usize {
        k.checked_sub(1).map_or(0, |prev| end_of(self.spans[prev]))
    }

    /// The row in slot `k`.
    fn row_at(self, k: usize) -> RowRef<'a> {
        let s = self.spans[k];
        let body = &self.words[self.start_of(k)..end_of(s)];
        RowRef::from_body(self.n_cols, s[1], runs_of(s), body)
    }

    /// The row in slot `k` as a load reads it: a mapped row's body must
    /// hold the bits its span counts ([`RowRef::checked`]). `None` when it
    /// does not; [`BitMatRef::corrupt_at`] says which row.
    fn read_at(self, k: usize) -> Option<RowRef<'a>> {
        if self.mapped {
            self.read_mapped(k)
        } else {
            Some(self.row_at(k))
        }
    }

    /// [`BitMatRef::read_at`] on a mapped matrix.
    fn read_mapped(self, k: usize) -> Option<RowRef<'a>> {
        let s = self.spans[k];
        let body = &self.words[self.start_of(k)..end_of(s)];
        RowRef::checked(self.n_cols, s[1], runs_of(s), body)
    }

    /// The error of a row [`BitMatRef::read_at`] rejects.
    fn corrupt_at(self, k: usize) -> BitMatError {
        BitMatError::Corrupt(format!("row {} body is malformed", self.ids[k]))
    }

    /// [`BitMatRef::row`] as a load reads it (see [`BitMatRef::masked`]).
    pub(crate) fn read_row(self, r: u32) -> Result<Option<RowRef<'a>>, BitMatError> {
        let read = |k| self.read_at(k).ok_or_else(|| self.corrupt_at(k));
        self.slot_of(r).map(read).transpose()
    }

    /// Set-bit count of row `r` (0 when it is empty), from its span alone.
    pub(crate) fn row_count(self, r: u32) -> u32 {
        self.slot_of(r).map_or(0, |k| self.spans[k][1])
    }

    /// `fold(BM, dim)` — projects the distinct coordinates of `dim`
    /// (paper: `fold(BMtp, dim?j) ≡ π?j(BMtp)`).
    ///
    /// * `Row`: a mask with one bit per **non-empty row** (no row needs to
    ///   be decompressed — row presence is already explicit),
    /// * `Col`: the bitwise OR of all rows, streamed run-wise.
    pub fn fold(self, dim: RetainDim) -> BitVec {
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
    /// the intermediate mask `fold().resized()` would. Returns whether a
    /// coordinate was clipped.
    pub fn fold_or_clipped(self, dim: RetainDim, acc: &mut BitVec) -> bool {
        match dim {
            RetainDim::Row => {
                // Rows ascend, so the first out-of-space row ends the scan.
                for &r in self.ids {
                    if r >= acc.len() {
                        return true;
                    }
                    acc.set(r);
                }
                false
            }
            RetainDim::Col => {
                let mut clipped = false;
                for (_, row) in self.rows() {
                    clipped |= row.or_into_clipped(acc);
                }
                clipped
            }
        }
    }

    /// The masked load ([`crate::Catalog::masked`] on every medium): a copy
    /// holding only the triples whose row is set in `rows` and whose
    /// column is set in `cols` — the same matrix as a whole copy followed
    /// by [`BitMat::unfold_with`] on each mask (`None` keeps a dimension
    /// whole; masks are clipped the same way).
    ///
    /// Kept rows are found by probing the row mask's set bits when it has
    /// fewer of them than the matrix has rows, and by walking the ids
    /// otherwise. Each is read, then ANDed with the column mask in
    /// `scratch` and appended to the new matrix's arena, which is sized up
    /// front for the rows the row mask may keep; a whole load is sized
    /// exactly. A row the masks drop is never read, so on a mapped segment
    /// a corrupt one is not an error; a corrupt row they keep is
    /// [`BitMatError::Corrupt`]. A heap matrix's load never fails.
    pub fn masked(
        self,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<BitMat, BitMatError> {
        // The walk is compiled once per medium, so a heap load carries no
        // check and no error path.
        let loaded = if self.mapped {
            self.masked_by(Self::read_mapped, rows, cols, scratch)
        } else {
            self.masked_by(|m, k| Some(m.row_at(k)), rows, cols, scratch)
        };
        loaded.map_err(|k| self.corrupt_at(k))
    }

    /// [`BitMatRef::masked`] reading each kept row through `read`; stopped
    /// by the slot of the first kept row `read` rejects.
    fn masked_by(
        self,
        read: impl Fn(Self, usize) -> Option<RowRef<'a>>,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<BitMat, usize> {
        let n = self.ids.len();
        let candidates = rows.map_or(usize::MAX, |m| m.count_ones() as usize);
        let kept = candidates.min(n);
        let words = (self.words.len() as u64 * kept as u64 / n.max(1) as u64) as usize;
        let mut mat = BitMat::with_capacity(self.n_rows, self.n_cols, kept, words);
        let mut keep = |k: usize| -> Result<(), usize> {
            let row = read(self, k).ok_or(k)?;
            match cols {
                Some(mask) => mat.push_masked(self.ids[k], row, mask, scratch),
                None => mat.push_row(self.ids[k], row),
            }
            Ok(())
        };
        match rows {
            Some(mask) if candidates < n => {
                // The candidates ascend, so each search gallops forward
                // from the slot where the previous one ended.
                let mut k = 0;
                for r in mask.iter_ones() {
                    k += gallop_geq(&self.ids[k..], r);
                    if k == n {
                        break;
                    }
                    if self.ids[k] == r {
                        keep(k)?;
                    }
                }
            }
            _ => {
                for k in 0..n {
                    if rows.is_none_or(|mask| mask.get(self.ids[k])) {
                        keep(k)?;
                    }
                }
            }
        }
        Ok(mat)
    }

    /// Transposed copy (rows ↔ columns). An O-S BitMat is the transpose of
    /// the corresponding S-O BitMat (§4).
    pub fn transpose(self) -> BitMat {
        let mut pairs: Vec<(u32, u32)> = self.iter().map(|(r, c)| (c, r)).collect();
        pairs.sort_unstable();
        BitMat::from_sorted_pairs(self.n_cols, self.n_rows, &pairs)
    }

    /// Iterates set bits as `(row, col)`, ascending.
    pub fn iter(self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.rows()
            .flat_map(|(r, row)| row.iter_ones().map(move |c| (r, c)))
    }

    /// Hybrid-encoded size in bytes (per-row tag + integers + row directory).
    pub fn encoded_bytes(self) -> usize {
        // Per row a 1-byte tag and 8 bytes of row directory (id + offset),
        // plus 4 bytes per body word.
        9 * self.ids.len() + 4 * self.words.len() + 24
    }

    /// Size in bytes if every row were forced into pure RLE (ablation).
    pub fn rle_only_bytes(self) -> usize {
        self.rows()
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
        assert_eq!(m.as_ref().triple_count(), 5);
        let m = m.as_ref();
        assert!(m.row(0).is_some_and(|row| row.contains(0)));
        assert!(m.row(1).is_some_and(|row| row.contains(3)));
        assert!(!m.row(1).is_some_and(|row| row.contains(0)));
        assert_eq!(m.row(1).unwrap().count_ones(), 1);
        assert!(m.row(5).is_none());
    }

    #[test]
    fn fold_row_and_col() {
        let m = acted_in();
        let m = m.as_ref();
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
        assert_eq!(m.as_ref().triple_count(), 1);
        assert_eq!(m.as_ref().iter().collect::<Vec<_>>(), vec![(0, 0)]);
        assert_eq!(
            m.as_ref()
                .fold(RetainDim::Row)
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn unfold_row() {
        let mut m = acted_in();
        let mask = BitVec::from_positions(2, [1]);
        m.unfold(&mask, RetainDim::Row);
        assert_eq!(m.as_ref().iter().collect::<Vec<_>>(), vec![(1, 3)]);
        assert_eq!(m.as_ref().triple_count(), 1);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = acted_in();
        let t = m.as_ref().transpose();
        assert_eq!(t.as_ref().n_rows(), 4);
        assert_eq!(t.as_ref().n_cols(), 2);
        assert_eq!(t.as_ref().triple_count(), m.as_ref().triple_count());
        assert!(t.as_ref().row(3).is_some_and(|row| row.contains(1)));
        assert!(t.as_ref().row(0).is_some_and(|row| row.contains(0)));
        assert_eq!(t.as_ref().transpose(), m);
    }

    #[test]
    fn empty_matrix_behaviour() {
        let mut m = BitMat::empty(3, 3);
        assert!(m.as_ref().is_empty());
        assert_eq!(m.as_ref().fold(RetainDim::Col).count_ones(), 0);
        m.unfold(&BitVec::ones(3), RetainDim::Col);
        assert!(m.as_ref().is_empty());
        assert_eq!(m.as_ref().transpose().as_ref().triple_count(), 0);
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
        assert!(!m.as_ref().row(1).unwrap().to_owned().is_sparse());
        let odd = BitVec::from_positions(64, (1..64).step_by(2));
        let mut scratch = SetScratch::default();
        m.unfold_with(&odd, RetainDim::Col, &mut scratch);
        let kept: Vec<(u32, u32)> = pairs.into_iter().filter(|&(_, c)| c % 2 == 1).collect();
        assert_eq!(m, BitMat::from_sorted_pairs(4, 64, &kept));
        assert_eq!(m.as_ref().triple_count(), kept.len() as u64);
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
        assert_eq!((m.as_ref().n_present(), m.as_ref().arena_words()), (1, 1));
        let mut m = acted_in();
        m.unfold(&BitVec::from_positions(4, [3]), RetainDim::Col);
        assert_eq!(m, BitMat::from_sorted_pairs(2, 4, &[(0, 3), (1, 3)]));
    }

    #[test]
    fn sizes_hybrid_not_larger_than_rle() {
        let m = acted_in();
        let m = m.as_ref();
        assert!(m.encoded_bytes() <= m.rle_only_bytes());
    }
}
