//! Run-aware compressed-set kernels: set algebra that works **directly on
//! the hybrid Runs/Sparse representations** — a row is never expanded
//! into raw bits, and nothing densifies on the way through. Dispatch
//! follows the operand representations:
//!
//! * **row × dense mask** — word streaming: run windows AND the mask's
//!   words, sparse positions probe single bits. *This is the engine's
//!   semi-join workhorse*: `fold` ORs compressed rows into a dense β mask,
//!   the masks AND word-wise, and `unfold` pushes the result back through
//!   this kernel row by row, rewriting the matrix's arena in place
//!   ([`crate::BitMat::unfold_with`]). The masked load runs it too, on a
//!   borrowed row — a stored row, or a mapped row straight from its
//!   segment words — appending what is left to the new matrix's arena;
//!   [`RowRef::and_mask_copy`] is its form for one row.
//! * **run × run** — interval clipping: walk both run lists once,
//!   emitting the overlap of the current pair (`O(r₁ + r₂)`);
//! * **run × sparse** — probing: merge-walk the sparse positions against
//!   the run list, keeping positions covered by a run (`O(s + r)`);
//! * **sparse × sparse** — galloping: for each position of the smaller
//!   list, exponential-then-binary search the larger one (`O(s₁ ·
//!   log(s₂/s₁))` — the Atreides-family intersection shape).
//!
//! The row×row forms ([`BitRow::and_row`], [`BitRow::and_row_into`]) and
//! the k-way leapfrog ([`intersect_into`] over seekable [`RowCursor`]s,
//! each over a [`RowRef`] of either medium) are the general row-level
//! layer: covered by the dense-oracle property suite and the `kernelbench`
//! CI gate, available to any consumer that intersects individual
//! compressed rows without a dense accumulator.
//!
//! The in-place entry points write into caller-owned buffers: a
//! [`SetScratch`] holds the kernels' position/run buffers, so steady-state
//! pruning performs **no heap allocation** — buffers grow to a high-water
//! mark on the first pass and are reused afterwards ([`SetScratch::grows`]
//! makes that observable).
//!
//! Output representations follow the same hybrid rule as
//! [`BitRow::from_sorted_positions`] (sparse iff `count < 2·n_runs`), so
//! kernel results are bit-for-bit identical to the allocating paths.

use crate::bitvec::BitVec;
use crate::row::{BitRow, Body, Hybrid, RowRef};

/// Caller-owned scratch buffers for the in-place kernels.
///
/// One `SetScratch` serves any number of kernel calls; buffers are cleared
/// (capacity kept) on each call.
#[derive(Debug, Default)]
pub struct SetScratch {
    /// Kernel result as positions.
    pub(crate) pos: Vec<u32>,
    /// Kernel result as runs.
    runs: Vec<[u32; 2]>,
    /// A result row's body, encoded for the arena.
    pub(crate) body: Vec<u32>,
    /// The bodies an in-place unfold has not read yet, moved aside when a
    /// rewritten row outgrows the space it may be written into.
    pub(crate) spill: Vec<u32>,
    /// Kernel calls that had to grow a buffer (allocated).
    grows: u64,
}

impl SetScratch {
    /// Number of kernel calls that grew a scratch buffer or their
    /// destination (allocated). After the first pass over a workload this
    /// should stop increasing. The bench counting allocator is the ground
    /// truth for total allocation.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Buffer capacities, for growth accounting.
    pub(crate) fn caps(&self) -> [usize; 4] {
        [
            self.pos.capacity(),
            self.runs.capacity(),
            self.body.capacity(),
            self.spill.capacity(),
        ]
    }

    /// Records whether this call allocated: a buffer grew since `before`,
    /// or `grew` (the destination's own buffer grew).
    pub(crate) fn account(&mut self, before: [usize; 4], grew: bool) {
        if self.caps() != before || grew {
            self.grows += 1;
        }
    }
}

/// How a kernel left its result in the scratch.
enum Computed {
    /// Result is `scratch.pos`.
    Pos,
    /// Result is `scratch.runs`.
    Runs,
}

impl RowRef<'_> {
    /// `self & mask` as a new row, `None` when empty — the row×mask kernel
    /// for one borrowed row (a stored row, or a mapped row masked straight
    /// from its words). The result is computed in `scratch` and allocated
    /// once, at its exact size, only when it is non-empty; mask clipping
    /// and the representation rule are [`crate::BitMat::unfold_with`]'s.
    pub fn and_mask_copy(self, mask: &BitVec, scratch: &mut SetScratch) -> Option<BitRow> {
        let caps = scratch.caps();
        and_mask_compute(self, mask, &mut scratch.pos);
        let shape = Hybrid::of(scratch.pos.iter().copied());
        let out = (shape.count > 0).then(|| {
            let mut words = Vec::with_capacity(shape.words());
            shape.write(scratch.pos.iter().copied(), &mut words);
            BitRow {
                universe: self.universe,
                count: shape.count,
                runs: shape.runs(),
                words,
            }
        });
        scratch.account(caps, false);
        out
    }
}

impl BitRow {
    /// `self & other` over the compressed representations (run×run
    /// clipping, run×sparse probing, sparse×sparse galloping), allocating
    /// the result row.
    ///
    /// # Panics
    /// Panics (debug) if the universes differ.
    pub fn and_row(&self, other: &BitRow) -> BitRow {
        let mut out = BitRow::empty(self.universe);
        let mut scratch = SetScratch::default();
        self.and_row_into(other, &mut out, &mut scratch);
        out
    }
}

// lbr-lint: no_alloc — steady-state row kernels: every operation below
// reuses caller-owned scratch; the dynamic alloc_check gate measures the
// same property at runtime.
impl BitRow {
    /// `*dst = self & other`, reusing `dst`'s and `scratch`'s buffers —
    /// the zero-allocation form of [`BitRow::and_row`]. `dst` may alias
    /// neither operand.
    pub fn and_row_into(&self, other: &BitRow, dst: &mut BitRow, scratch: &mut SetScratch) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        let caps = scratch.caps();
        let computed = match (self.as_ref().body, other.as_ref().body) {
            (Body::Runs(a), Body::Runs(b)) => {
                intersect_runs_runs(a, b, &mut scratch.runs);
                Computed::Runs
            }
            (Body::Runs(r), Body::Sparse(s)) | (Body::Sparse(s), Body::Runs(r)) => {
                probe_sparse_runs(s, r, &mut scratch.pos);
                Computed::Pos
            }
            (Body::Sparse(a), Body::Sparse(b)) => {
                gallop_sparse_sparse(a, b, &mut scratch.pos);
                Computed::Pos
            }
        };
        dst.universe = self.universe;
        let before = dst.words.capacity();
        finish_into(scratch, computed, dst);
        scratch.account(caps, dst.words.capacity() != before);
    }
}

/// `row & mask` into `out` (clipped to `mask.len()`): sparse positions
/// are probed bit by bit, each run window streams the mask's words.
pub(crate) fn and_mask_compute(row: RowRef<'_>, mask: &BitVec, out: &mut Vec<u32>) {
    out.clear();
    match row.body {
        Body::Sparse(ps) => out.extend(ps.iter().copied().filter(|&p| mask.get(p))),
        Body::Runs(rs) => {
            let words = mask.words();
            for &[s, e] in rs {
                let e = e.min(mask.len());
                if s >= e {
                    break;
                }
                let mut w_idx = (s / 64) as usize;
                let last = ((e - 1) / 64) as usize;
                while w_idx <= last {
                    let mut w = words[w_idx];
                    // Clip to the run window within this word.
                    let base = w_idx as u32 * 64;
                    if s > base {
                        w &= u64::MAX << (s - base);
                    }
                    if e < base + 64 {
                        w &= u64::MAX >> (base + 64 - e);
                    }
                    while w != 0 {
                        let b = w.trailing_zeros();
                        out.push(base + b);
                        w &= w - 1;
                    }
                    w_idx += 1;
                }
            }
        }
    }
}

/// Interval clipping: intersection of two maximal run lists. The output is
/// again maximal (input runs are non-adjacent, so two emitted overlaps can
/// never touch).
fn intersect_runs_runs(a: &[[u32; 2]], b: &[[u32; 2]], out: &mut Vec<[u32; 2]>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let s = a[i][0].max(b[j][0]);
        let e = a[i][1].min(b[j][1]);
        if s < e {
            out.push([s, e]);
        }
        if a[i][1] <= b[j][1] {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Probing: sparse positions kept iff covered by a run (merge walk).
fn probe_sparse_runs(sparse: &[u32], runs: &[[u32; 2]], out: &mut Vec<u32>) {
    out.clear();
    let mut j = 0usize;
    for &p in sparse {
        while j < runs.len() && runs[j][1] <= p {
            j += 1;
        }
        if j == runs.len() {
            break;
        }
        if runs[j][0] <= p {
            out.push(p);
        }
    }
}

/// Galloping search: for each position of the smaller list, exponential +
/// binary search in the larger one.
fn gallop_sparse_sparse(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut lo = 0usize;
    for &v in small {
        lo += gallop_geq(&large[lo..], v);
        if lo >= large.len() {
            break;
        }
        if large[lo] == v {
            out.push(v);
            lo += 1;
        }
    }
}

/// Index of the first element `>= v` in ascending `a` (exponential probe,
/// then binary search within the bracketed window). Shared by the
/// sparse×sparse intersection, [`RowCursor::seek`] and
/// [`crate::BitMatRef::seek_row`].
pub(crate) fn gallop_geq(a: &[u32], v: u32) -> usize {
    if a.first().is_none_or(|&x| x >= v) {
        return 0;
    }
    let mut hi = 1usize;
    while hi < a.len() && a[hi] < v {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(a.len());
    lo + a[lo..hi].partition_point(|&x| x < v)
}

/// Writes the scratch result into `dst`'s buffer under the hybrid rule
/// (sparse iff `count < 2·n_runs`, as in [`BitRow::from_sorted_positions`]).
fn finish_into(scratch: &SetScratch, computed: Computed, dst: &mut BitRow) {
    dst.words.clear();
    let shape = match computed {
        Computed::Pos => {
            let shape = Hybrid::of(scratch.pos.iter().copied());
            shape.write(scratch.pos.iter().copied(), &mut dst.words);
            shape
        }
        Computed::Runs => {
            let count = scratch.runs.iter().map(|&[s, e]| e - s).sum::<u32>();
            let shape = Hybrid {
                count,
                n_runs: scratch.runs.len(),
            };
            if shape.runs() {
                dst.words.extend_from_slice(scratch.runs.as_flattened());
            } else {
                // count < 2·n_runs keeps this expansion cheap.
                for &[s, e] in &scratch.runs {
                    dst.words.extend(s..e);
                }
            }
            shape
        }
    };
    dst.count = shape.count;
    dst.runs = shape.runs();
}

/// A seekable cursor over one compressed row of either medium (a
/// [`RowRef`]) — the building block of the k-way leapfrog intersection
/// (and of any merge-style consumer that wants to walk a row without
/// materializing its positions). Over a mapped row it walks the segment's
/// words in place.
pub struct RowCursor<'a> {
    repr: CursorRepr<'a>,
}

enum CursorRepr<'a> {
    Sparse {
        ps: &'a [u32],
        i: usize,
    },
    Runs {
        rs: &'a [[u32; 2]],
        i: usize,
        pos: u32,
    },
}

impl<'a> RowCursor<'a> {
    /// A cursor positioned at the row's first set bit.
    pub fn new(row: RowRef<'a>) -> RowCursor<'a> {
        RowCursor {
            repr: match row.body {
                Body::Sparse(ps) => CursorRepr::Sparse { ps, i: 0 },
                Body::Runs(rs) => CursorRepr::Runs {
                    rs,
                    i: 0,
                    pos: rs.first().map_or(0, |r| r[0]),
                },
            },
        }
    }

    /// The position the cursor currently points at (`None` = exhausted).
    pub fn peek(&self) -> Option<u32> {
        match &self.repr {
            CursorRepr::Sparse { ps, i } => ps.get(*i).copied(),
            CursorRepr::Runs { rs, i, pos } => (*i < rs.len()).then_some(*pos),
        }
    }

    /// Advances past the current position (no-op when exhausted).
    pub fn advance(&mut self) {
        match &mut self.repr {
            CursorRepr::Sparse { ps, i } => *i = (*i + 1).min(ps.len()),
            CursorRepr::Runs { rs, i, pos } => {
                if *i >= rs.len() {
                    return;
                }
                *pos += 1;
                if *pos >= rs[*i][1] {
                    *i += 1;
                    if *i < rs.len() {
                        *pos = rs[*i][0];
                    }
                }
            }
        }
    }

    /// Seeks to the first set bit `>= bound` (galloping), returning it.
    pub fn seek(&mut self, bound: u32) -> Option<u32> {
        match &mut self.repr {
            CursorRepr::Sparse { ps, i } => {
                *i += gallop_geq(&ps[*i..], bound);
                ps.get(*i).copied()
            }
            CursorRepr::Runs { rs, i, pos } => {
                if *i < rs.len() && *pos >= bound {
                    return Some(*pos);
                }
                // First run whose end is past the bound (ends ascend).
                *i += rs[*i..].partition_point(|r| r[1] <= bound);
                if *i >= rs.len() {
                    return None;
                }
                *pos = bound.max(rs[*i][0]);
                Some(*pos)
            }
        }
    }
}
// lbr-lint: end

/// k-way intersection of compressed rows into a caller-owned, cleared
/// position buffer — leapfrog join over [`RowCursor`]s: repeatedly seek
/// every cursor to the current maximum until all agree.
///
/// `rows` must share one universe; an empty `rows` slice yields an empty
/// result.
pub fn intersect_into(rows: &[&BitRow], out: &mut Vec<u32>) {
    out.clear();
    let Some((first, rest)) = rows.split_first() else {
        return;
    };
    debug_assert!(rest.iter().all(|r| r.universe == first.universe));
    if rows.iter().any(|r| r.is_empty()) {
        return;
    }
    let mut cursors: Vec<RowCursor> = rows.iter().map(|r| RowCursor::new(r.as_ref())).collect();
    intersect_cursors_into(&mut cursors, out);
}

/// The leapfrog core of [`intersect_into`], over caller-built cursors —
/// including cursors over a mapped segment's rows (a
/// [`crate::Catalog::row`] of a [`crate::DiskCatalog`] lends its
/// [`RowRef`] in place), so a join can intersect mapped rows without ever
/// materializing them on the heap. Cursors must share one universe. `out`
/// is cleared first.
pub fn intersect_cursors_into(cursors: &mut [RowCursor], out: &mut Vec<u32>) {
    out.clear();
    if cursors.is_empty() {
        return;
    }
    let Some(mut candidate) = cursors[0].peek() else {
        return;
    };
    'outer: loop {
        // Try to align every cursor on `candidate`.
        let mut agreed = 0usize;
        while agreed < cursors.len() {
            for (k, cur) in cursors.iter_mut().enumerate() {
                let Some(p) = cur.seek(candidate) else {
                    break 'outer;
                };
                if p > candidate {
                    candidate = p;
                    agreed = 0;
                    break;
                }
                agreed = k + 1;
            }
        }
        out.push(candidate);
        // Advance one cursor past the match to find the next candidate.
        cursors[0].advance();
        match cursors[0].peek() {
            Some(p) => candidate = p,
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(universe: u32, positions: &[u32]) -> BitRow {
        BitRow::from_sorted_positions(universe, positions)
    }

    #[test]
    fn and_row_all_representation_pairs() {
        // runs × runs: interval clipping across word boundaries.
        let a = row(256, &(60..140).collect::<Vec<_>>());
        let b = row(256, &(100..200).collect::<Vec<_>>());
        assert!(!a.is_sparse() && !b.is_sparse());
        assert_eq!(
            a.and_row(&b).iter_ones().collect::<Vec<_>>(),
            (100..140).collect::<Vec<_>>()
        );
        // runs × sparse: probing.
        let s = row(256, &[3, 64, 99, 139, 140, 255]);
        assert!(s.is_sparse());
        assert_eq!(
            a.and_row(&s).iter_ones().collect::<Vec<_>>(),
            vec![64, 99, 139]
        );
        assert_eq!(
            s.and_row(&a).iter_ones().collect::<Vec<_>>(),
            vec![64, 99, 139]
        );
        // sparse × sparse: galloping.
        let t = row(256, &[0, 64, 140, 255]);
        assert_eq!(
            s.and_row(&t).iter_ones().collect::<Vec<_>>(),
            vec![64, 140, 255]
        );
        // Disjoint → canonical empty.
        let d = row(256, &[1, 2]);
        let e = s.and_row(&d);
        assert!(e.is_empty());
        assert_eq!(e, row(256, &[]));
    }

    #[test]
    fn and_row_into_reuses_buffers_and_matches() {
        let a = row(1000, &(100..400).collect::<Vec<_>>());
        let b = row(1000, &[0, 150, 151, 152, 399, 400, 999]);
        let mut dst = BitRow::empty(1000);
        let mut scratch = SetScratch::default();
        a.and_row_into(&b, &mut dst, &mut scratch);
        assert_eq!(dst, a.and_row(&b));
        let before = scratch.grows();
        for _ in 0..10 {
            a.and_row_into(&b, &mut dst, &mut scratch);
        }
        assert_eq!(scratch.grows(), before, "steady state must not grow");
    }

    #[test]
    fn and_mask_clipped_mask_lengths() {
        let r = row(300, &[0, 1, 2, 3, 100, 290, 299]);
        let mut scratch = SetScratch::default();
        // Shorter mask: bits beyond its length read as zero.
        let mask = BitVec::from_positions(128, [1, 2, 100, 127]);
        let out = r.as_ref().and_mask_copy(&mask, &mut scratch).unwrap();
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![1, 2, 100]);
        assert_eq!(out.universe(), 300);
        // Longer mask: extra bits are irrelevant.
        let r2 = row(64, &[0, 63]);
        let mask = BitVec::from_positions(128, [63, 100]);
        let out = r2.as_ref().and_mask_copy(&mask, &mut scratch).unwrap();
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn representation_flip_roundtrip() {
        // Runs row masked down to isolated bits flips to Sparse, and the
        // hybrid rule matches from_sorted_positions exactly.
        let r = row(256, &(0..100).collect::<Vec<_>>());
        assert!(!r.is_sparse());
        let mut scratch = SetScratch::default();
        let mask = BitVec::from_positions(256, [5, 50]);
        let r = r.as_ref().and_mask_copy(&mask, &mut scratch).unwrap();
        assert!(r.is_sparse());
        assert_eq!(r, row(256, &[5, 50]));
        // And back: intersect with a full row keeps it sparse; with a run
        // superset the result re-derives the canonical representation.
        let full = BitRow::full(256);
        let mut dst = BitRow::empty(256);
        r.and_row_into(&full, &mut dst, &mut scratch);
        assert_eq!(dst, r);
        // A destination that flips back to runs reuses its buffer.
        full.and_row_into(&full, &mut dst, &mut scratch);
        assert_eq!(dst, full);
    }

    #[test]
    fn kway_leapfrog_matches_pairwise() {
        let a = row(512, &(0..256).step_by(2).collect::<Vec<_>>());
        let b = row(512, &(0..300).step_by(3).collect::<Vec<_>>());
        let c = row(512, &(0..512).collect::<Vec<_>>());
        let mut out = Vec::new();
        intersect_into(&[&a, &b, &c], &mut out);
        let expect: Vec<u32> = (0..256).filter(|p| p % 6 == 0).collect();
        assert_eq!(out, expect);
        // Single row = identity; empty operand = empty result.
        intersect_into(&[&a], &mut out);
        assert_eq!(out, a.iter_ones().collect::<Vec<_>>());
        let e = BitRow::empty(512);
        intersect_into(&[&a, &e], &mut out);
        assert!(out.is_empty());
        intersect_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn cursor_seek_runs_and_sparse() {
        let r = row(300, &[10, 11, 12, 13, 64, 65, 66, 67, 200, 201, 202, 203]);
        assert!(!r.is_sparse());
        let mut c = RowCursor::new(r.as_ref());
        assert_eq!(c.peek(), Some(10));
        assert_eq!(c.seek(12), Some(12));
        assert_eq!(c.seek(14), Some(64));
        assert_eq!(c.seek(300), None);
        let s = row(300, &[5, 90, 250]);
        let mut c = RowCursor::new(s.as_ref());
        assert_eq!(c.seek(6), Some(90));
        c.advance();
        assert_eq!(c.peek(), Some(250));
        c.advance();
        assert_eq!(c.peek(), None);
    }
}
