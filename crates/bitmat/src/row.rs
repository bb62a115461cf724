//! Hybrid-compressed bit rows (§4 of the paper).
//!
//! A BitMat row is stored either
//!
//! * as **runs** — maximal intervals of consecutive set bits (the
//!   information content of the paper's alternating run-length encoding
//!   `"[1] 3 2 4 1"`, with the same integer count up to ±1), or
//! * as **sparse positions** — the paper's hybrid fallback: *"if the number
//!   of set bits in a bit-row are less than the number of integers used to
//!   represent it, then we simply store the set bit positions"*.
//!
//! All operations (`or_into`, `and_mask`, iteration, membership) walk the
//! compressed representation; a row is never expanded into raw bits.

use crate::bitvec::BitVec;

/// Compressed representation of one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Repr {
    /// Maximal `[start, end)` intervals of set bits, ascending, disjoint,
    /// non-adjacent.
    Runs(Vec<(u32, u32)>),
    /// Ascending set-bit positions.
    Sparse(Vec<u32>),
}

/// One compressed bit row over a universe of `universe` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRow {
    pub(crate) universe: u32,
    pub(crate) count: u32,
    pub(crate) repr: Repr,
}

impl BitRow {
    /// An empty row.
    pub fn empty(universe: u32) -> Self {
        BitRow {
            universe,
            count: 0,
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// A row with every bit set.
    pub fn full(universe: u32) -> Self {
        if universe == 0 {
            return Self::empty(0);
        }
        BitRow {
            universe,
            count: universe,
            repr: Repr::Runs(vec![(0, universe)]),
        }
    }

    /// Builds from strictly ascending set-bit positions.
    ///
    /// # Panics
    /// Panics (debug) if positions are unsorted, duplicated or out of range.
    pub fn from_sorted_positions(universe: u32, positions: &[u32]) -> Self {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be ascending"
        );
        debug_assert!(
            positions.last().is_none_or(|&p| p < universe),
            "position out of range"
        );
        let runs = runs_of(positions);
        Self::pick(universe, positions.len() as u32, runs, positions)
    }

    /// Builds from a dense mask.
    pub fn from_bitvec(v: &BitVec) -> Self {
        let positions: Vec<u32> = v.iter_ones().collect();
        Self::from_sorted_positions(v.len(), &positions)
    }

    /// Applies the hybrid rule: sparse iff `count < 2·n_runs` (each run
    /// costs two integers, each sparse bit one).
    fn pick(universe: u32, count: u32, runs: Vec<(u32, u32)>, positions: &[u32]) -> Self {
        if (count as usize) < 2 * runs.len() {
            BitRow {
                universe,
                count,
                repr: Repr::Sparse(positions.to_vec()),
            }
        } else {
            BitRow {
                universe,
                count,
                repr: Repr::Runs(runs),
            }
        }
    }

    /// Universe size in bits.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.count
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True when the row currently uses the sparse-positions representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Membership test (binary search on either representation).
    pub fn contains(&self, pos: u32) -> bool {
        match &self.repr {
            Repr::Sparse(ps) => ps.binary_search(&pos).is_ok(),
            Repr::Runs(rs) => match rs.binary_search_by(|&(s, _)| s.cmp(&pos)) {
                Ok(_) => true,
                Err(i) => i > 0 && pos < rs[i - 1].1,
            },
        }
    }

    /// Iterates set-bit positions in ascending order.
    pub fn iter_ones(&self) -> RowOnesIter<'_> {
        match &self.repr {
            Repr::Sparse(ps) => RowOnesIter::Sparse(ps.iter()),
            Repr::Runs(rs) => RowOnesIter::Runs {
                runs: rs.iter(),
                cur: None,
            },
        }
    }

    /// `acc |= self` — the building block of [`crate::BitMat::fold`].
    ///
    /// Runs are blitted word-wise (`BitVec::set_range`); sparse positions
    /// are batched into one word-level write per occupied word.
    pub fn or_into(&self, acc: &mut BitVec) {
        match &self.repr {
            Repr::Sparse(ps) => {
                if let Some(&last) = ps.last() {
                    assert!(last < acc.len(), "bit {last} out of range {}", acc.len());
                }
                let words = acc.words_mut();
                let mut i = 0;
                while i < ps.len() {
                    let w = ps[i] / 64;
                    let mut bits = 0u64;
                    while i < ps.len() && ps[i] / 64 == w {
                        bits |= 1u64 << (ps[i] % 64);
                        i += 1;
                    }
                    words[w as usize] |= bits;
                }
            }
            Repr::Runs(rs) => {
                for &(s, e) in rs {
                    acc.set_range(s, e);
                }
            }
        }
    }

    /// `acc |= self`, clipped: positions at or beyond `acc.len()` are
    /// ignored — the in-place equivalent of OR-ing a truncated copy. Used
    /// by the fold kernels to project straight into a (possibly shorter)
    /// join-variable binding space.
    pub fn or_into_clipped(&self, acc: &mut BitVec) {
        let len = acc.len();
        match &self.repr {
            Repr::Sparse(ps) => {
                let n = ps.partition_point(|&p| p < len);
                let words = acc.words_mut();
                let mut i = 0;
                while i < n {
                    let w = ps[i] / 64;
                    let mut bits = 0u64;
                    while i < n && ps[i] / 64 == w {
                        bits |= 1u64 << (ps[i] % 64);
                        i += 1;
                    }
                    words[w as usize] |= bits;
                }
            }
            Repr::Runs(rs) => {
                for &(s, e) in rs {
                    if s >= len {
                        break;
                    }
                    acc.set_range(s, e.min(len));
                }
            }
        }
    }

    /// `self & mask` — the building block of [`crate::BitMat::unfold`].
    ///
    /// Runs through the same kernels as [`BitRow::and_mask_in_place`] (run
    /// windows streamed word-by-word, sparse positions probed directly);
    /// prefer the in-place variant on hot paths — this one allocates the
    /// result row.
    pub fn and_mask(&self, mask: &BitVec) -> BitRow {
        debug_assert_eq!(mask.len(), self.universe, "mask/universe mismatch");
        let mut out = self.clone();
        let mut scratch = crate::kernel::SetScratch::default();
        out.and_mask_in_place(mask, &mut scratch);
        out
    }

    /// Expands to a dense mask (used by fold of single-row loads and tests).
    pub fn to_bitvec(&self) -> BitVec {
        let mut v = BitVec::zeros(self.universe);
        self.or_into(&mut v);
        v
    }

    /// Size in bytes under the hybrid encoding (4-byte integers, as in the
    /// paper, plus a 1-byte representation tag).
    pub fn encoded_bytes(&self) -> usize {
        1 + 4 * match &self.repr {
            Repr::Sparse(ps) => ps.len(),
            Repr::Runs(rs) => 2 * rs.len(),
        }
    }

    /// Serializes the row (little-endian; layout: tag, n, n or 2n u32s).
    pub fn write_to(&self, buf: &mut Vec<u8>) {
        match &self.repr {
            Repr::Sparse(ps) => {
                buf.push(0u8);
                buf.extend_from_slice(&(ps.len() as u32).to_le_bytes());
                for &p in ps {
                    buf.extend_from_slice(&p.to_le_bytes());
                }
            }
            Repr::Runs(rs) => {
                buf.push(1u8);
                buf.extend_from_slice(&(rs.len() as u32).to_le_bytes());
                for &(s, e) in rs {
                    buf.extend_from_slice(&s.to_le_bytes());
                    buf.extend_from_slice(&e.to_le_bytes());
                }
            }
        }
    }

    /// Deserializes a row written by [`BitRow::write_to`]; returns the row
    /// and the number of bytes consumed.
    pub fn read_from(bytes: &[u8], universe: u32) -> Option<(BitRow, usize)> {
        let tag = *bytes.first()?;
        let n = u32::from_le_bytes(bytes.get(1..5)?.try_into().ok()?) as usize;
        let rd_u32 = |i: usize| -> Option<u32> {
            Some(u32::from_le_bytes(
                bytes.get(5 + 4 * i..9 + 4 * i)?.try_into().ok()?,
            ))
        };
        match tag {
            0 => {
                let mut ps = Vec::with_capacity(n);
                for i in 0..n {
                    ps.push(rd_u32(i)?);
                }
                let count = ps.len() as u32;
                Some((
                    BitRow {
                        universe,
                        count,
                        repr: Repr::Sparse(ps),
                    },
                    5 + 4 * n,
                ))
            }
            1 => {
                let mut rs = Vec::with_capacity(n);
                let mut count = 0u32;
                for i in 0..n {
                    let s = rd_u32(2 * i)?;
                    let e = rd_u32(2 * i + 1)?;
                    if s >= e {
                        return None;
                    }
                    count += e - s;
                    rs.push((s, e));
                }
                Some((
                    BitRow {
                        universe,
                        count,
                        repr: Repr::Runs(rs),
                    },
                    5 + 8 * n,
                ))
            }
            _ => None,
        }
    }

    /// Serializes the row as little-endian `u32` words (the v2 segment
    /// layout): `[tag][n][n or 2n integers]`. Unlike [`BitRow::write_to`],
    /// every field is a full word, so a 4-byte-aligned payload can be
    /// reinterpreted as `&[u32]` and cursored zero-copy.
    pub fn write_words_to(&self, buf: &mut Vec<u8>) {
        match &self.repr {
            Repr::Sparse(ps) => {
                buf.extend_from_slice(&0u32.to_le_bytes());
                buf.extend_from_slice(&(ps.len() as u32).to_le_bytes());
                for &p in ps {
                    buf.extend_from_slice(&p.to_le_bytes());
                }
            }
            Repr::Runs(rs) => {
                buf.extend_from_slice(&1u32.to_le_bytes());
                buf.extend_from_slice(&(rs.len() as u32).to_le_bytes());
                for &(s, e) in rs {
                    buf.extend_from_slice(&s.to_le_bytes());
                    buf.extend_from_slice(&e.to_le_bytes());
                }
            }
        }
    }

    /// Size in bytes if the row were forced into run-length encoding —
    /// the ablation baseline for the paper's "40 % smaller" hybrid claim.
    pub fn rle_only_bytes(&self) -> usize {
        let n_runs = match &self.repr {
            Repr::Runs(rs) => rs.len(),
            Repr::Sparse(ps) => runs_of(ps).len(),
        };
        1 + 4 * 2 * n_runs
    }
}

/// A row still in the words [`BitRow::write_words_to`] serialized it to —
/// a mapped segment's payload — validated but not decoded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordRow<'a> {
    pub(crate) universe: u32,
    count: u32,
    /// Tag 1: `body` is flattened `[start, end)` run pairs; tag 0:
    /// ascending positions.
    pub(crate) runs: bool,
    pub(crate) body: &'a [u32],
}

impl<'a> WordRow<'a> {
    /// Validates the row at the start of `words` — tag, lengths, ascending
    /// positions, ascending disjoint non-adjacent runs, universe bounds;
    /// `None` when corrupt, never a malformed row.
    pub(crate) fn parse(words: &'a [u32], universe: u32) -> Option<WordRow<'a>> {
        let tag = *words.first()?;
        let n = *words.get(1)? as usize;
        let (runs, count, body) = match tag {
            0 => {
                let ps = words.get(2..2 + n)?;
                if !ps.windows(2).all(|w| w[0] < w[1]) {
                    return None;
                }
                if ps.last().is_some_and(|&p| p >= universe) {
                    return None;
                }
                (false, n as u32, ps)
            }
            1 => {
                let flat = words.get(2..2 + 2 * n)?;
                let mut count = 0u32;
                let mut prev_end = None;
                for pair in flat.chunks_exact(2) {
                    let (s, e) = (pair[0], pair[1]);
                    // Runs must ascend, be disjoint and non-adjacent.
                    if s >= e || e > universe || prev_end.is_some_and(|p| s <= p) {
                        return None;
                    }
                    count = count.checked_add(e - s)?;
                    prev_end = Some(e);
                }
                (true, count, flat)
            }
            _ => return None,
        };
        Some(WordRow {
            universe,
            count,
            runs,
            body,
        })
    }

    /// The `[start, end)` runs of a runs row.
    pub(crate) fn run_pairs(&self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.body.chunks_exact(2).map(|p| (p[0], p[1]))
    }

    /// Decodes the row, allocating it once at its exact size.
    pub(crate) fn decode(&self) -> BitRow {
        let repr = if self.runs {
            Repr::Runs(self.run_pairs().collect())
        } else {
            Repr::Sparse(self.body.to_vec())
        };
        BitRow {
            universe: self.universe,
            count: self.count,
            repr,
        }
    }
}

/// Computes maximal `[start, end)` intervals from ascending positions.
fn runs_of(positions: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    runs_of_into(positions, &mut runs);
    runs
}

/// [`runs_of`] into a caller-owned buffer (cleared first).
pub(crate) fn runs_of_into(positions: &[u32], runs: &mut Vec<(u32, u32)>) {
    runs.clear();
    for &p in positions {
        match runs.last_mut() {
            Some((_, e)) if *e == p => *e = p + 1,
            _ => runs.push((p, p + 1)),
        }
    }
}

/// Iterator over the set bits of a [`BitRow`].
pub enum RowOnesIter<'a> {
    /// Sparse representation.
    Sparse(std::slice::Iter<'a, u32>),
    /// Run representation.
    Runs {
        /// Remaining runs.
        runs: std::slice::Iter<'a, (u32, u32)>,
        /// Position within the current run.
        cur: Option<(u32, u32)>,
    },
}

impl Iterator for RowOnesIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            RowOnesIter::Sparse(it) => it.next().copied(),
            RowOnesIter::Runs { runs, cur } => loop {
                if let Some((p, e)) = cur {
                    if *p < *e {
                        let out = *p;
                        *p += 1;
                        return Some(out);
                    }
                }
                match runs.next() {
                    Some(&(s, e)) => *cur = Some((s, e)),
                    None => return None,
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_rle() {
        // "1110011110" → three 1s, gap, four 1s.
        let row = BitRow::from_sorted_positions(10, &[0, 1, 2, 5, 6, 7, 8]);
        assert!(!row.is_sparse(), "7 set bits ≥ 2·2 run integers → runs");
        assert_eq!(row.count_ones(), 7);
        assert_eq!(
            row.iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2, 5, 6, 7, 8]
        );
    }

    #[test]
    fn paper_example_sparse() {
        // "0010010000" → two isolated bits: sparse wins (2 < 2·2).
        let row = BitRow::from_sorted_positions(10, &[2, 5]);
        assert!(row.is_sparse());
        assert_eq!(row.encoded_bytes(), 1 + 8);
        assert!(row.rle_only_bytes() > row.encoded_bytes());
    }

    #[test]
    fn contains_both_reprs() {
        let sparse = BitRow::from_sorted_positions(100, &[3, 50, 99]);
        assert!(sparse.contains(50) && !sparse.contains(51));
        let runs = BitRow::from_sorted_positions(100, &[10, 11, 12, 13, 40, 41, 42, 43]);
        assert!(!runs.is_sparse());
        assert!(runs.contains(10) && runs.contains(13) && runs.contains(43));
        assert!(!runs.contains(9) && !runs.contains(14) && !runs.contains(99));
    }

    #[test]
    fn or_into_matches_positions() {
        let row = BitRow::from_sorted_positions(200, &[0, 1, 2, 3, 70, 130, 131, 132, 133, 199]);
        let mut acc = BitVec::zeros(200);
        row.or_into(&mut acc);
        assert_eq!(
            acc.iter_ones().collect::<Vec<_>>(),
            row.iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn and_mask_run_window_clipping() {
        // Run spanning multiple words, mask with scattered bits.
        let positions: Vec<u32> = (60..140).collect();
        let row = BitRow::from_sorted_positions(256, &positions);
        let mask = BitVec::from_positions(256, [59, 60, 63, 64, 100, 139, 140, 200]);
        let out = row.and_mask(&mask);
        assert_eq!(
            out.iter_ones().collect::<Vec<_>>(),
            vec![60, 63, 64, 100, 139]
        );
    }

    #[test]
    fn and_mask_sparse() {
        let row = BitRow::from_sorted_positions(64, &[1, 9, 33]);
        let mask = BitVec::from_positions(64, [9, 40]);
        let out = row.and_mask(&mask);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![9]);
        assert_eq!(out.count_ones(), 1);
    }

    #[test]
    fn empty_and_full() {
        let e = BitRow::empty(10);
        assert!(e.is_empty());
        assert_eq!(e.iter_ones().count(), 0);
        let f = BitRow::full(10);
        assert_eq!(f.count_ones(), 10);
        assert!(f.contains(9) && !f.contains(10));
        assert_eq!(BitRow::full(0).count_ones(), 0);
    }

    #[test]
    fn bitvec_roundtrip() {
        let v = BitVec::from_positions(300, [0, 1, 2, 3, 4, 64, 65, 299]);
        let row = BitRow::from_bitvec(&v);
        assert_eq!(row.to_bitvec(), v);
    }

    #[test]
    fn hybrid_boundary() {
        // Exactly count == 2 * n_runs → runs (rule is strict <).
        let row = BitRow::from_sorted_positions(20, &[0, 1, 10, 11]);
        assert!(!row.is_sparse());
        // count 3 < 2*2 runs → sparse.
        let row = BitRow::from_sorted_positions(20, &[0, 1, 10]);
        assert!(row.is_sparse());
    }
}
