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
//! A row is read through one borrowed view, [`RowRef`], whichever medium
//! holds it: a matrix's arena on the heap or in a mapped segment
//! ([`crate::BitMatRef::row`]; a mapped body is [`RowRef::checked`] first),
//! or an owned [`BitRow`] ([`BitRow::as_ref`]). Every medium holds a body
//! as the same flat `u32` words — ascending positions, or `[start, end)`
//! pairs — so every read kernel (iteration, membership, `or_into`,
//! `and_mask_copy`, the cursor) has one body. A row is owned
//! ([`BitRow`], [`CowRow::Owned`]) only where it is built alone: a kernel's
//! result, or a catalog row a delta edited.
//!
//! All operations walk the compressed representation; a row is never
//! expanded into raw bits. So does the edit a delta makes to a stored row
//! ([`BitRow::edit`], [`crate::BitMat::push_edit`]: `(base ∪ ins) ∖
//! tomb`), which merges and cuts runs instead of decoding them.

use crate::bitvec::BitVec;

/// One compressed bit row over a universe of `universe` bits: the owned
/// form of what a [`crate::BitMat`] stores per row in its arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRow {
    pub(crate) universe: u32,
    pub(crate) count: u32,
    /// True when `words` holds flattened `[start, end)` runs (ascending,
    /// disjoint, non-adjacent), false when it holds ascending positions.
    pub(crate) runs: bool,
    pub(crate) words: Vec<u32>,
}

impl BitRow {
    /// An empty row.
    pub fn empty(universe: u32) -> Self {
        BitRow {
            universe,
            count: 0,
            runs: false,
            words: Vec::new(),
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
            runs: true,
            words: vec![0, universe],
        }
    }

    /// Builds from strictly ascending set-bit positions, under the hybrid
    /// rule: sparse iff `count < 2·n_runs` (each run costs two integers,
    /// each sparse bit one).
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
        let shape = Hybrid::of(positions.iter().copied());
        let mut words = Vec::with_capacity(shape.words());
        shape.write(positions.iter().copied(), &mut words);
        BitRow {
            universe,
            count: shape.count,
            runs: shape.runs(),
            words,
        }
    }

    /// Builds from a dense mask.
    pub fn from_bitvec(v: &BitVec) -> Self {
        let positions: Vec<u32> = v.iter_ones().collect();
        Self::from_sorted_positions(v.len(), &positions)
    }

    /// The borrowed view every read kernel runs on.
    #[inline]
    pub fn as_ref(&self) -> RowRef<'_> {
        RowRef::from_body(self.universe, self.count, self.runs, &self.words)
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
        !self.runs
    }

    /// [`RowRef::contains`].
    pub fn contains(&self, pos: u32) -> bool {
        self.as_ref().contains(pos)
    }

    /// [`RowRef::iter_ones`]. Inlined across crates, as a leaf would be.
    #[inline]
    pub fn iter_ones(&self) -> RowOnesIter<'_> {
        self.as_ref().iter_ones()
    }

    /// [`RowRef::to_bitvec`].
    pub fn to_bitvec(&self) -> BitVec {
        self.as_ref().to_bitvec()
    }

    /// `(base ∪ ins) ∖ tomb` as a new row, `None` when it is empty — the
    /// edit a delta makes to one stored row (`base` `None`: the row is new).
    /// `ins` and `tomb` are ascending positions below `universe`; a
    /// position in both is removed. The row is allocated once, at its
    /// exact size; [`crate::BitMat::push_edit`] writes the same edit
    /// straight into a matrix's arena.
    pub fn edit(
        base: Option<RowRef<'_>>,
        universe: u32,
        ins: impl Iterator<Item = u32> + Clone,
        tomb: impl Iterator<Item = u32> + Clone,
    ) -> Option<BitRow> {
        let mut words = Vec::new();
        let shape = edit_into(base, ins, tomb, &mut words);
        (shape.count > 0).then_some(BitRow {
            universe,
            count: shape.count,
            runs: shape.runs(),
            words,
        })
    }
}

/// A row a [`crate::Catalog`] returns: lent in place from the store's
/// arena or a mapped segment, or owned when it had to be built (a row the
/// overlay's delta edited).
#[derive(Debug, Clone)]
pub enum CowRow<'a> {
    /// A row read where it is stored.
    Borrowed(RowRef<'a>),
    /// A row built for this load.
    Owned(BitRow),
}

impl CowRow<'_> {
    /// The borrowed view of either form.
    pub fn as_ref(&self) -> RowRef<'_> {
        match self {
            CowRow::Borrowed(row) => *row,
            CowRow::Owned(row) => row.as_ref(),
        }
    }
}

impl PartialEq for CowRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for CowRow<'_> {}

/// The hybrid rule's verdict on a row: its bit and run counts decide the
/// encoding — sparse iff `count < 2·n_runs`, runs otherwise (the canonical
/// empty row included).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hybrid {
    pub(crate) count: u32,
    pub(crate) n_runs: usize,
}

impl Hybrid {
    /// The counts of ascending positions.
    pub(crate) fn of(positions: impl Iterator<Item = u32>) -> Hybrid {
        let (mut count, mut n_runs, mut next) = (0u32, 0usize, None);
        for p in positions {
            n_runs += usize::from(next != Some(p));
            next = Some(p + 1);
            count += 1;
        }
        Hybrid { count, n_runs }
    }

    /// True when the runs encoding wins.
    pub(crate) fn runs(self) -> bool {
        self.count as usize >= 2 * self.n_runs
    }

    /// Words the body takes.
    pub(crate) fn words(self) -> usize {
        if self.runs() {
            2 * self.n_runs
        } else {
            self.count as usize
        }
    }

    /// Appends the body of `positions` (the ones this was counted from)
    /// to `words` in the chosen encoding.
    pub(crate) fn write(self, positions: impl Iterator<Item = u32>, words: &mut Vec<u32>) {
        if self.runs() {
            let body = words.len();
            positions.for_each(|p| push_run_bit(words, body, p));
        } else {
            words.extend(positions);
        }
    }
}

/// Appends position `p`, past every bit already in the runs body that
/// starts at `words[body]`, to that body: it extends the last run when it
/// touches it, and opens a new run otherwise.
fn push_run_bit(words: &mut Vec<u32>, body: usize, p: u32) {
    let n = words.len();
    if n > body && words[n - 1] == p {
        words[n - 1] = p + 1;
    } else {
        words.extend([p, p + 1]);
    }
}

/// A borrowed, `Copy` view of one compressed row — in a matrix's arena,
/// on the heap or in a mapped segment ([`crate::BitMatRef::row`]), or in
/// an owned row ([`BitRow::as_ref`]): the one type every read kernel is
/// written on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRef<'a> {
    pub(crate) universe: u32,
    count: u32,
    pub(crate) body: Body<'a>,
}

/// The encoding a [`RowRef`] borrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body<'a> {
    /// Ascending set-bit positions.
    Sparse(&'a [u32]),
    /// Ascending, disjoint, non-adjacent `[start, end)` runs.
    Runs(&'a [[u32; 2]]),
}

impl<'a> RowRef<'a> {
    /// The row whose body is `words`: flattened `[start, end)` runs when
    /// `runs`, ascending positions otherwise. `count` is its bit count.
    #[inline]
    pub(crate) fn from_body(universe: u32, count: u32, runs: bool, words: &'a [u32]) -> Self {
        let body = if runs {
            let (rs, rest) = words.as_chunks::<2>();
            debug_assert!(rest.is_empty(), "a runs body holds whole pairs");
            Body::Runs(rs)
        } else {
            Body::Sparse(words)
        };
        RowRef {
            universe,
            count,
            body,
        }
    }

    /// The body as a matrix stores it: `(runs, words)`, the runs flag of
    /// its span and its words in the arena — what [`RowRef::checked`] takes
    /// back.
    pub fn body_words(self) -> (bool, &'a [u32]) {
        match self.body {
            Body::Sparse(ps) => (false, ps),
            Body::Runs(rs) => (true, rs.as_flattened()),
        }
    }

    /// The row a stored span and body describe, checked as a mapped
    /// segment's words must be before a load reads them: a sparse body
    /// holds `count` ascending positions, a runs body ascending, disjoint,
    /// non-adjacent `[start, end)` pairs of `count` bits in all, every
    /// position below `universe`. A stored row is never empty, so a
    /// `count` of 0 is rejected too. `None` when the body disagrees with
    /// its span — never a malformed row.
    pub fn checked(universe: u32, count: u32, runs: bool, body: &'a [u32]) -> Option<RowRef<'a>> {
        let sound = if runs {
            let (rs, rest) = body.as_chunks::<2>();
            let (mut bits, mut prev_end) = (0u64, None);
            for &[s, e] in rs {
                if s >= e || e > universe || prev_end.is_some_and(|p| s <= p) {
                    return None;
                }
                bits += u64::from(e - s);
                prev_end = Some(e);
            }
            rest.is_empty() && bits == u64::from(count)
        } else {
            body.len() == count as usize
                && body.windows(2).all(|w| w[0] < w[1])
                && body.last().is_none_or(|&p| p < universe)
        };
        (sound && count > 0).then(|| RowRef::from_body(universe, count, runs, body))
    }

    /// Universe size in bits.
    pub fn universe(self) -> u32 {
        self.universe
    }

    /// Number of set bits.
    pub fn count_ones(self) -> u32 {
        self.count
    }

    /// An owned copy, allocated once at its exact size.
    pub fn to_owned(self) -> BitRow {
        let (runs, words) = self.body_words();
        BitRow {
            universe: self.universe,
            count: self.count,
            runs,
            words: words.to_vec(),
        }
    }

    /// Membership test (binary search on either representation).
    pub fn contains(self, pos: u32) -> bool {
        match self.body {
            Body::Sparse(ps) => ps.binary_search(&pos).is_ok(),
            Body::Runs(rs) => match rs.binary_search_by(|r| r[0].cmp(&pos)) {
                Ok(_) => true,
                Err(i) => i > 0 && pos < rs[i - 1][1],
            },
        }
    }

    /// Iterates set-bit positions in ascending order.
    #[inline]
    pub fn iter_ones(self) -> RowOnesIter<'a> {
        match self.body {
            Body::Sparse(ps) => RowOnesIter::Sparse(ps.iter()),
            Body::Runs(rs) => RowOnesIter::Runs {
                runs: rs.iter(),
                cur: None,
            },
        }
    }

    /// `acc |= self`.
    ///
    /// # Panics
    /// Panics if a set bit lies at or beyond `acc.len()`.
    pub fn or_into(self, acc: &mut BitVec) {
        if let Some(end) = self.end() {
            assert!(
                end <= acc.len(),
                "bit {} out of range {}",
                end - 1,
                acc.len()
            );
        }
        self.or_into_clipped(acc);
    }

    /// One past the last set bit (`None` for an empty row).
    fn end(self) -> Option<u32> {
        match self.body {
            Body::Sparse(ps) => ps.last().map(|&p| p + 1),
            Body::Runs(rs) => rs.last().map(|r| r[1]),
        }
    }

    /// `acc |= self`, clipped: positions at or beyond `acc.len()` are
    /// ignored — the in-place equivalent of OR-ing a truncated copy. The
    /// building block of [`crate::BitMatRef::fold`], which projects straight
    /// into a (possibly shorter) join-variable binding space.
    ///
    /// Runs are blitted word-wise (`BitVec::set_range`); sparse positions
    /// are batched into one word-level write per occupied word. Returns
    /// whether a position was clipped.
    pub fn or_into_clipped(self, acc: &mut BitVec) -> bool {
        let len = acc.len();
        match self.body {
            Body::Sparse(ps) => {
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
            Body::Runs(rs) => {
                for &[s, e] in rs {
                    if s >= len {
                        break;
                    }
                    acc.set_range(s, e.min(len));
                }
            }
        }
        self.end().is_some_and(|end| end > len)
    }

    /// Expands to a dense mask (used by fold of single-row loads and tests).
    pub fn to_bitvec(self) -> BitVec {
        let mut v = BitVec::zeros(self.universe);
        self.or_into_clipped(&mut v);
        v
    }

    /// Size in bytes under the hybrid encoding (4-byte integers, as in the
    /// paper, plus a 1-byte representation tag).
    pub fn encoded_bytes(self) -> usize {
        1 + 4 * match self.body {
            Body::Sparse(ps) => ps.len(),
            Body::Runs(rs) => 2 * rs.len(),
        }
    }

    /// Size in bytes if the row were forced into run-length encoding —
    /// the ablation baseline for the paper's "40 % smaller" hybrid claim.
    pub fn rle_only_bytes(self) -> usize {
        let n_runs = match self.body {
            Body::Runs(rs) => rs.len(),
            Body::Sparse(ps) => Hybrid::of(ps.iter().copied()).n_runs,
        };
        1 + 4 * 2 * n_runs
    }
}

/// Appends `(base ∪ ins) ∖ tomb` to `words` in the encoding the hybrid
/// rule picks, after reserving its exact size, and returns its counts;
/// nothing is appended when it is empty. The one body of [`BitRow::edit`]
/// and [`crate::BitMat::push_edit`].
///
/// The work grows with the changes and the base's compressed size, not
/// with its bits: a runs base is edited run by run (the inserted
/// positions merge into maximal runs, each tombstone inside one splits
/// it), and a sparse base is copied a slice at a time between changed
/// positions. One pass counts the result's bits and runs, a second writes
/// it.
pub(crate) fn edit_into(
    base: Option<RowRef<'_>>,
    ins: impl Iterator<Item = u32> + Clone,
    tomb: impl Iterator<Item = u32> + Clone,
    words: &mut Vec<u32>,
) -> Hybrid {
    let body = words.len();
    match base.map(|b| b.body) {
        Some(Body::Runs(rs)) => {
            let edited = EditRuns {
                runs: rs,
                ins: ins.peekable(),
                tomb: tomb.peekable(),
                rest: None,
            };
            let (mut count, mut n_runs) = (0u32, 0usize);
            for [s, e] in edited.clone() {
                count += e - s;
                n_runs += 1;
            }
            let shape = Hybrid { count, n_runs };
            words.reserve(shape.words());
            if shape.runs() {
                edited.for_each(|run| words.extend(run));
            } else {
                edited.for_each(|[s, e]| words.extend(s..e));
            }
            shape
        }
        base => {
            let base = match base {
                Some(Body::Sparse(ps)) => ps,
                _ => &[],
            };
            let (mut count, mut n_runs, mut next) = (0u32, 0usize, None);
            edit_positions(base, ins.clone(), tomb.clone(), |chunk| {
                if let (Some(&first), Some(&last)) = (chunk.first(), chunk.last()) {
                    let breaks = chunk.windows(2).filter(|w| w[1] != w[0] + 1).count();
                    n_runs += usize::from(next != Some(first)) + breaks;
                    next = Some(last + 1);
                    count += chunk.len() as u32;
                }
            });
            let shape = Hybrid { count, n_runs };
            words.reserve(shape.words());
            if shape.runs() {
                edit_positions(base, ins, tomb, |chunk| {
                    chunk.iter().for_each(|&p| push_run_bit(words, body, p))
                });
            } else {
                edit_positions(base, ins, tomb, |chunk| words.extend_from_slice(chunk));
            }
            shape
        }
    }
}

/// Feeds `(ps ∪ ins) ∖ tomb` to `out` in ascending slices ([`BitRow::edit`]
/// on a sparse base): the positions of `ps` between two changed positions
/// are handed over as one slice, found by a binary search, so the work
/// grows with the changes, not with `ps`.
fn edit_positions(
    ps: &[u32],
    ins: impl Iterator<Item = u32>,
    tomb: impl Iterator<Item = u32>,
    mut out: impl FnMut(&[u32]),
) {
    let (mut ins, mut tomb) = (ins.peekable(), tomb.peekable());
    let mut rest = ps;
    loop {
        let q = match (ins.peek(), tomb.peek()) {
            (Some(&a), Some(&t)) => a.min(t),
            (Some(&q), None) | (None, Some(&q)) => q,
            (None, None) => break,
        };
        let (before, from_q) = rest.split_at(rest.partition_point(|&p| p < q));
        out(before);
        let in_base = from_q.first() == Some(&q);
        rest = if in_base { &from_q[1..] } else { from_q };
        let added = ins.next_if_eq(&q).is_some();
        let removed = tomb.next_if_eq(&q).is_some();
        if (in_base || added) && !removed {
            out(std::slice::from_ref(&q));
        }
    }
    out(rest);
}

/// The maximal runs of `(base ∪ ins) ∖ tomb` for a runs base, ascending
/// ([`BitRow::edit`]). Base runs and inserted positions are merged into
/// maximal runs of the union; tombstones then cut each union run into the
/// pieces between them. Pieces of one union run are split by a tombstone,
/// and union runs are apart, so the pieces come out maximal.
#[derive(Clone)]
struct EditRuns<'a, I, T>
where
    I: Iterator<Item = u32>,
    T: Iterator<Item = u32>,
{
    /// The base runs not yet merged.
    runs: &'a [[u32; 2]],
    ins: std::iter::Peekable<I>,
    tomb: std::iter::Peekable<T>,
    /// What is left of the current union run after its last tombstone.
    rest: Option<[u32; 2]>,
}

impl<I, T> EditRuns<'_, I, T>
where
    I: Iterator<Item = u32>,
    T: Iterator<Item = u32>,
{
    /// The next base run, if it starts at or before `limit`.
    fn next_base_if(&mut self, limit: u32) -> Option<[u32; 2]> {
        let (&run, rest) = self.runs.split_first()?;
        (run[0] <= limit).then(|| {
            self.runs = rest;
            run
        })
    }

    /// The next maximal run of `base ∪ ins`.
    fn next_union(&mut self) -> Option<[u32; 2]> {
        let first_ins = self.ins.peek().copied().unwrap_or(u32::MAX);
        let [s, mut e] = match self.next_base_if(first_ins) {
            Some(run) => run,
            None => self.ins.next().map(|p| [p, p + 1])?,
        };
        // Absorb every run and position that overlaps or touches [s, e).
        loop {
            if let Some([_, be]) = self.next_base_if(e) {
                e = e.max(be);
            } else if let Some(p) = self.ins.next_if(|&p| p <= e) {
                e = e.max(p + 1);
            } else {
                return Some([s, e]);
            }
        }
    }
}

impl<I, T> Iterator for EditRuns<'_, I, T>
where
    I: Iterator<Item = u32>,
    T: Iterator<Item = u32>,
{
    type Item = [u32; 2];

    fn next(&mut self) -> Option<[u32; 2]> {
        loop {
            let [s, e] = match self.rest.take() {
                Some(run) => run,
                None => self.next_union()?,
            };
            while self.tomb.next_if(|&t| t < s).is_some() {}
            match self.tomb.next_if(|&t| t < e) {
                Some(t) => {
                    if t + 1 < e {
                        self.rest = Some([t + 1, e]);
                    }
                    if s < t {
                        return Some([s, t]);
                    }
                }
                None => return Some([s, e]),
            }
        }
    }
}

/// Iterator over the set bits of a row.
pub enum RowOnesIter<'a> {
    /// Sparse representation.
    Sparse(std::slice::Iter<'a, u32>),
    /// Run representation.
    Runs {
        /// Remaining runs.
        runs: std::slice::Iter<'a, [u32; 2]>,
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
                    Some(&[s, e]) => *cur = Some((s, e)),
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
        assert_eq!(row.as_ref().encoded_bytes(), 1 + 8);
        assert!(row.as_ref().rle_only_bytes() > row.as_ref().encoded_bytes());
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
        row.as_ref().or_into(&mut acc);
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
        let mut scratch = crate::SetScratch::default();
        let out = row.as_ref().and_mask_copy(&mask, &mut scratch).unwrap();
        assert_eq!(
            out.iter_ones().collect::<Vec<_>>(),
            vec![60, 63, 64, 100, 139]
        );
    }

    #[test]
    fn and_mask_sparse() {
        let row = BitRow::from_sorted_positions(64, &[1, 9, 33]);
        let mask = BitVec::from_positions(64, [9, 40]);
        let mut scratch = crate::SetScratch::default();
        let out = row.as_ref().and_mask_copy(&mask, &mut scratch).unwrap();
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

    /// The edit lands on the hybrid boundary from every kind of base, and
    /// picks what `from_sorted_positions` picks there.
    #[test]
    fn edit_picks_the_hybrid_boundary() {
        let edit = |base: Option<&BitRow>, ins: &[u32], tomb: &[u32]| {
            let base = base.map(BitRow::as_ref);
            BitRow::edit(base, 20, ins.iter().copied(), tomb.iter().copied()).unwrap()
        };
        let sparse = BitRow::from_sorted_positions(20, &[0, 1, 10]);
        let runs = BitRow::from_sorted_positions(20, &[0, 1, 10, 11, 15, 16]);
        assert!(sparse.is_sparse() && !runs.is_sparse());
        for got in [
            edit(None, &[0, 1, 10, 11], &[]),
            edit(Some(&sparse), &[11], &[]),
            edit(Some(&runs), &[], &[15, 16]),
        ] {
            assert_eq!(got, BitRow::from_sorted_positions(20, &[0, 1, 10, 11]));
            assert!(!got.is_sparse(), "count 4 == 2·2 runs → runs");
        }
        // One bit below the boundary → sparse, from each kind of base.
        for got in [
            edit(None, &[0, 1, 10], &[]),
            edit(Some(&sparse), &[], &[]),
            edit(Some(&runs), &[], &[11, 15, 16]),
        ] {
            assert_eq!(got, sparse);
        }
    }
}
