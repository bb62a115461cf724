//! Dense word-level bit vectors, used as the β mask arrays of the paper's
//! `fold`/`unfold` primitives (Algorithms 5.2 and 5.3).
//!
//! Masks are transient per-query objects over one bitcube dimension, so a
//! dense `u64`-word representation is the right trade-off: `AND`ing two
//! masks (the core of a semi-join) is a straight word loop.

/// A fixed-length dense bit vector.
///
/// `Default` is the zero-length vector — the natural seed for a reusable
/// scratch accumulator that [`BitVec::reset`] will size on first use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: u32,
}

impl BitVec {
    /// All-zeros vector of `len` bits.
    pub fn zeros(len: u32) -> Self {
        BitVec {
            words: vec![0; Self::n_words(len)],
            len,
        }
    }

    /// All-ones vector of `len` bits.
    pub fn ones(len: u32) -> Self {
        let mut v = BitVec {
            words: vec![u64::MAX; Self::n_words(len)],
            len,
        };
        v.trim_tail();
        v
    }

    /// Builds from an iterator of set-bit positions (any order, in range).
    pub fn from_positions(len: u32, positions: impl IntoIterator<Item = u32>) -> Self {
        let mut v = Self::zeros(len);
        for p in positions {
            v.set(p);
        }
        v
    }

    fn n_words(len: u32) -> usize {
        (len as usize).div_ceil(64)
    }

    /// Zeroes any bits beyond `len` in the last word (keeps counts honest).
    fn trim_tail(&mut self) {
        let tail = (self.len % 64) as u64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when `len == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: u32) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    pub fn clear(&mut self, i: u32) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i` (out-of-range reads return `false`).
    pub fn get(&self, i: u32) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// `self &= other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True when no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates set-bit positions in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Raw word access (read-only), used by [`crate::BitRow`] to stream
    /// mask windows without per-bit calls.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Raw word access (mutable), used by the word-batched sparse path of
    /// [`crate::BitRow::or_into`].
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Reuses this vector as an all-zeros vector of `len` bits, keeping the
    /// word buffer's capacity. Returns `true` when the buffer had to grow
    /// (i.e. the call allocated); steady-state reuse returns `false`.
    pub fn reset(&mut self, len: u32) -> bool {
        let n = Self::n_words(len);
        let grew = n > self.words.capacity();
        self.words.clear();
        self.words.resize(n, 0);
        self.len = len;
        grew
    }

    /// Reuses this vector as an all-ones vector of `len` bits (see
    /// [`BitVec::reset`]); returns `true` when the buffer had to grow.
    pub fn reset_ones(&mut self, len: u32) -> bool {
        let n = Self::n_words(len);
        let grew = n > self.words.capacity();
        self.words.clear();
        self.words.resize(n, u64::MAX);
        self.len = len;
        self.trim_tail();
        grew
    }

    /// `self |= other`, clipped: bits of `other` beyond `self.len` are
    /// ignored (the in-place equivalent of `or_assign(&other.resized(..))`).
    /// Returns whether `other` had a set bit at or beyond `self.len`.
    pub fn or_clipped(&mut self, other: &BitVec) -> bool {
        let n = self.words.len().min(other.words.len());
        for (a, b) in self.words[..n].iter_mut().zip(&other.words[..n]) {
            *a |= b;
        }
        let mut clipped = other.words[n..].iter().any(|&w| w != 0);
        let tail = self.len % 64;
        if tail != 0 && n == self.words.len() {
            clipped |= other.words[n - 1] >> tail != 0;
        }
        self.trim_tail();
        clipped
    }

    /// `self &= other`, clipped: bits beyond `other.len` read as zero (the
    /// in-place equivalent of `and_assign(&other.resized(self.len))`).
    /// Returns whether a set bit was cleared.
    pub fn and_clipped(&mut self, other: &BitVec) -> bool {
        let n = self.words.len().min(other.words.len());
        let mut cleared = false;
        for (a, b) in self.words[..n].iter_mut().zip(&other.words[..n]) {
            cleared |= *a & !b != 0;
            *a &= b;
        }
        for a in self.words[n..].iter_mut() {
            cleared |= *a != 0;
            *a = 0;
        }
        cleared
    }

    /// `self = a & b` in one pass, clipped to `a`'s length: bits of `b`
    /// beyond it are dropped, and bits of `a` beyond `b`'s length clear
    /// (so with one `a` this equals `and_clipped` on a copy of it). `self`
    /// keeps its capacity. Returns whether `b` lost a bit, that is whether
    /// the result misses a bit set in `b`.
    pub fn assign_and(&mut self, a: &BitVec, b: &BitVec) -> bool {
        let n = a.words.len().min(b.words.len());
        let mut lost = b.words[n..].iter().any(|&w| w != 0);
        self.words.clear();
        self.words
            .extend(a.words[..n].iter().zip(&b.words[..n]).map(|(x, y)| {
                lost |= y & !x != 0;
                x & y
            }));
        self.words.resize(a.words.len(), 0);
        self.len = a.len;
        lost
    }

    /// `self = other`, reusing this vector's buffer.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// A copy resized to `len` bits: truncation drops high bits, extension
    /// pads with zeros. Used to move masks between a BitMat dimension and a
    /// join variable's binding space (the shared S-O prefix, Appendix D).
    pub fn resized(&self, len: u32) -> BitVec {
        let mut out = BitVec::zeros(len);
        let n = out.words.len().min(self.words.len());
        out.words[..n].copy_from_slice(&self.words[..n]);
        out.trim_tail();
        out
    }

    /// Sets the word-aligned range `[from, to)` of bits, used by RLE runs.
    pub(crate) fn set_range(&mut self, from: u32, to: u32) {
        debug_assert!(to <= self.len);
        if from >= to {
            return;
        }
        let (fw, fb) = ((from / 64) as usize, from % 64);
        let (lw, lb) = (((to - 1) / 64) as usize, (to - 1) % 64 + 1);
        if fw == lw {
            let mask = (u64::MAX << fb) & (u64::MAX >> (64 - lb));
            self.words[fw] |= mask;
        } else {
            self.words[fw] |= u64::MAX << fb;
            for w in &mut self.words[fw + 1..lw] {
                *w = u64::MAX;
            }
            self.words[lw] |= u64::MAX >> (64 - lb);
        }
    }
}

/// Iterator over set-bit positions of a [`BitVec`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some(self.word_idx as u32 * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut v = BitVec::zeros(130);
        assert!(!v.get(0));
        v.set(0);
        v.set(64);
        v.set(129);
        assert!(v.get(0) && v.get(64) && v.get(129));
        v.clear(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
        assert!(!v.get(500)); // out-of-range read is false
    }

    #[test]
    fn ones_respects_length() {
        let v = BitVec::ones(67);
        assert_eq!(v.count_ones(), 67);
        assert!(v.get(66));
        assert!(!v.get(67));
    }

    #[test]
    fn and_or() {
        let mut a = BitVec::from_positions(100, [1, 5, 64, 99]);
        let b = BitVec::from_positions(100, [5, 64, 70]);
        let mut c = a.clone();
        a.and_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![5, 64]);
        c.or_assign(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![1, 5, 64, 70, 99]);
    }

    #[test]
    fn iter_ones_order() {
        let v = BitVec::from_positions(200, [199, 0, 63, 64, 128]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 128, 199]);
    }

    #[test]
    fn set_range_spanning_words() {
        let mut v = BitVec::zeros(200);
        v.set_range(60, 131);
        assert_eq!(v.count_ones(), 71);
        assert!(!v.get(59));
        assert!(v.get(60));
        assert!(v.get(130));
        assert!(!v.get(131));
        // Empty and single-word ranges.
        let mut w = BitVec::zeros(64);
        w.set_range(10, 10);
        assert!(w.is_zero());
        w.set_range(3, 7);
        assert_eq!(w.iter_ones().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
    }

    #[test]
    fn zero_length_vector() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert!(v.is_zero());
        assert_eq!(v.iter_ones().count(), 0);
        let o = BitVec::ones(0);
        assert_eq!(o.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitVec::zeros(10).set(10);
    }

    /// The clipped operations report what they dropped, and `assign_and`
    /// whether its second operand lost a bit.
    #[test]
    fn clipped_ops_report_changes() {
        let wide = BitVec::from_positions(130, [3, 70]);
        let mut short = BitVec::zeros(70);
        assert!(short.or_clipped(&wide), "bit 70 lies beyond 70 bits");
        assert_eq!(short.iter_ones().collect::<Vec<_>>(), vec![3]);
        let mut exact = BitVec::zeros(71);
        assert!(!exact.or_clipped(&wide));
        let mut tiny = BitVec::zeros(64);
        assert!(tiny.or_clipped(&wide), "a whole word beyond");
        assert!(!BitVec::zeros(200).or_clipped(&wide));

        let mut a = BitVec::from_positions(130, [3, 70, 129]);
        assert!(!a.and_clipped(&BitVec::ones(130)));
        assert!(
            a.and_clipped(&BitVec::ones(100)),
            "bit 129 is beyond the mask"
        );
        assert!(!a.and_clipped(&BitVec::ones(100)));
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![3, 70]);

        let (x, y) = (
            BitVec::from_positions(100, [1, 5, 64]),
            BitVec::from_positions(100, [5, 64]),
        );
        let mut out = BitVec::default();
        assert!(!out.assign_and(&x, &y), "y ⊆ x");
        assert_eq!(out, y);
        assert!(out.assign_and(&y, &x), "x loses bit 1");
        assert_eq!(out, y);
        let short = BitVec::from_positions(64, [5]);
        assert!(out.assign_and(&short, &x), "x's bits past 64 are clipped");
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![5]);
        assert!(!out.assign_and(&x, &short));
        assert_eq!(
            (out.len(), out.iter_ones().collect::<Vec<_>>()),
            (100, vec![5])
        );
        let mut copy = BitVec::zeros(3);
        copy.copy_from(&x);
        assert_eq!(copy, x);
    }

    #[test]
    fn resized_truncates_and_pads() {
        let v = BitVec::from_positions(100, [0, 63, 64, 99]);
        let small = v.resized(64);
        assert_eq!(small.iter_ones().collect::<Vec<_>>(), vec![0, 63]);
        assert_eq!(small.len(), 64);
        let big = v.resized(200);
        assert_eq!(big.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 99]);
        assert!(!big.get(150));
        // Truncation inside a word must clear tail bits.
        let t = v.resized(64 + 1);
        assert_eq!(t.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64]);
    }
}
