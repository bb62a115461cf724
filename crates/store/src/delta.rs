//! The delta memtable: insert and tombstone sets in the base ID space.
//!
//! A [`TripleSet`] keeps every triple under three orderings — `(p,s,o)`,
//! `(s,p,o)` and `(o,p,s)` — so each of the four BitMat families can range
//! over exactly the triples it needs (S-O / O-S by predicate, P-O by
//! subject, P-S by object) without scanning the whole delta. The sets are
//! `BTreeSet`s: deltas are small by design (compaction folds them away),
//! and ordered range scans produce the sorted position lists the
//! compressed-row constructors want.

use lbr_bitmat::Family;
use lbr_rdf::EncodedTriple;
use std::collections::btree_set::{BTreeSet, Range};

/// A set of encoded triples indexed for all four BitMat access paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripleSet {
    /// `(p, s, o)` — serves the per-predicate S-O / O-S families.
    by_pso: BTreeSet<(u32, u32, u32)>,
    /// `(s, p, o)` — serves the per-subject P-O family.
    by_spo: BTreeSet<(u32, u32, u32)>,
    /// `(o, p, s)` — serves the per-object P-S family.
    by_ops: BTreeSet<(u32, u32, u32)>,
}

impl TripleSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.by_pso.len()
    }

    /// True when no triple is present.
    pub fn is_empty(&self) -> bool {
        self.by_pso.is_empty()
    }

    /// Inserts a triple; returns `true` if it was new.
    pub fn insert(&mut self, t: EncodedTriple) -> bool {
        let added = self.by_pso.insert((t.p, t.s, t.o));
        if added {
            self.by_spo.insert((t.s, t.p, t.o));
            self.by_ops.insert((t.o, t.p, t.s));
        }
        added
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, t: EncodedTriple) -> bool {
        let removed = self.by_pso.remove(&(t.p, t.s, t.o));
        if removed {
            self.by_spo.remove(&(t.s, t.p, t.o));
            self.by_ops.remove(&(t.o, t.p, t.s));
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, t: EncodedTriple) -> bool {
        self.by_pso.contains(&(t.p, t.s, t.o))
    }

    /// All triples, ascending by `(p, s, o)`.
    pub fn iter(&self) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.by_pso
            .iter()
            .map(|&(p, s, o)| EncodedTriple::new(s, p, o))
    }

    /// Every triple of `key` in family `f`, in the ordering that leads
    /// with that key (S-O and O-S share the per-predicate one).
    fn of_key(&self, f: Family, key: u32) -> Range<'_, (u32, u32, u32)> {
        let set = match f {
            Family::So | Family::Os => &self.by_pso,
            Family::Po => &self.by_spo,
            Family::Ps => &self.by_ops,
        };
        set.range((key, 0, 0)..=(key, u32::MAX, u32::MAX))
    }

    /// The `(row, col)` pairs this set holds in the matrix of `key` in
    /// family `f`, ascending — what the compressed-row constructors want.
    /// O-S has no ordering of its own: its pairs are the S-O pairs of the
    /// predicate swapped and re-sorted.
    pub fn pairs(&self, f: Family, key: u32) -> Vec<(u32, u32)> {
        let of_key = self.of_key(f, key);
        if f == Family::Os {
            let mut swapped: Vec<(u32, u32)> = of_key.map(|&(_, s, o)| (o, s)).collect();
            swapped.sort_unstable();
            swapped
        } else {
            of_key.map(|&(_, r, c)| (r, c)).collect()
        }
    }

    /// Triple count of that matrix.
    pub fn count(&self, f: Family, key: u32) -> u64 {
        self.of_key(f, key).count() as u64
    }

    /// The columns set in row `row` of that matrix, ascending. A row of an
    /// O-S matrix is `(o, p, ·)` in the per-object ordering, with the key
    /// in the middle; the other families lead with `(key, row)`.
    pub fn cols(&self, f: Family, key: u32, row: u32) -> impl Iterator<Item = u32> + '_ {
        let (set, a, b) = match f {
            Family::So => (&self.by_pso, key, row),
            Family::Os => (&self.by_ops, row, key),
            Family::Po => (&self.by_spo, key, row),
            Family::Ps => (&self.by_ops, key, row),
        };
        set.range((a, b, 0)..=(a, b, u32::MAX)).map(|&(_, _, c)| c)
    }

    /// Set-bit count of that row.
    pub fn row_count(&self, f: Family, key: u32, row: u32) -> u64 {
        self.cols(f, key, row).count() as u64
    }
}

/// The memtable: what the current epoch has added to and removed from the
/// immutable base segments.
///
/// Invariants (maintained by [`crate::Store`] at apply time, relied on by
/// [`crate::OverlayCatalog`] for exact arithmetic counts):
///
/// * every `inserts` triple is **absent** from the base segments;
/// * every `tombstones` triple is **present** in the base segments;
/// * `inserts` and `tombstones` are disjoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Triples added since the segments were built.
    pub inserts: TripleSet,
    /// Base triples deleted since the segments were built.
    pub tombstones: TripleSet,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the delta holds no changes (the overlay is then a pure
    /// pass-through to the base segments).
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.tombstones.is_empty()
    }

    /// Number of resident changes (inserts + tombstones) — what the
    /// compaction threshold is compared against.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.tombstones.len()
    }

    /// Net triple-count change relative to the base.
    pub fn net(&self) -> i64 {
        self.inserts.len() as i64 - self.tombstones.len() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> EncodedTriple {
        EncodedTriple::new(s, p, o)
    }

    #[test]
    fn three_orderings_stay_in_sync() {
        let mut set = TripleSet::new();
        assert!(set.insert(t(1, 0, 2)));
        assert!(set.insert(t(3, 0, 2)));
        assert!(set.insert(t(1, 1, 4)));
        assert!(!set.insert(t(1, 0, 2)), "duplicate insert is a no-op");
        assert_eq!(set.len(), 3);

        assert_eq!(set.pairs(Family::So, 0), vec![(1, 2), (3, 2)]);
        assert_eq!(set.pairs(Family::Os, 0), vec![(2, 1), (2, 3)]);
        assert_eq!(set.pairs(Family::Po, 1), vec![(0, 2), (1, 4)]);
        assert_eq!(set.pairs(Family::Ps, 2), vec![(0, 1), (0, 3)]);
        // Every triple is one bit in one matrix of each family, and the
        // row view agrees with the pair view.
        for f in Family::ALL {
            for t in set.iter() {
                let (key, row, col) = f.project(&t);
                assert!(set.pairs(f, key).contains(&(row, col)), "{f:?} {t:?}");
                assert!(set.cols(f, key, row).any(|c| c == col), "{f:?} {t:?}");
                let in_row = set.pairs(f, key).iter().filter(|p| p.0 == row).count();
                assert_eq!(set.row_count(f, key, row), in_row as u64);
                assert_eq!(set.count(f, key), set.pairs(f, key).len() as u64);
            }
        }

        assert!(set.remove(t(3, 0, 2)));
        assert!(!set.remove(t(3, 0, 2)));
        assert_eq!(set.count(Family::So, 0), 1);
        assert_eq!(set.count(Family::Ps, 2), 1);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![t(1, 0, 2), t(1, 1, 4)]);
    }

    #[test]
    fn delta_len_and_net() {
        let mut d = Delta::new();
        assert!(d.is_empty());
        d.inserts.insert(t(0, 0, 0));
        d.inserts.insert(t(0, 0, 1));
        d.tombstones.insert(t(1, 0, 0));
        assert_eq!(d.len(), 3);
        assert_eq!(d.net(), 1);
        assert!(!d.is_empty());
    }
}
