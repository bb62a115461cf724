//! The delta memtable: insert and tombstone sets in the base ID space.
//!
//! A [`TripleSet`] keeps every triple once per BitMat family, as the
//! `(key, row, col)` that family projects it to ([`Family::project`]), so
//! each family ranges over exactly the triples of one matrix, and over one
//! row of it, in the order a row is built: S-O by `(p, s, o)`, O-S by
//! `(p, o, s)`. Nothing is swapped or re-sorted on a load. A per-predicate
//! count beside the orderings answers [`TripleSet::count`] without a scan,
//! and its keys are the predicates the set touches
//! ([`TripleSet::predicates`]). The orderings are `BTreeSet`s: deltas are
//! small by design (compaction folds them away), and ordered range scans
//! produce the sorted positions the compressed rows want.

use lbr_bitmat::Family;
use lbr_rdf::EncodedTriple;
use std::collections::{BTreeSet, HashMap};

/// A set of encoded triples indexed for both BitMat access paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripleSet {
    /// Per family (by discriminant): every triple as its `(key, row, col)`.
    by_family: [BTreeSet<(u32, u32, u32)>; 2],
    /// Triples per predicate (the S-O and O-S key), for each predicate
    /// that has any.
    counts: HashMap<u32, u32>,
}

impl TripleSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.by_family[Family::So as usize].len()
    }

    /// True when no triple is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a triple; returns `true` if it was new.
    pub fn insert(&mut self, t: EncodedTriple) -> bool {
        let added = self.by_family[0].insert(Family::So.project(&t));
        if added {
            self.by_family[1].insert(Family::Os.project(&t));
            *self.counts.entry(t.p).or_default() += 1;
        }
        added
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, t: EncodedTriple) -> bool {
        let removed = self.by_family[0].remove(&Family::So.project(&t));
        if removed {
            self.by_family[1].remove(&Family::Os.project(&t));
            match self.counts.get_mut(&t.p) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.counts.remove(&t.p);
                }
            }
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, t: EncodedTriple) -> bool {
        self.by_family[Family::So as usize].contains(&Family::So.project(&t))
    }

    /// All triples, ascending by `(p, s, o)`.
    pub fn iter(&self) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.by_family[Family::So as usize]
            .iter()
            .map(|&(p, s, o)| EncodedTriple::new(s, p, o))
    }

    /// The predicates of the triples in the set, each once, in no order.
    pub fn predicates(&self) -> impl Iterator<Item = u32> + '_ {
        self.counts.keys().copied()
    }

    /// The `(row, col)` pairs this set holds in the matrix of `key` in
    /// family `f`, ascending. Like [`TripleSet::cols`], one descent of the
    /// ordering finds the first, and a walk reads on from there.
    pub fn pairs(&self, f: Family, key: u32) -> impl Iterator<Item = (u32, u32)> + Clone + '_ {
        self.by_family[f as usize]
            .range((key, 0, 0)..)
            .map_while(move |&(k, r, c)| (k == key).then_some((r, c)))
    }

    /// Triples of predicate `p`: the triple count of its matrix in either
    /// family.
    pub fn count(&self, p: u32) -> u64 {
        self.counts.get(&p).map_or(0, |&n| u64::from(n))
    }

    /// The columns set in row `row` of that matrix, ascending: one
    /// descent of the ordering to the row's first pair (a bounded range
    /// would take two), then a walk that stops at the row's end.
    pub fn cols(&self, f: Family, key: u32, row: u32) -> impl Iterator<Item = u32> + Clone + '_ {
        self.by_family[f as usize]
            .range((key, row, 0)..)
            .map_while(move |&(k, r, c)| (k == key && r == row).then_some(c))
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

    /// Changes (inserts + tombstones) to predicate `p`: to its matrix in
    /// either family.
    pub fn count(&self, p: u32) -> u64 {
        self.inserts.count(p) + self.tombstones.count(p)
    }

    /// The rows of that matrix an insert or a tombstone touches, ascending
    /// and distinct, each with its inserted and its tombstoned columns,
    /// ascending: one walk over the key's changes, with no lookup per row.
    pub fn changed_rows(
        &self,
        f: Family,
        key: u32,
    ) -> impl Iterator<
        Item = (
            u32,
            impl Iterator<Item = u32> + Clone + '_,
            impl Iterator<Item = u32> + Clone + '_,
        ),
    > + '_ {
        let mut ins = self.inserts.pairs(f, key).peekable();
        let mut tomb = self.tombstones.pairs(f, key).peekable();
        std::iter::from_fn(move || {
            let r = match (ins.peek(), tomb.peek()) {
                (Some(&(a, _)), Some(&(b, _))) => a.min(b),
                (Some(&(r, _)), None) | (None, Some(&(r, _))) => r,
                (None, None) => return None,
            };
            let of_row = |pairs: &std::iter::Peekable<_>| {
                pairs
                    .clone()
                    .map_while(move |(pr, c)| (pr == r).then_some(c))
            };
            let row = (r, of_row(&ins), of_row(&tomb));
            while ins.next_if(|&(pr, _)| pr == r).is_some() {}
            while tomb.next_if(|&(pr, _)| pr == r).is_some() {}
            Some(row)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> EncodedTriple {
        EncodedTriple::new(s, p, o)
    }

    #[test]
    fn both_orderings_stay_in_sync() {
        let mut set = TripleSet::new();
        assert!(set.insert(t(1, 0, 2)));
        assert!(set.insert(t(3, 0, 2)));
        assert!(set.insert(t(1, 1, 4)));
        assert!(!set.insert(t(1, 0, 2)), "duplicate insert is a no-op");
        assert_eq!(set.len(), 3);

        let pairs = |f, key| set.pairs(f, key).collect::<Vec<_>>();
        assert_eq!(pairs(Family::So, 0), vec![(1, 2), (3, 2)]);
        assert_eq!(pairs(Family::Os, 0), vec![(2, 1), (2, 3)]);
        assert_eq!(pairs(Family::So, 1), vec![(1, 4)]);
        assert_eq!(pairs(Family::Os, 1), vec![(4, 1)]);
        let mut preds: Vec<u32> = set.predicates().collect();
        preds.sort_unstable();
        assert_eq!(preds, [0, 1]);
        // Every triple is one bit in one matrix of each family, and the
        // row view agrees with the pair view.
        for f in Family::ALL {
            for t in set.iter() {
                let (key, row, col) = f.project(&t);
                assert!(pairs(f, key).contains(&(row, col)), "{f:?} {t:?}");
                assert!(set.cols(f, key, row).any(|c| c == col), "{f:?} {t:?}");
                let in_row = pairs(f, key).iter().filter(|p| p.0 == row).count();
                assert_eq!(set.row_count(f, key, row), in_row as u64);
                assert_eq!(set.count(key), pairs(f, key).len() as u64);
            }
        }

        assert!(set.remove(t(3, 0, 2)));
        assert!(!set.remove(t(3, 0, 2)));
        assert_eq!(set.count(0), 1);
        assert_eq!(set.row_count(Family::Os, 0, 2), 1);
        assert_eq!(set.row_count(Family::So, 0, 3), 0);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![t(1, 0, 2), t(1, 1, 4)]);
        // Removing what was inserted leaves the empty set, counts included.
        assert!(set.remove(t(1, 0, 2)) && set.remove(t(1, 1, 4)));
        assert_eq!(set.predicates().count(), 0);
        assert_eq!(set, TripleSet::new());
    }

    #[test]
    fn changed_rows_merge_inserts_and_tombstones() {
        let mut d = Delta::new();
        for e in [t(5, 0, 1), t(2, 0, 1), t(2, 0, 3), t(0, 1, 0)] {
            d.inserts.insert(e);
        }
        for e in [t(2, 0, 4), t(7, 0, 0)] {
            d.tombstones.insert(e);
        }
        let changed = |f, key| -> Vec<(u32, Vec<u32>, Vec<u32>)> {
            let rows = d.changed_rows(f, key);
            rows.map(|(r, ins, tomb)| (r, ins.collect(), tomb.collect()))
                .collect()
        };
        let so = [
            (2, vec![1, 3], vec![4]),
            (5, vec![1], vec![]),
            (7, vec![], vec![0]),
        ];
        assert_eq!(changed(Family::So, 0), so);
        let os = [
            (0, vec![], vec![7]),
            (1, vec![2, 5], vec![]),
            (3, vec![2], vec![]),
            (4, vec![], vec![2]),
        ];
        assert_eq!(changed(Family::Os, 0), os);
        assert_eq!(changed(Family::So, 2), []);
        assert_eq!(d.count(0), 5);
        assert_eq!(d.count(1), 1);
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
