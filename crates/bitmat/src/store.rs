//! In-memory BitMat store: builds and holds the S-O and O-S families and
//! the predicate lists beside them.

use crate::bitvec::BitVec;
use crate::catalog::{Catalog, CubeDims, Family};
use crate::error::BitMatError;
use crate::kernel::SetScratch;
use crate::matrix::BitMat;
use crate::row::CowRow;
use lbr_rdf::EncodedGraph;
use std::borrow::Cow;

/// The index set: `2·|Vp|` BitMats, one densely keyed `Vec` per
/// [`Family`] (S-O and O-S per predicate), and per family the predicate
/// list of each of its rows ([`Catalog::predicates`]).
///
/// The paper keeps `2·|Vp| + |Vs| + |Vo|` BitMats (§4): a P-O BitMat per
/// subject and a P-S BitMat per object besides these. Those hold the same
/// triples keyed the other way, so their rows are S-O and O-S rows, and
/// of each only its row ids are kept — the predicate lists, which a
/// variable-predicate pattern assembles its matrix from
/// ([`Catalog::predicate_matrix`]).
#[derive(Debug, Clone)]
pub struct BitMatStore {
    dims: CubeDims,
    /// Indexed by `Family as usize`, then by predicate.
    families: [Vec<BitMat>; 2],
    /// Indexed by `Family as usize`: the predicates of each of the
    /// family's rows, laid out as a segment stores them ([`list_in`]).
    lists: [Vec<u32>; 2],
}

impl BitMatStore {
    /// Builds both families and their predicate lists from an encoded
    /// graph, on one thread, from stable counting sorts over the IDs
    /// (whose ranges [`CubeDims`] gives) of a permutation of
    /// `graph.triples`; the triples are never copied. Passes by object and
    /// then by subject order the permutation by `(s, o)`, and S-O's pass by
    /// predicate lays each predicate's `(s, o)` pairs out in order. That
    /// `(s, o)` order has the subjects ascending within each `(p, o)`, so
    /// one more pass by object, then O-S's by predicate, give `(p, o, s)`.
    pub fn build(graph: &EncodedGraph) -> Self {
        let dims = CubeDims::of(graph);
        let t = &graph.triples;
        let n = u32::try_from(t.len()).expect("more triples than u32 indexes");
        let pairs = |f: Family, order: &[u32]| {
            let bits = order.iter().map(|&i| f.project(&t[i as usize]));
            counting_sort(bits, dims.n_predicates, |b| b.0, |b| (b.1, b.2))
        };
        let order = permute((0..n).collect(), dims.n_objects, |i| t[i].o);
        let order = permute(order, dims.n_subjects, |i| t[i].s);
        let so = family(Family::So, &dims, pairs(Family::So, &order));
        let os_pairs = pairs(Family::Os, &permute(order, dims.n_objects, |i| t[i].o));
        let os = family(Family::Os, &dims, os_pairs);
        let lists = [
            pred_lists(&so, dims.n_subjects),
            pred_lists(&os, dims.n_objects),
        ];
        BitMatStore {
            dims,
            families: [so, os],
            lists,
        }
    }

    /// Direct read access to the matrix of `key` in family `f` (empty
    /// matrices included; `None` only when `key` is out of range).
    pub fn get(&self, f: Family, key: u32) -> Option<&BitMat> {
        self.families[f as usize].get(key as usize)
    }

    /// Iterates the families in serialization order: `(family, key, mat)`.
    pub(crate) fn iter_families(&self) -> impl Iterator<Item = (Family, u32, &BitMat)> {
        Family::ALL.into_iter().flat_map(move |f| {
            let mats = self.families[f as usize].iter().enumerate();
            mats.map(move |(k, m)| (f, k as u32, m))
        })
    }

    /// The predicate lists of family `f`'s rows ([`list_in`]).
    pub(crate) fn lists(&self, f: Family) -> &[u32] {
        &self.lists[f as usize]
    }

    /// Total index size under the hybrid encoding vs pure RLE — the §4
    /// "hybrid compression fetches us as much as 40 % reduction" ablation
    /// — and the bytes of the predicate lists.
    pub fn size_report(&self) -> SizeReport {
        let mut r = SizeReport::default();
        for (_, _, m) in self.iter_families() {
            r.hybrid_bytes += m.as_ref().encoded_bytes() as u64;
            r.rle_only_bytes += m.as_ref().rle_only_bytes() as u64;
            r.n_matrices += 1;
        }
        r.list_bytes = self.lists.iter().map(|l| 4 * l.len() as u64).sum();
        r
    }
}

/// Index size comparison between the hybrid row encoding and pure RLE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeReport {
    /// Total bytes with the hybrid (RLE ∪ sparse positions) encoding.
    pub hybrid_bytes: u64,
    /// Total bytes with run-length encoding forced everywhere.
    pub rle_only_bytes: u64,
    /// Number of matrices: `2|Vp|`, the S-O and O-S families. The paper's
    /// `2|Vp| + |Vs| + |Vo|` adds a P-O BitMat per subject and a P-S
    /// BitMat per object, which are served from these
    /// ([`Catalog::predicate_matrix`]).
    pub n_matrices: u64,
    /// Bytes of the predicate lists that stand in for the P-O and P-S
    /// families: their row ids, without bodies.
    pub list_bytes: u64,
}

impl SizeReport {
    /// Fractional saving of hybrid over pure RLE (0.4 ≈ the paper's 40 %).
    pub fn saving(&self) -> f64 {
        if self.rle_only_bytes == 0 {
            0.0
        } else {
            1.0 - self.hybrid_bytes as f64 / self.rle_only_bytes as f64
        }
    }
}

/// The predicate lists of a family whose matrices (indexed by predicate)
/// have `n_rows` rows: per row (a subject of S-O, an object of O-S) the
/// ascending predicates whose matrix has it, from a counting sort of the
/// matrices' row ids. Laid out as [`list_in`] reads them.
fn pred_lists(mats: &[BitMat], n_rows: u32) -> Vec<u32> {
    let rows = (0..)
        .zip(mats)
        .flat_map(|(p, m)| m.as_ref().ids.iter().map(move |&r| (p, r)));
    let (preds, mut words) = counting_sort(rows, n_rows, |(_, r)| r, |(p, _)| p);
    words.extend(preds);
    words
}

/// Row `r`'s predicates in `words`, one family's predicate lists as the
/// heap store and a segment hold them: `n_rows + 1` offsets, then every
/// row's predicates back to back, row `r`'s at `offsets[r]..offsets[r +
/// 1]`. Empty for a row past the offsets; `None` when the words are
/// malformed (only a mapped list can be): too short for the offsets,
/// offsets that do not bound a slice of the predicates, or predicates
/// that do not ascend below `n_predicates`.
pub(crate) fn list_in(words: &[u32], n_rows: u32, n_predicates: u32, r: u32) -> Option<&[u32]> {
    let (offsets, preds) = words.split_at_checked(n_rows as usize + 1)?;
    let r = r as usize;
    let (Some(&a), Some(&b)) = (offsets.get(r), offsets.get(r + 1)) else {
        return Some(&[]);
    };
    let list = preds.get(a as usize..b as usize)?;
    let sound = list.windows(2).all(|w| w[0] < w[1]);
    (sound && list.last().is_none_or(|&p| p < n_predicates)).then_some(list)
}

/// A stable counting sort of `items` by their `id` (below `n_ids`): the
/// `out` of each item in sorted order, and the `n_ids + 1` offsets that
/// bound each id's run in them (id `k`'s at `offsets[k]..offsets[k + 1]`).
fn counting_sort<I: Copy, T: Copy + Default>(
    items: impl Iterator<Item = I> + Clone,
    n_ids: u32,
    id: impl Fn(I) -> u32,
    out: impl Fn(I) -> T,
) -> (Vec<T>, Vec<u32>) {
    // Id `k` is counted at `k + 2`, so that after the prefix sums its run
    // starts at `offsets[k + 1]`, which the scatter then moves to its end.
    let mut offsets = vec![0u32; n_ids as usize + 2];
    for x in items.clone() {
        offsets[id(x) as usize + 2] += 1;
    }
    for k in 1..offsets.len() {
        offsets[k] += offsets[k - 1];
    }
    let mut sorted = vec![T::default(); offsets[n_ids as usize + 1] as usize];
    for x in items {
        let next = &mut offsets[id(x) as usize + 1];
        sorted[*next as usize] = out(x);
        *next += 1;
    }
    offsets.pop();
    (sorted, offsets)
}

/// `order`, a permutation of triple indexes, stably reordered by the `id`
/// of each triple.
fn permute(order: Vec<u32>, n_ids: u32, id: impl Fn(usize) -> u32) -> Vec<u32> {
    counting_sort(order.iter().copied(), n_ids, |i| id(i as usize), |i| i).0
}

/// Slices one family off its bits' `(row, col)` pairs, sorted by key,
/// row and column, and the offsets of each key's run in them: one BitMat
/// per key.
fn family(
    f: Family,
    dims: &CubeDims,
    (pairs, offsets): (Vec<(u32, u32)>, Vec<u32>),
) -> Vec<BitMat> {
    let (_, n_rows, n_cols) = f.shape(dims);
    let run = |w: &[u32]| &pairs[w[0] as usize..w[1] as usize];
    let mats = offsets.windows(2);
    mats.map(|w| BitMat::from_sorted_pairs(n_rows, n_cols, run(w)))
        .collect()
}

impl Catalog for BitMatStore {
    fn dims(&self) -> CubeDims {
        self.dims
    }

    fn matrix(&self, f: Family, key: u32) -> Result<Option<Cow<'_, BitMat>>, BitMatError> {
        let mat = self.get(f, key).filter(|m| !m.as_ref().is_empty());
        Ok(mat.map(Cow::Borrowed))
    }

    fn masked(
        &self,
        f: Family,
        key: u32,
        rows: Option<&BitVec>,
        cols: Option<&BitVec>,
        scratch: &mut SetScratch,
    ) -> Result<Option<BitMat>, BitMatError> {
        let Some(mat) = self.get(f, key) else {
            return Ok(None);
        };
        let mat = mat.as_ref().masked(rows, cols, scratch)?;
        Ok((!mat.as_ref().is_empty()).then_some(mat))
    }

    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<CowRow<'_>>, BitMatError> {
        let row = self.get(f, key).and_then(|m| m.as_ref().row(r));
        Ok(row.map(CowRow::Borrowed))
    }

    fn count(&self, f: Family, key: u32) -> u64 {
        self.get(f, key).map_or(0, |m| m.as_ref().triple_count())
    }

    fn row_count(&self, f: Family, key: u32, r: u32) -> u64 {
        self.get(f, key)
            .map_or(0, |m| m.as_ref().row_count(r).into())
    }

    fn predicates(&self, f: Family, r: u32) -> Result<Cow<'_, [u32]>, BitMatError> {
        let (_, n_rows, _) = f.shape(&self.dims);
        let list = list_in(self.lists(f), n_rows, self.dims.n_predicates, r);
        Ok(Cow::Borrowed(list.unwrap_or_default()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lbr_rdf::{EncodedTriple, Graph, Term, Triple};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// The Figure 3.2 dataset (11 triples about sitcom actors).
    pub(crate) fn figure_3_2_graph() -> EncodedGraph {
        Graph::from_triples(vec![
            t("Julia", "actedIn", "Seinfeld"),
            t("Julia", "actedIn", "Veep"),
            t("Julia", "actedIn", "NewAdvOldChristine"),
            t("Julia", "actedIn", "CurbYourEnthu"),
            t("CurbYourEnthu", "location", "LosAngeles"),
            t("Larry", "actedIn", "CurbYourEnthu"),
            t("Jerry", "hasFriend", "Julia"),
            t("Jerry", "hasFriend", "Larry"),
            t("Seinfeld", "location", "NewYorkCity"),
            t("Veep", "location", "D.C."),
            t("NewAdvOldChristine", "location", "Jersey"),
        ])
        .encode()
    }

    #[test]
    fn builds_figure_4_1_families() {
        let g = figure_3_2_graph();
        let store = BitMatStore::build(&g);
        let d = &g.dict;
        let acted = d
            .id(&Term::iri("actedIn"), lbr_rdf::Dimension::Predicate)
            .unwrap();
        let loc = d
            .id(&Term::iri("location"), lbr_rdf::Dimension::Predicate)
            .unwrap();
        let friend = d
            .id(&Term::iri("hasFriend"), lbr_rdf::Dimension::Predicate)
            .unwrap();
        assert_eq!(store.count(Family::So, acted), 5);
        assert_eq!(store.count(Family::So, loc), 4);
        assert_eq!(store.count(Family::So, friend), 2);
        // O-S is the transpose of S-O.
        assert_eq!(
            store.get(Family::So, acted).unwrap().as_ref().transpose(),
            *store.get(Family::Os, acted).unwrap()
        );
        assert_family_totals(&store, 11);
    }

    /// Totals across any family equal the dataset size.
    fn assert_family_totals(store: &BitMatStore, n_triples: u64) {
        for f in Family::ALL {
            let (n_keys, _, _) = f.shape(&store.dims());
            let total: u64 = (0..n_keys).map(|key| store.count(f, key)).sum();
            assert_eq!(total, n_triples, "{}", f.name());
        }
    }

    #[test]
    fn single_row_loads() {
        let g = figure_3_2_graph();
        let store = BitMatStore::build(&g);
        let d = &g.dict;
        let jerry = d
            .id(&Term::iri("Jerry"), lbr_rdf::Dimension::Subject)
            .unwrap();
        let friend = d
            .id(&Term::iri("hasFriend"), lbr_rdf::Dimension::Predicate)
            .unwrap();
        // (Jerry hasFriend ?f): two candidate objects.
        let row = store.row(Family::So, friend, jerry).unwrap().unwrap();
        assert_eq!(row.as_ref().count_ones(), 2);
        assert_eq!(store.row_count(Family::So, friend, jerry), 2);
        // (?sitcom location NewYorkCity): one candidate subject.
        let nyc = d
            .id(&Term::iri("NewYorkCity"), lbr_rdf::Dimension::Object)
            .unwrap();
        let loc = d
            .id(&Term::iri("location"), lbr_rdf::Dimension::Predicate)
            .unwrap();
        let row = store.row(Family::Os, loc, nyc).unwrap().unwrap();
        assert_eq!(row.as_ref().count_ones(), 1);
        assert_eq!(store.row_count(Family::Os, loc, nyc), 1);
        // Missing combinations are None / zero.
        assert!(store.row(Family::So, loc, jerry).unwrap().is_none());
        assert_eq!(store.row_count(Family::So, loc, jerry), 0);
        assert_eq!(store.count(Family::So, 999), 0);
    }

    /// The predicate lists are the row ids of the paper's P-O and P-S
    /// BitMats, and the matrices assembled from them hold exactly the
    /// triples of their subject or object, masked like any load.
    #[test]
    fn predicate_lists_and_matrices() {
        let g = figure_3_2_graph();
        let store = BitMatStore::build(&g);
        let dims = store.dims();
        let mut scratch = SetScratch::default();
        for f in Family::ALL {
            let (_, n_rows, n_cols) = f.shape(&dims);
            for r in 0..n_rows + 2 {
                let mine = |t: &&EncodedTriple| f.project(t).1 == r;
                let mut want: Vec<(u32, u32)> = g
                    .triples
                    .iter()
                    .filter(mine)
                    .map(|t| (t.p, f.project(t).2))
                    .collect();
                want.sort_unstable();
                let mut preds: Vec<u32> = want.iter().map(|&(p, _)| p).collect();
                preds.dedup();
                assert_eq!(*store.predicates(f, r).unwrap(), preds, "{} {r}", f.name());
                assert_eq!(store.predicate_count(f, r), want.len() as u64);
                let got = store.predicate_matrix(f, r, None, None, &mut scratch);
                let got = got.unwrap().map(|m| m.as_ref().iter().collect::<Vec<_>>());
                assert_eq!(got.unwrap_or_default(), want, "{} {r}", f.name());
                // Every other predicate and every other column.
                let odd = |n| BitVec::from_positions(n, (1..n).step_by(2));
                let (p_mask, c_mask) = (odd(dims.n_predicates), odd(n_cols));
                let masked =
                    store.predicate_matrix(f, r, Some(&p_mask), Some(&c_mask), &mut scratch);
                let masked = masked
                    .unwrap()
                    .map(|m| m.as_ref().iter().collect::<Vec<_>>());
                let kept: Vec<_> = want
                    .into_iter()
                    .filter(|&(p, c)| p % 2 == 1 && c % 2 == 1)
                    .collect();
                assert_eq!(masked.unwrap_or_default(), kept);
            }
        }
    }
    #[test]
    fn catalog_loads_are_lent_and_owned_on_demand() {
        let g = figure_3_2_graph();
        let store = BitMatStore::build(&g);
        let lent = store.matrix(Family::So, 0).unwrap().unwrap();
        assert!(matches!(lent, Cow::Borrowed(_)), "the heap store lends");
        let mut m = lent.into_owned();
        let before = store.count(Family::So, 0);
        m.unfold(
            &crate::BitVec::zeros(m.as_ref().n_cols()),
            crate::RetainDim::Col,
        );
        assert!(m.as_ref().is_empty());
        assert_eq!(
            store.count(Family::So, 0),
            before,
            "store must be unaffected"
        );
    }

    /// Both families are sliced off one triple set, O-S from passes over
    /// S-O's order: on a graph with many keys per family every family
    /// holds every triple and O-S is the transpose of S-O.
    #[test]
    fn families_agree_on_a_many_key_graph() {
        let mut triples = Vec::new();
        for i in 0..3000u32 {
            triples.push(t(
                &format!("s{}", i % 403),
                &format!("p{}", i % 17),
                &format!("o{}", (i * 7) % 811),
            ));
            triples.push(t(
                &format!("o{}", i % 811),
                "link",
                &format!("s{}", (i + 1) % 403),
            ));
        }
        let g = Graph::from_triples(triples).encode();
        let store = BitMatStore::build(&g);
        let dims = store.dims();
        for p in 0..dims.n_predicates {
            assert_eq!(
                store.get(Family::So, p).unwrap().as_ref().transpose(),
                *store.get(Family::Os, p).unwrap(),
                "os({p})"
            );
        }
        assert_family_totals(&store, g.triples.len() as u64);
        // Every triple is the bit `Family::project` says it is, in every
        // family — both sorts sliced the same set.
        for t in &g.triples {
            for f in Family::ALL {
                let (key, row, col) = f.project(t);
                let mat = store.get(f, key).unwrap().as_ref();
                assert!(mat.row(row).is_some_and(|r| r.contains(col)), "{f:?} {t:?}");
            }
        }
    }

    #[test]
    fn size_report_consistency() {
        let g = figure_3_2_graph();
        let store = BitMatStore::build(&g);
        let r = store.size_report();
        assert!(r.hybrid_bytes > 0);
        assert!(r.hybrid_bytes <= r.rle_only_bytes);
        assert!(r.saving() >= 0.0);
        let dims = store.dims();
        assert_eq!(r.n_matrices, 2 * dims.n_predicates as u64);
        // One offset per subject and per object, plus one each, and one
        // predicate per distinct (s, p) and (o, p) pair.
        let ids: u64 = store
            .iter_families()
            .map(|(_, _, m)| m.as_ref().n_present() as u64)
            .sum();
        let offsets = dims.n_subjects as u64 + dims.n_objects as u64 + 2;
        assert_eq!(r.list_bytes, 4 * (offsets + ids));
    }
}
