//! In-memory BitMat store: builds and holds all four index families.

use crate::bitvec::BitVec;
use crate::catalog::{Catalog, CubeDims, Family};
use crate::error::BitMatError;
use crate::kernel::SetScratch;
use crate::matrix::BitMat;
use crate::row::BitRow;
use lbr_rdf::{EncodedGraph, EncodedTriple};
use std::borrow::Cow;

/// The complete index set of §4: `2·|Vp| + |Vs| + |Vo|` BitMats, one
/// densely keyed `Vec` per [`Family`] (S-O and O-S per predicate, P-O per
/// subject, P-S per object).
#[derive(Debug, Clone)]
pub struct BitMatStore {
    dims: CubeDims,
    /// Indexed by `Family as usize`, then by key.
    families: [Vec<BitMat>; 4],
}

impl BitMatStore {
    /// Builds all four families from an encoded graph. The four
    /// sort-and-slice family passes are independent, so each runs on its
    /// own scoped thread.
    pub fn build(graph: &EncodedGraph) -> Self {
        let dims = CubeDims::of(graph);
        let t = &graph.triples;
        // `map` spawns all four before the second `map` joins the first.
        let families = std::thread::scope(|scope| {
            Family::ALL
                .map(|f| scope.spawn(move || family(t, f, &dims)))
                .map(|h| h.join().expect("family build panicked"))
        });
        BitMatStore { dims, families }
    }

    /// Direct read access to the matrix of `key` in family `f` (empty
    /// matrices included; `None` only when `key` is out of range).
    pub fn get(&self, f: Family, key: u32) -> Option<&BitMat> {
        self.families[f as usize].get(key as usize)
    }

    /// Iterates the four families in serialization order: `(family, key, mat)`.
    pub(crate) fn iter_families(&self) -> impl Iterator<Item = (Family, u32, &BitMat)> {
        Family::ALL.into_iter().flat_map(move |f| {
            let mats = self.families[f as usize].iter().enumerate();
            mats.map(move |(k, m)| (f, k as u32, m))
        })
    }

    /// Total index size under the hybrid encoding vs pure RLE — the §4
    /// "hybrid compression fetches us as much as 40 % reduction" ablation.
    pub fn size_report(&self) -> SizeReport {
        let mut r = SizeReport::default();
        for (_, _, m) in self.iter_families() {
            r.hybrid_bytes += m.encoded_bytes() as u64;
            r.rle_only_bytes += m.rle_only_bytes() as u64;
            r.n_matrices += 1;
        }
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
    /// Number of matrices (`2|Vp| + |Vs| + |Vo|`).
    pub n_matrices: u64,
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

/// Builds one family: group triples by their key in `f`, emit a
/// `(row, col)` BitMat per key.
fn family(triples: &[EncodedTriple], f: Family, dims: &CubeDims) -> Vec<BitMat> {
    let (n_keys, n_rows, n_cols) = f.shape(dims);
    let mut tuples: Vec<(u32, u32, u32)> = triples.iter().map(|t| f.project(t)).collect();
    tuples.sort_unstable();
    let mut mats: Vec<BitMat> = Vec::with_capacity(n_keys as usize);
    let mut i = 0;
    // One pair buffer reused across every key (its high-water mark is the
    // largest slice, not the sum).
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for key in 0..n_keys {
        let start = i;
        while i < tuples.len() && tuples[i].0 == key {
            i += 1;
        }
        pairs.clear();
        pairs.extend(tuples[start..i].iter().map(|&(_, r, c)| (r, c)));
        mats.push(BitMat::from_sorted_pairs(n_rows, n_cols, &pairs));
    }
    debug_assert_eq!(i, tuples.len(), "triple key out of range");
    mats
}

impl Catalog for BitMatStore {
    fn dims(&self) -> CubeDims {
        self.dims
    }

    fn matrix(&self, f: Family, key: u32) -> Result<Option<Cow<'_, BitMat>>, BitMatError> {
        let mat = self.get(f, key).filter(|m| !m.is_empty());
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
        let mat = self.get(f, key).map(|m| m.masked(rows, cols, scratch));
        Ok(mat.filter(|m| !m.is_empty()))
    }

    fn row(&self, f: Family, key: u32, r: u32) -> Result<Option<Cow<'_, BitRow>>, BitMatError> {
        let row = self.get(f, key).and_then(|m| m.row(r));
        Ok(row.map(Cow::Borrowed))
    }

    fn count(&self, f: Family, key: u32) -> u64 {
        self.get(f, key).map_or(0, BitMat::triple_count)
    }

    fn row_count(&self, f: Family, key: u32, r: u32) -> u64 {
        let row = self.get(f, key).and_then(|m| m.row(r));
        row.map_or(0, |r| r.count_ones() as u64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lbr_rdf::{Graph, Term, Triple};

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
            store.get(Family::So, acted).unwrap().transpose(),
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
        let row = store.row(Family::Po, jerry, friend).unwrap().unwrap();
        assert_eq!(row.count_ones(), 2);
        assert_eq!(store.row_count(Family::Po, jerry, friend), 2);
        // (?sitcom location NewYorkCity): one candidate subject.
        let nyc = d
            .id(&Term::iri("NewYorkCity"), lbr_rdf::Dimension::Object)
            .unwrap();
        let loc = d
            .id(&Term::iri("location"), lbr_rdf::Dimension::Predicate)
            .unwrap();
        let row = store.row(Family::Ps, nyc, loc).unwrap().unwrap();
        assert_eq!(row.count_ones(), 1);
        assert_eq!(store.row_count(Family::Ps, nyc, loc), 1);
        // Missing combinations are None / zero.
        assert!(store.row(Family::Po, jerry, loc).unwrap().is_none());
        assert_eq!(store.row_count(Family::Po, jerry, loc), 0);
        assert_eq!(store.count(Family::So, 999), 0);
    }

    #[test]
    fn catalog_loads_are_lent_and_owned_on_demand() {
        let g = figure_3_2_graph();
        let store = BitMatStore::build(&g);
        let lent = store.matrix(Family::So, 0).unwrap().unwrap();
        assert!(matches!(lent, Cow::Borrowed(_)), "the heap store lends");
        let mut m = lent.into_owned();
        let before = store.count(Family::So, 0);
        m.unfold(&crate::BitVec::zeros(m.n_cols()), crate::RetainDim::Col);
        assert!(m.is_empty());
        assert_eq!(
            store.count(Family::So, 0),
            before,
            "store must be unaffected"
        );
    }

    /// The four family threads slice one triple set: on a graph with many
    /// keys per family every family holds every triple and O-S is the
    /// transpose of S-O.
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
                store.get(Family::So, p).unwrap().transpose(),
                *store.get(Family::Os, p).unwrap(),
                "os({p})"
            );
        }
        assert_family_totals(&store, g.triples.len() as u64);
        // Every triple is the bit `Family::project` says it is, in every
        // family — the four threads sliced the same set four ways.
        for t in &g.triples {
            for f in Family::ALL {
                let (key, row, col) = f.project(t);
                assert!(store.get(f, key).unwrap().get(row, col), "{f:?} {t:?}");
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
        assert_eq!(
            r.n_matrices,
            2 * dims.n_predicates as u64 + dims.n_subjects as u64 + dims.n_objects as u64
        );
    }
}
