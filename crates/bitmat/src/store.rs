//! In-memory BitMat store: builds and holds all four index families.

use crate::catalog::{Catalog, CubeDims};
use crate::error::BitMatError;
use crate::matrix::BitMat;
use crate::row::BitRow;
use lbr_rdf::{EncodedGraph, EncodedTriple};

/// The complete index set of §4: `2·|Vp| + |Vs| + |Vo|` BitMats.
///
/// * `so[p]` / `os[p]` — S-O and O-S matrices per predicate,
/// * `po[s]` — P-O matrix per subject,
/// * `ps[o]` — P-S matrix per object.
#[derive(Debug, Clone)]
pub struct BitMatStore {
    dims: CubeDims,
    so: Vec<BitMat>,
    os: Vec<BitMat>,
    po: Vec<BitMat>,
    ps: Vec<BitMat>,
    /// Predicate-family shards: contiguous predicate-ID ranges `[lo, hi)`
    /// balanced by triple mass. Purely a partitioning of the predicate
    /// space — matrices stay densely indexed, and queries are unaffected.
    shards: Vec<(u32, u32)>,
}

/// Default shard count for the predicate-family partitioning.
pub const DEFAULT_SHARDS: usize = 8;

impl BitMatStore {
    /// Builds all four families from an encoded graph. The four
    /// sort-and-slice family passes are independent, so each runs on its
    /// own scoped thread.
    pub fn build(graph: &EncodedGraph) -> Self {
        let dims = CubeDims {
            n_subjects: graph.dict.n_subjects(),
            n_predicates: graph.dict.n_predicates(),
            n_objects: graph.dict.n_objects(),
            n_shared: graph.dict.n_shared(),
            n_triples: graph.triples.len() as u64,
        };
        let t = &graph.triples;
        let (so, os, po, ps) = std::thread::scope(|scope| {
            let h_so = scope.spawn(|| {
                family(
                    t,
                    dims.n_predicates,
                    |x| (x.p, x.s, x.o),
                    dims.n_subjects,
                    dims.n_objects,
                )
            });
            let h_os = scope.spawn(|| {
                family(
                    t,
                    dims.n_predicates,
                    |x| (x.p, x.o, x.s),
                    dims.n_objects,
                    dims.n_subjects,
                )
            });
            let h_po = scope.spawn(|| {
                family(
                    t,
                    dims.n_subjects,
                    |x| (x.s, x.p, x.o),
                    dims.n_predicates,
                    dims.n_objects,
                )
            });
            let h_ps = scope.spawn(|| {
                family(
                    t,
                    dims.n_objects,
                    |x| (x.o, x.p, x.s),
                    dims.n_predicates,
                    dims.n_subjects,
                )
            });
            (
                h_so.join().expect("S-O build panicked"),
                h_os.join().expect("O-S build panicked"),
                h_po.join().expect("P-O build panicked"),
                h_ps.join().expect("P-S build panicked"),
            )
        });
        let shards = compute_shards(&so, DEFAULT_SHARDS);
        BitMatStore {
            dims,
            so,
            os,
            po,
            ps,
            shards,
        }
    }

    /// Number of predicate-family shards (≥ 1 whenever predicates exist).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The contiguous predicate-ID ranges `[lo, hi)` of every shard.
    pub fn shard_ranges(&self) -> &[(u32, u32)] {
        &self.shards
    }

    /// The shard a predicate belongs to (`None` if `p` is out of range).
    pub fn shard_of(&self, p: u32) -> Option<usize> {
        if p >= self.dims.n_predicates {
            return None;
        }
        Some(self.shards.partition_point(|&(_, hi)| hi <= p))
    }

    /// Iterates one shard's per-predicate matrices: `(p, so, os)`.
    pub fn iter_shard(&self, shard: usize) -> impl Iterator<Item = (u32, &BitMat, &BitMat)> {
        let (lo, hi) = self.shards.get(shard).copied().unwrap_or((0, 0));
        (lo..hi).map(move |p| (p, &self.so[p as usize], &self.os[p as usize]))
    }

    /// Direct read access to an S-O matrix (bench/inspection use).
    pub fn so(&self, p: u32) -> Option<&BitMat> {
        self.so.get(p as usize)
    }

    /// Direct read access to an O-S matrix.
    pub fn os(&self, p: u32) -> Option<&BitMat> {
        self.os.get(p as usize)
    }

    /// Direct read access to a P-O matrix.
    pub fn po(&self, s: u32) -> Option<&BitMat> {
        self.po.get(s as usize)
    }

    /// Direct read access to a P-S matrix.
    pub fn ps(&self, o: u32) -> Option<&BitMat> {
        self.ps.get(o as usize)
    }

    /// Iterates the four families for serialization: `(family tag, key, mat)`.
    pub(crate) fn iter_families(&self) -> impl Iterator<Item = (u8, u32, &BitMat)> {
        self.so
            .iter()
            .enumerate()
            .map(|(k, m)| (0u8, k as u32, m))
            .chain(self.os.iter().enumerate().map(|(k, m)| (1u8, k as u32, m)))
            .chain(self.po.iter().enumerate().map(|(k, m)| (2u8, k as u32, m)))
            .chain(self.ps.iter().enumerate().map(|(k, m)| (3u8, k as u32, m)))
    }

    /// Total index size under the hybrid encoding vs pure RLE — the §4
    /// "hybrid compression fetches us as much as 40 % reduction" ablation.
    pub fn size_report(&self) -> SizeReport {
        let mut r = SizeReport::default();
        for (_, _, m) in self.iter_families() {
            r.hybrid_bytes += m.encoded_bytes() as u64;
            r.rle_only_bytes += m.rle_only_bytes() as u64;
        }
        r.n_matrices = (self.so.len() + self.os.len() + self.po.len() + self.ps.len()) as u64;
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

/// Builds one family: group triples by `key`, emit a `(row, col)` BitMat
/// per key. `extract` maps a triple to `(key, row, col)`.
fn family(
    triples: &[EncodedTriple],
    n_keys: u32,
    extract: impl Fn(&EncodedTriple) -> (u32, u32, u32),
    n_rows: u32,
    n_cols: u32,
) -> Vec<BitMat> {
    let mut tuples: Vec<(u32, u32, u32)> = triples.iter().map(&extract).collect();
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

/// Partitions predicates into up to `target` contiguous shards balanced by
/// per-predicate triple mass (greedy accumulation toward the mean).
fn compute_shards(so: &[BitMat], target: usize) -> Vec<(u32, u32)> {
    let counts: Vec<u64> = so.iter().map(|m| m.triple_count()).collect();
    compute_shard_ranges(&counts, target)
}

/// Partitions a per-predicate triple-count histogram into up to `target`
/// contiguous shards balanced by triple mass — the same ranges
/// [`BitMatStore::shard_ranges`] carries, computable from any
/// [`Catalog`]'s `count_so` histogram (how `lbr-store` shards a mapped
/// on-disk catalog without rebuilding the heap store).
pub fn compute_shard_ranges(counts: &[u64], target: usize) -> Vec<(u32, u32)> {
    let n_preds = counts.len() as u32;
    if n_preds == 0 {
        return Vec::new();
    }
    let total: u64 = counts.iter().sum();
    let target = target.clamp(1, n_preds as usize);
    let per_shard = (total / target as u64).max(1);
    let mut shards: Vec<(u32, u32)> = Vec::with_capacity(target);
    let mut lo = 0u32;
    let mut acc = 0u64;
    for p in 0..n_preds {
        acc += counts[p as usize];
        // Close the shard once it carries its share, keeping the final
        // shard open so it absorbs the tail.
        if acc >= per_shard && shards.len() + 1 < target {
            shards.push((lo, p + 1));
            lo = p + 1;
            acc = 0;
        }
    }
    if lo < n_preds {
        shards.push((lo, n_preds));
    }
    debug_assert_eq!(shards.first().map(|s| s.0), Some(0));
    debug_assert_eq!(shards.last().map(|s| s.1), Some(n_preds));
    shards
}

impl Catalog for BitMatStore {
    fn dims(&self) -> CubeDims {
        self.dims
    }

    fn load_so(&self, p: u32) -> Result<Option<BitMat>, BitMatError> {
        Ok(self.so.get(p as usize).filter(|m| !m.is_empty()).cloned())
    }

    fn load_os(&self, p: u32) -> Result<Option<BitMat>, BitMatError> {
        Ok(self.os.get(p as usize).filter(|m| !m.is_empty()).cloned())
    }

    fn load_po(&self, s: u32) -> Result<Option<BitMat>, BitMatError> {
        Ok(self.po.get(s as usize).filter(|m| !m.is_empty()).cloned())
    }

    fn load_ps(&self, o: u32) -> Result<Option<BitMat>, BitMatError> {
        Ok(self.ps.get(o as usize).filter(|m| !m.is_empty()).cloned())
    }

    fn load_po_row(&self, s: u32, p: u32) -> Result<Option<BitRow>, BitMatError> {
        Ok(self.po.get(s as usize).and_then(|m| m.row(p)).cloned())
    }

    fn load_ps_row(&self, o: u32, p: u32) -> Result<Option<BitRow>, BitMatError> {
        Ok(self.ps.get(o as usize).and_then(|m| m.row(p)).cloned())
    }

    fn count_so(&self, p: u32) -> u64 {
        self.so.get(p as usize).map_or(0, |m| m.triple_count())
    }

    fn count_po(&self, s: u32) -> u64 {
        self.po.get(s as usize).map_or(0, |m| m.triple_count())
    }

    fn count_ps(&self, o: u32) -> u64 {
        self.ps.get(o as usize).map_or(0, |m| m.triple_count())
    }

    fn count_po_row(&self, s: u32, p: u32) -> u64 {
        self.po
            .get(s as usize)
            .and_then(|m| m.row(p))
            .map_or(0, |r| r.count_ones() as u64)
    }

    fn count_ps_row(&self, o: u32, p: u32) -> u64 {
        self.ps
            .get(o as usize)
            .and_then(|m| m.row(p))
            .map_or(0, |r| r.count_ones() as u64)
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(store.count_so(acted), 5);
        assert_eq!(store.count_so(loc), 4);
        assert_eq!(store.count_so(friend), 2);
        // O-S is the transpose of S-O.
        assert_eq!(
            store.so(acted).unwrap().transpose(),
            *store.os(acted).unwrap()
        );
        // Totals across any family equal the dataset size.
        let total: u64 = (0..g.dict.n_predicates()).map(|p| store.count_so(p)).sum();
        assert_eq!(total, 11);
        let total_po: u64 = (0..g.dict.n_subjects()).map(|s| store.count_po(s)).sum();
        assert_eq!(total_po, 11);
        let total_ps: u64 = (0..g.dict.n_objects()).map(|o| store.count_ps(o)).sum();
        assert_eq!(total_ps, 11);
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
        let row = store.load_po_row(jerry, friend).unwrap().unwrap();
        assert_eq!(row.count_ones(), 2);
        assert_eq!(store.count_po_row(jerry, friend), 2);
        // (?sitcom location NewYorkCity): one candidate subject.
        let nyc = d
            .id(&Term::iri("NewYorkCity"), lbr_rdf::Dimension::Object)
            .unwrap();
        let loc = d
            .id(&Term::iri("location"), lbr_rdf::Dimension::Predicate)
            .unwrap();
        let row = store.load_ps_row(nyc, loc).unwrap().unwrap();
        assert_eq!(row.count_ones(), 1);
        assert_eq!(store.count_ps_row(nyc, loc), 1);
        // Missing combinations are None / zero.
        assert!(store.load_po_row(jerry, loc).unwrap().is_none());
        assert_eq!(store.count_po_row(jerry, loc), 0);
        assert_eq!(store.count_so(999), 0);
    }

    #[test]
    fn catalog_loads_are_owned_copies() {
        let g = figure_3_2_graph();
        let store = BitMatStore::build(&g);
        let mut m = store.load_so(0).unwrap().unwrap();
        let before = store.count_so(0);
        m.unfold(&crate::BitVec::zeros(m.n_cols()), crate::RetainDim::Col);
        assert!(m.is_empty());
        assert_eq!(store.count_so(0), before, "store must be unaffected");
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
                store.so(p).unwrap().transpose(),
                *store.os(p).unwrap(),
                "os({p})"
            );
        }
        let n = g.triples.len() as u64;
        assert_eq!(
            (0..dims.n_predicates)
                .map(|p| store.count_so(p))
                .sum::<u64>(),
            n
        );
        assert_eq!(
            (0..dims.n_subjects).map(|s| store.count_po(s)).sum::<u64>(),
            n
        );
        assert_eq!(
            (0..dims.n_objects).map(|o| store.count_ps(o)).sum::<u64>(),
            n
        );
    }

    #[test]
    fn shards_partition_the_predicate_space() {
        let g = figure_3_2_graph();
        let store = BitMatStore::build(&g);
        let dims = store.dims();
        assert!(store.n_shards() >= 1);
        // Ranges are contiguous, ordered, and cover 0..n_predicates.
        let mut next = 0u32;
        for &(lo, hi) in store.shard_ranges() {
            assert_eq!(lo, next);
            assert!(hi > lo);
            next = hi;
        }
        assert_eq!(next, dims.n_predicates);
        // Every predicate maps to the shard whose range holds it, and
        // shard iteration yields exactly that range's matrices.
        let mut total = 0u64;
        for shard in 0..store.n_shards() {
            let (lo, hi) = store.shard_ranges()[shard];
            for (p, so, _os) in store.iter_shard(shard) {
                assert!((lo..hi).contains(&p));
                assert_eq!(store.shard_of(p), Some(shard));
                total += so.triple_count();
            }
        }
        assert_eq!(total, dims.n_triples);
        assert_eq!(store.shard_of(dims.n_predicates), None);
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
