//! Property test: `BitMatStore::build` against the index built from its
//! definition — every triple projected into its family, the projections
//! comparison-sorted, each key's pairs through `BitMat::from_sorted_pairs`
//! — on random encoded graphs: empty ones, ones whose dictionary holds
//! predicates, subjects and objects no triple uses, terms shared by the
//! subject and object dimensions, and triples in shuffled order.

use lbr_bitmat::{BitMat, BitMatStore, Catalog, CubeDims, Family};
use lbr_rdf::{EncodedGraph, EncodedTriple, Graph, Term, Triple};
use proptest::prelude::*;
use std::collections::HashSet;

/// A family's matrices and its rows' predicate lists, by definition.
fn from_definition(g: &EncodedGraph, f: Family) -> (Vec<BitMat>, Vec<Vec<u32>>) {
    let (n_keys, n_rows, n_cols) = f.shape(&CubeDims::of(g));
    let mut bits: Vec<(u32, u32, u32)> = g.triples.iter().map(|t| f.project(t)).collect();
    bits.sort_unstable();
    let mats = (0..n_keys)
        .map(|key| {
            let pairs: Vec<(u32, u32)> = bits
                .iter()
                .filter(|b| b.0 == key)
                .map(|&(_, r, c)| (r, c))
                .collect();
            BitMat::from_sorted_pairs(n_rows, n_cols, &pairs)
        })
        .collect();
    let mut lists = vec![Vec::new(); n_rows as usize];
    for &(p, r, _) in &bits {
        let list: &mut Vec<u32> = &mut lists[r as usize];
        if list.last() != Some(&p) {
            list.push(p);
        }
    }
    (mats, lists)
}

/// A graph over `n0`…`n9` (each may be a subject and an object, so `Vso`
/// is shared), objects `v7`…`v9` as literals, and predicates `p0`…`p4`.
/// The dictionary is built from every drawn triple; the graph holds only
/// those whose key is not a multiple of 3, deduplicated and ordered by
/// `key / 3`.
fn graph(drawn: &[((u32, u32, u32), u32)]) -> EncodedGraph {
    let triple = |&(s, p, o): &(u32, u32, u32)| {
        let o = if o >= 7 {
            Term::literal(format!("v{o}"))
        } else {
            Term::iri(format!("n{o}"))
        };
        Triple::new(Term::iri(format!("n{s}")), Term::iri(format!("p{p}")), o)
    };
    let all = Graph::from_triples(drawn.iter().map(|(t, _)| triple(t)).collect()).encode();
    let mut kept: Vec<_> = drawn.iter().filter(|(_, key)| key % 3 != 0).collect();
    kept.sort_by_key(|(_, key)| key / 3);
    let mut seen = HashSet::new();
    let triples: Vec<EncodedTriple> = kept
        .into_iter()
        .map(|(t, _)| all.dict.encode(&triple(t)).expect("a drawn triple encodes"))
        .filter(|t| seen.insert(*t))
        .collect();
    EncodedGraph {
        dict: all.dict,
        triples,
    }
}

/// Both families and both predicate-list arrays of `build` equal the
/// definition's, and O-S is the transpose of S-O.
fn check(g: &EncodedGraph) -> Result<(), TestCaseError> {
    let store = BitMatStore::build(g);
    let dims = store.dims();
    prop_assert_eq!(dims, CubeDims::of(g));
    for f in Family::ALL {
        let (mats, lists) = from_definition(g, f);
        for (key, want) in mats.iter().enumerate() {
            prop_assert_eq!(store.get(f, key as u32), Some(want), "{} {}", f.name(), key);
        }
        prop_assert!(store.get(f, mats.len() as u32).is_none());
        for (r, want) in lists.iter().enumerate() {
            let got = store.predicates(f, r as u32).expect("a heap list");
            prop_assert_eq!(&*got, &want[..], "{} row {}", f.name(), r);
        }
        prop_assert!(store.predicates(f, lists.len() as u32).unwrap().is_empty());
    }
    for p in 0..dims.n_predicates {
        let so = store.get(Family::So, p).unwrap().as_ref().transpose();
        prop_assert_eq!(Some(&so), store.get(Family::Os, p), "os({})", p);
    }
    Ok(())
}

#[test]
fn builds_the_empty_graph() {
    check(&EncodedGraph::default()).unwrap();
    // A dictionary whose every triple was dropped: keys, rows and columns
    // with nothing in them.
    check(&graph(&[((1, 2, 3), 0), ((4, 0, 8), 3)])).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn build_matches_definition(
        drawn in prop::collection::vec(((0u32..10, 0u32..5, 0u32..10), any::<u32>()), 0..80),
    ) {
        check(&graph(&drawn))?;
    }
}
