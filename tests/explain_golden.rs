//! Pins the plain EXPLAIN text of every Appendix E query (LUBM, UniProt,
//! DBPedia; 19 queries) at the `reproduce` harness's scale 1, seed 42.
//!
//! EXPLAIN prints every decision planning makes: the GoSN and its
//! relations, the classification, the per-TP estimates, both jvar orders,
//! the init load order and the planned prune work. A planner rewrite that
//! changes any of them changes this text. On a mismatch the actual text is
//! written beside the temp dir (`explain_golden.actual.txt`) so the diff
//! can be read with `diff`.

use lbr::datagen::all_datasets;
use lbr::Database;

const GOLDEN: &str = include_str!("golden/explain_scale1.txt");

fn actual() -> String {
    let mut out = String::new();
    for ds in all_datasets(1.0, 42) {
        let db = Database::from_encoded(ds.graph.clone().encode());
        for q in &ds.queries {
            let text = db
                .explain(&q.text)
                .unwrap_or_else(|e| panic!("{} {}: {e}", ds.name, q.id));
            out.push_str(&format!("#### {} {}\n{text}\n", ds.name, q.id));
        }
    }
    out
}

#[test]
fn explain_of_all_19_queries_is_unchanged() {
    let got = actual();
    if got != GOLDEN {
        let path = std::env::temp_dir().join("explain_golden.actual.txt");
        std::fs::write(&path, &got).expect("write the actual EXPLAIN text");
        let first = (got.lines().zip(GOLDEN.lines()))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}:\n  got:  {a}\n  want: {b}", i + 1))
            .unwrap_or_else(|| "one text is a prefix of the other".into());
        panic!(
            "EXPLAIN differs from tests/golden/explain_scale1.txt ({first}); \
             actual text written to {}",
            path.display()
        );
    }
    assert_eq!(got.matches("#### ").count(), 19, "19 queries pinned");
}
