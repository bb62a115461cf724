//! The pairwise hash join: the "standard relational technique" the
//! comparator engines are built from.

use lbr_core::{Binding, Relation};

/// Join kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Inner join (⋈).
    Inner,
    /// Left-outer join (⟕).
    LeftOuter,
}

/// Hash join of two relations on their shared columns. Null-intolerant on
/// the key (a NULL key matches nothing) — the SQL semantics of Appendix C;
/// well-designed queries never put NULLs on a join key.
pub fn hash_join(left: &Relation, right: &Relation, kind: Kind) -> Relation {
    let shared: Vec<(usize, usize)> = left
        .vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| right.col(v).map(|j| (i, j)))
        .collect();
    let right_only: Vec<usize> = (0..right.vars.len())
        .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
        .collect();

    let mut vars = left.vars.clone();
    vars.extend(right_only.iter().map(|&j| right.vars[j].clone()));

    let mut table: std::collections::HashMap<Vec<Binding>, Vec<usize>> =
        std::collections::HashMap::new();
    for (idx, row) in right.rows.iter().enumerate() {
        if let Some(key) = shared
            .iter()
            .map(|&(_, j)| row[j])
            .collect::<Option<Vec<Binding>>>()
        {
            table.entry(key).or_default().push(idx);
        }
    }

    let cross: Vec<usize> = (0..right.rows.len()).collect();
    let empty: Vec<usize> = Vec::new();
    let mut rows = Vec::new();
    for lrow in &left.rows {
        let matches: &[usize] = if shared.is_empty() {
            &cross
        } else {
            match shared
                .iter()
                .map(|&(i, _)| lrow[i])
                .collect::<Option<Vec<Binding>>>()
            {
                Some(key) => table.get(&key).unwrap_or(&empty),
                None => &empty,
            }
        };
        if matches.is_empty() {
            if kind == Kind::LeftOuter {
                let mut row = lrow.clone();
                row.extend(right_only.iter().map(|_| None));
                rows.push(row);
            }
        } else {
            for &m in matches {
                let mut row = lrow.clone();
                row.extend(right_only.iter().map(|&j| right.rows[m][j]));
                rows.push(row);
            }
        }
    }
    Relation { vars, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_core::BindingSpace;

    fn b(id: u32) -> Option<Binding> {
        Some(Binding {
            id,
            space: BindingSpace::Shared,
        })
    }

    fn rel(vars: &[&str], rows: Vec<Vec<Option<Binding>>>) -> Relation {
        Relation {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    #[test]
    fn inner_join_on_shared() {
        let l = rel(&["x", "y"], vec![vec![b(1), b(2)], vec![b(3), b(4)]]);
        let r = rel(&["y", "z"], vec![vec![b(2), b(9)], vec![b(2), b(8)]]);
        let out = hash_join(&l, &r, Kind::Inner);
        assert_eq!(out.vars, vec!["x", "y", "z"]);
        let mut rows = out.rows;
        rows.sort();
        assert_eq!(rows, vec![vec![b(1), b(2), b(8)], vec![b(1), b(2), b(9)]]);
    }

    #[test]
    fn left_outer_pads_with_null() {
        let l = rel(&["x"], vec![vec![b(1)], vec![b(2)]]);
        let r = rel(&["x", "y"], vec![vec![b(1), b(7)]]);
        let out = hash_join(&l, &r, Kind::LeftOuter);
        let mut rows = out.rows;
        rows.sort();
        assert_eq!(rows, vec![vec![b(1), b(7)], vec![b(2), None]]);
    }

    #[test]
    fn cross_product_when_disjoint() {
        let l = rel(&["x"], vec![vec![b(1)], vec![b(2)]]);
        let r = rel(&["y"], vec![vec![b(8)], vec![b(9)]]);
        assert_eq!(hash_join(&l, &r, Kind::Inner).rows.len(), 4);
    }

    #[test]
    fn null_keys_never_match() {
        let l = rel(&["x", "y"], vec![vec![b(1), None]]);
        let r = rel(&["y", "z"], vec![vec![None, b(5)], vec![b(2), b(6)]]);
        assert!(hash_join(&l, &r, Kind::Inner).rows.is_empty());
        let out = hash_join(&l, &r, Kind::LeftOuter);
        assert_eq!(out.rows, vec![vec![b(1), None, None]]);
    }

    #[test]
    fn unit_is_join_identity() {
        let l = rel(&["x"], vec![vec![b(1)]]);
        let out = hash_join(&Relation::unit(), &l, Kind::Inner);
        assert_eq!(out.rows, vec![vec![b(1)]]);
    }
}
