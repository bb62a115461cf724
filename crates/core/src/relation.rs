//! A named-column relation of result rows: the shape the baselines
//! produce and the LBR engine aligns UNION branches on.

use crate::bindings::Binding;

/// A named-column relation; cells are `None` for NULLs produced by
/// left-outer joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Column names (variable names without `?`).
    pub vars: Vec<String>,
    /// Rows; each as long as `vars`.
    pub rows: Vec<Vec<Option<Binding>>>,
}

impl Relation {
    /// An empty relation with no columns and one empty row (the join
    /// identity: joining with it is a no-op).
    pub fn unit() -> Relation {
        Relation {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    /// An empty relation over the given columns (zero rows).
    pub fn empty(vars: Vec<String>) -> Relation {
        Relation {
            vars,
            rows: Vec::new(),
        }
    }

    /// Index of a column.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Projects the relation onto `names` (missing columns become NULL).
    pub fn project(&self, names: &[String]) -> Relation {
        let mut rows = Vec::with_capacity(self.rows.len());
        self.project_into(names, &mut rows);
        Relation {
            vars: names.to_vec(),
            rows,
        }
    }

    /// Appends this relation's rows, projected onto `names`, to `out`.
    pub fn project_into(&self, names: &[String], out: &mut Vec<Vec<Option<Binding>>>) {
        let cols: Vec<Option<usize>> = names.iter().map(|n| self.col(n)).collect();
        let project =
            |r: &Vec<Option<Binding>>| cols.iter().map(|c| c.and_then(|i| r[i])).collect();
        out.extend(self.rows.iter().map(project));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::BindingSpace;

    fn b(id: u32) -> Option<Binding> {
        Some(Binding {
            id,
            space: BindingSpace::Shared,
        })
    }

    #[test]
    fn projection() {
        let l = Relation {
            vars: vec!["x".into(), "y".into()],
            rows: vec![vec![b(1), b(2)]],
        };
        let p = l.project(&["y".to_string(), "w".to_string()]);
        assert_eq!(p.rows, vec![vec![b(2), None]]);
        assert_eq!(Relation::empty(vec!["a".into()]).rows.len(), 0);
    }
}
