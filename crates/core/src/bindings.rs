//! Variable tables, binding spaces, and decoded query outputs.
//!
//! Every query variable is interned to a dense [`VarId`] and assigned a
//! **binding space**: the bitcube dimension its `u32` bindings live in.
//! A variable used in both subject and object positions binds inside the
//! shared `Vso` prefix (Appendix D), which is what makes S-O joins raw
//! integer comparisons.

use crate::error::LbrError;
use crate::QueryStats;
use lbr_bitmat::CubeDims;
use lbr_rdf::{Dictionary, Dimension, Term};
use lbr_sparql::gosn::Gosn;

/// Dense per-query variable index (the GoSN's).
pub use lbr_sparql::gosn::VarId;

/// The bitcube dimension a variable's bindings live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarSpace {
    /// Subject-only variable: IDs in `0..|Vs|`.
    Subject,
    /// Object-only variable: IDs in `0..|Vo|`.
    Object,
    /// Variable used in both S and O positions: IDs in the shared prefix
    /// `0..|Vso|`.
    Shared,
    /// Predicate-position variable (never a join variable, §4 footnote 5).
    Predicate,
}

impl VarSpace {
    /// Length of the space in bits.
    pub fn len(self, dims: &CubeDims) -> u32 {
        match self {
            VarSpace::Subject => dims.n_subjects,
            VarSpace::Object => dims.n_objects,
            VarSpace::Shared => dims.n_shared,
            VarSpace::Predicate => dims.n_predicates,
        }
    }

    /// The dictionary dimension used to decode a binding (shared IDs decode
    /// identically through either dimension; we use Subject).
    pub fn decode_dim(self) -> Dimension {
        match self {
            VarSpace::Subject | VarSpace::Shared => Dimension::Subject,
            VarSpace::Object => Dimension::Object,
            VarSpace::Predicate => Dimension::Predicate,
        }
    }
}

/// The mask domain of one semi-join / clustered-semi-join over a variable:
/// determined by the *positions taking part in the operation*, not by the
/// variable globally. An S-S join ranges over the full subject dimension,
/// O-O over the full object dimension; a mixed S/O join can only match
/// inside the shared `Vso` prefix (Appendix D), and that is exactly where
/// truncating the masks is sound — a dimension-exclusive ID can never
/// equal a value from the other dimension.
pub fn op_space_len(dims: &CubeDims, positions: impl IntoIterator<Item = Dimension>) -> u32 {
    let (mut any_s, mut any_o, mut any_p) = (false, false, false);
    for d in positions {
        match d {
            Dimension::Subject => any_s = true,
            Dimension::Object => any_o = true,
            Dimension::Predicate => any_p = true,
        }
    }
    if any_p {
        dims.n_predicates
    } else if any_s && any_o {
        dims.n_shared
    } else if any_o {
        dims.n_objects
    } else {
        dims.n_subjects
    }
}

/// The binding space of each query variable, indexed by the ids the GoSN
/// interned: the one variable table is the GoSN's ([`Gosn::vars`], names
/// ↔ ids), and this adds what execution needs per id.
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    spaces: Vec<VarSpace>,
}

impl VarTable {
    /// Builds the table of a GoSN's variables, assigning spaces from the
    /// union of positions each variable occurs in.
    ///
    /// Rejects variables used in the predicate position *and* an S/O
    /// position — such joins cross incompatible ID spaces (the paper does
    /// not consider P-dimension joins) — and a TP `(?x ?p ?x)`, which no
    /// BitMat loads.
    pub fn new(gosn: &Gosn) -> Result<VarTable, LbrError> {
        let mut uses = vec![[false; 3]; gosn.vars().len()];
        for tp in 0..gosn.n_tps() {
            let vars = gosn.tp_vars(tp);
            if let [Some(s), Some(_), Some(o)] = vars {
                if s == o {
                    return Err(LbrError::Unsupported(format!(
                        "triple pattern tp{tp} repeats ?{} at its subject and object \
                         under a variable predicate",
                        gosn.vars().name(s)
                    )));
                }
            }
            for (pos, var) in vars.into_iter().enumerate() {
                if let Some(v) = var {
                    uses[v][pos] = true;
                }
            }
        }
        let mut spaces = Vec::with_capacity(uses.len());
        for (v, &[s, p, o]) in uses.iter().enumerate() {
            spaces.push(match (s, p, o) {
                (false, true, false) => VarSpace::Predicate,
                (true, false, false) => VarSpace::Subject,
                (false, false, true) => VarSpace::Object,
                (true, false, true) => VarSpace::Shared,
                _ => {
                    return Err(LbrError::Unsupported(format!(
                        "variable ?{} joins the predicate dimension with S/O dimensions",
                        gosn.vars().name(v)
                    )));
                }
            });
        }
        Ok(VarTable { spaces })
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// True when the query has no variables.
    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }

    /// Binding space of a variable.
    pub fn space(&self, id: VarId) -> VarSpace {
        self.spaces[id]
    }
}

/// One bound value: an ID plus the space it decodes in.
///
/// Bindings taken from an S or O position whose ID falls inside the shared
/// `Vso` prefix are normalized to [`VarSpace::Shared`], so equal terms
/// compare equal regardless of which dimension produced them; IDs above the
/// prefix keep their producing dimension (an object-only term can bind a
/// variable whose OPTIONAL-side subject lookup then correctly fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Binding {
    /// Dense ID within `space`.
    pub id: u32,
    /// The space `id` decodes in (never `Shared` unless inside the prefix).
    pub space: BindingSpace,
}

/// Decode space of a [`Binding`] (a subset of [`VarSpace`] ordering-wise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BindingSpace {
    /// Shared S-O prefix (`id < n_shared`).
    Shared,
    /// Subject dimension, above the shared prefix.
    Subject,
    /// Object dimension, above the shared prefix.
    Object,
    /// Predicate dimension.
    Predicate,
}

impl Binding {
    /// Creates a binding from a position dimension, normalizing prefix IDs
    /// to `Shared`.
    pub fn new(id: u32, dim: Dimension, n_shared: u32) -> Binding {
        let space = match dim {
            Dimension::Predicate => BindingSpace::Predicate,
            Dimension::Subject if id < n_shared => BindingSpace::Shared,
            Dimension::Object if id < n_shared => BindingSpace::Shared,
            Dimension::Subject => BindingSpace::Subject,
            Dimension::Object => BindingSpace::Object,
        };
        Binding { id, space }
    }

    /// Can this binding's value be looked up in a position of dimension
    /// `dim`? (`Shared` probes both S and O; dimension-exclusive IDs probe
    /// only their own dimension.)
    pub fn probes(&self, dim: Dimension) -> bool {
        match self.space {
            BindingSpace::Shared => matches!(dim, Dimension::Subject | Dimension::Object),
            BindingSpace::Subject => dim == Dimension::Subject,
            BindingSpace::Object => dim == Dimension::Object,
            BindingSpace::Predicate => dim == Dimension::Predicate,
        }
    }

    /// The dictionary dimension to decode through.
    pub fn decode_dim(&self) -> Dimension {
        match self.space {
            BindingSpace::Shared | BindingSpace::Subject => Dimension::Subject,
            BindingSpace::Object => Dimension::Object,
            BindingSpace::Predicate => Dimension::Predicate,
        }
    }

    /// Decodes to a term.
    pub fn decode<'d>(&self, dict: &'d Dictionary) -> &'d Term {
        dict.term(self.id, self.decode_dim())
            .expect("binding decodes in its space")
    }
}

/// The outcome of a query: projected variables, encoded rows, statistics.
///
/// Rows hold `Option<Binding>` cells (`None` = NULL produced by an
/// unmatched OPTIONAL); [`QueryOutput::decode`] resolves them to terms.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Projected variable names, in projection order.
    pub vars: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Option<Binding>>>,
    /// Execution statistics (Tables 6.2–6.4 columns).
    pub stats: QueryStats,
}

impl QueryOutput {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The boolean answer of an `ASK` query: `Some(true)` / `Some(false)`
    /// for the zero-column output the modifier seam produces for ASK,
    /// `None` for ordinary SELECT outputs (which have columns).
    pub fn boolean(&self) -> Option<bool> {
        if self.vars.is_empty() {
            Some(!self.rows.is_empty())
        } else {
            None
        }
    }

    /// Number of rows containing at least one NULL.
    pub fn rows_with_nulls(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.iter().any(|b| b.is_none()))
            .count()
    }

    /// Decodes all rows to terms (`None` = NULL).
    pub fn decode(&self, dict: &Dictionary) -> Vec<Vec<Option<Term>>> {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|b| b.map(|x| x.decode(dict).clone()))
                    .collect()
            })
            .collect()
    }

    /// Decoded rows rendered as tab-separated strings (NULL for nulls) —
    /// handy for examples and debugging.
    pub fn render(&self, dict: &Dictionary) -> Vec<String> {
        self.decode(dict)
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|t| t.map_or("NULL".to_string(), |x| x.to_string()))
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_sparql::algebra::{GraphPattern, TermPattern, TriplePattern};

    fn table(tps: Vec<TriplePattern>) -> Result<VarTable, LbrError> {
        table_of(tps).map(|(vt, _)| vt)
    }

    /// The variable table of a BGP, with the GoSN that names its ids.
    fn table_of(tps: Vec<TriplePattern>) -> Result<(VarTable, Gosn), LbrError> {
        let gosn = Gosn::from_pattern(&GraphPattern::Bgp(tps)).unwrap();
        VarTable::new(&gosn).map(|vt| (vt, gosn))
    }

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let f = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                TermPattern::Var(v.to_string())
            } else {
                TermPattern::Const(Term::iri(x))
            }
        };
        TriplePattern::new(f(s), f(p), f(o))
    }

    #[test]
    fn spaces_follow_positions() {
        let tps = vec![
            tp("?a", "p", "?b"),
            tp("?b", "q", "?c"),
            tp("?d", "?pv", "x"),
        ];
        let (vt, gosn) = table_of(tps).unwrap();
        let space = |v| vt.space(gosn.vars().id(v).unwrap());
        assert_eq!(vt.len(), 5);
        assert_eq!(space("a"), VarSpace::Subject);
        assert_eq!(space("b"), VarSpace::Shared);
        assert_eq!(space("c"), VarSpace::Object);
        assert_eq!(space("pv"), VarSpace::Predicate);
    }

    #[test]
    fn predicate_so_mix_rejected() {
        let tps = vec![tp("?x", "p", "?y"), tp("?a", "?x", "?b")];
        assert!(matches!(table(tps), Err(LbrError::Unsupported(_))));
    }

    #[test]
    fn subject_object_repeat_under_a_variable_predicate_rejected() {
        let tps = vec![tp("?x", "p", "?y"), tp("?x", "?p", "?x")];
        assert!(matches!(table(tps), Err(LbrError::Unsupported(_))));
        // A constant predicate reads the S-O diagonal.
        assert!(table(vec![tp("?x", "p", "?x")]).is_ok());
    }

    #[test]
    fn space_lengths() {
        let dims = CubeDims {
            n_subjects: 10,
            n_predicates: 3,
            n_objects: 8,
            n_shared: 5,
            n_triples: 0,
        };
        assert_eq!(VarSpace::Subject.len(&dims), 10);
        assert_eq!(VarSpace::Object.len(&dims), 8);
        assert_eq!(VarSpace::Shared.len(&dims), 5);
        assert_eq!(VarSpace::Predicate.len(&dims), 3);
        assert_eq!(VarSpace::Shared.decode_dim(), Dimension::Subject);
    }

    #[test]
    fn binding_normalization_and_probing() {
        // Inside the shared prefix: S and O bindings unify.
        let a = Binding::new(2, Dimension::Subject, 5);
        let b = Binding::new(2, Dimension::Object, 5);
        assert_eq!(a, b);
        assert_eq!(a.space, BindingSpace::Shared);
        assert!(a.probes(Dimension::Subject) && a.probes(Dimension::Object));
        assert!(!a.probes(Dimension::Predicate));
        // Above the prefix: dimension-exclusive.
        let s = Binding::new(7, Dimension::Subject, 5);
        let o = Binding::new(7, Dimension::Object, 5);
        assert_ne!(s, o, "same raw id, different terms");
        assert!(s.probes(Dimension::Subject) && !s.probes(Dimension::Object));
        assert!(o.probes(Dimension::Object) && !o.probes(Dimension::Subject));
        // Predicates.
        let p = Binding::new(1, Dimension::Predicate, 5);
        assert_eq!(p.space, BindingSpace::Predicate);
        assert!(p.probes(Dimension::Predicate) && !p.probes(Dimension::Subject));
        assert_eq!(p.decode_dim(), Dimension::Predicate);
    }
}
