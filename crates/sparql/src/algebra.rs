//! The pattern algebra: triple patterns, graph patterns, expressions and
//! SELECT queries.
//!
//! A nested BGP-OPT query is a tree over [`GraphPattern`]: `Bgp` leaves
//! joined by `Join` (SPARQL group juxtaposition, SQL inner join ⋈) and
//! `LeftJoin` (SPARQL OPTIONAL, SQL left-outer join ⟕), with `Union` and
//! `Filter` for §5.2.

use lbr_rdf::Term;
use std::collections::BTreeSet;
use std::fmt;

/// A position in a triple pattern: a variable or a constant term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermPattern {
    /// A query variable (name without the leading `?`).
    Var(String),
    /// A constant RDF term.
    Const(Term),
}

impl TermPattern {
    /// Variable name, if this position is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            TermPattern::Var(v) => Some(v),
            TermPattern::Const(_) => None,
        }
    }

    /// Constant term, if this position is fixed.
    pub fn as_const(&self) -> Option<&Term> {
        match self {
            TermPattern::Var(_) => None,
            TermPattern::Const(t) => Some(t),
        }
    }
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermPattern::Var(v) => write!(f, "?{v}"),
            TermPattern::Const(t) => write!(f, "{t}"),
        }
    }
}

/// A triple pattern `(s p o)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject position.
    pub s: TermPattern,
    /// Predicate position.
    pub p: TermPattern,
    /// Object position.
    pub o: TermPattern,
}

impl TriplePattern {
    /// Creates a triple pattern.
    pub fn new(s: TermPattern, p: TermPattern, o: TermPattern) -> Self {
        TriplePattern { s, p, o }
    }

    /// The variables of this pattern in S, P, O order (deduplicated,
    /// preserving first occurrence). Allocates nothing.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        let [s, p, o] = [&self.s, &self.p, &self.o].map(TermPattern::as_var);
        let p = p.filter(|&v| Some(v) != s);
        let o = o.filter(|&v| Some(v) != s && Some(v) != p);
        [s, p, o].into_iter().flatten()
    }

    /// True if the variable occurs in this pattern.
    pub fn has_var(&self, name: &str) -> bool {
        [&self.s, &self.p, &self.o]
            .iter()
            .any(|t| t.as_var() == Some(name))
    }

    /// Number of fixed (constant) positions.
    pub fn n_fixed(&self) -> usize {
        [&self.s, &self.p, &self.o]
            .iter()
            .filter(|t| t.as_const().is_some())
            .count()
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.s, self.p, self.o)
    }
}

/// A FILTER expression (safe-filter subset of §5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Variable reference.
    Var(String),
    /// Constant term.
    Const(Term),
    /// `=` on RDF terms.
    Eq(Box<Expr>, Box<Expr>),
    /// `!=`.
    Ne(Box<Expr>, Box<Expr>),
    /// `<` (numeric when both sides parse as integers, else lexical).
    Lt(Box<Expr>, Box<Expr>),
    /// `<=`.
    Le(Box<Expr>, Box<Expr>),
    /// `>`.
    Gt(Box<Expr>, Box<Expr>),
    /// `>=`.
    Ge(Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `BOUND(?v)`.
    Bound(String),
}

impl Expr {
    /// All variables referenced by the expression.
    pub fn vars(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.visit_vars(&mut |v| {
            out.insert(v);
        });
        out
    }

    /// Calls `f` on every variable reference, left to right (repeats
    /// included); allocates nothing.
    pub fn visit_vars<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Var(v) | Expr::Bound(v) => f(v),
            Expr::Const(_) => {}
            Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.visit_vars(f);
                b.visit_vars(f);
            }
            Expr::Not(a) => a.visit_vars(f),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "?{v}"),
            Expr::Const(t) => write!(f, "{t}"),
            Expr::Eq(a, b) => write!(f, "({a} = {b})"),
            Expr::Ne(a, b) => write!(f, "({a} != {b})"),
            Expr::Lt(a, b) => write!(f, "({a} < {b})"),
            Expr::Le(a, b) => write!(f, "({a} <= {b})"),
            Expr::Gt(a, b) => write!(f, "({a} > {b})"),
            Expr::Ge(a, b) => write!(f, "({a} >= {b})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::Not(a) => write!(f, "(!{a})"),
            Expr::Bound(v) => write!(f, "BOUND(?{v})"),
        }
    }
}

/// A graph pattern tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphPattern {
    /// A basic graph pattern: a set of triple patterns (inner joins).
    Bgp(Vec<TriplePattern>),
    /// Inner join `⋈` of two sub-patterns.
    Join(Box<GraphPattern>, Box<GraphPattern>),
    /// Left-outer join `⟕` (SPARQL OPTIONAL).
    LeftJoin(Box<GraphPattern>, Box<GraphPattern>),
    /// SPARQL UNION (bag semantics).
    Union(Box<GraphPattern>, Box<GraphPattern>),
    /// FILTER applied to a sub-pattern.
    Filter(Box<GraphPattern>, Expr),
}

impl GraphPattern {
    /// Convenience constructor for joins.
    pub fn join(l: GraphPattern, r: GraphPattern) -> Self {
        GraphPattern::Join(Box::new(l), Box::new(r))
    }

    /// Convenience constructor for left-outer joins.
    pub fn left_join(l: GraphPattern, r: GraphPattern) -> Self {
        GraphPattern::LeftJoin(Box::new(l), Box::new(r))
    }

    /// Convenience constructor for unions.
    pub fn union(l: GraphPattern, r: GraphPattern) -> Self {
        GraphPattern::Union(Box::new(l), Box::new(r))
    }

    /// Convenience constructor for filters.
    pub fn filter(p: GraphPattern, e: Expr) -> Self {
        GraphPattern::Filter(Box::new(p), e)
    }

    /// All triple patterns, left-to-right.
    pub fn triple_patterns(&self) -> Vec<&TriplePattern> {
        let mut out = Vec::new();
        self.visit_tps(&mut |tp| out.push(tp));
        out
    }

    /// Calls `f` on every triple pattern, left-to-right; allocates nothing.
    pub fn visit_tps<'a>(&'a self, f: &mut impl FnMut(&'a TriplePattern)) {
        match self {
            GraphPattern::Bgp(tps) => tps.iter().for_each(f),
            GraphPattern::Join(l, r) | GraphPattern::LeftJoin(l, r) | GraphPattern::Union(l, r) => {
                l.visit_tps(f);
                r.visit_tps(f);
            }
            GraphPattern::Filter(p, _) => p.visit_tps(f),
        }
    }

    /// All variables mentioned in triple patterns (not filters), sorted.
    pub fn variables(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.visit_tps(&mut |tp| out.extend(tp.vars()));
        out
    }

    /// True if the subtree contains no `LeftJoin` — an *OPT-free* pattern,
    /// the unit from which GoSN supernodes are made (§2.1).
    pub fn is_opt_free(&self) -> bool {
        match self {
            GraphPattern::Bgp(_) => true,
            GraphPattern::Join(l, r) | GraphPattern::Union(l, r) => {
                l.is_opt_free() && r.is_opt_free()
            }
            GraphPattern::LeftJoin(_, _) => false,
            GraphPattern::Filter(p, _) => p.is_opt_free(),
        }
    }

    /// True if the subtree contains a `Union`.
    pub fn has_union(&self) -> bool {
        match self {
            GraphPattern::Bgp(_) => false,
            GraphPattern::Union(_, _) => true,
            GraphPattern::Join(l, r) | GraphPattern::LeftJoin(l, r) => {
                l.has_union() || r.has_union()
            }
            GraphPattern::Filter(p, _) => p.has_union(),
        }
    }

    /// True if the subtree contains a `Filter`.
    pub fn has_filter(&self) -> bool {
        match self {
            GraphPattern::Bgp(_) => false,
            GraphPattern::Filter(_, _) => true,
            GraphPattern::Join(l, r) | GraphPattern::LeftJoin(l, r) | GraphPattern::Union(l, r) => {
                l.has_filter() || r.has_filter()
            }
        }
    }

    /// The paper's serialized-parenthesized form, e.g.
    /// `((Pa ⟕ Pb) ⋈ (Pc ⟕ Pd))` with BGPs shown as `{tp . tp}`.
    pub fn serialized(&self) -> String {
        match self {
            GraphPattern::Bgp(tps) => {
                let inner: Vec<String> = tps.iter().map(|t| t.to_string()).collect();
                format!("{{{}}}", inner.join(" . "))
            }
            GraphPattern::Join(l, r) => format!("({} ⋈ {})", l.serialized(), r.serialized()),
            GraphPattern::LeftJoin(l, r) => {
                format!("({} ⟕ {})", l.serialized(), r.serialized())
            }
            GraphPattern::Union(l, r) => format!("({} ∪ {})", l.serialized(), r.serialized()),
            GraphPattern::Filter(p, e) => format!("Filter({}, {})", p.serialized(), e),
        }
    }
}

/// SELECT projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// `SELECT *` — the common case (the paper notes >95 % of DBPedia
    /// queries select all variables, §5.2).
    All,
    /// `SELECT ?a ?b …`.
    Vars(Vec<String>),
}

/// Duplicate handling of a SELECT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dedup {
    /// Plain `SELECT` — bag semantics, duplicates preserved.
    #[default]
    None,
    /// `SELECT DISTINCT` — duplicate solutions are eliminated.
    Distinct,
    /// `SELECT REDUCED` — duplicates *may* be eliminated; this engine
    /// treats it exactly like DISTINCT (a permitted cardinality).
    Reduced,
}

/// The query form: what the solution sequence is turned into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryForm {
    /// `SELECT [DISTINCT|REDUCED] (*|vars)` — a table of bindings.
    Select {
        /// Projection list.
        selection: Selection,
        /// Duplicate handling.
        dedup: Dedup,
    },
    /// `ASK` — a boolean: does at least one solution survive the
    /// modifiers?
    Ask,
}

impl QueryForm {
    /// Writes the form prefix in parseable SPARQL: `ASK ` or
    /// `SELECT [DISTINCT |REDUCED ](* |?vars )WHERE `. The single
    /// serializer behind both [`Query`]'s `Display` and
    /// `serialize::to_sparql`.
    pub fn write_prefix<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match self {
            QueryForm::Ask => w.write_str("ASK "),
            QueryForm::Select { selection, dedup } => {
                w.write_str("SELECT ")?;
                match dedup {
                    Dedup::None => {}
                    Dedup::Distinct => w.write_str("DISTINCT ")?,
                    Dedup::Reduced => w.write_str("REDUCED ")?,
                }
                match selection {
                    Selection::All => w.write_str("* ")?,
                    Selection::Vars(vs) => {
                        for v in vs {
                            write!(w, "?{v} ")?;
                        }
                    }
                }
                w.write_str("WHERE ")
            }
        }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// The variable ordered on (name without the `?`).
    pub var: String,
    /// `DESC(?v)` when true, `ASC(?v)` / bare `?v` when false.
    pub descending: bool,
}

/// Solution modifiers: `ORDER BY`, `LIMIT`, `OFFSET`.
///
/// Applied in SPARQL's §18.2.5 order: ORDER BY, then projection, then
/// DISTINCT/REDUCED, then OFFSET, then LIMIT.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Modifiers {
    /// `ORDER BY` keys, outermost first.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT n` — at most `n` solutions.
    pub limit: Option<usize>,
    /// `OFFSET n` — skip the first `n` solutions (0 = none).
    pub offset: usize,
}

impl Modifiers {
    /// True when no modifier is set (the bare-`SELECT`/`ASK` fast path).
    pub fn is_empty(&self) -> bool {
        self.order_by.is_empty() && self.limit.is_none() && self.offset == 0
    }

    /// Writes the ` ORDER BY … LIMIT … OFFSET …` suffix in parseable
    /// SPARQL (nothing when no modifier is set). The single serializer
    /// behind both [`Query`]'s `Display` and `serialize::to_sparql`.
    pub fn write_suffix<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        if !self.order_by.is_empty() {
            w.write_str(" ORDER BY")?;
            for k in &self.order_by {
                if k.descending {
                    write!(w, " DESC(?{})", k.var)?;
                } else {
                    write!(w, " ASC(?{})", k.var)?;
                }
            }
        }
        if let Some(n) = self.limit {
            write!(w, " LIMIT {n}")?;
        }
        if self.offset > 0 {
            write!(w, " OFFSET {}", self.offset)?;
        }
        Ok(())
    }
}

/// A full query: form + WHERE pattern + solution modifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The query form (`SELECT …` / `ASK`).
    pub form: QueryForm,
    /// The WHERE pattern.
    pub pattern: GraphPattern,
    /// Solution modifiers.
    pub modifiers: Modifiers,
}

impl Query {
    /// A modifier-free `SELECT *` query (the overwhelmingly common case).
    pub fn select_all(pattern: GraphPattern) -> Query {
        Query {
            form: QueryForm::Select {
                selection: Selection::All,
                dedup: Dedup::None,
            },
            pattern,
            modifiers: Modifiers::default(),
        }
    }

    /// A modifier-free `SELECT ?a ?b …` query.
    pub fn select_vars(vars: Vec<String>, pattern: GraphPattern) -> Query {
        Query {
            form: QueryForm::Select {
                selection: Selection::Vars(vars),
                dedup: Dedup::None,
            },
            pattern,
            modifiers: Modifiers::default(),
        }
    }

    /// A modifier-free `ASK` query.
    pub fn ask(pattern: GraphPattern) -> Query {
        Query {
            form: QueryForm::Ask,
            pattern,
            modifiers: Modifiers::default(),
        }
    }

    /// Replaces the solution modifiers (builder-style).
    pub fn with_modifiers(mut self, modifiers: Modifiers) -> Query {
        self.modifiers = modifiers;
        self
    }

    /// True for an `ASK` query.
    pub fn is_ask(&self) -> bool {
        matches!(self.form, QueryForm::Ask)
    }

    /// The duplicate handling (`Dedup::None` for `ASK`, which has no
    /// DISTINCT in the grammar).
    pub fn dedup(&self) -> Dedup {
        match &self.form {
            QueryForm::Select { dedup, .. } => *dedup,
            QueryForm::Ask => Dedup::None,
        }
    }

    /// The variables the query projects, in a deterministic order
    /// (declaration order for explicit SELECT, first-occurrence order of
    /// triple-pattern variables for `SELECT *`, empty for `ASK`).
    ///
    /// A selected variable that occurs nowhere in the WHERE pattern is
    /// kept: per SPARQL semantics it yields an all-unbound column, never
    /// an error.
    pub fn projected_vars(&self) -> Vec<String> {
        let mut vars = Vec::new();
        match &self.form {
            QueryForm::Ask => {}
            QueryForm::Select {
                selection: Selection::Vars(vs),
                ..
            } => vars.clone_from(vs),
            QueryForm::Select { .. } => self.pattern.visit_tps(&mut |tp| {
                for v in tp.vars() {
                    if !vars.iter().any(|s: &String| s == v) {
                        vars.push(v.to_string());
                    }
                }
            }),
        }
        vars
    }

    /// The columns raw execution must materialize: the projection plus
    /// any `ORDER BY` key that is not projected (sorting happens before
    /// the projection in SPARQL's modifier order, so the keys must exist
    /// as columns; the shared modifier seam drops the extras afterwards).
    pub fn exec_vars(&self) -> Vec<String> {
        self.exec_schema().0
    }

    /// [`Query::exec_vars`] and the length of its projected prefix, which
    /// is [`Query::projected_vars`].
    pub fn exec_schema(&self) -> (Vec<String>, usize) {
        let mut vars = self.projected_vars();
        let n_projected = vars.len();
        if !self.is_ask() {
            for key in &self.modifiers.order_by {
                if !vars.iter().any(|v| v == &key.var) {
                    vars.push(key.var.clone());
                }
            }
        }
        (vars, n_projected)
    }
}

impl fmt::Display for Query {
    /// The form and modifiers print through the same serializers
    /// `serialize::to_sparql` uses; only the pattern differs (the
    /// paper's `⟕`/`⋈` notation here, parseable group syntax there).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.form.write_prefix(f)?;
        f.write_str(&self.pattern.serialized())?;
        self.modifiers.write_suffix(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn var(v: &str) -> TermPattern {
        TermPattern::Var(v.into())
    }

    pub(crate) fn iri(v: &str) -> TermPattern {
        TermPattern::Const(Term::iri(v))
    }

    fn tp(s: TermPattern, p: TermPattern, o: TermPattern) -> TriplePattern {
        TriplePattern::new(s, p, o)
    }

    #[test]
    fn tp_vars_dedup_and_order() {
        let t = tp(var("x"), iri("p"), var("x"));
        assert_eq!(t.vars().collect::<Vec<_>>(), vec!["x"]);
        let t = tp(var("b"), var("a"), var("c"));
        assert_eq!(t.vars().collect::<Vec<_>>(), vec!["b", "a", "c"]);
        let t = tp(var("a"), var("b"), var("a"));
        assert_eq!(t.vars().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(t.has_var("a"));
        assert!(!t.has_var("z"));
        assert_eq!(t.n_fixed(), 0);
        assert_eq!(tp(iri("s"), iri("p"), var("o")).n_fixed(), 2);
    }

    #[test]
    fn opt_free_detection() {
        let bgp = GraphPattern::Bgp(vec![tp(var("x"), iri("p"), var("y"))]);
        assert!(bgp.is_opt_free());
        let lj = GraphPattern::left_join(bgp.clone(), bgp.clone());
        assert!(!lj.is_opt_free());
        assert!(GraphPattern::join(bgp.clone(), bgp.clone()).is_opt_free());
        assert!(!GraphPattern::join(bgp.clone(), lj.clone()).is_opt_free());
        assert!(GraphPattern::filter(bgp.clone(), Expr::Bound("x".into())).is_opt_free());
    }

    #[test]
    fn serialized_form_matches_paper_style() {
        let pa = GraphPattern::Bgp(vec![tp(var("a"), iri("p"), var("b"))]);
        let pb = GraphPattern::Bgp(vec![tp(var("b"), iri("q"), var("c"))]);
        let q = GraphPattern::left_join(pa, pb);
        assert_eq!(q.serialized(), "({?a <p> ?b} ⟕ {?b <q> ?c})");
    }

    #[test]
    fn query_projection() {
        let p = GraphPattern::Bgp(vec![
            tp(var("b"), iri("p"), var("a")),
            tp(var("a"), iri("q"), var("c")),
        ]);
        let q = Query::select_all(p.clone());
        assert_eq!(q.projected_vars(), vec!["b", "a", "c"]);
        let q = Query::select_vars(vec!["c".into()], p.clone());
        assert_eq!(q.projected_vars(), vec!["c"]);
        // ASK projects nothing; ORDER BY keys extend the execution schema.
        assert!(Query::ask(p.clone()).projected_vars().is_empty());
        assert!(Query::ask(p.clone()).exec_vars().is_empty());
        let q = Query::select_vars(vec!["c".into()], p).with_modifiers(Modifiers {
            order_by: vec![
                OrderKey {
                    var: "a".into(),
                    descending: true,
                },
                OrderKey {
                    var: "c".into(),
                    descending: false,
                },
            ],
            limit: Some(5),
            offset: 2,
        });
        assert_eq!(q.projected_vars(), vec!["c"]);
        assert_eq!(q.exec_vars(), vec!["c", "a"]);
        assert_eq!(
            q.to_string(),
            "SELECT ?c WHERE {?b <p> ?a . ?a <q> ?c} ORDER BY DESC(?a) ASC(?c) LIMIT 5 OFFSET 2"
        );
    }

    #[test]
    fn expr_vars() {
        let e = Expr::And(
            Box::new(Expr::Gt(
                Box::new(Expr::Var("x".into())),
                Box::new(Expr::Const(Term::integer(3))),
            )),
            Box::new(Expr::Bound("y".into())),
        );
        let vs: Vec<&str> = e.vars().into_iter().collect();
        assert_eq!(vs, vec!["x", "y"]);
        assert_eq!(
            e.to_string(),
            "((?x > \"3\"^^<http://www.w3.org/2001/XMLSchema#integer>) && BOUND(?y))"
        );
    }

    #[test]
    fn union_filter_detection() {
        let bgp = GraphPattern::Bgp(vec![tp(var("x"), iri("p"), var("y"))]);
        let u = GraphPattern::union(bgp.clone(), bgp.clone());
        assert!(u.has_union());
        assert!(!bgp.has_union());
        assert!(GraphPattern::filter(bgp.clone(), Expr::Bound("x".into())).has_filter());
        assert!(!u.has_filter());
    }
}
