//! FILTER expression evaluation against decoded bindings.
//!
//! Semantics (a pragmatic subset of SPARQL's three-valued logic, §5.2):
//! comparisons involving an unbound/NULL variable evaluate to `false`
//! (SPARQL "error" collapsed to `false` before negation); `BOUND` tests
//! bindingness; numeric comparison is used when both operands parse as
//! integers, otherwise terms compare by lexical form (equality compares
//! whole terms).

use lbr_rdf::Term;
use lbr_sparql::algebra::Expr;
use std::cmp::Ordering;

/// Resolves a variable name to its current term binding (`None` = NULL or
/// unbound).
pub trait VarLookup {
    /// The binding of `name`, if any.
    fn term(&self, name: &str) -> Option<&Term>;
}

impl<F> VarLookup for F
where
    F: Fn(&str) -> Option<&'static Term>,
{
    fn term(&self, name: &str) -> Option<&Term> {
        self(name)
    }
}

/// A lookup over a slice of `(name, term)` pairs (used by tests and by
/// the engine to test one candidate of an init mask).
pub struct PairLookup<'a>(pub &'a [(&'a str, &'a Term)]);

impl VarLookup for PairLookup<'_> {
    fn term(&self, name: &str) -> Option<&Term> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
    }
}

/// Evaluates an expression to a boolean.
pub fn eval(e: &Expr, lookup: &dyn VarLookup) -> bool {
    match e {
        Expr::And(a, b) => eval(a, lookup) && eval(b, lookup),
        Expr::Or(a, b) => eval(a, lookup) || eval(b, lookup),
        Expr::Not(a) => !eval(a, lookup),
        Expr::Bound(v) => lookup.term(v).is_some(),
        Expr::Eq(a, b) => cmp(a, b, lookup).is_some_and(|o| o == Ordering::Equal),
        Expr::Ne(a, b) => cmp(a, b, lookup).is_some_and(|o| o != Ordering::Equal),
        Expr::Lt(a, b) => cmp(a, b, lookup).is_some_and(|o| o == Ordering::Less),
        Expr::Le(a, b) => cmp(a, b, lookup).is_some_and(|o| o != Ordering::Greater),
        Expr::Gt(a, b) => cmp(a, b, lookup).is_some_and(|o| o == Ordering::Greater),
        Expr::Ge(a, b) => cmp(a, b, lookup).is_some_and(|o| o != Ordering::Less),
        // A bare variable or constant used as a boolean: truthy when bound
        // and not the literal "false" / "0".
        Expr::Var(v) => lookup
            .term(v)
            .is_some_and(|t| !matches!(t.lexical_form(), "false" | "0")),
        Expr::Const(t) => !matches!(t.lexical_form(), "false" | "0"),
    }
}

fn value<'a>(e: &'a Expr, lookup: &'a dyn VarLookup) -> Option<&'a Term> {
    match e {
        Expr::Var(v) => lookup.term(v),
        Expr::Const(t) => Some(t),
        _ => None,
    }
}

/// Term comparison: numeric when both sides parse as integers, full-term
/// equality otherwise, lexical-form ordering as the fallback.
fn cmp(a: &Expr, b: &Expr, lookup: &dyn VarLookup) -> Option<Ordering> {
    let (ta, tb) = (value(a, lookup)?, value(b, lookup)?);
    if let (Some(x), Some(y)) = (ta.as_integer(), tb.as_integer()) {
        return Some(x.cmp(&y));
    }
    if ta == tb {
        return Some(Ordering::Equal);
    }
    match ta.lexical_form().cmp(tb.lexical_form()) {
        // Same lexical form but different terms (e.g. IRI vs literal):
        // unequal but order them deterministically by full term order.
        Ordering::Equal => Some(ta.cmp(tb)),
        o => Some(o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e_var(v: &str) -> Expr {
        Expr::Var(v.into())
    }

    fn e_int(i: i64) -> Expr {
        Expr::Const(Term::integer(i))
    }

    #[test]
    fn comparisons() {
        let five = Term::integer(5);
        let lk = [("x", &five)];
        let lk = PairLookup(&lk);
        assert!(eval(
            &Expr::Gt(Box::new(e_var("x")), Box::new(e_int(3))),
            &lk
        ));
        assert!(!eval(
            &Expr::Gt(Box::new(e_var("x")), Box::new(e_int(5))),
            &lk
        ));
        assert!(eval(
            &Expr::Ge(Box::new(e_var("x")), Box::new(e_int(5))),
            &lk
        ));
        assert!(eval(
            &Expr::Le(Box::new(e_var("x")), Box::new(e_int(5))),
            &lk
        ));
        assert!(eval(
            &Expr::Ne(Box::new(e_var("x")), Box::new(e_int(4))),
            &lk
        ));
        assert!(eval(
            &Expr::Eq(Box::new(e_var("x")), Box::new(e_int(5))),
            &lk
        ));
    }

    #[test]
    fn unbound_comparisons_are_false() {
        let lk = PairLookup(&[]);
        assert!(!eval(
            &Expr::Eq(Box::new(e_var("x")), Box::new(e_int(1))),
            &lk
        ));
        assert!(!eval(
            &Expr::Ne(Box::new(e_var("x")), Box::new(e_int(1))),
            &lk
        ));
        assert!(!eval(&Expr::Bound("x".into()), &lk));
        // Not(error→false) = true — the documented 2VL collapse.
        assert!(eval(&Expr::Not(Box::new(Expr::Bound("x".into()))), &lk));
    }

    #[test]
    fn boolean_connectives() {
        let one = Term::integer(1);
        let lk = [("x", &one)];
        let lk = PairLookup(&lk);
        let t = Expr::Bound("x".into());
        let f = Expr::Bound("y".into());
        assert!(eval(
            &Expr::And(Box::new(t.clone()), Box::new(t.clone())),
            &lk
        ));
        assert!(!eval(
            &Expr::And(Box::new(t.clone()), Box::new(f.clone())),
            &lk
        ));
        assert!(eval(
            &Expr::Or(Box::new(f.clone()), Box::new(t.clone())),
            &lk
        ));
        assert!(!eval(
            &Expr::Or(Box::new(f.clone()), Box::new(f.clone())),
            &lk
        ));
    }

    #[test]
    fn string_and_term_comparison() {
        let apple = Term::literal("apple");
        let banana = Term::literal("banana");
        let lk = [("a", &apple), ("b", &banana)];
        let lk = PairLookup(&lk);
        assert!(eval(
            &Expr::Lt(Box::new(e_var("a")), Box::new(e_var("b"))),
            &lk
        ));
        // IRI vs literal with the same lexical form: not equal.
        let iri = Term::iri("apple");
        let lk2 = [("a", &apple), ("i", &iri)];
        let lk2 = PairLookup(&lk2);
        assert!(eval(
            &Expr::Ne(Box::new(e_var("a")), Box::new(e_var("i"))),
            &lk2
        ));
    }

    #[test]
    fn truthiness_of_bare_values() {
        let yes = Term::literal("yes");
        let no = Term::literal("false");
        let lk = [("y", &yes), ("n", &no)];
        let lk = PairLookup(&lk);
        assert!(eval(&e_var("y"), &lk));
        assert!(!eval(&e_var("n"), &lk));
        assert!(!eval(&e_var("missing"), &lk));
    }
}
