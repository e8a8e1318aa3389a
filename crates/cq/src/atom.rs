//! Relational atoms and body literals.

use std::fmt;

use crate::symbol::Symbol;
use crate::term::{Substitution, Term};

/// A relational atom `P(t1, …, tk)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// Predicate (relation or view) name.
    pub predicate: Symbol,
    /// Argument terms, in schema order.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom from a predicate name and terms.
    pub fn new(predicate: impl Into<Symbol>, terms: Vec<Term>) -> Self {
        Atom {
            predicate: predicate.into(),
            terms,
        }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Iterates over the variables occurring in the atom (with duplicates).
    pub fn vars(&self) -> impl Iterator<Item = &Symbol> {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// Applies a substitution to every term.
    pub fn apply(&self, s: &Substitution) -> Atom {
        Atom {
            predicate: self.predicate.clone(),
            terms: s.apply_terms(&self.terms),
        }
    }

    /// True if the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_const)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A body literal as written in the surface syntax: either a relational atom
/// or an equality `t1 = t2`.
///
/// Equalities are eliminated during [`crate::query::ConjunctiveQuery`]
/// normalization (variables are substituted away), so downstream algorithms
/// only ever see relational atoms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Literal {
    /// A relational atom.
    Atom(Atom),
    /// An equality between two terms, e.g. `D = "IUPHAR/BPS …"`.
    Eq(Term, Term),
}

impl Literal {
    /// Returns the relational atom, if this literal is one.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Literal::Atom(a) => Some(a),
            Literal::Eq(..) => None,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Atom(a) => write!(f, "{a}"),
            Literal::Eq(l, r) => write!(f, "{l} = {r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fam_atom() -> Atom {
        Atom::new(
            "Family",
            vec![Term::var("FID"), Term::var("FName"), Term::var("Desc")],
        )
    }

    #[test]
    fn arity_and_vars() {
        let a = fam_atom();
        assert_eq!(a.arity(), 3);
        let vars: Vec<&str> = a.vars().map(Symbol::as_str).collect();
        assert_eq!(vars, ["FID", "FName", "Desc"]);
    }

    #[test]
    fn apply_substitution() {
        let a = fam_atom();
        let s = Substitution::from_pairs([("FID", Term::constant(11))]);
        let b = a.apply(&s);
        assert_eq!(b.terms[0], Term::constant(11));
        assert_eq!(b.terms[1], Term::var("FName"));
    }

    #[test]
    fn groundness() {
        let a = Atom::new("R", vec![Term::constant(1), Term::constant("x")]);
        assert!(a.is_ground());
        assert!(!fam_atom().is_ground());
    }

    #[test]
    fn display_forms() {
        assert_eq!(fam_atom().to_string(), "Family(FID, FName, Desc)");
        let eq = Literal::Eq(Term::var("D"), Term::constant("GtoPdb"));
        assert_eq!(eq.to_string(), "D = 'GtoPdb'");
    }
}
