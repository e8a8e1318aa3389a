//! Terms (variables or constants) and substitutions over them.

use std::collections::BTreeMap;
use std::fmt;

use crate::literal::write_value;
use crate::symbol::Symbol;
use crate::value::Value;

/// A term in a query atom: either a variable or a constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A named variable, e.g. `FID`.
    Var(Symbol),
    /// A constant value, e.g. `11` or `'Calcitonin'`.
    Const(Value),
}

impl Term {
    /// Builds a variable term.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Symbol::new(name))
    }

    /// Builds a constant term.
    pub fn constant(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// Returns the variable name, if this term is a variable.
    pub fn as_var(&self) -> Option<&Symbol> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// Returns the constant value, if this term is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// True when the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// True when the term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write_value(f, c),
        }
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A mapping from variables to terms.
///
/// Substitutions are the workhorse of unification, homomorphism search and
/// view unfolding. A `BTreeMap` keeps iteration deterministic, which in turn
/// keeps rewriting output and test expectations stable.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Substitution {
    map: BTreeMap<Symbol, Term>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a substitution from `(variable, term)` pairs.
    pub fn from_pairs<I, V, T>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (V, T)>,
        V: Into<Symbol>,
        T: Into<Term>,
    {
        let mut s = Self::new();
        for (v, t) in pairs {
            s.bind(v.into(), t.into());
        }
        s
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Binds `var` to `term`, replacing any previous binding.
    pub fn bind(&mut self, var: Symbol, term: Term) {
        self.map.insert(var, term);
    }

    /// Looks up the binding for `var`.
    pub fn get(&self, var: &Symbol) -> Option<&Term> {
        self.map.get(var)
    }

    /// True when `var` is bound.
    pub fn contains(&self, var: &Symbol) -> bool {
        self.map.contains_key(var)
    }

    /// Applies the substitution to a term (variables without a binding are
    /// left untouched; constants always map to themselves).
    pub fn apply_term(&self, t: &Term) -> Term {
        match t {
            Term::Var(v) => self.map.get(v).cloned().unwrap_or_else(|| t.clone()),
            Term::Const(_) => t.clone(),
        }
    }

    /// Applies the substitution once to every term in `terms`.
    pub fn apply_terms(&self, terms: &[Term]) -> Vec<Term> {
        terms.iter().map(|t| self.apply_term(t)).collect()
    }

    /// Applies the substitution to its own right-hand sides until fixpoint,
    /// so that chains `X -> Y, Y -> c` become `X -> c, Y -> c`.
    ///
    /// Panics are avoided by bounding iterations at the substitution size;
    /// cyclic chains (`X -> Y, Y -> X`) simply stop changing.
    pub fn resolve(&mut self) {
        for _ in 0..self.map.len() {
            let mut changed = false;
            let snapshot = self.map.clone();
            for term in self.map.values_mut() {
                let Term::Var(v) = &*term else { continue };
                if let Some(target) = snapshot.get(v) {
                    let is_self = matches!(target, Term::Var(tv) if tv == v);
                    if !is_self && target != term {
                        *term = target.clone();
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Iterates over `(variable, term)` bindings in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Term)> {
        self.map.iter()
    }

    /// Composes `self` with `other`: the result applies `self` first, then
    /// `other` to the image.
    pub fn compose(&self, other: &Substitution) -> Substitution {
        let mut out = Substitution::new();
        for (v, t) in self.iter() {
            out.bind(v.clone(), other.apply_term(t));
        }
        for (v, t) in other.iter() {
            if !out.contains(v) {
                out.bind(v.clone(), t.clone());
            }
        }
        out
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_accessors() {
        let v = Term::var("X");
        let c = Term::constant(5);
        assert!(v.is_var() && !v.is_const());
        assert!(c.is_const() && !c.is_var());
        assert_eq!(v.as_var().unwrap().as_str(), "X");
        assert_eq!(c.as_const(), Some(&Value::Int(5)));
    }

    #[test]
    fn display_quotes_text_constants() {
        assert_eq!(Term::var("FID").to_string(), "FID");
        assert_eq!(Term::constant("Calcitonin").to_string(), "'Calcitonin'");
        assert_eq!(Term::constant(11).to_string(), "11");
        assert_eq!(Term::constant(true).to_string(), "true");
    }

    #[test]
    fn substitution_application() {
        let s = Substitution::from_pairs([("X", Term::constant(1)), ("Y", Term::var("Z"))]);
        assert_eq!(s.apply_term(&Term::var("X")), Term::constant(1));
        assert_eq!(s.apply_term(&Term::var("Y")), Term::var("Z"));
        assert_eq!(s.apply_term(&Term::var("W")), Term::var("W"));
        assert_eq!(s.apply_term(&Term::constant(9)), Term::constant(9));
    }

    #[test]
    fn resolve_follows_chains() {
        let mut s = Substitution::from_pairs([("X", Term::var("Y")), ("Y", Term::constant(3))]);
        s.resolve();
        assert_eq!(s.get(&Symbol::new("X")), Some(&Term::constant(3)));
    }

    #[test]
    fn resolve_terminates_on_cycles() {
        let mut s = Substitution::from_pairs([("X", Term::var("Y")), ("Y", Term::var("X"))]);
        s.resolve(); // must not loop forever
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn compose_applies_left_then_right() {
        let s1 = Substitution::from_pairs([("X", Term::var("Y"))]);
        let s2 = Substitution::from_pairs([("Y", Term::constant(7))]);
        let c = s1.compose(&s2);
        assert_eq!(c.apply_term(&Term::var("X")), Term::constant(7));
        assert_eq!(c.apply_term(&Term::var("Y")), Term::constant(7));
    }

    #[test]
    fn display_substitution() {
        let s = Substitution::from_pairs([("X", Term::constant(1))]);
        assert_eq!(s.to_string(), "{X -> 1}");
    }
}
