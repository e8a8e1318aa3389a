//! Conjunctive queries with optional λ-parameters.
//!
//! The paper writes parameterized views as
//! `λ FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)`.
//! Parameters must appear in the head, and subsets of result tuples agreeing
//! on all parameter values share a citation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::atom::{Atom, Literal};
use crate::error::CqError;
use crate::symbol::Symbol;
use crate::term::{Substitution, Term};
use crate::value::Value;

/// A (safe, normalized) conjunctive query, optionally parameterized.
///
/// `head` is the head atom `Name(t1,…,tk)`; `body` is a conjunction of
/// relational atoms (equalities from the surface syntax have been
/// substituted away by [`ConjunctiveQuery::normalized`]); `params` are the
/// λ-variables, each of which must occur in the head.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConjunctiveQuery {
    /// Head atom: output predicate name and output terms.
    pub head: Atom,
    /// Body atoms (relational only, after normalization).
    pub body: Vec<Atom>,
    /// λ-parameters, in declaration order.
    pub params: Vec<Symbol>,
}

impl ConjunctiveQuery {
    /// Creates a query and validates it; equalities must already be gone.
    pub fn new(head: Atom, body: Vec<Atom>, params: Vec<Symbol>) -> Result<Self, CqError> {
        let q = ConjunctiveQuery { head, body, params };
        q.validate()?;
        Ok(q)
    }

    /// Creates a query from surface-syntax literals, eliminating equalities.
    ///
    /// Equality handling (standard CQ normalization):
    /// * `X = c` substitutes `c` for `X` everywhere (including the head);
    /// * `X = Y` unifies the two variables;
    /// * `c = c` is dropped; `c = d` with `c ≠ d` makes the query
    ///   unsatisfiable, which is reported as an error.
    pub fn normalized(
        head: Atom,
        body: Vec<Literal>,
        params: Vec<Symbol>,
    ) -> Result<Self, CqError> {
        let mut subst = Substitution::new();
        let mut atoms: Vec<Atom> = Vec::with_capacity(body.len());
        // Two passes: first collect equality constraints into a substitution,
        // then apply it to head, atoms and parameters.
        for lit in &body {
            if let Literal::Eq(l, r) = lit {
                let l = subst.apply_term(l);
                let r = subst.apply_term(r);
                match (l, r) {
                    (Term::Var(v), t) | (t, Term::Var(v)) => {
                        if Term::Var(v.clone()) != t {
                            subst.bind(v, t);
                            subst.resolve();
                        }
                    }
                    (Term::Const(a), Term::Const(b)) => {
                        if a != b {
                            return Err(CqError::Unsatisfiable {
                                left: a.to_string(),
                                right: b.to_string(),
                            });
                        }
                    }
                }
            }
        }
        for lit in body {
            if let Literal::Atom(a) = lit {
                atoms.push(a.apply(&subst));
            }
        }
        let head = head.apply(&subst);
        // A λ-parameter substituted by a constant disappears (it is pinned);
        // one renamed to another variable follows the renaming.
        let params = params
            .into_iter()
            .filter_map(|p| match subst.apply_term(&Term::Var(p.clone())) {
                Term::Var(v) => Some(v),
                Term::Const(_) => None,
            })
            .collect();
        Self::new(head, atoms, params)
    }

    /// Checks safety and parameter well-formedness.
    ///
    /// * Every head **variable** must occur in the body (range restriction) —
    ///   unless the body is empty, in which case the head must be ground
    ///   (constant queries arise from unparameterized citation queries such
    ///   as `CV2(D) :- D = "IUPHAR/BPS …"`).
    /// * Every λ-parameter must occur in the head (the paper requires
    ///   "parameters must appear in the head").
    pub fn validate(&self) -> Result<(), CqError> {
        let body_vars = self.body_var_set();
        for v in self.head.vars() {
            if !body_vars.contains(v) {
                return Err(CqError::UnsafeHeadVar {
                    query: self.head.predicate.to_string(),
                    var: v.to_string(),
                });
            }
        }
        let head_vars: BTreeSet<&Symbol> = self.head.vars().collect();
        for p in &self.params {
            if !head_vars.contains(p) {
                return Err(CqError::ParamNotInHead {
                    query: self.head.predicate.to_string(),
                    param: p.to_string(),
                });
            }
        }
        let mut seen = BTreeSet::new();
        for p in &self.params {
            if !seen.insert(p) {
                return Err(CqError::DuplicateParam {
                    query: self.head.predicate.to_string(),
                    param: p.to_string(),
                });
            }
        }
        Ok(())
    }

    /// The query's name (head predicate).
    pub fn name(&self) -> &Symbol {
        &self.head.predicate
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.head.arity()
    }

    /// True when the query has λ-parameters.
    pub fn is_parameterized(&self) -> bool {
        !self.params.is_empty()
    }

    /// True when the body is empty (a constant query).
    pub fn is_constant(&self) -> bool {
        self.body.is_empty()
    }

    /// All distinct variables of the query, head first then body, in first
    /// occurrence order.
    pub fn vars(&self) -> Vec<Symbol> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for v in self
            .head
            .vars()
            .chain(self.body.iter().flat_map(|a| a.vars()))
        {
            if seen.insert(v.clone()) {
                out.push(v.clone());
            }
        }
        out
    }

    /// Set of variables occurring in the body.
    pub fn body_var_set(&self) -> BTreeSet<Symbol> {
        self.body.iter().flat_map(|a| a.vars().cloned()).collect()
    }

    /// Set of variables occurring in the head (the *distinguished* vars).
    pub fn head_var_set(&self) -> BTreeSet<Symbol> {
        self.head.vars().cloned().collect()
    }

    /// Variables occurring in the body but not the head (*existential*).
    pub fn existential_vars(&self) -> BTreeSet<Symbol> {
        let head = self.head_var_set();
        self.body_var_set()
            .into_iter()
            .filter(|v| !head.contains(v))
            .collect()
    }

    /// Positions of each λ-parameter in the head term list.
    ///
    /// Returns `(param, first head position)` pairs; validated queries are
    /// guaranteed to find every parameter.
    pub fn param_positions(&self) -> Vec<(Symbol, usize)> {
        self.params
            .iter()
            .map(|p| {
                let pos = self
                    .head
                    .terms
                    .iter()
                    .position(|t| t.as_var() == Some(p))
                    .expect("validated query: param occurs in head");
                (p.clone(), pos)
            })
            .collect()
    }

    /// Set of predicate names used in the body.
    pub fn predicates(&self) -> BTreeSet<Symbol> {
        self.body.iter().map(|a| a.predicate.clone()).collect()
    }

    /// Applies a substitution to head and body (parameters follow variable
    /// renamings and are dropped when instantiated to constants).
    pub fn apply(&self, s: &Substitution) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: self.head.apply(s),
            body: self.body.iter().map(|a| a.apply(s)).collect(),
            params: self
                .params
                .iter()
                .filter_map(|p| match s.apply_term(&Term::Var(p.clone())) {
                    Term::Var(v) => Some(v),
                    Term::Const(_) => None,
                })
                .collect(),
        }
    }

    /// Returns a variant of the query whose variables are all suffixed with
    /// `_{n}`, guaranteeing disjointness from any query that has not been
    /// renamed with the same `n`.
    pub fn rename_apart(&self, n: usize) -> ConjunctiveQuery {
        let s = Substitution::from_pairs(
            self.vars()
                .into_iter()
                .map(|v| (v.clone(), Term::Var(v.with_suffix(n)))),
        );
        self.apply(&s)
    }

    /// Canonical α-renaming: variables are renamed to `X0, X1, …` in first
    /// occurrence order (head first), and body atoms are sorted. Two queries
    /// that are syntactically identical up to variable names and body-atom
    /// order have equal canonical forms.
    pub fn canonical(&self) -> ConjunctiveQuery {
        let mut mapping: BTreeMap<Symbol, Term> = BTreeMap::new();
        for (i, v) in self.vars().into_iter().enumerate() {
            mapping.insert(v, Term::Var(Symbol::new(format!("X{i}"))));
        }
        let s = Substitution::from_pairs(mapping);
        let mut q = self.apply(&s);
        q.body.sort();
        q
    }

    /// Instantiates λ-parameters with the given values, producing an
    /// unparameterized query (the paper's `CV(p1,…,pn)` notation).
    pub fn instantiate(&self, values: &[Value]) -> Result<ConjunctiveQuery, CqError> {
        if values.len() != self.params.len() {
            return Err(CqError::ParamArity {
                query: self.name().to_string(),
                expected: self.params.len(),
                got: values.len(),
            });
        }
        let s = Substitution::from_pairs(
            self.params
                .iter()
                .cloned()
                .zip(values.iter().cloned().map(Term::Const)),
        );
        Ok(self.apply(&s))
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.params.is_empty() {
            write!(f, "λ ")?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ". ")?;
        }
        write!(f, "{} :- ", self.head)?;
        if self.body.is_empty() {
            write!(f, "true")?;
        } else {
            for (i, a) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    fn family_v1() -> ConjunctiveQuery {
        // λ FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)
        ConjunctiveQuery::new(
            Atom::new("V1", vec![v("FID"), v("FName"), v("Desc")]),
            vec![Atom::new("Family", vec![v("FID"), v("FName"), v("Desc")])],
            vec![Symbol::new("FID")],
        )
        .unwrap()
    }

    #[test]
    fn paper_view_v1_is_well_formed() {
        let q = family_v1();
        assert!(q.is_parameterized());
        assert_eq!(q.arity(), 3);
        assert_eq!(q.param_positions(), vec![(Symbol::new("FID"), 0)]);
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let e = ConjunctiveQuery::new(
            Atom::new("Q", vec![v("X"), v("Y")]),
            vec![Atom::new("R", vec![v("X")])],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(e, CqError::UnsafeHeadVar { .. }));
    }

    #[test]
    fn param_must_be_in_head() {
        let e = ConjunctiveQuery::new(
            Atom::new("Q", vec![v("X")]),
            vec![Atom::new("R", vec![v("X"), v("Y")])],
            vec![Symbol::new("Y")],
        )
        .unwrap_err();
        assert!(matches!(e, CqError::ParamNotInHead { .. }));
    }

    #[test]
    fn duplicate_param_rejected() {
        let e = ConjunctiveQuery::new(
            Atom::new("Q", vec![v("X")]),
            vec![Atom::new("R", vec![v("X")])],
            vec![Symbol::new("X"), Symbol::new("X")],
        )
        .unwrap_err();
        assert!(matches!(e, CqError::DuplicateParam { .. }));
    }

    #[test]
    fn normalization_eliminates_var_const_equality() {
        // CV2(D) :- D = "IUPHAR"  →  CV2("IUPHAR") :- true
        let q = ConjunctiveQuery::normalized(
            Atom::new("CV2", vec![v("D")]),
            vec![Literal::Eq(v("D"), Term::constant("IUPHAR"))],
            vec![],
        )
        .unwrap();
        assert!(q.is_constant());
        assert_eq!(q.head.terms, vec![Term::constant("IUPHAR")]);
    }

    #[test]
    fn normalization_unifies_var_var_equality() {
        let q = ConjunctiveQuery::normalized(
            Atom::new("Q", vec![v("X")]),
            vec![
                Literal::Atom(Atom::new("R", vec![v("X"), v("Y")])),
                Literal::Eq(v("X"), v("Y")),
            ],
            vec![],
        )
        .unwrap();
        assert_eq!(q.body.len(), 1);
        let a = &q.body[0];
        assert_eq!(a.terms[0], a.terms[1]);
    }

    #[test]
    fn normalization_detects_unsatisfiable() {
        let e = ConjunctiveQuery::normalized(
            Atom::new("Q", vec![]),
            vec![Literal::Eq(Term::constant(1), Term::constant(2))],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(e, CqError::Unsatisfiable { .. }));
    }

    #[test]
    fn normalization_pins_param_to_constant() {
        // λ FID. V(FID, N) :- Family(FID, N), FID = 11 — parameter pinned.
        let q = ConjunctiveQuery::normalized(
            Atom::new("V", vec![v("FID"), v("N")]),
            vec![
                Literal::Atom(Atom::new("Family", vec![v("FID"), v("N")])),
                Literal::Eq(v("FID"), Term::constant(11)),
            ],
            vec![Symbol::new("FID")],
        )
        .unwrap();
        assert!(!q.is_parameterized());
        assert_eq!(q.head.terms[0], Term::constant(11));
    }

    #[test]
    fn var_classification() {
        let q = ConjunctiveQuery::new(
            Atom::new("Q", vec![v("X")]),
            vec![
                Atom::new("R", vec![v("X"), v("Y")]),
                Atom::new("S", vec![v("Y"), v("Z")]),
            ],
            vec![],
        )
        .unwrap();
        assert_eq!(q.head_var_set().len(), 1);
        assert_eq!(q.existential_vars().len(), 2);
        assert_eq!(q.vars().len(), 3);
    }

    #[test]
    fn rename_apart_produces_disjoint_vars() {
        let q = family_v1();
        let r = q.rename_apart(7);
        let qv = q.body_var_set();
        for rv in r.body_var_set() {
            assert!(!qv.contains(&rv), "{rv} not renamed");
        }
        assert_eq!(r.params, vec![Symbol::new("FID_7")]);
    }

    #[test]
    fn canonical_is_alpha_invariant() {
        let q1 = family_v1();
        let s = Substitution::from_pairs([
            ("FID", Term::var("A")),
            ("FName", Term::var("B")),
            ("Desc", Term::var("C")),
        ]);
        let q2 = q1.apply(&s);
        assert_eq!(q1.canonical(), q2.canonical());
    }

    #[test]
    fn instantiate_replaces_params() {
        let q = family_v1();
        let i = q.instantiate(&[Value::int(11)]).unwrap();
        assert!(!i.is_parameterized());
        assert_eq!(i.head.terms[0], Term::constant(11));
        assert_eq!(i.body[0].terms[0], Term::constant(11));
        assert!(q.instantiate(&[]).is_err());
    }

    #[test]
    fn display_round_shape() {
        let q = family_v1();
        assert_eq!(
            q.to_string(),
            "λ FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)"
        );
    }
}
