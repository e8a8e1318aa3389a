//! Symbolic citation expressions — the paper's citation algebra.
//!
//! A citation for an output tuple is built from three levels of structure
//! (§2, Definitions 2.1 and 2.2):
//!
//! * `·` — **joint** use of view citations within a single binding of a
//!   single rewriting (`FV1(CV1(B1)) · … · FVn(CVn(Bn))`),
//! * `+` — **alternative** citations from multiple bindings yielding the
//!   same tuple,
//! * `+R` — alternatives across different rewritings (kept distinct from
//!   `+` because the combination policy may differ, e.g. minimum size).
//!
//! Expressions are kept *symbolic* and interpreted later under
//! owner-specified policies ([`crate::policy`]); this mirrors the paper's
//! observation that the semantics is a formal object, "not a means of
//! computation".
//!
//! The structure, as `crates/core/tests/proptests.rs` checks it:
//! [`CiteExpr::normalize`] is idempotent; `sum` and `prod` are
//! commutative, associative and idempotent monoids with identities
//! [`CiteExpr::zero`] and [`CiteExpr::one`]; `alt_r` is associative and
//! idempotent but keeps rewriting order, so it is not commutative. Under
//! the paper's union policy both `·` and `+` read as set union of atoms:
//! the interpretation is a homomorphism onto (atom sets, ∪, ∅), `·`
//! distributes over `+`, and [`CiteExpr::estimated_size`] is the size of
//! the interpretation. It is not a semiring: `0` and `1` both read as ∅,
//! so nothing annihilates (`a·0` reads as `a`), and under `AltPolicy::First`
//! distributivity fails.
//!
//! [`CiteExpr`] is generic over its atom type. The public type is
//! `CiteExpr<CiteAtom>`; the engine annotates with `CiteExpr<u32>`, where
//! each id stands for one distinct atom of a cite and id order equals atom
//! order, so both instances have the same normal forms.

use std::collections::BTreeSet;
use std::fmt;

use citesys_cq::{Symbol, Value};

/// A citation atom `CV(p1, …, pn)`: a view's citation instantiated at
/// specific parameter values (empty for unparameterized views).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CiteAtom {
    /// The view whose citation this is.
    pub view: Symbol,
    /// λ-parameter values, in declaration order.
    pub params: Vec<Value>,
}

impl CiteAtom {
    /// Builds an atom.
    pub fn new(view: impl Into<Symbol>, params: Vec<Value>) -> Self {
        CiteAtom {
            view: view.into(),
            params,
        }
    }
}

impl fmt::Display for CiteAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.view)?;
        if !self.params.is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A symbolic citation expression over atoms of type `A`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CiteExpr<A = CiteAtom> {
    /// A view citation instance.
    Atom(A),
    /// Joint use (`·`) — one binding's view citations.
    Prod(Vec<CiteExpr<A>>),
    /// Alternatives (`+`) — multiple bindings.
    Sum(Vec<CiteExpr<A>>),
    /// Alternatives across rewritings (`+R`).
    AltR(Vec<CiteExpr<A>>),
}

impl<A> CiteExpr<A> {
    /// The empty alternative (no derivation — identity of `+`).
    pub fn zero() -> Self {
        CiteExpr::Sum(Vec::new())
    }

    /// The empty joint combination (identity of `·`).
    pub fn one() -> Self {
        CiteExpr::Prod(Vec::new())
    }

    /// Replaces every atom by `f(atom)`, keeping the structure as it is.
    /// The result is in normal form again only if `f` is injective and
    /// keeps atom order.
    pub fn map<B>(self, f: &mut impl FnMut(A) -> B) -> CiteExpr<B> {
        match self {
            CiteExpr::Atom(a) => CiteExpr::Atom(f(a)),
            CiteExpr::Prod(cs) => CiteExpr::Prod(cs.into_iter().map(|c| c.map(f)).collect()),
            CiteExpr::Sum(cs) => CiteExpr::Sum(cs.into_iter().map(|c| c.map(f)).collect()),
            CiteExpr::AltR(cs) => CiteExpr::AltR(cs.into_iter().map(|c| c.map(f)).collect()),
        }
    }

    /// The alternatives under `+R` (a single-rewriting expression is one
    /// alternative).
    pub fn rewriting_branches(&self) -> Vec<&CiteExpr<A>> {
        match self {
            CiteExpr::AltR(cs) => cs.iter().collect(),
            other => vec![other],
        }
    }

    /// Adds every atom occurrence of the expression to `out`.
    pub(crate) fn collect_atoms<'a>(&'a self, out: &mut impl Extend<&'a A>) {
        match self {
            CiteExpr::Atom(a) => out.extend([a]),
            CiteExpr::Prod(cs) | CiteExpr::Sum(cs) | CiteExpr::AltR(cs) => {
                for c in cs {
                    c.collect_atoms(out);
                }
            }
        }
    }
}

impl<A: Clone + Ord> CiteExpr<A> {
    /// Builds a normalized joint combination.
    pub fn prod(children: Vec<CiteExpr<A>>) -> Self {
        CiteExpr::Prod(children).normalize()
    }

    /// Builds a normalized alternative combination.
    pub fn sum(children: Vec<CiteExpr<A>>) -> Self {
        CiteExpr::Sum(children).normalize()
    }

    /// Builds a normalized across-rewritings combination.
    pub fn alt_r(children: Vec<CiteExpr<A>>) -> Self {
        CiteExpr::AltR(children).normalize()
    }

    /// Normalizes the expression:
    /// * nested `Prod`/`Sum`/`AltR` of the same kind are flattened,
    /// * children of `Prod` and `Sum` are sorted and deduplicated (both
    ///   operators are associative, commutative and idempotent under the
    ///   union-style interpretations the paper suggests),
    /// * `AltR` children are deduplicated but keep rewriting order,
    /// * single-child combinations unwrap.
    pub fn normalize(&self) -> CiteExpr<A> {
        match self {
            CiteExpr::Atom(_) => self.clone(),
            CiteExpr::Prod(cs) => {
                let mut flat = Vec::new();
                for c in cs {
                    match c.normalize() {
                        CiteExpr::Prod(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                flat.sort();
                flat.dedup();
                if flat.len() == 1 {
                    flat.pop().expect("len checked")
                } else {
                    CiteExpr::Prod(flat)
                }
            }
            CiteExpr::Sum(cs) => {
                let mut flat = Vec::new();
                for c in cs {
                    match c.normalize() {
                        CiteExpr::Sum(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                flat.sort();
                flat.dedup();
                if flat.len() == 1 {
                    flat.pop().expect("len checked")
                } else {
                    CiteExpr::Sum(flat)
                }
            }
            CiteExpr::AltR(cs) => {
                let mut flat = Vec::new();
                for c in cs {
                    let n = c.normalize();
                    match n {
                        CiteExpr::AltR(inner) => {
                            for i in inner {
                                if !flat.contains(&i) {
                                    flat.push(i);
                                }
                            }
                        }
                        other => {
                            if !flat.contains(&other) {
                                flat.push(other);
                            }
                        }
                    }
                }
                if flat.len() == 1 {
                    flat.pop().expect("len checked")
                } else {
                    CiteExpr::AltR(flat)
                }
            }
        }
    }
}

impl<A: Ord> CiteExpr<A> {
    /// All distinct citation atoms in the expression.
    pub fn atoms(&self) -> BTreeSet<&A> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    /// Estimated size of the final citation under union-style
    /// interpretations: the number of distinct citation atoms. This is the
    /// paper's size estimate ("the estimated size of the citation using Q1
    /// would be proportional to the size of Family, whereas … Q2 would
    /// be 1").
    pub fn estimated_size(&self) -> usize {
        self.atoms().len()
    }
}

impl From<CiteAtom> for CiteExpr {
    fn from(a: CiteAtom) -> Self {
        CiteExpr::Atom(a)
    }
}

impl<A: fmt::Display> fmt::Display for CiteExpr<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go<A: fmt::Display>(
            e: &CiteExpr<A>,
            f: &mut fmt::Formatter<'_>,
            parent: u8,
        ) -> fmt::Result {
            // Precedence: Atom (3) > Prod (2) > Sum (1) > AltR (0).
            let (prec, sep, cs): (u8, &str, &[CiteExpr<A>]) = match e {
                CiteExpr::Atom(a) => return write!(f, "{a}"),
                CiteExpr::Prod(cs) => (2, "·", cs),
                CiteExpr::Sum(cs) => (1, " + ", cs),
                CiteExpr::AltR(cs) => (0, " +R ", cs),
            };
            if cs.is_empty() {
                return match e {
                    CiteExpr::Prod(_) => write!(f, "1"),
                    _ => write!(f, "0"),
                };
            }
            let need_parens = prec < parent;
            if need_parens {
                write!(f, "(")?;
            }
            // +R alternatives are fully parenthesized when composite, the
            // way the paper writes `(…) +R (CV2·CV3)`.
            let child_parent = if matches!(e, CiteExpr::AltR(_)) {
                3
            } else {
                prec + 1
            };
            for (i, c) in cs.iter().enumerate() {
                if i > 0 {
                    write!(f, "{sep}")?;
                }
                go(c, f, child_parent)?;
            }
            if need_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(view: &str, params: Vec<i64>) -> CiteExpr {
        CiteExpr::Atom(CiteAtom::new(
            view,
            params.into_iter().map(Value::Int).collect(),
        ))
    }

    /// Builds the paper's final expression for the Calcitonin tuple:
    /// `(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)`.
    fn paper_expr() -> CiteExpr {
        let q1 = CiteExpr::sum(vec![
            CiteExpr::prod(vec![cv("V1", vec![11]), cv("V3", vec![])]),
            CiteExpr::prod(vec![cv("V1", vec![12]), cv("V3", vec![])]),
        ]);
        let q2 = CiteExpr::prod(vec![cv("V2", vec![]), cv("V3", vec![])]);
        CiteExpr::alt_r(vec![q1, q2])
    }

    #[test]
    fn paper_expression_renders() {
        assert_eq!(
            paper_expr().to_string(),
            "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)"
        );
    }

    #[test]
    fn normalization_flattens_and_sorts() {
        let e = CiteExpr::Prod(vec![
            cv("B", vec![]),
            CiteExpr::Prod(vec![cv("A", vec![]), cv("B", vec![])]),
        ])
        .normalize();
        assert_eq!(e.to_string(), "CA·CB");
    }

    #[test]
    fn idempotent_operators_dedupe() {
        let e = CiteExpr::sum(vec![cv("A", vec![]), cv("A", vec![])]);
        assert_eq!(e, cv("A", vec![]));
        let p = CiteExpr::prod(vec![cv("A", vec![]), cv("A", vec![])]);
        assert_eq!(p, cv("A", vec![]));
    }

    #[test]
    fn singletons_unwrap() {
        let e = CiteExpr::Sum(vec![cv("A", vec![1])]).normalize();
        assert_eq!(e, cv("A", vec![1]));
        let r = CiteExpr::AltR(vec![cv("A", vec![1])]).normalize();
        assert_eq!(r, cv("A", vec![1]));
    }

    #[test]
    fn altr_keeps_rewriting_order() {
        let e = CiteExpr::alt_r(vec![cv("Z", vec![]), cv("A", vec![])]);
        assert_eq!(e.to_string(), "CZ +R CA");
    }

    #[test]
    fn atoms_and_size() {
        let e = paper_expr();
        let atoms = e.atoms();
        // CV1(11), CV1(12), CV3, CV2 — four distinct atoms.
        assert_eq!(atoms.len(), 4);
        assert_eq!(e.estimated_size(), 4);
        // The Q2 branch alone has estimated size 2 (CV2, CV3).
        let branches = e.rewriting_branches();
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].estimated_size(), 3); // CV1(11), CV1(12), CV3
        assert_eq!(branches[1].estimated_size(), 2); // CV2, CV3
    }

    #[test]
    fn identities_render() {
        assert_eq!(CiteExpr::<CiteAtom>::zero().to_string(), "0");
        assert_eq!(CiteExpr::<CiteAtom>::one().to_string(), "1");
    }

    #[test]
    fn parenthesization_by_precedence() {
        // Sum inside Prod needs parens.
        let e = CiteExpr::Prod(vec![
            CiteExpr::Sum(vec![cv("A", vec![]), cv("B", vec![])]),
            cv("C", vec![]),
        ]);
        assert_eq!(e.to_string(), "(CA + CB)·CC");
        // Prod inside Sum does not.
        let e = CiteExpr::Sum(vec![
            CiteExpr::Prod(vec![cv("A", vec![]), cv("B", vec![])]),
            cv("C", vec![]),
        ]);
        assert_eq!(e.to_string(), "CA·CB + CC");
    }

    #[test]
    fn nested_altr_flattens_without_reordering() {
        let inner = CiteExpr::AltR(vec![cv("B", vec![]), cv("C", vec![])]);
        let e = CiteExpr::alt_r(vec![cv("A", vec![]), inner]);
        assert_eq!(e.to_string(), "CA +R CB +R CC");
    }

    #[test]
    fn multi_param_atom_displays() {
        let a = CiteAtom::new("V", vec![Value::Int(1), Value::text("x")]);
        assert_eq!(a.to_string(), "CV(1, x)");
    }
}
