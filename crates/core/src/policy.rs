//! Combination policies for the citation algebra.
//!
//! §2: "The abstract functions `·`, `+`, `+R` and `Agg` are policies to be
//! specified by the database owner. … For `·`, `+` and `Agg`, union or
//! join are natural. For `+R`, the 'minimum' in some ordering would also be
//! natural", with *estimated citation size* as the ordering in the paper's
//! closing example. The defaults here reproduce exactly that example:
//! union everywhere, minimum size across rewritings.

use std::collections::BTreeSet;

use crate::expr::CiteExpr;

/// Interpretation of `·` (joint use within one binding).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum JointPolicy {
    /// Keep the contributing view citations as separate snippets.
    #[default]
    Union,
    /// Merge the contributing snippets' fields into a single snippet.
    Join,
}

/// Interpretation of `+` (alternatives across bindings).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AltPolicy {
    /// Keep every alternative (union of citation sets).
    #[default]
    Union,
    /// Keep only the first alternative (deterministic: bindings are
    /// sorted).
    First,
}

/// Interpretation of `+R` (alternatives across rewritings).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RewritePolicy {
    /// Choose the rewriting with the smallest estimated citation size for
    /// the whole answer (the paper's closing example).
    #[default]
    MinSize,
    /// Keep citations from every rewriting.
    Union,
    /// Use the first rewriting (deterministic order).
    First,
}

/// Interpretation of `Agg` (combining the citations of all answer tuples).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AggPolicy {
    /// Union of all per-tuple citations (the paper's example).
    #[default]
    Union,
    /// No aggregate citation; only per-tuple citations are produced.
    PerTupleOnly,
}

/// The owner's policy choices.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PolicySet {
    /// Interpretation of `·`.
    pub joint: JointPolicy,
    /// Interpretation of `+`.
    pub alt: AltPolicy,
    /// Interpretation of `+R`.
    pub rewritings: RewritePolicy,
    /// Interpretation of `Agg`.
    pub agg: AggPolicy,
}

impl PolicySet {
    /// The paper's policy from the closing example: union for `·`, `+`,
    /// `Agg`; minimum estimated size for `+R`.
    pub fn paper_default() -> Self {
        Self::default()
    }
}

/// The `+R` choice made for a whole answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RewritingChoice {
    /// Use this rewriting branch index everywhere.
    Index(usize),
    /// Union the branches.
    All,
}

/// Applies the `+R` policy **globally** over the whole answer: the paper
/// estimates citation size per rewriting for the entire result ("the
/// estimated size of the citation using Q1 would therefore be proportional
/// to the size of Family"), so the choice must be made across tuples, not
/// per tuple.
///
/// `per_tuple_branches[t][r]` is the citation expression of tuple `t` under
/// rewriting `r` (all tuples have the same number of branches). The atom
/// type is generic: the size of a branch is its number of distinct atoms,
/// whatever stands for them.
pub fn choose_rewriting<A: Ord>(
    policy: RewritePolicy,
    per_tuple_branches: &[Vec<CiteExpr<A>>],
) -> RewritingChoice {
    match policy {
        RewritePolicy::Union => RewritingChoice::All,
        RewritePolicy::First => RewritingChoice::Index(0),
        RewritePolicy::MinSize => {
            let n = per_tuple_branches.first().map_or(0, Vec::len);
            if n == 0 {
                return RewritingChoice::Index(0);
            }
            let mut best = 0usize;
            let mut best_size = usize::MAX;
            let mut atoms: Vec<&A> = Vec::new();
            for r in 0..n {
                atoms.clear();
                for branches in per_tuple_branches {
                    branches[r].collect_atoms(&mut atoms);
                }
                atoms.sort_unstable();
                atoms.dedup();
                if atoms.len() < best_size {
                    best_size = atoms.len();
                    best = r;
                }
            }
            RewritingChoice::Index(best)
        }
    }
}

/// Interprets one tuple's branches under the already-made `+R` choice and
/// the `+` policy, yielding the set of citation atoms to render.
pub fn atoms_for_tuple<A: Clone + Ord>(
    policies: &PolicySet,
    branches: &[CiteExpr<A>],
    choice: RewritingChoice,
) -> BTreeSet<A> {
    let exprs: Vec<&CiteExpr<A>> = match choice {
        RewritingChoice::All => branches.iter().collect(),
        RewritingChoice::Index(i) => branches.get(i).into_iter().collect(),
    };
    let mut out = BTreeSet::new();
    for e in exprs {
        collect(policies, e, &mut out);
    }
    out
}

/// Recursive interpretation of a (normalized) expression under `+`/`·`.
fn collect<A: Clone + Ord>(policies: &PolicySet, e: &CiteExpr<A>, out: &mut BTreeSet<A>) {
    match e {
        CiteExpr::Atom(a) => {
            out.insert(a.clone());
        }
        CiteExpr::Prod(cs) => {
            // `·` always contributes all factors; Union vs Join differs at
            // snippet-rendering time (separate vs merged snippets).
            for c in cs {
                collect(policies, c, out);
            }
        }
        CiteExpr::Sum(cs) => match policies.alt {
            AltPolicy::Union => {
                for c in cs {
                    collect(policies, c, out);
                }
            }
            AltPolicy::First => {
                if let Some(first) = cs.first() {
                    collect(policies, first, out);
                }
            }
        },
        CiteExpr::AltR(cs) => {
            // An inner +R only appears if the caller skipped global
            // resolution; treat it like +.
            for c in cs {
                collect(policies, c, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CiteAtom;
    use citesys_cq::Value;

    fn cv(view: &str, params: Vec<i64>) -> CiteExpr {
        CiteExpr::Atom(CiteAtom::new(
            view,
            params.into_iter().map(Value::Int).collect(),
        ))
    }

    /// Branches for the paper's Calcitonin tuple:
    /// Q1 branch: CV1(11)·CV3 + CV1(12)·CV3; Q2 branch: CV2·CV3.
    fn paper_branches() -> Vec<CiteExpr> {
        vec![
            CiteExpr::sum(vec![
                CiteExpr::prod(vec![cv("V1", vec![11]), cv("V3", vec![])]),
                CiteExpr::prod(vec![cv("V1", vec![12]), cv("V3", vec![])]),
            ]),
            CiteExpr::prod(vec![cv("V2", vec![]), cv("V3", vec![])]),
        ]
    }

    #[test]
    fn min_size_picks_q2() {
        // The paper: "The final citation for Q would therefore be … the one
        // using Q2 (CV2·CV3)".
        let choice = choose_rewriting(RewritePolicy::MinSize, &[paper_branches()]);
        assert_eq!(choice, RewritingChoice::Index(1));
        let atoms = atoms_for_tuple(&PolicySet::default(), &paper_branches(), choice);
        let names: Vec<String> = atoms.iter().map(ToString::to_string).collect();
        assert_eq!(names, vec!["CV2", "CV3"]);
    }

    #[test]
    fn union_keeps_everything() {
        let choice = choose_rewriting(RewritePolicy::Union, &[paper_branches()]);
        assert_eq!(choice, RewritingChoice::All);
        let atoms = atoms_for_tuple(&PolicySet::default(), &paper_branches(), choice);
        assert_eq!(atoms.len(), 4); // CV1(11), CV1(12), CV2, CV3
    }

    #[test]
    fn first_rewriting_policy() {
        let choice = choose_rewriting(RewritePolicy::First, &[paper_branches()]);
        assert_eq!(choice, RewritingChoice::Index(0));
        let atoms = atoms_for_tuple(&PolicySet::default(), &paper_branches(), choice);
        assert_eq!(atoms.len(), 3); // CV1(11), CV1(12), CV3
    }

    #[test]
    fn alt_first_takes_first_binding() {
        let policies = PolicySet {
            alt: AltPolicy::First,
            ..Default::default()
        };
        let atoms = atoms_for_tuple(&policies, &paper_branches(), RewritingChoice::Index(0));
        // Only the first binding's product: CV1(11)·CV3.
        assert_eq!(atoms.len(), 2);
        assert!(atoms.iter().any(|a| a.to_string() == "CV1(11)"));
    }

    #[test]
    fn min_size_is_global_across_tuples() {
        // Tuple 1: parameterized branch has 2 atoms, constant branch 1.
        // Tuple 2: parameterized branch has 2 *new* atoms, constant branch
        // reuses the same atom ⇒ globally constant branch wins even though
        // per-tuple sizes tie at first sight.
        let t1 = vec![
            CiteExpr::prod(vec![cv("P", vec![1]), cv("X", vec![])]),
            cv("K", vec![]),
        ];
        let t2 = vec![
            CiteExpr::prod(vec![cv("P", vec![2]), cv("X", vec![])]),
            cv("K", vec![]),
        ];
        let choice = choose_rewriting(RewritePolicy::MinSize, &[t1, t2]);
        assert_eq!(choice, RewritingChoice::Index(1));
    }

    #[test]
    fn min_size_tie_prefers_lower_index() {
        let t = vec![cv("A", vec![]), cv("B", vec![])];
        assert_eq!(
            choose_rewriting(RewritePolicy::MinSize, &[t]),
            RewritingChoice::Index(0)
        );
    }

    #[test]
    fn empty_answer_defaults() {
        assert_eq!(
            choose_rewriting::<CiteAtom>(RewritePolicy::MinSize, &[]),
            RewritingChoice::Index(0)
        );
        let atoms =
            atoms_for_tuple::<CiteAtom>(&PolicySet::default(), &[], RewritingChoice::Index(0));
        assert!(atoms.is_empty());
    }
}
