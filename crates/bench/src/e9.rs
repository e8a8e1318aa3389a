//! E9 — cost of the citation algebra itself: building and normalizing
//! large symbolic expressions, and interpreting them under the served
//! policies (§2's `+R` choice and per-tuple `·`/`+` interpretation).

use citesys_core::policy::{atoms_for_tuple, choose_rewriting};
use citesys_core::{CiteAtom, CiteExpr, PolicySet, RewritePolicy, RewritingChoice};
use citesys_cq::Value;

use crate::table::{timed, us, Table};

/// Builds a sum of `n` two-factor products (the shape Definition 2.2
/// produces for a tuple with `n` bindings).
pub fn binding_sum(n: usize) -> CiteExpr {
    let summands: Vec<CiteExpr> = (0..n)
        .map(|i| {
            CiteExpr::Prod(vec![
                CiteExpr::Atom(CiteAtom::new("V1", vec![Value::Int(i as i64)])),
                CiteExpr::Atom(CiteAtom::new("V3", vec![])),
            ])
        })
        .collect();
    CiteExpr::Sum(summands)
}

/// An `n`-row × 2-branch matrix in the paper's Q1/Q2 shape: branch 0
/// cites a parameterized view per row (`CV1(i)·CV3`), branch 1 the same
/// constant views on every row (`CV2·CV3`).
pub fn branch_matrix(n: usize) -> Vec<Vec<CiteExpr>> {
    let atom = |view: &str, params: Vec<Value>| CiteExpr::Atom(CiteAtom::new(view, params));
    (0..n)
        .map(|i| {
            vec![
                CiteExpr::prod(vec![
                    atom("V1", vec![Value::Int(i as i64)]),
                    atom("V3", vec![]),
                ]),
                CiteExpr::prod(vec![atom("V2", vec![]), atom("V3", vec![])]),
            ]
        })
        .collect()
}

/// Builds the E9 table.
pub fn table(quick: bool) -> Table {
    let sizes: &[usize] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let policies = PolicySet::paper_default();
    let mut rows = Vec::new();
    for &n in sizes {
        let raw = binding_sum(n);
        let (normalized, norm_t) = timed(|| raw.normalize());
        let (size, size_t) = timed(|| normalized.estimated_size());
        let matrix = branch_matrix(n);
        let (choice, choose_t) = timed(|| choose_rewriting(RewritePolicy::MinSize, &matrix));
        let (_, atoms_t) = timed(|| {
            for branches in &matrix {
                std::hint::black_box(atoms_for_tuple(&policies, branches, choice));
            }
        });
        let chosen = match choice {
            RewritingChoice::Index(i) => i.to_string(),
            RewritingChoice::All => "all".into(),
        };
        rows.push(vec![
            n.to_string(),
            us(norm_t),
            size.to_string(),
            us(size_t),
            chosen,
            us(choose_t),
            us(atoms_t / n as u32),
        ]);
    }
    Table {
        id: "E9",
        title: "Algebra micro-costs: normalization, size estimation, +R choice, per-row interpretation",
        expectation: "normalization ~n log n; estimated size = n+1 distinct atoms; min-size picks the constant branch 1 in time linear in n; per-row interpretation flat in n",
        headers: vec![
            "n bindings / rows".into(),
            "normalize µs".into(),
            "estimated size".into(),
            "size µs".into(),
            "min-size branch".into(),
            "choose µs".into(),
            "atoms/row µs".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_sum_normalizes_to_expected_size() {
        let e = binding_sum(50).normalize();
        // 50 distinct CV1 params + shared CV3.
        assert_eq!(e.estimated_size(), 51);
    }
}
