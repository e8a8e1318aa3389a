//! Compiled conjunctive queries: the evaluator's plan, fixed once per query.
//!
//! [`CompiledQuery::compile`] numbers the body's variables into **slots**,
//! in `Symbol` order, and fixes everything the join loop needs before it
//! touches a tuple:
//!
//! * the **join order**, chosen greedily — the atom with the most bound
//!   positions (constants, or variables bound by an earlier atom) next,
//!   the smaller relation on a tie;
//! * each atom's **probe column**: its first bound position, looked up in
//!   the relation's per-column hash index (an atom with none is scanned);
//! * one **op per body position**, all atoms' ops in one flat list: check
//!   a constant, check a slot bound by an earlier atom, check a position
//!   repeated within the atom, or bind a slot.
//!
//! [`CompiledQuery::run`] joins over flat rows — one row of slot values
//! per partial binding, all rows of a step in one `Vec`. A row refers to
//! the stored values instead of owning copies, so nothing is cloned
//! before the final bindings. The final rows are grouped by output tuple
//! with one sort.
//!
//! Because slots follow `Symbol` order, a row compares exactly as a
//! variable-to-value map in variable order does: the bindings of an answer
//! come out in the same order however the join ran, and so does every
//! citation built from them.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use citesys_cq::{Atom, ConjunctiveQuery, Symbol, Term, Value};

use crate::database::Database;
use crate::error::StorageError;
use crate::eval::{AnswerRow, Binding, QueryAnswer};
use crate::relation::Relation;
use crate::tuple::Tuple;

/// What a slot refers to before its variable is bound. The plan never
/// reads an unbound slot; this only gives the flat rows a fixed width.
static UNBOUND: Value = Value::Bool(false);

/// A conjunctive query compiled against one database: slot-numbered
/// variables, a fixed join order and one op per body position. Run it
/// with [`CompiledQuery::run`]; [`crate::evaluate`] is compile, then run.
///
/// ```
/// use citesys_cq::{parse_query, Symbol, ValueType};
/// use citesys_storage::{plan::CompiledQuery, tuple, Database, RelationSchema};
///
/// let mut db = Database::new();
/// db.create_relation(RelationSchema::from_parts(
///     "E", &[("A", ValueType::Int), ("B", ValueType::Int)], &[])).unwrap();
/// db.insert("E", tuple![1, 2]).unwrap();
/// db.insert("E", tuple![2, 3]).unwrap();
///
/// let q = parse_query("Q(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
/// let plan = CompiledQuery::compile(&db, &q).unwrap();
/// // Slots are numbered in variable order: X, Y, Z.
/// assert_eq!(plan.slot(&Symbol::new("Y")), Some(1));
/// let answer = plan.run();
/// assert_eq!(answer.rows[0].tuple, tuple![1, 3]);
/// assert_eq!(answer.rows[0].bindings[0].values(), tuple![1, 2, 3].values());
/// ```
#[derive(Debug)]
pub struct CompiledQuery<'a> {
    /// The body's variables in `Symbol` order; a variable's slot is its
    /// index here.
    vars: Vec<&'a Symbol>,
    /// The join steps, in the order they run.
    steps: Vec<Step<'a>>,
    /// All ops: each body atom's ops, then the head's.
    ops: Vec<Op<'a>>,
    /// Where the head starts: `ops[head..]` are the head terms.
    head: usize,
}

/// One join step: an atom matched against its relation.
#[derive(Debug)]
struct Step<'a> {
    rel: &'a Relation,
    /// The atom's ops, one per position.
    ops: Range<usize>,
    /// The probed position: its op is a constant or a bound slot, looked
    /// up in the relation's index. `None` scans the relation.
    probe: Option<usize>,
}

/// What one position of an atom, or of the head, does.
#[derive(Debug)]
enum Op<'a> {
    /// The value is this constant.
    Const(&'a Value),
    /// The value is the slot's, bound by an earlier step.
    Bound(usize),
    /// The value must equal the one at this earlier position of the atom.
    Repeat(usize),
    /// The value binds the slot.
    Bind(usize),
    /// A head variable no body atom binds (an unsafe query).
    Unbound(&'a Symbol),
}

impl<'a> Op<'a> {
    /// The value a constant, bound or head op reads from `row`.
    fn value<'r>(&self, row: &[&'r Value]) -> &'r Value
    where
        'a: 'r,
    {
        match self {
            Op::Const(c) => c,
            Op::Bound(s) => row[*s],
            Op::Unbound(v) => {
                panic!("safe query: every head var is bound by the body (`{v}` is not)")
            }
            Op::Repeat(_) | Op::Bind(_) => unreachable!("only fixed positions are read"),
        }
    }

    /// True when the op binds `slot`.
    fn binds(&self, slot: usize) -> bool {
        matches!(self, Op::Bind(s) if *s == slot)
    }
}

/// True when a `placed` step binds `slot`.
fn bound_by(ops: &[Op<'_>], placed: &[Step<'_>], slot: usize) -> bool {
    placed
        .iter()
        .flat_map(|st| &ops[st.ops.clone()])
        .any(|op| op.binds(slot))
}

impl<'a> CompiledQuery<'a> {
    /// Compiles `q` against `db`: checks every body atom's relation and
    /// arity, numbers the variables and fixes the join order.
    pub fn compile(db: &'a Database, q: &'a ConjunctiveQuery) -> Result<Self, StorageError> {
        let arity: usize = q.body.iter().map(Atom::arity).sum();
        let mut vars: Vec<&Symbol> = Vec::with_capacity(arity);
        vars.extend(q.body.iter().flat_map(Atom::vars));
        vars.sort_unstable();
        vars.dedup();
        let slot = |v: &Symbol| vars.binary_search(&v).expect("every variable has a slot");

        // Each atom's ops start out as if the atom ran first: constants and
        // binds. Placing the atom fixes them up.
        let mut ops = Vec::with_capacity(arity + q.head.arity());
        let mut steps = Vec::with_capacity(q.body.len());
        for atom in &q.body {
            let rel = db.relation(atom.predicate.as_str())?;
            if rel.schema().arity() != atom.arity() {
                return Err(StorageError::QueryArityMismatch {
                    relation: atom.predicate.to_string(),
                    expected: rel.schema().arity(),
                    got: atom.arity(),
                });
            }
            let start = ops.len();
            ops.extend(atom.terms.iter().map(|t| match t {
                Term::Const(c) => Op::Const(c),
                Term::Var(v) => Op::Bind(slot(v)),
            }));
            steps.push(Step {
                rel,
                ops: start..ops.len(),
                probe: None,
            });
        }

        // Greedy order: most bound positions next, then the smaller
        // relation. `steps[..n]` are still to place; each round moves its
        // pick to `steps[n - 1]`, so the rest keep the order
        // `Vec::swap_remove` would leave them in, and the placed steps
        // end up last to first.
        for n in (1..=steps.len()).rev() {
            let (pending, placed) = steps.split_at(n);
            let (pick, _) = pending
                .iter()
                .enumerate()
                .map(|(i, st)| {
                    let fixed = ops[st.ops.clone()].iter().filter(|op| match op {
                        Op::Bind(s) => bound_by(&ops, placed, *s),
                        _ => true,
                    });
                    (i, (usize::MAX - fixed.count(), st.rel.len()))
                })
                .min_by_key(|&(_, k)| k)
                .expect("a step is pending");
            steps.swap(pick, n - 1);
            let (chosen, placed) = steps[n - 1..].split_first_mut().expect("just placed");
            let start = chosen.ops.start;
            for pos in chosen.ops.clone() {
                let Op::Bind(s) = ops[pos] else { continue };
                if bound_by(&ops, placed, s) {
                    ops[pos] = Op::Bound(s);
                } else if let Some(first) = ops[start..pos].iter().position(|op| op.binds(s)) {
                    ops[pos] = Op::Repeat(first);
                }
            }
            chosen.probe = ops[chosen.ops.clone()]
                .iter()
                .position(|op| matches!(op, Op::Const(_) | Op::Bound(_)));
        }
        steps.reverse();

        let head = ops.len();
        ops.extend(q.head.terms.iter().map(|t| match t {
            Term::Const(c) => Op::Const(c),
            Term::Var(v) => vars.binary_search(&v).map_or(Op::Unbound(v), Op::Bound),
        }));
        Ok(CompiledQuery {
            vars,
            steps,
            ops,
            head,
        })
    }

    /// The slot of a variable: the index of its value in every
    /// [`Binding::values`] of this query's answer.
    pub fn slot(&self, var: &Symbol) -> Option<usize> {
        self.vars.binary_search(&var).ok()
    }

    /// Runs the plan: distinct output tuples in order, each with every
    /// binding that produced it, in order.
    pub fn run(&self) -> QueryAnswer {
        let width = self.vars.len();
        // One row per partial binding, referring to stored values and the
        // query's constants: nothing is cloned before the final bindings.
        // To start, the empty binding.
        let mut rows: Vec<&Value> = vec![&UNBOUND; width];
        let mut count = 1;
        let mut next: Vec<&Value> = Vec::new();
        for step in &self.steps {
            let ops = &self.ops[step.ops.clone()];
            let mut extended = 0;
            for parent in (0..count).map(|i| &rows[i * width..][..width]) {
                let extend = |t: &'a Tuple| {
                    let values = t.values();
                    let fits = ops.iter().zip(values).all(|(op, v)| match op {
                        Op::Repeat(p) => &values[*p] == v,
                        Op::Bind(_) => true,
                        fixed => fixed.value(parent) == v,
                    });
                    if fits {
                        let base = next.len();
                        next.extend_from_slice(parent);
                        for (op, v) in ops.iter().zip(values) {
                            if let Op::Bind(s) = op {
                                next[base + s] = v;
                            }
                        }
                        extended += 1;
                    }
                };
                match step.probe {
                    Some(pos) => step
                        .rel
                        .lookup(pos, ops[pos].value(parent))
                        .for_each(extend),
                    None => step.rel.scan().for_each(extend),
                }
            }
            std::mem::swap(&mut rows, &mut next);
            next.clear();
            count = extended;
            if count == 0 {
                return QueryAnswer { rows: Vec::new() };
            }
        }
        self.group(&rows, count)
    }

    /// Groups `count` (at least one) flat rows by output tuple: one sort
    /// by (tuple, row), then one walk that clones each row into a binding,
    /// starts a new answer row at each new tuple and drops repeats.
    fn group(&self, rows: &[&Value], count: usize) -> QueryAnswer {
        let width = self.vars.len();
        let row = |i: usize| &rows[i * width..][..width];
        let head = &self.ops[self.head..];
        let cmp_out = |a: &[&Value], b: &[&Value]| {
            head.iter()
                .map(|op| op.value(a).cmp(op.value(b)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let mut sorted = Vec::new();
        let order: &[usize] = if count == 1 {
            // A point query's usual answer: nothing to sort.
            &[0]
        } else {
            sorted.extend(0..count);
            sorted.sort_unstable_by(|&a, &b| {
                let (a, b) = (row(a), row(b));
                cmp_out(a, b).then_with(|| a.cmp(b))
            });
            &sorted
        };

        let vars: Arc<[Symbol]> = self.vars.iter().map(|&v| v.clone()).collect();
        let mut out: Vec<AnswerRow> = Vec::new();
        let mut prev: Option<&[&Value]> = None;
        for r in order.iter().map(|&i| row(i)) {
            let same_tuple = match prev {
                Some(p) if p == r => continue,
                Some(p) => cmp_out(p, r).is_eq(),
                None => false,
            };
            let values = r.iter().map(|&v| v.clone()).collect();
            let binding = Binding::from_slots(Arc::clone(&vars), values);
            match out.last_mut() {
                Some(last) if same_tuple => last.bindings.push(binding),
                _ => out.push(AnswerRow {
                    tuple: head.iter().map(|op| op.value(r).clone()).collect(),
                    bindings: vec![binding],
                }),
            }
            prev = Some(r);
        }
        QueryAnswer { rows: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use citesys_cq::{parse_query, ValueType};

    fn db() -> Database {
        let mut d = Database::new();
        for (name, rows) in [("R", 2i64), ("S", 5)] {
            d.create_relation(RelationSchema::from_parts(
                name,
                &[("A", ValueType::Int), ("B", ValueType::Int)],
                &[],
            ))
            .unwrap();
            for i in 0..rows {
                d.insert(name, tuple![i, i + 1]).unwrap();
            }
        }
        d
    }

    /// The op a step probes with.
    fn probe<'p>(plan: &'p CompiledQuery<'_>, step: usize) -> Option<&'p Op<'p>> {
        let step = &plan.steps[step];
        step.probe.map(|pos| &plan.ops[step.ops.start + pos])
    }

    /// The kinds of a plan's ops, in order.
    fn kinds(plan: &CompiledQuery<'_>) -> Vec<&'static str> {
        let kind = |op: &Op<'_>| match op {
            Op::Const(_) => "const",
            Op::Bound(_) => "bound",
            Op::Repeat(_) => "repeat",
            Op::Bind(_) => "bind",
            Op::Unbound(_) => "unbound",
        };
        plan.ops.iter().map(kind).collect()
    }

    #[test]
    fn join_order_prefers_bound_then_small() {
        let db = db();
        // Neither atom is bound at first: the smaller R goes first, and S
        // is then probed on its bound first column.
        let q = parse_query("Q(X, Z) :- S(Y, Z), R(X, Y)").unwrap();
        let plan = CompiledQuery::compile(&db, &q).unwrap();
        assert_eq!(plan.steps[0].rel.len(), 2);
        assert!(plan.steps[0].probe.is_none());
        assert!(matches!(probe(&plan, 1), Some(Op::Bound(1))));
        // A constant outweighs size.
        let q = parse_query("Q(X, Z) :- R(X, Y), S(3, Z)").unwrap();
        let plan = CompiledQuery::compile(&db, &q).unwrap();
        assert_eq!(plan.steps[0].rel.len(), 5);
        assert_eq!(plan.steps[0].probe, Some(0));
        assert!(matches!(probe(&plan, 0), Some(Op::Const(_))));
    }

    #[test]
    fn ops_cover_every_position_once() {
        let db = db();
        let q = parse_query("Q(X) :- R(X, X), S(X, 1)").unwrap();
        let plan = CompiledQuery::compile(&db, &q).unwrap();
        // S has a constant, so it goes first and binds X; R then checks
        // it. The ops stay in body order (R's, S's), then the head's.
        assert_eq!(kinds(&plan), ["bound", "bound", "bind", "const", "bound"]);
        assert_eq!(plan.steps[0].ops, 2..4);
    }

    #[test]
    fn repeated_variable_within_one_atom() {
        let db = db();
        let q = parse_query("Q(X) :- R(X, X)").unwrap();
        let plan = CompiledQuery::compile(&db, &q).unwrap();
        assert!(matches!(
            plan.ops[..],
            [Op::Bind(0), Op::Repeat(0), Op::Bound(0)]
        ));
        assert!(plan.run().is_empty(), "R holds no (x, x)");
    }

    #[test]
    fn unsafe_head_panics_only_with_bindings() {
        let db = db();
        let empty = parse_query("Q(X) :- R(X, 7)").unwrap();
        let mut unsafe_q = empty.clone();
        unsafe_q.head.terms[0] = Term::Var(Symbol::new("Nope"));
        assert!(CompiledQuery::compile(&db, &unsafe_q)
            .unwrap()
            .run()
            .is_empty());
        let mut unsafe_q = parse_query("Q(X) :- R(X, Y)").unwrap();
        unsafe_q.head.terms[0] = Term::Var(Symbol::new("Nope"));
        let plan = CompiledQuery::compile(&db, &unsafe_q).unwrap();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.run())).is_err());
    }
}
