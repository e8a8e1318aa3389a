//! The citation pipeline: the paper's §2 pipeline, end to end.
//!
//! Given a database, a registry of citation views and a conjunctive query
//! `Q`:
//!
//! 1. compute the minimal equivalent rewritings `{Q1, …, Qn}` of `Q` over
//!    the views (`citesys-rewrite`) — the cacheable [`RewritePlan`];
//! 2. materialize the views used and evaluate each rewriting, collecting
//!    **every binding** per output tuple;
//! 3. per binding, build the joint citation `CV1(B1) · … · CVn(Bn)`
//!    (Definition 2.1); per tuple, sum bindings with `+`
//!    (Definition 2.2); across rewritings combine with `+R`;
//! 4. interpret the symbolic expressions under the owner's policies and
//!    render citation snippets; aggregate with `Agg`.
//!
//! Two modes address §3's "Calculating citations" concern: `Formal`
//! evaluates every rewriting (the paper's semantics, used as the measured
//! baseline), `CostPruned` selects the cheapest rewriting by a schema-level
//! size estimate *before* touching the data.
//!
//! The entry point is the owned, thread-safe
//! [`CitationService`](crate::service::CitationService), which caches
//! rewrite plans and materialized views across calls over the free
//! functions in this module.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use citesys_cq::{ConjunctiveQuery, Symbol, Term, Value, ValueType};
use citesys_rewrite::{rewrite, RewritePlan, RewriteStats, Rewriting};
use citesys_storage::{evaluate, Attribute, Binding, Database, QueryAnswer, RelationSchema, Tuple};

use crate::error::CiteError;
use crate::expr::{CiteAtom, CiteExpr};
use crate::policy::{
    atoms_for_tuple, choose_rewriting, AggPolicy, JointPolicy, PolicySet, RewritingChoice,
};
use crate::registry::CitationRegistry;
use crate::snippet::CitationSnippet;

/// How the engine handles multiple rewritings.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CitationMode {
    /// Evaluate every rewriting — the paper's formal semantics
    /// ("going through all rewritings would be impractical" — this is the
    /// baseline experiment E3/E5 measures).
    Formal,
    /// Choose one rewriting up front using a schema-level cost estimate,
    /// then evaluate only that one (§3's cost-based pruning).
    ///
    /// The estimate is not exact: when branches tie (or cardinality upper
    /// bounds are loose) the pruned choice may differ from the formal
    /// minimum — never producing a *smaller* citation than `Formal` with
    /// the min-size policy, but possibly a different same-size or larger
    /// one. E3 measures the time gap, `tests/proptests.rs` pins the
    /// one-sided guarantee.
    #[default]
    CostPruned,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineOptions {
    /// Rewriting search options.
    pub rewrite: citesys_rewrite::RewriteOptions,
    /// The owner's combination policies.
    pub policies: PolicySet,
    /// Formal vs cost-pruned evaluation.
    pub mode: CitationMode,
    /// When no equivalent rewriting exists, fall back to **maximally
    /// contained** rewritings (Definition 2.1's "(partial) rewriting"):
    /// tuples derivable through some contained rewriting get citations,
    /// the rest are reported uncited in [`CitedAnswer::coverage`].
    pub allow_partial: bool,
}

/// How much of the answer the citations cover.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Coverage {
    /// Every answer tuple carries a citation (equivalent rewritings).
    Full,
    /// Citations come from contained rewritings; `uncited` answer tuples
    /// have no citation.
    Partial {
        /// Number of answer tuples without any citation.
        uncited: usize,
    },
}

/// The citation of one output tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleCitation {
    /// The output tuple.
    pub tuple: Tuple,
    /// One citation expression per evaluated rewriting (aligned with
    /// [`CitedAnswer::rewritings`]).
    pub branches: Vec<CiteExpr>,
    /// Citation atoms selected by the policies.
    pub atoms: BTreeSet<CiteAtom>,
    /// Rendered snippets (one per atom under `JointPolicy::Union`, a
    /// single merged snippet under `JointPolicy::Join`). An atom's snippet
    /// is rendered once per cite and shared by every tuple and the
    /// aggregate that cite it.
    pub snippets: Vec<Arc<CitationSnippet>>,
}

impl TupleCitation {
    /// The full symbolic citation `(… + …) +R (…)` for this tuple.
    pub fn expr(&self) -> CiteExpr {
        CiteExpr::alt_r(self.branches.clone())
    }
}

/// The aggregate citation for the whole query answer (`Agg`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AggregateCitation {
    /// Union of the per-tuple citation atoms.
    pub atoms: BTreeSet<CiteAtom>,
    /// Rendered snippets, shared with the tuples that cite the same atoms.
    pub snippets: Vec<Arc<CitationSnippet>>,
}

/// Everything the engine produces for one query.
#[derive(Clone, Debug)]
pub struct CitedAnswer {
    /// The query answer (evaluated directly over the base database).
    pub answer: QueryAnswer,
    /// The rewritings that were evaluated (after mode-based selection).
    pub rewritings: Vec<ConjunctiveQuery>,
    /// The `+R` choice the policies made.
    pub choice: RewritingChoice,
    /// Whether citations cover the whole answer.
    pub coverage: Coverage,
    /// Per-tuple citations, aligned with `answer.rows`.
    pub tuples: Vec<TupleCitation>,
    /// The aggregate citation (`None` under `AggPolicy::PerTupleOnly`).
    pub aggregate: Option<AggregateCitation>,
    /// Rewriting-search statistics. A re-cite through a prepared plan has
    /// `plan_cache_hits == 1` and zero search-effort counters.
    pub rewrite_stats: RewriteStats,
    /// Tuples a rewriting derived that the direct evaluation did not; they
    /// stay uncited. Equivalent rewritings make this 0, so anything else
    /// is an engine defect (debug builds assert on it).
    pub unmatched_tuples: usize,
}

// ---------------------------------------------------------------------------
// The pipeline: free functions over borrowed state, which the owned
// `CitationService` layers its caches over.
// ---------------------------------------------------------------------------

/// Runs the rewriting search for `q` (with the contained-rewriting
/// fallback when `allow_partial` is set) and packages the result as a
/// cacheable plan. The plan may be empty — citation then fails with
/// [`CiteError::NoRewriting`], and caching the empty plan makes the
/// failure cheap to repeat.
pub(crate) fn compute_plan(
    registry: &CitationRegistry,
    options: &EngineOptions,
    q: &ConjunctiveQuery,
) -> Result<RewritePlan, CiteError> {
    let views = registry.view_set();
    let outcome = rewrite(q, &views, &options.rewrite)?;
    let mut partial = false;
    let outcome = if outcome.rewritings.is_empty() && options.allow_partial {
        partial = true;
        let contained_opts = citesys_rewrite::RewriteOptions {
            goal: citesys_rewrite::RewriteGoal::Contained,
            ..options.rewrite
        };
        rewrite(q, &views, &contained_opts)?
    } else {
        outcome
    };
    Ok(RewritePlan {
        rewritings: outcome.rewritings,
        stats: outcome.stats,
        partial,
    })
}

/// Mode-based selection: which of the plan's rewritings to evaluate.
/// Partial rewritings are incomparable — dropping one loses coverage — so
/// the partial fallback always evaluates all of them.
pub(crate) fn select_rewritings<'p>(
    db: &Database,
    registry: &CitationRegistry,
    options: &EngineOptions,
    plan: &'p RewritePlan,
) -> Vec<&'p Rewriting> {
    match (options.mode, plan.partial) {
        (CitationMode::Formal, _) | (_, true) => plan.rewritings.iter().collect(),
        (CitationMode::CostPruned, false) => plan
            .rewritings
            .iter()
            .enumerate()
            .min_by_key(|(i, r)| (schema_estimate(db, registry, &r.query), *i))
            .map(|(_, r)| vec![r])
            .unwrap_or_default(),
    }
}

/// The view predicates the selected rewritings evaluate over.
pub(crate) fn needed_views<'r>(selected: &[&'r Rewriting]) -> BTreeSet<&'r Symbol> {
    selected
        .iter()
        .flat_map(|r| r.query.body.iter().map(|a| &a.predicate))
        .collect()
}

/// Materializes each named view into `vdb` (skipping views already
/// present), so rewritings — queries over view predicates — can be
/// evaluated by the standard evaluator. Incremental by design: the
/// service's cross-query view cache calls this repeatedly on one scratch
/// database.
pub(crate) fn materialize_views_into(
    db: &Database,
    registry: &CitationRegistry,
    needed: &BTreeSet<&Symbol>,
    vdb: &mut Database,
) -> Result<(), CiteError> {
    for name in needed {
        if vdb.has_relation(name.as_str()) {
            continue;
        }
        let cv = registry
            .get(name.as_str())
            .ok_or_else(|| CiteError::BadCitationView {
                view: name.to_string(),
                reason: "rewriting references unregistered view".to_string(),
            })?;
        let schema = infer_view_schema(db, &cv.view)?;
        vdb.create_relation(schema)?;
        let ans = evaluate(db, &cv.view)?;
        for row in &ans.rows {
            vdb.insert(name.as_str(), row.tuple.clone())?;
        }
    }
    Ok(())
}

/// A per-cite citation-atom id: the index of one distinct
/// (view, λ-valuation) pair in the cite's atom table.
type AtomId = u32;

/// The distinct citation atoms of one cite, interned to dense ids while
/// annotation runs.
#[derive(Default)]
struct AtomInterner {
    atoms: Vec<CiteAtom>,
    /// Each view's slot in `valuations`.
    slots: HashMap<Symbol, usize>,
    /// Per view slot, the id of each λ-valuation seen so far.
    valuations: Vec<HashMap<Vec<Value>, AtomId>>,
}

impl AtomInterner {
    /// The slot of `view`'s valuations, looked up once per rewriting atom
    /// rather than once per binding.
    fn slot(&mut self, view: &Symbol) -> usize {
        let next = self.slots.len();
        let slot = *self.slots.entry(view.clone()).or_insert(next);
        if slot == self.valuations.len() {
            self.valuations.push(HashMap::new());
        }
        slot
    }

    /// The id of the atom `view(params)`, where `slot` is `view`'s slot.
    fn intern(&mut self, slot: usize, view: &Symbol, params: &[Value]) -> AtomId {
        if let Some(&id) = self.valuations[slot].get(params) {
            return id;
        }
        let id = AtomId::try_from(self.atoms.len()).expect("fewer than 2^32 atoms per cite");
        self.atoms
            .push(CiteAtom::new(view.clone(), params.to_vec()));
        self.valuations[slot].insert(params.to_vec(), id);
        id
    }

    /// Renumbers the ids so that id order is atom order. Returns the atoms
    /// by new id and the old → new id map. With the ids in atom order the
    /// normal forms over ids are the normal forms over atoms, id for atom.
    fn into_sorted(self) -> (Vec<CiteAtom>, Vec<AtomId>) {
        let mut by_atom: Vec<(CiteAtom, AtomId)> = self.atoms.into_iter().zip(0..).collect();
        by_atom.sort_unstable();
        let mut renumber = vec![0; by_atom.len()];
        for (new, (_, old)) in (0..).zip(&by_atom) {
            renumber[*old as usize] = new;
        }
        (by_atom.into_iter().map(|(a, _)| a).collect(), renumber)
    }
}

/// How one body atom of a rewriting contributes to each binding's joint
/// citation `CV1(B1) · … · CVn(Bn)`.
enum Factor<'r> {
    /// An unparameterized view: the same atom for every binding.
    Fixed(AtomId),
    /// A λ-parameterized view: the atom's parameters are the binding's
    /// values of these terms.
    Param {
        view: &'r Symbol,
        slot: usize,
        terms: Vec<&'r Term>,
    },
}

/// The factors of `r`'s body atoms, with unparameterized atoms interned
/// once for the whole rewriting.
fn factors<'r>(
    registry: &CitationRegistry,
    r: &'r Rewriting,
    interner: &mut AtomInterner,
) -> Result<Vec<Factor<'r>>, CiteError> {
    r.query
        .body
        .iter()
        .map(|atom| {
            let view = &atom.predicate;
            let cv = registry
                .get(view.as_str())
                .ok_or_else(|| CiteError::BadCitationView {
                    view: view.to_string(),
                    reason: "rewriting references unregistered view".to_string(),
                })?;
            let slot = interner.slot(view);
            let positions = cv.view.param_positions();
            if positions.is_empty() {
                return Ok(Factor::Fixed(interner.intern(slot, view, &[])));
            }
            // The view relation `r` was evaluated over has the view head's
            // arity, so every head position is a term of `atom`.
            let terms = positions.iter().map(|(_, pos)| &atom.terms[*pos]).collect();
            Ok(Factor::Param { view, slot, terms })
        })
        .collect()
}

/// One binding's joint citation, unnormalized. `params` is scratch space
/// for the λ-valuations, reused across bindings.
fn binding_product(
    factors: &[Factor<'_>],
    binding: &Binding,
    interner: &mut AtomInterner,
    params: &mut Vec<Value>,
) -> Result<CiteExpr<AtomId>, CiteError> {
    let mut ids = Vec::with_capacity(factors.len());
    for factor in factors {
        ids.push(CiteExpr::Atom(match factor {
            Factor::Fixed(id) => *id,
            Factor::Param { view, slot, terms } => {
                params.clear();
                for t in terms {
                    params.push(binding.eval_term(t).ok_or_else(|| {
                        CiteError::BadCitationView {
                            view: view.to_string(),
                            reason: "λ-parameter position not bound by the rewriting's binding"
                                .to_string(),
                        }
                    })?);
                }
                interner.intern(*slot, view, params)
            }
        }));
    }
    Ok(CiteExpr::Prod(ids))
}

/// Steps 4–7 of the pipeline: evaluate the selected rewritings over the
/// materialized views, assemble the per-tuple citation expressions, apply
/// the policies and render snippets. `stats` is embedded verbatim in the
/// result (the caller decides whether it reflects a fresh search or a plan
/// cache hit).
///
/// Annotation works on per-cite atom ids: the branch matrix is indexed by
/// the base answer's rows and holds `CiteExpr<AtomId>`s, the policies run
/// over ids, and each selected atom is rendered once and shared. The
/// public `CiteAtom`s are resolved from the id table only when the tuples
/// are assembled.
#[allow(clippy::too_many_arguments)] // internal seam between pipeline/service
pub(crate) fn cite_selected(
    db: &Database,
    registry: &CitationRegistry,
    options: &EngineOptions,
    q: &ConjunctiveQuery,
    selected: &[&Rewriting],
    partial: bool,
    view_db: &Database,
    stats: RewriteStats,
) -> Result<CitedAnswer, CiteError> {
    if selected.is_empty() {
        return Err(CiteError::NoRewriting {
            query: q.to_string(),
        });
    }

    // Ground-truth answer (also the digest basis for fixity).
    let answer = evaluate(db, q)?;

    // matrix[row][r]: the citation of answer row `row` under rewriting `r`.
    let mut interner = AtomInterner::default();
    let mut matrix: Vec<Vec<CiteExpr<AtomId>>> =
        vec![vec![CiteExpr::zero(); selected.len()]; answer.rows.len()];
    let mut unmatched_tuples = 0;
    let mut params = Vec::new();
    for (ri, r) in selected.iter().enumerate() {
        let ans = evaluate(view_db, &r.query)?;
        let factors = factors(registry, r, &mut interner)?;
        // Both answers are sorted by tuple: one merge walk finds each
        // rewriting row's index in the base answer.
        let mut base = 0;
        for row in &ans.rows {
            while answer.rows.get(base).is_some_and(|b| b.tuple < row.tuple) {
                base += 1;
            }
            // Equivalent rewritings produce the same tuple set as the
            // direct evaluation; a discrepancy is counted, not cited.
            let matched = answer.rows.get(base).is_some_and(|b| b.tuple == row.tuple);
            debug_assert!(
                matched,
                "rewriting produced tuple {:?} absent from direct answer",
                row.tuple
            );
            if !matched {
                unmatched_tuples += 1;
                continue;
            }
            let mut product = |b| binding_product(&factors, b, &mut interner, &mut params);
            // A single binding is its own sum: skip the one-child `+` node.
            matrix[base][ri] = match row.bindings.as_slice() {
                [binding] => product(binding)?,
                bindings => CiteExpr::Sum(bindings.iter().map(product).collect::<Result<_, _>>()?),
            };
        }
    }

    // Ids in atom order, then each branch in normal form.
    let (atoms, renumber) = interner.into_sorted();
    for branches in &mut matrix {
        for branch in branches.iter_mut() {
            let raw = std::mem::replace(branch, CiteExpr::zero());
            *branch = raw.map(&mut |id| renumber[id as usize]).normalize();
        }
    }

    // Global +R choice, per-tuple interpretation.
    let choice = if partial {
        // Contained rewritings each cover different tuples; union them.
        RewritingChoice::All
    } else {
        match options.mode {
            CitationMode::CostPruned => RewritingChoice::Index(0),
            CitationMode::Formal => choose_rewriting(options.policies.rewritings, &matrix),
        }
    };

    let mut rendered: Vec<Option<Arc<CitationSnippet>>> = vec![None; atoms.len()];
    let mut resolve = |id: AtomId| atoms[id as usize].clone();
    let mut tuples = Vec::with_capacity(answer.rows.len());
    for (row, branches) in answer.rows.iter().zip(matrix) {
        let ids = atoms_for_tuple(&options.policies, &branches, choice);
        let snippets = render_atoms(db, registry, options, &ids, &atoms, &mut rendered)?;
        tuples.push(TupleCitation {
            tuple: row.tuple.clone(),
            branches: branches.into_iter().map(|b| b.map(&mut resolve)).collect(),
            atoms: ids.into_iter().map(resolve).collect(),
            snippets,
        });
    }

    let aggregate = match options.policies.agg {
        AggPolicy::PerTupleOnly => None,
        AggPolicy::Union => {
            // The atoms some tuple cites are exactly the rendered ones.
            let ids: BTreeSet<AtomId> = (0..)
                .zip(&rendered)
                .filter_map(|(id, s)| s.is_some().then_some(id))
                .collect();
            let snippets = render_atoms(db, registry, options, &ids, &atoms, &mut rendered)?;
            Some(AggregateCitation {
                atoms: ids.into_iter().map(resolve).collect(),
                snippets,
            })
        }
    };

    let coverage = if partial {
        Coverage::Partial {
            uncited: tuples.iter().filter(|t| t.atoms.is_empty()).count(),
        }
    } else {
        Coverage::Full
    };

    Ok(CitedAnswer {
        answer,
        rewritings: selected.iter().map(|r| r.query.clone()).collect(),
        choice,
        coverage,
        tuples,
        aggregate,
        rewrite_stats: stats,
        unmatched_tuples,
    })
}

/// One-shot pipeline over borrowed state: plan, select, materialize into a
/// fresh scratch database, annotate — the uncached reference the service's
/// tests compare the cached path against.
#[cfg(test)]
pub(crate) fn cite_uncached(
    db: &Database,
    registry: &CitationRegistry,
    options: &EngineOptions,
    q: &ConjunctiveQuery,
) -> Result<CitedAnswer, CiteError> {
    let plan = compute_plan(registry, options, q)?;
    if plan.rewritings.is_empty() {
        return Err(CiteError::NoRewriting {
            query: q.to_string(),
        });
    }
    let selected = select_rewritings(db, registry, options, &plan);
    let mut view_db = Database::new();
    materialize_views_into(db, registry, &needed_views(&selected), &mut view_db)?;
    cite_selected(
        db,
        registry,
        options,
        q,
        &selected,
        plan.partial,
        &view_db,
        plan.stats,
    )
}

/// The snippets for a set of atom ids under the joint policy. Each atom is
/// rendered on first use and its snippet shared from then on.
fn render_atoms(
    db: &Database,
    registry: &CitationRegistry,
    options: &EngineOptions,
    ids: &BTreeSet<AtomId>,
    atoms: &[CiteAtom],
    rendered: &mut [Option<Arc<CitationSnippet>>],
) -> Result<Vec<Arc<CitationSnippet>>, CiteError> {
    let mut snippets = Vec::with_capacity(ids.len());
    for &id in ids {
        let slot = &mut rendered[id as usize];
        let snippet = match slot {
            Some(hit) => Arc::clone(hit),
            None => {
                Arc::clone(slot.insert(Arc::new(render_atom(db, registry, &atoms[id as usize])?)))
            }
        };
        snippets.push(snippet);
    }
    if options.policies.joint == JointPolicy::Join && snippets.len() > 1 {
        let mut merged = CitationSnippet::clone(&snippets[0]);
        for s in &snippets[1..] {
            merged.absorb(s);
        }
        merged.view = Symbol::new("joined");
        merged.params = Vec::new();
        snippets = vec![Arc::new(merged)];
    }
    Ok(snippets)
}

/// Instantiates and evaluates one view's citation queries at the atom's
/// parameter values and renders the snippet.
fn render_atom(
    db: &Database,
    registry: &CitationRegistry,
    atom: &CiteAtom,
) -> Result<CitationSnippet, CiteError> {
    let cv = registry
        .get(atom.view.as_str())
        .ok_or_else(|| CiteError::BadCitationView {
            view: atom.view.to_string(),
            reason: "atom references unregistered view".to_string(),
        })?;
    let mut answers: Vec<(&[String], QueryAnswer)> = Vec::new();
    for cq in &cv.citation_queries {
        let inst = cq.query.instantiate(&atom.params)?;
        let ans = evaluate(db, &inst)?;
        answers.push((cq.fields.as_slice(), ans));
    }
    let borrowed: Vec<(&[String], &QueryAnswer)> = answers.iter().map(|(f, a)| (*f, a)).collect();
    Ok(cv.function.render(&atom.view, &atom.params, &borrowed))
}

/// Schema-level citation-size estimate of a rewriting (no data access
/// beyond catalog statistics): a parameterized view contributes one
/// citation per distinct parameter valuation — estimated as the product
/// of the per-parameter distinct counts in the underlying base columns —
/// while an unparameterized view contributes exactly one.
pub(crate) fn schema_estimate(
    db: &Database,
    registry: &CitationRegistry,
    rewriting: &ConjunctiveQuery,
) -> usize {
    rewriting
        .body
        .iter()
        .map(|atom| {
            let Some(cv) = registry.get(atom.predicate.as_str()) else {
                return usize::MAX / 2;
            };
            if !cv.is_parameterized() {
                return 1;
            }
            cv.view
                .params
                .iter()
                .map(|p| param_distinct_estimate(db, &cv.view, p))
                .product::<usize>()
                .max(1)
        })
        .sum()
}

/// Distinct-count estimate for one λ-parameter: the number of distinct
/// values in the base column where the parameter first occurs in the
/// view body (falls back to the relation's cardinality).
fn param_distinct_estimate(db: &Database, view: &ConjunctiveQuery, param: &Symbol) -> usize {
    for atom in &view.body {
        for (pos, t) in atom.terms.iter().enumerate() {
            if t.as_var() == Some(param) {
                if let Ok(rel) = db.relation(atom.predicate.as_str()) {
                    return rel.distinct_count(pos);
                }
            }
        }
    }
    db.relation(
        view.body
            .first()
            .map(|a| a.predicate.as_str())
            .unwrap_or_default(),
    )
    .map_or(1, citesys_storage::Relation::len)
}

/// Infers the relation schema of a view from the base catalog.
fn infer_view_schema(db: &Database, view: &ConjunctiveQuery) -> Result<RelationSchema, CiteError> {
    let mut attrs = Vec::with_capacity(view.arity());
    for (i, t) in view.head.terms.iter().enumerate() {
        let (name, ty) = match t {
            Term::Const(c) => (format!("c{i}"), c.type_name()),
            Term::Var(v) => {
                let ty = type_of_var(db, view, v)?;
                (v.to_string(), ty)
            }
        };
        attrs.push((name, ty));
    }
    // Disambiguate duplicate attribute names positionally.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let attributes = attrs
        .into_iter()
        .enumerate()
        .map(|(i, (name, ty))| {
            let unique = if seen.insert(name.clone()) {
                name
            } else {
                format!("{name}_{i}")
            };
            Attribute::new(unique, ty)
        })
        .collect();
    Ok(RelationSchema::new(view.name().clone(), attributes, vec![]))
}

/// Resolves a view variable's type from its first occurrence in the
/// view body.
fn type_of_var(db: &Database, view: &ConjunctiveQuery, v: &Symbol) -> Result<ValueType, CiteError> {
    for atom in &view.body {
        for (pos, t) in atom.terms.iter().enumerate() {
            if t.as_var() == Some(v) {
                let rel = db.relation(atom.predicate.as_str())?;
                return Ok(rel.schema().attributes[pos].ty);
            }
        }
    }
    Err(CiteError::BadCitationView {
        view: view.name().to_string(),
        reason: format!("cannot infer type of head variable {v}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::policy::RewritePolicy;
    use crate::service::CitationService;
    use citesys_cq::{parse_query, Value};
    use citesys_storage::tuple;

    fn engine_fixture() -> (Database, CitationRegistry) {
        (paper::paper_database(), paper::paper_registry())
    }

    fn service_over(
        db: &Database,
        registry: &CitationRegistry,
        options: EngineOptions,
    ) -> CitationService {
        CitationService::builder()
            .database(db.clone())
            .registry(registry.clone())
            .options(options)
            .build()
            .unwrap()
    }

    #[test]
    fn paper_example_formal_mode() {
        let (db, reg) = engine_fixture();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::Formal,
                ..Default::default()
            },
        );
        let q =
            parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
        let cited = service.cite(&q).unwrap();

        // One output tuple: (Calcitonin).
        assert_eq!(cited.answer.len(), 1);
        assert_eq!(cited.tuples[0].tuple, tuple!["Calcitonin"]);

        // Two rewritings evaluated; the symbolic expression matches §2:
        // (CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)  (branch order may put
        // V2 first since rewritings are sorted deterministically).
        assert_eq!(cited.rewritings.len(), 2);
        let expr = cited.tuples[0].expr().to_string();
        assert!(
            expr.contains("CV1(11)·CV3") && expr.contains("CV1(12)·CV3"),
            "Q1 branch missing: {expr}"
        );
        assert!(expr.contains("CV2·CV3"), "Q2 branch missing: {expr}");
        assert!(
            expr.contains("+R"),
            "two rewritings must be +R-combined: {expr}"
        );

        // Min-size +R picks the V2 branch: final atoms CV2, CV3.
        let atoms: Vec<String> = cited.tuples[0]
            .atoms
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(atoms, vec!["CV2", "CV3"]);

        // Snippets rendered for both atoms.
        assert_eq!(cited.tuples[0].snippets.len(), 2);
        let agg = cited.aggregate.as_ref().unwrap();
        assert_eq!(agg.atoms.len(), 2);
    }

    #[test]
    fn paper_example_union_policy_keeps_committee() {
        let (db, reg) = engine_fixture();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::Formal,
                policies: PolicySet {
                    rewritings: RewritePolicy::Union,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let q =
            parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
        let cited = service.cite(&q).unwrap();
        // Union keeps CV1(11), CV1(12), CV2, CV3.
        assert_eq!(cited.tuples[0].atoms.len(), 4);
        // The parameterized snippets carry the committee names.
        let snips = &cited.tuples[0].snippets;
        let committee: Vec<&str> = snips
            .iter()
            .filter(|s| s.view == "V1")
            .flat_map(|s| s.field("PName").iter().map(String::as_str))
            .collect();
        assert!(committee.contains(&"Alice"));
        assert!(committee.contains(&"Carol"));
    }

    #[test]
    fn cost_pruned_mode_evaluates_one_rewriting() {
        let (db, reg) = engine_fixture();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::CostPruned,
                ..Default::default()
            },
        );
        let q =
            parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
        let cited = service.cite(&q).unwrap();
        assert_eq!(cited.rewritings.len(), 1);
        // The schema estimate prefers the unparameterized V2 branch.
        let atoms: Vec<String> = cited.tuples[0]
            .atoms
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(atoms, vec!["CV2", "CV3"]);
    }

    #[test]
    fn formal_and_pruned_agree_on_paper_example() {
        let (db, reg) = engine_fixture();
        let q =
            parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
        let formal = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::Formal,
                ..Default::default()
            },
        )
        .cite(&q)
        .unwrap();
        let pruned = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::CostPruned,
                ..Default::default()
            },
        )
        .cite(&q)
        .unwrap();
        assert_eq!(formal.tuples[0].atoms, pruned.tuples[0].atoms);
    }

    #[test]
    fn uncoverable_query_reports_no_rewriting() {
        let (db, reg) = engine_fixture();
        let service = service_over(&db, &reg, EngineOptions::default());
        let q = parse_query("Q(P) :- Committee(F, P)").unwrap();
        let e = service.cite(&q).unwrap_err();
        assert!(matches!(e, CiteError::NoRewriting { .. }));
    }

    #[test]
    fn empty_answer_still_cites() {
        let (db, reg) = engine_fixture();
        let service = service_over(&db, &reg, EngineOptions::default());
        let q = parse_query("Q(N) :- Family(99, N, D), FamilyIntro(99, T)").unwrap();
        let cited = service.cite(&q).unwrap();
        assert!(cited.answer.is_empty());
        assert!(cited.tuples.is_empty());
        let agg = cited.aggregate.unwrap();
        assert!(agg.atoms.is_empty());
    }

    #[test]
    fn join_policy_merges_snippets() {
        let (db, reg) = engine_fixture();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::Formal,
                policies: PolicySet {
                    joint: JointPolicy::Join,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let q =
            parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
        let cited = service.cite(&q).unwrap();
        assert_eq!(cited.tuples[0].snippets.len(), 1, "joined into one snippet");
    }

    #[test]
    fn per_tuple_only_agg() {
        let (db, reg) = engine_fixture();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                policies: PolicySet {
                    agg: AggPolicy::PerTupleOnly,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let q =
            parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
        let cited = service.cite(&q).unwrap();
        assert!(cited.aggregate.is_none());
        assert!(!cited.tuples.is_empty());
    }

    #[test]
    fn parameterized_view_used_twice_in_one_rewriting() {
        // Chain query rewritten as VE(A,B) ⋈ VE(B,C): the SAME
        // parameterized view instantiated at two parameter values inside
        // one binding — the paper's `CV(p1)·CV(p2)` joint case.
        let mut db = Database::new();
        db.create_relation(citesys_storage::RelationSchema::from_parts(
            "E",
            &[("A", ValueType::Int), ("B", ValueType::Int)],
            &[],
        ))
        .unwrap();
        db.insert("E", citesys_storage::tuple![1, 2]).unwrap();
        db.insert("E", citesys_storage::tuple![2, 3]).unwrap();
        let mut reg = crate::registry::CitationRegistry::new();
        reg.add(
            crate::registry::CitationView::new(
                citesys_cq::parse_query("λ X. VE(X, Y) :- E(X, Y)").unwrap(),
                vec![crate::snippet::CitationQuery::new(
                    citesys_cq::parse_query("λ X. CVE(X, W) :- E(X, W)").unwrap(),
                )],
                crate::snippet::CitationFunction::new(),
            )
            .unwrap(),
        )
        .unwrap();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::Formal,
                ..Default::default()
            },
        );
        let q = parse_query("Q(A, C) :- E(A, B), E(B, C)").unwrap();
        let cited = service.cite(&q).unwrap();
        assert_eq!(cited.answer.len(), 1);
        let t = &cited.tuples[0];
        assert_eq!(t.tuple, tuple![1, 3]);
        assert_eq!(t.expr().to_string(), "CVE(1)·CVE(2)");
        assert_eq!(t.atoms.len(), 2);
        // Each snippet carries the endpoint pulled by its citation query.
        let params: Vec<i64> = t
            .atoms
            .iter()
            .map(|a| a.params[0].as_int().unwrap())
            .collect();
        assert_eq!(params, vec![1, 2]);
    }

    #[test]
    fn multi_parameter_view() {
        // λ FID, PName — one citation per (family, member) pair.
        let (db, _) = engine_fixture();
        let mut reg = crate::registry::CitationRegistry::new();
        reg.add(
            crate::registry::CitationView::new(
                citesys_cq::parse_query("λ FID, PName. VC(FID, PName) :- Committee(FID, PName)")
                    .unwrap(),
                vec![crate::snippet::CitationQuery::new(
                    citesys_cq::parse_query(
                        "λ FID, PName. CVC(FID, PName) :- Committee(FID, PName)",
                    )
                    .unwrap(),
                )],
                crate::snippet::CitationFunction::new(),
            )
            .unwrap(),
        )
        .unwrap();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::Formal,
                ..Default::default()
            },
        );
        let q = parse_query("Q(P) :- Committee(11, P)").unwrap();
        let cited = service.cite(&q).unwrap();
        assert_eq!(cited.answer.len(), 2); // Alice, Bob
        for t in &cited.tuples {
            assert_eq!(t.atoms.len(), 1);
            let atom = t.atoms.iter().next().unwrap();
            assert_eq!(atom.params.len(), 2, "both λ-parameters instantiated");
            assert_eq!(atom.params[0], Value::Int(11));
        }
        // Distinct members ⇒ distinct second parameter.
        let seconds: std::collections::BTreeSet<_> = cited
            .tuples
            .iter()
            .map(|t| t.atoms.iter().next().unwrap().params[1].clone())
            .collect();
        assert_eq!(seconds.len(), 2);
    }

    #[test]
    fn query_with_constant_cites_pinned_view() {
        // Constants in the query flow into the rewriting and parameters.
        let (db, reg) = engine_fixture();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::Formal,
                ..Default::default()
            },
        );
        let q = parse_query("Q(N) :- Family(11, N, D), FamilyIntro(11, T)").unwrap();
        let cited = service.cite(&q).unwrap();
        assert_eq!(cited.answer.len(), 1);
        let expr = cited.tuples[0].expr().to_string();
        assert!(expr.contains("CV1(11)"), "pinned parameter: {expr}");
        assert!(!expr.contains("CV1(12)"), "other family excluded: {expr}");
    }

    #[test]
    fn partial_fallback_cites_covered_tuples() {
        // Registry with only a narrow view: families that HAVE an intro.
        let db = paper::paper_database();
        let mut reg = crate::registry::CitationRegistry::new();
        reg.add(
            crate::registry::CitationView::new(
                citesys_cq::parse_query(
                    "VN(FID, FName) :- Family(FID, FName, D), FamilyIntro(FID, T)",
                )
                .unwrap(),
                vec![crate::snippet::CitationQuery::with_fields(
                    citesys_cq::parse_query("CVN(D) :- D = 'narrow'").unwrap(),
                    vec!["citation".to_string()],
                )
                .unwrap()],
                crate::snippet::CitationFunction::new(),
            )
            .unwrap(),
        )
        .unwrap();

        // Q = all family names. Dopamine (no intro) cannot be cited.
        let q = parse_query("Q(FName) :- Family(FID, FName, D)").unwrap();
        let strict = service_over(&db, &reg, EngineOptions::default());
        assert!(matches!(
            strict.cite(&q),
            Err(CiteError::NoRewriting { .. })
        ));

        let lenient = service_over(
            &db,
            &reg,
            EngineOptions {
                allow_partial: true,
                ..Default::default()
            },
        );
        let cited = lenient.cite(&q).unwrap();
        assert_eq!(cited.answer.len(), 2); // Calcitonin, Dopamine
        assert_eq!(cited.coverage, Coverage::Partial { uncited: 1 });
        let calc = cited
            .tuples
            .iter()
            .find(|t| t.tuple == tuple!["Calcitonin"])
            .unwrap();
        assert!(!calc.atoms.is_empty(), "covered tuple is cited");
        let dopa = cited
            .tuples
            .iter()
            .find(|t| t.tuple == tuple!["Dopamine"])
            .unwrap();
        assert!(dopa.atoms.is_empty(), "uncovered tuple stays uncited");
    }

    #[test]
    fn full_coverage_reported_when_equivalent() {
        let (db, reg) = engine_fixture();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                allow_partial: true,
                ..Default::default()
            },
        );
        let cited = service.cite(&paper::paper_query()).unwrap();
        assert_eq!(cited.coverage, Coverage::Full);
    }

    #[test]
    fn rewriting_over_unregistered_view_is_an_error_not_a_panic() {
        // A hand-built rewriting over `VX`, a relation of the view
        // database that no citation view declares: the annotation must
        // refuse it with an error, whatever rows it derives.
        let (db, reg) = engine_fixture();
        let q = paper::paper_query();
        let mut view_db = Database::new();
        view_db
            .create_relation(RelationSchema::from_parts(
                "VX",
                &[("FName", ValueType::Text)],
                &[],
            ))
            .unwrap();
        view_db.insert("VX", tuple!["Calcitonin"]).unwrap();
        let rewriting = Rewriting {
            query: parse_query("Q(FName) :- VX(FName)").unwrap(),
            expansion: q.clone(),
        };
        let result = cite_selected(
            &db,
            &reg,
            &EngineOptions::default(),
            &q,
            &[&rewriting],
            false,
            &view_db,
            RewriteStats::default(),
        );
        match result {
            Err(CiteError::BadCitationView { view, .. }) => assert_eq!(view, "VX"),
            other => panic!("expected BadCitationView, got {other:?}"),
        }
    }

    #[test]
    fn parameterized_identity_query_cites_per_family() {
        let (db, reg) = engine_fixture();
        let service = service_over(
            &db,
            &reg,
            EngineOptions {
                mode: CitationMode::Formal,
                ..Default::default()
            },
        );
        // Q = all families: rewritable via V1 (param) or V2 (constant).
        let q = parse_query("Q(FID, FName, Desc) :- Family(FID, FName, Desc)").unwrap();
        let cited = service.cite(&q).unwrap();
        assert_eq!(cited.answer.len(), 3);
        // Min-size picks V2 (one citation) over V1 (three).
        for t in &cited.tuples {
            assert_eq!(t.atoms.len(), 1);
            assert_eq!(t.atoms.iter().next().unwrap().view.as_str(), "V2");
        }
    }
}
