//! Citation snippets and citation functions.
//!
//! §2 of the paper: "The citation queries pull snippets of information from
//! the database to be included in the citation; the citation function takes
//! the output of the citation queries as input and outputs a citation in
//! some appropriate format."

use std::collections::BTreeMap;
use std::fmt;

use citesys_cq::{ConjunctiveQuery, Symbol, Term, Value};
use citesys_storage::QueryAnswer;

/// The structured output of a citation function: named fields with one or
/// more values each (e.g. `committee -> [Alice, Bob]`), tagged with the
/// view and parameter values it was generated for.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CitationSnippet {
    /// View that produced this snippet.
    pub view: Symbol,
    /// λ-parameter values the citation queries were instantiated with.
    pub params: Vec<Value>,
    /// Field name → values (sorted, deduplicated).
    pub fields: BTreeMap<String, Vec<String>>,
}

impl CitationSnippet {
    /// All values of one field (empty slice when absent).
    pub fn field(&self, name: &str) -> &[String] {
        self.fields.get(name).map_or(&[], Vec::as_slice)
    }

    /// Merges another snippet's fields into this one (used by the *join*
    /// interpretation of `·`).
    pub fn absorb(&mut self, other: &CitationSnippet) {
        for (k, vs) in &other.fields {
            let slot = self.fields.entry(k.clone()).or_default();
            for v in vs {
                if !slot.contains(v) {
                    slot.push(v.clone());
                }
            }
            slot.sort();
        }
    }
}

impl fmt::Display for CitationSnippet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.view)?;
        if !self.params.is_empty() {
            let ps: Vec<String> = self.params.iter().map(ToString::to_string).collect();
            write!(f, "({})", ps.join(", "))?;
        }
        write!(f, "]")?;
        for (i, (k, vs)) in self.fields.iter().enumerate() {
            write!(
                f,
                "{} {k}: {}",
                if i == 0 { "" } else { ";" },
                vs.join(", ")
            )?;
        }
        Ok(())
    }
}

/// A citation query with named output fields.
///
/// Field names default to the head variable names of the query (e.g.
/// `CV1(FID, PName) :- Committee(FID, PName)` yields fields `FID` and
/// `PName`); constant head positions get positional names.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CitationQuery {
    /// The conjunctive query pulling the snippet data.
    pub query: ConjunctiveQuery,
    /// One field name per head position.
    pub fields: Vec<String>,
}

impl CitationQuery {
    /// Builds a citation query with default field names.
    pub fn new(query: ConjunctiveQuery) -> Self {
        let fields = query
            .head
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                Term::Var(v) => v.to_string(),
                Term::Const(_) => format!("field{i}"),
            })
            .collect();
        CitationQuery { query, fields }
    }

    /// Builds a citation query with explicit field names (must match the
    /// head arity).
    pub fn with_fields(query: ConjunctiveQuery, fields: Vec<String>) -> Option<Self> {
        (fields.len() == query.arity()).then_some(CitationQuery { query, fields })
    }
}

/// A citation function: turns citation-query answers into a
/// [`CitationSnippet`]. Static fields (database name, license, year …) are
/// merged with the dynamic fields pulled by the citation queries.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CitationFunction {
    /// Fields attached verbatim to every snippet this function renders.
    pub static_fields: BTreeMap<String, String>,
}

impl CitationFunction {
    /// A function with no static fields.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a static field (builder style).
    pub fn with_static(mut self, field: impl Into<String>, value: impl Into<String>) -> Self {
        self.static_fields.insert(field.into(), value.into());
        self
    }

    /// Renders a snippet from instantiated citation-query answers.
    ///
    /// `answers` pairs each citation query's field names with its answer;
    /// every output tuple contributes its values to the corresponding
    /// fields (sorted, deduplicated) — e.g. all committee members of a
    /// family end up in one `PName` field.
    pub fn render(
        &self,
        view: &Symbol,
        params: &[Value],
        answers: &[(&[String], &QueryAnswer)],
    ) -> CitationSnippet {
        let mut fields: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (k, v) in &self.static_fields {
            fields.entry(k.clone()).or_default().push(v.clone());
        }
        for (names, answer) in answers {
            for row in &answer.rows {
                for (name, value) in names.iter().zip(row.tuple.values()) {
                    let slot = fields.entry(name.clone()).or_default();
                    let rendered = value.to_string();
                    if !slot.contains(&rendered) {
                        slot.push(rendered);
                    }
                }
            }
        }
        for vs in fields.values_mut() {
            vs.sort();
        }
        CitationSnippet {
            view: view.clone(),
            params: params.to_vec(),
            fields,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citesys_cq::parse_query;
    use citesys_cq::ValueType;
    use citesys_storage::{evaluate, tuple, Database, RelationSchema};

    fn committee_db() -> Database {
        let mut d = Database::new();
        d.create_relation(RelationSchema::from_parts(
            "Committee",
            &[("FID", ValueType::Int), ("PName", ValueType::Text)],
            &[0, 1],
        ))
        .unwrap();
        d.insert("Committee", tuple![11, "Bob"]).unwrap();
        d.insert("Committee", tuple![11, "Alice"]).unwrap();
        d.insert("Committee", tuple![12, "Carol"]).unwrap();
        d
    }

    #[test]
    fn citation_query_default_fields() {
        let cq = CitationQuery::new(
            parse_query("λ FID. CV1(FID, PName) :- Committee(FID, PName)").unwrap(),
        );
        assert_eq!(cq.fields, vec!["FID", "PName"]);
    }

    #[test]
    fn constant_head_positions_get_positional_names() {
        let cq = CitationQuery::new(parse_query("CV2(D) :- D = 'GtoPdb'").unwrap());
        assert_eq!(cq.fields, vec!["field0"]);
    }

    #[test]
    fn with_fields_checks_arity() {
        let q = parse_query("CV(A, B) :- R(A, B)").unwrap();
        assert!(CitationQuery::with_fields(q.clone(), vec!["x".into()]).is_none());
        let cq = CitationQuery::with_fields(q, vec!["x".into(), "y".into()]).unwrap();
        assert_eq!(cq.fields, vec!["x", "y"]);
    }

    #[test]
    fn render_collects_and_sorts_values() {
        let db = committee_db();
        let cq = CitationQuery::new(
            parse_query("λ FID. CV1(FID, PName) :- Committee(FID, PName)").unwrap(),
        );
        let inst = cq.query.instantiate(&[Value::Int(11)]).unwrap();
        let ans = evaluate(&db, &inst).unwrap();
        let f = CitationFunction::new().with_static("database", "GtoPdb");
        let snip = f.render(&Symbol::new("V1"), &[Value::Int(11)], &[(&cq.fields, &ans)]);
        assert_eq!(snip.field("PName"), ["Alice", "Bob"]);
        assert_eq!(snip.field("database"), ["GtoPdb"]);
        assert_eq!(snip.field("FID"), ["11"]);
        assert!(snip.field("missing").is_empty());
    }

    #[test]
    fn absorb_merges_fields() {
        let mut a = CitationSnippet {
            view: Symbol::new("V1"),
            params: vec![],
            fields: BTreeMap::from([("p".to_string(), vec!["x".to_string()])]),
        };
        let b = CitationSnippet {
            view: Symbol::new("V2"),
            params: vec![],
            fields: BTreeMap::from([
                ("p".to_string(), vec!["a".to_string(), "x".to_string()]),
                ("q".to_string(), vec!["z".to_string()]),
            ]),
        };
        a.absorb(&b);
        assert_eq!(a.field("p"), ["a", "x"]);
        assert_eq!(a.field("q"), ["z"]);
    }

    #[test]
    fn snippet_display() {
        let s = CitationSnippet {
            view: Symbol::new("V1"),
            params: vec![Value::Int(11)],
            fields: BTreeMap::from([("PName".to_string(), vec!["Alice".to_string()])]),
        };
        assert_eq!(s.to_string(), "[V1(11)] PName: Alice");
    }
}
