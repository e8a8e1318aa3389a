//! Citation rendering: "human readable, BibTex, RIS or XML" (§2), plus
//! JSON for machine consumption.
//!
//! Formatters are generic over snippet fields. A few well-known field names
//! get special placement (`author`-like fields become author lists, `title`
//! becomes the title); everything else is carried in notes/keyword slots so
//! no curated information is dropped.

use std::borrow::Borrow;

use crate::fixity::FixityToken;
use crate::snippet::CitationSnippet;

/// Output formats for citations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CitationFormat {
    /// One human-readable line per snippet.
    Text,
    /// One `@misc` BibTeX entry per snippet.
    BibTex,
    /// RIS records (`TY - DBASE … ER -`).
    Ris,
    /// A `<citations>` XML document.
    Xml,
    /// A JSON array of snippet objects.
    Json,
    /// CSL-JSON (citeproc interchange): one `dataset`-type item per
    /// snippet, consumable by Zotero/pandoc/citeproc processors.
    CslJson,
}

/// Field names treated as contributor/author lists.
const AUTHOR_FIELDS: [&str; 6] = [
    "author",
    "authors",
    "PName",
    "CName",
    "Curator",
    "contributors",
];
/// Field names treated as the citation title.
const TITLE_FIELDS: [&str; 3] = ["title", "citation", "database"];

/// Rendering options.
///
/// §3 *Size of citations*: "when there is an extended author list (more
/// than 3 authors), we use 'et al' to abbreviate". `max_authors` applies
/// exactly that convention to contributor lists pulled from the database.
#[derive(Clone, Copy, Debug)]
pub struct FormatOptions {
    /// Keep at most this many contributors, appending "et al." beyond.
    /// `None` keeps everyone.
    pub max_authors: Option<usize>,
}

impl Default for FormatOptions {
    fn default() -> Self {
        // The paper's convention: abbreviate beyond three authors.
        FormatOptions {
            max_authors: Some(3),
        }
    }
}

impl FormatOptions {
    /// Keep every contributor (no abbreviation).
    pub fn unabridged() -> Self {
        FormatOptions { max_authors: None }
    }
}

fn authors_of(s: &CitationSnippet) -> Vec<String> {
    let mut out = Vec::new();
    for f in AUTHOR_FIELDS {
        out.extend(s.field(f).iter().cloned());
    }
    out.sort();
    out.dedup();
    out
}

/// Applies the "et al." convention to an author list.
fn abbreviate(mut authors: Vec<String>, opts: &FormatOptions) -> Vec<String> {
    if let Some(max) = opts.max_authors {
        if authors.len() > max {
            authors.truncate(max);
            authors.push("et al.".to_string());
        }
    }
    authors
}

fn title_of(s: &CitationSnippet) -> String {
    for f in TITLE_FIELDS {
        if let Some(first) = s.field(f).first() {
            return first.clone();
        }
    }
    format!("View {}", s.view)
}

fn other_fields(s: &CitationSnippet) -> Vec<(String, String)> {
    s.fields
        .iter()
        .filter(|(k, _)| {
            !AUTHOR_FIELDS.contains(&k.as_str()) && !TITLE_FIELDS.contains(&k.as_str())
        })
        .map(|(k, vs)| (k.clone(), vs.join(", ")))
        .collect()
}

fn key_of(s: &CitationSnippet, i: usize) -> String {
    let params: Vec<String> = s.params.iter().map(ToString::to_string).collect();
    if params.is_empty() {
        format!("{}_{i}", s.view)
    } else {
        format!("{}_{}", s.view, params.join("_"))
    }
}

/// Renders a list of snippets (one citation) in the requested format with
/// default options (the paper's 3-author "et al." convention), optionally
/// embedding the fixity token.
///
/// ```
/// use citesys_core::paper;
/// use citesys_core::{format_citation, CitationFormat, CitationMode,
///                    CitationService};
///
/// let service = CitationService::builder()
///     .database(paper::paper_database())
///     .registry(paper::paper_registry())
///     .mode(CitationMode::Formal)
///     .build()
///     .unwrap();
/// let cited = service.cite(&paper::paper_query()).unwrap();
/// let bib = format_citation(
///     &cited.tuples[0].snippets, None, CitationFormat::BibTex);
/// assert!(bib.starts_with("@misc{"));
/// assert!(bib.contains("IUPHAR/BPS Guide to PHARMACOLOGY..."));
/// ```
pub fn format_citation<S: Borrow<CitationSnippet>>(
    snippets: &[S],
    fixity: Option<&FixityToken>,
    format: CitationFormat,
) -> String {
    format_citation_with(snippets, fixity, format, &FormatOptions::default())
}

/// Renders with explicit [`FormatOptions`]. Like
/// [`format_citation`], it takes owned or shared snippets (`&[CitationSnippet]`
/// or the `&[Arc<CitationSnippet>]` a [`CitedAnswer`](crate::CitedAnswer)
/// holds).
pub fn format_citation_with<S: Borrow<CitationSnippet>>(
    snippets: &[S],
    fixity: Option<&FixityToken>,
    format: CitationFormat,
    opts: &FormatOptions,
) -> String {
    let snippets: Vec<&CitationSnippet> = snippets.iter().map(Borrow::borrow).collect();
    let snippets = snippets.as_slice();
    match format {
        CitationFormat::Text => text(snippets, fixity, opts),
        CitationFormat::BibTex => bibtex(snippets, fixity, opts),
        CitationFormat::Ris => ris(snippets, fixity, opts),
        CitationFormat::Xml => xml(snippets, fixity),
        CitationFormat::Json => json(snippets, fixity),
        CitationFormat::CslJson => csl_json(snippets, fixity, opts),
    }
}

fn text(
    snippets: &[&CitationSnippet],
    fixity: Option<&FixityToken>,
    opts: &FormatOptions,
) -> String {
    let mut out = String::new();
    for s in snippets {
        let authors = abbreviate(authors_of(s), opts);
        if !authors.is_empty() {
            out.push_str(&authors.join(", "));
            out.push_str(". ");
        }
        out.push_str(&title_of(s));
        for (k, v) in other_fields(s) {
            out.push_str(&format!(". {k}: {v}"));
        }
        if !s.params.is_empty() {
            let ps: Vec<String> = s.params.iter().map(ToString::to_string).collect();
            out.push_str(&format!(" [{}({})]", s.view, ps.join(", ")));
        }
        out.push('\n');
    }
    if let Some(t) = fixity {
        out.push_str(&format!(
            "Retrieved as: version {}, sha256 {}\n",
            t.version, t.digest
        ));
    }
    out
}

fn bibtex_escape(s: &str) -> String {
    s.replace('{', "\\{").replace('}', "\\}")
}

fn bibtex(
    snippets: &[&CitationSnippet],
    fixity: Option<&FixityToken>,
    opts: &FormatOptions,
) -> String {
    let mut out = String::new();
    for (i, s) in snippets.iter().enumerate() {
        out.push_str(&format!("@misc{{{},\n", key_of(s, i)));
        let authors = abbreviate(authors_of(s), opts);
        if !authors.is_empty() {
            out.push_str(&format!(
                "  author = {{{}}},\n",
                bibtex_escape(&authors.join(" and "))
            ));
        }
        out.push_str(&format!("  title = {{{}}},\n", bibtex_escape(&title_of(s))));
        for (k, v) in other_fields(s) {
            out.push_str(&format!(
                "  note = {{{}: {}}},\n",
                bibtex_escape(&k),
                bibtex_escape(&v)
            ));
        }
        if let Some(t) = fixity {
            out.push_str(&format!(
                "  howpublished = {{version {}, sha256 {}}},\n",
                t.version, t.digest
            ));
        }
        out.push_str("}\n");
    }
    out
}

fn ris(
    snippets: &[&CitationSnippet],
    fixity: Option<&FixityToken>,
    opts: &FormatOptions,
) -> String {
    let mut out = String::new();
    for s in snippets {
        out.push_str("TY  - DBASE\n");
        for a in abbreviate(authors_of(s), opts) {
            out.push_str(&format!("AU  - {a}\n"));
        }
        out.push_str(&format!("TI  - {}\n", title_of(s)));
        for (k, v) in other_fields(s) {
            out.push_str(&format!("KW  - {k}: {v}\n"));
        }
        if let Some(t) = fixity {
            out.push_str(&format!("VL  - {}\n", t.version));
            out.push_str(&format!("N1  - sha256 {}\n", t.digest));
        }
        out.push_str("ER  -\n");
    }
    out
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn xml(snippets: &[&CitationSnippet], fixity: Option<&FixityToken>) -> String {
    let mut out = String::from("<citations>\n");
    for s in snippets {
        out.push_str(&format!(
            "  <citation view=\"{}\">\n",
            xml_escape(s.view.as_str())
        ));
        for p in &s.params {
            out.push_str(&format!(
                "    <param>{}</param>\n",
                xml_escape(&p.to_string())
            ));
        }
        for (k, vs) in &s.fields {
            out.push_str(&format!("    <field name=\"{}\">\n", xml_escape(k)));
            for v in vs {
                out.push_str(&format!("      <value>{}</value>\n", xml_escape(v)));
            }
            out.push_str("    </field>\n");
        }
        out.push_str("  </citation>\n");
    }
    if let Some(t) = fixity {
        out.push_str(&format!(
            "  <fixity version=\"{}\" sha256=\"{}\" query=\"{}\"/>\n",
            t.version,
            t.digest,
            xml_escape(&t.query)
        ));
    }
    out.push_str("</citations>\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json(snippets: &[&CitationSnippet], fixity: Option<&FixityToken>) -> String {
    let mut out = String::from("{\"citations\":[");
    for (i, s) in snippets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"view\":\"{}\",\"params\":[",
            json_escape(s.view.as_str())
        ));
        for (j, p) in s.params.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json_escape(&p.to_string())));
        }
        out.push_str("],\"fields\":{");
        for (j, (k, vs)) in s.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":[", json_escape(k)));
            for (l, v) in vs.iter().enumerate() {
                if l > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", json_escape(v)));
            }
            out.push(']');
        }
        out.push_str("}}");
    }
    out.push(']');
    if let Some(t) = fixity {
        out.push_str(&format!(
            ",\"fixity\":{{\"version\":{},\"sha256\":\"{}\",\"query\":\"{}\"}}",
            t.version,
            t.digest,
            json_escape(&t.query)
        ));
    }
    out.push('}');
    out
}

/// CSL-JSON: an array of citeproc items. Each snippet becomes a `dataset`
/// item with `author` (literal names), `title`, `id`, and the fixity data
/// in `version`/`note`.
fn csl_json(
    snippets: &[&CitationSnippet],
    fixity: Option<&FixityToken>,
    opts: &FormatOptions,
) -> String {
    let mut out = String::from("[");
    for (i, s) in snippets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"type\":\"dataset\",\"id\":\"{}\"",
            json_escape(&key_of(s, i))
        ));
        let authors = abbreviate(authors_of(s), opts);
        if !authors.is_empty() {
            out.push_str(",\"author\":[");
            for (j, a) in authors.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"literal\":\"{}\"}}", json_escape(a)));
            }
            out.push(']');
        }
        out.push_str(&format!(",\"title\":\"{}\"", json_escape(&title_of(s))));
        let extras: Vec<String> = other_fields(s)
            .iter()
            .map(|(k, v)| format!("{k}: {v}"))
            .collect();
        if !extras.is_empty() {
            out.push_str(&format!(
                ",\"note\":\"{}\"",
                json_escape(&extras.join("; "))
            ));
        }
        if let Some(t) = fixity {
            out.push_str(&format!(
                ",\"version\":\"{}\",\"DOI\":null,\"custom\":{{\"sha256\":\"{}\",\"query\":\"{}\"}}",
                t.version,
                t.digest,
                json_escape(&t.query)
            ));
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use citesys_cq::{Symbol, Value};
    use citesys_storage::sha256;
    use std::collections::BTreeMap;

    fn snippet() -> CitationSnippet {
        CitationSnippet {
            view: Symbol::new("V1"),
            params: vec![Value::Int(11)],
            fields: BTreeMap::from([
                (
                    "PName".to_string(),
                    vec!["Alice".to_string(), "Bob".to_string()],
                ),
                ("database".to_string(), vec!["GtoPdb".to_string()]),
                ("year".to_string(), vec!["2017".to_string()]),
            ]),
        }
    }

    fn token() -> FixityToken {
        FixityToken {
            version: 3,
            query: "Q(X) :- R(X, 'a\"b')".to_string(),
            digest: sha256(b"abc"),
        }
    }

    #[test]
    fn text_format() {
        let out = format_citation(&[snippet()], Some(&token()), CitationFormat::Text);
        assert!(out.contains("Alice, Bob. GtoPdb"));
        assert!(out.contains("year: 2017"));
        assert!(out.contains("[V1(11)]"));
        assert!(out.contains("version 3"));
    }

    #[test]
    fn bibtex_format() {
        let out = format_citation(&[snippet()], Some(&token()), CitationFormat::BibTex);
        assert!(out.starts_with("@misc{V1_11,"));
        assert!(out.contains("author = {Alice and Bob}"));
        assert!(out.contains("title = {GtoPdb}"));
        assert!(out.contains("note = {year: 2017}"));
        assert!(out.contains("howpublished = {version 3"));
        assert!(out.trim_end().ends_with('}'));
    }

    #[test]
    fn ris_format() {
        let out = format_citation(&[snippet()], Some(&token()), CitationFormat::Ris);
        assert!(out.starts_with("TY  - DBASE\n"));
        assert!(out.contains("AU  - Alice\nAU  - Bob\n"));
        assert!(out.contains("TI  - GtoPdb\n"));
        assert!(out.contains("VL  - 3\n"));
        assert!(out.ends_with("ER  -\n"));
    }

    #[test]
    fn xml_format_escapes() {
        let out = format_citation(&[snippet()], Some(&token()), CitationFormat::Xml);
        assert!(out.contains("<citation view=\"V1\">"));
        assert!(out.contains("<param>11</param>"));
        assert!(out.contains("<value>Alice</value>"));
        // The query contains a double quote, which must be escaped.
        assert!(out.contains("&quot;"));
        assert!(out.ends_with("</citations>\n"));
    }

    #[test]
    fn json_format_escapes_and_parses_shapewise() {
        let out = format_citation(&[snippet()], Some(&token()), CitationFormat::Json);
        assert!(out.starts_with("{\"citations\":["));
        assert!(out.contains("\"view\":\"V1\""));
        assert!(out.contains("\\\"")); // escaped quote from the query
        assert!(out.ends_with('}'));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = out.matches('{').count();
        let closes = out.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }

    #[test]
    fn empty_snippets_render_empty_but_valid() {
        for fmt in [
            CitationFormat::Text,
            CitationFormat::BibTex,
            CitationFormat::Ris,
            CitationFormat::Xml,
            CitationFormat::Json,
        ] {
            let out = format_citation::<CitationSnippet>(&[], None, fmt);
            // No panics, and XML/JSON are still well-formed containers.
            if fmt == CitationFormat::Xml {
                assert!(out.contains("<citations>"));
            }
            if fmt == CitationFormat::Json {
                assert_eq!(out, "{\"citations\":[]}");
            }
        }
    }

    #[test]
    fn csl_json_shape() {
        let out = format_citation(&[snippet()], Some(&token()), CitationFormat::CslJson);
        assert!(out.starts_with("[{\"type\":\"dataset\""));
        assert!(out.contains("\"author\":[{\"literal\":\"Alice\"},{\"literal\":\"Bob\"}]"));
        assert!(out.contains("\"title\":\"GtoPdb\""));
        assert!(out.contains("\"note\":\"year: 2017\""));
        assert!(out.contains("\"version\":\"3\""));
        assert!(out.contains("\"sha256\":"));
        assert!(out.ends_with("}]"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        // Empty list is valid CSL-JSON too.
        assert_eq!(
            format_citation::<CitationSnippet>(&[], None, CitationFormat::CslJson),
            "[]"
        );
    }

    #[test]
    fn et_al_abbreviation() {
        // Six contributors; the paper's convention keeps 3 + "et al.".
        let s = CitationSnippet {
            view: Symbol::new("V1"),
            params: vec![],
            fields: BTreeMap::from([(
                "PName".to_string(),
                vec!["A", "B", "C", "D", "E", "F"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
            )]),
        };
        let out = format_citation(std::slice::from_ref(&s), None, CitationFormat::Text);
        assert!(out.contains("A, B, C, et al."), "{out}");
        assert!(!out.contains("D,"));
        // Unabridged keeps everyone.
        let full = format_citation_with(
            std::slice::from_ref(&s),
            None,
            CitationFormat::Text,
            &FormatOptions::unabridged(),
        );
        assert!(full.contains("A, B, C, D, E, F"));
        // BibTeX joins with " and ".
        let bib = format_citation(std::slice::from_ref(&s), None, CitationFormat::BibTex);
        assert!(bib.contains("A and B and C and et al."));
        // RIS keeps one AU line each including the et-al marker.
        let ris = format_citation(&[s], None, CitationFormat::Ris);
        assert_eq!(ris.matches("AU  - ").count(), 4);
    }

    #[test]
    fn exactly_max_authors_not_abbreviated() {
        let s = CitationSnippet {
            view: Symbol::new("V1"),
            params: vec![],
            fields: BTreeMap::from([(
                "PName".to_string(),
                vec!["A".to_string(), "B".to_string(), "C".to_string()],
            )]),
        };
        let out = format_citation(&[s], None, CitationFormat::Text);
        assert!(out.contains("A, B, C."));
        assert!(!out.contains("et al."));
    }

    #[test]
    fn title_falls_back_to_view_name() {
        let s = CitationSnippet {
            view: Symbol::new("V9"),
            params: vec![],
            fields: BTreeMap::new(),
        };
        let out = format_citation(&[s], None, CitationFormat::Text);
        assert!(out.contains("View V9"));
    }
}
