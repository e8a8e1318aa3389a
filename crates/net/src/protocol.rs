//! The shared command language and wire protocol.
//!
//! Every citesys front end — the script runner, the stdin REPL and the
//! TCP server — parses input lines through [`parse_command`] into the
//! same [`Command`] AST, so the surfaces cannot drift: a command that
//! works in a script file works verbatim over a network connection.
//!
//! The **wire protocol** is line-oriented and human-typable:
//!
//! ```text
//! S: citesys-net v1                        ← banner on connect
//! C: schema Family(FID:int, FName:text) key(0)
//! S: ok 1
//! S: schema Family (2 attributes)
//! C: bogus
//! S: err parse unknown command: bogus
//! ```
//!
//! Responses are framed as `ok <n>` followed by exactly `n` payload
//! lines, or a single `err <kind> <message>` line (`kind` is one of
//! `parse`, `citation`, `proto`, `readonly`). Requests are single lines
//! terminated by `\n` (a trailing `\r` is tolerated, so `telnet`/CRLF
//! clients work). Lines longer than [`MAX_LINE_BYTES`] are rejected
//! with a `proto` error instead of being buffered without bound.
//!
//! A connection can also switch into the **replication sub-protocol**:
//! a follower's first request line is `replica hello <version>
//! <setup-digest>`, after which the server streams [`ReplicaFrame`]s
//! (`ckpt`, `wal`, `ping`) on that connection for its lifetime instead
//! of command responses. The frames reuse the durable text codecs —
//! a `wal` frame's payload *is* a [`Changeset`] in its WAL text form,
//! a `ckpt` frame's sections are the checkpoint section texts.

use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::time::Instant;

use citesys_core::{
    CitationFormat, CitationFunction, CitationMode, CitationQuery, EngineOptions, PolicySet,
    RewritePolicy,
};
use citesys_cq::{parse_query, ConjunctiveQuery, Value, ValueType};
use citesys_storage::{Changeset, CheckpointData, Tuple};

/// The banner the server sends on connect; clients verify the prefix.
pub const BANNER: &str = "citesys-net v1";

/// Hard cap on a single protocol line (request or response payload
/// line). Oversized requests get an `err proto …` response.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A command-surface parse failure (always maps to the script language's
/// `Parse` error kind).
#[derive(Debug)]
pub struct ParseError {
    /// What was wrong with the line.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

fn perr(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

/// A parsed `view` command: the view definition, its citation queries
/// and the static citation-function fields.
#[derive(Clone, Debug)]
pub struct ViewSpec {
    /// The view's defining conjunctive query.
    pub view: ConjunctiveQuery,
    /// Citation queries attached with `| cite <rule>` clauses.
    pub cites: Vec<CitationQuery>,
    /// Static fields attached with `| static k=v` clauses.
    pub function: CitationFunction,
}

/// A parsed `cite` command: the query plus output format and engine
/// options.
#[derive(Clone, Debug)]
pub struct CiteSpec {
    /// The query to cite.
    pub query: ConjunctiveQuery,
    /// Output format for the aggregated citation.
    pub format: CitationFormat,
    /// Evaluation options (mode, policies, partial fallback).
    pub options: EngineOptions,
    /// Historical version to cite against (`cite … @ <version>`);
    /// `None` cites the latest committed version.
    pub as_of: Option<u64>,
}

/// One line of the command language, parsed.
///
/// `Quit` and `Shutdown` are session-control commands: the interactive
/// front ends (stdin REPL, TCP session) intercept them; inside a script
/// file they are errors.
#[derive(Clone, Debug)]
pub enum Command {
    /// `schema Name(attr:type, …) [key(i, …)]`
    Schema {
        /// Relation name.
        name: String,
        /// Attribute names and types, in order.
        attrs: Vec<(String, ValueType)>,
        /// Key attribute positions.
        key: Vec<usize>,
    },
    /// `insert Name(v, …)`
    Insert {
        /// Relation name.
        rel: String,
        /// The tuple to insert.
        tuple: Tuple,
    },
    /// `delete Name(v, …)`
    Delete {
        /// Relation name.
        rel: String,
        /// The tuple to delete.
        tuple: Tuple,
    },
    /// `view <rule> | cite <rule> … [| static k=v] …`
    View(ViewSpec),
    /// `begin` — open a transaction.
    Begin,
    /// `rollback` — discard the open transaction.
    Rollback,
    /// `commit` — seal pending changes as one version.
    Commit,
    /// `cite <query> [@ <version>] [| format f] [| mode m] [| policy p] [| partial]`
    Cite(CiteSpec),
    /// `verify` — re-check the last citation's fixity token.
    Verify,
    /// `snapshot [@] <version>` — print the fixity digest of the
    /// database as of a committed version (latest when omitted).
    Snapshot {
        /// The version to digest; `None` means the latest commit.
        version: Option<u64>,
    },
    /// `compact [<window>]` — checkpoint, then trim history older than
    /// the newest `window` versions (server default when omitted).
    Compact {
        /// Number of trailing versions to keep queryable.
        window: Option<u64>,
    },
    /// `tables` — list relations and row counts.
    Tables,
    /// `dump Name` — print a relation as CSV.
    Dump {
        /// Relation name.
        rel: String,
    },
    /// `load Name from '<path>' [key(i, …)]` — bulk-load CSV rows.
    Load {
        /// Relation name.
        rel: String,
        /// CSV file path.
        path: String,
        /// Key attribute positions; `None` infers header order when the
        /// load declares the relation.
        key: Option<Vec<usize>>,
    },
    /// `ingest '<dir>' [as <name>] [manifest '<path>'] [batch <n>]` —
    /// stream a directory of CSV/JSONL dumps into the store in
    /// changeset-sized batches and pin the load in the dataset registry.
    Ingest {
        /// Directory holding `<Relation>.csv` / `<Relation>.jsonl` dumps.
        dir: String,
        /// Dataset name (defaults to the directory's base name).
        dataset: Option<String>,
        /// Manifest path override (defaults to `<data-dir>/datasets.lock`).
        manifest: Option<String>,
        /// Records per committed batch (defaults to the ingest default).
        batch: Option<usize>,
    },
    /// `datasets` — list the registered dataset loads.
    Datasets,
    /// `dataset verify ['<manifest>']` — re-hash pinned sources and
    /// re-digest the store at each load's last version.
    DatasetVerify {
        /// Manifest path override (defaults to `<data-dir>/datasets.lock`).
        manifest: Option<String>,
    },
    /// `trace` — arm a derivation trace for the next `cite`.
    Trace,
    /// `stats` — print the store's commit/swap and cache counters.
    Stats,
    /// `metrics` — print the full metrics registry in Prometheus text
    /// exposition format (the `serve --metrics` scrape payload).
    Metrics,
    /// `checkpoint` — snapshot the durable store (data, registry, views,
    /// plans) and reset the write-ahead log. Requires `--data-dir`.
    Checkpoint,
    /// `quit` — end the interactive session.
    Quit,
    /// `shutdown` — end the session AND stop the server it talks to.
    Shutdown,
}

/// Parses one input line into a [`Command`]. Comments (`#`, outside
/// single-quoted strings) are stripped; blank lines parse to `None`.
pub fn parse_command(raw: &str) -> Result<Option<Command>, ParseError> {
    let line = strip_comment(raw).trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (head, rest) = line.split_once(' ').unwrap_or((line, ""));
    let cmd = match head {
        "schema" => parse_schema(rest)?,
        "insert" => {
            let (rel, tuple) = parse_ground_atom(rest).map_err(perr)?;
            Command::Insert { rel, tuple }
        }
        "delete" => {
            let (rel, tuple) = parse_ground_atom(rest).map_err(perr)?;
            Command::Delete { rel, tuple }
        }
        "view" => Command::View(parse_view(rest)?),
        "begin" => Command::Begin,
        "rollback" => Command::Rollback,
        "commit" => Command::Commit,
        "cite" => Command::Cite(parse_cite(rest)?),
        "verify" => Command::Verify,
        "snapshot" => Command::Snapshot {
            version: parse_optional_version(rest)?,
        },
        "compact" => Command::Compact {
            window: parse_optional_version(rest)?,
        },
        "tables" => Command::Tables,
        "dump" => Command::Dump {
            rel: rest.trim().to_string(),
        },
        "load" => parse_load(rest)?,
        "ingest" => parse_ingest(rest)?,
        "datasets" => {
            if !rest.trim().is_empty() {
                return Err(perr("expected: datasets"));
            }
            Command::Datasets
        }
        "dataset" => {
            let rest = rest.trim();
            let tail = rest
                .strip_prefix("verify")
                .ok_or_else(|| perr("expected: dataset verify ['<manifest>']"))?
                .trim();
            Command::DatasetVerify {
                manifest: parse_optional_quoted(tail, "dataset verify ['<manifest>']")?,
            }
        }
        "trace" => Command::Trace,
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "checkpoint" => Command::Checkpoint,
        "quit" => Command::Quit,
        "shutdown" => Command::Shutdown,
        other => return Err(perr(format!("unknown command: {other}"))),
    };
    Ok(Some(cmd))
}

// schema Family(FID:int, FName:text, Desc:text) key(0, 1)
fn parse_schema(rest: &str) -> Result<Command, ParseError> {
    let (name, after) = rest
        .split_once('(')
        .ok_or_else(|| perr("expected Name(attr:type, …)"))?;
    let (attrs_str, tail) = after.split_once(')').ok_or_else(|| perr("missing ')'"))?;
    let mut attrs = Vec::new();
    for part in attrs_str.split(',') {
        let (n, t) = part
            .trim()
            .split_once(':')
            .ok_or_else(|| perr(format!("attribute '{part}' lacks ':type'")))?;
        let ty = match t.trim() {
            "int" => ValueType::Int,
            "text" => ValueType::Text,
            "bool" => ValueType::Bool,
            other => return Err(perr(format!("unknown type '{other}'"))),
        };
        attrs.push((n.trim().to_string(), ty));
    }
    let mut key = Vec::new();
    let tail = tail.trim();
    if let Some(k) = tail.strip_prefix("key(") {
        let inner = k
            .strip_suffix(')')
            .ok_or_else(|| perr("missing ')' in key"))?;
        for idx in inner.split(',') {
            let i: usize = idx
                .trim()
                .parse()
                .map_err(|_| perr(format!("bad key position '{idx}'")))?;
            if i >= attrs.len() {
                return Err(perr(format!("key position {i} out of range")));
            }
            key.push(i);
        }
    } else if !tail.is_empty() {
        return Err(perr(format!("unexpected trailing input: '{tail}'")));
    }
    Ok(Command::Schema {
        name: name.trim().to_string(),
        attrs,
        key,
    })
}

// load Family from '/dumps/Family.csv' key(0)
fn parse_load(rest: &str) -> Result<Command, ParseError> {
    let (name, after) = rest
        .trim()
        .split_once(" from ")
        .ok_or_else(|| perr("expected: load <Relation> from '<path>' [key(i, …)]"))?;
    let after = after.trim();
    let (path_part, key) = match after.rfind(" key(") {
        Some(idx) => (
            after[..idx].trim(),
            Some(parse_key_positions(after[idx + 1..].trim())?),
        ),
        None => (after, None),
    };
    Ok(Command::Load {
        rel: name.trim().to_string(),
        path: path_part.trim_matches('\'').to_string(),
        key,
    })
}

// key(0, 1) — positions only; range checking happens against the header.
fn parse_key_positions(spec: &str) -> Result<Vec<usize>, ParseError> {
    let inner = spec
        .strip_prefix("key(")
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| perr("expected key(i, …)"))?;
    let mut key = Vec::new();
    for idx in inner.split(',') {
        key.push(
            idx.trim()
                .parse::<usize>()
                .map_err(|_| perr(format!("bad key position '{idx}'")))?,
        );
    }
    Ok(key)
}

// ingest '/dumps/gtopdb' as gtopdb manifest '/data/datasets.lock' batch 50000
fn parse_ingest(rest: &str) -> Result<Command, ParseError> {
    let rest = rest.trim();
    let usage = "expected: ingest '<dir>' [as <name>] [manifest '<path>'] [batch <n>]";
    let (dir, mut tail) = take_quoted(rest).ok_or_else(|| perr(usage))?;
    let mut dataset = None;
    let mut manifest = None;
    let mut batch = None;
    while !tail.is_empty() {
        let (word, after) = tail.split_once(' ').unwrap_or((tail, ""));
        match word {
            "as" => {
                let (name, more) = after.trim().split_once(' ').unwrap_or((after.trim(), ""));
                if name.is_empty() {
                    return Err(perr("'as' needs a dataset name"));
                }
                dataset = Some(name.to_string());
                tail = more.trim();
            }
            "manifest" => {
                let (p, more) =
                    take_quoted(after.trim()).ok_or_else(|| perr("'manifest' needs a '<path>'"))?;
                manifest = Some(p);
                tail = more;
            }
            "batch" => {
                let (n, more) = after.trim().split_once(' ').unwrap_or((after.trim(), ""));
                let n: usize = n
                    .parse()
                    .map_err(|_| perr(format!("bad batch size '{n}'")))?;
                if n == 0 {
                    return Err(perr("batch size must be positive"));
                }
                batch = Some(n);
                tail = more.trim();
            }
            other => return Err(perr(format!("unknown ingest clause '{other}'; {usage}"))),
        }
    }
    Ok(Command::Ingest {
        dir,
        dataset,
        manifest,
        batch,
    })
}

/// Takes a leading `'…'`-quoted string, returning it and the trimmed
/// remainder.
fn take_quoted(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('\'')?;
    let end = rest.find('\'')?;
    Some((rest[..end].to_string(), rest[end + 1..].trim()))
}

/// An optional single `'…'`-quoted argument (whole-input form).
fn parse_optional_quoted(s: &str, usage: &str) -> Result<Option<String>, ParseError> {
    if s.is_empty() {
        return Ok(None);
    }
    match take_quoted(s) {
        Some((q, "")) => Ok(Some(q)),
        _ => Err(perr(format!("expected: {usage}"))),
    }
}

// view <rule> | cite <rule> [| cite <rule>] [| static k=v]...
fn parse_view(rest: &str) -> Result<ViewSpec, ParseError> {
    let mut parts = rest.split('|').map(str::trim);
    let view_rule = parts.next().ok_or_else(|| perr("missing view rule"))?;
    let view = parse_query(view_rule).map_err(|e| perr(e.to_string()))?;
    let mut cites = Vec::new();
    let mut function = CitationFunction::new();
    for part in parts {
        if let Some(rule) = part.strip_prefix("cite ") {
            let q = parse_query(rule.trim()).map_err(|e| perr(e.to_string()))?;
            // Constant single-column citation queries (the paper's CV2
            // pattern) get the friendlier field name "citation".
            let cq = if q.is_constant() && q.arity() == 1 {
                CitationQuery::with_fields(q, vec!["citation".to_string()]).expect("arity checked")
            } else {
                CitationQuery::new(q)
            };
            cites.push(cq);
        } else if let Some(kv) = part.strip_prefix("static ") {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| perr(format!("static '{kv}' lacks '='")))?;
            function = function.with_static(k.trim(), v.trim());
        } else {
            return Err(perr(format!("unknown view clause: '{part}'")));
        }
    }
    Ok(ViewSpec {
        view,
        cites,
        function,
    })
}

/// Parses the bare/`@`-prefixed version argument of `snapshot` and
/// `compact`; empty input means "use the default".
fn parse_optional_version(rest: &str) -> Result<Option<u64>, ParseError> {
    let arg = rest.trim().trim_start_matches('@').trim();
    if arg.is_empty() {
        return Ok(None);
    }
    arg.parse::<u64>()
        .map(Some)
        .map_err(|_| perr(format!("expected a version number, got '{arg}'")))
}

/// Splits a trailing `@ <version>` suffix off a cite rule. Only an
/// all-digit tail after the **last** `@` counts, so `@` inside quoted
/// constants (or λ-syntax) can never be mistaken for a version.
fn split_as_of(rule: &str) -> Result<(&str, Option<u64>), ParseError> {
    let Some(idx) = rule.rfind('@') else {
        return Ok((rule, None));
    };
    let tail = rule[idx + 1..].trim();
    if idx == 0 || tail.is_empty() || !tail.bytes().all(|b| b.is_ascii_digit()) {
        return Ok((rule, None));
    }
    let version = tail
        .parse::<u64>()
        .map_err(|_| perr(format!("version '{tail}' out of range")))?;
    Ok((rule[..idx].trim_end(), Some(version)))
}

// cite <rule> [@ <version>] [| format f] [| mode m] [| policy p] [| partial]
fn parse_cite(rest: &str) -> Result<CiteSpec, ParseError> {
    let mut parts = rest.split('|').map(str::trim);
    let rule = parts.next().ok_or_else(|| perr("missing query"))?;
    let (rule, as_of) = split_as_of(rule)?;
    let query = parse_query(rule).map_err(|e| perr(e.to_string()))?;
    let mut format = CitationFormat::Text;
    let mut options = EngineOptions {
        mode: CitationMode::Formal,
        ..Default::default()
    };
    for part in parts {
        match part.split_once(' ').map(|(a, b)| (a, b.trim())) {
            Some(("format", f)) => {
                format = match f {
                    "text" => CitationFormat::Text,
                    "bibtex" => CitationFormat::BibTex,
                    "ris" => CitationFormat::Ris,
                    "xml" => CitationFormat::Xml,
                    "json" => CitationFormat::Json,
                    "csl" => CitationFormat::CslJson,
                    other => return Err(perr(format!("unknown format '{other}'"))),
                }
            }
            Some(("mode", m)) => {
                options.mode = match m {
                    "formal" => CitationMode::Formal,
                    "pruned" => CitationMode::CostPruned,
                    other => return Err(perr(format!("unknown mode '{other}'"))),
                }
            }
            Some(("policy", p)) => {
                options.policies = PolicySet {
                    rewritings: match p {
                        "minsize" => RewritePolicy::MinSize,
                        "union" => RewritePolicy::Union,
                        "first" => RewritePolicy::First,
                        other => return Err(perr(format!("unknown policy '{other}'"))),
                    },
                    ..Default::default()
                }
            }
            None if part == "partial" => options.allow_partial = true,
            _ => return Err(perr(format!("unknown cite clause: '{part}'"))),
        }
    }
    Ok(CiteSpec {
        query,
        format,
        options,
        as_of,
    })
}

/// Strips a `#` comment, ignoring `#` inside single-quoted strings (with
/// `\'` escapes, matching the value parser) so `insert Note(1, 'bug #42')`
/// survives intact.
pub fn strip_comment(raw: &str) -> &str {
    let mut in_quote = false;
    let mut escaped = false;
    for (i, c) in raw.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quote => escaped = true,
            '\'' => in_quote = !in_quote,
            '#' if !in_quote => return &raw[..i],
            _ => {}
        }
    }
    raw
}

/// Parses `Name(v1, v2, …)` with int / quoted-text / bool values.
pub fn parse_ground_atom(input: &str) -> Result<(String, Tuple), String> {
    let (name, after) = input
        .split_once('(')
        .ok_or_else(|| "expected Name(values…)".to_string())?;
    let inner = after
        .trim_end()
        .strip_suffix(')')
        .ok_or_else(|| "missing ')'".to_string())?;
    let mut values = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let (v, remainder) = parse_value(rest)?;
        values.push(v);
        rest = remainder.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("expected ',' before '{rest}'"));
        }
    }
    Ok((name.trim().to_string(), Tuple::new(values)))
}

fn parse_value(input: &str) -> Result<(Value, &str), String> {
    let input = input.trim_start();
    if let Some(rest) = input.strip_prefix('\'') {
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, n)) = chars.next() {
                        out.push(n);
                    }
                }
                '\'' => return Ok((Value::from(out), &rest[i + 1..])),
                other => out.push(other),
            }
        }
        Err("unterminated string".into())
    } else if let Some(rest) = input.strip_prefix("true") {
        Ok((Value::Bool(true), rest))
    } else if let Some(rest) = input.strip_prefix("false") {
        Ok((Value::Bool(false), rest))
    } else {
        let end = input
            .find(|c: char| c == ',' || c.is_whitespace())
            .unwrap_or(input.len());
        let n: i64 = input[..end]
            .parse()
            .map_err(|_| format!("bad value '{}'", &input[..end]))?;
        Ok((Value::Int(n), &input[end..]))
    }
}

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

/// Error class carried in an `err` response line. Clients map these to
/// the CLI's exit codes (`parse` → 3, `citation` → 4, `readonly` → 4,
/// `proto` → 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireErrorKind {
    /// The request line is malformed (script parse error).
    Parse,
    /// A well-formed command failed at the data/citation layer.
    Citation,
    /// A protocol-level failure (oversized line, idle timeout, …).
    Proto,
    /// The command mutates state but this server is a read-only
    /// replica; the message names the primary address to write to.
    Readonly,
}

impl WireErrorKind {
    /// The token written on the wire.
    pub fn token(self) -> &'static str {
        match self {
            WireErrorKind::Parse => "parse",
            WireErrorKind::Citation => "citation",
            WireErrorKind::Proto => "proto",
            WireErrorKind::Readonly => "readonly",
        }
    }

    /// Parses a wire token back into a kind.
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "parse" => Some(WireErrorKind::Parse),
            "citation" => Some(WireErrorKind::Citation),
            "proto" => Some(WireErrorKind::Proto),
            "readonly" => Some(WireErrorKind::Readonly),
            _ => None,
        }
    }
}

/// One framed server response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// Success, with the command's output lines.
    Ok(Vec<String>),
    /// Failure, with the error class and a single-line message.
    Err {
        /// Error class (drives client exit codes).
        kind: WireErrorKind,
        /// Human-readable message (newlines collapsed).
        message: String,
    },
}

impl Response {
    /// Builds an `Ok` response from an interpreter's accumulated output
    /// (splitting on newlines; a trailing newline adds no empty line).
    pub fn from_output(out: &str) -> Response {
        if out.is_empty() {
            return Response::Ok(Vec::new());
        }
        Response::Ok(out.lines().map(str::to_string).collect())
    }
}

/// Writes one framed response (`ok <n>` + payload, or `err …`).
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_tagged_response(w, None, resp)
}

/// Splits an optional request tag off a raw command line.
///
/// A tag is `@` followed by one or more non-space characters, separated
/// from the command by a single space: `@t7 cite Q() :- R(A)` is the
/// command `cite Q() :- R(A)` tagged `t7`, and its response frame
/// echoes the tag (`ok @t7 <n>` / `err @t7 <kind> <msg>`). A bare `@`
/// or `@ …` carries no tag and is handed to the parser unchanged, so
/// untagged traffic — including any line that could parse today — is
/// byte-for-byte unaffected.
pub fn split_tag(line: &str) -> (Option<&str>, &str) {
    let Some(rest) = line.strip_prefix('@') else {
        return (None, line);
    };
    let (tag, body) = match rest.split_once(' ') {
        Some((tag, body)) => (tag, body),
        None => (rest, ""),
    };
    if tag.is_empty() || tag.contains(char::is_whitespace) {
        return (None, line);
    }
    (Some(tag), body)
}

/// Writes one framed response, echoing the request's tag (if any) right
/// after the `ok`/`err` keyword: `ok @<tag> <n>` / `err @<tag> <kind>
/// <msg>`. With `tag = None` this is exactly [`write_response`].
pub fn write_tagged_response(
    w: &mut impl Write,
    tag: Option<&str>,
    resp: &Response,
) -> io::Result<()> {
    let tagged = match tag {
        Some(t) => format!("@{t} "),
        None => String::new(),
    };
    match resp {
        Response::Ok(lines) => {
            writeln!(w, "ok {tagged}{}", lines.len())?;
            for l in lines {
                w.write_all(l.as_bytes())?;
                w.write_all(b"\n")?;
            }
        }
        Response::Err { kind, message } => {
            let one_line = message.replace(['\n', '\r'], "; ");
            writeln!(w, "err {tagged}{} {}", kind.token(), one_line)?;
        }
    }
    w.flush()
}

/// Reads one framed response. Returns `None` at clean EOF before a
/// header; a malformed header or truncated payload is an
/// `InvalidData` error. Any echoed tag is accepted and discarded; use
/// [`read_tagged_response`] to observe it.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Option<Response>> {
    Ok(read_tagged_response(r)?.map(|(_tag, resp)| resp))
}

/// Reads one framed response together with its echoed request tag
/// (`None` for untagged frames). EOF and error behavior match
/// [`read_response`].
pub fn read_tagged_response(
    r: &mut impl BufRead,
) -> io::Result<Option<(Option<String>, Response)>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let header = header.trim_end_matches(['\n', '\r']);
    if let Some(rest) = header.strip_prefix("ok ") {
        let (tag, rest) = split_response_tag(rest);
        let n: usize = rest
            .trim()
            .parse()
            .map_err(|_| bad_frame(format!("bad ok count '{rest}'")))?;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            let mut l = String::new();
            if r.read_line(&mut l)? == 0 {
                return Err(bad_frame("truncated ok payload"));
            }
            lines.push(l.trim_end_matches(['\n', '\r']).to_string());
        }
        Ok(Some((tag, Response::Ok(lines))))
    } else if let Some(rest) = header.strip_prefix("err ") {
        let (tag, rest) = split_response_tag(rest);
        let (token, message) = rest.split_once(' ').unwrap_or((rest, ""));
        let kind = WireErrorKind::from_token(token)
            .ok_or_else(|| bad_frame(format!("unknown error kind '{token}'")))?;
        Ok(Some((
            tag,
            Response::Err {
                kind,
                message: message.to_string(),
            },
        )))
    } else {
        Err(bad_frame(format!("bad response header '{header}'")))
    }
}

/// Peels an echoed `@tag ` off a response header's remainder. Frames
/// never start the count or error-kind token with `@`, so the prefix is
/// unambiguous.
fn split_response_tag(rest: &str) -> (Option<String>, &str) {
    if let Some(r) = rest.strip_prefix('@') {
        if let Some((tag, after)) = r.split_once(' ') {
            if !tag.is_empty() {
                return (Some(tag.to_string()), after);
            }
        }
    }
    (None, rest)
}

fn bad_frame(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

// ---------------------------------------------------------------------------
// Capped line reading
// ---------------------------------------------------------------------------

/// Outcome of one [`LineReader::read_line`] call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LineRead {
    /// A complete line (terminator stripped; CRLF tolerated).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The current line exceeded the cap before its terminator arrived.
    Oversized,
}

/// An incremental, capped line reader over any [`Read`].
///
/// Unlike `BufRead::read_line` it (a) enforces a byte cap so a
/// malicious or broken client cannot make the server buffer without
/// bound, and (b) keeps partial-line state **across calls**, so a
/// would-block or timeout mid-line (a nonblocking server socket, a
/// follower's read deadline) or a line split across TCP segments
/// resumes exactly where it left off.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    /// Bytes received but not yet assigned to a line.
    buf: Vec<u8>,
    /// The current (incomplete) line.
    line: Vec<u8>,
    cap: usize,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner` with a per-line cap of `cap` bytes.
    pub fn new(inner: R, cap: usize) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            line: Vec::new(),
            cap,
        }
    }

    /// Reads until a full line, EOF, the cap, or an I/O error (timeouts
    /// included — partial input survives the error and the next call
    /// continues the same line).
    pub fn read_line(&mut self) -> io::Result<LineRead> {
        self.read_line_deadline(None)
    }

    /// Like [`read_line`](Self::read_line), but gives up with
    /// [`io::ErrorKind::TimedOut`] once `deadline` passes. The deadline
    /// is checked before every underlying read, so a client trickling
    /// bytes without ever completing a line cannot hold the reader past
    /// it (plain socket read timeouts only fire on full silence).
    /// Partial input survives; a later call continues the same line.
    pub fn read_line_deadline(&mut self, deadline: Option<Instant>) -> io::Result<LineRead> {
        loop {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                self.line.extend_from_slice(&self.buf[..i]);
                self.buf.drain(..=i);
                if self.line.len() > self.cap {
                    self.line.clear();
                    return Ok(LineRead::Oversized);
                }
                return Ok(LineRead::Line(self.take_line()));
            }
            self.line.append(&mut self.buf);
            if self.line.len() > self.cap {
                // Leave the oversized flag decided; the caller is
                // expected to drop the connection (resyncing would mean
                // reading the rest of an unbounded line).
                return Ok(LineRead::Oversized);
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "line deadline exceeded",
                    ));
                }
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.line.is_empty() {
                        return Ok(LineRead::Eof);
                    }
                    // Final line without a terminator.
                    return Ok(LineRead::Line(self.take_line()));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }

    fn take_line(&mut self) -> String {
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        let s = String::from_utf8_lossy(&self.line).into_owned();
        self.line.clear();
        s
    }
}

// ---------------------------------------------------------------------------
// Replication sub-protocol framing
// ---------------------------------------------------------------------------

/// The request-line prefix that switches a connection into the
/// replication sub-protocol. Full form:
/// `replica hello <version> <setup-digest>`.
pub const REPLICA_HELLO: &str = "replica hello";

/// Formats a follower's hello line: its local version and its setup
/// digest (a hash over schemas + registry; the primary ships a full
/// `ckpt` frame instead of incremental `wal` frames when it differs).
pub fn format_replica_hello(version: u64, setup_digest: &str) -> String {
    format!("{REPLICA_HELLO} {version} {setup_digest}")
}

/// Parses the arguments of a hello line (everything after
/// [`REPLICA_HELLO`]). Returns `(version, setup_digest)`.
pub fn parse_replica_hello(rest: &str) -> Result<(u64, String), String> {
    let rest = rest.trim();
    let (version, digest) = rest
        .split_once(' ')
        .ok_or_else(|| format!("bad replica hello '{rest}': want '<version> <digest>'"))?;
    let version: u64 = version
        .parse()
        .map_err(|_| format!("bad replica version '{version}'"))?;
    let digest = digest.trim();
    if digest.is_empty() || digest.contains(' ') {
        return Err(format!("bad setup digest '{digest}'"));
    }
    Ok((version, digest.to_string()))
}

/// One frame on a replication feed (primary → follower).
///
/// ```text
/// ckpt <version> <n-sections>          full checkpoint bootstrap
///   section <name> <n-lines>           … per section, then its text
///   …
/// wal <version> <n-lines>              one committed changeset
///   citesys-changeset v1               (the Changeset text codec)
///   i Family(12, 'Dopamine', 'D1')
/// ping <version>                       idle heartbeat: primary's
///                                      latest version, for lag
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplicaFrame {
    /// Full-state bootstrap: the primary's assembled checkpoint.
    Ckpt(CheckpointData),
    /// One committed version's changeset, in commit order.
    Wal {
        /// The version this changeset seals.
        version: u64,
        /// The ops, reusing the WAL text codec on the wire.
        changes: Changeset,
    },
    /// Heartbeat carrying the primary's latest version (lets an idle
    /// follower compute its lag without traffic).
    Ping {
        /// The primary's latest committed version.
        version: u64,
    },
}

/// Splits a text payload into the lines written on the wire (the text
/// codecs all emit `\n`-terminated lines; an empty text is 0 lines).
fn payload_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
}

/// Writes one replication frame. Multi-line payloads are written line
/// by line under a counted header, so the stream stays line-oriented
/// (and a [`LineReader`] on the far side reassembles frames that TCP
/// split mid-line).
pub fn write_replica_frame(w: &mut impl Write, frame: &ReplicaFrame) -> io::Result<()> {
    match frame {
        ReplicaFrame::Ping { version } => writeln!(w, "ping {version}")?,
        ReplicaFrame::Wal { version, changes } => {
            let text = changes.to_text();
            writeln!(w, "wal {version} {}", payload_lines(&text).count())?;
            for line in payload_lines(&text) {
                writeln!(w, "{line}")?;
            }
        }
        ReplicaFrame::Ckpt(data) => {
            writeln!(w, "ckpt {} {}", data.version, data.sections.len())?;
            for (name, text) in &data.sections {
                writeln!(w, "section {name} {}", payload_lines(text).count())?;
                for line in payload_lines(text) {
                    writeln!(w, "{line}")?;
                }
            }
        }
    }
    w.flush()
}

/// Reads the payload of a frame whose header line the caller already
/// consumed, then returns the whole frame. `header` is the raw header
/// line; payload lines are pulled from `reader` until complete or
/// `deadline` passes (transient timeouts before the deadline retry, so
/// a frame trickling in across many TCP segments still assembles).
pub fn read_replica_frame<R: Read>(
    header: &str,
    reader: &mut LineReader<R>,
    deadline: Instant,
) -> io::Result<ReplicaFrame> {
    fn parse_counts(rest: &str, what: &str) -> io::Result<(u64, usize)> {
        let (v, n) = rest
            .split_once(' ')
            .ok_or_else(|| bad_frame(format!("bad {what} header '{rest}'")))?;
        let v = v
            .parse()
            .map_err(|_| bad_frame(format!("bad {what} version '{v}'")))?;
        let n = n
            .trim()
            .parse()
            .map_err(|_| bad_frame(format!("bad {what} line count '{n}'")))?;
        Ok((v, n))
    }
    fn read_payload<R: Read>(
        reader: &mut LineReader<R>,
        n: usize,
        deadline: Instant,
    ) -> io::Result<String> {
        let mut text = String::new();
        for _ in 0..n {
            loop {
                match reader.read_line_deadline(Some(deadline)) {
                    Ok(LineRead::Line(l)) => {
                        text.push_str(&l);
                        text.push('\n');
                        break;
                    }
                    Ok(LineRead::Eof) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream ended mid-frame",
                        ))
                    }
                    Ok(LineRead::Oversized) => {
                        return Err(bad_frame("oversized frame payload line"))
                    }
                    // A socket read timeout before the deadline is a
                    // trickle, not a failure: keep assembling.
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) && Instant::now() < deadline => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(text)
    }

    if let Some(rest) = header.strip_prefix("ping ") {
        let version = rest
            .trim()
            .parse()
            .map_err(|_| bad_frame(format!("bad ping version '{rest}'")))?;
        return Ok(ReplicaFrame::Ping { version });
    }
    if let Some(rest) = header.strip_prefix("wal ") {
        let (version, n) = parse_counts(rest, "wal")?;
        let text = read_payload(reader, n, deadline)?;
        let changes = Changeset::from_text(&text)
            .map_err(|e| bad_frame(format!("bad wal frame changeset: {e}")))?;
        return Ok(ReplicaFrame::Wal { version, changes });
    }
    if let Some(rest) = header.strip_prefix("ckpt ") {
        let (version, n_sections) = parse_counts(rest, "ckpt")?;
        let mut sections = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let header = loop {
                match reader.read_line_deadline(Some(deadline)) {
                    Ok(LineRead::Line(l)) => break l,
                    Ok(LineRead::Eof) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream ended mid-checkpoint",
                        ))
                    }
                    Ok(LineRead::Oversized) => return Err(bad_frame("oversized section header")),
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) && Instant::now() < deadline => {}
                    Err(e) => return Err(e),
                }
            };
            let rest = header
                .strip_prefix("section ")
                .ok_or_else(|| bad_frame(format!("bad section header '{header}'")))?;
            let (name, n) = rest
                .split_once(' ')
                .ok_or_else(|| bad_frame(format!("bad section header '{header}'")))?;
            let n: usize = n
                .trim()
                .parse()
                .map_err(|_| bad_frame(format!("bad section line count '{n}'")))?;
            sections.push((name.to_string(), read_payload(reader, n, deadline)?));
        }
        return Ok(ReplicaFrame::Ckpt(CheckpointData { version, sections }));
    }
    Err(bad_frame(format!("bad replication frame '{header}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        let cmd = parse_command("schema R(A:int, B:text) key(0)")
            .unwrap()
            .unwrap();
        match cmd {
            Command::Schema { name, attrs, key } => {
                assert_eq!(name, "R");
                assert_eq!(attrs.len(), 2);
                assert_eq!(key, vec![0]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_command("insert R(1, 'x')").unwrap().unwrap(),
            Command::Insert { .. }
        ));
        assert!(matches!(
            parse_command("begin").unwrap().unwrap(),
            Command::Begin
        ));
        assert!(matches!(
            parse_command("stats").unwrap().unwrap(),
            Command::Stats
        ));
        assert!(matches!(
            parse_command("metrics").unwrap().unwrap(),
            Command::Metrics
        ));
        assert!(matches!(
            parse_command("quit").unwrap().unwrap(),
            Command::Quit
        ));
        assert!(matches!(
            parse_command("shutdown").unwrap().unwrap(),
            Command::Shutdown
        ));
        assert!(parse_command("   # just a comment").unwrap().is_none());
        assert!(parse_command("").unwrap().is_none());
        assert!(parse_command("bogus").is_err());
    }

    #[test]
    fn load_parses_optional_key() {
        match parse_command("load Family from '/tmp/Family.csv'")
            .unwrap()
            .unwrap()
        {
            Command::Load { rel, path, key } => {
                assert_eq!(rel, "Family");
                assert_eq!(path, "/tmp/Family.csv");
                assert_eq!(key, None);
            }
            other => panic!("{other:?}"),
        }
        match parse_command("load Family from '/tmp/Family.csv' key(0, 2)")
            .unwrap()
            .unwrap()
        {
            Command::Load { key, .. } => assert_eq!(key, Some(vec![0, 2])),
            other => panic!("{other:?}"),
        }
        assert!(parse_command("load Family '/x.csv'").is_err());
        assert!(parse_command("load Family from '/x.csv' key(a)").is_err());
    }

    #[test]
    fn ingest_and_dataset_commands_parse() {
        match parse_command("ingest '/dumps/gtopdb'").unwrap().unwrap() {
            Command::Ingest {
                dir,
                dataset,
                manifest,
                batch,
            } => {
                assert_eq!(dir, "/dumps/gtopdb");
                assert_eq!(dataset, None);
                assert_eq!(manifest, None);
                assert_eq!(batch, None);
            }
            other => panic!("{other:?}"),
        }
        match parse_command("ingest '/d' as gtopdb manifest '/data/datasets.lock' batch 50000")
            .unwrap()
            .unwrap()
        {
            Command::Ingest {
                dir,
                dataset,
                manifest,
                batch,
            } => {
                assert_eq!(dir, "/d");
                assert_eq!(dataset.as_deref(), Some("gtopdb"));
                assert_eq!(manifest.as_deref(), Some("/data/datasets.lock"));
                assert_eq!(batch, Some(50_000));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_command("ingest /unquoted").is_err());
        assert!(parse_command("ingest '/d' batch 0").is_err());
        assert!(parse_command("ingest '/d' bogus").is_err());
        assert!(matches!(
            parse_command("datasets").unwrap().unwrap(),
            Command::Datasets
        ));
        assert!(parse_command("datasets extra").is_err());
        match parse_command("dataset verify").unwrap().unwrap() {
            Command::DatasetVerify { manifest } => assert_eq!(manifest, None),
            other => panic!("{other:?}"),
        }
        match parse_command("dataset verify '/data/datasets.lock'")
            .unwrap()
            .unwrap()
        {
            Command::DatasetVerify { manifest } => {
                assert_eq!(manifest.as_deref(), Some("/data/datasets.lock"))
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_command("dataset drop x").is_err());
    }

    #[test]
    fn cite_spec_parses_options() {
        let spec = match parse_command("cite Q(A) :- R(A) | format bibtex | mode pruned | partial")
            .unwrap()
            .unwrap()
        {
            Command::Cite(spec) => spec,
            other => panic!("{other:?}"),
        };
        assert_eq!(spec.format, CitationFormat::BibTex);
        assert_eq!(spec.options.mode, CitationMode::CostPruned);
        assert!(spec.options.allow_partial);
    }

    #[test]
    fn view_spec_parses_clauses() {
        let spec = match parse_command(
            "view V(A) :- R(A) | cite CV(D) :- D = 'x' | static database=GtoPdb",
        )
        .unwrap()
        .unwrap()
        {
            Command::View(spec) => spec,
            other => panic!("{other:?}"),
        };
        assert_eq!(spec.view.name(), "V");
        assert_eq!(spec.cites.len(), 1);
    }

    #[test]
    fn responses_round_trip() {
        let mut wire = Vec::new();
        write_response(&mut wire, &Response::Ok(vec!["a".into(), "b".into()])).unwrap();
        write_response(
            &mut wire,
            &Response::Err {
                kind: WireErrorKind::Citation,
                message: "multi\nline".into(),
            },
        )
        .unwrap();
        write_response(&mut wire, &Response::Ok(vec![])).unwrap();
        let mut r = io::BufReader::new(&wire[..]);
        assert_eq!(
            read_response(&mut r).unwrap().unwrap(),
            Response::Ok(vec!["a".to_string(), "b".to_string()])
        );
        assert_eq!(
            read_response(&mut r).unwrap().unwrap(),
            Response::Err {
                kind: WireErrorKind::Citation,
                message: "multi; line".into()
            }
        );
        assert_eq!(
            read_response(&mut r).unwrap().unwrap(),
            Response::Ok(vec![])
        );
        assert!(read_response(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn malformed_frames_rejected() {
        let mut r = io::BufReader::new(&b"ok nope\n"[..]);
        assert!(read_response(&mut r).is_err());
        let mut r = io::BufReader::new(&b"err weird boom\n"[..]);
        assert!(read_response(&mut r).is_err());
        let mut r = io::BufReader::new(&b"hello\n"[..]);
        assert!(read_response(&mut r).is_err());
        let mut r = io::BufReader::new(&b"ok 2\nonly-one\n"[..]);
        assert!(read_response(&mut r).is_err(), "truncated payload");
    }

    #[test]
    fn request_tags_split_off_cleanly() {
        assert_eq!(
            split_tag("@t7 cite Q() :- R(A)"),
            (Some("t7"), "cite Q() :- R(A)")
        );
        assert_eq!(split_tag("@1 commit"), (Some("1"), "commit"));
        assert_eq!(split_tag("@solo"), (Some("solo"), ""));
        assert_eq!(split_tag("tables"), (None, "tables"));
        assert_eq!(split_tag(""), (None, ""));
        assert_eq!(split_tag("@"), (None, "@"), "bare @ is not a tag");
        assert_eq!(
            split_tag("@ tables"),
            (None, "@ tables"),
            "empty tag rejected"
        );
    }

    #[test]
    fn tagged_responses_round_trip_and_untagged_stay_identical() {
        let mut wire: Vec<u8> = Vec::new();
        write_tagged_response(&mut wire, Some("a1"), &Response::Ok(vec!["x".into()])).unwrap();
        write_tagged_response(
            &mut wire,
            Some("a2"),
            &Response::Err {
                kind: WireErrorKind::Proto,
                message: "line\ntoo long".into(),
            },
        )
        .unwrap();
        write_tagged_response(&mut wire, None, &Response::Ok(vec![])).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&wire),
            "ok @a1 1\nx\nerr @a2 proto line; too long\nok 0\n"
        );
        let mut r = io::BufReader::new(&wire[..]);
        assert_eq!(
            read_tagged_response(&mut r).unwrap().unwrap(),
            (Some("a1".into()), Response::Ok(vec!["x".into()]))
        );
        assert_eq!(
            read_tagged_response(&mut r).unwrap().unwrap(),
            (
                Some("a2".into()),
                Response::Err {
                    kind: WireErrorKind::Proto,
                    message: "line; too long".into(),
                }
            )
        );
        assert_eq!(
            read_tagged_response(&mut r).unwrap().unwrap(),
            (None, Response::Ok(vec![]))
        );
        assert!(read_tagged_response(&mut r).unwrap().is_none());

        // Untagged writes are byte-identical to the pre-tag framing,
        // and the plain reader tolerates (and discards) echoed tags.
        let mut plain: Vec<u8> = Vec::new();
        write_response(&mut plain, &Response::Ok(vec!["y".into()])).unwrap();
        assert_eq!(String::from_utf8_lossy(&plain), "ok 1\ny\n");
        let mut r = io::BufReader::new(&b"ok @z 1\ny\n"[..]);
        assert_eq!(
            read_response(&mut r).unwrap().unwrap(),
            Response::Ok(vec!["y".into()])
        );
    }

    /// A reader that hands out its bytes in tiny chunks — a TCP stream
    /// fragmenting one logical line across many segments.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn line_reader_reassembles_split_reads() {
        let r = Trickle {
            data: b"schema R(A:int)\r\ninsert R(1)\nlast",
            pos: 0,
            chunk: 3,
        };
        let mut lr = LineReader::new(r, MAX_LINE_BYTES);
        assert_eq!(
            lr.read_line().unwrap(),
            LineRead::Line("schema R(A:int)".into()),
            "CRLF stripped across 3-byte segments"
        );
        assert_eq!(
            lr.read_line().unwrap(),
            LineRead::Line("insert R(1)".into())
        );
        assert_eq!(lr.read_line().unwrap(), LineRead::Line("last".into()));
        assert_eq!(lr.read_line().unwrap(), LineRead::Eof);
    }

    #[test]
    fn line_reader_caps_unterminated_lines() {
        // A 100-byte "line" with no newline in sight and a 10-byte cap:
        // the reader must report Oversized instead of buffering forever.
        let data = [b'x'; 100];
        let mut lr = LineReader::new(&data[..], 10);
        assert_eq!(lr.read_line().unwrap(), LineRead::Oversized);
        // A terminated-but-oversized line is also rejected.
        let mut data = vec![b'y'; 50];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut lr = LineReader::new(&data[..], 10);
        assert_eq!(lr.read_line().unwrap(), LineRead::Oversized);
    }

    #[test]
    fn line_reader_deadline_bounds_trickled_lines() {
        // A client dripping bytes that never complete a line defeats a
        // silence-based timeout (every read succeeds); the explicit
        // deadline must end the read anyway, with partial input kept.
        struct Drip;
        impl Read for Drip {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf[0] = b'x';
                Ok(1)
            }
        }
        let mut lr = LineReader::new(Drip, 1 << 20);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(20);
        let e = lr.read_line_deadline(Some(deadline)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        // No deadline: the cap still bounds the read.
        let mut lr = LineReader::new(Drip, 64);
        assert_eq!(lr.read_line().unwrap(), LineRead::Oversized);
    }

    #[test]
    fn line_reader_survives_interrupting_errors() {
        // An error (e.g. a read timeout) mid-line must not lose the
        // partial input: the next call finishes the same line.
        struct Flaky {
            step: usize,
        }
        impl Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.step += 1;
                match self.step {
                    1 => {
                        buf[..4].copy_from_slice(b"tabl");
                        Ok(4)
                    }
                    2 => Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout")),
                    3 => {
                        buf[..3].copy_from_slice(b"es\n");
                        Ok(3)
                    }
                    _ => Ok(0),
                }
            }
        }
        let mut lr = LineReader::new(Flaky { step: 0 }, MAX_LINE_BYTES);
        assert_eq!(
            lr.read_line().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(lr.read_line().unwrap(), LineRead::Line("tables".into()));
    }

    #[test]
    fn ground_atom_parser() {
        let (name, t) = parse_ground_atom("R(1, 'a\\'b', true, -5)").unwrap();
        assert_eq!(name, "R");
        assert_eq!(t.arity(), 4);
        assert_eq!(t.get(1).unwrap().as_text(), Some("a'b"));
        assert_eq!(t.get(2).unwrap().as_bool(), Some(true));
        assert_eq!(t.get(3).unwrap().as_int(), Some(-5));
        assert!(parse_ground_atom("R(1").is_err());
        assert!(parse_ground_atom("R(1 2)").is_err());
        assert!(parse_ground_atom("R('open)").is_err());
    }

    #[test]
    fn comments_respect_quotes() {
        assert_eq!(
            strip_comment("insert R('a\\'#b') # c"),
            "insert R('a\\'#b') "
        );
        assert_eq!(strip_comment("# whole line"), "");
        assert_eq!(strip_comment("no comment"), "no comment");
    }

    #[test]
    fn replica_hello_round_trips() {
        let line = format_replica_hello(42, "abcd1234");
        assert_eq!(line, "replica hello 42 abcd1234");
        let rest = line.strip_prefix(REPLICA_HELLO).unwrap();
        assert_eq!(
            parse_replica_hello(rest).unwrap(),
            (42, "abcd1234".to_string())
        );
        assert!(parse_replica_hello("42").is_err(), "digest required");
        assert!(parse_replica_hello("x y").is_err(), "numeric version");
        assert!(parse_replica_hello("1 a b").is_err(), "one digest token");
    }

    fn frame_fixture() -> Vec<ReplicaFrame> {
        let mut changes = Changeset::new();
        changes
            .insert("Family", citesys_storage::tuple![12, "Dopamine", "D1"])
            .delete("Family", citesys_storage::tuple![11, "Calcitonin", "C1"]);
        vec![
            ReplicaFrame::Ping { version: 7 },
            ReplicaFrame::Wal {
                version: 3,
                changes,
            },
            ReplicaFrame::Ckpt(CheckpointData {
                version: 2,
                sections: vec![
                    (
                        "database".into(),
                        "citesys-versioned v1\nversion 2\n".into(),
                    ),
                    ("registry".into(), String::new()),
                ],
            }),
            // An empty changeset still frames (a version can net to
            // zero ops — delete-then-reinsert).
            ReplicaFrame::Wal {
                version: 4,
                changes: Changeset::new(),
            },
        ]
    }

    fn read_frames(bytes: &[u8], chunk: usize) -> Vec<ReplicaFrame> {
        // Trickle `chunk` bytes per read: every frame header and
        // payload line gets split across many "TCP segments".
        let r = Trickle {
            data: bytes,
            pos: 0,
            chunk,
        };
        let mut lr = LineReader::new(r, MAX_LINE_BYTES);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut out = Vec::new();
        loop {
            match lr.read_line_deadline(Some(deadline)).unwrap() {
                LineRead::Line(header) => {
                    out.push(read_replica_frame(&header, &mut lr, deadline).unwrap())
                }
                LineRead::Eof => return out,
                LineRead::Oversized => panic!("oversized"),
            }
        }
    }

    #[test]
    fn replica_frames_round_trip_across_split_segments() {
        let frames = frame_fixture();
        let mut bytes = Vec::new();
        for f in &frames {
            write_replica_frame(&mut bytes, f).unwrap();
        }
        // Whole-buffer reads and pathological 1-, 2- and 3-byte
        // segments must all reassemble identical frames.
        for chunk in [usize::MAX, 1, 2, 3] {
            assert_eq!(read_frames(&bytes, chunk), frames, "chunk {chunk}");
        }
    }

    #[test]
    fn replica_frame_rejects_garbage() {
        let mut lr = LineReader::new(io::empty(), MAX_LINE_BYTES);
        let deadline = Instant::now() + std::time::Duration::from_secs(1);
        assert!(read_replica_frame("bogus 1 2", &mut lr, deadline).is_err());
        assert!(read_replica_frame("wal x 2", &mut lr, deadline).is_err());
        // A wal frame whose payload ends early is UnexpectedEof.
        let err = read_replica_frame("wal 3 2", &mut lr, deadline).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
