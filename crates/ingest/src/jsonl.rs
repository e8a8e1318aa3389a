//! Line-delimited JSON ingestion: the same batch contract as the CSV
//! reader over `*.jsonl` dumps.
//!
//! Dialect: the first line is a schema object mapping attribute names to
//! type names (`{"FID": "int", "FName": "text"}` — key order defines
//! column order); every following line is a value object with exactly
//! those keys (`{"FID": 1, "FName": "Calcitonin"}`). The JSON scanner is
//! in-tree (strings with standard escapes incl. `\uXXXX` pairs, integer
//! numbers, booleans) — no external JSON crate in the dependency set.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use citesys_cq::{Value, ValueType};
use citesys_storage::{Attribute, Digest, RelationSchema, StorageError, Tuple};

use crate::error::{io_err, IngestError};
use crate::reader::{HashCountRead, IngestConfig};

/// One scanned JSON value (the subset the dialect needs).
#[derive(Clone, PartialEq, Debug)]
enum Json {
    /// An integer number.
    Num(i64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

/// Streaming JSONL reader yielding typed tuple batches; see the module
/// docs for the dialect.
pub struct JsonlReader<R> {
    src: R,
    source: PathBuf,
    schema: RelationSchema,
    batch_size: usize,
    line: String,
    records: u64,
    batches: u64,
    done: bool,
}

impl JsonlReader<BufReader<HashCountRead<File>>> {
    /// Opens a JSONL file for streaming, hashing bytes as they flow.
    /// `key: None` infers a key over all columns in schema-line order.
    pub fn open_path(
        path: &Path,
        relation: &str,
        key: Option<&[usize]>,
        cfg: &IngestConfig,
    ) -> Result<Self, IngestError> {
        let f = File::open(path).map_err(io_err(path))?;
        let src = BufReader::new(HashCountRead::new(f));
        let mut r = JsonlReader::new(relation, key, src, cfg)?;
        r.source = path.to_path_buf();
        Ok(r)
    }

    /// Drains any unread tail and returns `(sha256, bytes)` of the source.
    pub fn finish(self) -> Result<(Digest, u64), std::io::Error> {
        let mut inner = self.src;
        std::io::copy(&mut inner, &mut std::io::sink())?;
        Ok(inner.into_inner().finish())
    }
}

impl<R: BufRead> JsonlReader<R> {
    /// Reads the schema line and prepares batch iteration.
    pub fn new(
        relation: &str,
        key: Option<&[usize]>,
        mut src: R,
        cfg: &IngestConfig,
    ) -> Result<Self, IngestError> {
        let source = PathBuf::from("<jsonl source>");
        let mut line = String::new();
        let n = src.read_line(&mut line).map_err(io_err(&source))?;
        if n == 0 {
            return Err(StorageError::UnknownRelation {
                name: format!("{relation}: empty jsonl"),
            }
            .into());
        }
        let pairs = parse_object(trim_line(&line))
            .map_err(|m| corrupt(&source, format!("schema line: {m}")))?;
        let mut attrs: Vec<Attribute> = Vec::new();
        for (name, v) in pairs {
            let ty = match v {
                Json::Str(s) => match s.parse::<ValueType>() {
                    Ok(ty) => ty,
                    Err(e) => {
                        return Err(StorageError::UnknownRelation {
                            name: format!("{relation}: {e}"),
                        }
                        .into())
                    }
                },
                _ => {
                    return Err(corrupt(
                        &source,
                        format!("schema line: '{name}' must map to a type name"),
                    ))
                }
            };
            if attrs.iter().any(|a| a.name.as_str() == name) {
                return Err(StorageError::DuplicateColumn {
                    relation: relation.to_string(),
                    attribute: name,
                }
                .into());
            }
            attrs.push(Attribute::new(name.as_str(), ty));
        }
        let key = match key {
            Some(k) => k.to_vec(),
            None => (0..attrs.len()).collect(),
        };
        Ok(JsonlReader {
            src,
            source,
            schema: RelationSchema::new(relation, attrs, key),
            batch_size: cfg.batch_size.max(1),
            line: String::new(),
            records: 0,
            batches: 0,
            done: false,
        })
    }

    /// The schema parsed from the schema line.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Data records delivered so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Batches delivered so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Next batch of up to `batch_size` tuples; `None` at end of input.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>, IngestError> {
        if self.done {
            return Ok(None);
        }
        let mut batch = Vec::new();
        while batch.len() < self.batch_size {
            self.line.clear();
            let n = self
                .src
                .read_line(&mut self.line)
                .map_err(io_err(&self.source))?;
            if n == 0 {
                self.done = true;
                break;
            }
            let body = trim_line(&self.line);
            if body.is_empty() {
                continue;
            }
            self.records += 1;
            let record_no = self.records;
            let pairs = parse_object(body)
                .map_err(|m| corrupt(&self.source, format!("record {record_no}: {m}")))?;
            batch.push(self.tuple_from(pairs, record_no)?);
        }
        if batch.is_empty() {
            Ok(None)
        } else {
            self.batches += 1;
            Ok(Some(batch))
        }
    }

    fn tuple_from(&self, pairs: Vec<(String, Json)>, record_no: u64) -> Result<Tuple, IngestError> {
        let fail = |message: String| {
            IngestError::Parse(StorageError::CsvRecord {
                relation: self.schema.name.to_string(),
                record: record_no as usize,
                message,
            })
        };
        if pairs.len() != self.schema.arity() {
            return Err(fail(format!(
                "expected {} fields, got {}",
                self.schema.arity(),
                pairs.len()
            )));
        }
        let mut values = vec![Value::Int(0); self.schema.arity()];
        for (name, v) in pairs {
            let pos = self
                .schema
                .position_of(&name)
                .ok_or_else(|| fail(format!("unknown field '{name}'")))?;
            let attr = &self.schema.attributes[pos];
            values[pos] = match (attr.ty, v) {
                (ValueType::Int, Json::Num(i)) => Value::Int(i),
                (ValueType::Text, Json::Str(s)) => Value::text(s.as_str()),
                (ValueType::Bool, Json::Bool(b)) => Value::Bool(b),
                (ty, got) => {
                    return Err(fail(format!("{name}: expected {ty}, got {got:?}")));
                }
            };
        }
        Ok(Tuple::new(values))
    }
}

fn trim_line(line: &str) -> &str {
    line.trim_end_matches(['\n', '\r'])
}

fn corrupt(path: &Path, message: String) -> IngestError {
    IngestError::Corrupt {
        path: path.to_path_buf(),
        message,
    }
}

/// Parses one JSON object line into ordered `(key, value)` pairs.
fn parse_object(input: &str) -> Result<Vec<(String, Json)>, String> {
    let mut chars = input.chars().peekable();
    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    let mut pairs = Vec::new();
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            expect(&mut chars, ':')?;
            skip_ws(&mut chars);
            let value = parse_value(&mut chars)?;
            pairs.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some(c) = chars.next() {
        return Err(format!("trailing content after object: '{c}'"));
    }
    Ok(pairs)
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some(' ' | '\t')) {
        chars.next();
    }
}

fn expect(chars: &mut Chars<'_>, want: char) -> Result<(), String> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        other => Err(format!("expected '{want}', got {other:?}")),
    }
}

fn parse_value(chars: &mut Chars<'_>) -> Result<Json, String> {
    match chars.peek() {
        Some('"') => parse_string(chars).map(Json::Str),
        Some('t') | Some('f') => {
            let mut word = String::new();
            while matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                word.push(chars.next().unwrap());
            }
            match word.as_str() {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                other => Err(format!("unknown literal '{other}'")),
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let mut num = String::new();
            if chars.peek() == Some(&'-') {
                num.push(chars.next().unwrap());
            }
            while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
                num.push(chars.next().unwrap());
            }
            num.parse::<i64>()
                .map(Json::Num)
                .map_err(|_| format!("bad integer '{num}'"))
        }
        other => Err(format!("unexpected value start {other:?}")),
    }
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('b') => out.push('\u{0008}'),
                Some('f') => out.push('\u{000C}'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hi = parse_hex4(chars)?;
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: expect \uDC00-\uDFFF next.
                        match (chars.next(), chars.next()) {
                            (Some('\\'), Some('u')) => {
                                let lo = parse_hex4(chars)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            }
                            _ => return Err("lone high surrogate".into()),
                        }
                    } else {
                        hi
                    };
                    out.push(char::from_u32(cp).ok_or("bad \\u escape")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

fn parse_hex4(chars: &mut Chars<'_>) -> Result<u32, String> {
    let mut v = 0u32;
    for _ in 0..4 {
        let c = chars.next().ok_or("truncated \\u escape")?;
        v = v * 16 + c.to_digit(16).ok_or("bad hex in \\u escape")?;
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(doc: &str, batch: usize) -> (RelationSchema, Vec<Tuple>) {
        let cfg = IngestConfig { batch_size: batch };
        let mut r = JsonlReader::new("R", None, doc.as_bytes(), &cfg).unwrap();
        let schema = r.schema().clone();
        let mut out = Vec::new();
        while let Some(b) = r.next_batch().unwrap() {
            out.extend(b);
        }
        (schema, out)
    }

    #[test]
    fn schema_line_and_values() {
        let doc = "{\"FID\": \"int\", \"FName\": \"text\", \"Ok\": \"bool\"}\n\
                   {\"FID\": 1, \"FName\": \"Calcitonin\", \"Ok\": true}\n\
                   {\"FName\": \"Dopamine\", \"FID\": -2, \"Ok\": false}\n";
        let (schema, tuples) = read_all(doc, 10);
        assert_eq!(schema.arity(), 3);
        assert_eq!(schema.key, vec![0, 1, 2]);
        assert_eq!(tuples.len(), 2);
        // Field order in the data line does not matter.
        assert_eq!(tuples[1].get(0).unwrap().as_int(), Some(-2));
        assert_eq!(tuples[1].get(1).unwrap().as_text(), Some("Dopamine"));
    }

    #[test]
    fn escapes_round_trip() {
        let doc =
            "{\"A\": \"text\"}\n{\"A\": \"line1\\nline2 \\\"q\\\" \\u00e9 \\ud83d\\ude00\"}\n";
        let (_, tuples) = read_all(doc, 10);
        assert_eq!(
            tuples[0].get(0).unwrap().as_text(),
            Some("line1\nline2 \"q\" é 😀")
        );
    }

    #[test]
    fn record_numbers_in_errors() {
        let doc = "{\"A\": \"int\"}\n{\"A\": 1}\n{\"A\": \"oops\"}\n";
        let cfg = IngestConfig { batch_size: 10 };
        let mut r = JsonlReader::new("R", None, doc.as_bytes(), &cfg).unwrap();
        let err = r.next_batch().unwrap_err();
        assert!(err.to_string().contains("record 2"), "{err}");
    }

    #[test]
    fn duplicate_schema_field_rejected() {
        let doc = "{\"A\": \"int\", \"A\": \"text\"}\n";
        let cfg = IngestConfig::default();
        let err = match JsonlReader::new("R", None, doc.as_bytes(), &cfg) {
            Err(e) => e,
            Ok(_) => panic!("duplicate schema field accepted"),
        };
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn wrong_fields_rejected() {
        let doc = "{\"A\": \"int\"}\n{\"B\": 1}\n";
        let cfg = IngestConfig::default();
        let mut r = JsonlReader::new("R", None, doc.as_bytes(), &cfg).unwrap();
        let err = r.next_batch().unwrap_err();
        assert!(err.to_string().contains("unknown field 'B'"), "{err}");
    }
}
