//! CSV import/export for relations — the interchange format curated
//! databases actually publish dumps in.
//!
//! Dialect: comma-separated, `"`-quoted fields with `""` escaping, one
//! header row with `name:type` columns, embedded newlines inside quotes,
//! CRLF tolerated outside quotes. Implemented in-tree (no csv crate in the
//! allowed dependency set) as one line-fed scanner, [`RecordScanner`]:
//! [`from_csv`] feeds it a whole document, the streaming reader in
//! `citesys-ingest` feeds it one `read_line` at a time.

use citesys_cq::{Value, ValueType};

use crate::database::Database;
use crate::error::StorageError;
use crate::relation::Relation;
use crate::schema::{Attribute, RelationSchema};
use crate::tuple::Tuple;

/// Serializes a relation to CSV (header row of `name:type`, then data).
pub fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    out.push_str(&csv_header(rel.schema()));
    out.push('\n');
    let mut rows: Vec<&Tuple> = rel.scan().collect();
    rows.sort();
    for t in rows {
        let cells: Vec<String> = t.values().iter().map(render_csv_value).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Renders one value as a CSV cell (text is quoted, scalars are bare).
pub fn render_csv_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Text(s) => csv_quote(s.as_str()),
    }
}

/// Quotes a string as a CSV cell (`"` doubled, surrounding quotes added).
pub fn csv_quote(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

/// Renders the `name:type` header row for a schema.
pub fn csv_header(schema: &RelationSchema) -> String {
    let cells: Vec<String> = schema
        .attributes
        .iter()
        .map(|a| csv_quote(&format!("{}:{}", a.name, a.ty)))
        .collect();
    cells.join(",")
}

/// Parses the header record (`name:type` cells) into attributes,
/// rejecting duplicate column names.
pub fn parse_csv_header(name: &str, header: &[String]) -> Result<Vec<Attribute>, StorageError> {
    let mut attrs: Vec<Attribute> = Vec::new();
    for cell in header {
        let (attr_name, ty) =
            cell.rsplit_once(':')
                .ok_or_else(|| StorageError::UnknownRelation {
                    name: format!("{name}: header cell '{cell}' lacks ':type'"),
                })?;
        let ty = match ty {
            "int" => ValueType::Int,
            "text" => ValueType::Text,
            "bool" => ValueType::Bool,
            other => {
                return Err(StorageError::UnknownRelation {
                    name: format!("{name}: unknown type '{other}'"),
                })
            }
        };
        if attrs.iter().any(|a| a.name.as_str() == attr_name) {
            return Err(StorageError::DuplicateColumn {
                relation: name.to_string(),
                attribute: attr_name.to_string(),
            });
        }
        attrs.push(Attribute::new(attr_name, ty));
    }
    Ok(attrs)
}

/// Parses one data record against a schema. `record_no` is the 1-based
/// data record number (header excluded) used in error messages.
pub fn parse_csv_record(
    schema: &RelationSchema,
    record: &[String],
    record_no: usize,
) -> Result<Tuple, StorageError> {
    let fail = |message: String| StorageError::CsvRecord {
        relation: schema.name.to_string(),
        record: record_no,
        message,
    };
    if record.len() != schema.arity() {
        return Err(fail(format!(
            "expected {} values, got {}",
            schema.arity(),
            record.len()
        )));
    }
    let mut values = Vec::with_capacity(record.len());
    for (cell, attr) in record.iter().zip(&schema.attributes) {
        values.push(parse_value(cell, attr).map_err(fail)?);
    }
    Ok(Tuple::new(values))
}

/// Parses a CSV document into `(schema, tuples)`; `name` becomes the
/// relation name, `key` the key positions.
pub fn from_csv(
    name: &str,
    key: &[usize],
    input: &str,
) -> Result<(RelationSchema, Vec<Tuple>), StorageError> {
    let mut scanner = RecordScanner::new();
    let mut lines = input.split_inclusive('\n');
    let mut records = std::iter::from_fn(move || {
        lines
            .find_map(|line| scanner.feed_line(line))
            .or_else(|| scanner.flush())
    })
    .filter(|record| !RecordScanner::is_blank(record));
    let header = records
        .next()
        .ok_or_else(|| StorageError::UnknownRelation {
            name: format!("{name}: empty csv"),
        })?;
    let attrs = parse_csv_header(name, &header)?;
    let schema = RelationSchema::new(name, attrs, key.to_vec());
    let tuples = records
        .enumerate()
        .map(|(idx, record)| parse_csv_record(&schema, &record, idx + 1))
        .collect::<Result<_, _>>()?;
    Ok((schema, tuples))
}

fn parse_value(cell: &str, attr: &Attribute) -> Result<Value, String> {
    let mismatch = || {
        let shown: String = cell.chars().take(40).collect();
        format!("{}: expected {}, got '{shown}'", attr.name, attr.ty)
    };
    match attr.ty {
        ValueType::Int => cell.parse::<i64>().map(Value::Int).map_err(|_| mismatch()),
        ValueType::Bool => cell
            .parse::<bool>()
            .map(Value::Bool)
            .map_err(|_| mismatch()),
        ValueType::Text => Ok(Value::text(cell)),
    }
}

/// Line-fed CSV record scanner: a quote/escape state machine that takes
/// one line per call, so at most one record completes per line (records
/// end at a newline outside quotes).
#[derive(Default)]
pub struct RecordScanner {
    cell: String,
    record: Vec<String>,
    in_quotes: bool,
    started: bool,
}

impl RecordScanner {
    /// Creates an empty scanner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one line as produced by `read_line` (trailing `\n`
    /// included when present). Returns a completed record, or `None`
    /// while a quoted field spans lines. Blank records are skipped by
    /// the caller via [`RecordScanner::is_blank`].
    pub fn feed_line(&mut self, line: &str) -> Option<Vec<String>> {
        let (body, had_newline) = match line.strip_suffix('\n') {
            Some(b) => (b, true),
            None => (line, false),
        };
        let mut chars = body.chars().peekable();
        while let Some(c) = chars.next() {
            self.started = true;
            match c {
                '"' if self.in_quotes => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        self.cell.push('"');
                    } else {
                        self.in_quotes = false;
                    }
                }
                '"' => self.in_quotes = true,
                ',' if !self.in_quotes => {
                    self.record.push(std::mem::take(&mut self.cell));
                }
                '\r' if !self.in_quotes => {}
                other => self.cell.push(other),
            }
        }
        if self.in_quotes {
            if had_newline {
                self.cell.push('\n');
                self.started = true;
            }
            return None;
        }
        if !self.started {
            return None;
        }
        self.started = false;
        self.record.push(std::mem::take(&mut self.cell));
        Some(std::mem::take(&mut self.record))
    }

    /// True when the scanner holds a partial record (unterminated final
    /// line or an unclosed quote at EOF).
    pub fn has_partial(&self) -> bool {
        self.started || self.in_quotes || !self.record.is_empty() || !self.cell.is_empty()
    }

    /// Flushes a partial record at EOF (file without trailing newline).
    pub fn flush(&mut self) -> Option<Vec<String>> {
        if !self.has_partial() {
            return None;
        }
        self.in_quotes = false;
        self.started = false;
        self.record.push(std::mem::take(&mut self.cell));
        Some(std::mem::take(&mut self.record))
    }

    /// A record consisting of one empty cell (a blank line).
    pub fn is_blank(record: &[String]) -> bool {
        record.len() == 1 && record[0].is_empty()
    }

    /// Bytes held in the partial record (for memory accounting).
    pub fn buffered_bytes(&self) -> usize {
        self.cell.len() + self.record.iter().map(String::len).sum::<usize>()
    }
}

/// Loads a CSV document into a database (creating the relation).
pub fn load_csv(
    db: &mut Database,
    name: &str,
    key: &[usize],
    input: &str,
) -> Result<usize, StorageError> {
    let (schema, tuples) = from_csv(name, key, input)?;
    db.create_relation(schema)?;
    db.insert_all(name, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn family_csv() -> &'static str {
        "\"FID:int\",\"FName:text\",\"Desc:text\"\n11,\"Calcitonin\",\"C1\"\n12,\"Dopamine, the 2nd\",\"D \"\"quoted\"\"\"\n"
    }

    #[test]
    fn parse_with_quotes_and_commas() {
        let (schema, tuples) = from_csv("Family", &[0], family_csv()).unwrap();
        assert_eq!(schema.arity(), 3);
        assert_eq!(tuples.len(), 2);
        assert_eq!(
            tuples[1].get(1).unwrap().as_text(),
            Some("Dopamine, the 2nd")
        );
        assert_eq!(tuples[1].get(2).unwrap().as_text(), Some("D \"quoted\""));

        // The dialect's corners: CRLF line ends, an embedded newline
        // beside `""` escapes, a blank line, no trailing newline.
        let docs = [
            (
                "\"FID:int\",\"FName:text\"\n1,\"Calcitonin\"\n2,\"Dopamine, the 2nd\"\n",
                vec![tuple![1, "Calcitonin"], tuple![2, "Dopamine, the 2nd"]],
            ),
            (
                "\"A:int\",\"B:text\"\r\n1,\"x\"\r\n2,\"embedded\nnewline, and \"\"quotes\"\"\"\r\n",
                vec![
                    tuple![1, "x"],
                    tuple![2, "embedded\nnewline, and \"quotes\""],
                ],
            ),
            ("\"A:int\"\n1\n\n2\n", vec![tuple![1], tuple![2]]),
            (
                "\"A:int\",\"B:bool\"\n1,true\n2,false",
                vec![tuple![1, true], tuple![2, false]],
            ),
        ];
        for (doc, want) in docs {
            assert_eq!(from_csv("R", &[0], doc).unwrap().1, want, "{doc:?}");
        }
    }

    #[test]
    fn round_trip() {
        let mut db = Database::new();
        load_csv(&mut db, "Family", &[0], family_csv()).unwrap();
        let rel = db.relation("Family").unwrap();
        let out = to_csv(rel);
        let mut db2 = Database::new();
        load_csv(&mut db2, "Family", &[0], &out).unwrap();
        assert_eq!(
            crate::fixity::digest_database(&db),
            crate::fixity::digest_database(&db2)
        );
    }

    #[test]
    fn embedded_newline_round_trips() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::from_parts(
            "R",
            &[("A", ValueType::Int), ("B", ValueType::Text)],
            &[],
        ))
        .unwrap();
        db.insert("R", tuple![1, "line1\nline2"]).unwrap();
        let out = to_csv(db.relation("R").unwrap());
        let (_, tuples) = from_csv("R", &[], &out).unwrap();
        assert_eq!(tuples[0].get(1).unwrap().as_text(), Some("line1\nline2"));
    }

    #[test]
    fn bad_header_rejected() {
        assert!(from_csv("R", &[], "\"A\"\n1\n").is_err());
        assert!(from_csv("R", &[], "\"A:float\"\n1\n").is_err());
        assert!(from_csv("R", &[], "").is_err());
    }

    #[test]
    fn arity_and_type_errors() {
        let e = from_csv("R", &[], "\"A:int\",\"B:int\"\n1\n").unwrap_err();
        assert!(matches!(e, StorageError::CsvRecord { record: 1, .. }));
        let e = from_csv("R", &[], "\"A:int\"\n\"x\"\n").unwrap_err();
        assert!(matches!(e, StorageError::CsvRecord { record: 1, .. }));
    }

    #[test]
    fn duplicate_header_column_rejected() {
        let e = from_csv("R", &[], "\"A:int\",\"A:text\"\n1,\"x\"\n").unwrap_err();
        assert!(
            matches!(e, StorageError::DuplicateColumn { ref attribute, .. } if attribute == "A"),
            "{e}"
        );
    }

    #[test]
    fn type_error_reports_one_based_record_number() {
        let e = from_csv("R", &[], "\"A:int\"\n1\n2\n\"boom\"\n4\n").unwrap_err();
        match e {
            StorageError::CsvRecord {
                record, message, ..
            } => {
                assert_eq!(record, 3);
                assert!(message.contains("expected int"), "{message}");
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(from_csv("R", &[], "\"A:int\"\n1\n2\n\"boom\"\n4\n")
            .unwrap_err()
            .to_string()
            .contains("csv record 3"));
    }

    #[test]
    fn bool_values() {
        let (_, tuples) = from_csv("R", &[], "\"A:bool\"\ntrue\nfalse\n").unwrap();
        assert_eq!(tuples[0].get(0).unwrap().as_bool(), Some(true));
        assert_eq!(tuples[1].get(0).unwrap().as_bool(), Some(false));
    }

    #[test]
    fn export_sorted_and_deterministic() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::from_parts(
            "R",
            &[("A", ValueType::Int)],
            &[],
        ))
        .unwrap();
        db.insert("R", tuple![2]).unwrap();
        db.insert("R", tuple![1]).unwrap();
        let out = to_csv(db.relation("R").unwrap());
        assert_eq!(out, "\"A:int\"\n1\n2\n");
    }
}
