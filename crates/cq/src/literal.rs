//! The literal grammar: how a constant is spelled in every text the
//! system reads or writes — command lines, queries, the write-ahead log,
//! changesets and checkpoints.
//!
//! | literal | reads | writes |
//! |---|---|---|
//! | string | `'…'` or `"…"` | `'…'` |
//! | escape | `\n` `\r` `\t` → LF, CR, tab; any other `\x` → `x` | `\\` `\'` `\n` `\r` |
//! | integer | `-?[0-9]+` (a leading `+` is accepted) | decimal |
//! | boolean | `true`, `false` | `true`, `false` |
//!
//! [`scan_value`] and [`write_value`] are the only reader and writer of a
//! constant; [`scan_quoted`] and [`write_quoted`] the only decoder and
//! encoder of a quoted string. Whatever one writes, the other reads back
//! equal, so a citation query names exactly the data an `insert` stored.

use std::fmt;

use crate::value::Value;

/// Splits a leading quoted string (`'…'` or `"…"`) off `input`: returns
/// its raw, still-escaped body and the text after the closing quote.
/// `None` when `input` does not start with a quote or the string is
/// unterminated. Front ends use it to skip quoted spans (a `#` or `|`
/// inside one is text) without decoding them.
pub fn split_quoted(input: &str) -> Option<(&str, &str)> {
    let quote = match input.as_bytes().first() {
        Some(&q @ (b'\'' | b'"')) => q,
        _ => return None,
    };
    let bytes = input.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b if b == quote => return Some((&input[1..i], &input[i + 1..])),
            _ => i += 1,
        }
    }
    None
}

/// Reads a leading quoted string and decodes its escapes, returning the
/// text and the input after the closing quote.
pub fn scan_quoted(input: &str) -> Result<(String, &str), String> {
    let (body, rest) = split_quoted(input).ok_or_else(|| {
        if input.starts_with(['\'', '"']) {
            "unterminated string".to_string()
        } else {
            format!("expected a quoted string, got '{input}'")
        }
    })?;
    let mut out = String::with_capacity(body.len());
    let mut tail = body;
    while let Some(i) = tail.find('\\') {
        out.push_str(&tail[..i]);
        let mut chars = tail[i + 1..].chars();
        // `split_quoted` never ends a body on a lone backslash.
        out.push(match chars.next().unwrap_or('\\') {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            other => other,
        });
        tail = chars.as_str();
    }
    out.push_str(tail);
    Ok((out, rest))
}

/// Reads one constant at the start of `input` (leading whitespace is
/// skipped): a quoted string, an integer, `true` or `false`. A bare word
/// ends at the first character that is not alphanumeric, `_`, `-` or `+`.
pub fn scan_value(input: &str) -> Result<(Value, &str), String> {
    let input = input.trim_start();
    if input.starts_with(['\'', '"']) {
        let (s, rest) = scan_quoted(input)?;
        return Ok((Value::from(s), rest));
    }
    let end = input
        .find(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '+')))
        .unwrap_or(input.len());
    let (word, rest) = input.split_at(end);
    let value = match word {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        "" => return Err(format!("expected a value, got '{input}'")),
        _ => Value::Int(word.parse().map_err(|_| format!("bad value '{word}'"))?),
    };
    Ok((value, rest))
}

/// Writes `s` single-quoted, escaping exactly `\`, `'`, LF and CR, so the
/// result stays on one line and [`scan_quoted`] reads it back equal.
pub fn write_quoted<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('\'')?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'\\' => "\\\\",
            b'\'' => "\\'",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        out.write_str(&s[start..i])?;
        out.write_str(escaped)?;
        start = i + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('\'')
}

/// Writes a constant so that [`scan_value`] reads it back equal.
pub fn write_value<W: fmt::Write + ?Sized>(out: &mut W, v: &Value) -> fmt::Result {
    match v {
        Value::Int(n) => write!(out, "{n}"),
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::Text(s) => write_quoted(out, s.as_str()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v).unwrap();
        out
    }

    #[test]
    fn reads_every_literal_form() {
        assert_eq!(scan_value(" 42, x").unwrap(), (Value::Int(42), ", x"));
        assert_eq!(scan_value("-5)").unwrap(), (Value::Int(-5), ")"));
        assert_eq!(scan_value("true)").unwrap(), (Value::Bool(true), ")"));
        assert_eq!(scan_value("false").unwrap(), (Value::Bool(false), ""));
        assert_eq!(
            scan_value(r#"'a\'b', 1"#).unwrap(),
            (Value::text("a'b"), ", 1")
        );
        assert_eq!(
            scan_value(r#""it's #1""#).unwrap(),
            (Value::text("it's #1"), "")
        );
        assert!(scan_value("truex").is_err());
        assert!(scan_value("12ab").is_err());
        assert!(scan_value(")").is_err());
    }

    #[test]
    fn escapes_decode_to_control_characters() {
        let (s, _) = scan_quoted(r"'a\nb\rc\td\\e\qf'").unwrap();
        assert_eq!(s, "a\nb\rc\td\\eqf");
    }

    #[test]
    fn unterminated_strings_are_rejected() {
        assert_eq!(scan_quoted("'open").unwrap_err(), "unterminated string");
        assert_eq!(
            scan_quoted(r"'trailing\'").unwrap_err(),
            "unterminated string"
        );
        assert!(scan_quoted("bare").is_err());
        assert_eq!(split_quoted(r#""a\"b" rest"#), Some((r#"a\"b"#, " rest")));
    }

    #[test]
    fn writer_escapes_exactly_four_characters() {
        assert_eq!(
            written(&Value::text("a'b\\c\nd\re\tf")),
            "'a\\'b\\\\c\\nd\\re\tf'"
        );
        assert_eq!(written(&Value::Int(-3)), "-3");
        assert_eq!(written(&Value::Bool(false)), "false");
    }
}
