//! Parser for the paper's Datalog-style surface syntax.
//!
//! Grammar (one rule; a *program* is a sequence of rules, each optionally
//! terminated by `.`):
//!
//! ```text
//! rule    := [ ("lambda" | "λ") ident ("," ident)* "." ]
//!            head ":-" body [ "." ]
//! head    := ident "(" [ term ("," term)* ] ")"
//! body    := "true" | literal ("," literal)*
//! literal := atom | term "=" term
//! atom    := ident "(" [ term ("," term)* ] ")"
//! term    := ident            (a variable)
//!          | literal          (see below)
//! ```
//!
//! Any bare identifier other than `true`/`false` in term position is a
//! **variable** — the paper writes variables like `FID`, `FName`, `Text`.
//! Constants are read by [`crate::literal::scan_value`], the grammar every
//! other text in the system shares: quoted strings, integers and the
//! booleans `true`/`false` (`#t`/`#f` are read too, for stored text from
//! older builds). Line comments start with `%` or `//`.

use crate::atom::{Atom, Literal};
use crate::error::CqError;
use crate::literal::scan_value;
use crate::query::ConjunctiveQuery;
use crate::symbol::Symbol;
use crate::term::Term;
use crate::value::Value;

/// Parses a single conjunctive query (one rule).
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery, CqError> {
    let mut p = Parser::new(input)?;
    let q = p.rule()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses a whole program: a sequence of rules.
pub fn parse_program(input: &str) -> Result<Vec<ConjunctiveQuery>, CqError> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    while !p.at_eof() {
        out.push(p.rule()?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    Const(Value),
    Lambda,
    LParen,
    RParen,
    Comma,
    Dot,
    Turnstile, // :-
    Equals,
    Eof,
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

fn lex(input: &str) -> Result<Vec<Spanned>, CqError> {
    let mut toks = Vec::new();
    let mut rest = input;
    let (mut line, mut col) = (1usize, 1usize);
    while let Some(c) = rest.chars().next() {
        let err = |msg: String| CqError::Parse { line, col, msg };
        let to_line_end = || rest.find('\n').unwrap_or(rest.len());
        // The token (if any) and how many bytes of `rest` it spans.
        let (tok, len) = match c {
            c if c.is_whitespace() => (None, c.len_utf8()),
            '%' => (None, to_line_end()),
            '/' if rest.starts_with("//") => (None, to_line_end()),
            '(' => (Some(Tok::LParen), 1),
            ')' => (Some(Tok::RParen), 1),
            ',' => (Some(Tok::Comma), 1),
            '.' => (Some(Tok::Dot), 1),
            '=' => (Some(Tok::Equals), 1),
            'λ' => (Some(Tok::Lambda), c.len_utf8()),
            ':' if rest.starts_with(":-") => (Some(Tok::Turnstile), 2),
            ':' => return Err(err("expected ':-'".into())),
            // Stored registry and plan text from older builds spells
            // booleans `#t` / `#f`.
            '#' => match rest.as_bytes().get(1) {
                Some(b't') => (Some(Tok::Const(Value::Bool(true))), 2),
                Some(b'f') => (Some(Tok::Const(Value::Bool(false))), 2),
                _ => return Err(err("expected #t or #f".into())),
            },
            '\'' | '"' | '-' | '0'..='9' => {
                let (v, after) = scan_value(rest).map_err(err)?;
                (Some(Tok::Const(v)), rest.len() - after.len())
            }
            c if c.is_alphabetic() || c == '_' => {
                let len = rest
                    .find(|d: char| !(d.is_alphanumeric() || d == '_'))
                    .unwrap_or(rest.len());
                let tok = match &rest[..len] {
                    "lambda" => Tok::Lambda,
                    "true" => Tok::Const(Value::Bool(true)),
                    "false" => Tok::Const(Value::Bool(false)),
                    word => Tok::Ident(word.to_string()),
                };
                (Some(tok), len)
            }
            other => return Err(err(format!("unexpected character {other:?}"))),
        };
        if let Some(tok) = tok {
            toks.push(Spanned { tok, line, col });
        }
        let (text, after) = rest.split_at(len);
        for ch in text.chars() {
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        rest = after;
    }
    toks.push(Spanned {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, CqError> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Spanned {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Spanned {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        self.peek().tok == Tok::Eof
    }

    fn error<T>(&self, msg: impl Into<String>) -> Result<T, CqError> {
        let s = self.peek();
        Err(CqError::Parse {
            line: s.line,
            col: s.col,
            msg: msg.into(),
        })
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), CqError> {
        if &self.peek().tok == want {
            self.next();
            Ok(())
        } else {
            self.error(format!("expected {what}, found {:?}", self.peek().tok))
        }
    }

    fn expect_eof(&mut self) -> Result<(), CqError> {
        if self.at_eof() {
            Ok(())
        } else {
            self.error(format!("trailing input: {:?}", self.peek().tok))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Symbol, CqError> {
        match &self.peek().tok {
            Tok::Ident(_) => {
                if let Tok::Ident(s) = self.next().tok {
                    Ok(Symbol::from(s))
                } else {
                    unreachable!("peeked an identifier")
                }
            }
            other => self.error(format!("expected {what}, found {other:?}")),
        }
    }

    fn rule(&mut self) -> Result<ConjunctiveQuery, CqError> {
        let mut params = Vec::new();
        if self.peek().tok == Tok::Lambda {
            self.next();
            loop {
                params.push(self.ident("λ-parameter")?);
                if self.peek().tok == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
            self.expect(&Tok::Dot, "'.' after λ-parameters")?;
        }
        let head = self.atom()?;
        self.expect(&Tok::Turnstile, "':-'")?;
        let body = self.body()?;
        if self.peek().tok == Tok::Dot {
            self.next();
        }
        ConjunctiveQuery::normalized(head, body, params)
    }

    fn body(&mut self) -> Result<Vec<Literal>, CqError> {
        // `true` not followed by `=` denotes the empty body.
        if self.peek().tok == Tok::Const(Value::Bool(true))
            && self.toks.get(self.pos + 1).map(|s| &s.tok) != Some(&Tok::Equals)
        {
            self.next();
            return Ok(Vec::new());
        }
        let mut lits = vec![self.literal()?];
        while self.peek().tok == Tok::Comma {
            self.next();
            lits.push(self.literal()?);
        }
        Ok(lits)
    }

    fn literal(&mut self) -> Result<Literal, CqError> {
        // An identifier followed by '(' is an atom; otherwise we are looking
        // at `term = term`.
        if let Tok::Ident(_) = &self.peek().tok {
            if self.toks.get(self.pos + 1).map(|s| &s.tok) == Some(&Tok::LParen) {
                return Ok(Literal::Atom(self.atom()?));
            }
        }
        let l = self.term()?;
        self.expect(&Tok::Equals, "'='")?;
        let r = self.term()?;
        Ok(Literal::Eq(l, r))
    }

    fn atom(&mut self) -> Result<Atom, CqError> {
        let pred = self.ident("predicate name")?;
        self.expect(&Tok::LParen, "'('")?;
        let mut terms = Vec::new();
        if self.peek().tok != Tok::RParen {
            loop {
                terms.push(self.term()?);
                if self.peek().tok == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        Ok(Atom::new(pred, terms))
    }

    fn term(&mut self) -> Result<Term, CqError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(Term::Var(Symbol::from(s)))
            }
            Tok::Const(v) => {
                self.next();
                Ok(Term::Const(v))
            }
            other => self.error(format!("expected a term, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_view_v1() {
        let q =
            parse_query("lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)").unwrap();
        assert_eq!(q.name().as_str(), "V1");
        assert_eq!(q.params, vec![Symbol::new("FID")]);
        assert_eq!(q.body.len(), 1);
        assert_eq!(q.body[0].predicate.as_str(), "Family");
    }

    #[test]
    fn parses_unicode_lambda() {
        let q = parse_query("λ FID. CV1(FID, PName) :- Committee(FID, PName)").unwrap();
        assert_eq!(q.params.len(), 1);
    }

    #[test]
    fn parses_constant_citation_query() {
        // CV2(D) :- D = "IUPHAR/BPS Guide to PHARMACOLOGY..."
        let q = parse_query(r#"CV2(D) :- D = "IUPHAR/BPS Guide to PHARMACOLOGY...""#).unwrap();
        assert!(q.is_constant());
        assert_eq!(
            q.head.terms[0],
            Term::constant("IUPHAR/BPS Guide to PHARMACOLOGY...")
        );
    }

    #[test]
    fn parses_join_query() {
        let q =
            parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
        assert_eq!(q.body.len(), 2);
        assert_eq!(q.arity(), 1);
    }

    #[test]
    fn parses_program_with_dots_and_comments() {
        let prog = r#"
            % the paper's three views
            λ FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc).
            V2(FID, FName, Desc) :- Family(FID, FName, Desc).
            V3(FID, Text) :- FamilyIntro(FID, Text).  // unparameterized
        "#;
        let qs = parse_program(prog).unwrap();
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[0].params.len(), 1);
        assert!(qs[1].params.is_empty());
    }

    #[test]
    fn parses_integers_booleans_and_escapes() {
        let q = parse_query(r#"Q(X) :- R(X, 11, -3, #t, #f, 'a\'b\\c\nd')"#).unwrap();
        let a = &q.body[0];
        assert_eq!(a.terms[1], Term::constant(11));
        assert_eq!(a.terms[2], Term::constant(-3));
        assert_eq!(a.terms[3], Term::constant(true));
        assert_eq!(a.terms[4], Term::constant(false));
        assert_eq!(a.terms[5], Term::constant("a'b\\c\nd"));
    }

    #[test]
    fn true_and_false_are_constants_in_every_position() {
        let q = parse_query("Q(I, false) :- Note(I, B, true), F = false").unwrap();
        assert_eq!(q.head.terms[1], Term::constant(false));
        assert_eq!(q.body[0].terms[2], Term::constant(true));
        assert!(q.vars().iter().all(|v| v.as_str() != "true"));
        let eq = parse_query("C(D) :- true = D").unwrap();
        assert_eq!(eq.head.terms[0], Term::constant(true));
    }

    #[test]
    fn double_quotes_and_control_escapes() {
        let q = parse_query(r#"Q(I) :- Note(I, "bug #42", 'a\rb\tc')"#).unwrap();
        assert_eq!(q.body[0].terms[1], Term::constant("bug #42"));
        assert_eq!(q.body[0].terms[2], Term::constant("a\rb\tc"));
    }

    #[test]
    fn empty_body_via_true() {
        let q = parse_query("C(D) :- D = 'x'").unwrap();
        assert!(q.is_constant());
        let q2 = parse_query("C('x') :- true").unwrap();
        assert_eq!(q.head, q2.head);
    }

    #[test]
    fn zero_arity_atom() {
        let q = parse_query("Q() :- R()").unwrap();
        assert_eq!(q.arity(), 0);
        assert_eq!(q.body[0].arity(), 0);
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_query("Q(X) :- R(X").unwrap_err();
        match e {
            CqError::Parse { line, col, .. } => {
                assert_eq!(line, 1);
                assert!(col >= 11);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("Q(X) :- R(X) extra").is_err());
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(parse_query("Q(X) :- R(X, 'oops)").is_err());
    }

    #[test]
    fn rejects_bad_turnstile() {
        assert!(parse_query("Q(X) : R(X)").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let srcs = [
            "λ FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)",
            "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
            "C('IUPHAR') :- true",
            "Q(X) :- R(X, 11, 'a\\'b')",
        ];
        for src in srcs {
            let q1 = parse_query(src).unwrap();
            let q2 = parse_query(&q1.to_string()).unwrap();
            assert_eq!(q1, q2, "round-trip failed for {src}");
        }
    }
}
