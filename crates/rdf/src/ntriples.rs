//! Line-oriented N-Triples parser and writer (RDF 1.1 N-Triples subset).
//!
//! Supported term forms: `<iri>`, `_:label`, `"literal"`, `"literal"@lang`,
//! `"literal"^^<datatype>`; `\" \\ \n \r \t \u{XXXX} \U{XXXXXXXX}` literal
//! escapes; `#` comment lines, blank lines, and a `#` comment after a
//! triple's closing `.`.
//!
//! One tokenizer reads the text for both load paths: [`parse_ntriples`]
//! turns its borrowed terms into owned [`Triple`]s, and
//! [`crate::EncodedGraph::from_ntriples`] interns them as they come, so
//! both accept the same documents and fail with the same error.

use crate::error::RdfError;
use crate::term::TermRef;
use crate::triple::Triple;
use std::fmt::Write as _;

/// The `xsd:integer` datatype IRI, used by [`Term::integer`].
///
/// [`Term::integer`]: crate::Term::integer
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";

/// Parses an N-Triples document into triples.
pub fn parse_ntriples(input: &str) -> Result<Vec<Triple>, RdfError> {
    let mut out = Vec::new();
    let mut tokens = Tokens::new(input);
    while let Some([s, p, o]) = tokens.next_triple()? {
        out.push(Triple::new(s.to_term(), p.to_term(), o.to_term()));
    }
    Ok(out)
}

/// Serializes triples as an N-Triples document (one line per triple).
pub fn write_ntriples<'a>(triples: impl IntoIterator<Item = &'a Triple>) -> String {
    let mut s = String::new();
    for t in triples {
        let _ = writeln!(s, "{t}");
    }
    s
}

/// Escapes a literal's lexical form for N-Triples output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// The N-Triples tokenizer: each triple's terms, borrowed from the text,
/// or from one decode buffer per position when a literal has an escape.
pub(crate) struct Tokens<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    buffers: [String; 3],
}

impl<'a> Tokens<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Tokens {
            lines: text.lines().enumerate(),
            buffers: Default::default(),
        }
    }

    /// The next triple's subject, predicate and object; `None` after the
    /// last line.
    pub(crate) fn next_triple(&mut self) -> Result<Option<[TermRef<'_>; 3]>, RdfError> {
        for (i, line) in self.lines.by_ref() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return parse_line(line, i + 1, &mut self.buffers).map(Some);
        }
        Ok(None)
    }
}

/// Whether a literal's plain run ends at byte `b`.
fn ends_run(b: &u8) -> bool {
    matches!(b, b'"' | b'\\')
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> RdfError {
        RdfError::Syntax {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), RdfError> {
        match self.bump() {
            Some(x) if x == b => Ok(()),
            other => Err(self.err(format!(
                "expected '{}', found {:?}",
                b as char,
                other.map(|c| c as char)
            ))),
        }
    }

    fn take_until(&mut self, stop: u8, what: &str) -> Result<&'a str, RdfError> {
        let start = self.pos;
        match self.text[start..].find(char::from(stop)) {
            Some(n) => {
                self.pos = start + n + 1;
                Ok(&self.text[start..start + n])
            }
            None => {
                self.pos = self.text.len();
                Err(self.err(format!("unterminated {what}")))
            }
        }
    }

    /// The ASCII bytes `ok` accepts from here on.
    fn take_while(&mut self, ok: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&ok) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    fn term(&mut self, buf: &'a mut String) -> Result<TermRef<'a>, RdfError> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => {
                self.pos += 1;
                Ok(TermRef::Iri(self.take_until(b'>', "IRI")?))
            }
            Some(b'_') => {
                self.pos += 1;
                self.expect(b':')?;
                let scanned = self.take_while(|b| {
                    b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.'
                });
                // A label may contain '.' but not end with one: a trailing
                // '.' is the triple's terminator (`_:o.`), so give it back.
                let label = scanned.trim_end_matches('.');
                self.pos -= scanned.len() - label.len();
                if label.is_empty() {
                    return Err(self.err("empty blank node label"));
                }
                Ok(TermRef::BlankNode(label))
            }
            Some(b'"') => {
                self.pos += 1;
                let lexical = self.quoted(buf)?;
                let (datatype, lang) = match self.peek() {
                    Some(b'^') => {
                        self.pos += 1;
                        self.expect(b'^')?;
                        self.expect(b'<')?;
                        (Some(self.take_until(b'>', "datatype IRI")?), None)
                    }
                    Some(b'@') => {
                        self.pos += 1;
                        let lang = self.take_while(|b| b.is_ascii_alphanumeric() || b == b'-');
                        if lang.is_empty() {
                            return Err(self.err("empty language tag"));
                        }
                        (None, Some(lang))
                    }
                    _ => (None, None),
                };
                Ok(TermRef::Literal {
                    lexical,
                    datatype,
                    lang,
                })
            }
            other => Err(self.err(format!(
                "unexpected term start {:?}",
                other.map(|c| c as char)
            ))),
        }
    }

    /// The rest of a quoted literal (opening quote consumed), unescaped:
    /// borrowed from the line when it has no escape, else decoded into
    /// `buf`.
    fn quoted(&mut self, buf: &'a mut String) -> Result<&'a str, RdfError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let Some(n) = bytes[start..].iter().position(ends_run) else {
            self.pos = bytes.len();
            return Err(self.err("unterminated literal"));
        };
        self.pos = start + n;
        if bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(&self.text[start..self.pos - 1]);
        }
        buf.clear();
        buf.push_str(&self.text[start..self.pos]);
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated literal")),
                Some(b'"') => return Ok(buf),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => buf.push('"'),
                    Some(b'\\') => buf.push('\\'),
                    Some(b'n') => buf.push('\n'),
                    Some(b'r') => buf.push('\r'),
                    Some(b't') => buf.push('\t'),
                    Some(b'u') => buf.push(self.parse_unicode(4)?),
                    Some(b'U') => buf.push(self.parse_unicode(8)?),
                    other => {
                        return Err(self.err(format!("bad escape {:?}", other.map(|c| c as char))));
                    }
                },
                Some(_) => {
                    // A plain run: every position here follows an ASCII
                    // byte, so it is a character boundary.
                    let from = self.pos - 1;
                    let run = bytes[from..].iter().position(ends_run);
                    self.pos = run.map_or(bytes.len(), |n| from + n);
                    buf.push_str(&self.text[from..self.pos]);
                }
            }
        }
    }

    fn parse_unicode(&mut self, digits: usize) -> Result<char, RdfError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
        }
        char::from_u32(v).ok_or_else(|| self.err("invalid unicode scalar"))
    }
}

/// One trimmed, non-empty, non-comment line's three terms; a literal with
/// an escape is decoded into the buffer of its position.
fn parse_line<'a>(
    line: &'a str,
    lineno: usize,
    buffers: &'a mut [String; 3],
) -> Result<[TermRef<'a>; 3], RdfError> {
    let mut c = Cursor {
        text: line,
        pos: 0,
        line: lineno,
    };
    let [bs, bp, bo] = buffers;
    let s = c.term(bs)?;
    let p = c.term(bp)?;
    let o = c.term(bo)?;
    c.skip_ws();
    match c.bump() {
        Some(b'.') => {}
        other => {
            return Err(c.err(format!(
                "expected '.', found {:?}",
                other.map(|x| x as char)
            )));
        }
    }
    c.skip_ws();
    // A `#` starts a comment that runs to the end of the line.
    if c.peek().is_some_and(|b| b != b'#') {
        return Err(c.err("trailing characters after '.'"));
    }
    Ok([s, p, o])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn parses_basic_forms() {
        let doc = r#"
# a comment
<http://ex/s> <http://ex/p> <http://ex/o> .
_:b0 <http://ex/p> "plain" .
<http://ex/s> <http://ex/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/s> <http://ex/p> "hola"@es .
<http://ex/s> <http://ex/p> <http://ex/o2> . # a trailing comment
<http://ex/s> <http://ex/p> <http://ex/o3> .#
<http://ex/s> <http://ex/p> _:o.
_:a.b.c <http://ex/p> _:x.y .
"#;
        let ts = parse_ntriples(doc).unwrap();
        assert_eq!(ts.len(), 8);
        assert_eq!(ts[0].s, Term::iri("http://ex/s"));
        assert_eq!(ts[1].s, Term::blank("b0"));
        assert_eq!(ts[2].o, Term::typed_literal("5", XSD_INTEGER));
        assert_eq!(ts[3].o, Term::lang_literal("hola", "es"));
        assert_eq!(ts[4].o, Term::iri("http://ex/o2"));
        assert_eq!(ts[5].o, Term::iri("http://ex/o3"));
        assert_eq!(ts[6].o, Term::blank("o"));
        assert_eq!(
            (&ts[7].s, &ts[7].o),
            (&Term::blank("a.b.c"), &Term::blank("x.y"))
        );
    }

    #[test]
    fn parses_escapes() {
        let doc = "<s> <p> \"a\\\"b\\\\c\\nd\\u0041\" .";
        let ts = parse_ntriples(doc).unwrap();
        assert_eq!(ts[0].o, Term::literal("a\"b\\c\ndA"));
    }

    #[test]
    fn parses_multibyte_utf8() {
        let doc = "<s> <p> \"héllo wörld ☃\" .";
        let ts = parse_ntriples(doc).unwrap();
        assert_eq!(ts[0].o, Term::literal("héllo wörld ☃"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_ntriples("<s> <p> .").is_err());
        assert!(parse_ntriples("<s> <p> <o>").is_err());
        assert!(parse_ntriples("<s> <p> \"unterminated .").is_err());
        assert!(parse_ntriples("<s <p> <o> .").is_err());
        assert!(parse_ntriples("<s> <p> <o> . junk").is_err());
        assert!(parse_ntriples("<s> <p> <o> # not yet .").is_err());
        assert!(parse_ntriples("_: <p> <o> .").is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let doc = "<s> <p> <o> .\nbogus line here\n";
        match parse_ntriples(doc) {
            Err(RdfError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip() {
        let triples = vec![
            Triple::new(
                Term::iri("http://ex/s"),
                Term::iri("http://ex/p"),
                Term::literal("x\ny"),
            ),
            Triple::new(
                Term::blank("b"),
                Term::iri("p"),
                Term::lang_literal("ciao", "it"),
            ),
            Triple::new(
                Term::iri("s"),
                Term::iri("p"),
                Term::typed_literal("7", XSD_INTEGER),
            ),
        ];
        let doc = write_ntriples(&triples);
        let back = parse_ntriples(&doc).unwrap();
        assert_eq!(back, triples);
    }
}
