//! One Appendix-D assignment, three ways: the one-pass text loader
//! (`EncodedGraph::from_ntriples`), the owned-triple path
//! (`Graph::from_triples(parse_ntriples(..)).encode()`) and a plain
//! reference builder kept here (string-sorted triples, first-seen order,
//! a `HashMap`) must agree byte for byte on random N-Triples documents,
//! and malformed documents must fail the same way through both entry
//! points.

use lbr_rdf::{
    parse_ntriples, DictionaryBuilder, EncodedGraph, EncodedTriple, Graph, RdfError, Term, Triple,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Each term of the pool with the N-Triples spellings that denote it.
/// Literals share one lexical form across plain, tagged and typed forms;
/// escapes and multi-byte UTF-8 spell some literals twice; IRIs are raw,
/// so the `\u0061` IRI is not the `a` one.
const POOL: &[&[&str]] = &[
    &["<http://ex/a>"],
    &["<http://ex/b>"],
    &["<http://ex/ü☃>"],
    &["<http://ex/\\u0061>"],
    &["_:a"],
    &["_:b-1.x"],
    &["\"a\"", "\"\\u0061\""],
    &["\"a\"@en", "\"\\U00000061\"@en"],
    &["\"a\"^^<http://ex/dt>", "\"\\u0061\"^^<http://ex/dt>"],
    &["\"http://ex/a\""],
    &["\"q\\\"uote\\\\back\\nline\\ttab\\rret\""],
    &["\"é☃\"", "\"\\u00E9\\u2603\"", "\"\\u00e9☃\""],
    &["\"\""],
];

/// A line: 0 blank, 1 comment, else a triple; the pool index and spelling
/// of each term; how the triple line is padded.
type Line = (u8, [usize; 3], [usize; 3], u8);

fn arb_line() -> impl Strategy<Value = Line> {
    (
        0u8..10,
        [0..POOL.len(), 0..POOL.len(), 0..POOL.len()],
        [0usize..3, 0usize..3, 0usize..3],
        0u8..5,
    )
}

fn render(line: &Line) -> String {
    let (kind, terms, spellings, pad) = *line;
    let spell = |k: usize| {
        let forms = POOL[terms[k]];
        forms[spellings[k] % forms.len()]
    };
    let (s, p, o) = (spell(0), spell(1), spell(2));
    match (kind, pad) {
        (0, _) => "   ".into(),
        (1, _) => "# a comment line <s> <p> <o> .".into(),
        (_, 0) => format!("{s} {p} {o} ."),
        (_, 1) => format!(" \t{s}\t{p}  {o} . "),
        (_, 2) => format!("{s} {p} {o} . # a trailing comment"),
        // No space before the terminator, even after a blank node label
        // that holds a '.' itself (`_:b-1.x.`).
        (_, 3) => format!("{s} {p} {o}."),
        _ => format!("{s} {p} {o} .#"),
    }
}

fn document(lines: &[Line], crlf: bool) -> String {
    let sep = if crlf { "\r\n" } else { "\n" };
    lines.iter().map(render).collect::<Vec<_>>().join(sep)
}

/// The reference assignment: sort and dedup the owned triples by string,
/// give each term an index where it is first seen, then lay out Appendix
/// D. Returns `Dictionary::to_bytes()`'s image and the encoded triples.
fn reference(mut triples: Vec<Triple>, sort: bool) -> (Vec<u8>, Vec<EncodedTriple>) {
    if sort {
        triples.sort();
        triples.dedup();
    }
    let mut terms: Vec<(Term, u8)> = Vec::new();
    let mut index: HashMap<Term, usize> = HashMap::new();
    let mut local = Vec::new();
    for t in &triples {
        let mut ids = [0; 3];
        for (k, (term, role)) in [(&t.s, 1u8), (&t.p, 2), (&t.o, 4)].into_iter().enumerate() {
            let i = *index.entry(term.clone()).or_insert_with(|| {
                terms.push((term.clone(), 0));
                terms.len() - 1
            });
            terms[i].1 |= role;
            ids[k] = i;
        }
        local.push(ids);
    }
    let has = |i: usize, r: u8| terms[i].1 & r != 0;
    let all = 0..terms.len();
    let shared: Vec<usize> = all.clone().filter(|&i| has(i, 1) && has(i, 4)).collect();
    let only = |r: u8, not: u8| all.clone().filter(move |&i| has(i, r) && !has(i, not));
    let term_of_s: Vec<usize> = shared.iter().copied().chain(only(1, 4)).collect();
    let term_of_o: Vec<usize> = shared.iter().copied().chain(only(4, 1)).collect();
    let term_of_p: Vec<usize> = all.clone().filter(|&i| has(i, 2)).collect();
    let id_of = |term_of: &[usize], i: usize| term_of.iter().position(|&t| t == i).unwrap() as u32;
    let encoded = local
        .iter()
        .map(|&[s, p, o]| {
            EncodedTriple::new(
                id_of(&term_of_s, s),
                id_of(&term_of_p, p),
                id_of(&term_of_o, o),
            )
        })
        .collect();

    let mut out = Vec::new();
    let put_u32 = |out: &mut Vec<u8>, v: usize| out.extend_from_slice(&(v as u32).to_le_bytes());
    let put_str = |out: &mut Vec<u8>, s: &str| {
        put_u32(out, s.len());
        out.extend_from_slice(s.as_bytes());
    };
    put_u32(&mut out, terms.len());
    for (t, _) in &terms {
        match t {
            Term::Iri(v) => {
                out.push(0);
                put_str(&mut out, v);
            }
            Term::BlankNode(v) => {
                out.push(1);
                put_str(&mut out, v);
            }
            Term::Literal {
                lexical,
                datatype,
                lang,
            } => {
                out.push(2);
                put_str(&mut out, lexical);
                out.push(datatype.is_some() as u8 | (lang.is_some() as u8) << 1);
                for s in datatype.iter().chain(lang) {
                    put_str(&mut out, s);
                }
            }
        }
    }
    for ids in [&term_of_s, &term_of_o, &term_of_p] {
        put_u32(&mut out, ids.len());
        for &i in ids.iter() {
            put_u32(&mut out, i);
        }
    }
    put_u32(&mut out, shared.len());
    (out, encoded)
}

/// Lines that each entry point must reject with the same error.
const MALFORMED: &[&str] = &[
    "<s> <p> .",
    "<s> <p> <o>",
    "<s> <p> \"unterminated .",
    "<s> <p> \"a\\q\" .",
    "<s> <p> \"a\\",
    "<s> <p> \"\\u12\" .",
    "<s> <p> \"\\u12G4\" .",
    "<s> <p> \"\\uD800\" .",
    "<s> <p> \"\\U00110000\" .",
    "<s> <p> \"\\u00é9\" .",
    "<s <p> <o> .",
    "<s> <p> <o> . junk",
    "<s> <p> <o> # comment .",
    "_: <p> <o> .",
    "_x <p> <o> .",
    "<s> <p> \"a\"@ .",
    "<s> <p> \"a\"^<dt> .",
    "<s> <p> \"a\"^^<dt .",
    "é <p> <o> .",
    "<s> <p> <o> <x> .",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_assignment_three_ways(lines in prop::collection::vec(arb_line(), 0..40), crlf in any::<bool>()) {
        let doc = document(&lines, crlf);
        let one = EncodedGraph::from_ntriples(&doc).unwrap();
        let parsed = parse_ntriples(&doc).unwrap();
        let two = Graph::from_triples(parsed.clone()).encode();
        let (bytes, triples) = reference(parsed, true);
        prop_assert_eq!(&one.dict.to_bytes(), &bytes);
        prop_assert_eq!(&two.dict.to_bytes(), &bytes);
        prop_assert_eq!(&one.triples, &triples);
        prop_assert_eq!(&two.triples, &triples);
    }

    #[test]
    fn sorted_documents_with_repeats(lines in prop::collection::vec(arb_line(), 0..40), every in 1usize..4) {
        // A sorted dump whose every `every`-th line repeats, in the other
        // spelling where a literal has two: the text already ascends but
        // for the repeats, which must still be dropped.
        let sorted = Graph::from_triples(parse_ntriples(&document(&lines, false)).unwrap());
        let mut doc = String::new();
        for (i, t) in sorted.triples().iter().enumerate() {
            doc.push_str(&format!("{t}\n"));
            if i % every == 0 {
                doc.push_str(&format!("{t}\n").replace("\"a\"", "\"\\u0061\""));
            }
        }
        let one = EncodedGraph::from_ntriples(&doc).unwrap();
        let (bytes, triples) = reference(sorted.triples().to_vec(), true);
        prop_assert_eq!(&one.dict.to_bytes(), &bytes);
        prop_assert_eq!(&one.triples, &triples);
    }

    #[test]
    fn builder_keeps_first_seen_order(lines in prop::collection::vec(arb_line(), 0..40)) {
        let parsed = parse_ntriples(&document(&lines, false)).unwrap();
        let mut builder = DictionaryBuilder::new();
        builder.add_all(&parsed);
        let dict = builder.build();
        let (bytes, triples) = reference(parsed.clone(), false);
        prop_assert_eq!(&dict.to_bytes(), &bytes);
        let encoded: Vec<EncodedTriple> = parsed.iter().map(|t| dict.encode(t).unwrap()).collect();
        prop_assert_eq!(&encoded, &triples);
    }

    #[test]
    fn malformed_fails_alike(
        lines in prop::collection::vec(arb_line(), 0..12),
        at in 0usize..12,
        bad in 0..MALFORMED.len(),
    ) {
        let mut rendered: Vec<String> = lines.iter().map(render).collect();
        let at = at.min(rendered.len());
        rendered.insert(at, MALFORMED[bad].to_string());
        let doc = rendered.join("\n");
        let one = EncodedGraph::from_ntriples(&doc).unwrap_err();
        let two = parse_ntriples(&doc).unwrap_err();
        prop_assert_eq!(&one, &two);
        match one {
            RdfError::Syntax { line, .. } => prop_assert_eq!(line, at + 1),
            other => prop_assert!(false, "expected a syntax error, got {:?}", other),
        }
    }
}

#[test]
fn empty_and_comment_only_documents_encode_empty() {
    for doc in ["", "\n\n", "# only a comment\n   \n#another"] {
        let one = EncodedGraph::from_ntriples(doc).unwrap();
        assert!(one.is_empty());
        assert_eq!(one.dict.to_bytes(), reference(Vec::new(), true).0);
    }
}
