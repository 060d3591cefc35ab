//! Property suite over the request front end: random bytes, mutated
//! valid requests, deep nesting, 400-digit numbers and invalid UTF-8.
//!
//! * [`parse_request`] never panics: every line parses to a plan
//!   request or comes back as a structured [`ServeError`];
//! * [`serve_lines`] answers every non-blank input line with exactly
//!   one response line and never panics or stops early.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry};
use matopt_cost::AnalyticalCostModel;
use matopt_serve::protocol::parse_request;
use matopt_serve::{serve_lines, PlanService, ServeConfig, ServeError};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Valid requests the mutation strategy starts from.
const VALID: &[&str] = &[
    r#"{"id": "a", "workload": "motivating"}"#,
    r#"{"id": 7, "workload": "motivating"}"#,
    r#"{"id": "g", "graph": {"sources": [{"name": "A", "rows": 64, "cols": 64, "sparsity": 0.05, "format": "csr"}], "ops": [{"op": "mm", "in": [0, 0]}, {"op": "relu", "in": [1]}]}}"#,
    r#"{"id": "s", "op": "stats"}"#,
];

/// Bytes that keep mutations structurally interesting.
const JSONISH: &[u8] = b"{}[]\":,0123456789-+.eE \\tnulfrs\xff\xc3";

fn cluster() -> Cluster {
    Cluster::simsql_like(4)
}

fn service() -> &'static PlanService {
    static SERVICE: OnceLock<PlanService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        PlanService::new(
            ImplRegistry::paper_default(),
            FormatCatalog::paper_default(),
            cluster(),
            Box::new(AnalyticalCostModel),
            ServeConfig::default(),
        )
    })
}

/// Any byte, or one from the JSON-ish alphabet.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..=255, (0usize..JSONISH.len()).prop_map(|i| JSONISH[i]),]
}

/// A valid request with up to six byte replacements, insertions, or
/// deletions applied.
fn mutated() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..VALID.len(),
        prop::collection::vec((0usize..1 << 16, 0u8..3, byte()), 0..7),
    )
        .prop_map(|(which, edits)| {
            let mut line = VALID[which].as_bytes().to_vec();
            for (pos, op, b) in edits {
                let at = pos % (line.len() + 1);
                match op {
                    0 if at < line.len() => line[at] = b,
                    1 => line.insert(at, b),
                    _ if at < line.len() => {
                        line.remove(at);
                    }
                    _ => line.push(b),
                }
            }
            line
        })
}

/// Arrays or objects nested up to 50,000 deep, inside a request.
fn deep() -> impl Strategy<Value = Vec<u8>> {
    (1usize..50_001, 0u8..3).prop_map(|(depth, shape)| {
        let (open, close) = match shape {
            0 => ("[".repeat(depth), "]".repeat(depth)),
            1 => (r#"{"a":"#.repeat(depth), "}".repeat(depth)),
            // Unterminated: the parser must fail cleanly at EOF.
            _ => ("[".repeat(depth), String::new()),
        };
        format!(r#"{{"id": "d", "graph": {open}0{close}}}"#).into_bytes()
    })
}

/// Requests carrying a 400-digit number in the id, a dimension, or an
/// op input.
fn huge_numbers() -> impl Strategy<Value = Vec<u8>> {
    (1u8..10, 0u8..4, 0u8..2).prop_map(|(lead, slot, sign)| {
        let digits = format!(
            "{}{lead}{}",
            if sign == 1 { "-" } else { "" },
            "9".repeat(399)
        );
        match slot {
            0 => format!(r#"{{"id": {digits}, "workload": "motivating"}}"#),
            1 => format!(
                r#"{{"id": "n", "graph": {{"sources": [{{"name": "A", "rows": {digits}, "cols": 8, "sparsity": 1.0, "format": "single"}}], "ops": [{{"op": "relu", "in": [0]}}]}}}}"#
            ),
            2 => format!(
                r#"{{"id": "n", "graph": {{"sources": [{{"name": "A", "rows": 8, "cols": 8, "sparsity": 1.0, "format": "single"}}], "ops": [{{"op": "relu", "in": [{digits}]}}]}}}}"#
            ),
            _ => format!(r#"{{"id": "n", "workload": "chain:{digits}"}}"#),
        }
        .into_bytes()
    })
}

/// One request line from any of the generators (no `\n` inside).
fn line() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(byte(), 0..200),
        mutated(),
        mutated(),
        deep(),
        huge_numbers(),
    ]
    .prop_map(|mut line| {
        for b in &mut line {
            if *b == b'\n' {
                *b = b' ';
            }
        }
        line
    })
}

/// Lines the serve loop answers: everything except blank ones.
fn answered(line: &[u8]) -> bool {
    std::str::from_utf8(line).map_or(true, |text| !text.trim().is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser returns a request or a structured error, never a
    /// panic, whatever the line.
    #[test]
    fn parse_request_never_panics(raw in line()) {
        let text = String::from_utf8_lossy(&raw);
        match parse_request(&text, &cluster()) {
            Ok(req) => prop_assert!(!req.graph.is_empty()),
            Err(e) => {
                prop_assert!(
                    matches!(e, ServeError::BadRequest(_)),
                    "unexpected error kind: {e:?}"
                );
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every non-blank line gets exactly one response line, in one
    /// session, with the hostile lines mixed among valid ones.
    #[test]
    fn serve_lines_answers_every_line_once(
        lines in prop::collection::vec(line(), 1..8),
        crlf in 0u8..2,
    ) {
        let mut input = Vec::new();
        for l in &lines {
            input.extend_from_slice(l);
            input.extend_from_slice(if crlf == 1 { b"\r\n" } else { b"\n" });
        }
        let expected = lines.iter().filter(|l| answered(l)).count();
        let mut output = Vec::new();
        let summary = serve_lines(service(), input.as_slice(), &mut output)
            .expect("in-memory transport never fails");
        let text = String::from_utf8(output).expect("responses are UTF-8");
        let responses: Vec<&str> = text.lines().collect();
        prop_assert_eq!(responses.len(), expected, "input: {:?}", lines);
        prop_assert_eq!(summary.requests as usize, expected);
        for r in &responses {
            prop_assert!(
                r.starts_with('{') && r.contains("\"status\""),
                "not a response line: {r}"
            );
        }
    }
}
