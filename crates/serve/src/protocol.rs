//! The wire protocol of `matopt serve`: JSON-lines requests over
//! stdin/stdout.
//!
//! A request is one JSON object per line, in one of two shapes:
//!
//! ```json
//! {"id": "r1", "workload": "ffnn-small:32"}
//! {"id": "r2", "graph": {
//!     "sources": [{"name": "A", "rows": 64, "cols": 64,
//!                  "sparsity": 0.05, "format": "csr"}],
//!     "ops": [{"op": "mm", "in": [0, 0]},
//!             {"op": "relu", "in": [1]}]}}
//! ```
//!
//! `workload` names one of the CLI's built-in experiment graphs
//! ([`workload_graph`] — the same specs `matopt plan` accepts);
//! `graph` spells out an arbitrary DAG. Op inputs index the combined
//! vertex list (sources first, then prior ops in order); the graph is
//! assembled through the expression DSL's fallible `try_apply`, so a
//! type-incorrect request comes back as an error response instead of a
//! panic. The JSON parser lives here too — the workspace builds
//! offline, so no serde; the grammar is small enough that a
//! hand-rolled recursive-descent parser is the honest dependency.
//!
//! A third shape is the *control* request, selected by a top-level
//! `"op"` key (`"id"` optional, echoed back):
//!
//! ```json
//! {"id": "s1", "op": "stats"}
//! {"id": "s2", "op": "drain"}
//! {"id": "s3", "op": "shutdown"}
//! ```
//!
//! `stats` answers with the service's live statistics instead of a
//! plan: request/hit/miss/coalesced counters, admission rejects and
//! deadline expiries, optimizer runs and seconds, cache entries /
//! bytes / epoch / evictions, cost-drift events, and `p50_us` /
//! `p95_us` / `p99_us` request-latency percentiles computed from the
//! merged hit+miss+coalesced histograms (`null` when the service has
//! no metrics registry or nothing has been timed yet). Unknown `op`
//! values are error responses; a `stats` line does not count as a plan
//! request in the counters it reports.
//!
//! `shutdown` and `drain` stop the session in an orderly way. Both
//! finish every request that arrived before them, flush any
//! `--metrics-dump` sidecar, and make the `matopt serve` process exit
//! 0. `shutdown` stops reading immediately — its `{"status": "ok",
//! "op": "shutdown"}` acknowledgement is the last line written.
//! `drain` keeps reading until EOF but answers every *later* request
//! with a `draining` error response (position in the stream decides,
//! not worker timing). Plain EOF behaves like an implicit drain:
//! requests already read are always answered, never abandoned.

use crate::ServeError;
use matopt_core::{Cluster, ComputeGraph, MatrixType, Op, PhysFormat};
use matopt_graphs::{
    ffnn_full_pass_graph_autodiff, ffnn_train_step_graph_autodiff, ffnn_training_graph,
    ffnn_w2_update_graph_autodiff, matmul_chain_graph, motivating_graph, two_level_inverse_graph,
    Expr, ExprBuilder, FfnnConfig, SizeSet,
};

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A parsed JSON value (numbers are kept as `f64`, like JavaScript).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (and nothing but it).
    ///
    /// # Errors
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

/// How deeply arrays and objects may nest. Request documents need
/// about five levels; the limit keeps a hostile line from exhausting
/// the parser's stack.
pub(crate) const MAX_JSON_DEPTH: usize = 128;

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(text, pos, depth + 1),
        Some(b'[') => parse_arr(text, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    ) {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogates are rejected rather than paired —
                        // no request field needs astral characters.
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape '\\{}'", *other as char)),
                }
            }
            Some(_) => {
                // Advance one UTF-8 scalar, not one byte. `pos` only
                // ever steps over whole scalars, so it sits on a char
                // boundary and decoding touches this scalar alone.
                let c = text
                    .get(*pos..)
                    .and_then(|rest| rest.chars().next())
                    .ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A parsed plan request.
#[derive(Debug)]
pub struct PlanRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: String,
    /// The compute graph to plan.
    pub graph: ComputeGraph,
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

/// Parses one request line against the current cluster (some built-in
/// workloads, e.g. `chain:*`, are sized from the cluster).
///
/// # Errors
/// [`ServeError::BadRequest`] describing the problem.
pub fn parse_request(line: &str, cluster: &Cluster) -> Result<PlanRequest, ServeError> {
    request_from_json(&parse_line(line)?, cluster)
}

/// Parses one request line into its JSON document.
///
/// # Errors
/// [`ServeError::BadRequest`] when the line is not one JSON document.
pub(crate) fn parse_line(line: &str) -> Result<Json, ServeError> {
    Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))
}

/// Reads a plan request from an already parsed request document; see
/// [`parse_request`].
///
/// # Errors
/// [`ServeError::BadRequest`] describing the problem.
pub(crate) fn request_from_json(doc: &Json, cluster: &Cluster) -> Result<PlanRequest, ServeError> {
    // String ids pass through; numeric ids (JSON-RPC style) are
    // rendered and echoed back as strings.
    let id = doc
        .get("id")
        .and_then(|v| {
            v.as_str().map(str::to_string).or_else(|| {
                v.as_f64().map(|n| {
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        format!("{}", n as i64)
                    } else {
                        format!("{n}")
                    }
                })
            })
        })
        .ok_or_else(|| bad("missing string or number field \"id\""))?;
    let graph = match (doc.get("workload"), doc.get("graph")) {
        (Some(w), None) => {
            let spec = w
                .as_str()
                .ok_or_else(|| bad("\"workload\" must be a string"))?;
            workload_graph(spec, cluster).map_err(bad)?
        }
        (None, Some(g)) => graph_from_json(g)?,
        _ => return Err(bad("provide exactly one of \"workload\" or \"graph\"")),
    };
    Ok(PlanRequest { id, graph })
}

/// Builds a graph from the explicit `"graph"` request form via the
/// fallible expression DSL.
fn graph_from_json(doc: &Json) -> Result<ComputeGraph, ServeError> {
    let sources = doc
        .get("sources")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("\"graph\" needs a \"sources\" array"))?;
    let ops = doc
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("\"graph\" needs an \"ops\" array"))?;
    if sources.is_empty() {
        return Err(bad("at least one source is required"));
    }

    let builder = ExprBuilder::new();
    let mut nodes: Vec<Expr<'_>> = Vec::with_capacity(sources.len() + ops.len());
    for (i, s) in sources.iter().enumerate() {
        let rows = s
            .get("rows")
            .and_then(Json::as_u64)
            .filter(|r| *r > 0)
            .ok_or_else(|| bad(format!("source {i}: \"rows\" must be a positive integer")))?;
        let cols = s
            .get("cols")
            .and_then(Json::as_u64)
            .filter(|c| *c > 0)
            .ok_or_else(|| bad(format!("source {i}: \"cols\" must be a positive integer")))?;
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("src{i}"));
        let mtype = match s.get("sparsity").map(|v| v.as_f64()) {
            None => MatrixType::dense(rows, cols),
            Some(Some(sp)) if (0.0..=1.0).contains(&sp) => MatrixType::sparse(rows, cols, sp),
            _ => return Err(bad(format!("source {i}: \"sparsity\" must be in [0, 1]"))),
        };
        let format = match s.get("format") {
            None => default_format(&mtype),
            Some(f) => {
                let spec = f
                    .as_str()
                    .ok_or_else(|| bad(format!("source {i}: \"format\" must be a string")))?;
                parse_format(spec)
                    .ok_or_else(|| bad(format!("source {i}: unknown format \"{spec}\"")))?
            }
        };
        nodes.push(builder.source(&name, mtype, format));
    }

    for (i, o) in ops.iter().enumerate() {
        let name = o
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(format!("op {i}: missing string field \"op\"")))?;
        let op = match name {
            "mm" | "matmul" => Op::MatMul,
            "add" => Op::Add,
            "sub" => Op::Sub,
            "hadamard" => Op::Hadamard,
            "scalarmul" => {
                let alpha = o
                    .get("alpha")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(format!("op {i}: scalarmul needs numeric \"alpha\"")))?;
                Op::ScalarMul(alpha)
            }
            "transpose" => Op::Transpose,
            "relu" => Op::Relu,
            "relugrad" => Op::ReluGrad,
            "softmax" => Op::Softmax,
            "sigmoid" => Op::Sigmoid,
            "exp" => Op::Exp,
            "neg" => Op::Neg,
            "rowsums" => Op::RowSums,
            "colsums" => Op::ColSums,
            "inverse" => Op::Inverse,
            "biasadd" => Op::BroadcastAddRow,
            "sumall" => Op::SumAll,
            "frobeniusnorm" | "frobenius" => Op::FrobeniusNorm,
            other => return Err(bad(format!("op {i}: unknown op \"{other}\""))),
        };
        let input_idx = o
            .get("in")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad(format!("op {i}: missing \"in\" index array")))?;
        let mut inputs = Vec::with_capacity(input_idx.len());
        for idx in input_idx {
            let idx = idx
                .as_u64()
                .map(|n| n as usize)
                .filter(|n| *n < nodes.len())
                .ok_or_else(|| {
                    bad(format!(
                        "op {i}: \"in\" must index already-built vertices (0..{})",
                        nodes.len()
                    ))
                })?;
            inputs.push(nodes[idx]);
        }
        let (first, rest) = inputs
            .split_first()
            .ok_or_else(|| bad(format!("op {i}: \"in\" must not be empty")))?;
        let out = first
            .try_apply(op, rest)
            .map_err(|e| bad(format!("op {i}: {e}")))?;
        nodes.push(out);
    }
    Ok(builder.finish())
}

/// The format a source defaults to when the request doesn't pin one.
fn default_format(mtype: &MatrixType) -> PhysFormat {
    if mtype.sparsity < 1.0 {
        PhysFormat::CsrSingle
    } else {
        PhysFormat::SingleTuple
    }
}

/// Parses `single`, `rowstrip:H`, `colstrip:W`, `tile:S`, `coo`, `csr`,
/// `csrtile:S`.
pub fn parse_format(spec: &str) -> Option<PhysFormat> {
    let (head, arg) = match spec.split_once(':') {
        Some((h, a)) => (h, Some(a.parse::<u64>().ok().filter(|n| *n > 0)?)),
        None => (spec, None),
    };
    Some(match (head, arg) {
        ("single", None) => PhysFormat::SingleTuple,
        ("rowstrip", Some(h)) => PhysFormat::RowStrip { height: h },
        ("colstrip", Some(w)) => PhysFormat::ColStrip { width: w },
        ("tile", Some(s)) => PhysFormat::Tile { side: s },
        ("coo", None) => PhysFormat::Coo,
        ("csr", None) => PhysFormat::CsrSingle,
        ("csrtile", Some(s)) => PhysFormat::CsrTile { side: s },
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Built-in workloads
// ---------------------------------------------------------------------

/// Builds one of the CLI's named experiment graphs — the same specs
/// `matopt plan <workload>` accepts (`ffnn:H`, `ffnn-full:H`,
/// `ffnn-small:H`, `ffnn-train:H`, `amazoncat:B:L[:sparse]`,
/// `chain:1|2|3`, `inverse`, `motivating`).
///
/// The FFNN backprop workloads are *autodiff-derived*: the forward
/// pass is written once and `matopt-autodiff` emits the gradient tape.
/// The hand-built builders survive only as the reference the parity
/// suite checks the derivation against, bit for bit.
///
/// # Errors
/// A usage string for unknown or malformed specs.
pub fn workload_graph(spec: &str, cluster: &Cluster) -> Result<ComputeGraph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts[0] {
        "ffnn" => {
            let hidden = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("ffnn:<hidden> expects a size, e.g. ffnn:80000")?;
            Ok(
                ffnn_w2_update_graph_autodiff(FfnnConfig::simsql_experiment(hidden))
                    .map_err(|e| e.to_string())?
                    .graph,
            )
        }
        "ffnn-full" => {
            let hidden = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("ffnn-full:<hidden> expects a size")?;
            Ok(
                ffnn_full_pass_graph_autodiff(FfnnConfig::simsql_experiment(hidden))
                    .map_err(|e| e.to_string())?
                    .graph,
            )
        }
        "ffnn-small" => {
            let hidden = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("ffnn-small:<hidden> expects a size, e.g. ffnn-small:32")?;
            Ok(ffnn_w2_update_graph_autodiff(FfnnConfig::laptop(hidden))
                .map_err(|e| e.to_string())?
                .graph)
        }
        "ffnn-train" => {
            let hidden = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("ffnn-train:<hidden> expects a size, e.g. ffnn-train:32")?;
            Ok(ffnn_training_graph(FfnnConfig::laptop(hidden))
                .map_err(|e| e.to_string())?
                .graph)
        }
        "amazoncat" => {
            let batch = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("amazoncat:<batch>:<layer>[:sparse]")?;
            let layer = parts
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("amazoncat:<batch>:<layer>[:sparse]")?;
            let sparse = parts.get(3) == Some(&"sparse");
            Ok(
                ffnn_train_step_graph_autodiff(FfnnConfig::amazoncat(batch, layer, sparse))
                    .map_err(|e| e.to_string())?
                    .graph,
            )
        }
        "chain" => {
            let set = match parts.get(1) {
                Some(&"1") => SizeSet::Set1,
                Some(&"2") => SizeSet::Set2,
                Some(&"3") => SizeSet::Set3,
                _ => return Err("chain:<1|2|3>".into()),
            };
            Ok(matmul_chain_graph(set, cluster)
                .map_err(|e| e.to_string())?
                .graph)
        }
        "inverse" => Ok(two_level_inverse_graph(10_000, 2_000)
            .map_err(|e| e.to_string())?
            .graph),
        "motivating" => Ok(motivating_graph().map_err(|e| e.to_string())?.graph),
        other => Err(format!(
            "unknown workload {other} (expected ffnn:H, ffnn-full:H, ffnn-small:H, \
             ffnn-train:H, amazoncat:B:L[:sparse], chain:1|2|3, inverse, motivating)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_the_request_grammar() {
        let doc = Json::parse(
            r#"{"id": "r1", "graph": {"sources": [{"rows": 4, "cols": 4}],
                "ops": [{"op": "mm", "in": [0, 0]}]}, "x": [true, null, -1.5e2]}"#,
        )
        .expect("parses");
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(
            doc.get("x").and_then(Json::as_arr).map(|a| a.len()),
            Some(3)
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert_eq!(
            Json::parse(r#""aA\n""#).expect("escapes"),
            Json::Str("aA\n".into())
        );
    }

    #[test]
    fn json_nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_JSON_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the limit the parser answers instead of overflowing
        // its stack, for arrays and objects alike.
        assert!(Json::parse(&"[".repeat(50_000)).is_err());
        assert!(Json::parse(&"{\"a\": ".repeat(50_000)).is_err());
    }

    #[test]
    fn long_strings_decode_every_scalar() {
        let id: String = "aé€😀".repeat(25_000);
        let doc = Json::parse(&format!("{{\"id\": \"{id}\"}}")).expect("parses");
        assert_eq!(doc.get("id").and_then(Json::as_str), Some(id.as_str()));
    }

    #[test]
    fn explicit_graph_requests_build() {
        let line = r#"{"id": "q", "graph": {
            "sources": [{"name": "W", "rows": 8, "cols": 8},
                        {"name": "X", "rows": 8, "cols": 4, "sparsity": 0.1,
                         "format": "csr"}],
            "ops": [{"op": "mm", "in": [0, 1]},
                    {"op": "relu", "in": [2]},
                    {"op": "scalarmul", "in": [3], "alpha": 0.5}]}}"#;
        let req = parse_request(line, &Cluster::simsql_like(4)).expect("parses");
        assert_eq!(req.id, "q");
        assert_eq!(req.graph.len(), 5);
    }

    #[test]
    fn type_errors_become_bad_request_not_panic() {
        let line = r#"{"id": "q", "graph": {
            "sources": [{"rows": 8, "cols": 4}],
            "ops": [{"op": "mm", "in": [0, 0]}]}}"#;
        let err = parse_request(line, &Cluster::simsql_like(4)).expect_err("4 != 8");
        assert!(matches!(err, ServeError::BadRequest(_)), "got {err:?}");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let cluster = Cluster::simsql_like(4);
        for line in [
            "not json",
            r#"{"workload": "motivating"}"#,
            r#"{"id": "a"}"#,
            r#"{"id": "a", "workload": "nope"}"#,
            r#"{"id": "a", "workload": "x", "graph": {}}"#,
            r#"{"id": "a", "graph": {"sources": [], "ops": []}}"#,
            r#"{"id": "a", "graph": {"sources": [{"rows": 4, "cols": 4}],
                "ops": [{"op": "mm", "in": [0, 9]}]}}"#,
        ] {
            assert!(
                matches!(
                    parse_request(line, &cluster),
                    Err(ServeError::BadRequest(_))
                ),
                "accepted: {line}"
            );
        }
    }

    #[test]
    fn workload_specs_match_the_cli() {
        let cluster = Cluster::simsql_like(4);
        for spec in [
            "ffnn-small:16",
            "ffnn-train:8",
            "chain:1",
            "motivating",
            "inverse",
        ] {
            assert!(workload_graph(spec, &cluster).is_ok(), "{spec} failed");
        }
        assert!(workload_graph("ffnn", &cluster).is_err());
        assert!(workload_graph("ffnn-train", &cluster).is_err());
    }

    #[test]
    fn format_specs_round_trip() {
        assert_eq!(parse_format("single"), Some(PhysFormat::SingleTuple));
        assert_eq!(
            parse_format("tile:500"),
            Some(PhysFormat::Tile { side: 500 })
        );
        assert_eq!(parse_format("csrtile:0"), None);
        assert_eq!(parse_format("tile"), None);
        assert_eq!(parse_format("bogus"), None);
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"s\": \"{}\"}}", json_escape(nasty));
        let parsed = Json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(nasty));
    }
}
