//! Seeded workload generation. Everything a run sends to the system
//! is derived here from `--seed`; the system under test receives only
//! the generated request lines and relations.

use crate::util::{jitter, stratified, SeedRng};
use matopt_core::{
    Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId, NodeKind, Op,
    PhysFormat,
};
use matopt_cost::AnalyticalCostModel;
use matopt_engine::DistRelation;
use matopt_graphs::{
    ffnn_training_graph, ffnn_w2_update_graph_autodiff, two_level_inverse_graph, FfnnConfig,
};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_obs::Obs;
use matopt_serve::protocol::workload_graph;
use matopt_serve::{Fingerprint, PlanService, ServeConfig};
use std::collections::{HashMap, HashSet};

/// A plan service configured exactly as `matopt serve` configures one
/// with its default flags: extended implementation registry, dense
/// format catalog, a ten-worker SimSQL-like cluster, analytical cost
/// model, beam 4000.
pub fn serve_like_service(obs: Obs) -> PlanService {
    PlanService::with_obs(
        ImplRegistry::extended(),
        FormatCatalog::paper_default().dense_only(),
        serve_cluster(),
        Box::new(AnalyticalCostModel),
        ServeConfig::default(),
        obs,
    )
}

pub fn serve_cluster() -> Cluster {
    Cluster::simsql_like(10)
}

// ---------------------------------------------------------------------
// Request lines for `matopt serve`
// ---------------------------------------------------------------------

/// One planning request: the JSON line body (without the id) and the
/// graph the line must produce on the server side.
#[derive(Debug)]
pub struct PlanReq {
    /// The request object without its id: `"workload": ...` or
    /// `"graph": ...`.
    pub body: String,
    pub graph: ComputeGraph,
}

impl PlanReq {
    fn named(spec: &str) -> PlanReq {
        let graph = workload_graph(spec, &serve_cluster())
            .unwrap_or_else(|e| panic!("built-in workload {spec} must build: {e}"));
        PlanReq {
            body: format!("\"workload\": \"{spec}\""),
            graph,
        }
    }

    fn inline(graph: ComputeGraph) -> PlanReq {
        PlanReq {
            body: format!("\"graph\": {}", graph_json(&graph)),
            graph,
        }
    }

    /// The full request line for request `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\": \"{id}\", {}}}", self.body)
    }

    /// The fingerprint `service` assigns the intended graph.
    pub fn fingerprint(&self, service: &PlanService) -> Fingerprint {
        service.fingerprint(&self.graph)
    }
}

fn format_spec(f: PhysFormat) -> String {
    match f {
        PhysFormat::SingleTuple => "single".into(),
        PhysFormat::RowStrip { height } => format!("rowstrip:{height}"),
        PhysFormat::ColStrip { width } => format!("colstrip:{width}"),
        PhysFormat::Tile { side } => format!("tile:{side}"),
        PhysFormat::Coo => "coo".into(),
        PhysFormat::CsrSingle => "csr".into(),
        PhysFormat::CsrTile { side } => format!("csrtile:{side}"),
    }
}

fn op_spec(op: Op) -> String {
    let name = match op {
        Op::MatMul => "mm",
        Op::Add => "add",
        Op::Sub => "sub",
        Op::Hadamard => "hadamard",
        Op::ScalarMul(alpha) => return format!("\"op\": \"scalarmul\", \"alpha\": {alpha:?}"),
        Op::Transpose => "transpose",
        Op::Relu => "relu",
        Op::ReluGrad => "relugrad",
        Op::Softmax => "softmax",
        Op::Sigmoid => "sigmoid",
        Op::Exp => "exp",
        Op::Neg => "neg",
        Op::RowSums => "rowsums",
        Op::ColSums => "colsums",
        Op::Inverse => "inverse",
        Op::BroadcastAddRow => "biasadd",
        Op::SumAll => "sumall",
        Op::FrobeniusNorm => "frobeniusnorm",
    };
    format!("\"op\": \"{name}\"")
}

/// Spells `graph` in the serve protocol's inline `graph` grammar:
/// sources first, then compute vertices in id order, op inputs indexing
/// that combined list.
pub fn graph_json(graph: &ComputeGraph) -> String {
    let mut index = vec![0usize; graph.len()];
    let mut sources = Vec::new();
    let mut next = 0usize;
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            index[id.index()] = next;
            next += 1;
            let m = node.mtype;
            let sparsity = if m.sparsity < 1.0 {
                format!(", \"sparsity\": {:?}", m.sparsity)
            } else {
                String::new()
            };
            sources.push(format!(
                "{{\"rows\": {}, \"cols\": {}{sparsity}, \"format\": \"{}\"}}",
                m.rows,
                m.cols,
                format_spec(*format)
            ));
        }
    }
    let mut ops = Vec::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Compute { op } = &node.kind {
            index[id.index()] = next;
            next += 1;
            let inputs: Vec<String> = node
                .inputs
                .iter()
                .map(|i| index[i.index()].to_string())
                .collect();
            ops.push(format!(
                "{{{}, \"in\": [{}]}}",
                op_spec(*op),
                inputs.join(", ")
            ));
        }
    }
    format!(
        "{{\"sources\": [{}], \"ops\": [{}]}}",
        sources.join(", "),
        ops.join(", ")
    )
}

/// The §8.2 six-matrix chain `O = ((T1·E)·(T1·T2))·(T2·F)` with
/// `T1 = A·B` and `T2 = C·D` over the dimensions `d`: A is `d0×d1`, B
/// `d1×d2`, C `d2×d3`, D `d3×d2`, E `d2×d0` and F `d2×d4`.
pub fn chain_graph(d: [u64; 5], source_format: impl Fn(MatrixType) -> PhysFormat) -> ComputeGraph {
    let mut g = ComputeGraph::new();
    let dims = [
        (d[0], d[1]),
        (d[1], d[2]),
        (d[2], d[3]),
        (d[3], d[2]),
        (d[2], d[0]),
        (d[2], d[4]),
    ];
    let names = ["A", "B", "C", "D", "E", "F"];
    let s: Vec<NodeId> = dims
        .iter()
        .zip(names)
        .map(|(&(r, c), n)| {
            let mt = MatrixType::dense(r, c);
            g.add_source_named(mt, source_format(mt), Some(n))
        })
        .collect();
    let mut mm = |a: NodeId, b: NodeId| g.add_op(Op::MatMul, &[a, b]).expect("chain dims conform");
    let t1 = mm(s[0], s[1]);
    let t2 = mm(s[2], s[3]);
    let t1e = mm(t1, s[4]);
    let t1t2 = mm(t1, t2);
    let left = mm(t1e, t1t2);
    let t2f = mm(t2, s[5]);
    mm(left, t2f);
    g
}

// ---------------------------------------------------------------------
// plan-cold: distinct paper-scale graphs
// ---------------------------------------------------------------------

/// Requests in one `plan-cold` round. Round 0 carries the paper's fixed
/// anchors (`ffnn:80000`, `inverse`); later rounds replace them with
/// seeded neighbours of the same shape so no request repeats a graph.
pub const COLD_ROUND: usize = 8;

/// Relative size jitter of `plan-cold` graphs: enough to make every
/// graph distinct, small enough that a round's plan costs (which scale
/// with size) barely move between seeds.
const COLD_JITTER: f64 = 0.04;

/// One round of distinct paper-scale planning requests. `seen` holds
/// the request bodies already generated in this run.
pub fn plan_cold_round(seed: u64, round: usize, seen: &mut HashSet<String>) -> Vec<PlanReq> {
    let mut rng = SeedRng::stream(seed, &format!("plan-cold/{round}"));
    let j = |rng: &mut SeedRng, base: u64| jitter(rng, base, COLD_JITTER, 10);
    let tile = |m: MatrixType| {
        if m.rows * m.cols <= 1_000_000 {
            PhysFormat::SingleTuple
        } else {
            PhysFormat::Tile { side: 1000 }
        }
    };
    let families: [&dyn Fn(&mut SeedRng) -> PlanReq; COLD_ROUND] = [
        &|rng| match round {
            0 => PlanReq::named("ffnn:80000"),
            _ => PlanReq::named(&format!("ffnn:{}", j(rng, 80_000))),
        },
        &|rng| match round {
            0 => PlanReq::named("inverse"),
            _ => PlanReq::inline(
                two_level_inverse_graph(j(rng, 10_000), j(rng, 2_000))
                    .expect("inverse sizes are well-typed")
                    .graph,
            ),
        },
        &|rng| PlanReq::named(&format!("ffnn:{}", j(rng, 40_000))),
        &|rng| PlanReq::named(&format!("ffnn:{}", j(rng, 60_000))),
        &|rng| PlanReq::named(&format!("ffnn-full:{}", j(rng, 40_000))),
        &|rng| {
            let sparse = if rng.below(2) == 0 { ":sparse" } else { "" };
            PlanReq::named(&format!(
                "amazoncat:{}:{}{sparse}",
                jitter(rng, 1_000, COLD_JITTER, 1),
                jitter(rng, 4_000, COLD_JITTER, 1)
            ))
        },
        &|rng| {
            let d = [
                j(rng, 10_000),
                j(rng, 30_000),
                j(rng, 50_000),
                1,
                j(rng, 10_000),
            ];
            PlanReq::inline(chain_graph(d, tile))
        },
        &|rng| {
            let d = [
                j(rng, 50_000),
                j(rng, 50_000),
                j(rng, 50_000),
                j(rng, 30_000),
                j(rng, 20_000),
            ];
            PlanReq::inline(chain_graph(d, tile))
        },
    ];
    families
        .iter()
        .map(|draw| {
            // A repeated graph would be a cache hit: draw again (the
            // stream has moved on, so this stays deterministic).
            for _ in 0..1000 {
                let req = draw(&mut rng);
                if seen.insert(req.body.clone()) {
                    return req;
                }
            }
            panic!("plan-cold: no fresh graph in 1000 draws (round {round})");
        })
        .collect()
}

// ---------------------------------------------------------------------
// serve-hot: a fixed set of small graphs, drawn uniformly
// ---------------------------------------------------------------------

/// The fixed `serve-hot` working set: built-in workloads and inline
/// graphs of 5–57 vertices. The same on every seed; only the draw
/// order depends on it.
pub fn serve_hot_set() -> Vec<PlanReq> {
    let mut set: Vec<PlanReq> = [
        "motivating",
        "ffnn-small:8",
        "ffnn-small:16",
        "ffnn-small:32",
        "ffnn-small:64",
        "ffnn-train:8",
        "ffnn-train:16",
        "ffnn-train:32",
        "chain:1",
        "chain:2",
        "chain:3",
    ]
    .into_iter()
    .map(PlanReq::named)
    .collect();
    set.push(PlanReq::inline(chain_graph(
        [512, 384, 256, 128, 64],
        |_| PhysFormat::SingleTuple,
    )));
    set.push(PlanReq::inline(
        two_level_inverse_graph(400, 100)
            .expect("inverse sizes are well-typed")
            .graph,
    ));
    let mut g = ComputeGraph::new();
    let a = g.add_source_named(
        MatrixType::sparse(2048, 2048, 0.01),
        PhysFormat::CsrSingle,
        Some("A"),
    );
    let x = g.add_source_named(
        MatrixType::dense(2048, 64),
        PhysFormat::SingleTuple,
        Some("X"),
    );
    let ax = g.add_op(Op::MatMul, &[a, x]).expect("conforms");
    let r = g.add_op(Op::Relu, &[ax]).expect("conforms");
    g.add_op(Op::ColSums, &[r]).expect("conforms");
    set.push(PlanReq::inline(g));
    set
}

/// The `serve-hot` request stream: `len` uniform draws of indices into
/// [`serve_hot_set`].
pub fn serve_hot_stream(seed: u64, set_len: usize, len: usize) -> Vec<usize> {
    let mut rng = SeedRng::stream(seed, "serve-hot");
    (0..len).map(|_| rng.below(set_len)).collect()
}

// ---------------------------------------------------------------------
// exec-*: laptop-scale graphs with seeded inputs
// ---------------------------------------------------------------------

/// The four executed families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// GEMM-bound FFNN W2 update, 128-tiles, batch 256.
    FfnnW2,
    /// GEMM-bound six-matrix chain with shared products.
    Chain,
    /// Scheduler-bound small two-level inverse.
    Inverse,
    /// Reduction-heavy FFNN training step.
    Train,
}

const FAMILIES: [Family; 4] = [
    Family::FfnnW2,
    Family::Chain,
    Family::Inverse,
    Family::Train,
];

/// Cases per family; each case is one graph at a stratified seeded
/// size with its own seeded inputs.
const CASES_PER_FAMILY: usize = 6;

/// One executable case: a graph, its inputs, and the dense copies of
/// those inputs for the reference evaluator.
pub struct ExecCase {
    pub label: String,
    pub graph: ComputeGraph,
    pub inputs: HashMap<NodeId, DistRelation>,
    pub dense_inputs: HashMap<NodeId, DenseMatrix>,
}

fn family_graph(family: Family, rng: &mut SeedRng, k: usize) -> (String, ComputeGraph) {
    let n = CASES_PER_FAMILY;
    match family {
        Family::FfnnW2 => {
            let hidden = stratified(rng, k, n, 128, 640, 16);
            let cfg = FfnnConfig {
                batch: 256,
                features: 512,
                hidden,
                labels: 64,
                input_sparsity: 1.0,
                learning_rate: 0.01,
                input_format: PhysFormat::Tile { side: 128 },
                w1_format: PhysFormat::Tile { side: 128 },
                w_format: PhysFormat::Tile { side: 128 },
            };
            let g = ffnn_w2_update_graph_autodiff(cfg)
                .expect("ffnn sizes are well-typed")
                .graph;
            (format!("ffnn-w2:{hidden}"), g)
        }
        Family::Chain => {
            let side = stratified(rng, k, n, 128, 288, 16);
            let d = [side, side, side, side, side];
            let g = chain_graph(d, |_| PhysFormat::Tile { side: 128 });
            (format!("chain:{side}"), g)
        }
        Family::Inverse => {
            let half = stratified(rng, k, n, 48, 128, 4);
            let g = two_level_inverse_graph(half, half / 4)
                .expect("inverse sizes are well-typed")
                .graph;
            (format!("inverse:{half}"), g)
        }
        Family::Train => {
            let hidden = stratified(rng, k, n, 16, 96, 4);
            let g = ffnn_training_graph(FfnnConfig::laptop(hidden))
                .expect("ffnn sizes are well-typed")
                .graph;
            (format!("train:{hidden}"), g)
        }
    }
}

/// Seeded inputs for `graph`. Square sources get a unit diagonal added
/// so every inverse in the two-level inverse graphs is well
/// conditioned.
fn case_inputs(
    graph: &ComputeGraph,
    seed: u64,
) -> (HashMap<NodeId, DistRelation>, HashMap<NodeId, DenseMatrix>) {
    let mut rng = seeded_rng(seed);
    let mut inputs = HashMap::new();
    let mut dense = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let (r, c) = (node.mtype.rows as usize, node.mtype.cols as usize);
            let noise = random_dense_normal(r, c, &mut rng);
            let scale = 1.0 / (r.max(c) as f64).sqrt();
            let data: Vec<f64> = noise
                .data()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let diag = if r == c && i / c == i % c { 1.0 } else { 0.0 };
                    v * scale + diag
                })
                .collect();
            let m = DenseMatrix::from_vec(r, c, data);
            let rel = DistRelation::from_dense(&m, *format).expect("source format fits its matrix");
            inputs.insert(id, rel);
            dense.insert(id, m);
        }
    }
    (inputs, dense)
}

/// Every `exec-*` case for `seed`: [`CASES_PER_FAMILY`] per family.
pub fn exec_cases(seed: u64) -> Vec<ExecCase> {
    let mut rng = SeedRng::stream(seed, "exec");
    let mut cases = Vec::new();
    for family in FAMILIES {
        for k in 0..CASES_PER_FAMILY {
            let (label, graph) = family_graph(family, &mut rng, k);
            let (inputs, dense_inputs) = case_inputs(&graph, rng.next_u64());
            cases.push(ExecCase {
                label,
                graph,
                inputs,
                dense_inputs,
            });
        }
    }
    cases
}

/// The seeded order in which the exec loop visits cases: `len` uniform
/// draws over `n` cases.
pub fn exec_order(seed: u64, n: usize, len: usize) -> Vec<usize> {
    let mut rng = SeedRng::stream(seed, "exec-order");
    (0..len).map(|_| rng.below(n)).collect()
}
