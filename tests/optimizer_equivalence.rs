//! Property-based cross-validation of the three optimization
//! algorithms: on randomly generated small compute DAGs, the frontier
//! dynamic program must find exactly the brute-force optimum, the tree
//! DP must agree on tree-shaped graphs, and beam truncation must be
//! harmless at generous widths.

use matopt_core::{
    validate, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId, Op,
    PhysFormat, PlanContext,
};
use matopt_cost::{plan_cost, AnalyticalCostModel};
use matopt_opt::{brute_force, frontier_dp, frontier_dp_beam, tree_dp, OptContext};
use proptest::prelude::*;

fn catalog() -> FormatCatalog {
    FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 1000 },
        PhysFormat::Tile { side: 2500 },
        PhysFormat::RowStrip { height: 1000 },
        PhysFormat::ColStrip { width: 1000 },
    ])
}

/// Random DAG generator: each new vertex applies a random op to random
/// existing vertices with compatible types. Square matrices keep every
/// binary op applicable.
fn random_dag(ops: Vec<u8>, shared: bool) -> ComputeGraph {
    let mut g = ComputeGraph::new();
    let m = MatrixType::dense(10_000, 10_000);
    let a = g.add_source(m, PhysFormat::SingleTuple);
    let b = g.add_source(m, PhysFormat::Tile { side: 1000 });
    let mut pool: Vec<NodeId> = vec![a, b];
    for (i, code) in ops.iter().enumerate() {
        let x = pool[(*code as usize * 7 + i) % pool.len()];
        let y = pool[(*code as usize * 13 + i * 3) % pool.len()];
        let v = match code % 6 {
            0 => g.add_op(Op::MatMul, &[x, y]).unwrap(),
            1 => g.add_op(Op::Add, &[x, y]).unwrap(),
            2 => g.add_op(Op::Relu, &[x]).unwrap(),
            3 => g.add_op(Op::Transpose, &[x]).unwrap(),
            4 => g.add_op(Op::Hadamard, &[x, y]).unwrap(),
            _ => g.add_op(Op::Neg, &[x]).unwrap(),
        };
        if shared {
            pool.push(v);
        } else {
            // Linear chain: consume the previous result only.
            pool = vec![v];
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Frontier DP == brute force on small shared DAGs.
    #[test]
    fn frontier_equals_brute(ops in prop::collection::vec(0u8..12, 2..5)) {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let cat = catalog();
        let model = AnalyticalCostModel;
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = random_dag(ops, true);
        let f = frontier_dp(&g, &octx).expect("frontier plan");
        let b = brute_force(&g, &octx, None).expect("brute plan");
        prop_assert!(
            (f.cost - b.cost).abs() <= 1e-6 * f.cost.max(1.0),
            "frontier {} vs brute {}",
            f.cost,
            b.cost
        );
        validate(&g, &f.annotation, &ctx).expect("type-correct");
        // The claimed optimum re-costs identically.
        let recost = plan_cost(&g, &f.annotation, &ctx, &model).unwrap();
        prop_assert!((recost - f.cost).abs() <= 1e-6 * f.cost.max(1.0));
    }

    /// Tree DP == frontier DP == brute force on chains.
    #[test]
    fn tree_chain_agreement(ops in prop::collection::vec(0u8..12, 2..6)) {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let cat = catalog();
        let model = AnalyticalCostModel;
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = random_dag(ops, false);
        prop_assume!(g.is_tree_shaped());
        let t = tree_dp(&g, &octx).expect("tree plan");
        let f = frontier_dp(&g, &octx).expect("frontier plan");
        let b = brute_force(&g, &octx, None).expect("brute plan");
        prop_assert!((t.cost - f.cost).abs() <= 1e-6 * t.cost.max(1.0));
        prop_assert!((t.cost - b.cost).abs() <= 1e-6 * t.cost.max(1.0));
    }

    /// Small beams truncate most steps, including merges of several
    /// tables and tables whose members all leave the frontier; the plan
    /// must still be type-correct, re-cost to its claimed cost, and
    /// repeat exactly.
    #[test]
    fn small_beams_plan_soundly(ops in prop::collection::vec(0u8..12, 2..9), beam in 1usize..=8) {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let cat = catalog();
        let model = AnalyticalCostModel;
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = random_dag(ops, true);
        let a = frontier_dp_beam(&g, &octx, beam).expect("beamed plan");
        validate(&g, &a.annotation, &ctx).expect("type-correct");
        let recost = plan_cost(&g, &a.annotation, &ctx, &model).unwrap();
        prop_assert!((recost - a.cost).abs() <= 1e-9 * a.cost.max(1.0), "re-cost {} vs {}", recost, a.cost);
        let b = frontier_dp_beam(&g, &octx, beam).expect("beamed plan");
        prop_assert_eq!(&a.annotation, &b.annotation);
        prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        prop_assert_eq!(a.beam_truncated, b.beam_truncated);
    }

    /// A generous beam changes nothing on these graphs.
    #[test]
    fn beam_is_harmless_at_width(ops in prop::collection::vec(0u8..12, 2..5)) {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let cat = catalog();
        let model = AnalyticalCostModel;
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = random_dag(ops, true);
        let exact = frontier_dp(&g, &octx).expect("exact");
        let beamed = frontier_dp_beam(&g, &octx, 4000).expect("beamed");
        prop_assert!((exact.cost - beamed.cost).abs() <= 1e-9 * exact.cost.max(1.0));
    }
}

/// The beam is deterministic and monotone: widening it never worsens
/// the plan (checked on the FFNN backprop graph where it actually
/// truncates).
#[test]
fn beam_widening_is_monotone_on_ffnn() {
    use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
    let reg = ImplRegistry::paper_default();
    let ctx = PlanContext::new(&reg, Cluster::simsql_like(10));
    let cat = FormatCatalog::paper_default().dense_only();
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &cat, &model);
    let g = ffnn_w2_update_graph(FfnnConfig::simsql_experiment(10_000))
        .unwrap()
        .graph;
    let mut last = f64::INFINITY;
    for beam in [50usize, 500, 5000] {
        let cost = frontier_dp_beam(&g, &octx, beam).unwrap().cost;
        assert!(
            cost <= last * 1.0 + 1e-9,
            "beam {beam} worsened the plan: {cost} > {last}"
        );
        last = cost;
    }
}

/// The `matopt serve` planning defaults: the extended registry, the
/// dense paper catalog, ten SimSQL-like workers and the serve beam.
fn plan_at_serve_defaults(graph: &ComputeGraph) -> matopt_opt::Optimized {
    let reg = ImplRegistry::extended();
    let ctx = PlanContext::new(&reg, Cluster::simsql_like(10));
    let cat = FormatCatalog::paper_default().dense_only();
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &cat, &model);
    frontier_dp_beam(graph, &octx, matopt_serve::ServeConfig::default().beam).expect("plans")
}

fn serve_workload(spec: &str) -> ComputeGraph {
    matopt_serve::protocol::workload_graph(spec, &Cluster::simsql_like(10)).expect("workload")
}

/// Golden plan costs of the paper-scale cold-planning graphs at serve
/// defaults, pinned bit for bit (each literal is the shortest decimal
/// that round-trips): a faster frontier DP must find exactly the same
/// optimum and sum its cost in the same order.
#[test]
fn golden_costs_at_serve_defaults() {
    let golden: [(&str, f64); 7] = [
        ("ffnn:80000", 1_426.906_813_793_780_9),
        ("inverse", 687.699_574_999_999_9),
        ("ffnn:40000", 651.459_697_168_781_3),
        ("ffnn:60000", 987.940_755_481_281_5),
        ("ffnn-full:40000", 1_389.419_021_211_031_8),
        ("amazoncat:1000:4000", 466.521_152_079_375),
        ("amazoncat:1000:4000:sparse", 438.292_493_195_386_1),
    ];
    for (spec, want) in golden {
        let got = plan_at_serve_defaults(&serve_workload(spec)).cost;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{spec}: planned {got:.17e}, golden {want:.17e}"
        );
    }
}

/// FNV-1a over an annotation's `Debug` text: a stable digest of every
/// vertex's implementation, transformations and output format.
fn annotation_digest(annotation: &matopt_core::Annotation) -> u64 {
    format!("{annotation:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}

/// The whole search at serve defaults, not just its optimum: how many
/// joint states the beam dropped and which plan it picked, pinned for
/// the cold-planning graphs. A faster frontier DP must visit, rank and
/// cut the same states.
#[test]
fn golden_search_at_serve_defaults() {
    let golden: [(&str, usize, u64); 9] = [
        ("ffnn:80000", 161_972, 0x2539_3D74_90BD_7DA5),
        ("inverse", 660_059, 0x9FC6_1BEA_E754_179C),
        ("ffnn:40000", 144_350, 0x2539_3D74_90BD_7DA5),
        ("ffnn:60000", 164_192, 0x2539_3D74_90BD_7DA5),
        ("ffnn-full:40000", 640_637, 0x5542_5E39_1872_735E),
        ("amazoncat:1000:4000", 480_218, 0xEB52_1A57_37F9_F512),
        ("amazoncat:1000:4000:sparse", 449_453, 0x3710_7EE6_0DF7_3FDA),
        ("chain:1", 0, 0x98C2_BDF6_B50B_90F1),
        ("chain:3", 0, 0x872B_D89C_A8B8_11CC),
    ];
    for (spec, truncated, digest) in golden {
        let plan = plan_at_serve_defaults(&serve_workload(spec));
        assert_eq!(plan.beam_truncated, truncated, "{spec}: beam_truncated");
        assert_eq!(
            annotation_digest(&plan.annotation),
            digest,
            "{spec}: annotation digest"
        );
    }
}

/// Planning the same graph twice in one process gives the same plan:
/// ties among equal-cost joint states break on a fixed order, never on
/// hash-map iteration order.
#[test]
fn planning_is_deterministic() {
    for spec in [
        "ffnn:80000",
        "inverse",
        "ffnn:40000",
        "ffnn:60000",
        "ffnn-full:40000",
        "amazoncat:1000:4000",
        "amazoncat:1000:4000:sparse",
        "chain:1",
        "chain:3",
    ] {
        let g = serve_workload(spec);
        let a = plan_at_serve_defaults(&g);
        let b = plan_at_serve_defaults(&g);
        assert_eq!(a.annotation, b.annotation, "{spec}: annotations differ");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{spec}: costs differ");
        assert_eq!(
            a.beam_truncated, b.beam_truncated,
            "{spec}: truncation differs"
        );
    }
}

/// A frontier class wider than 16 members still plans: one shared
/// source feeds 17 unary ops that a chain of adds consumes only at the
/// end, so the class holds the source and every op result at once.
#[test]
fn wide_frontier_class_plans() {
    let reg = ImplRegistry::paper_default();
    let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
    let cat = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 1000 },
    ]);
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &cat, &model);
    let mut g = ComputeGraph::new();
    let x = g.add_source(MatrixType::dense(2000, 2000), PhysFormat::SingleTuple);
    let leaves: Vec<NodeId> = (0..17)
        .map(|i| {
            let op = if i % 2 == 0 { Op::Relu } else { Op::Neg };
            g.add_op(op, &[x]).unwrap()
        })
        .collect();
    let mut acc = leaves[0];
    for leaf in &leaves[1..] {
        acc = g.add_op(Op::Add, &[acc, *leaf]).unwrap();
    }
    assert!(matopt_opt::max_class_size(&g) > 16);
    let opt = frontier_dp_beam(&g, &octx, 64).expect("plans");
    validate(&g, &opt.annotation, &ctx).expect("type-correct");
    let recost = plan_cost(&g, &opt.annotation, &ctx, &model).unwrap();
    assert_eq!(recost, opt.cost);
}
