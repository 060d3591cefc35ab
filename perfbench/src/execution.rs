//! The execution workloads, `exec-local` and `exec-fleet`: a closed
//! loop through `FrontDoor::execute`, in-process, optionally with a
//! two-process `WorkerFleet` attached.

use crate::gen::{exec_cases, exec_order, serve_like_service, ExecCase};
use crate::planning::{set_host_probes, write_trace};
use crate::trace::Tracer;
use crate::util::{geomean, median, reset_hwm, secs, vm_hwm_mb, Fnv, Slices};
use crate::{Ctx, RunResult, RATE_SLICES, SETUP_REPS};
use matopt_core::{BackoffPolicy, ComputeGraph, NodeId, NodeKind, Op};
use matopt_engine::{execute_plan_serial, reference_eval, ExecOutcome};
use matopt_obs::{EventKind, MemorySink, MetricsRegistry, Obs};
use matopt_pool::{Pool, PoolStats};
use matopt_serve::{ExecRequest, FrontDoor, FrontDoorConfig, Planned};
use matopt_worker::{FleetConfig, FleetStats, WorkerFleet};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of the pre-drawn request order; the loop cycles it.
const ORDER_LEN: usize = 1 << 14;
/// Worker processes in the fleet.
const FLEET_WORKERS: u32 = 2;
/// Reference-evaluator tolerance, relative to the largest magnitude in
/// the sink.
const REF_TOL: f64 = 1e-8;

/// A front door, its fleet when one is attached, and the fleet's
/// shutdown on drop (error paths included).
struct Rig {
    front: Arc<FrontDoor>,
    fleet: Option<Arc<WorkerFleet>>,
}

impl Rig {
    fn build(ctx: &Ctx, obs: Obs, fleet: bool) -> Result<Rig, String> {
        let front = Arc::new(FrontDoor::new(
            Arc::new(serve_like_service(obs)),
            FrontDoorConfig::default(),
        ));
        let fleet = if fleet {
            let death_front = Arc::clone(&front);
            let cfg = FleetConfig {
                workers: FLEET_WORKERS,
                heartbeat_interval: Duration::from_millis(25),
                heartbeat_misses: 8,
                restart: BackoffPolicy {
                    base_ms: 10,
                    cap_ms: 200,
                    max_attempts: 5,
                },
                worker_bin: ctx.workerd.clone(),
                obs: None,
                on_death: Some(Arc::new(move |_| death_front.record_worker_death())),
                seed: ctx.seed,
            };
            let fleet = WorkerFleet::spawn(cfg).map_err(|e| format!("fleet spawn: {e}"))?;
            front.attach_remote(fleet.clone());
            Some(fleet)
        } else {
            None
        };
        Ok(Rig { front, fleet })
    }

    fn fleet_stats(&self) -> FleetStats {
        self.fleet.as_ref().map(|f| f.stats()).unwrap_or_default()
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(f) = &self.fleet {
            f.shutdown();
        }
    }
}

/// Builds the rig and warms every case's plan, `SETUP_REPS` times,
/// timing each; keeps the last rig. Returns it with the median time.
fn build_timed(
    ctx: &Ctx,
    obs: &Obs,
    fleet: bool,
    cases: &[ExecCase],
) -> Result<(Rig, f64), String> {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        drop(rig.take());
        let t = Instant::now();
        let built = Rig::build(ctx, obs.clone(), fleet)?;
        for case in cases {
            built
                .front
                .service()
                .plan(&case.graph)
                .map_err(|e| format!("{}: {e}", case.label))?;
        }
        times.push(secs(t));
        rig = Some(built);
    }
    Ok((rig.expect("SETUP_REPS > 0"), median(&times)))
}

/// One case's warmed plan and the serial-executor oracle for its sinks.
struct Prepared {
    planned: Planned,
    oracle: BTreeMap<u32, Vec<u64>>,
}

/// Sink bits by vertex id.
fn sink_bits(outcome: &ExecOutcome) -> BTreeMap<u32, Vec<u64>> {
    outcome
        .sinks
        .iter()
        .map(|(id, rel)| {
            let bits = rel.to_dense().data().iter().map(|v| v.to_bits()).collect();
            (id.0, bits)
        })
        .collect()
}

/// Warms every case's plan on `front`'s service and computes its oracle
/// with `execute_plan_serial`, checking the oracle once against
/// `reference_eval`.
fn prepare(
    front: &FrontDoor,
    cases: &[ExecCase],
    result: &mut RunResult,
) -> Result<Vec<Prepared>, String> {
    let svc = front.service();
    cases
        .iter()
        .map(|case| {
            let planned = svc
                .plan(&case.graph)
                .map_err(|e| format!("{}: {e}", case.label))?;
            let serial = execute_plan_serial(
                &case.graph,
                &planned.plan.annotation,
                &case.inputs,
                svc.registry(),
            )
            .map_err(|e| format!("{}: serial execution: {e}", case.label))?;
            let reference = reference_eval(&case.graph, &case.dense_inputs)
                .map_err(|e| format!("{}: reference: {e}", case.label))?;
            let close = reference.iter().all(|(id, want)| {
                let Some(got) = serial.sinks.get(id) else {
                    return false;
                };
                let got = got.to_dense();
                let scale = want.data().iter().fold(1.0f64, |m, v| m.max(v.abs()));
                got.data().len() == want.data().len()
                    && got
                        .data()
                        .iter()
                        .zip(want.data())
                        .all(|(a, b)| (a - b).abs() <= REF_TOL * scale)
            });
            result.check(close && reference.len() == serial.sinks.len(), || {
                format!(
                    "{}: serial executor disagrees with reference_eval",
                    case.label
                )
            });
            Ok(Prepared {
                oracle: sink_bits(&serial),
                planned,
            })
        })
        .collect()
}

/// What the loop keeps of one served request (the outcome itself is
/// dropped at once: sinks are large).
struct Sample {
    case: usize,
    ok: bool,
    /// Completion time, seconds since the loop started.
    done: f64,
    latency: f64,
    plan_latency: f64,
    exec: f64,
    busy: f64,
    transforms: f64,
    max_concurrency: f64,
    peak_resident_mb: f64,
    matmul_flops: f64,
    matmul_secs: f64,
    vertex_secs: Vec<f64>,
}

fn matmul_flops(graph: &ComputeGraph, id: NodeId) -> Option<f64> {
    let node = graph.node(id);
    if !matches!(node.kind, NodeKind::Compute { op: Op::MatMul }) {
        return None;
    }
    let a = graph.node(node.inputs[0]).mtype;
    Some(2.0 * a.rows as f64 * a.cols as f64 * node.mtype.cols as f64)
}

fn sample(
    done: f64,
    case_idx: usize,
    case: &ExecCase,
    prep: &Prepared,
    latency: f64,
    resp: &matopt_serve::ExecResponse,
) -> Sample {
    let out = &resp.outcome;
    let ok = sink_bits(out) == prep.oracle;
    let mut mm_flops = 0.0;
    let mut mm_secs = 0.0;
    let mut vertex_secs = Vec::new();
    for (id, node) in case.graph.iter() {
        if matches!(node.kind, NodeKind::Compute { .. }) {
            let s = out.vertex_seconds[id.index()];
            vertex_secs.push(s);
            if let Some(f) = matmul_flops(&case.graph, id) {
                mm_flops += f;
                mm_secs += s;
            }
        }
    }
    Sample {
        case: case_idx,
        ok,
        done,
        latency,
        plan_latency: resp.planned.latency.as_secs_f64(),
        exec: out.total_seconds,
        busy: out.vertex_seconds.iter().sum(),
        transforms: out.transform_seconds.iter().flatten().sum(),
        max_concurrency: out.max_concurrency as f64,
        peak_resident_mb: out.peak_resident_bytes as f64 / (1 << 20) as f64,
        matmul_flops: mm_flops,
        matmul_secs: mm_secs,
        vertex_secs,
    }
}

/// Input keys for executions outside the timed loops (warm-up, fleet
/// comparison), far above any key a loop hands out.
const SIDE_KEYS: u64 = 1 << 40;
/// Warm-up executions of every case before any timed loop. They fill
/// the service's cost-drift baselines (the first 4 runs of each plan,
/// `DriftConfig::baseline_window`) under warm caches, so first-touch
/// costs do not later read as cost-model drift and re-plan every case
/// mid-run.
const WARMUP_RUNS: u64 = 4;

fn warm_up(
    front: &FrontDoor,
    cases: &[ExecCase],
    preps: &[Prepared],
    result: &mut RunResult,
) -> Result<(), String> {
    for (c, (case, prep)) in cases.iter().zip(preps).enumerate() {
        for r in 0..WARMUP_RUNS {
            let resp = front
                .execute(&ExecRequest {
                    tenant: "bench",
                    graph: &case.graph,
                    inputs: &case.inputs,
                    input_key: SIDE_KEYS + c as u64 * WARMUP_RUNS + r,
                    deadline: None,
                })
                .map_err(|e| format!("{}: warm-up: {e}", case.label))?;
            result.check(sink_bits(&resp.outcome) == prep.oracle, || {
                format!(
                    "{}: warm-up sinks differ from the serial oracle",
                    case.label
                )
            });
        }
    }
    Ok(())
}

/// What one closed loop produced.
struct LoopRun {
    samples: Vec<Sample>,
    /// Seconds from the first request to the last return.
    wall: f64,
    /// Executions that returned an error.
    errors: u64,
}

/// Closed loop with one client: the next request goes out when the
/// previous one returns, until `window` has passed. Request `i` runs
/// case `order[(offset + i) % ORDER_LEN]` under input key
/// `offset + i + 1`.
///
/// One client, not two: with two concurrent executions on a two-core
/// host the pool's nested GEMM jobs interfere (single requests run at
/// up to 8x their solo latency, p99 swings 2x between identical runs,
/// and throughput is no higher than with one client), so the workload
/// would measure that interference rather than the layers under it.
fn closed_loop(
    front: &FrontDoor,
    cases: &[ExecCase],
    preps: &[Prepared],
    order: &[usize],
    offset: usize,
    window: Duration,
    tracer: Option<&Tracer>,
) -> LoopRun {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut errors = 0u64;
    let mut i = offset;
    while start.elapsed() < window {
        let c = order[i % ORDER_LEN];
        let req = ExecRequest {
            tenant: "bench",
            graph: &cases[c].graph,
            inputs: &cases[c].inputs,
            input_key: i as u64 + 1,
            deadline: None,
        };
        let t = Instant::now();
        let (resp, span) = match tracer {
            Some(tr) => {
                let traced = |id| (front.execute(&req), Some(id));
                tr.span(None, i as u64, "front", "execute", traced).0
            }
            None => (front.execute(&req), None),
        };
        let latency = secs(t);
        match resp {
            Ok(resp) => {
                if let (Some(tr), Some(id)) = (tracer, span) {
                    let plan = resp.planned.latency.as_secs_f64();
                    let exec = resp.outcome.total_seconds;
                    tr.child_from_duration(id, i as u64, "serve", "plan", plan, true);
                    tr.child_from_duration(id, i as u64, "engine", "execute_plan", exec, false);
                }
                let done = secs(start);
                samples.push(sample(done, c, &cases[c], &preps[c], latency, &resp));
            }
            Err(e) => {
                errors += 1;
                if errors <= 3 {
                    eprintln!("perfbench: request {i} ({}): {e}", cases[c].label);
                }
            }
        }
        i += 1;
    }
    LoopRun {
        samples,
        wall: secs(start),
        errors,
    }
}

fn account(result: &mut RunResult, cases: &[ExecCase], samples: &[Sample], errors: u64) {
    for s in samples {
        result.check(s.ok, || {
            format!(
                "{}: sinks differ from the serial oracle",
                cases[s.case].label
            )
        });
    }
    for _ in 0..errors {
        result.check(false, || "execution returned an error".into());
    }
}

pub fn run(ctx: &Ctx, with_fleet: bool) -> Result<RunResult, String> {
    let mut cases = exec_cases(ctx.seed);
    let order = exec_order(ctx.seed, cases.len(), ORDER_LEN);
    let mut result = RunResult::default();
    if ctx.trace {
        return run_traced(ctx, with_fleet, &cases, &order, result);
    }
    let (rig, setup_s) = build_timed(ctx, &Obs::disabled(), with_fleet, &cases)?;
    result.set("setup_s", setup_s);
    let preps = prepare(&rig.front, &cases, &mut result)?;
    set_plan_metrics(&mut result, &preps);
    warm_up(&rig.front, &cases, &preps, &mut result)?;
    // The dense copies only fed the reference check; the memory peak
    // reported is the one of serving, from here on.
    for case in &mut cases {
        case.dense_inputs = HashMap::new();
    }
    reset_hwm();

    let run = closed_loop(&rig.front, &cases, &preps, &order, 0, ctx.window, None);
    let samples = run.samples;
    account(&mut result, &cases, &samples, run.errors);
    for (c, case) in cases.iter().enumerate() {
        let lat: Vec<f64> = samples
            .iter()
            .filter(|s| s.case == c)
            .map(|s| s.latency * 1e3)
            .collect();
        eprintln!(
            "perfbench: {:<14} n={:<5} p50={:.3} ms",
            case.label,
            lat.len(),
            median(&lat)
        );
    }
    let done: Vec<f64> = samples.iter().map(|s| s.done).collect();
    let lat: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    let window = ctx.window.as_secs_f64();
    result.set_sliced(&Slices::by_time(&done, &lat, window, RATE_SLICES));
    result.set(
        "peak_rss_mb",
        vm_hwm_mb(std::process::id()).ok_or("no VmHWM in /proc")?,
    );
    Ok(result)
}

/// Plan-cost geomean over the cases, and the determinism digest over
/// plan costs and oracle sink bits.
fn set_plan_metrics(result: &mut RunResult, preps: &[Prepared]) {
    let costs: Vec<f64> = preps.iter().map(|p| p.planned.plan.cost).collect();
    result.set("plan_cost_geomean", geomean(&costs));
    let mut digest = Fnv::new();
    for p in preps {
        digest.f64(p.planned.plan.cost);
        for (id, bits) in &p.oracle {
            digest.bytes(&id.to_le_bytes());
            for b in bits {
                digest.bytes(&b.to_le_bytes());
            }
        }
    }
    result.digest = digest.finish();
}

fn run_traced(
    ctx: &Ctx,
    with_fleet: bool,
    cases: &[ExecCase],
    order: &[usize],
    mut result: RunResult,
) -> Result<RunResult, String> {
    set_host_probes(&mut result);
    let sink = Arc::new(MemorySink::new());
    let traced_obs = Obs::with_metrics(Arc::clone(&sink), MetricsRegistry::new());
    let untraced = Rig::build(ctx, Obs::disabled(), with_fleet)?;
    let traced = Rig::build(ctx, traced_obs, with_fleet)?;
    let preps_u = prepare(&untraced.front, cases, &mut result)?;
    let preps_t = prepare(&traced.front, cases, &mut result)?;
    set_plan_metrics(&mut result, &preps_t);
    warm_up(&untraced.front, cases, &preps_u, &mut result)?;
    warm_up(&traced.front, cases, &preps_t, &mut result)?;
    sink.take(); // set-up events are not part of the execution trace

    let tracer = Tracer::new();
    let slice = ctx.window / 12;
    let opt_before = traced.front.service().stats();
    let fleet_before = traced.fleet_stats();
    let mut traced_samples = Vec::new();
    let mut untraced_lat = Vec::new();
    let mut pool = PoolStats::default();
    let mut traced_wall = 0.0;
    // Alternate untraced and traced slices over the same requests, in
    // ABBA order, so neither drift in the host's speed nor going first
    // favours one side.
    for k in 0..4 {
        let offset = (k / 2) * 4096;
        let traced_first = k % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            if !traced_turn {
                let run = closed_loop(&untraced.front, cases, &preps_u, order, offset, slice, None);
                account(&mut result, cases, &run.samples, run.errors);
                untraced_lat.extend(run.samples.iter().map(|s| (s.case, s.latency)));
                continue;
            }
            let p0 = Pool::global().stats();
            let run = closed_loop(
                &traced.front,
                cases,
                &preps_t,
                order,
                offset,
                slice,
                Some(&tracer),
            );
            let p1 = Pool::global().stats();
            account(&mut result, cases, &run.samples, run.errors);
            pool = add_pool(pool, p1.since(&p0));
            traced_wall += run.wall;
            traced_samples.extend(run.samples);
        }
    }
    let events = sink.take();
    // Per case, traced over untraced median latency; the median of those
    // ratios, so neither the case mix nor a few outliers set it.
    let per_case_median = |side: &mut dyn Iterator<Item = (usize, f64)>| {
        let mut by_case = vec![Vec::new(); cases.len()];
        for (c, latency) in side {
            by_case[c].push(latency);
        }
        by_case.iter().map(|l| median(l)).collect::<Vec<_>>()
    };
    let t = per_case_median(&mut traced_samples.iter().map(|s| (s.case, s.latency)));
    let u = per_case_median(&mut untraced_lat.into_iter());
    let ratios: Vec<f64> = t
        .iter()
        .zip(&u)
        .filter(|(t, u)| **t > 0.0 && **u > 0.0)
        .map(|(t, u)| t / u)
        .collect();
    result.set("obs.overhead_frac", median(&ratios) - 1.0);

    let n = traced_samples.len().max(1) as f64;
    let col = |f: fn(&Sample) -> f64| -> Vec<f64> { traced_samples.iter().map(f).collect() };
    result.set(
        "front.wait_ms_p50",
        median(&col(|s| (s.latency - s.plan_latency - s.exec) * 1e3)),
    );
    result.set(
        "front.queued_waits",
        traced.front.stats().queued_waits as f64,
    );
    result.set("engine.exec_ms_p50", median(&col(|s| s.exec * 1e3)));
    result.set(
        "engine.max_concurrency_p50",
        median(&col(|s| s.max_concurrency)),
    );
    result.set(
        "engine.peak_resident_mb_p50",
        median(&col(|s| s.peak_resident_mb)),
    );
    result.set("kernels.busy_ms_p50", median(&col(|s| s.busy * 1e3)));
    let flops: f64 = traced_samples.iter().map(|s| s.matmul_flops).sum();
    let mm_secs: f64 = traced_samples.iter().map(|s| s.matmul_secs).sum();
    let gflops = flops / mm_secs.max(1e-12) / 1e9;
    result.set("kernels.matmul_gflops", gflops);
    let peak = result.metrics["kernels.host_peak_gflops"];
    result.set("kernels.roofline_frac", gflops / peak.max(1e-12));
    result.set(
        "transforms.busy_ms_p50",
        median(&col(|s| s.transforms * 1e3)),
    );
    let transform_spans = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanBegin && e.name == "transform")
        .count();
    result.set("transforms.count", transform_spans as f64 / n);
    let threads = Pool::global().parallelism() as f64;
    result.set(
        "pool.utilization",
        pool.busy_ns as f64 / 1e9 / (threads * traced_wall),
    );
    result.set("pool.steals", pool.steals as f64 / n);
    result.set("pool.tasks", pool.tasks as f64 / n);

    let after = traced.front.service().stats();
    result.set(
        "opt.runs",
        (after.optimize_runs - opt_before.optimize_runs) as f64,
    );
    result.set(
        "cache.hit_ratio",
        (after.hits - opt_before.hits) as f64
            / (after.requests - opt_before.requests).max(1) as f64,
    );
    result.set("cache.hit_us_p50", median(&col(|s| s.plan_latency * 1e6)));
    result.set("cache.entries", after.cache_entries as f64);
    result.set("cache.evictions", after.cache.evicted as f64);
    let mut fp_us = Vec::new();
    for case in cases {
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(traced.front.service().fingerprint(&case.graph));
            fp_us.push(secs(t) * 1e6);
        }
    }
    result.set("fingerprint.us_p50", median(&fp_us));

    let fleet_after = traced.fleet_stats();
    result.set(
        "worker.tasks_ok",
        (fleet_after.tasks_ok - fleet_before.tasks_ok) as f64,
    );
    result.set(
        "worker.redispatches",
        (fleet_after.redispatches - fleet_before.redispatches) as f64,
    );
    result.set(
        "worker.deaths",
        (fleet_after.deaths - fleet_before.deaths) as f64,
    );
    if with_fleet {
        let vertex: Vec<f64> = traced_samples
            .iter()
            .flat_map(|s| s.vertex_secs.iter().map(|v| v * 1e3))
            .collect();
        result.set("worker.remote_vertex_ms_p50", median(&vertex));
        let overhead = fleet_overhead(cases, &preps_u, &untraced, &mut result)?;
        result.set("worker.overhead_frac", overhead);
    }

    let selfs = tracer.self_seconds();
    let per_req = |layer: &str| selfs.get(layer).copied().unwrap_or(0.0) * 1e3 / n;
    result.set("self.serve_ms", per_req("serve"));
    result.set("self.engine_ms", per_req("engine"));
    write_trace(ctx, &tracer, &events)?;
    Ok(result)
}

fn add_pool(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        tasks: a.tasks + b.tasks,
        steals: a.steals + b.steals,
        batches: a.batches + b.batches,
        busy_ns: a.busy_ns + b.busy_ns,
    }
}

/// Fleet execution time over local execution time − 1, on identical
/// plans and inputs: every case once through a local front door on the
/// same service and once through the fleet-backed one, alternating.
fn fleet_overhead(
    cases: &[ExecCase],
    preps: &[Prepared],
    fleet_rig: &Rig,
    result: &mut RunResult,
) -> Result<f64, String> {
    let local = FrontDoor::new(
        Arc::clone(fleet_rig.front.service()),
        FrontDoorConfig::default(),
    );
    let mut local_s = 0.0;
    let mut fleet_s = 0.0;
    for (i, (case, prep)) in cases.iter().zip(preps).enumerate() {
        for (front, total) in [(&local, &mut local_s), (&*fleet_rig.front, &mut fleet_s)] {
            let resp = front
                .execute(&ExecRequest {
                    tenant: "bench",
                    graph: &case.graph,
                    inputs: &case.inputs,
                    input_key: SIDE_KEYS + i as u64,
                    deadline: None,
                })
                .map_err(|e| format!("{}: {e}", case.label))?;
            result.check(sink_bits(&resp.outcome) == prep.oracle, || {
                format!("{}: sinks differ from the serial oracle", case.label)
            });
            *total += resp.outcome.total_seconds;
        }
    }
    Ok(fleet_s / local_s.max(1e-12) - 1.0)
}
