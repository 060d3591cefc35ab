//! The planning workloads, `plan-cold` and `serve-hot`, driven through
//! the real `matopt serve` binary over its JSON-lines protocol. Their
//! traced runs also replay the same lines in-process through
//! `parse_request` → `PlanService::fingerprint` → `PlanService::plan`
//! with observability on, to split request time across the layers.

use crate::client::{Answer, Server};
use crate::gen::{
    plan_cold_round, serve_cluster, serve_hot_set, serve_hot_stream, serve_like_service, PlanReq,
    COLD_ROUND,
};
use crate::trace::Tracer;
use crate::util::{geomean, median, secs, Fnv, Slices};
use crate::{Ctx, RunResult, RATE_SLICES, SETUP_REPS};
use matopt_obs::{export, EventKind, MemorySink, MetricsRegistry, Obs};
use matopt_serve::protocol::{parse_request, Json};
use matopt_serve::{Fingerprint, PlanService, PlanSource};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Length of the pre-drawn `serve-hot` stream; the loop cycles it.
const HOT_STREAM: usize = 1 << 16;

/// Starts `SETUP_REPS` servers one after another, timing each from
/// spawn to its first `stats` answer; keeps the last one running.
/// Returns it with the median start-up time.
fn start_timed(ctx: &Ctx, args: &[&str]) -> Result<(Server, f64), String> {
    let mut times = Vec::new();
    let log = ctx.out_file("server.log");
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let server = Server::start(&ctx.matopt, args, &log)?;
        times.push(secs(t));
        if rep + 1 == SETUP_REPS {
            return Ok((server, median(&times)));
        }
        server.shutdown()?;
    }
    unreachable!("SETUP_REPS > 0")
}

/// What a checked plan response carried.
struct Served {
    cost: f64,
    source: String,
    opt_seconds: f64,
    server_us: f64,
}

/// Checks one plan response: `status: ok`, the echoed id, the
/// fingerprint the in-process service assigns the generated graph, and
/// a finite cost.
fn check_plan(result: &mut RunResult, answer: &Answer, expected: Fingerprint) -> Option<Served> {
    let r = &answer.response;
    let id = answer.seq.to_string();
    let served = (|| {
        if r.get("status")?.as_str()? != "ok" || r.get("id")?.as_str()? != id {
            return None;
        }
        if r.get("fingerprint")?.as_str()? != expected.hex() {
            return None;
        }
        let cost = r.get("cost")?.as_f64().filter(|c| c.is_finite())?;
        Some(Served {
            cost,
            source: r.get("source")?.as_str()?.to_string(),
            opt_seconds: r.get("opt_seconds")?.as_f64()?,
            server_us: r.get("latency_us")?.as_f64()?,
        })
    })();
    result.check(served.is_some(), || {
        format!("request {id}: unexpected response {r:?}")
    });
    served
}

fn stat(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// plan-cold
// ---------------------------------------------------------------------

pub fn plan_cold(ctx: &Ctx) -> Result<RunResult, String> {
    let expect_svc = serve_like_service(Obs::disabled());
    let mut seen = HashSet::new();
    // Whole rounds until the window closes. A run never needs more
    // rounds than seconds + 1 (no round plans in under a second).
    let max_rounds = ctx.window.as_secs() as usize + 1;
    let reqs: Vec<PlanReq> = (0..max_rounds)
        .flat_map(|r| plan_cold_round(ctx.seed, r, &mut seen))
        .collect();
    let expected: Vec<Fingerprint> = reqs.iter().map(|r| r.fingerprint(&expect_svc)).collect();
    if ctx.trace {
        return plan_cold_traced(ctx, &reqs[..COLD_ROUND], &expected);
    }

    let mut result = RunResult::default();
    let (mut server, setup_s) = start_timed(ctx, &[])?;
    result.set("setup_s", setup_s);
    let start = Instant::now();
    let window = ctx.window;
    let lines: Vec<String> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i as u64))
        .collect();
    let answers = server.closed_loop(1, |i| {
        // Only whole rounds are sent, so every run serves the same mix.
        if i % COLD_ROUND == 0 && start.elapsed() >= window {
            return None;
        }
        lines.get(i).cloned()
    })?;
    // Too few, too long requests to fill time slices: each round is a
    // slice (every round plans the same mix of graph families).
    let mut rounds = vec![Vec::new(); answers.len().div_ceil(COLD_ROUND)];
    for a in &answers {
        let done = (a.done - start).as_secs_f64();
        rounds[a.seq / COLD_ROUND].push((done, a.latency.as_secs_f64()));
    }
    result.set_sliced(&Slices::from_groups(rounds));
    result.set("peak_rss_mb", server.peak_rss_mb()?);
    server.shutdown()?;

    let mut round0 = Vec::new();
    let mut digest = Fnv::new();
    for a in &answers {
        if let Some(s) = check_plan(&mut result, a, expected[a.seq]) {
            if a.seq < COLD_ROUND {
                round0.push(s.cost);
                digest.f64(s.cost);
            }
        }
    }
    // The geomean covers round 0 only, which every run completes, so it
    // repeats exactly on a seed however many rounds fit the window.
    result.set("plan_cost_geomean", geomean(&round0));
    result.digest = digest.finish();
    Ok(result)
}

fn plan_cold_traced(
    ctx: &Ctx,
    round: &[PlanReq],
    expected: &[Fingerprint],
) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    set_host_probes(&mut result);

    // 1. The real server: client-side view of one round.
    let mut server = Server::start(&ctx.matopt, &[], &ctx.out_file("server.log"))?;
    let lines: Vec<String> = round
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i as u64))
        .collect();
    let answers = server.closed_loop(1, |i| lines.get(i).cloned())?;
    let stats = server.stats()?;
    server.shutdown()?;
    let mut digest = Fnv::new();
    let mut client_overhead_us = Vec::new();
    let mut opt_s = 0.0;
    let mut client_s = 0.0;
    let mut server_s = 0.0;
    for a in &answers {
        if let Some(s) = check_plan(&mut result, a, expected[a.seq]) {
            digest.f64(s.cost);
            client_overhead_us.push(a.latency.as_secs_f64() * 1e6 - s.server_us);
            client_s += a.latency.as_secs_f64();
            server_s += s.server_us / 1e6;
            if s.source == "miss" {
                opt_s += s.opt_seconds;
            }
        }
    }
    result.digest = digest.finish();
    set_server_layers(&mut result, &answers, &client_overhead_us, &stats);
    result.set("opt.share", opt_s / client_s.max(1e-12));

    // 2. In-process replay of the same lines with observability on.
    let replay = replay(ctx, &lines, expected, &mut result, None)?;
    // A fresh serve process is the untraced baseline for the same
    // requests: its own per-request latency.
    result.set(
        "obs.overhead_frac",
        replay.plan_s / server_s.max(1e-12) - 1.0,
    );
    Ok(result)
}

// ---------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------

/// Plans the whole set once through a throwaway server with
/// `--cache-dir`, which persists `plans.mcache` on shutdown. Returns
/// the cost of each set member.
fn prepare_cache(
    ctx: &Ctx,
    dir: &Path,
    set: &[PlanReq],
    expected: &[Fingerprint],
    result: &mut RunResult,
) -> Result<Vec<f64>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dir_arg = dir.to_str().ok_or("cache dir is not UTF-8")?;
    let mut server = Server::start(
        &ctx.matopt,
        &["--cache-dir", dir_arg],
        &ctx.out_file("prepare.log"),
    )?;
    let lines: Vec<String> = set
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i as u64))
        .collect();
    let answers = server.closed_loop(1, |i| lines.get(i).cloned())?;
    server.shutdown()?;
    let mut costs = vec![f64::NAN; set.len()];
    for a in &answers {
        if let Some(s) = check_plan(result, a, expected[a.seq]) {
            costs[a.seq] = s.cost;
        }
    }
    if costs.iter().any(|c| c.is_nan()) {
        return Err("preparing the plan cache failed".into());
    }
    Ok(costs)
}

pub fn serve_hot(ctx: &Ctx) -> Result<RunResult, String> {
    let set = serve_hot_set();
    let expect_svc = serve_like_service(Obs::disabled());
    let expected: Vec<Fingerprint> = set.iter().map(|r| r.fingerprint(&expect_svc)).collect();
    let stream = serve_hot_stream(ctx.seed, set.len(), HOT_STREAM);
    let mut result = RunResult::default();
    let dir = ctx.out_file("cache");
    let costs = prepare_cache(ctx, &dir, &set, &expected, &mut result)?;
    let mut digest = Fnv::new();
    for c in &costs {
        digest.f64(*c);
    }
    for i in &stream[..1024] {
        digest.bytes(&(*i as u64).to_le_bytes());
    }
    result.digest = digest.finish();
    let stream_costs: Vec<f64> = stream.iter().map(|&i| costs[i]).collect();
    result.set("plan_cost_geomean", geomean(&stream_costs));

    let dir_arg = dir.to_str().ok_or("cache dir is not UTF-8")?.to_string();
    let args = ["--serve-threads", "2", "--cache-dir", dir_arg.as_str()];
    let bodies: Vec<&str> = set.iter().map(|r| r.body.as_str()).collect();
    let line_for = |i: usize| format!("{{\"id\": \"{i}\", {}}}", bodies[stream[i % HOT_STREAM]]);
    let expected_for = |seq: usize| expected[stream[seq % HOT_STREAM]];
    if ctx.trace {
        return serve_hot_traced(ctx, &args, &line_for, &expected_for, result, &dir);
    }

    let (mut server, setup_s) = start_timed(ctx, &args)?;
    result.set("setup_s", setup_s);
    let start = Instant::now();
    let window = ctx.window;
    let answers = server.closed_loop(2, |i| (start.elapsed() < window).then(|| line_for(i)))?;
    let done: Vec<f64> = answers
        .iter()
        .map(|a| (a.done - start).as_secs_f64())
        .collect();
    let lat: Vec<f64> = answers.iter().map(|a| a.latency.as_secs_f64()).collect();
    let window = window.as_secs_f64();
    result.set_sliced(&Slices::by_time(&done, &lat, window, RATE_SLICES));
    result.set("peak_rss_mb", server.peak_rss_mb()?);
    server.shutdown()?;
    for a in &answers {
        check_plan(&mut result, a, expected_for(a.seq));
    }
    Ok(result)
}

fn serve_hot_traced(
    ctx: &Ctx,
    args: &[&str],
    line_for: &(dyn Fn(usize) -> String + Sync),
    expected_for: &dyn Fn(usize) -> Fingerprint,
    mut result: RunResult,
    dir: &Path,
) -> Result<RunResult, String> {
    set_host_probes(&mut result);

    // 1. The real server for half the window.
    let mut server = Server::start(&ctx.matopt, args, &ctx.out_file("server.log"))?;
    let start = Instant::now();
    let half = ctx.window / 2;
    let answers = server.closed_loop(2, |i| (start.elapsed() < half).then(|| line_for(i)))?;
    let stats = server.stats()?;
    server.shutdown()?;
    let mut client_overhead_us = Vec::new();
    for a in &answers {
        if let Some(s) = check_plan(&mut result, a, expected_for(a.seq)) {
            client_overhead_us.push(a.latency.as_secs_f64() * 1e6 - s.server_us);
        }
    }
    // Warming from plans.mcache runs no optimizer, so every optimizer
    // run the server counts happened in the window.
    set_server_layers(&mut result, &answers, &client_overhead_us, &stats);

    // 2. In-process replay of the stream's first lines, untraced and
    // traced, on services warmed from the same cache file.
    let n = answers.len().clamp(1, 20_000);
    let lines: Vec<String> = (0..n).map(line_for).collect();
    let expected: Vec<Fingerprint> = (0..n).map(expected_for).collect();
    let untraced = {
        let svc = serve_like_service(Obs::disabled());
        svc.warm_from_dir(dir).map_err(|e| format!("warm: {e}"))?;
        let t = Instant::now();
        for line in &lines {
            let req = parse_request(line, &svc.cluster()).map_err(|e| e.to_string())?;
            svc.plan(&req.graph).map_err(|e| e.to_string())?;
        }
        secs(t)
    };
    let replay = replay(ctx, &lines, &expected, &mut result, Some(dir))?;
    result.set(
        "obs.overhead_frac",
        replay.wall_s / untraced.max(1e-12) - 1.0,
    );
    Ok(result)
}

// ---------------------------------------------------------------------
// Shared traced pieces
// ---------------------------------------------------------------------

/// Layer metrics read from the real server's answers and `stats` op.
fn set_server_layers(
    result: &mut RunResult,
    answers: &[Answer],
    client_overhead_us: &[f64],
    stats: &Json,
) {
    let bytes: Vec<f64> = answers.iter().map(|a| a.line_bytes as f64).collect();
    result.set("protocol.line_bytes_p50", median(&bytes));
    result.set(
        "protocol.client_overhead_us_p50",
        median(client_overhead_us),
    );
    let requests = stat(stats, "requests");
    result.set("cache.hit_ratio", stat(stats, "hits") / requests.max(1.0));
    result.set("cache.entries", stat(stats, "cache_entries"));
    result.set("cache.evictions", stat(stats, "cache_evictions"));
    result.set("opt.runs", stat(stats, "optimize_runs"));
}

struct Replay {
    /// Σ `PlanService::plan` time.
    plan_s: f64,
    /// Wall time of the whole replay.
    wall_s: f64,
}

/// Replays `lines` in-process through a service built as `matopt serve`
/// builds it, with a `MemorySink` and metrics registry attached, under
/// benchmark-side spans. Sets the protocol, fingerprint, cache, opt and
/// self-time metrics and writes the spans out.
fn replay(
    ctx: &Ctx,
    lines: &[String],
    expected: &[Fingerprint],
    result: &mut RunResult,
    warm_dir: Option<&Path>,
) -> Result<Replay, String> {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_metrics(Arc::clone(&sink), MetricsRegistry::new());
    let svc: PlanService = serve_like_service(obs);
    if let Some(dir) = warm_dir {
        svc.warm_from_dir(dir).map_err(|e| format!("warm: {e}"))?;
    }
    let cluster = serve_cluster();
    let tracer = Tracer::new();
    let before = svc.stats();
    let mut parse_us = Vec::new();
    let mut fp_us = Vec::new();
    let mut hit_us = Vec::new();
    let mut opt_s = Vec::new();
    let mut beamed = 0usize;
    let mut truncated = 0usize;
    let mut plan_s = 0.0;
    let wall = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let req = i as u64;
        let ((), _) = tracer.span(None, req, "bench", "request", |root| {
            let (parsed, dt) = tracer.span(Some(root), req, "protocol", "parse_request", |_| {
                parse_request(line, &cluster)
            });
            parse_us.push(dt * 1e6);
            let Ok(parsed) = parsed else {
                result.check(false, || format!("replay {i}: line does not parse"));
                return;
            };
            let (fp, dt) = tracer.span(Some(root), req, "fingerprint", "fingerprint", |_| {
                svc.fingerprint(&parsed.graph)
            });
            fp_us.push(dt * 1e6);
            let ((planned, plan_id), dt) = tracer.span(Some(root), req, "serve", "plan", |id| {
                (svc.plan(&parsed.graph), id)
            });
            plan_s += dt;
            let ok = matches!(&planned, Ok(p) if p.fingerprint == fp && fp == expected[i]
                && p.plan.cost.is_finite());
            result.check(ok, || format!("replay {i}: wrong plan or fingerprint"));
            let Ok(p) = planned else { return };
            match p.source {
                PlanSource::Hit => hit_us.push(p.latency.as_secs_f64() * 1e6),
                PlanSource::Miss | PlanSource::Coalesced => {
                    opt_s.push(p.plan.opt_seconds);
                    tracer.child_from_duration(
                        plan_id,
                        req,
                        "opt",
                        "optimize",
                        p.plan.opt_seconds,
                        false,
                    );
                    beamed += usize::from(p.plan.exactness() == "beamed");
                    truncated += p.plan.beam_truncated;
                }
            }
        });
    }
    let wall_s = secs(wall);
    let after = svc.stats();
    let misses = opt_s.len();
    let events = sink.take();
    let frontier_steps = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanBegin && e.name == "frontier_step")
        .count();

    result.set("protocol.parse_us_p50", median(&parse_us));
    result.set("fingerprint.us_p50", median(&fp_us));
    result.set("cache.hit_us_p50", median(&hit_us));
    result.set("opt.plan_s_p50", median(&opt_s));
    let per_miss = |n: usize| {
        if misses == 0 {
            0.0
        } else {
            n as f64 / misses as f64
        }
    };
    result.set("opt.beamed_share", per_miss(beamed));
    result.set("opt.frontier_steps", per_miss(frontier_steps));
    result.set("opt.beam_truncated", per_miss(truncated));
    // The replay's own optimizer runs must agree with what the service
    // counted: a mismatch means the span accounting is wrong.
    result.check(
        after.optimize_runs - before.optimize_runs == misses as u64,
        || "replay optimizer-run count disagrees with ServeStats".into(),
    );
    let per_req_ms = |layer: &str, selfs: &std::collections::BTreeMap<&str, f64>| {
        selfs.get(layer).copied().unwrap_or(0.0) * 1e3 / lines.len().max(1) as f64
    };
    let selfs = tracer.self_seconds();
    for (metric, layer) in [
        ("self.protocol_ms", "protocol"),
        ("self.fingerprint_ms", "fingerprint"),
        ("self.serve_ms", "serve"),
        ("self.opt_ms", "opt"),
    ] {
        result.set(metric, per_req_ms(layer, &selfs));
    }
    write_trace(ctx, &tracer, &events)?;
    Ok(Replay { plan_s, wall_s })
}

/// Writes the benchmark's spans (JSON lines) and the program's own
/// `Obs` events (Chrome trace) into the run's output directory.
pub fn write_trace(ctx: &Ctx, tracer: &Tracer, events: &[matopt_obs::Event]) -> Result<(), String> {
    let write = |path: std::path::PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(ctx.out_file("spans.jsonl"), tracer.jsonl())?;
    write(ctx.out_file("obs.json"), export::chrome_trace_json(events))
}

/// The roofline probes; recorded on every traced run.
pub fn set_host_probes(result: &mut RunResult) {
    let threads = matopt_pool::Pool::global().parallelism();
    result.set(
        "kernels.host_peak_gflops",
        crate::probe::host_peak_gflops(threads),
    );
    result.set(
        "kernels.host_stream_gbs",
        crate::probe::host_stream_gbs(threads),
    );
}
