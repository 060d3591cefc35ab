//! `perfbench`: the matopt benchmark harness.
//!
//! ```sh
//! python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds the workspace binaries and this package, then runs
//! this binary with the paths of `matopt` and `matopt-workerd`. Four
//! workloads:
//!
//! * `plan-cold` — one client, distinct paper-scale graphs into a fresh
//!   `matopt serve`: every request runs the optimizer.
//! * `serve-hot` — two requests in flight on `matopt serve
//!   --serve-threads 2` warmed from a prepared `plans.mcache`: every
//!   request is a cache hit.
//! * `exec-local` — one client thread through `FrontDoor::execute` on
//!   laptop-scale graphs with seeded inputs.
//! * `exec-fleet` — the same requests with a two-process
//!   `WorkerFleet` attached (not in `BENCHMARK.json`: see `layers.json`).
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it re-runs the workload with observability on and
//! reports the per-layer metrics. The metric names and units printed are
//! the ones `BENCHMARK.json` (`--spec`) declares; `layers.json` says
//! which layer each per-layer metric belongs to. Every response is
//! checked; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is non-zero
//! when any check failed.

mod client;
mod execution;
mod gen;
mod planning;
mod probe;
mod trace;
mod util;

use matopt_serve::protocol::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Time slices per window for throughput and latency.
pub const RATE_SLICES: usize = 20;

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Hash of the run's deterministic outputs (plan costs, sink bits).
    pub digest: u64,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Throughput and latency percentiles of a closed loop, over
    /// `slices` (see [`util::Slices`]).
    pub fn set_sliced(&mut self, slices: &util::Slices) {
        self.set("throughput_rps", slices.rate());
        self.set("latency_p50_ms", slices.latency_ms(0.50));
        self.set("latency_p90_ms", slices.latency_ms(0.90));
        self.set("latency_p99_ms", slices.latency_ms(0.99));
    }

    /// Counts one checked outcome; `ok == false` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub matopt: PathBuf,
    pub workerd: PathBuf,
    /// Directory for the run's scratch files and trace output.
    pub out: PathBuf,
    /// `BENCHMARK.json`, which declares the metrics to print.
    pub spec: PathBuf,
    pub workload: String,
}

impl Ctx {
    /// A file in the run's output directory, tagged with workload and
    /// seed.
    pub fn out_file(&self, suffix: &str) -> PathBuf {
        self.out
            .join(format!("{}-seed{}-{suffix}", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload <name> is required")?;
    let seed = get("--seed")
        .ok_or("--seed <n> is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .ok_or("--seconds <n> is required")?
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0 && *s <= 600.0)
        .ok_or("--seconds must be in (0, 600]")?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    let path = |flag: &str| -> Result<PathBuf, String> {
        let p = PathBuf::from(get(flag).ok_or(format!("{flag} <path> is required"))?);
        if p.is_file() {
            Ok(p)
        } else {
            Err(format!("{flag}: {} is not a file", p.display()))
        }
    };
    let matopt = path("--matopt")?;
    let workerd = path("--workerd")?;
    let spec = path("--spec")?;
    let out = PathBuf::from(get("--out").ok_or("--out <dir> is required")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("--out {}: {e}", out.display()))?;
    Ok(Ctx {
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        matopt,
        workerd,
        out,
        spec,
        workload,
    })
}

/// The `(name, unit)` of every metric `spec` declares for the mode:
/// `end_to_end` untraced, `per_layer` traced.
fn declared_metrics(spec: &Path, trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("{}: no \"{key}\" list", spec.display()))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("{key}: every metric needs a name and a unit"))
        })
        .collect()
}

fn main() {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let table = match declared_metrics(&ctx.spec, ctx.trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match ctx.workload.as_str() {
        "plan-cold" => planning::plan_cold(&ctx),
        "serve-hot" => planning::serve_hot(&ctx),
        "exec-local" => execution::run(&ctx, false),
        "exec-fleet" => execution::run(&ctx, true),
        other => Err(format!(
            "unknown workload {other} (plan-cold, serve-hot, exec-local, exec-fleet)"
        )),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };
    let mut fields = Vec::new();
    let mut bad_metric = false;
    for (name, unit) in &table {
        // A layer the workload never reaches reads 0; an end-to-end
        // metric must always be measured.
        let absent = if ctx.trace { 0.0 } else { f64::NAN };
        let value = result.metrics.get(name.as_str()).copied().unwrap_or(absent);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} was not measured");
            bad_metric = true;
            continue;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = result.failed == 0 && result.attempted > 0 && !bad_metric;
    println!(
        "digest {} seed {} trace {}: {:016x}",
        ctx.workload, ctx.seed, ctx.trace as u8, result.digest
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
