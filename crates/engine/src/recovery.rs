//! Fault-tolerant plan execution: retries with bounded exponential
//! backoff, per-vertex checkpointing, lineage replay, and degradation-
//! aware re-planning.
//!
//! [`execute_fault_tolerant`] runs the plan through the same pipelined
//! scheduler as [`crate::execute_plan_with`], with a [`FaultHook`]
//! firing the [`FaultInjector`]'s schedule at each vertex's primary
//! attempt:
//!
//! * **transient kernel errors** retry the vertex after exponential
//!   backoff, up to [`RetryConfig::max_retries`];
//! * **corrupted chunks** are caught by an FNV checksum over the
//!   vertex's output and recomputed (same retry budget);
//! * **stragglers** delay the primary attempt by
//!   `ceil(min(slowdown, 20) · 0.5)` ms — with hedging on, a duplicate
//!   bounds the delay;
//! * **worker crashes** lose a seeded subset of the crashing vertex's
//!   materialized compute ancestors in the current plan epoch (all of
//!   them are complete when the vertex starts, whatever the pool
//!   width), then recover per the [`RecoveryPolicy`]: restart-from-
//!   scratch loses and replays every ancestor, per-vertex checkpointing
//!   restores from the checkpoint store, lineage replay recomputes only
//!   the lost vertices. Replays run in id order and swap the fresh
//!   buffer into the vertex's slot, so no reader ever sees it empty.
//!   Buffers the governor spilled to scratch survive a crash, and a
//!   replay reads spilled inputs back through the governor;
//! * **resource exhaustion**, after [`FtConfig::degrade_after`]
//!   repeats, halts the run (admission stops, in-flight vertices
//!   drain), shrinks the [`Cluster`](matopt_core::Cluster), and
//!   re-optimizes the remaining suffix with the same machinery
//!   [`crate::execute_adaptive`] uses; the suffix then runs through the
//!   scheduler again, with already-computed values pinned as inputs.
//!
//! Every random decision is a keyed hash, not a draw from a stream:
//! backoff jitter is `mix_jitter(mix_jitter(seed, vertex), attempt)` and
//! each loss coin is `mix_jitter(mix_jitter(seed, crash_vertex),
//! victim)`, so outcomes do not depend on completion order. Every
//! fault, retry, and recovery emits a record under
//! [`Subsystem::Faults`].

use crate::adaptive::rebuild_suffix;
use crate::exec::{into_outcome, vertex_label, ExecOptions, ExecOutcome};
use crate::faults::{corrupt_chunk, relation_checksum, FaultEvent, FaultInjector, FaultKind};
use crate::impl_exec::ExecError;
use crate::schedule::{compute_vertex, run_pipelined, PipelineOutput, RunState, VertexResult};
use crate::value::DistRelation;
use matopt_core::{
    mix_jitter, Annotation, ComputeGraph, FormatCatalog, NodeId, NodeKind, PlanContext,
    RecoveryPolicy,
};
use matopt_cost::CostModel;
use matopt_obs::{Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use matopt_pool::Pool;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bounded exponential backoff for transient faults.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Retries allowed per vertex before
    /// [`ExecError::RetryBudgetExhausted`].
    pub max_retries: u32,
    /// First backoff delay, in milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in milliseconds (jitter of up to one base delay
    /// is added on top, keyed on the injector's seed, the vertex, and
    /// the attempt).
    pub max_backoff_ms: u64,
}

impl RetryConfig {
    /// The equivalent shared backoff policy: same base, cap, and
    /// budget, with the delay arithmetic (and its bounded-total-wait
    /// property test) hoisted into `matopt-core`.
    #[must_use]
    pub fn policy(&self) -> matopt_core::BackoffPolicy {
        matopt_core::BackoffPolicy {
            base_ms: self.base_backoff_ms,
            cap_ms: self.max_backoff_ms,
            max_attempts: self.max_retries,
        }
    }
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 4,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
        }
    }
}

/// How a fault-tolerant run recovers. Memory budget, scratch directory,
/// hedging, and the shared governor come from the run's
/// [`ExecOptions`].
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// How crashes are recovered.
    pub policy: RecoveryPolicy,
    /// Backoff/retry limits for transient faults.
    pub retry: RetryConfig,
    /// Resource-style failures at one vertex before the cluster is
    /// degraded and the suffix re-planned.
    pub degrade_after: u32,
    /// Beam width for degradation re-planning.
    pub beam: usize,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            policy: RecoveryPolicy::default(),
            retry: RetryConfig::default(),
            degrade_after: 2,
            beam: 2000,
        }
    }
}

/// Per-vertex recovery bookkeeping, indexed like the graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexRecovery {
    /// Retries spent at this vertex (transient faults, corruption
    /// recomputes, resource failures).
    pub retries: u32,
    /// Crash recoveries at this vertex plus crash replays of it.
    pub recoveries: u32,
    /// Seconds spent on backoff, straggling, and replay at this vertex.
    pub recovery_seconds: f64,
}

/// A fault that actually fired during the run.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Compute-step index the fault fired at.
    pub step: usize,
    /// The vertex executing when it fired.
    pub vertex: NodeId,
    /// What went wrong.
    pub kind: FaultKind,
}

/// The result of a fault-tolerant run: the execution outcome plus what
/// recovery did.
#[derive(Debug, Clone)]
pub struct FtOutcome {
    /// The run, with every vertex's value retained. Sinks are identical
    /// to the fault-free run's for any crash/transient/corruption/
    /// straggler schedule (degradation re-plans may pick different
    /// implementations, which changes floating-point rounding).
    pub exec: ExecOutcome,
    /// Total retries across the run.
    pub retries: u32,
    /// Total crash recoveries.
    pub recoveries: u32,
    /// Degradation re-plans performed.
    pub replans: u32,
    /// Every fault that fired, in (step, schedule position) order — not
    /// firing order, which depends on scheduling.
    pub faults: Vec<InjectedFault>,
    /// Seconds spent recovering (backoff + straggling + replay).
    pub recovery_seconds: f64,
    /// Seconds spent writing checkpoints.
    pub checkpoint_seconds: f64,
    /// Per-vertex breakdown of the above.
    pub per_vertex: Vec<VertexRecovery>,
}

impl From<ExecOutcome> for FtOutcome {
    /// A run that injected no faults.
    fn from(exec: ExecOutcome) -> Self {
        FtOutcome {
            per_vertex: vec![VertexRecovery::default(); exec.vertex_seconds.len()],
            exec,
            retries: 0,
            recoveries: 0,
            replans: 0,
            faults: Vec::new(),
            recovery_seconds: 0.0,
            checkpoint_seconds: 0.0,
        }
    }
}

/// Executes an annotated graph under fault injection, recovering every
/// fault the injector fires.
///
/// The run goes through the pipelined scheduler with `options`, except
/// that every value is retained (replays read them);
/// [`ExecOptions::retain_values`] is ignored. With a
/// [`FaultInjector::disabled`] injector no hook is installed and this
/// is [`crate::execute_plan_with`]. `ctx`/`catalog`/`model` are only
/// consulted when degradation forces a re-plan of the remaining suffix.
///
/// # Errors
/// [`ExecError`] on malformed plans, and
/// [`ExecError::RetryBudgetExhausted`] when one vertex's faults outrun
/// [`RetryConfig::max_retries`].
#[allow(clippy::too_many_arguments)]
pub fn execute_fault_tolerant(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    catalog: &FormatCatalog,
    model: &dyn CostModel,
    mut injector: FaultInjector,
    config: &FtConfig,
    options: &ExecOptions,
    obs: &Obs,
) -> Result<FtOutcome, ExecError> {
    let _run = obs.span_with(Subsystem::Faults, "execute_fault_tolerant", || {
        vec![
            ("vertices", graph.len().into()),
            ("policy", config.policy.as_str().into()),
            ("scheduled_faults", injector.pending().len().into()),
        ]
    });
    let start = Instant::now();
    let pool_before = Pool::global().stats();
    let mut ledger = Ledger::new(graph, &mut injector);
    let mut cluster = ctx.cluster;
    let mut replans = 0u32;
    // The run so far, indexed by original vertex id, and the re-planned
    // suffix still to run (`None` in the first epoch).
    let mut done: Option<PipelineOutput> = None;
    let mut suffix: Option<Suffix> = None;
    loop {
        let (g, plan, ins) = match &suffix {
            None => (graph, annotation, inputs),
            Some(s) => (&s.graph, &s.plan, &s.inputs),
        };
        let hook = injector.is_enabled().then(|| {
            let orig = suffix.as_ref().map_or_else(
                || graph.iter().map(|(id, _)| id).collect(),
                |s| s.orig.clone(),
            );
            Arc::new(FaultHook::new(
                injector.seed(),
                config,
                orig,
                std::mem::take(&mut ledger),
            ))
        });
        let out = run_pipelined(g, plan, ins, ctx.registry, obs, true, options, hook.clone());
        if let Some(hook) = hook {
            ledger = std::mem::take(&mut *hook.ledger.lock().unwrap());
        }
        let out = out?;
        done = Some(match (done.take(), &suffix) {
            (Some(mut run), Some(s)) => {
                absorb(&mut run, out, s);
                run
            }
            _ => out,
        });

        let degraded = std::mem::take(&mut ledger.degraded_at);
        if degraded.is_empty() {
            break;
        }
        // Degrade once per degrading vertex and re-plan the suffix on
        // the shrunken cluster; everything computed so far becomes a
        // pinned input of the new plan.
        for v in degraded {
            let before = cluster.workers;
            cluster = cluster.degraded();
            obs.record(Subsystem::Faults, "degraded", || {
                vec![
                    ("vertex", v.index().into()),
                    ("workers_before", (before as i64).into()),
                    ("workers_after", (cluster.workers as i64).into()),
                ]
            });
        }
        replans += 1;
        let ctx2 = PlanContext::new(ctx.registry, cluster);
        suffix = Some(Suffix::plan(
            graph,
            &done.as_ref().expect("an epoch ran").values,
            &OptContext::new(&ctx2, catalog, model),
            config.beam,
        )?);
    }

    let mut done = done.expect("an epoch ran");
    done.pool = Pool::global().stats().since(&pool_before);
    let exec = into_outcome(graph, done, start);
    let Ledger {
        mut fired,
        per_vertex,
        retries,
        recoveries,
        recovery_seconds,
        checkpoint_seconds,
        ..
    } = ledger;
    fired.sort_by_key(|(pos, f)| (f.step, *pos));
    let faults: Vec<InjectedFault> = fired.into_iter().map(|(_, f)| f).collect();
    obs.counter(Subsystem::Faults, "faults_fired", faults.len() as f64);
    obs.counter(Subsystem::Faults, "retries", f64::from(retries));
    obs.counter(Subsystem::Faults, "recoveries", f64::from(recoveries));
    if let Some(m) = obs.metrics() {
        m.add(Subsystem::Faults, "faults_injected", faults.len() as u64);
        m.add(Subsystem::Faults, "retries", u64::from(retries));
        m.add(Subsystem::Faults, "recoveries", u64::from(recoveries));
        m.add(Subsystem::Faults, "replans", u64::from(replans));
    }
    Ok(FtOutcome {
        exec,
        retries,
        recoveries,
        replans,
        faults,
        recovery_seconds,
        checkpoint_seconds,
        per_vertex,
    })
}

/// The not-yet-executed rest of a run, re-planned after degradation.
struct Suffix {
    graph: ComputeGraph,
    plan: Annotation,
    /// Values computed in earlier epochs, as sources of `graph`.
    inputs: HashMap<NodeId, DistRelation>,
    /// Suffix vertex → original vertex.
    orig: Vec<NodeId>,
}

impl Suffix {
    /// Rebuilds and re-plans everything `values` does not hold yet.
    fn plan(
        graph: &ComputeGraph,
        values: &[Option<Arc<DistRelation>>],
        octx: &OptContext<'_>,
        beam: usize,
    ) -> Result<Suffix, ExecError> {
        let consumers = graph.consumers();
        let executed: Vec<NodeId> = graph
            .iter()
            .map(|(id, _)| id)
            .filter(|u| values[u.index()].is_some())
            .collect();
        let (g2, map) = rebuild_suffix(graph, &executed, values, &consumers);
        let plan = frontier_dp_beam(&g2, octx, beam)
            .map_err(|e| ExecError::Internal(format!("re-planning after degradation failed: {e}")))?
            .annotation;
        // `map` is only meaningful for vertices present in `g2`: the
        // un-executed ones, and executed ones an un-executed vertex
        // still reads.
        let mut orig = vec![NodeId(u32::MAX); g2.len()];
        let mut inputs = HashMap::new();
        for (id, _) in graph.iter() {
            let i = id.index();
            match &values[i] {
                None => orig[map[i].index()] = id,
                Some(rel) if consumers[i].iter().any(|c| values[c.index()].is_none()) => {
                    orig[map[i].index()] = id;
                    inputs.insert(map[i], DistRelation::clone(rel));
                }
                Some(_) => {}
            }
        }
        Ok(Suffix {
            graph: g2,
            plan,
            inputs,
            orig,
        })
    }
}

/// Folds a suffix epoch's output into the run's: suffix compute
/// vertices map back to original ids, counters add up, and high-water
/// marks take the maximum.
fn absorb(done: &mut PipelineOutput, out: PipelineOutput, suffix: &Suffix) {
    let PipelineOutput {
        mut values,
        vertex_seconds,
        mut transform_seconds,
        vertex_chunks,
        vertex_resident_bytes,
        max_concurrency,
        peak_resident_bytes,
        governor: g,
        ..
    } = out;
    let d = &mut done.governor;
    for (e, node) in suffix.graph.iter() {
        if !matches!(node.kind, NodeKind::Compute { .. }) {
            continue;
        }
        let (e, o) = (e.index(), suffix.orig[e.index()].index());
        done.values[o] = values[e].take();
        done.vertex_seconds[o] = vertex_seconds[e];
        done.transform_seconds[o] = std::mem::take(&mut transform_seconds[e]);
        done.vertex_chunks[o] = vertex_chunks[e];
        done.vertex_resident_bytes[o] = vertex_resident_bytes[e];
        if let (Some(dst), Some(src)) = (d.vertex_spills.get_mut(o), g.vertex_spills.get(e)) {
            *dst += src;
        }
        if let (Some(dst), Some(src)) = (d.vertex_hedges.get_mut(o), g.vertex_hedges.get(e)) {
            *dst = *src;
        }
    }
    done.max_concurrency = done.max_concurrency.max(max_concurrency);
    done.peak_resident_bytes = done.peak_resident_bytes.max(peak_resident_bytes);
    d.spills += g.spills;
    d.spilled_bytes += g.spilled_bytes;
    d.reloads += g.reloads;
    d.reloaded_bytes += g.reloaded_bytes;
    d.admission_waits += g.admission_waits;
    d.hedges_launched += g.hedges_launched;
    d.hedges_won += g.hedges_won;
    d.lease_bytes = d.lease_bytes.max(g.lease_bytes);
    d.lease_wait_us += g.lease_wait_us;
}

/// Recovery state carried across a run's plan epochs, indexed by
/// original vertex id.
#[derive(Default)]
struct Ledger {
    /// Faults still to fire per vertex, with their positions among the
    /// step's scheduled faults.
    pending: Vec<Vec<(usize, FaultEvent)>>,
    /// Faults that fired, with the same positions.
    fired: Vec<(usize, InjectedFault)>,
    per_vertex: Vec<VertexRecovery>,
    retries: u32,
    recoveries: u32,
    recovery_seconds: f64,
    checkpoint_seconds: f64,
    /// Vertices whose resource faults halted the current epoch.
    degraded_at: Vec<NodeId>,
}

impl Ledger {
    /// Splits the injector's schedule into a per-vertex table. Step `s`
    /// is the `s`-th compute vertex in topological id order; steps past
    /// the last compute vertex never fire.
    fn new(graph: &ComputeGraph, injector: &mut FaultInjector) -> Ledger {
        let mut pending = vec![Vec::new(); graph.len()];
        let computes = graph
            .iter()
            .filter(|(_, node)| matches!(node.kind, NodeKind::Compute { .. }));
        for (step, (id, _)) in computes.enumerate() {
            pending[id.index()] = injector
                .take(step)
                .into_iter()
                .map(|kind| FaultEvent { step, kind })
                .enumerate()
                .collect();
        }
        Ledger {
            pending,
            per_vertex: vec![VertexRecovery::default(); graph.len()],
            ..Ledger::default()
        }
    }

    /// Charges `seconds` of recovery work to original vertex `o`.
    fn charge(&mut self, o: NodeId, seconds: f64) {
        self.recovery_seconds += seconds;
        self.per_vertex[o.index()].recovery_seconds += seconds;
    }

    /// Counts one retry at `o`.
    fn retry(&mut self, o: NodeId) {
        self.retries += 1;
        self.per_vertex[o.index()].retries += 1;
    }
}

/// What a vertex's fired faults leave for its attempt: the straggler
/// delay, retries already spent, and corruption hints still to apply.
#[derive(Default)]
pub(crate) struct Fired {
    pub(crate) delay_ms: u64,
    attempts: u32,
    corrupt: Vec<usize>,
}

/// The pipelined scheduler's per-vertex fault hook for one plan epoch.
pub(crate) struct FaultHook {
    seed: u64,
    config: FtConfig,
    /// Epoch vertex → original vertex (faults and draws are keyed on
    /// original ids, so a re-planned suffix keeps them).
    orig: Vec<NodeId>,
    /// Per epoch vertex; empty unless the policy checkpoints.
    checkpoints: Vec<Mutex<Option<Arc<DistRelation>>>>,
    ledger: Mutex<Ledger>,
}

impl FaultHook {
    fn new(seed: u64, config: &FtConfig, orig: Vec<NodeId>, ledger: Ledger) -> FaultHook {
        let checkpoints = if config.policy == RecoveryPolicy::Checkpoint {
            orig.iter().map(|_| Mutex::new(None)).collect()
        } else {
            Vec::new()
        };
        FaultHook {
            seed,
            config: config.clone(),
            orig,
            checkpoints,
            ledger: Mutex::new(ledger),
        }
    }

    /// Fires the faults scheduled at `v` that act before it runs:
    /// resource retries, crash recovery, transient retries. Returns
    /// `None` when a resource fault degraded the cluster: the run is
    /// halted and `v`'s other faults fire when it reruns in the
    /// re-planned suffix.
    ///
    /// # Errors
    /// [`ExecError::RetryBudgetExhausted`], or a replay's failure.
    pub(crate) fn before(&self, state: &RunState, v: NodeId) -> Result<Option<Fired>, ExecError> {
        let o = self.orig[v.index()];
        let mut events = std::mem::take(&mut self.ledger.lock().unwrap().pending[o.index()]);
        let mut fired = Fired::default();
        while let Some(pos) = events
            .iter()
            .position(|(_, e)| matches!(e.kind, FaultKind::ResourceExhaustion { .. }))
        {
            let (at, event) = events.remove(pos);
            self.fire(&state.obs, o, at, &event);
            let FaultKind::ResourceExhaustion { repeats } = event.kind else {
                unreachable!("matched above")
            };
            for done in 1..=repeats {
                self.backoff(&state.obs, o, done, "resources");
                if done >= self.config.degrade_after {
                    let mut ledger = self.ledger.lock().unwrap();
                    ledger.degraded_at.push(o);
                    ledger.pending[o.index()] = events;
                    state.halt();
                    return Ok(None);
                }
            }
        }
        for (at, event) in events {
            self.fire(&state.obs, o, at, &event);
            match event.kind {
                FaultKind::Straggler { slowdown } => {
                    fired.delay_ms += (slowdown.min(20.0) * 0.5).ceil() as u64;
                }
                FaultKind::TransientKernelError { failures } => {
                    for _ in 0..failures {
                        self.check_budget(state, v, fired.attempts)?;
                        fired.attempts += 1;
                        self.backoff(&state.obs, o, fired.attempts, "transient");
                    }
                }
                FaultKind::CorruptedChunk { chunk } => fired.corrupt.push(chunk),
                // A real process kill is simulated in-process as a
                // worker crash: same loss set, same recovery. The fleet
                // harness (`matopt-worker`) maps it to a real SIGKILL.
                FaultKind::WorkerCrash | FaultKind::ProcessKill { .. } => {
                    self.recover_crash(state, v)?;
                }
                FaultKind::ResourceExhaustion { .. } => unreachable!("fired above"),
            }
        }
        Ok(Some(fired))
    }

    /// Runs `v`, recomputing while a corruption hint damages the output
    /// in transit (the checksum mismatch is the detection).
    ///
    /// # Errors
    /// [`ExecError::RetryBudgetExhausted`], or the vertex's failure.
    pub(crate) fn attempt(&self, state: &RunState, v: NodeId, mut fired: Fired) -> VertexResult {
        loop {
            self.check_budget(state, v, fired.attempts)?;
            let out = compute_vertex(state, v)?;
            let Some(hint) = fired.corrupt.pop() else {
                return Ok(out);
            };
            let mut received = DistRelation::clone(&out.0);
            corrupt_chunk(&mut received, hint);
            if relation_checksum(&received) == relation_checksum(&out.0) {
                // No representable effect (e.g. an empty chunk).
                return Ok(out);
            }
            let o = self.orig[v.index()];
            fired.attempts += 1;
            state
                .obs
                .record(Subsystem::Faults, "corruption_detected", || {
                    vec![("vertex", o.index().into()), ("chunk", hint.into())]
                });
            // The wasted attempt is recovery time.
            let mut ledger = self.ledger.lock().unwrap();
            ledger.retry(o);
            ledger.charge(o, out.1);
        }
    }

    /// Checkpoints a completed vertex under the checkpoint policy.
    pub(crate) fn completed(&self, v: NodeId, rel: &Arc<DistRelation>) {
        if let Some(slot) = self.checkpoints.get(v.index()) {
            let t0 = Instant::now();
            *slot.lock().unwrap() = Some(Arc::clone(rel));
            self.ledger.lock().unwrap().checkpoint_seconds += t0.elapsed().as_secs_f64();
        }
    }

    /// Charges a straggler fault's delay at `v`.
    pub(crate) fn straggled(&self, v: NodeId, seconds: f64) {
        self.ledger
            .lock()
            .unwrap()
            .charge(self.orig[v.index()], seconds);
    }

    fn check_budget(&self, state: &RunState, v: NodeId, attempts: u32) -> Result<(), ExecError> {
        if attempts > self.config.retry.max_retries {
            return Err(ExecError::RetryBudgetExhausted {
                vertex: self.orig[v.index()],
                label: vertex_label(&state.graph, v),
                attempts,
            });
        }
        Ok(())
    }

    fn fire(&self, obs: &Obs, o: NodeId, at: usize, event: &FaultEvent) {
        obs.record(Subsystem::Faults, "fault_injected", || {
            vec![
                ("step", event.step.into()),
                ("vertex", o.index().into()),
                ("kind", event.kind.to_string().into()),
            ]
        });
        self.ledger.lock().unwrap().fired.push((
            at,
            InjectedFault {
                step: event.step,
                vertex: o,
                kind: event.kind,
            },
        ));
    }

    /// Counts one retry at `o` and sleeps its bounded-exponential
    /// backoff, with jitter keyed on (seed, vertex, attempt).
    fn backoff(&self, obs: &Obs, o: NodeId, attempt: u32, cause: &str) {
        let jitter = mix_jitter(mix_jitter(self.seed, o.0), attempt);
        let ms = self.config.retry.policy().delay_ms(attempt, jitter);
        obs.record(Subsystem::Faults, "retry", || {
            vec![
                ("vertex", o.index().into()),
                ("attempt", attempt.into()),
                ("backoff_ms", (ms as i64).into()),
                ("cause", cause.to_string().into()),
            ]
        });
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(ms));
        let mut ledger = self.ledger.lock().unwrap();
        ledger.retry(o);
        ledger.charge(o, t0.elapsed().as_secs_f64());
    }

    /// Loses a seeded subset of `v`'s resident compute ancestors and
    /// brings each back per the policy, in id order, so a lost vertex's
    /// inputs are survivors or already rebuilt.
    fn recover_crash(&self, state: &RunState, v: NodeId) -> Result<(), ExecError> {
        let t0 = Instant::now();
        let graph = &state.graph;
        let o = self.orig[v.index()];
        let mut ancestor = vec![false; graph.len()];
        let mut stack = graph.node(v).inputs.clone();
        while let Some(u) = stack.pop() {
            if !std::mem::replace(&mut ancestor[u.index()], true) {
                stack.extend(&graph.node(u).inputs);
            }
        }
        let salt = mix_jitter(self.seed, o.0);
        let lost: Vec<NodeId> = graph
            .iter()
            .filter(|(u, node)| {
                ancestor[u.index()]
                    && matches!(node.kind, NodeKind::Compute { .. })
                    && state.is_resident(*u)
                    && (self.config.policy == RecoveryPolicy::Restart
                        || mix_jitter(salt, self.orig[u.index()].0) >> 63 == 0)
            })
            .map(|(u, _)| u)
            .collect();
        let mut restored = 0usize;
        for &u in &lost {
            let checkpoint = self
                .checkpoints
                .get(u.index())
                .and_then(|c| c.lock().unwrap().clone());
            let fresh = match checkpoint {
                Some(ck) => {
                    restored += 1;
                    ck
                }
                None => {
                    let (fresh, _, _) = compute_vertex(state, u)?;
                    self.ledger.lock().unwrap().per_vertex[self.orig[u.index()].index()]
                        .recoveries += 1;
                    fresh
                }
            };
            state.replace_value(u, fresh);
        }
        let dt = t0.elapsed().as_secs_f64();
        {
            let mut ledger = self.ledger.lock().unwrap();
            ledger.recoveries += 1;
            ledger.per_vertex[o.index()].recoveries += 1;
            ledger.charge(o, dt);
        }
        state.obs.record(Subsystem::Faults, "recovery", || {
            vec![
                ("policy", self.config.policy.as_str().into()),
                ("lost", lost.len().into()),
                ("restored_from_checkpoint", restored.into()),
                ("recomputed", (lost.len() - restored).into()),
                ("seconds", dt.into()),
            ]
        });
        Ok(())
    }
}
