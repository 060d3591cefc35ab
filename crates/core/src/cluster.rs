//! Cluster descriptions: the hardware model against which plans are
//! costed, checked for memory feasibility, and simulated.
//!
//! The paper runs SimSQL experiments on EC2 `r5d.2xlarge` machines
//! (8 cores, 68 GB RAM, NVMe SSD) and PlinyCompute/PyTorch/SystemDS
//! experiments on `r5dn.2xlarge` (8 cores, 64 GB, faster networking).
//! The two constructors [`Cluster::simsql_like`] and
//! [`Cluster::plinycompute_like`] encode those two system profiles: the
//! same hardware, but very different software overheads — SimSQL is a
//! Hadoop-based batch engine with large per-operator setup costs, while
//! PlinyCompute is an in-memory engine with millisecond dispatch.

/// The hardware/software profile of the distributed engine a plan will
/// run on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cluster {
    /// Number of worker machines.
    pub workers: usize,
    /// RAM available to the engine on each worker, in bytes.
    pub worker_ram_bytes: f64,
    /// Effective dense floating-point throughput per worker (flop/s)
    /// for parallel, chunk-level kernels.
    pub flops_per_sec: f64,
    /// Throughput of a single-threaded whole-matrix kernel call (one
    /// UDF invocation on one worker), flop/s.
    pub single_thread_flops_per_sec: f64,
    /// Network bandwidth in/out of one worker (bytes/s).
    pub net_bytes_per_sec: f64,
    /// Rate at which intermediate data can be materialized and re-read
    /// (bytes/s) — disk for SimSQL, memory-bus for PlinyCompute.
    pub inter_bytes_per_sec: f64,
    /// Fixed cost of processing one tuple through a relational operator
    /// (seconds) — the paper's feature (4): "each tuple tends to require
    /// a fixed overhead cost".
    pub tuple_overhead_sec: f64,
    /// Fixed startup cost per relational operator (seconds): job launch
    /// for Hadoop-based SimSQL, dispatch for PlinyCompute.
    pub op_setup_sec: f64,
    /// Largest matrix payload the engine will store in a single tuple,
    /// in bytes. The paper notes one "could not typically store a 40GB
    /// matrix in a single tuple".
    pub max_tuple_bytes: f64,
    /// Scratch space per worker for spilled intermediate data (the
    /// 300 GB NVMe SSD of the paper's EC2 instances). Plans whose
    /// intermediate data exceeds this *fail at runtime* — the paper's
    /// "Fail ... typically due to too much intermediate data".
    pub worker_disk_bytes: f64,
    /// Whether scratch space is reclaimed after each operator. Hadoop-
    /// based SimSQL materializes and retains every intermediate relation
    /// until the query finishes (`false`: spill accumulates across the
    /// plan); in-memory engines like PlinyCompute release scratch as
    /// soon as an operator completes (`true`: only the largest single
    /// operator counts).
    pub reclaim_scratch: bool,
    /// Expected worker crashes per worker-hour of wall time. The paper's
    /// clusters are assumed reliable (`0.0`); nonzero rates make the
    /// recovery-aware simulator charge expected re-computation time.
    pub crash_rate_per_hour: f64,
    /// Probability that any single operator execution is hit by a
    /// straggling worker (`0.0` = never).
    pub straggler_rate: f64,
    /// Wall-clock slowdown factor a straggler imposes on the operator it
    /// hits (`1.0` = no slowdown; only meaningful with a nonzero
    /// [`Cluster::straggler_rate`]).
    pub straggler_slowdown: f64,
}

impl Cluster {
    /// A SimSQL-like (Hadoop-based, disk-oriented) cluster of
    /// `r5d.2xlarge` workers. Used for the §8.2 plan-quality experiments.
    pub fn simsql_like(workers: usize) -> Self {
        Cluster {
            workers,
            worker_ram_bytes: 68e9,
            // 8 cores of JVM-hosted dense kernels backed by BLAS.
            flops_per_sec: 3.2e10,
            // One JVM thread running the matrix UDF.
            single_thread_flops_per_sec: 4.0e9,
            // 10 Gbit/s NIC, ~80% achievable.
            net_bytes_per_sec: 1.0e9,
            // NVMe SSD materialization path.
            inter_bytes_per_sec: 0.8e9,
            tuple_overhead_sec: 5.0e-4,
            // Hadoop job launch amortized per relational operator.
            op_setup_sec: 8.0,
            max_tuple_bytes: 8e9,
            worker_disk_bytes: 300e9,
            reclaim_scratch: false,
            crash_rate_per_hour: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
        }
    }

    /// A PlinyCompute-like (in-memory, low-latency) cluster of
    /// `r5dn.2xlarge` workers. Used for the §8.3 system comparisons.
    pub fn plinycompute_like(workers: usize) -> Self {
        Cluster {
            workers,
            worker_ram_bytes: 64e9,
            // Effective multi-threaded MKL throughput of the engine's
            // dense kernels (calibrated against Figures 11-12).
            flops_per_sec: 5.0e11,
            single_thread_flops_per_sec: 6.25e10,
            // 25 Gbit/s NIC on r5dn.
            net_bytes_per_sec: 2.5e9,
            // In-memory intermediates.
            inter_bytes_per_sec: 8e9,
            tuple_overhead_sec: 2.0e-5,
            op_setup_sec: 0.35,
            max_tuple_bytes: 8e9,
            worker_disk_bytes: 300e9,
            reclaim_scratch: true,
            crash_rate_per_hour: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
        }
    }

    /// A tiny deterministic profile for unit tests: one "second" per
    /// unit of every resource so feature values can be read off costs.
    pub fn unit_test(workers: usize) -> Self {
        Cluster {
            workers,
            worker_ram_bytes: 1e12,
            flops_per_sec: 1.0,
            single_thread_flops_per_sec: 1.0,
            net_bytes_per_sec: 1.0,
            inter_bytes_per_sec: 1.0,
            tuple_overhead_sec: 1.0,
            op_setup_sec: 0.0,
            max_tuple_bytes: 1e12,
            worker_disk_bytes: 1e15,
            reclaim_scratch: true,
            crash_rate_per_hour: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
        }
    }

    /// Number of workers that can productively share `chunks` units of
    /// work (you cannot use more workers than there are chunks).
    pub fn effective_workers(&self, chunks: f64) -> f64 {
        (self.workers as f64).min(chunks.max(1.0))
    }

    /// The same cluster with memory and disk limits lifted. Baseline
    /// planners use this to *construct* plans a real cluster would
    /// reject, so the simulator can then report the runtime failure the
    /// paper observed.
    pub fn with_unlimited_resources(mut self) -> Self {
        self.worker_ram_bytes = f64::INFINITY;
        self.worker_disk_bytes = f64::INFINITY;
        self.max_tuple_bytes = f64::INFINITY;
        self
    }

    /// The same cluster with a failure model: `crash_rate_per_hour`
    /// expected crashes per worker-hour, plus a straggler profile
    /// (`straggler_rate` probability per operator of a `slowdown`×
    /// wall-clock hit).
    pub fn with_fault_rates(
        mut self,
        crash_rate_per_hour: f64,
        straggler_rate: f64,
        straggler_slowdown: f64,
    ) -> Self {
        self.crash_rate_per_hour = crash_rate_per_hour.max(0.0);
        self.straggler_rate = straggler_rate.clamp(0.0, 1.0);
        self.straggler_slowdown = straggler_slowdown.max(1.0);
        self
    }

    /// True when this cluster models any runtime failures at all.
    pub fn has_fault_model(&self) -> bool {
        self.crash_rate_per_hour > 0.0
            || (self.straggler_rate > 0.0 && self.straggler_slowdown > 1.0)
    }

    /// One degradation step: the same cluster with half its workers
    /// (floor, at least one) gone. The fault-tolerant executor shrinks
    /// the cluster this way after repeated resource-style failures and
    /// re-optimizes the remaining plan suffix.
    pub fn degraded(mut self) -> Self {
        self.workers = (self.workers / 2).max(1);
        self
    }

    /// Probability that at least one worker crashes during an operator
    /// that runs `seconds` of wall time on this cluster (Poisson arrival
    /// at `crash_rate_per_hour` per worker, summed across workers).
    pub fn crash_probability(&self, seconds: f64) -> f64 {
        if self.crash_rate_per_hour <= 0.0 || !seconds.is_finite() {
            return 0.0;
        }
        let lambda = self.crash_rate_per_hour / 3600.0 * self.workers as f64;
        1.0 - (-lambda * seconds.max(0.0)).exp()
    }

    /// Expected wall-clock inflation from stragglers: an operator takes
    /// `straggler_slowdown`× as long with probability `straggler_rate`.
    pub fn straggler_inflation(&self) -> f64 {
        1.0 + self.straggler_rate * (self.straggler_slowdown - 1.0)
    }
}

/// How the fault-tolerant executor (and the recovery-aware simulator)
/// brings a run back after a worker crash loses intermediate data.
///
/// The three policies span the classic recovery spectrum: re-running
/// the whole plan (what the paper's "Fail" rows would force operators
/// to do by hand), restoring per-vertex checkpoints (the materialize-
/// everything discipline Hadoop-based engines get for free), and
/// Spark-style lineage replay that recomputes only what was lost from
/// the nearest surviving ancestors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Throw away every intermediate the crashing vertex depends on and
    /// re-execute that part of the plan from its sources.
    Restart,
    /// Persist every completed vertex; after a crash, restore completed
    /// vertices from their checkpoints and recompute only in-flight
    /// work.
    Checkpoint,
    /// Keep nothing extra; after a crash, recompute the lost
    /// intermediates from the nearest surviving ancestors in
    /// topological order.
    #[default]
    Lineage,
}

impl RecoveryPolicy {
    /// Stable lowercase name (CLI flag value and trace attribute).
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryPolicy::Restart => "restart",
            RecoveryPolicy::Checkpoint => "checkpoint",
            RecoveryPolicy::Lineage => "lineage",
        }
    }
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "restart" | "scratch" => Ok(RecoveryPolicy::Restart),
            "checkpoint" | "ckpt" => Ok(RecoveryPolicy::Checkpoint),
            "lineage" | "replay" => Ok(RecoveryPolicy::Lineage),
            other => Err(format!(
                "unknown recovery policy {other:?} (expected restart|checkpoint|lineage)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_caps_at_chunk_count() {
        let c = Cluster::simsql_like(10);
        assert_eq!(c.effective_workers(3.0), 3.0);
        assert_eq!(c.effective_workers(100.0), 10.0);
        assert_eq!(c.effective_workers(0.0), 1.0);
    }

    #[test]
    fn profiles_differ_in_overheads() {
        let sim = Cluster::simsql_like(10);
        let pc = Cluster::plinycompute_like(10);
        assert!(sim.op_setup_sec > 10.0 * pc.op_setup_sec);
        assert!(sim.tuple_overhead_sec > pc.tuple_overhead_sec);
    }

    #[test]
    fn clusters_are_reliable_by_default() {
        for c in [
            Cluster::simsql_like(10),
            Cluster::plinycompute_like(10),
            Cluster::unit_test(4),
        ] {
            assert!(!c.has_fault_model());
            assert_eq!(c.crash_probability(1e6), 0.0);
            assert_eq!(c.straggler_inflation(), 1.0);
        }
    }

    #[test]
    fn fault_rates_produce_sane_probabilities() {
        let c = Cluster::simsql_like(10).with_fault_rates(0.1, 0.05, 3.0);
        assert!(c.has_fault_model());
        // 10 workers x 0.1 crashes/hour => one expected crash per hour:
        // an hour-long operator fails with probability 1 - 1/e.
        let p = c.crash_probability(3600.0);
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!(c.crash_probability(1.0) < p);
        assert_eq!(c.crash_probability(0.0), 0.0);
        // 5% of operators take 3x as long.
        assert!((c.straggler_inflation() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn degradation_halves_workers_and_stops_at_one() {
        let c = Cluster::simsql_like(10);
        assert_eq!(c.degraded().workers, 5);
        assert_eq!(c.degraded().degraded().workers, 2);
        assert_eq!(Cluster::simsql_like(1).degraded().workers, 1);
    }

    #[test]
    fn recovery_policy_round_trips_through_strings() {
        for p in [
            RecoveryPolicy::Restart,
            RecoveryPolicy::Checkpoint,
            RecoveryPolicy::Lineage,
        ] {
            assert_eq!(p.as_str().parse::<RecoveryPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.as_str());
        }
        assert!("bogus".parse::<RecoveryPolicy>().is_err());
    }
}
