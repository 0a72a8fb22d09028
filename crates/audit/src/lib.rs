//! # mp-audit — differential sim/runtime validation harness
//!
//! Runs the **same DAG × platform × scheduler** through two independent
//! executors and diffs what must agree:
//!
//! * the discrete-event simulator ([`mp_sim::simulate`]) in virtual time;
//! * the threaded runtime ([`mp_runtime::Runtime`]) with no-op
//!   virtual-cost kernels, on real worker threads.
//!
//! The executors share almost no code past the scheduler trait — the
//! simulator's coherence/transfer machinery and the runtime's
//! thread/parking machinery are entirely disjoint — so invariants they
//! *both* uphold (exactly-once execution, full completion, precedence
//! ordering) are unlikely to hold by a shared bug.
//!
//! Three layers compound:
//!
//! 1. [`differential`] — one configuration end to end, returning a
//!    [`DiffReport`] of every disagreement;
//! 2. the simulator's built-in invariant auditor (build with
//!    `--features mp-sim/audit`) — MSI coherence, capacity, pin balance,
//!    link/event monotonicity — whose records the report surfaces;
//! 3. [`mp_runtime::FaultPlan`] — deterministic slow/stalled kernels,
//!    skewed estimates and delayed wakeups on the runtime side, proving
//!    the agreement is not an artifact of benign timing.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use mp_audit::{differential, DiffConfig};
//! # use mp_sched::FifoScheduler;
//! # let graph = mp_dag::TaskGraph::new();
//! # let platform = mp_platform::presets::simple(2, 1);
//! # let model: Arc<dyn mp_perfmodel::PerfModel> =
//! #     Arc::new(mp_perfmodel::model::UniformModel { time_us: 10.0 });
//! let report = differential(
//!     &graph,
//!     &platform,
//!     &model,
//!     &|| Box::new(FifoScheduler::new()),
//!     &DiffConfig::default(),
//! );
//! assert!(report.is_clean(), "{:?}", report.mismatches);
//! ```

use std::sync::Arc;

use mp_dag::TaskGraph;
use mp_perfmodel::PerfModel;
use mp_platform::types::Platform;
use mp_runtime::{FaultPlan, RelaxedMultiQueue, RelaxedSeqScheduler, RetryPolicy};
use mp_sched::concurrent::ShardedAdapter;
use mp_sched::Scheduler;
use mp_sim::{simulate, SimConfig};

pub mod diff;
pub mod mirror;
pub mod restart;

pub use diff::{schedule_hash, DiffReport, Mismatch, Side};
pub use mirror::{mirror_graph, mirror_graph_computing};
pub use restart::{
    restart_audit, restart_audit_sim, restart_serve_audit, RestartReport, RestartServeReport,
    RestartSimReport, ServeFrontend,
};

/// One differential configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiffConfig {
    /// Simulator configuration (seed, noise, tracing).
    pub sim_cfg: SimConfig,
    /// Runtime front-end: `0` drives the scheduler behind the global
    /// lock ([`mp_runtime::Runtime::run`]); `n > 0` uses the sharded
    /// multi-queue with `n` policy instances ([`ShardedAdapter`]).
    pub shards: usize,
    /// Fault plan injected into both sides (`None` = no faults). The
    /// runtime honors every knob; the simulator mirrors the
    /// deterministic subset (worker kills, transient failures) in
    /// virtual time and ignores the wall-clock-only timing knobs.
    pub faults: Option<FaultPlan>,
    /// Retry budget applied to both sides. With retryable faults in the
    /// plan, the exactly-once check relaxes to *effectively-once*: at
    /// least one committed execution per task (recompute-recovery may
    /// legitimately commit a task more than once on the sim side), and
    /// precedence still holds exactly.
    pub retry: RetryPolicy,
    /// Relaxed-mode override: drive the runtime through the relaxed
    /// multi-queue front-end ([`RelaxedMultiQueue`]) and
    /// the simulator through its deterministic sequential twin
    /// ([`RelaxedSeqScheduler`]), both under this configuration.
    /// `factory` is ignored — the relaxed front-end *is* the policy
    /// (priority order). Set
    /// [`track_rank`](mp_runtime::RelaxedConfig::track_rank) to get
    /// staleness statistics on the report. Takes precedence over
    /// [`Self::shards`].
    pub relaxed: Option<mp_runtime::RelaxedConfig>,
}

/// Run one DAG through both executors under schedulers built by
/// `factory` (one instance per executor) and diff the results.
///
/// Never panics on scheduler or executor misbehavior: typed failures of
/// either side land in the report as [`Mismatch`]es alongside any
/// invariant-audit records, execution-count, completion and precedence
/// disagreements.
pub fn differential(
    graph: &TaskGraph,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
) -> DiffReport {
    let mut mismatches = Vec::new();
    // Under retryable faults or worker kills the trace may legitimately
    // hold more than one committed span per task (sim-side recompute
    // recovery re-commits producers whose output died with a device), so
    // the per-side check relaxes to effectively-once.
    let relaxes = |p: &FaultPlan| p.has_retryable_faults() || p.kills_any();
    let lenient = cfg.faults.as_ref().is_some_and(relaxes) || relaxes(&cfg.sim_cfg.faults);

    // Side 1: discrete-event simulation, virtual time. The simulator
    // mirrors the deterministic fault subset of the runtime's plan.
    let mut sim_cfg = cfg.sim_cfg;
    if let Some(plan) = cfg.faults {
        sim_cfg.faults = plan;
    }
    sim_cfg.retry = cfg.retry;
    let mut relaxed_seq = cfg
        .relaxed
        .map(|rc| RelaxedSeqScheduler::new(platform.worker_count(), rc));
    let mut factory_sched = match relaxed_seq {
        Some(_) => None,
        None => Some(factory()),
    };
    let sim_sched: &mut dyn Scheduler = match relaxed_seq.as_mut() {
        Some(s) => s,
        None => factory_sched.as_mut().expect("factory scheduler").as_mut(),
    };
    let sim = simulate(graph, platform, &**model, sim_sched, sim_cfg);
    let sim_rank = relaxed_seq.as_ref().and_then(|s| s.rank_stats());
    if let Some(err) = &sim.error {
        mismatches.push(Mismatch::SimFailed {
            error: err.to_string(),
        });
    }
    if !sim.audit.is_empty() {
        mismatches.push(Mismatch::InvariantViolations {
            count: sim.audit.len(),
            first: sim.audit[0].to_string(),
        });
    }
    check_trace(
        graph,
        &sim.trace,
        Side::Sim,
        sim.error.is_some(),
        lenient,
        &mut mismatches,
    );

    // Side 2: threaded runtime, wall clock, mirrored DAG.
    let (mut rt, edge_mismatches) = mirror_graph(graph, platform, Arc::clone(model));
    mismatches.extend(edge_mismatches);
    if let Some(plan) = cfg.faults {
        rt.set_faults(plan);
    }
    rt.set_retry_policy(cfg.retry);
    let mut runtime_rank = None;
    let run = if let Some(rc) = cfg.relaxed {
        let front = RelaxedMultiQueue::new(platform.worker_count(), rc);
        let run = rt.run_concurrent(&front);
        runtime_rank = front.rank_stats();
        run
    } else if cfg.shards == 0 {
        rt.run(factory())
    } else {
        rt.run_concurrent(&ShardedAdapter::new(cfg.shards, factory))
    };
    let runtime_makespan = match run {
        Ok(report) => {
            // Mid-run failures (misrouted task, panicking kernel) come
            // back as a report carrying the error and a partial trace.
            if let Some(err) = &report.error {
                mismatches.push(Mismatch::RuntimeFailed {
                    error: err.to_string(),
                });
            }
            check_trace(
                graph,
                &report.trace,
                Side::Runtime,
                report.error.is_some(),
                lenient,
                &mut mismatches,
            );
            Some(report.makespan_us)
        }
        Err(err) => {
            mismatches.push(Mismatch::RuntimeFailed {
                error: err.to_string(),
            });
            None
        }
    };

    DiffReport {
        scheduler: sim.scheduler,
        mismatches,
        sim_makespan: sim.makespan,
        runtime_makespan,
        sim_rank,
        runtime_rank,
    }
}

/// Result of one warm/cold cache audit (see [`warm_cold_audit`]).
#[derive(Debug)]
pub struct WarmColdReport {
    /// Every disagreement found; empty means the config passed.
    pub mismatches: Vec<Mismatch>,
    /// Buffer digest of the uncached reference run.
    pub reference_digest: u64,
    /// Buffer digest after the cold (cache-populating) run.
    pub cold_digest: u64,
    /// Buffer digest after the warm (cache-consuming) run.
    pub warm_digest: u64,
    /// Tasks the cold run executed (== DAG size on a clean pass).
    pub cold_executed: usize,
    /// Tasks the warm run executed (0 on a clean fault-free pass; under
    /// retryable faults re-executions are legal, so only the digest
    /// must agree).
    pub warm_executed: usize,
}

impl WarmColdReport {
    /// Did every run agree bit-for-bit?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Prove cache-hit outputs bit-identical to recomputed ones for one
/// configuration: run the *computing* mirror of `graph`
/// ([`mirror_graph_computing`]) three times — uncached reference, cold
/// run populating a fresh [`mp_runtime::ResultCache`], warm run
/// consuming it — and compare the final buffer digests bit for bit.
/// Honors [`DiffConfig::shards`], [`DiffConfig::faults`] and
/// [`DiffConfig::retry`], so the proof also covers kill/transient fault
/// plans; fault-free configs additionally require the warm run to
/// execute exactly zero tasks (100 % hit rate).
pub fn warm_cold_audit(
    graph: &TaskGraph,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
) -> WarmColdReport {
    let cache = Arc::new(mp_runtime::ResultCache::new());
    warm_cold_audit_with_cache(graph, platform, model, factory, cfg, &cache)
}

/// [`warm_cold_audit`] against a caller-supplied cache — in particular a
/// byte-capped one ([`mp_runtime::ResultCache::with_capacity`]). Under a
/// cap the warm run may legitimately re-execute evicted tasks, so the
/// 100 %-hit-rate requirement only applies while the cache reports zero
/// capacity evictions; the bit-identical-digest requirement always
/// applies (eviction costs recomputes, never correctness).
pub fn warm_cold_audit_with_cache(
    graph: &TaskGraph,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
    cache: &Arc<mp_runtime::ResultCache>,
) -> WarmColdReport {
    let mut mismatches = Vec::new();
    let run_once = |cache: Option<&Arc<mp_runtime::ResultCache>>,
                    phase: &'static str,
                    mismatches: &mut Vec<Mismatch>|
     -> (u64, usize) {
        let (mut rt, edge_mismatches) = mirror_graph_computing(graph, platform, Arc::clone(model));
        mismatches.extend(edge_mismatches);
        if let Some(c) = cache {
            rt.set_cache(Arc::clone(c));
        }
        if let Some(plan) = cfg.faults {
            rt.set_faults(plan);
        }
        rt.set_retry_policy(cfg.retry);
        let run = if cfg.shards == 0 {
            rt.run(factory())
        } else {
            rt.run_concurrent(&ShardedAdapter::new(cfg.shards, factory))
        };
        match run {
            Ok(report) => {
                if let Some(err) = &report.error {
                    mismatches.push(Mismatch::RuntimeFailed {
                        error: format!("{phase}: {err}"),
                    });
                }
                (rt.buffers_digest(), report.trace.tasks.len())
            }
            Err(err) => {
                mismatches.push(Mismatch::RuntimeFailed {
                    error: format!("{phase}: {err}"),
                });
                (0, 0)
            }
        }
    };

    let (reference_digest, _) = run_once(None, "reference", &mut mismatches);
    let (cold_digest, cold_executed) = run_once(Some(cache), "cold", &mut mismatches);
    let (warm_digest, warm_executed) = run_once(Some(cache), "warm", &mut mismatches);

    if cold_digest != reference_digest {
        mismatches.push(Mismatch::CachedOutputDivergence {
            phase: "cold",
            expected: reference_digest,
            got: cold_digest,
        });
    }
    if warm_digest != reference_digest {
        mismatches.push(Mismatch::CachedOutputDivergence {
            phase: "warm",
            expected: reference_digest,
            got: warm_digest,
        });
    }
    // Fault-free with an uncapped (or never-pressed) cache: the warm
    // run must be all hits. Under retryable fault plans or capacity
    // eviction, legitimate re-executions exist, so only digests are
    // checked.
    if cfg.faults.is_none() && cache.evictions() == 0 && warm_executed != 0 {
        mismatches.push(Mismatch::CacheCoverage {
            executed: warm_executed,
            expected: 0,
        });
    }
    WarmColdReport {
        mismatches,
        reference_digest,
        cold_digest,
        warm_digest,
        cold_executed,
        warm_executed,
    }
}

/// Audit one **streaming** (serving-mode) run: exactly-once execution
/// and precedence over the final grown graph.
///
/// Under streaming admission the final graph *is* the admitted set — a
/// rejected [`mp_dag::SubmissionStage`] is dropped before touching the
/// graph — so these two checks together prove the serving invariants:
///
/// * every admitted task of every interleaved sub-DAG executed exactly
///   once (nothing lost to backpressure, nothing double-executed by the
///   concurrent front-ends);
/// * per-sub-DAG precedence held, including cross-submission edges
///   resolved by data identity (no task started before each of its
///   predecessors — possibly from an earlier submission — ended);
/// * rejections stranded nothing: a stranded dependency would surface
///   as an admitted task with zero executions.
///
/// Pass [`mp_runtime::StreamReport::trace`] and the post-serve
/// [`mp_runtime::Runtime::graph`]. Returns every violation found;
/// empty means the run passed.
pub fn streaming_audit(graph: &TaskGraph, trace: &mp_trace::Trace) -> Vec<Mismatch> {
    let mut out = Vec::new();
    diff::check_exactly_once(graph, trace, Side::Runtime, &mut out);
    diff::check_precedence(graph, trace, Side::Runtime, &mut out);
    out
}

/// [`streaming_audit`] for a **cache-backed** serving run.
///
/// A task served from the [`mp_runtime::ResultCache`] completes at its
/// release instant and records no trace span, so exactly-once relaxes
/// to *at most once* — plus an exact hit ledger: the number of
/// span-less tasks must equal the `cache_hits` the report claims
/// ([`mp_runtime::StreamReport::cache_hits`]). A hit that silently
/// swallowed a task the cache never served (or a double execution
/// slipping through as a "hit") therefore surfaces as
/// [`Mismatch::CacheCoverage`] or [`Mismatch::ExecutionCount`].
/// Precedence applies to the executed spans exactly as in the uncached
/// audit; span-less (hit) predecessors are release-ordered by
/// construction.
///
/// With `cache_hits == 0` this is equivalent to [`streaming_audit`].
pub fn streaming_audit_cached(
    graph: &TaskGraph,
    trace: &mp_trace::Trace,
    cache_hits: u64,
) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let mut count = vec![0usize; graph.task_count()];
    for s in &trace.tasks {
        if s.task.index() < count.len() {
            count[s.task.index()] += 1;
        }
    }
    for (i, &c) in count.iter().enumerate() {
        if c > 1 {
            out.push(Mismatch::ExecutionCount {
                side: Side::Runtime,
                task: mp_dag::ids::TaskId::from_index(i),
                count: c,
            });
        }
    }
    let executed = count.iter().filter(|&&c| c > 0).count();
    let expected = graph.task_count().saturating_sub(cache_hits as usize);
    if executed != expected {
        out.push(Mismatch::CacheCoverage { executed, expected });
    }
    diff::check_precedence(graph, trace, Side::Runtime, &mut out);
    out
}

/// Result of [`streaming_warm_cold_audit`].
#[derive(Debug)]
pub struct StreamingWarmColdReport {
    /// Findings of the cache-aware streaming checks
    /// ([`streaming_audit_cached`]) over the served trace.
    pub streaming: Vec<Mismatch>,
    /// The warm/cold digest proof re-run over the grown graph.
    pub warm_cold: WarmColdReport,
}

impl StreamingWarmColdReport {
    /// Did both layers pass?
    pub fn is_clean(&self) -> bool {
        self.streaming.is_empty() && self.warm_cold.is_clean()
    }
}

/// Audit a cache-backed streaming run end to end: the cache-aware
/// serving invariants over the trace ([`streaming_audit_cached`]),
/// *plus* a warm/cold digest proof ([`warm_cold_audit`]) over the
/// **grown graph** the stream left behind — the final graph is a closed
/// DAG, so the three-run (reference / cold / warm) bit-identical-digest
/// check applies to it directly, covering exactly the sub-DAG shapes
/// and cross-submission edges the stream produced. Honors
/// [`DiffConfig::shards`], [`DiffConfig::faults`] and
/// [`DiffConfig::retry`], so the digest proof also runs under
/// kill/transient fault plans.
///
/// Pass the post-serve [`mp_runtime::Runtime::graph`], the
/// [`mp_runtime::StreamReport`]'s trace and `cache_hits`.
pub fn streaming_warm_cold_audit(
    graph: &TaskGraph,
    trace: &mp_trace::Trace,
    cache_hits: u64,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
) -> StreamingWarmColdReport {
    StreamingWarmColdReport {
        streaming: streaming_audit_cached(graph, trace, cache_hits),
        warm_cold: warm_cold_audit(graph, platform, model, factory, cfg),
    }
}

/// The per-side checks: exactly-once execution (effectively-once under
/// retryable faults) and precedence order. A truncated trace (the side
/// failed mid-run) flags the truncation once instead of one
/// `ExecutionCount` finding per unexecuted task; precedence still
/// applies to the prefix that did run.
fn check_trace(
    graph: &TaskGraph,
    trace: &mp_trace::Trace,
    side: Side,
    truncated: bool,
    lenient: bool,
    out: &mut Vec<Mismatch>,
) {
    if truncated {
        out.push(Mismatch::TruncatedTrace {
            side,
            executed: trace.tasks.len(),
            total: graph.task_count(),
        });
    } else if lenient {
        diff::check_effectively_once(graph, trace, side, out);
    } else {
        diff::check_exactly_once(graph, trace, side, out);
    }
    diff::check_precedence(graph, trace, side, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dag::{AccessMode, StfBuilder};
    use mp_perfmodel::model::UniformModel;
    use mp_platform::presets::simple;
    use mp_sched::FifoScheduler;

    fn diamond() -> TaskGraph {
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("K", true, true);
        let d0 = stf.graph_mut().add_data(1024, "d0");
        let d1 = stf.graph_mut().add_data(1024, "d1");
        stf.submit(k, vec![(d0, AccessMode::Write)], 1.0, "t0");
        stf.submit(
            k,
            vec![(d0, AccessMode::Read), (d1, AccessMode::Write)],
            1.0,
            "t1",
        );
        stf.submit(k, vec![(d0, AccessMode::ReadWrite)], 1.0, "t2");
        stf.submit(
            k,
            vec![(d0, AccessMode::Read), (d1, AccessMode::Read)],
            1.0,
            "t3",
        );
        stf.finish()
    }

    #[test]
    fn agreeing_executions_produce_a_clean_report() {
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let report = differential(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &DiffConfig::default(),
        );
        assert!(report.is_clean(), "{:?}", report.mismatches);
        assert!(report.sim_makespan > 0.0);
        assert!(report.runtime_makespan.is_some());
    }

    #[test]
    fn sim_side_failure_lands_in_the_report() {
        // A GPU-only kernel on a CPU-only platform: the sim deadlocks
        // (typed), the runtime rejects at submit (typed) — both surface.
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("GPUONLY", false, true);
        let d = stf.graph_mut().add_data(64, "d");
        stf.submit(k, vec![(d, AccessMode::ReadWrite)], 1.0, "t0");
        let g = stf.finish();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let report = differential(
            &g,
            &mp_platform::presets::homogeneous(2),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &DiffConfig::default(),
        );
        assert!(!report.is_clean());
        assert!(report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::SimFailed { .. })));
        assert!(report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::RuntimeFailed { .. })));
        // The sim side deadlocked: one truncation finding, not one
        // ExecutionCount finding per unexecuted task.
        assert!(report.mismatches.iter().any(|m| matches!(
            m,
            Mismatch::TruncatedTrace {
                side: Side::Sim,
                ..
            }
        )));
        assert!(!report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::ExecutionCount { .. })));
    }

    #[test]
    fn kill_plan_differential_is_clean_with_retries() {
        // Kill worker 0 after one completed task: both sides quarantine
        // the victim and the survivors finish the DAG. The checks relax
        // to effectively-once; precedence must still hold exactly.
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let cfg = DiffConfig {
            faults: Some(FaultPlan::default().kill_worker(0, 1)),
            retry: RetryPolicy::new(4, 0.0),
            ..DiffConfig::default()
        };
        let report = differential(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &cfg,
        );
        assert!(report.is_clean(), "{:?}", report.mismatches);
        assert!(report.runtime_makespan.is_some());
    }

    #[test]
    fn warm_cold_audit_is_clean_and_all_hit() {
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let report = warm_cold_audit(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &DiffConfig::default(),
        );
        assert!(report.is_clean(), "{:?}", report.mismatches);
        assert_eq!(report.cold_executed, g.task_count());
        assert_eq!(report.warm_executed, 0, "fault-free warm run is all hits");
        assert_eq!(report.warm_digest, report.reference_digest);
    }

    #[test]
    fn warm_cold_audit_survives_kill_and_transient_faults() {
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let cfg = DiffConfig {
            faults: Some(FaultPlan {
                transient_fail_prob: 0.3,
                ..FaultPlan::default().kill_worker(0, 1)
            }),
            retry: RetryPolicy::new(8, 0.0),
            ..DiffConfig::default()
        };
        let report = warm_cold_audit(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &cfg,
        );
        assert!(report.is_clean(), "{:?}", report.mismatches);
        assert_eq!(report.warm_digest, report.reference_digest);
    }

    #[test]
    fn fault_injection_is_repeat_deterministic() {
        // The same kill plan must reproduce the schedule bit for bit:
        // virtual time only, no wall clock anywhere in the fault path.
        let g = diamond();
        let model = UniformModel { time_us: 20.0 };
        let platform = simple(2, 1);
        let cfg = mp_sim::SimConfig::default()
            .with_faults(FaultPlan::default().kill_worker(0, 1))
            .with_retry(RetryPolicy::new(4, 0.0));
        let run = || {
            let mut s = FifoScheduler::new();
            mp_sim::simulate(&g, &platform, &model, &mut s, cfg)
        };
        let (a, b) = (run(), run());
        assert!(a.error.is_none(), "{:?}", a.error);
        assert_eq!(a.stats.worker_failures, 1);
        assert_eq!(schedule_hash(&a.trace), schedule_hash(&b.trace));
    }

    #[test]
    fn streaming_audit_passes_a_served_stream_and_catches_tampering() {
        use mp_runtime::serve::TenantSpec;
        use mp_runtime::{Runtime, StreamConfig, Submission, TaskBuilder};

        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
        let mut rt = Runtime::new(mp_platform::presets::homogeneous(2), model);
        let d = rt.register(vec![0.0], "d");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let stream: Vec<Submission> = (0..6)
            .map(|i| Submission {
                tenant: i % 2,
                tasks: vec![
                    TaskBuilder::new("K")
                        .access(d, AccessMode::ReadWrite)
                        .cpu(|ctx| ctx.w(0)[0] += 1.0),
                    TaskBuilder::new("K")
                        .access(d, AccessMode::Read)
                        .cpu(|_| {}),
                ],
            })
            .collect();
        let report = rt
            .serve(Box::new(FifoScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        let clean = streaming_audit(rt.graph(), &report.trace);
        assert!(clean.is_empty(), "{clean:?}");
        // Tampering must be caught: drop a span (a stranded/lost task)...
        let mut lost = report.trace.clone();
        lost.tasks.pop();
        assert!(streaming_audit(rt.graph(), &lost)
            .iter()
            .any(|m| matches!(m, Mismatch::ExecutionCount { count: 0, .. })));
        // ...and rewind a start past its predecessor's end.
        let mut early = report.trace.clone();
        let last = early.tasks.len() - 1;
        early.tasks[last].start = -1.0;
        assert!(!streaming_audit(rt.graph(), &early).is_empty());
    }

    /// A cache-backed stream of write-only fork-join sub-DAGs: identical
    /// resubmissions hit, so the trace holds spans only for the cold
    /// rounds.
    fn served_warm_stream() -> (mp_runtime::Runtime, mp_runtime::StreamReport) {
        use mp_runtime::serve::TenantSpec;
        use mp_runtime::{Runtime, StreamConfig, Submission, TaskBuilder};

        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
        let mut rt = Runtime::new(mp_platform::presets::homogeneous(2), model);
        rt.set_cache(Arc::new(mp_runtime::ResultCache::new()));
        let d = rt.register(vec![0.0], "d");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let stream: Vec<Submission> = (0..8)
            .map(|i| Submission {
                tenant: i % 2,
                tasks: vec![
                    TaskBuilder::new("K")
                        .access(d, AccessMode::Write)
                        .cpu(|ctx| ctx.w(0)[0] = 3.0),
                    TaskBuilder::new("K")
                        .access(d, AccessMode::Read)
                        .cpu(|_| {}),
                ],
            })
            .collect();
        let report = rt
            .serve(Box::new(FifoScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert!(report.cache_hits > 0, "warm stream should hit");
        (rt, report)
    }

    #[test]
    fn cached_streaming_audit_accounts_for_every_hit() {
        let (rt, report) = served_warm_stream();
        let clean = streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits);
        assert!(clean.is_empty(), "{clean:?}");
        // The uncached audit would flag each span-less hit as a lost
        // task — the cached variant must account for them exactly.
        assert!(!streaming_audit(rt.graph(), &report.trace).is_empty());
        // A lying hit count is caught...
        assert!(
            streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits + 1)
                .iter()
                .any(|m| matches!(m, Mismatch::CacheCoverage { .. }))
        );
        // ...and so is a double execution smuggled in as a "hit".
        let mut doubled = report.trace.clone();
        let dup = doubled.tasks[0].clone();
        doubled.tasks.push(dup);
        assert!(
            streaming_audit_cached(rt.graph(), &doubled, report.cache_hits)
                .iter()
                .any(|m| matches!(m, Mismatch::ExecutionCount { count: 2, .. }))
        );
    }

    #[test]
    fn streaming_warm_cold_audit_is_clean_over_the_grown_graph() {
        let (rt, report) = served_warm_stream();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
        let audit = streaming_warm_cold_audit(
            rt.graph(),
            &report.trace,
            report.cache_hits,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &DiffConfig::default(),
        );
        assert!(audit.is_clean(), "{:?}", audit);
        assert_eq!(audit.warm_cold.warm_executed, 0);
        assert_eq!(
            audit.warm_cold.warm_digest,
            audit.warm_cold.reference_digest
        );
    }

    #[test]
    fn streaming_warm_cold_audit_survives_kill_and_transient_faults() {
        let (rt, report) = served_warm_stream();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
        let cfg = DiffConfig {
            faults: Some(FaultPlan {
                transient_fail_prob: 0.3,
                ..FaultPlan::default().kill_worker(0, 1)
            }),
            retry: RetryPolicy::new(8, 0.0),
            ..DiffConfig::default()
        };
        let audit = streaming_warm_cold_audit(
            rt.graph(),
            &report.trace,
            report.cache_hits,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &cfg,
        );
        assert!(audit.is_clean(), "{:?}", audit);
        assert_eq!(
            audit.warm_cold.warm_digest,
            audit.warm_cold.reference_digest
        );
    }

    #[test]
    fn panicking_kernel_truncates_the_runtime_trace_cleanly() {
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let cfg = DiffConfig {
            faults: Some(FaultPlan {
                seed: 21,
                panic_prob: 1.0,
                ..FaultPlan::default()
            }),
            ..DiffConfig::default()
        };
        let report = differential(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &cfg,
        );
        assert!(report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::RuntimeFailed { .. })));
        assert!(report.mismatches.iter().any(|m| matches!(
            m,
            Mismatch::TruncatedTrace {
                side: Side::Runtime,
                ..
            }
        )));
        // The partial trace is still internally consistent: no
        // precedence findings, the makespan is reported.
        assert!(!report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::PrecedenceViolation { .. })));
        assert!(report.runtime_makespan.is_some());
    }
}
