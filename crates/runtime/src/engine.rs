//! The threaded execution engine.
//!
//! Workers drive a [`ConcurrentScheduler`] front-end directly — either
//! the [`GlobalLock`] baseline (one mutex around the policy, what
//! [`Runtime::run`] uses) or the sharded multi-queue
//! ([`Runtime::run_sharded`]). Idle workers park on an eventcount-style
//! [`WakeEpoch`]: every push and every completion bumps an epoch and
//! notifies, and a worker that read the epoch *before* its failed pop
//! cannot miss a wakeup that raced with it. The only timed sleep left is
//! a short bounded re-poll when the scheduler holds tasks back
//! (`pending() > 0` but `pop` returned `None`, e.g. MultiPrio's pop
//! condition waiting out a busy best-worker).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use mp_cache::{CacheEntry, Lookup, ResultCache};
use mp_dag::access::AccessMode;
use mp_dag::hash;
use mp_dag::ids::{DataId, TaskId};
use mp_dag::stf::StfBuilder;
use mp_dag::TaskGraph;
use mp_perfmodel::{DeltaEstimate, Estimator, FallbackWarnings, PerfModel};
use mp_platform::types::{ArchClass, MemNodeId, Platform, WorkerId};
use mp_sched::api::{DataLocator, LoadInfo, SchedEvent, SchedView, Scheduler};
use mp_sched::concurrent::{
    ConcurrentScheduler, GlobalLock, RelaxedConfig, RelaxedMultiQueue, ShardedAdapter,
};
use mp_trace::obs::obs_enabled;
use mp_trace::{
    Counter, CounterSnapshot, ObsCell, RuntimeEvent, RuntimeEventKind, TaskSpan, Trace,
};

use crate::data::{BufRef, TaskCtx};
use crate::fault::{FaultPlan, RetryPolicy, SkewedModel};

/// A kernel implementation.
pub type KernelFn = Arc<dyn Fn(&mut TaskCtx<'_>) + Send + Sync>;

/// Fluent builder for one task submission.
pub struct TaskBuilder {
    pub(crate) ttype: String,
    pub(crate) accesses: Vec<(DataId, AccessMode)>,
    pub(crate) impls: HashMap<ArchClass, KernelFn>,
    pub(crate) flops: f64,
    pub(crate) priority: i64,
    pub(crate) label: String,
}

impl TaskBuilder {
    /// Start a task of kernel type `ttype`.
    pub fn new(ttype: &str) -> Self {
        Self {
            ttype: ttype.to_string(),
            accesses: Vec::new(),
            impls: HashMap::new(),
            flops: 0.0,
            priority: 0,
            label: String::new(),
        }
    }

    /// Declare a data access.
    pub fn access(mut self, d: DataId, mode: AccessMode) -> Self {
        self.accesses.push((d, mode));
        self
    }

    /// Provide the CPU-class implementation.
    pub fn cpu(mut self, f: impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static) -> Self {
        self.impls.insert(ArchClass::Cpu, Arc::new(f));
        self
    }

    /// Provide the GPU-class implementation (on a CPU-only host this runs
    /// on the "GPU" worker threads — see crate docs).
    pub fn gpu(mut self, f: impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static) -> Self {
        self.impls.insert(ArchClass::Gpu, Arc::new(f));
        self
    }

    /// Work estimate in flops (feeds rate-based models).
    pub fn flops(mut self, flops: f64) -> Self {
        self.flops = flops;
        self
    }

    /// Expert priority (read by Dmdas).
    pub fn priority(mut self, p: i64) -> Self {
        self.priority = p;
        self
    }

    /// Trace label.
    pub fn label(mut self, l: impl Into<String>) -> Self {
        self.label = l.into();
        self
    }
}

/// Unified-memory locality: every handle is resident everywhere.
pub(crate) struct UnifiedMemory;

impl DataLocator for UnifiedMemory {
    fn is_on(&self, _d: DataId, _m: MemNodeId) -> bool {
        true
    }

    fn holders(&self, _d: DataId) -> Vec<MemNodeId> {
        vec![MemNodeId(0)]
    }
}

/// Lock-free busy-until table (µs since run start, f64 bits).
pub(crate) struct AtomicLoads(Vec<AtomicU64>);

impl AtomicLoads {
    pub(crate) fn new(n: usize) -> Self {
        Self((0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect())
    }

    pub(crate) fn set(&self, w: WorkerId, v: f64) {
        self.0[w.index()].store(v.to_bits(), Ordering::Relaxed);
    }
}

impl LoadInfo for AtomicLoads {
    fn busy_until(&self, w: WorkerId) -> f64 {
        f64::from_bits(self.0[w.index()].load(Ordering::Relaxed))
    }
}

/// Eventcount-style parking lot for idle workers.
///
/// Protocol: a worker reads [`Self::current`] *before* its exit check
/// and pop attempt; if the pop fails it parks with [`Self::wait`], which
/// returns immediately when the epoch moved in between. Producers call
/// [`Self::notify`], which bumps the epoch *before* taking the mutex, so
/// the pair (read epoch → pop → wait) can never sleep through a push or
/// completion that happened after the epoch read.
pub(crate) struct WakeEpoch {
    epoch: AtomicU64,
    /// Workers inside [`Self::wait`]; lets [`Self::notify`] skip the
    /// mutex on the (hot) nobody-parked path.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl WakeEpoch {
    pub(crate) fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn current(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub(crate) fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // SeqCst pairs with the waiter's increment-then-recheck: either
        // the waiter's re-check sees the new epoch, or this load sees the
        // waiter registered and takes the mutex to wake it.
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Take the mutex so a waiter between its epoch re-check and its
        // cv wait cannot miss the notification.
        let _g = self.lock.lock().expect("wake lock poisoned");
        self.cv.notify_all();
    }

    /// Park until the epoch differs from `seen` (or `bound` elapses, or a
    /// spurious wakeup — callers re-poll in a loop either way).
    pub(crate) fn wait(&self, seen: u64, bound: Option<Duration>) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.lock.lock().expect("wake lock poisoned");
        if self.epoch.load(Ordering::SeqCst) == seen {
            match bound {
                Some(d) => drop(self.cv.wait_timeout(g, d).expect("wake lock poisoned")),
                None => drop(self.cv.wait(g).expect("wake lock poisoned")),
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Bounded park when the scheduler holds work back: MultiPrio's pop
/// condition compares against wall-clock `busy_until`, so a held-back
/// task becomes poppable by time passing alone — no event fires.
pub(crate) const HOLDBACK_REPOLL: Duration = Duration::from_micros(200);

/// Typed failure of [`Runtime::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A submitted task has no implementation for any architecture class
    /// present on the platform, so no worker could ever execute it.
    /// Detected at submit time, reported when the run starts.
    NoUsableImpl {
        /// The offending task.
        task: TaskId,
        /// Its trace label.
        label: String,
        /// Architecture classes present on the platform.
        platform_classes: Vec<ArchClass>,
    },
    /// The scheduler handed a task to a worker whose architecture class
    /// has no implementation of it (a policy bug — the run is aborted).
    MissingKernel {
        /// The misrouted task.
        task: TaskId,
        /// The class of the worker it was sent to.
        class: ArchClass,
    },
    /// A kernel body panicked on its final allowed attempt. The panic is
    /// caught at the worker loop, the run drains cleanly, and the spans
    /// recorded so far survive as a partial trace (the panicking task
    /// records no span). With a [`RetryPolicy`] allowing more than one
    /// attempt, earlier panics are retried instead.
    KernelPanicked {
        /// The task whose kernel panicked.
        task: TaskId,
    },
    /// After a worker failure, a remaining task has no surviving worker
    /// whose architecture class has an implementation of it — the run
    /// could never complete and is aborted instead of hanging.
    NoCapableWorker {
        /// The unexecutable task.
        task: TaskId,
    },
    /// A task failed (injected transient failure) on every attempt the
    /// [`RetryPolicy`] allows.
    RetryExhausted {
        /// The failing task.
        task: TaskId,
        /// Attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NoUsableImpl {
                task,
                label,
                platform_classes,
            } => write!(
                f,
                "task {task:?} ('{label}') has no implementation for any platform \
                 arch class ({platform_classes:?})"
            ),
            RunError::MissingKernel { task, class } => write!(
                f,
                "scheduler sent {task:?} to a {class:?} worker without an implementation"
            ),
            RunError::KernelPanicked { task } => {
                write!(
                    f,
                    "kernel of {task:?} panicked; run aborted with partial trace"
                )
            }
            RunError::NoCapableWorker { task } => write!(
                f,
                "no surviving worker can execute {task:?} after worker failure"
            ),
            RunError::RetryExhausted { task, attempts } => {
                write!(f, "{task:?} failed on all {attempts} allowed attempt(s)")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Result of a run: wall-clock makespan and trace.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock makespan in µs.
    pub makespan_us: f64,
    /// Wall-clock execution trace. Partial when [`Self::error`] is set:
    /// spans recorded before the failure are preserved, sorted by
    /// `(end, task)` either way.
    pub trace: Trace,
    /// Name of the scheduler used.
    pub scheduler: String,
    /// Why the run stopped early, if it did. `None` means every task
    /// executed. Mid-run failures (a misrouted task, a panicking
    /// kernel) land here with the partial trace preserved; only
    /// submit-time [`RunError::NoUsableImpl`] makes
    /// [`Runtime::run`] return `Err`.
    pub error: Option<RunError>,
    /// Scheduler/engine observability counters, merged at quiesce.
    /// All-zero unless built with `--features obs`.
    pub counters: CounterSnapshot,
    /// Worker park/wake timeline. Empty unless built with
    /// `--features obs`.
    pub events: Vec<RuntimeEvent>,
    /// Rank-error statistics against the exact-priority oracle. `Some`
    /// only for [`Runtime::run_relaxed`] with
    /// [`RelaxedConfig::track_rank`] set.
    pub rank: Option<mp_trace::RankStats>,
}

impl RunReport {
    /// Did the run execute every task without error?
    pub fn is_complete(&self) -> bool {
        self.error.is_none()
    }
}

/// The runtime: buffers + submitted tasks, executed by [`Runtime::run`].
pub struct Runtime {
    pub(crate) platform: Platform,
    pub(crate) model: Arc<dyn PerfModel>,
    pub(crate) stf: StfBuilder,
    pub(crate) buffers: Vec<RwLock<Vec<f64>>>,
    pub(crate) impls: Vec<HashMap<ArchClass, KernelFn>>,
    /// First impl-coverage violation found at submit time; reported by
    /// [`Runtime::run`] before any thread spawns.
    pub(crate) submit_error: Option<RunError>,
    /// Fault-injection plan applied by the next run (`None` = no faults).
    faults: Option<FaultPlan>,
    /// Retry budget for failed execution attempts (panics, injected
    /// transient failures). The default allows exactly one attempt.
    retry: RetryPolicy,
    /// Shared content-addressed result cache (`None` = caching off).
    /// A hit skips execution entirely — see [`Runtime::set_cache`].
    pub(crate) cache: Option<Arc<ResultCache>>,
    /// Fallback-estimate warnings, deduped per (task type, arch) across
    /// every run of this runtime — a warm re-run never re-prints them,
    /// and cache-hit tasks never reach the estimator at all.
    warned: FallbackWarnings,
}

impl Runtime {
    /// New runtime on `platform` with performance model `model` (wrap a
    /// `HistoryModel` to get online calibration from measured times).
    pub fn new(platform: Platform, model: Arc<dyn PerfModel>) -> Self {
        Self {
            platform,
            model,
            stf: StfBuilder::new(),
            buffers: Vec::new(),
            impls: Vec::new(),
            submit_error: None,
            faults: None,
            retry: RetryPolicy::default(),
            cache: None,
            warned: FallbackWarnings::new(),
        }
    }

    /// Consult `cache` before executing each task (DESIGN.md §12). A
    /// verified hit materializes the memoized output buffers and
    /// completes the task without ever pushing it into the scheduler;
    /// a miss executes normally and populates the cache with the
    /// written buffers. Share one cache across `Runtime` instances (or
    /// runs) via `Arc` to get warm starts and incremental
    /// re-execution.
    pub fn set_cache(&mut self, cache: Arc<ResultCache>) {
        self.cache = Some(cache);
    }

    /// FNV-1a digest over every registered buffer (length + f64 bit
    /// patterns, in registration order). Bit-identical buffer states —
    /// e.g. after a cold run and after a warm all-hit re-run — produce
    /// equal digests; any payload corruption shows up here.
    pub fn buffers_digest(&self) -> u64 {
        let mut h = hash::FNV_OFFSET;
        for b in &self.buffers {
            let buf = b.read().expect("buffer poisoned");
            h ^= buf.len() as u64;
            h = h.wrapping_mul(hash::FNV_PRIME);
            for v in buf.iter() {
                h ^= v.to_bits();
                h = h.wrapping_mul(hash::FNV_PRIME);
            }
        }
        h
    }

    /// Apply a [`FaultPlan`] to every subsequent run: deterministic slow
    /// and stalled kernels, skewed model estimates, delayed wakeups —
    /// plus worker kills after a fixed completion count and per-attempt
    /// transient execution failures. Used by the validation harness to
    /// prove effectively-once execution and termination under
    /// adversarial timing; timing faults have no effect on results.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = (!plan.is_noop()).then_some(plan);
    }

    /// Retry failed execution attempts (kernel panics, injected
    /// transient failures) under `policy`: up to `max_attempts` tries
    /// per task with exponential backoff. The default policy allows a
    /// single attempt — the first failure aborts the run, exactly as
    /// before retry support existed.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Register a buffer; returns its handle. The initial contents are
    /// content-hashed into the handle's data version, so cache keys of
    /// tasks reading pre-write inputs follow the actual bytes:
    /// registering different inputs re-keys (and re-executes) their
    /// read cones, even across `Runtime` instances sharing one cache.
    pub fn register(&mut self, data: Vec<f64>, label: &str) -> DataId {
        let bytes = (data.len() * 8) as u64;
        let id = self.stf.graph_mut().add_data(bytes, label);
        let mut h = hash::FNV_OFFSET;
        h ^= data.len() as u64;
        h = h.wrapping_mul(hash::FNV_PRIME);
        for v in &data {
            h ^= v.to_bits();
            h = h.wrapping_mul(hash::FNV_PRIME);
        }
        self.stf.set_data_version(id, hash::mix64(h));
        self.buffers.push(RwLock::new(data));
        debug_assert_eq!(id.index() + 1, self.buffers.len());
        id
    }

    /// Architecture classes with at least one worker on this platform.
    fn platform_classes(&self) -> Vec<ArchClass> {
        let mut classes = Vec::new();
        for a in self.platform.archs() {
            if !classes.contains(&a.class) {
                classes.push(a.class);
            }
        }
        classes
    }

    /// Submit a task; dependencies on earlier submissions are inferred
    /// from the declared accesses (STF). Implementation coverage is
    /// checked against the platform's architecture classes here; a task
    /// no worker could ever execute makes the eventual [`Self::run`]
    /// return [`RunError::NoUsableImpl`] instead of deadlocking or
    /// panicking inside a worker thread.
    pub fn submit(&mut self, tb: TaskBuilder) -> TaskId {
        assert!(
            !tb.impls.is_empty(),
            "task '{}' has no implementation",
            tb.ttype
        );
        let ttype = self.stf.graph_mut().register_type(
            &tb.ttype,
            tb.impls.contains_key(&ArchClass::Cpu),
            tb.impls.contains_key(&ArchClass::Gpu),
        );
        let label = if tb.label.is_empty() {
            tb.ttype.clone()
        } else {
            tb.label.clone()
        };
        let t = self
            .stf
            .submit_prio(ttype, tb.accesses, tb.flops, tb.priority, label.clone());
        let classes = self.platform_classes();
        if self.submit_error.is_none() && !classes.iter().any(|c| tb.impls.contains_key(c)) {
            self.submit_error = Some(RunError::NoUsableImpl {
                task: t,
                label,
                platform_classes: classes,
            });
        }
        self.impls.push(tb.impls);
        debug_assert_eq!(t.index() + 1, self.impls.len());
        t
    }

    /// Take back a buffer's contents after a run.
    pub fn buffer(&self, d: DataId) -> Vec<f64> {
        self.buffers[d.index()]
            .read()
            .expect("buffer poisoned")
            .clone()
    }

    /// The graph built so far (for analysis/tests).
    pub fn graph(&self) -> &TaskGraph {
        self.stf.graph()
    }

    /// Execute every submitted task under `scheduler` behind a single
    /// global lock ([`GlobalLock`]). Blocks until the whole DAG completes;
    /// buffers can be read back afterwards with [`Self::buffer`].
    pub fn run(&mut self, scheduler: Box<dyn Scheduler>) -> Result<RunReport, RunError> {
        let front = GlobalLock::new(scheduler);
        self.run_concurrent(&front)
    }

    /// Execute under a sharded multi-queue front-end: `shards` policy
    /// instances built by `factory`, per-worker routing and randomized
    /// two-choice stealing (see [`ShardedAdapter`]). Stateful policies
    /// should share score state across the instances the factory builds
    /// (e.g. `MultiPrioScheduler::with_shared_gain`).
    pub fn run_sharded(
        &mut self,
        shards: usize,
        factory: &dyn Fn() -> Box<dyn Scheduler>,
    ) -> Result<RunReport, RunError> {
        let front = ShardedAdapter::new(shards, factory);
        self.run_concurrent(&front)
    }

    /// Execute under the relaxed multi-queue front-end
    /// ([`RelaxedMultiQueue`]): `cfg.queues_per_worker · workers`
    /// try-locked sequential queues with two-choice pops over published
    /// score tops. Ordering is *relaxed* — a pop may return a task that
    /// is not the current global best — with the bounded rank error
    /// measurable via [`RelaxedConfig::track_rank`] (reported on
    /// [`RunReport::rank`]). The policy order is `prio`: descending user
    /// priority, FIFO within a level.
    pub fn run_relaxed(&mut self, cfg: RelaxedConfig) -> Result<RunReport, RunError> {
        let front = RelaxedMultiQueue::new(self.platform.worker_count(), cfg);
        let mut report = self.run_concurrent(&front)?;
        report.rank = front.rank_stats();
        Ok(report)
    }

    /// Execute every submitted task by driving `front` from one thread
    /// per platform worker.
    pub fn run_concurrent(
        &mut self,
        front: &dyn ConcurrentScheduler,
    ) -> Result<RunReport, RunError> {
        if let Some(err) = self.submit_error.clone() {
            return Err(err);
        }
        let graph = self.stf.graph().clone();
        let n = graph.task_count();
        let nw = self.platform.worker_count();
        let platform = &self.platform;
        let faults = self.faults.unwrap_or_default();
        let retry = self.retry;
        let kills_on = faults.kills_any();
        let transients_on = faults.transient_fail_prob > 0.0;
        // Estimate skew wraps the model; measured feedback still reaches
        // the real model underneath.
        let skewed: Option<SkewedModel> = (faults.estimate_skew > 0.0)
            .then(|| SkewedModel::new(Arc::clone(&self.model), faults.estimate_skew, faults.seed));
        let model: &dyn PerfModel = match &skewed {
            Some(s) => s,
            None => &*self.model,
        };
        let buffers = &self.buffers;
        let impls = &self.impls;
        let sched_name = front.name();

        let loads = AtomicLoads::new(nw);
        let unified = UnifiedMemory;
        let start = Instant::now();
        let now_us = || start.elapsed().as_secs_f64() * 1e6;

        let wake = WakeEpoch::new();
        let abort = AtomicBool::new(false);
        let error: Mutex<Option<RunError>> = Mutex::new(None);
        let completed = AtomicUsize::new(0);
        let indeg: Vec<AtomicUsize> = (0..n)
            .map(|i| AtomicUsize::new(graph.preds(TaskId::from_index(i)).len()))
            .collect();
        let ready_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
        let spans = Mutex::new(Vec::<TaskSpan>::new());
        // --- Worker-failure state (dormant without kill/transient
        // faults). A worker only dies *between* tasks — after its k-th
        // completion, before the next pop — so a death never strands an
        // in-flight task; queued work is re-routed by `worker_disabled`.
        let alive: Vec<AtomicBool> = (0..nw).map(|_| AtomicBool::new(true)).collect();
        let attempts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let done_flags: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let worker_classes: Vec<ArchClass> = (0..nw)
            .map(|wi| {
                let a = platform.worker(WorkerId::from_index(wi)).arch;
                platform.arch(a).class
            })
            .collect();
        // Fallback-estimate warnings: once per (task type, arch) per
        // runtime — warm re-runs stay silent.
        let warned = &self.warned;
        let cache = self.cache.clone();
        // The shared cache outlives runs: this run's capacity evictions
        // are the delta over its lifetime counter.
        let cache_evictions_at_start = cache.as_ref().map_or(0, |rc| rc.evictions());
        let cache_persist_at_start = cache
            .as_ref()
            .map_or_else(Default::default, |rc| rc.persist_stats());
        // Per-worker observability cells (no-ops unless `--features obs`)
        // plus one for the submitting thread's seed pushes.
        let cells: Vec<ObsCell> = (0..nw).map(|_| ObsCell::new()).collect();
        let seed_obs = ObsCell::new();
        // Park/wake timeline; only locked when obs is compiled in.
        let park_events: Mutex<Vec<RuntimeEvent>> = Mutex::new(Vec::new());

        let make_view = |now: f64| SchedView {
            est: Estimator::new(&graph, platform, model),
            loc: &unified,
            load: &loads,
            now,
        };

        // Release newly-ready tasks (DESIGN.md §12): `ready` holds tasks
        // whose indegree just reached zero; the misses among them are
        // pushed. With a result cache installed each one is probed
        // first, and a verified payload-carrying hit completes right
        // here: the memoized buffers are copied back under the write
        // locks, the completion is published, and the successors it
        // releases are probed in turn — the task never reaches the
        // scheduler front, the estimator, or a kernel. Every newly-ready
        // task, cascade included, is probed before any miss is pushed:
        // identical ready siblings share one cache key, and a miss
        // pushed before its twin was probed could run on another worker
        // and populate the entry first, turning the twin into a hit.
        // Runs on the submitting thread (seeding) and on worker threads
        // (successor release); every touched piece of state is atomic
        // or lock-guarded, and a task is probed exactly once (by its
        // unique releaser), so on a cached run `hits + misses == tasks`.
        // On return `ready` holds exactly the pushed tasks.
        let release = |ready: &mut Vec<TaskId>,
                       via: Option<WorkerId>,
                       obs: &ObsCell,
                       view: &SchedView<'_>| {
            if let Some(rc) = cache.as_deref() {
                let lane = via.map_or(nw, |w| w.index());
                let probe = |t: TaskId| -> Option<Arc<CacheEntry>> {
                    match graph.cache_meta(t).map(|m| rc.lookup(m, true)) {
                        Some(Lookup::Hit(e)) => return Some(e),
                        Some(Lookup::Invalidated) => {
                            obs.bump(Counter::CacheInvalidations);
                            obs.bump(Counter::CacheMisses);
                            if obs_enabled() {
                                let mut ev = park_events.lock().unwrap_or_else(|e| e.into_inner());
                                ev.push(RuntimeEvent {
                                    worker: lane,
                                    at: now_us(),
                                    kind: RuntimeEventKind::CacheInvalidated,
                                });
                            }
                        }
                        _ => obs.bump(Counter::CacheMisses),
                    }
                    None
                };
                let mut hits: Vec<(TaskId, Arc<CacheEntry>)> = Vec::new();
                ready.retain(|&t| match probe(t) {
                    Some(e) => {
                        hits.push((t, e));
                        false
                    }
                    None => true,
                });
                let any_hit = !hits.is_empty();
                while let Some((t, entry)) = hits.pop() {
                    // Materialize the payload in the same dedup'd write
                    // order the populate path stored it. The task is
                    // ready, so WAR/RAW edges guarantee no live reader
                    // or writer of these buffers — locking is as safe
                    // as executing.
                    let payload = entry
                        .payload
                        .as_ref()
                        .expect("payload-less entry served to the runtime");
                    let mut written: Vec<DataId> = Vec::new();
                    for d in graph.task(t).writes() {
                        if written.contains(&d) {
                            continue;
                        }
                        let src = &payload[written.len()];
                        written.push(d);
                        let mut buf = buffers[d.index()].write().expect("buffer poisoned");
                        buf.clear();
                        buf.extend_from_slice(src);
                    }
                    obs.bump(Counter::CacheHits);
                    obs.add(Counter::BytesMaterialized, entry.bytes);
                    if obs_enabled() {
                        let mut ev = park_events.lock().unwrap_or_else(|e| e.into_inner());
                        ev.push(RuntimeEvent {
                            worker: lane,
                            at: now_us(),
                            kind: RuntimeEventKind::CacheHit,
                        });
                    }
                    done_flags[t.index()].store(true, Ordering::Release);
                    completed.fetch_add(1, Ordering::AcqRel);
                    let now = now_us();
                    for &succ in graph.succs(t) {
                        if indeg[succ.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                            ready_at[succ.index()].store(now.to_bits(), Ordering::Relaxed);
                            match probe(succ) {
                                Some(e) => hits.push((succ, e)),
                                None => ready.push(succ),
                            }
                        }
                    }
                }
                if any_hit {
                    wake.notify();
                }
            }
            for &t in ready.iter() {
                front.push(t, via, view);
                obs.bump(Counter::Pushes);
            }
            let _ = front.drain_prefetches(); // unified memory: no-op
        };

        // Seed initial ready tasks. Snapshot the sources before probing:
        // a cache hit completes in place and can drive successors'
        // indegrees to zero, and those are released inside `release` —
        // only true sources (whose indegree no release can touch) may
        // be seeded here.
        {
            let mut sources: Vec<TaskId> = (0..n)
                .map(TaskId::from_index)
                .filter(|t| indeg[t.index()].load(Ordering::Relaxed) == 0)
                .collect();
            release(&mut sources, None, &seed_obs, &make_view(0.0));
        }

        std::thread::scope(|scope| {
            for (wi, obs) in cells.iter().enumerate() {
                let w = WorkerId::from_index(wi);
                let wake = &wake;
                let abort = &abort;
                let error = &error;
                let completed = &completed;
                let indeg = &indeg;
                let ready_at = &ready_at;
                let spans = &spans;
                let loads = &loads;
                let warned = &warned;
                let graph = &graph;
                let make_view = &make_view;
                let park_events = &park_events;
                let alive = &alive;
                let attempts = &attempts;
                let done_flags = &done_flags;
                let worker_classes = &worker_classes;
                let cache = &cache;
                let release = &release;
                scope.spawn(move || {
                    let arch = platform.worker(w).arch;
                    let class = platform.arch(arch).class;
                    // Committed tasks on this worker; read only by its
                    // own kill-threshold check.
                    let mut my_done = 0u32;
                    // Successors released by one completion (reused).
                    let mut ready: Vec<TaskId> = Vec::new();
                    loop {
                        // Epoch BEFORE the exit check and the pop attempt:
                        // any completion, abort or push bumps it *after*
                        // its state change, so either the check/pop below
                        // observes the change, or wait() sees a moved
                        // epoch and returns immediately. (Reading the
                        // epoch after the exit check left a window where
                        // the final completed-increment and its notify
                        // both landed in between: the worker then parked
                        // on the fresh epoch with no notify ever coming —
                        // a rare end-of-run hang.)
                        let seen = wake.current();
                        // Fault plan: die after the configured number of
                        // completions. The death is self-published here,
                        // between tasks — never mid-kernel — so nothing
                        // is lost in flight; the front-end re-routes any
                        // work queued for this worker.
                        if kills_on
                            && faults.kill_after(wi).is_some_and(|k| my_done >= k)
                            && alive[wi].swap(false, Ordering::AcqRel)
                        {
                            obs.bump(Counter::WorkerFailures);
                            if obs_enabled() {
                                let mut ev = park_events.lock().unwrap_or_else(|e| e.into_inner());
                                ev.push(RuntimeEvent {
                                    worker: wi,
                                    at: now_us(),
                                    kind: RuntimeEventKind::WorkerFailed,
                                });
                            }
                            {
                                let view = make_view(now_us());
                                front.worker_disabled(w, &view);
                            }
                            // The run can only finish if every remaining
                            // task keeps a capable surviving worker —
                            // abort typed instead of hanging otherwise.
                            let mut doomed: Option<TaskId> = None;
                            for i in 0..n {
                                if done_flags[i].load(Ordering::Acquire) {
                                    continue;
                                }
                                let capable = (0..nw).any(|xi| {
                                    alive[xi].load(Ordering::Acquire)
                                        && impls[i].contains_key(&worker_classes[xi])
                                });
                                if !capable {
                                    doomed = Some(TaskId::from_index(i));
                                    break;
                                }
                            }
                            if let Some(t) = doomed {
                                let mut e = error.lock().unwrap_or_else(|p| p.into_inner());
                                if e.is_none() {
                                    *e = Some(RunError::NoCapableWorker { task: t });
                                }
                                drop(e);
                                abort.store(true, Ordering::Release);
                            }
                            wake.notify();
                            return;
                        }
                        if completed.load(Ordering::Acquire) >= n || abort.load(Ordering::Acquire) {
                            wake.notify();
                            return;
                        }
                        let popped = {
                            let view = make_view(now_us());
                            front.pop(w, &view)
                        };
                        let Some(t) = popped else {
                            // Nothing for us now. If the scheduler holds
                            // tasks back, poppability can change by time
                            // alone — bounded re-poll; otherwise park
                            // until the next push/completion event.
                            let bound = if front.pending() > 0 {
                                Some(HOLDBACK_REPOLL)
                            } else {
                                None
                            };
                            if obs_enabled() {
                                let mut ev = park_events.lock().unwrap_or_else(|e| e.into_inner());
                                ev.push(RuntimeEvent {
                                    worker: wi,
                                    at: now_us(),
                                    kind: RuntimeEventKind::Park,
                                });
                            }
                            wake.wait(seen, bound);
                            if obs_enabled() {
                                let mut ev = park_events.lock().unwrap_or_else(|e| e.into_inner());
                                ev.push(RuntimeEvent {
                                    worker: wi,
                                    at: now_us(),
                                    kind: RuntimeEventKind::Wake,
                                });
                            }
                            continue;
                        };
                        obs.bump(Counter::Pops);

                        // Injected transient failure: the attempt dies
                        // before the kernel runs, so a failed attempt
                        // leaves no effect on the buffers (effectively-
                        // once semantics need exactly one *committed*
                        // execution; failed attempts must be pure).
                        if transients_on
                            && faults.transient_fails(
                                t.index(),
                                attempts[t.index()].load(Ordering::Relaxed),
                            )
                        {
                            let made = attempts[t.index()].fetch_add(1, Ordering::AcqRel) + 1;
                            if made >= retry.max_attempts {
                                let mut e = error.lock().unwrap_or_else(|p| p.into_inner());
                                if e.is_none() {
                                    *e = Some(RunError::RetryExhausted {
                                        task: t,
                                        attempts: made,
                                    });
                                }
                                drop(e);
                                abort.store(true, Ordering::Release);
                                wake.notify();
                                return;
                            }
                            obs.bump(Counter::TasksRetried);
                            if obs_enabled() {
                                let mut ev = park_events.lock().unwrap_or_else(|e| e.into_inner());
                                ev.push(RuntimeEvent {
                                    worker: wi,
                                    at: now_us(),
                                    kind: RuntimeEventKind::TaskRetried,
                                });
                            }
                            let backoff = retry.backoff_for(made);
                            if backoff > 0.0 {
                                std::thread::sleep(Duration::from_secs_f64(backoff * 1e-6));
                            }
                            {
                                let view = make_view(now_us());
                                front.push_retry(t, made, &view);
                            }
                            obs.bump(Counter::Pushes);
                            wake.notify();
                            continue;
                        }

                        // Estimate for the load table, then execute. A
                        // missing model entry falls back to an arch mean
                        // or the uncalibrated default instead of silently
                        // recording zero load.
                        let est = Estimator::new(graph, platform, model);
                        let delta_est = est.delta_or_mean(t, arch);
                        if !delta_est.is_exact() {
                            let tt = graph.task(t).ttype;
                            if warned.first(tt, arch) {
                                let kind = match delta_est {
                                    DeltaEstimate::ArchMean(_) => "arch-class mean",
                                    _ => "uncalibrated default",
                                };
                                eprintln!(
                                    "mp-runtime: no calibrated estimate for task type \
                                     '{}' on arch {:?}; using {} of {:.1} µs",
                                    graph.task_type(tt).name,
                                    arch,
                                    kind,
                                    delta_est.us(),
                                );
                            }
                        }
                        let t_start = now_us();
                        loads.set(w, t_start + delta_est.us());
                        {
                            let view = make_view(t_start);
                            front.feedback(&SchedEvent::TaskStarted { t, w }, &view);
                        }
                        // Resolve the kernel before touching buffers; a
                        // miss is a scheduler bug — abort the run with a
                        // typed error instead of panicking in a scoped
                        // thread.
                        let Some(kernel) = impls[t.index()].get(&class).cloned() else {
                            let mut e = error.lock().unwrap_or_else(|p| p.into_inner());
                            if e.is_none() {
                                *e = Some(RunError::MissingKernel { task: t, class });
                            }
                            drop(e);
                            abort.store(true, Ordering::Release);
                            wake.notify();
                            return;
                        };
                        // Lock buffers in access order (deps guarantee
                        // no cycles among concurrent tasks).
                        let task = graph.task(t);
                        let (bufs, modes): (Vec<BufRef<'_>>, Vec<AccessMode>) = task
                            .accesses
                            .iter()
                            .map(|a| {
                                let b = &buffers[a.data.index()];
                                let g = if a.mode.writes() {
                                    BufRef::W(b.write().expect("buffer poisoned"))
                                } else {
                                    BufRef::R(b.read().expect("buffer poisoned"))
                                };
                                (g, a.mode)
                            })
                            .unzip();
                        // Run the kernel behind a panic boundary: a
                        // panicking user kernel must not unwind through
                        // the scoped-thread team (which would poison the
                        // span mutex and re-panic the whole run) — it
                        // becomes a typed error with a partial trace.
                        // `ctx` lives outside the closure, so its buffer
                        // guards drop on the normal path and the `RwLock`s
                        // are never poisoned.
                        let mut ctx = TaskCtx::new(bufs, modes);
                        let panicked =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if faults.kernel_panics(t.index()) {
                                    panic!("injected kernel panic ({t:?})");
                                }
                                kernel(&mut ctx);
                            }))
                            .is_err();
                        drop(ctx);
                        if panicked {
                            let made = attempts[t.index()].fetch_add(1, Ordering::AcqRel) + 1;
                            if made >= retry.max_attempts {
                                let mut e = error.lock().unwrap_or_else(|p| p.into_inner());
                                if e.is_none() {
                                    *e = Some(RunError::KernelPanicked { task: t });
                                }
                                drop(e);
                                abort.store(true, Ordering::Release);
                                wake.notify();
                                return;
                            }
                            // Retryable panic: the worker survives; the
                            // task re-enters the scheduler after backoff.
                            obs.bump(Counter::TasksRetried);
                            if obs_enabled() {
                                let mut ev = park_events.lock().unwrap_or_else(|e| e.into_inner());
                                ev.push(RuntimeEvent {
                                    worker: wi,
                                    at: now_us(),
                                    kind: RuntimeEventKind::TaskRetried,
                                });
                            }
                            loads.set(w, now_us());
                            let backoff = retry.backoff_for(made);
                            if backoff > 0.0 {
                                std::thread::sleep(Duration::from_secs_f64(backoff * 1e-6));
                            }
                            {
                                let view = make_view(now_us());
                                front.push_retry(t, made, &view);
                            }
                            obs.bump(Counter::Pushes);
                            wake.notify();
                            continue;
                        }
                        // Injected slow-down/stall: sleeps *inside* the
                        // measured window, so history models observe the
                        // perturbed duration like a real hiccup.
                        if let Some(delay) = faults.kernel_delay(t.index()) {
                            std::thread::sleep(delay);
                        }
                        let t_end = now_us();
                        loads.set(w, t_end);
                        est.record(t, arch, t_end - t_start);
                        spans
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push(TaskSpan {
                                task: t,
                                ttype: task.ttype,
                                worker: w,
                                ready_at: f64::from_bits(
                                    ready_at[t.index()].load(Ordering::Relaxed),
                                ),
                                start: t_start,
                                end: t_end,
                            });
                        // Populate the result cache: clone the written
                        // buffers in dedup'd write order — the same
                        // order a future hit materializes them back.
                        if let Some(rc) = cache.as_deref() {
                            if let Some(meta) = graph.cache_meta(t) {
                                let mut written: Vec<DataId> = Vec::new();
                                let mut payload: Vec<Vec<f64>> = Vec::new();
                                let mut bytes = 0u64;
                                for d in task.writes() {
                                    if written.contains(&d) {
                                        continue;
                                    }
                                    written.push(d);
                                    let buf = buffers[d.index()].read().expect("buffer poisoned");
                                    bytes += (buf.len() * 8) as u64;
                                    payload.push(buf.clone());
                                }
                                rc.insert(meta, Some(payload), bytes);
                            }
                        }

                        // Release successors and report completion. Events
                        // and pushes reach the front-end in this thread's
                        // program order; the front-end sequences them
                        // globally (GlobalLock by its mutex, the sharded
                        // adapter by its event log).
                        {
                            let view = make_view(t_end);
                            front.feedback(
                                &SchedEvent::TaskFinished {
                                    t,
                                    w,
                                    elapsed_us: t_end - t_start,
                                },
                                &view,
                            );
                            ready.clear();
                            for &succ in graph.succs(t) {
                                if indeg[succ.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    ready_at[succ.index()]
                                        .store(t_end.to_bits(), Ordering::Relaxed);
                                    ready.push(succ);
                                }
                            }
                            release(&mut ready, Some(w), obs, &view);
                        }
                        done_flags[t.index()].store(true, Ordering::Release);
                        completed.fetch_add(1, Ordering::AcqRel);
                        my_done += 1;
                        // Injected wakeup latency: successors were already
                        // pushed, but parked workers learn about it late.
                        if let Some(delay) = faults.wake_delay() {
                            std::thread::sleep(delay);
                        }
                        // Every push/completion wakes parked workers.
                        wake.notify();
                    }
                });
            }
        });

        // Mid-run failures surface on the report next to the partial
        // trace — `Err` is reserved for submit-time NoUsableImpl above.
        let run_error = error.lock().unwrap_or_else(|p| p.into_inner()).take();
        let makespan_us = now_us();
        let mut trace = Trace::new(nw);
        trace.tasks = spans.into_inner().unwrap_or_else(|p| p.into_inner());
        // Wall-clock ties are real under coarse timers: break them by
        // task id so the span order (and every downstream export) is
        // deterministic.
        trace
            .tasks
            .sort_by(|a, b| a.end.total_cmp(&b.end).then(a.task.cmp(&b.task)));
        let mut counters = front.counters();
        seed_obs.drain_into(&mut counters);
        for c in &cells {
            c.drain_into(&mut counters);
        }
        if let Some(rc) = &cache {
            counters.cache_evictions += rc.evictions() - cache_evictions_at_start;
            let ps = rc.persist_stats();
            counters.cache_persist_writes += ps.writes - cache_persist_at_start.writes;
            counters.cache_loaded += ps.loaded - cache_persist_at_start.loaded;
            counters.cache_load_rejects += ps.load_rejects - cache_persist_at_start.load_rejects;
            counters.cache_compactions += ps.compactions - cache_persist_at_start.compactions;
        }
        let mut events = park_events.into_inner().unwrap_or_else(|p| p.into_inner());
        events.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.worker.cmp(&b.worker)));
        Ok(RunReport {
            makespan_us,
            trace,
            scheduler: sched_name,
            error: run_error,
            counters,
            events,
            rank: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_perfmodel::{TableModel, TimeFn};
    use mp_platform::presets::homogeneous;
    use mp_sched::FifoScheduler;

    fn model() -> Arc<dyn PerfModel> {
        Arc::new(
            TableModel::builder()
                .set("AXPY", ArchClass::Cpu, TimeFn::Const(10.0))
                .set("SUM", ArchClass::Cpu, TimeFn::Const(10.0))
                .build(),
        )
    }

    #[test]
    fn runs_a_chain_with_correct_results() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![1.0; 100], "x");
        // x *= 3, twice => x == 9 elementwise.
        for _ in 0..2 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v *= 3.0;
                        }
                    })
                    .flops(100.0),
            );
        }
        let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
        assert_eq!(report.trace.tasks.len(), 2);
        assert!(report.trace.validate().is_ok());
        assert!(rt.buffer(x).iter().all(|&v| v == 9.0));
    }

    #[test]
    fn parallel_fan_out_and_reduce() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let parts: Vec<DataId> = (0..8)
            .map(|i| rt.register(vec![0.0], &format!("p{i}")))
            .collect();
        let total = rt.register(vec![0.0], "total");
        for (i, &p) in parts.iter().enumerate() {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(p, AccessMode::Write)
                    .cpu(move |ctx| ctx.w(0)[0] = (i + 1) as f64)
                    .flops(1.0),
            );
        }
        // Reduction reads all parts.
        let mut tb = TaskBuilder::new("SUM").access(total, AccessMode::Write);
        for &p in &parts {
            tb = tb.access(p, AccessMode::Read);
        }
        rt.submit(
            tb.cpu(|ctx| {
                let mut s = 0.0;
                for i in 1..ctx.len() {
                    s += ctx.r(i)[0];
                }
                ctx.w(0)[0] = s;
            })
            .flops(8.0),
        );
        assert_eq!(rt.graph().task_count(), 9);
        let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
        assert_eq!(report.trace.tasks.len(), 9);
        assert!(report.trace.validate().is_ok());
        // The reduction must have executed last and computed 1+2+...+8.
        let last = report.trace.tasks.last().unwrap();
        assert_eq!(last.ttype.index(), 1, "SUM finishes last");
        assert_eq!(rt.buffer(total)[0], 36.0);
    }

    #[test]
    fn sharded_front_end_runs_the_same_dag() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let x = rt.register(vec![1.0; 64], "x");
        for _ in 0..4 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v *= 2.0;
                        }
                    })
                    .flops(64.0),
            );
        }
        let report = rt
            .run_sharded(4, &|| Box::new(FifoScheduler::new()))
            .expect("run failed");
        assert_eq!(report.trace.tasks.len(), 4);
        assert!(report.trace.validate().is_ok());
        assert!(report.scheduler.contains("sharded"));
        assert!(rt.buffer(x).iter().all(|&v| v == 16.0));
    }

    /// Regression: quiesce must not lose the final wakeup. The worker
    /// loop once read the wake epoch *after* its exit check; the last
    /// completion (increment + notify) could land in between, leaving a
    /// peer parked on the fresh epoch with no notify ever coming — a
    /// rare end-of-run hang. Many tiny runs with more workers than
    /// tasks maximize that window; the watchdog turns a recurrence into
    /// a test failure instead of a hung suite.
    #[test]
    fn quiesce_never_loses_the_final_wakeup() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..200u32 {
                let mut rt = Runtime::new(homogeneous(4), model());
                let x = rt.register(vec![0.0; 4], "x");
                for _ in 0..2 {
                    rt.submit(
                        TaskBuilder::new("AXPY")
                            .access(x, AccessMode::ReadWrite)
                            .cpu(|ctx| ctx.w(0)[0] += 1.0)
                            .flops(1.0),
                    );
                }
                let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
                assert_eq!(report.trace.tasks.len(), 2, "round {round}");
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(120))
            .expect("a worker parked through the final notify (lost-wakeup hang)");
    }

    #[test]
    fn panicking_kernel_is_contained_with_a_partial_trace() {
        // One worker, a ReadWrite chain: execution order is the submit
        // order, so the panic victim and the partial-trace size are
        // deterministic.
        let mut rt = Runtime::new(homogeneous(1), model());
        let x = rt.register(vec![0.0; 8], "x");
        for _ in 0..2 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        let bad = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|_| panic!("kernel bug"))
                .flops(1.0),
        );
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let report = rt
            .run(Box::new(FifoScheduler::new()))
            .expect("panic is contained, not returned as Err");
        assert_eq!(report.error, Some(RunError::KernelPanicked { task: bad }));
        assert!(!report.is_complete());
        assert_eq!(report.trace.tasks.len(), 2, "spans up to the panic survive");
        assert!(report.trace.validate().is_ok(), "partial trace stays valid");
        // The panic never unwound while a buffer guard dropped, so the
        // buffers stay readable afterwards.
        assert_eq!(rt.buffer(x)[0], 2.0);
    }

    /// Regression for the lock-poisoning cascade: a kernel panic is
    /// contained by the worker loop's `catch_unwind`, but the panic
    /// machinery can poison scheduler-side mutexes touched during the
    /// unwind/abort window. The sharded and relaxed front-ends used to
    /// `expect("... poisoned")` on those, turning one `KernelPanicked`
    /// into a panic storm across the surviving workers. Both must now
    /// finish the run and surface the typed error.
    #[test]
    fn panicking_kernel_under_sharded_front_end_reports_kernel_panicked() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let x = rt.register(vec![0.0; 8], "x");
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let bad = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|_| panic!("kernel bug"))
                .flops(1.0),
        );
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let report = rt
            .run_sharded(4, &|| Box::new(FifoScheduler::new()))
            .expect("panic is contained, not returned as Err");
        assert_eq!(report.error, Some(RunError::KernelPanicked { task: bad }));
        assert!(!report.is_complete());
        assert!(report.trace.validate().is_ok(), "partial trace stays valid");
    }

    #[test]
    fn panicking_kernel_under_relaxed_front_end_reports_kernel_panicked() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let x = rt.register(vec![0.0; 8], "x");
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let bad = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|_| panic!("kernel bug"))
                .flops(1.0),
        );
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let report = rt
            .run_relaxed(RelaxedConfig::default())
            .expect("panic is contained, not returned as Err");
        assert_eq!(report.error, Some(RunError::KernelPanicked { task: bad }));
        assert!(!report.is_complete());
        assert!(report.trace.validate().is_ok(), "partial trace stays valid");
    }

    #[test]
    fn fault_plan_panic_mode_reports_kernel_panicked() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 8], "x");
        for _ in 0..4 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        rt.set_faults(FaultPlan {
            seed: 5,
            panic_prob: 1.0,
            ..FaultPlan::default()
        });
        let report = rt.run(Box::new(FifoScheduler::new())).expect("contained");
        assert!(
            matches!(report.error, Some(RunError::KernelPanicked { .. })),
            "got {:?}",
            report.error
        );
        assert!(report.trace.tasks.is_empty(), "every kernel panics");
    }

    #[test]
    fn killed_worker_is_quarantined_and_the_run_completes() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 4], "x");
        for _ in 0..6 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        rt.set_faults(FaultPlan::default().kill_worker(0, 1));
        let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert_eq!(report.trace.tasks.len(), 6);
        assert!(report.trace.validate().is_ok());
        // Effectively-once: each of the six increments landed exactly once.
        assert_eq!(rt.buffer(x)[0], 6.0);
    }

    #[test]
    fn transient_failures_are_retried_to_completion() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 4], "x");
        for _ in 0..4 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        rt.set_faults(FaultPlan {
            seed: 7,
            transient_fail_prob: 0.5,
            ..FaultPlan::default()
        });
        rt.set_retry_policy(RetryPolicy::new(16, 0.0));
        let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
        assert!(report.is_complete(), "{:?}", report.error);
        // A failed attempt must leave no effect: exactly one committed
        // execution (and one span) per task despite the retries.
        assert_eq!(report.trace.tasks.len(), 4);
        assert_eq!(rt.buffer(x)[0], 4.0);
    }

    #[test]
    fn exhausted_retries_surface_typed() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 4], "x");
        let t = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        rt.set_faults(FaultPlan {
            seed: 3,
            transient_fail_prob: 1.0,
            ..FaultPlan::default()
        });
        rt.set_retry_policy(RetryPolicy::new(3, 0.0));
        let report = rt.run(Box::new(FifoScheduler::new())).expect("contained");
        assert_eq!(
            report.error,
            Some(RunError::RetryExhausted {
                task: t,
                attempts: 3
            })
        );
        assert!(report.trace.tasks.is_empty());
        assert_eq!(rt.buffer(x)[0], 0.0, "failed attempts have no effect");
    }

    #[test]
    fn killing_every_worker_is_a_typed_no_capable_worker() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 4], "x");
        for _ in 0..2 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        rt.set_faults(FaultPlan::default().kill_worker(0, 0).kill_worker(1, 0));
        let report = rt.run(Box::new(FifoScheduler::new())).expect("contained");
        assert!(
            matches!(report.error, Some(RunError::NoCapableWorker { .. })),
            "got {:?}",
            report.error
        );
        assert!(report.trace.tasks.is_empty(), "both workers died at start");
    }

    /// A pipeline with real data flow: init writes, two scale passes,
    /// a reduction. Registering `input` as the seed value exercises the
    /// content-addressed input versioning.
    fn cached_pipeline(input: f64) -> (Runtime, DataId, DataId) {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![input; 64], "x");
        let sum = rt.register(vec![0.0], "sum");
        for _ in 0..2 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v *= 3.0;
                        }
                    })
                    .flops(64.0),
            );
        }
        rt.submit(
            TaskBuilder::new("SUM")
                .access(sum, AccessMode::Write)
                .access(x, AccessMode::Read)
                .cpu(|ctx| ctx.w(0)[0] = ctx.r(1).iter().sum())
                .flops(64.0),
        );
        (rt, x, sum)
    }

    #[test]
    fn warm_run_hits_everything_with_bit_identical_buffers() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, sum) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        let report = cold.run(Box::new(FifoScheduler::new())).expect("cold run");
        assert!(report.is_complete());
        assert_eq!(report.trace.tasks.len(), 3, "cold run executes everything");
        assert_eq!(cold.buffer(sum)[0], 9.0 * 64.0);
        let cold_digest = cold.buffers_digest();
        assert_eq!(cache.len(), 3);

        // Same program, same inputs, fresh runtime: every task hits.
        let (mut warm, x, sum) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let report = warm.run(Box::new(FifoScheduler::new())).expect("warm run");
        assert!(report.is_complete(), "{:?}", report.error);
        assert!(
            report.trace.tasks.is_empty(),
            "a fully-warm run executes nothing, got {} spans",
            report.trace.tasks.len()
        );
        assert!(warm.buffer(x).iter().all(|&v| v == 9.0));
        assert_eq!(warm.buffer(sum)[0], 9.0 * 64.0);
        assert_eq!(
            warm.buffers_digest(),
            cold_digest,
            "materialized outputs must be bit-identical to recomputed ones"
        );
    }

    #[test]
    fn changed_input_re_executes_and_never_serves_stale_data() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, _) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        cold.run(Box::new(FifoScheduler::new())).expect("cold run");

        // Different input contents: the registration content-hash
        // re-keys the whole read cone, so nothing may hit.
        let (mut edited, x, sum) = cached_pipeline(2.0);
        edited.set_cache(Arc::clone(&cache));
        let report = edited.run(Box::new(FifoScheduler::new())).expect("run");
        assert!(report.is_complete());
        assert_eq!(report.trace.tasks.len(), 3, "whole cone re-executes");
        assert!(edited.buffer(x).iter().all(|&v| v == 18.0));
        assert_eq!(edited.buffer(sum)[0], 18.0 * 64.0);
    }

    #[test]
    fn poisoned_entry_recomputes_instead_of_serving_garbage() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, _) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        cold.run(Box::new(FifoScheduler::new())).expect("cold run");
        let k0 = cold
            .graph()
            .cache_meta(TaskId::from_index(0))
            .expect("meta")
            .key;
        assert!(cache.poison(k0), "entry for t0 exists");

        let (mut warm, x, sum) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let report = warm.run(Box::new(FifoScheduler::new())).expect("warm run");
        assert!(report.is_complete());
        // The poisoned entry is detected (fingerprint mismatch), t0
        // re-executes, and its downstream tasks still hit.
        assert_eq!(report.trace.tasks.len(), 1, "only t0 re-executes");
        assert_eq!(report.trace.tasks[0].task, TaskId::from_index(0));
        assert!(warm.buffer(x).iter().all(|&v| v == 9.0));
        assert_eq!(warm.buffer(sum)[0], 9.0 * 64.0);
    }

    /// Identical ready siblings share one cache key. A cold run must
    /// execute every one of them: the release loop probes all newly
    /// ready tasks before pushing any, so no sibling can run and
    /// populate the entry while a twin still waits to be probed.
    #[test]
    fn identical_ready_siblings_all_execute_on_a_cold_run() {
        const WIDTH: usize = 32;
        let mut rt = Runtime::new(homogeneous(4), model());
        rt.set_cache(Arc::new(ResultCache::new()));
        let root = rt.register(vec![0.0], "root");
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(root, AccessMode::Write)
                .cpu(|ctx| ctx.w(0)[0] = 7.0)
                .flops(1.0),
        );
        for _ in 0..WIDTH {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(root, AccessMode::Read)
                    .cpu(|_| {})
                    .flops(1.0),
            );
        }
        let report = rt.run(Box::new(FifoScheduler::new())).expect("cold run");
        assert!(report.is_complete());
        assert_eq!(report.trace.tasks.len(), 1 + WIDTH);
    }

    #[test]
    fn warm_run_works_under_the_sharded_front_end() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, _) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        cold.run_sharded(2, &|| Box::new(FifoScheduler::new()))
            .expect("cold run");
        let digest = cold.buffers_digest();

        let (mut warm, _, _) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let report = warm
            .run_sharded(2, &|| Box::new(FifoScheduler::new()))
            .expect("warm run");
        assert!(report.is_complete());
        assert!(report.trace.tasks.is_empty());
        assert_eq!(warm.buffers_digest(), digest);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn cache_counters_balance_and_hit_tasks_skip_the_scheduler() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, _) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        let cold_report = cold.run(Box::new(FifoScheduler::new())).expect("cold run");
        assert_eq!(cold_report.counters.cache_hits, 0);
        assert_eq!(cold_report.counters.cache_misses, 3);

        let (mut warm, _, _) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let warm_report = warm.run(Box::new(FifoScheduler::new())).expect("warm run");
        assert_eq!(warm_report.counters.cache_hits, 3);
        assert_eq!(warm_report.counters.cache_misses, 0);
        assert!(warm_report.counters.bytes_materialized > 0);
        // Hit tasks bypass the scheduler front entirely — no pushes, no
        // pops, and therefore no estimator consults for them.
        assert_eq!(warm_report.counters.pushes, 0);
        assert_eq!(warm_report.counters.pops, 0);
        assert!(warm_report
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::CacheHit));
    }

    #[test]
    fn unusable_task_is_a_typed_error_not_a_hang() {
        // CPU-only platform, GPU-only task: no worker can ever run it.
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0], "x");
        let t = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .gpu(|_| {})
                .flops(1.0),
        );
        match rt.run(Box::new(FifoScheduler::new())) {
            Err(RunError::NoUsableImpl {
                task,
                platform_classes,
                ..
            }) => {
                assert_eq!(task, t);
                assert_eq!(platform_classes, vec![ArchClass::Cpu]);
            }
            other => panic!("expected NoUsableImpl, got {other:?}"),
        }
    }
}
