//! The threaded execution engine.
//!
//! One worker loop serves every submission mode. A batch run
//! ([`Runtime::run_concurrent`]) is a stream whose driver closes at
//! once: every submitted task is pre-admitted tenant-0 work. Streaming
//! ([`Runtime::serve_concurrent`]) is the same core plus an admission
//! driver on the calling thread (see [`crate::serve`]), so both modes
//! share fault injection, retries, the result cache and the counters.
//!
//! Workers drive a [`ConcurrentScheduler`] front-end directly — the
//! [`GlobalLock`] baseline ([`Runtime::run`]), the sharded multi-queue
//! or the relaxed multi-queue. Graph-coupled state lives behind one
//! `RwLock`: a worker takes two read guards per executed task (pop +
//! estimate + start, then completion + release), the driver commits
//! each admitted submission under the write guard, and kernels run
//! outside both. Idle workers park on an eventcount-style
//! `WakeEpoch`: every push and every completion bumps an epoch and
//! notifies, and a worker that read the epoch *before* its failed pop
//! cannot miss a wakeup that raced with it. The only timed sleep left is
//! a short bounded re-poll when the scheduler holds tasks back
//! (`pending() > 0` but `pop` returned `None`, e.g. MultiPrio's pop
//! condition waiting out a busy best-worker).

use std::collections::HashMap;
use std::mem;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use mp_cache::{CacheEntry, Lookup, PersistStats, ResultCache};
use mp_dag::access::AccessMode;
use mp_dag::hash;
use mp_dag::ids::{DataId, TaskId};
use mp_dag::stf::StfBuilder;
use mp_dag::task::{Access, Task};
use mp_dag::TaskGraph;
use mp_perfmodel::{DeltaEstimate, Estimator, FallbackWarnings, PerfModel};
use mp_platform::types::{ArchClass, ArchId, MemNodeId, Platform, WorkerId};
use mp_sched::api::{DataLocator, LoadInfo, SchedEvent, SchedView, Scheduler};
use mp_sched::concurrent::{ConcurrentScheduler, GlobalLock};
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

    /// Whether the task implements the CPU and the GPU class.
    pub(crate) fn impl_classes(&self) -> (bool, bool) {
        (
            self.impls.contains_key(&ArchClass::Cpu),
            self.impls.contains_key(&ArchClass::Gpu),
        )
    }

    /// The trace label, defaulting to the kernel type.
    pub(crate) fn label_or_type(&self) -> String {
        if self.label.is_empty() {
            self.ttype.clone()
        } else {
            self.label.clone()
        }
    }

    /// Why this task, submitted as `task`, could never run: its type was
    /// first registered (`registered`, `None` for a new type) with other
    /// implementation classes, or it implements none of `classes`.
    pub(crate) fn unusable(
        &self,
        task: TaskId,
        classes: &[ArchClass],
        registered: Option<(bool, bool)>,
    ) -> Option<RunError> {
        if registered.is_some_and(|r| r != self.impl_classes()) {
            return Some(RunError::ImplMismatch {
                task,
                ttype: self.ttype.clone(),
            });
        }
        (!classes.iter().any(|c| self.impls.contains_key(c))).then(|| RunError::NoUsableImpl {
            task,
            label: self.label_or_type(),
            platform_classes: classes.to_vec(),
        })
    }
}

/// Fold a buffer's length and f64 bit patterns into FNV-1a state `h`.
fn fnv_buffer(h: u64, buf: &[f64]) -> u64 {
    let h = (h ^ buf.len() as u64).wrapping_mul(hash::FNV_PRIME);
    buf.iter()
        .fold(h, |h, v| (h ^ v.to_bits()).wrapping_mul(hash::FNV_PRIME))
}

/// Unified-memory locality: every handle is resident everywhere.
struct UnifiedMemory;

impl DataLocator for UnifiedMemory {
    fn is_on(&self, _d: DataId, _m: MemNodeId) -> bool {
        true
    }

    fn holders(&self, _d: DataId) -> Vec<MemNodeId> {
        vec![MemNodeId(0)]
    }
}

/// Lock-free busy-until table (µs since run start, f64 bits).
struct AtomicLoads(Vec<AtomicU64>);

impl AtomicLoads {
    fn new(n: usize) -> Self {
        Self((0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect())
    }

    fn set(&self, w: WorkerId, v: f64) {
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
struct WakeEpoch {
    epoch: AtomicU64,
    /// Workers inside [`Self::wait`]; lets [`Self::notify`] skip the
    /// mutex on the (hot) nobody-parked path.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl WakeEpoch {
    fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn current(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn notify(&self) {
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
    fn wait(&self, seen: u64, bound: Option<Duration>) {
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
const HOLDBACK_REPOLL: Duration = Duration::from_micros(200);

/// Typed failure of [`Runtime::run`] and [`Runtime::serve`].
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
    /// A task re-registered its task type with other implementation
    /// classes than the type's first registration. Detected at submit
    /// time (or before a stream starts), reported when the run starts.
    ImplMismatch {
        /// The offending task.
        task: TaskId,
        /// Its task type.
        ttype: String,
    },
    /// A stream was served with an empty tenant list.
    NoTenants,
    /// A streamed submission names a tenant the config does not have.
    UnknownTenant {
        /// Index of the submission in the stream.
        submission: usize,
        /// The tenant it names.
        tenant: usize,
        /// Number of tenants in the config.
        tenants: usize,
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
            RunError::ImplMismatch { task, ttype } => write!(
                f,
                "task {task:?} re-registers type '{ttype}' with different implementations"
            ),
            RunError::NoTenants => write!(f, "serving needs at least one tenant"),
            RunError::UnknownTenant {
                submission,
                tenant,
                tenants,
            } => write!(
                f,
                "submission {submission} names tenant {tenant} of {tenants}"
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
    /// submit-time errors make [`Runtime::run`] return `Err`.
    pub error: Option<RunError>,
    /// Scheduler/engine observability counters, merged at quiesce.
    /// All-zero unless built with `--features obs`.
    pub counters: CounterSnapshot,
    /// Worker park/wake timeline. Empty unless built with
    /// `--features obs`.
    pub events: Vec<RuntimeEvent>,
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
    /// Architecture classes with at least one worker on the platform.
    pub(crate) classes: Vec<ArchClass>,
    pub(crate) model: Arc<dyn PerfModel>,
    pub(crate) stf: StfBuilder,
    pub(crate) buffers: Vec<RwLock<Vec<f64>>>,
    pub(crate) impls: Vec<HashMap<ArchClass, KernelFn>>,
    /// First unusable task found at submit time; reported by
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
        let mut classes = Vec::new();
        for a in platform.archs() {
            if !classes.contains(&a.class) {
                classes.push(a.class);
            }
        }
        Self {
            platform,
            classes,
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
        self.buffers.iter().fold(hash::FNV_OFFSET, |h, b| {
            fnv_buffer(h, &b.read().expect("buffer poisoned"))
        })
    }

    /// Apply a [`FaultPlan`] to every subsequent run or stream:
    /// deterministic slow and stalled kernels, skewed model estimates,
    /// delayed wakeups — plus worker kills after a fixed completion
    /// count and per-attempt transient execution failures. Used by the
    /// validation harness to prove effectively-once execution and
    /// termination under adversarial timing; timing faults have no
    /// effect on results.
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
        let h = fnv_buffer(hash::FNV_OFFSET, &data);
        self.stf.set_data_version(id, hash::mix64(h));
        self.buffers.push(RwLock::new(data));
        debug_assert_eq!(id.index() + 1, self.buffers.len());
        id
    }

    /// Submit a task; dependencies on earlier submissions are inferred
    /// from the declared accesses (STF). A task no worker could ever
    /// execute (no implementation for any platform class), or one that
    /// re-registers its type with other implementation classes, makes
    /// the eventual [`Self::run`] return [`RunError::NoUsableImpl`] or
    /// [`RunError::ImplMismatch`] instead of deadlocking or panicking.
    pub fn submit(&mut self, tb: TaskBuilder) -> TaskId {
        let graph = self.stf.graph_mut();
        let known = graph.type_id(&tb.ttype);
        let registered = known.map(|id| {
            let ty = graph.task_type(id);
            (ty.cpu_impl, ty.gpu_impl)
        });
        let err = tb.unusable(
            TaskId::from_index(graph.task_count()),
            &self.classes,
            registered,
        );
        // A mismatched re-registration keeps the type's first
        // registration: the run is refused anyway.
        let ttype = known.unwrap_or_else(|| {
            let (cpu, gpu) = tb.impl_classes();
            graph.register_type(&tb.ttype, cpu, gpu)
        });
        let label = tb.label_or_type();
        let t = self
            .stf
            .submit_prio(ttype, tb.accesses, tb.flops, tb.priority, label);
        if self.submit_error.is_none() {
            self.submit_error = err;
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

    /// Execute every submitted task by driving `front` from one thread
    /// per platform worker: any [`ConcurrentScheduler`] — the global
    /// lock, the sharded multi-queue (`ShardedAdapter`) or the relaxed
    /// multi-queue (`RelaxedMultiQueue`, whose rank-error statistics
    /// `rank_stats()` reads after the run).
    pub fn run_concurrent(
        &mut self,
        front: &dyn ConcurrentScheduler,
    ) -> Result<RunReport, RunError> {
        if let Some(err) = self.submit_error.clone() {
            return Err(err);
        }
        Ok(self.execute(front, 1, |_, _| ()).0.report)
    }

    /// Execute on one thread per platform worker while `driver` runs on
    /// the calling thread. Every task already submitted is pre-admitted
    /// tenant-0 work; `driver` may admit more through [`Core::commit`]
    /// until it returns, which closes the stream. Workers exit once the
    /// stream is closed and every admitted task completed, or on abort.
    /// The graph and kernel table move into the core for the run and
    /// back out afterwards, so `graph()`/`buffer()` keep working and a
    /// later run re-executes everything submitted or streamed so far.
    pub(crate) fn execute<R>(
        &mut self,
        front: &dyn ConcurrentScheduler,
        tenants: usize,
        driver: impl FnOnce(&Core<'_>, &ObsCell) -> R,
    ) -> (Outcome, R) {
        let nw = self.platform.worker_count();
        let faults = self.faults.unwrap_or_default();
        // Estimate skew wraps the model; measured feedback still reaches
        // the real model underneath.
        let skewed = (faults.estimate_skew > 0.0)
            .then(|| SkewedModel::new(Arc::clone(&self.model), faults.estimate_skew, faults.seed));
        let cache = self.cache.as_deref();
        // The shared cache outlives runs: this run's evictions and
        // persist traffic are deltas over its lifetime counters.
        let evictions_at_start = cache.map_or(0, ResultCache::evictions);
        let persist_at_start = cache.map(ResultCache::persist_stats).unwrap_or_default();
        let pre = self.stf.graph().task_count();
        let ledger = || (0..tenants).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let core = Core {
            shared: RwLock::new(Shared {
                stf: mem::replace(&mut self.stf, StfBuilder::new()),
                impls: mem::take(&mut self.impls),
                indeg: Vec::with_capacity(pre),
                done: Vec::with_capacity(pre),
                ready_at: Vec::with_capacity(pre),
                attempts: Vec::with_capacity(pre),
                tenant_of: Vec::with_capacity(pre),
            }),
            platform: &self.platform,
            model: match &skewed {
                Some(s) => s,
                None => &*self.model,
            },
            buffers: &self.buffers,
            front,
            cache,
            warned: &self.warned,
            faults,
            retry: self.retry,
            start: Instant::now(),
            loads: AtomicLoads::new(nw),
            wake: WakeEpoch::new(),
            closed: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            admitted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            alive: (0..nw).map(|_| AtomicBool::new(true)).collect(),
            classes: (0..nw)
                .map(|wi| {
                    let a = self.platform.worker(WorkerId::from_index(wi)).arch;
                    self.platform.arch(a).class
                })
                .collect(),
            tenant_in_flight: (0..tenants).map(|_| AtomicUsize::new(0)).collect(),
            tenant_admitted: ledger(),
            tenant_completed: ledger(),
            tenant_cache_hits: ledger(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        };
        // Per-worker observability cells (no-ops unless `--features
        // obs`), plus the calling thread's last.
        let cells: Vec<ObsCell> = (0..=nw).map(|_| ObsCell::new()).collect();
        core.commit(&mut core.write(), 0..pre, 0, 0.0, &cells[nw]);
        let result = std::thread::scope(|scope| {
            for (wi, obs) in cells[..nw].iter().enumerate() {
                let core = &core;
                scope.spawn(move || {
                    let _exit = ExitGuard {
                        core,
                        driver: false,
                    };
                    core.worker(wi, obs);
                });
            }
            let _exit = ExitGuard {
                core: &core,
                driver: true,
            };
            driver(&core, &cells[nw])
        });
        let (shared, out) = core.into_outcome(&cells, evictions_at_start, persist_at_start);
        self.stf = shared.stf;
        self.impls = shared.impls;
        (out, result)
    }
}

/// Graph-coupled state of one execution. The calling thread grows it
/// under the write guard (the initial commit, then each admitted
/// submission); workers read it under read guards. Per-task vectors are
/// indexed by task index and append-only; the atomics inside them are
/// shared-mutable under read guards (concurrent completions), the
/// `Vec`s themselves only change under the write guard.
pub(crate) struct Shared {
    pub(crate) stf: StfBuilder,
    pub(crate) impls: Vec<HashMap<ArchClass, KernelFn>>,
    indeg: Vec<AtomicUsize>,
    done: Vec<AtomicBool>,
    ready_at: Vec<AtomicU64>,
    attempts: Vec<AtomicU32>,
    tenant_of: Vec<u32>,
}

/// What one execution produced: a batch run's report, plus the
/// admission and tenant tallies a stream reports.
pub(crate) struct Outcome {
    pub(crate) report: RunReport,
    pub(crate) tasks_admitted: usize,
    pub(crate) tasks_completed: usize,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) tenant_admitted: Vec<u64>,
    pub(crate) tenant_completed: Vec<u64>,
    pub(crate) tenant_cache_hits: Vec<u64>,
}

/// One execution: the shared graph state plus everything the workers
/// and the driver coordinate through.
pub(crate) struct Core<'r> {
    shared: RwLock<Shared>,
    platform: &'r Platform,
    model: &'r dyn PerfModel,
    buffers: &'r [RwLock<Vec<f64>>],
    front: &'r dyn ConcurrentScheduler,
    cache: Option<&'r ResultCache>,
    warned: &'r FallbackWarnings,
    faults: FaultPlan,
    retry: RetryPolicy,
    start: Instant,
    loads: AtomicLoads,
    wake: WakeEpoch,
    /// No further submission will be admitted: set when the driver
    /// returns (at once for a batch run) or unwinds.
    closed: AtomicBool,
    abort: AtomicBool,
    error: Mutex<Option<RunError>>,
    admitted: AtomicUsize,
    completed: AtomicUsize,
    /// Worker liveness under kill faults (a worker dies between tasks).
    alive: Vec<AtomicBool>,
    classes: Vec<ArchClass>,
    pub(crate) tenant_in_flight: Vec<AtomicUsize>,
    tenant_admitted: Vec<AtomicU64>,
    pub(crate) tenant_completed: Vec<AtomicU64>,
    tenant_cache_hits: Vec<AtomicU64>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    spans: Mutex<Vec<TaskSpan>>,
    /// Park/wake, cache and fault timeline; only locked when obs is
    /// compiled in.
    events: Mutex<Vec<RuntimeEvent>>,
}

/// Wakes every parked worker when a worker or the driver exits. The
/// driver's exit closes the stream, and an unwinding exit aborts the
/// run: without this a panic on either side leaves the other threads
/// parked forever and `thread::scope` never returns.
struct ExitGuard<'c, 'r> {
    core: &'c Core<'r>,
    driver: bool,
}

impl Drop for ExitGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.abort.store(true, Ordering::Release);
        }
        if self.driver {
            self.core.closed.store(true, Ordering::Release);
        }
        self.core.wake.notify();
    }
}

/// The handles `task` writes, deduplicated in first-write order: the
/// order a cache payload stores them and a hit materializes them back.
fn distinct_writes(task: &Task) -> Vec<DataId> {
    let mut out = Vec::new();
    for d in task.writes() {
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

impl Core<'_> {
    pub(crate) fn now_us(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    fn read(&self) -> RwLockReadGuard<'_, Shared> {
        self.shared.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Shared> {
        self.shared.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Admitted tasks not completed yet. Workers only complete under
    /// read guards, so the count is exact under the write guard.
    pub(crate) fn in_flight(&self) -> usize {
        self.admitted.load(Ordering::Acquire) - self.completed.load(Ordering::Acquire)
    }

    pub(crate) fn notify(&self) {
        self.wake.notify();
    }

    fn view<'a>(&'a self, g: &'a Shared, now: f64) -> SchedView<'a> {
        SchedView {
            est: Estimator::new(g.stf.graph(), self.platform, self.model),
            loc: &UnifiedMemory,
            load: &self.loads,
            now,
        }
    }

    /// Record the run's first error and abort it.
    fn fail(&self, err: RunError) {
        let mut e = self.error.lock().unwrap_or_else(PoisonError::into_inner);
        if e.is_none() {
            *e = Some(err);
        }
        drop(e);
        self.abort.store(true, Ordering::Release);
        self.wake.notify();
    }

    fn event(&self, worker: usize, kind: RuntimeEventKind) {
        if obs_enabled() {
            let at = self.now_us();
            let mut ev = self.events.lock().unwrap_or_else(PoisonError::into_inner);
            ev.push(RuntimeEvent { worker, at, kind });
        }
    }

    /// Admit tasks `ids` of `g`'s graph (their kernels already in
    /// `g.impls`) as `tenant`'s work, ready from `now`, and release the
    /// sources among them. A batch run commits everything at once before
    /// any worker starts; the serving driver commits each admitted
    /// submission under the write guard, so the indegree snapshot
    /// (unfinished predecessors only) can never race a completion.
    pub(crate) fn commit(
        &self,
        g: &mut Shared,
        ids: Range<usize>,
        tenant: usize,
        now: f64,
        obs: &ObsCell,
    ) {
        for i in ids.clone() {
            let preds = g.stf.graph().preds(TaskId::from_index(i));
            let open = preds
                .iter()
                .filter(|p| !g.done[p.index()].load(Ordering::Acquire))
                .count();
            g.indeg.push(AtomicUsize::new(open));
            g.done.push(AtomicBool::new(false));
            g.ready_at.push(AtomicU64::new(now.to_bits()));
            g.attempts.push(AtomicU32::new(0));
            g.tenant_of.push(tenant as u32);
        }
        let n = ids.len();
        self.admitted.fetch_add(n, Ordering::AcqRel);
        self.tenant_in_flight[tenant].fetch_add(n, Ordering::AcqRel);
        self.tenant_admitted[tenant].fetch_add(n as u64, Ordering::AcqRel);
        // A worker that died before this commit may have left nobody
        // able to run one of these tasks.
        if self.faults.kills_any() {
            if let Some(task) = self.doomed(g, ids.clone()) {
                self.fail(RunError::NoCapableWorker { task });
                return;
            }
        }
        // Snapshot the sources before probing: a cache hit completes in
        // place and can drive successors' indegrees to zero, and those
        // are released inside `release`.
        let mut sources: Vec<TaskId> = ids
            .map(TaskId::from_index)
            .filter(|t| g.indeg[t.index()].load(Ordering::Relaxed) == 0)
            .collect();
        self.release(g, &mut sources, None, obs, &self.view(g, now));
    }

    /// The first unfinished task in `range` that no surviving worker can
    /// execute.
    fn doomed(&self, g: &Shared, range: Range<usize>) -> Option<TaskId> {
        range
            .filter(|&i| !g.done[i].load(Ordering::Acquire))
            .find(|&i| {
                !self
                    .alive
                    .iter()
                    .zip(&self.classes)
                    .any(|(a, c)| a.load(Ordering::SeqCst) && g.impls[i].contains_key(c))
            })
            .map(TaskId::from_index)
    }

    /// Publish the completion of `t` at `now` — done flag, tenant
    /// ledger, completion count — and hand every successor whose
    /// indegree reaches zero to `on_ready`.
    fn finish(&self, g: &Shared, t: TaskId, now: f64, mut on_ready: impl FnMut(TaskId)) {
        g.done[t.index()].store(true, Ordering::Release);
        for &succ in g.stf.graph().succs(t) {
            if g.indeg[succ.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                g.ready_at[succ.index()].store(now.to_bits(), Ordering::Relaxed);
                on_ready(succ);
            }
        }
        let ti = g.tenant_of[t.index()] as usize;
        self.tenant_in_flight[ti].fetch_sub(1, Ordering::AcqRel);
        self.tenant_completed[ti].fetch_add(1, Ordering::AcqRel);
        self.completed.fetch_add(1, Ordering::AcqRel);
    }

    /// Release newly-ready tasks (DESIGN.md §12): `ready` holds tasks
    /// whose indegree just reached zero; the misses among them are
    /// pushed. With a result cache installed each one is probed first,
    /// and a verified payload-carrying hit completes right here: the
    /// memoized buffers are copied back under the write locks, the
    /// completion is published, and the successors it releases are
    /// probed in turn — the task never reaches the scheduler front, the
    /// estimator, or a kernel. Every newly-ready task, cascade
    /// included, is probed before any miss is pushed: identical ready
    /// siblings share one cache key, and a miss pushed before its twin
    /// was probed could run on another worker and populate the entry
    /// first, turning the twin into a hit. Callers hold a `shared`
    /// guard, so the graph cannot grow under the cascade, and a
    /// released task's WAR/RAW edges guarantee no live reader or writer
    /// of its written buffers. A task is probed exactly once (by its
    /// unique releaser), so on a cached run `hits + misses == tasks`.
    /// On return `ready` holds exactly the pushed tasks.
    fn release(
        &self,
        g: &Shared,
        ready: &mut Vec<TaskId>,
        via: Option<WorkerId>,
        obs: &ObsCell,
        view: &SchedView<'_>,
    ) {
        if let Some(rc) = self.cache {
            let lane = via.map_or(self.alive.len(), WorkerId::index);
            let probe = |t: TaskId| -> Option<Arc<CacheEntry>> {
                match g.stf.graph().cache_meta(t).map(|m| rc.lookup(m, true)) {
                    Some(Lookup::Hit(e)) => return Some(e),
                    Some(Lookup::Invalidated) => {
                        obs.bump(Counter::CacheInvalidations);
                        self.event(lane, RuntimeEventKind::CacheInvalidated);
                    }
                    _ => {}
                }
                obs.bump(Counter::CacheMisses);
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
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
                let payload = entry
                    .payload
                    .as_ref()
                    .expect("payload-less entry served to the runtime");
                for (d, src) in distinct_writes(g.stf.graph().task(t))
                    .into_iter()
                    .zip(payload)
                {
                    let mut buf = self.buffers[d.index()].write().expect("buffer poisoned");
                    buf.clear();
                    buf.extend_from_slice(src);
                }
                obs.bump(Counter::CacheHits);
                obs.add(Counter::BytesMaterialized, entry.bytes);
                self.event(lane, RuntimeEventKind::CacheHit);
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.tenant_cache_hits[g.tenant_of[t.index()] as usize]
                    .fetch_add(1, Ordering::Relaxed);
                self.finish(g, t, self.now_us(), |succ| match probe(succ) {
                    Some(e) => hits.push((succ, e)),
                    None => ready.push(succ),
                });
            }
            if any_hit {
                self.wake.notify();
            }
        }
        for &t in ready.iter() {
            self.front.push(t, via, view);
            obs.bump(Counter::Pushes);
        }
        let _ = self.front.drain_prefetches(); // unified memory: no-op
    }

    /// Populate the result cache with `t`'s written buffers, before its
    /// successors are released and can re-write them.
    fn populate(&self, g: &Shared, t: TaskId) {
        let graph = g.stf.graph();
        let Some((rc, meta)) = self.cache.zip(graph.cache_meta(t)) else {
            return;
        };
        let mut bytes = 0u64;
        let payload = distinct_writes(graph.task(t))
            .into_iter()
            .map(|d| {
                let buf = self.buffers[d.index()].read().expect("buffer poisoned");
                bytes += (buf.len() * 8) as u64;
                buf.clone()
            })
            .collect();
        rc.insert(meta, Some(payload), bytes);
    }

    /// Account a failed attempt of `t` on worker `wi`. Returns true after
    /// re-pushing it with the policy's backoff; once its attempts are
    /// exhausted, fails the run with `exhausted(attempts)` and returns
    /// false.
    fn retry_or_fail(
        &self,
        t: TaskId,
        wi: usize,
        obs: &ObsCell,
        exhausted: impl FnOnce(u32) -> RunError,
    ) -> bool {
        let made = self.read().attempts[t.index()].fetch_add(1, Ordering::AcqRel) + 1;
        if made >= self.retry.max_attempts {
            self.fail(exhausted(made));
            return false;
        }
        obs.bump(Counter::TasksRetried);
        self.event(wi, RuntimeEventKind::TaskRetried);
        let backoff = self.retry.backoff_for(made);
        if backoff > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(backoff * 1e-6));
        }
        {
            let g = self.read();
            self.front
                .push_retry(t, made, &self.view(&g, self.now_us()));
        }
        obs.bump(Counter::Pushes);
        self.wake.notify();
        true
    }

    /// Kill-fault death of worker `w`, published between tasks — never
    /// mid-kernel — so nothing is lost in flight; the front-end
    /// re-routes work queued for it.
    fn die(&self, w: WorkerId, obs: &ObsCell) {
        self.alive[w.index()].store(false, Ordering::SeqCst);
        obs.bump(Counter::WorkerFailures);
        self.event(w.index(), RuntimeEventKind::WorkerFailed);
        let g = self.read();
        self.front.worker_disabled(w, &self.view(&g, self.now_us()));
        // The stream can only drain if every admitted task keeps a
        // capable surviving worker — abort typed instead of hanging.
        if let Some(task) = self.doomed(&g, 0..g.done.len()) {
            drop(g);
            self.fail(RunError::NoCapableWorker { task });
        }
    }

    /// A missing model entry falls back to an arch mean or the
    /// uncalibrated default instead of silently recording zero load;
    /// say so once per (task type, arch) per runtime.
    fn warn_fallback(&self, graph: &TaskGraph, t: TaskId, arch: ArchId, delta: DeltaEstimate) {
        let tt = graph.task(t).ttype;
        if self.warned.first(tt, arch) {
            let kind = match delta {
                DeltaEstimate::ArchMean(_) => "arch-class mean",
                _ => "uncalibrated default",
            };
            eprintln!(
                "mp-runtime: no calibrated estimate for task type \
                 '{}' on arch {:?}; using {} of {:.1} µs",
                graph.task_type(tt).name,
                arch,
                kind,
                delta.us(),
            );
        }
    }

    /// One worker thread: pop, execute and complete tasks until the
    /// stream is closed and drained, the run aborts, or a kill fault
    /// takes the worker down.
    fn worker(&self, wi: usize, obs: &ObsCell) {
        let w = WorkerId::from_index(wi);
        let arch = self.platform.worker(w).arch;
        let class = self.classes[wi];
        let kill_after = self.faults.kill_after(wi);
        // Tasks this worker committed; read only by its own kill check.
        let mut my_done = 0u32;
        // Successors released by one completion, and the accesses of the
        // running task (both reused).
        let mut ready: Vec<TaskId> = Vec::new();
        let mut accesses: Vec<Access> = Vec::new();
        loop {
            // Epoch BEFORE the exit check and the pop attempt: any
            // completion, abort, push or stream event bumps it *after*
            // its state change, so either the check/pop below observes
            // the change, or wait() sees a moved epoch and returns
            // immediately. (Reading the epoch after the exit check left a
            // window where the final completed-increment and its notify
            // both landed in between: the worker then parked on the
            // fresh epoch with no notify ever coming — a rare end-of-run
            // hang.)
            let seen = self.wake.current();
            if kill_after.is_some_and(|k| my_done >= k) {
                self.die(w, obs);
                return;
            }
            if self.aborted()
                || (self.closed.load(Ordering::Acquire)
                    && self.completed.load(Ordering::Acquire)
                        >= self.admitted.load(Ordering::Acquire))
            {
                return;
            }
            // First read guard: pop, estimate, start.
            let (t, kernel, t_start) = {
                let g = self.read();
                let popped = self.front.pop(w, &self.view(&g, self.now_us()));
                let Some(t) = popped else {
                    drop(g);
                    // Nothing for us now. If the scheduler holds tasks
                    // back, poppability can change by time alone —
                    // bounded re-poll; otherwise park until the next
                    // push, completion or stream event.
                    let bound = (self.front.pending() > 0).then_some(HOLDBACK_REPOLL);
                    self.event(wi, RuntimeEventKind::Park);
                    self.wake.wait(seen, bound);
                    self.event(wi, RuntimeEventKind::Wake);
                    continue;
                };
                obs.bump(Counter::Pops);
                // Injected transient failure: the attempt dies before the
                // kernel runs, so a failed attempt leaves no effect on
                // the buffers (effectively-once semantics need exactly
                // one *committed* execution; failed attempts must be
                // pure).
                let attempt = g.attempts[t.index()].load(Ordering::Relaxed);
                if self.faults.transient_fails(t.index(), attempt) {
                    drop(g);
                    let retried = self.retry_or_fail(t, wi, obs, |attempts| {
                        RunError::RetryExhausted { task: t, attempts }
                    });
                    if retried {
                        continue;
                    }
                    return;
                }
                // Resolve the kernel before touching buffers; a miss is a
                // scheduler bug — abort with a typed error instead of
                // panicking in a scoped thread.
                let Some(kernel) = g.impls[t.index()].get(&class).cloned() else {
                    drop(g);
                    self.fail(RunError::MissingKernel { task: t, class });
                    return;
                };
                let graph = g.stf.graph();
                let delta = Estimator::new(graph, self.platform, self.model).delta_or_mean(t, arch);
                if !delta.is_exact() {
                    self.warn_fallback(graph, t, arch, delta);
                }
                accesses.clear();
                accesses.extend_from_slice(&graph.task(t).accesses);
                let t_start = self.now_us();
                self.loads.set(w, t_start + delta.us());
                let view = self.view(&g, t_start);
                self.front
                    .feedback(&SchedEvent::TaskStarted { t, w }, &view);
                (t, kernel, t_start)
            };
            // Lock buffers in access order (deps guarantee no cycles
            // among concurrent tasks).
            let (bufs, modes): (Vec<BufRef<'_>>, Vec<AccessMode>) = accesses
                .iter()
                .map(|a| {
                    let b = &self.buffers[a.data.index()];
                    let guard = if a.mode.writes() {
                        BufRef::W(b.write().expect("buffer poisoned"))
                    } else {
                        BufRef::R(b.read().expect("buffer poisoned"))
                    };
                    (guard, a.mode)
                })
                .unzip();
            // Run the kernel behind a panic boundary: a panicking user
            // kernel must not unwind through the scoped-thread team
            // (which would poison the span mutex and re-panic the whole
            // run) — it is retried or becomes a typed error with a
            // partial trace. `ctx` lives outside the closure, so its
            // buffer guards drop on the normal path and the `RwLock`s
            // are never poisoned.
            let mut ctx = TaskCtx::new(bufs, modes);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.faults.kernel_panics(t.index()) {
                    panic!("injected kernel panic ({t:?})");
                }
                kernel(&mut ctx);
            }))
            .is_err();
            drop(ctx);
            if panicked {
                self.loads.set(w, self.now_us());
                if self.retry_or_fail(t, wi, obs, |_| RunError::KernelPanicked { task: t }) {
                    continue;
                }
                return;
            }
            // Injected slow-down/stall: sleeps *inside* the measured
            // window, so history models observe the perturbed duration
            // like a real hiccup.
            if let Some(delay) = self.faults.kernel_delay(t.index()) {
                std::thread::sleep(delay);
            }
            let t_end = self.now_us();
            self.loads.set(w, t_end);
            // Second read guard: completion and release happen entirely
            // under it, so the driver's write-guarded commit can never
            // observe (or miss) half of them. Events and pushes reach the
            // front-end in this thread's program order; the front-end
            // sequences them globally.
            {
                let g = self.read();
                let graph = g.stf.graph();
                Estimator::new(graph, self.platform, self.model).record(t, arch, t_end - t_start);
                self.spans
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(TaskSpan {
                        task: t,
                        ttype: graph.task(t).ttype,
                        worker: w,
                        ready_at: f64::from_bits(g.ready_at[t.index()].load(Ordering::Relaxed)),
                        start: t_start,
                        end: t_end,
                    });
                self.populate(&g, t);
                let view = self.view(&g, t_end);
                let elapsed_us = t_end - t_start;
                self.front
                    .feedback(&SchedEvent::TaskFinished { t, w, elapsed_us }, &view);
                ready.clear();
                self.finish(&g, t, t_end, |succ| ready.push(succ));
                self.release(&g, &mut ready, Some(w), obs, &view);
            }
            my_done += 1;
            // Injected wakeup latency: successors were already pushed,
            // but parked workers learn about it late.
            if let Some(delay) = self.faults.wake_delay() {
                std::thread::sleep(delay);
            }
            self.wake.notify();
        }
    }

    /// Tear the finished run down into its graph state and outcome.
    fn into_outcome(
        self,
        cells: &[ObsCell],
        evictions_at_start: u64,
        persist_at_start: PersistStats,
    ) -> (Shared, Outcome) {
        let makespan_us = self.now_us();
        let mut trace = Trace::new(self.alive.len());
        trace.tasks = self
            .spans
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // Wall-clock ties are real under coarse timers: break them by
        // task id so the span order (and every downstream export) is
        // deterministic.
        trace
            .tasks
            .sort_by(|a, b| a.end.total_cmp(&b.end).then(a.task.cmp(&b.task)));
        let mut counters = self.front.counters();
        for c in cells {
            c.drain_into(&mut counters);
        }
        if let Some(rc) = self.cache {
            counters.cache_evictions += rc.evictions() - evictions_at_start;
            let ps = rc.persist_stats();
            counters.cache_persist_writes += ps.writes - persist_at_start.writes;
            counters.cache_loaded += ps.loaded - persist_at_start.loaded;
            counters.cache_load_rejects += ps.load_rejects - persist_at_start.load_rejects;
            counters.cache_compactions += ps.compactions - persist_at_start.compactions;
        }
        let mut events = self
            .events
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        events.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.worker.cmp(&b.worker)));
        let ledger =
            |v: Vec<AtomicU64>| -> Vec<u64> { v.into_iter().map(AtomicU64::into_inner).collect() };
        let out = Outcome {
            report: RunReport {
                makespan_us,
                trace,
                scheduler: self.front.name(),
                error: self
                    .error
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner),
                counters,
                events,
            },
            tasks_admitted: self.admitted.into_inner(),
            tasks_completed: self.completed.into_inner(),
            cache_hits: self.cache_hits.into_inner(),
            cache_misses: self.cache_misses.into_inner(),
            tenant_admitted: ledger(self.tenant_admitted),
            tenant_completed: ledger(self.tenant_completed),
            tenant_cache_hits: ledger(self.tenant_cache_hits),
        };
        let shared = self
            .shared
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (shared, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_perfmodel::{TableModel, TimeFn};
    use mp_platform::presets::homogeneous;
    use mp_sched::concurrent::{RelaxedConfig, RelaxedMultiQueue, ShardedAdapter};
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
        let front = ShardedAdapter::new(4, &|| Box::new(FifoScheduler::new()));
        let report = rt.run_concurrent(&front).expect("run failed");
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
        let front = ShardedAdapter::new(4, &|| Box::new(FifoScheduler::new()));
        let report = rt
            .run_concurrent(&front)
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
        let front = RelaxedMultiQueue::new(4, RelaxedConfig::default());
        let report = rt
            .run_concurrent(&front)
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
        let front = ShardedAdapter::new(2, &|| Box::new(FifoScheduler::new()));
        cold.run_concurrent(&front).expect("cold run");
        let digest = cold.buffers_digest();

        let (mut warm, _, _) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let front = ShardedAdapter::new(2, &|| Box::new(FifoScheduler::new()));
        let report = warm.run_concurrent(&front).expect("warm run");
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

    #[test]
    fn task_without_implementations_is_a_typed_error() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0], "x");
        let t = rt.submit(TaskBuilder::new("AXPY").access(x, AccessMode::Read));
        match rt.run(Box::new(FifoScheduler::new())) {
            Err(RunError::NoUsableImpl { task, .. }) => assert_eq!(task, t),
            other => panic!("expected NoUsableImpl, got {other:?}"),
        }
    }

    #[test]
    fn re_registered_task_type_is_a_typed_error() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0], "x");
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|_| {}),
        );
        let t = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|_| {})
                .gpu(|_| {}),
        );
        let err = rt
            .run(Box::new(FifoScheduler::new()))
            .expect_err("mismatched re-registration");
        assert_eq!(
            err,
            RunError::ImplMismatch {
                task: t,
                ttype: "AXPY".into()
            }
        );
    }
}
