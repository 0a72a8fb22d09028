//! Streaming ("serving-mode") execution on the threaded runtime.
//!
//! [`Runtime::serve`] is the wall-clock twin of `mp_serve::serve_sim`:
//! an **open-loop driver** feeds sub-DAG submissions into the runtime
//! *while worker threads are executing earlier ones*. Each submission is
//! staged through [`mp_dag::SubmissionStage`], so
//!
//! * cross-submission dependencies resolve by data identity against the
//!   last **admitted** writer of each handle (a rejected stage is
//!   dropped before touching the graph, and can therefore never strand a
//!   dependency of admitted work);
//! * admission ([`AdmissionConfig`]) bounds in-flight tasks globally and
//!   per tenant, rejecting overflowing submissions whole with a typed
//!   [`AdmitError`];
//! * every admitted task carries its tenant's weight-scaled
//!   [`effective_priority`] through the normal `user_priority` channel,
//!   with starvation aging driven by the driver's **virtual arrival
//!   clock** and the tenant completion ledger
//!   ([`StreamConfig::arrival_gap_us`]) — never by wall time, so the
//!   boost a given arrival/completion interleaving produces is
//!   reproducible;
//! * when a [`mp_cache::ResultCache`] is installed
//!   ([`Runtime::set_cache`]), every released task is probed before it
//!   reaches the front-end: a verified payload-carrying hit
//!   materializes the memoized buffers under the write locks and
//!   completes in place — never pushed, popped or estimated — with the
//!   cascade of all-hit successors drained in the same step, exactly as
//!   the batch engine's cache path. A warm resubmission of an identical
//!   sub-DAG therefore costs no scheduler or queue capacity at all.
//!
//! The driver runs on the calling thread; workers drive any
//! [`ConcurrentScheduler`] front-end (global-lock, sharded, relaxed).
//! Graph growth is synchronized with one `RwLock`: workers pop, start
//! and complete under read guards, the driver commits each admitted
//! sub-DAG under the write guard, so a completion can never race the
//! indegree snapshot of a commit. Kernels execute outside the guard.
//!
//! Unlike the batch paths, serving does not retry or fault-inject: a
//! kernel panic or a misrouted task aborts the stream with a typed
//! error and a partial trace.

use std::collections::HashMap;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use mp_cache::{CacheEntry, Lookup};
use mp_dag::access::AccessMode;
use mp_dag::ids::{DataId, TaskId, TaskTypeId};
use mp_dag::stf::StfBuilder;
use mp_perfmodel::{Estimator, PerfModel};
use mp_platform::types::{ArchClass, WorkerId};
use mp_sched::api::{SchedEvent, SchedView, Scheduler};
use mp_sched::concurrent::{
    ConcurrentScheduler, GlobalLock, RelaxedConfig, RelaxedMultiQueue, ShardedAdapter,
};
pub use mp_serve::{AdmissionConfig, AdmitError, FairnessConfig, TenantSpec};

use mp_serve::effective_priority;
use mp_trace::{Counter, CounterSnapshot, ObsCell, TaskSpan, Trace};

use crate::data::{BufRef, TaskCtx};
use crate::engine::{
    AtomicLoads, KernelFn, RunError, Runtime, TaskBuilder, UnifiedMemory, WakeEpoch,
    HOLDBACK_REPOLL,
};

/// Tenancy and admission knobs of one streaming run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// The tenants submissions may name (by index).
    pub tenants: Vec<TenantSpec>,
    /// Weight-scaling fairness layer. The aging knobs apply on the
    /// driver's virtual arrival clock when [`Self::arrival_gap_us`] is
    /// set.
    pub fairness: FairnessConfig,
    /// In-flight bounds enforced at admission.
    pub admission: AdmissionConfig,
    /// Virtual inter-submission gap in µs: submission `i` "arrives" at
    /// virtual instant `i * arrival_gap_us` on the driver's clock, and
    /// starvation aging measures a tenant's progress drought on that
    /// clock — a tenant whose completion ledger has not advanced
    /// between its arrivals accrues [`FairnessConfig::aging_boost`]
    /// like the virtual-time engine, without any wall-clock reads.
    /// `0.0` (the default) disables aging: priorities are exactly the
    /// weight-scaled base, as before.
    pub arrival_gap_us: f64,
}

impl StreamConfig {
    /// A config over `tenants` with default fairness and admission.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self {
            tenants,
            fairness: FairnessConfig::default(),
            admission: AdmissionConfig::default(),
            arrival_gap_us: 0.0,
        }
    }
}

/// One streamed submission: the tasks of one sub-DAG, owned by a tenant.
pub struct Submission {
    /// Index into [`StreamConfig::tenants`].
    pub tenant: usize,
    /// The sub-DAG's tasks, in STF submission order.
    pub tasks: Vec<TaskBuilder>,
}

/// Everything one streaming run produces.
#[derive(Debug)]
pub struct StreamReport {
    /// Front-end/scheduler name.
    pub scheduler: String,
    /// Wall-clock makespan in µs (driver start → quiesce).
    pub makespan_us: f64,
    /// Execution trace (partial when [`Self::error`] is set).
    pub trace: Trace,
    /// Per submission: the committed task ids, or `None` if rejected.
    pub admitted: Vec<Option<Vec<TaskId>>>,
    /// Each rejection as `(submission index, typed error)`.
    pub rejections: Vec<(usize, AdmitError)>,
    /// Admitted tasks, including any submitted before the stream
    /// started (those count as already-admitted tenant-0 work).
    pub tasks_admitted: usize,
    /// Tasks that completed execution.
    pub tasks_completed: usize,
    /// Completions served straight from the result cache: a subset of
    /// `tasks_completed` that never reached the scheduler and records
    /// no trace span. Always 0 without [`Runtime::set_cache`].
    pub cache_hits: u64,
    /// Cache probes that missed (or were invalidated) and executed
    /// normally. Always 0 without a cache.
    pub cache_misses: u64,
    /// Streamed submissions admitted / rejected.
    pub subdags_admitted: u64,
    /// Streamed submissions rejected with backpressure.
    pub subdags_rejected: u64,
    /// Scheduler/engine counters, including per-tenant
    /// admitted/rejected/completed.
    pub counters: CounterSnapshot,
    /// Why the stream aborted, if it did.
    pub error: Option<RunError>,
}

impl StreamReport {
    /// Did every admitted task complete?
    pub fn is_complete(&self) -> bool {
        self.error.is_none() && self.tasks_completed == self.tasks_admitted
    }
}

/// Graph-coupled state the driver grows under the write guard and
/// workers read under read guards. Per-task vectors are indexed by task
/// index and append-only; the atomics inside them are shared-mutable
/// under read guards (concurrent completions), the `Vec`s themselves
/// only change under the write guard.
struct Shared {
    stf: StfBuilder,
    impls: Vec<HashMap<ArchClass, KernelFn>>,
    indeg: Vec<AtomicUsize>,
    done: Vec<AtomicBool>,
    ready_at: Vec<AtomicU64>,
    tenant_of: Vec<u32>,
}

/// One streamed task after type registration, ready to stage.
struct Prepared {
    ttype: TaskTypeId,
    accesses: Vec<(mp_dag::ids::DataId, AccessMode)>,
    flops: f64,
    prio: i64,
    label: String,
    impls: HashMap<ArchClass, KernelFn>,
}

impl Runtime {
    /// Serve `stream` under `scheduler` behind the global lock. See the
    /// module docs for the execution model.
    pub fn serve(
        &mut self,
        scheduler: Box<dyn Scheduler>,
        cfg: &StreamConfig,
        stream: Vec<Submission>,
    ) -> Result<StreamReport, RunError> {
        let front = GlobalLock::new(scheduler);
        self.serve_concurrent(&front, cfg, stream)
    }

    /// Serve `stream` under the sharded multi-queue front-end.
    pub fn serve_sharded(
        &mut self,
        shards: usize,
        factory: &dyn Fn() -> Box<dyn Scheduler>,
        cfg: &StreamConfig,
        stream: Vec<Submission>,
    ) -> Result<StreamReport, RunError> {
        let front = ShardedAdapter::new(shards, factory);
        self.serve_concurrent(&front, cfg, stream)
    }

    /// Serve `stream` under the relaxed multi-queue front-end.
    pub fn serve_relaxed(
        &mut self,
        rc: RelaxedConfig,
        cfg: &StreamConfig,
        stream: Vec<Submission>,
    ) -> Result<StreamReport, RunError> {
        let front = RelaxedMultiQueue::new(self.platform.worker_count(), rc);
        self.serve_concurrent(&front, cfg, stream)
    }

    /// Serve `stream` by driving `front` from one thread per platform
    /// worker while this thread plays the open-loop driver.
    pub fn serve_concurrent(
        &mut self,
        front: &dyn ConcurrentScheduler,
        cfg: &StreamConfig,
        stream: Vec<Submission>,
    ) -> Result<StreamReport, RunError> {
        if let Some(err) = self.submit_error.clone() {
            return Err(err);
        }
        assert!(!cfg.tenants.is_empty(), "serving needs at least one tenant");
        let classes: Vec<ArchClass> = {
            let mut cs = Vec::new();
            for a in self.platform.archs() {
                if !cs.contains(&a.class) {
                    cs.push(a.class);
                }
            }
            cs
        };
        // Coverage is checked up front, like `run` does at submit time:
        // a task no worker class could execute fails the whole stream
        // before any thread spawns. The reported id is the index the
        // task would get with every earlier submission admitted.
        let pre = self.stf.graph().task_count();
        let mut prospective = pre;
        for sub in &stream {
            assert!(
                sub.tenant < cfg.tenants.len(),
                "submission names tenant {} of {}",
                sub.tenant,
                cfg.tenants.len()
            );
            for tb in &sub.tasks {
                assert!(
                    !tb.impls.is_empty(),
                    "streamed task '{}' has no implementation",
                    tb.ttype
                );
                if !classes.iter().any(|c| tb.impls.contains_key(c)) {
                    return Err(RunError::NoUsableImpl {
                        task: TaskId::from_index(prospective),
                        label: if tb.label.is_empty() {
                            tb.ttype.clone()
                        } else {
                            tb.label.clone()
                        },
                        platform_classes: classes,
                    });
                }
                prospective += 1;
            }
        }

        let nw = self.platform.worker_count();
        let nt = cfg.tenants.len();
        let platform = &self.platform;
        let model: &dyn PerfModel = &*self.model;
        let buffers = &self.buffers;
        let sched_name = front.name();
        let cache = self.cache.clone();

        let shared = RwLock::new(Shared {
            indeg: (0..pre)
                .map(|i| AtomicUsize::new(self.stf.graph().preds(TaskId::from_index(i)).len()))
                .collect(),
            done: (0..pre).map(|_| AtomicBool::new(false)).collect(),
            ready_at: (0..pre).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
            tenant_of: vec![0; pre],
            stf: mem::replace(&mut self.stf, StfBuilder::new()),
            impls: mem::take(&mut self.impls),
        });

        let loads = AtomicLoads::new(nw);
        let unified = UnifiedMemory;
        let wake = WakeEpoch::new();
        let abort = AtomicBool::new(false);
        let stream_closed = AtomicBool::new(false);
        let error: Mutex<Option<RunError>> = Mutex::new(None);
        // Pre-existing tasks count as already-admitted tenant-0 work.
        let admitted_tasks = AtomicUsize::new(pre);
        let completed_tasks = AtomicUsize::new(0);
        let tenant_in_flight: Vec<AtomicUsize> = (0..nt).map(|_| AtomicUsize::new(0)).collect();
        let tenant_admitted: Vec<AtomicU64> = (0..nt).map(|_| AtomicU64::new(0)).collect();
        let tenant_completed: Vec<AtomicU64> = (0..nt).map(|_| AtomicU64::new(0)).collect();
        let tenant_cache_hits: Vec<AtomicU64> = (0..nt).map(|_| AtomicU64::new(0)).collect();
        let cache_hits_n = AtomicU64::new(0);
        let cache_misses_n = AtomicU64::new(0);
        tenant_in_flight[0].fetch_add(pre, Ordering::Relaxed);
        tenant_admitted[0].fetch_add(pre as u64, Ordering::Relaxed);
        let spans = Mutex::new(Vec::<TaskSpan>::new());
        let cells: Vec<ObsCell> = (0..nw).map(|_| ObsCell::new()).collect();
        let driver_obs = ObsCell::new();

        let start = Instant::now();
        let now_us = || start.elapsed().as_secs_f64() * 1e6;

        // Release newly-ready tasks, mirroring the batch engine's
        // `release`: `ready` holds tasks whose indegree just reached
        // zero; the misses among them are pushed. With a result cache
        // installed each one is probed first, and on a verified
        // payload-carrying hit the memoized buffers are copied back
        // under the buffer write locks, the completion (tenant ledger
        // included) is published, and the successors it releases are
        // probed in turn — the task never reaches the front-end, the
        // estimator or a kernel. Every newly-ready task, cascade
        // included, is probed before any miss is pushed, so a fast
        // worker cannot run one identical sibling and populate the
        // shared entry while its twins still wait to be probed. On
        // return `ready` holds exactly the pushed tasks.
        // Callers hold a `shared` guard: a read guard on workers, the
        // write guard on the driver — either way the graph cannot grow
        // under the cascade, and a released task's WAR/RAW edges
        // guarantee no live reader or writer of its written buffers.
        let release = |g: &Shared,
                       ready: &mut Vec<TaskId>,
                       via: Option<WorkerId>,
                       obs: &ObsCell,
                       view: &SchedView<'_>| {
            if let Some(rc) = cache.as_deref() {
                let probe = |t: TaskId| -> Option<Arc<CacheEntry>> {
                    match g.stf.graph().cache_meta(t).map(|m| rc.lookup(m, true)) {
                        Some(Lookup::Hit(e)) => return Some(e),
                        Some(Lookup::Invalidated) => {
                            cache_misses_n.fetch_add(1, Ordering::Relaxed);
                            obs.bump(Counter::CacheInvalidations);
                            obs.bump(Counter::CacheMisses);
                        }
                        _ => {
                            cache_misses_n.fetch_add(1, Ordering::Relaxed);
                            obs.bump(Counter::CacheMisses);
                        }
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
                    // order the populate path stored it.
                    let payload = entry
                        .payload
                        .as_ref()
                        .expect("payload-less entry served to the runtime");
                    let mut written: Vec<DataId> = Vec::new();
                    for d in g.stf.graph().task(t).writes() {
                        if written.contains(&d) {
                            continue;
                        }
                        let src = &payload[written.len()];
                        written.push(d);
                        let mut buf = buffers[d.index()].write().expect("buffer poisoned");
                        buf.clear();
                        buf.extend_from_slice(src);
                    }
                    cache_hits_n.fetch_add(1, Ordering::Relaxed);
                    obs.bump(Counter::CacheHits);
                    obs.add(Counter::BytesMaterialized, entry.bytes);
                    g.done[t.index()].store(true, Ordering::Release);
                    let ti = g.tenant_of[t.index()] as usize;
                    tenant_in_flight[ti].fetch_sub(1, Ordering::AcqRel);
                    tenant_completed[ti].fetch_add(1, Ordering::AcqRel);
                    tenant_cache_hits[ti].fetch_add(1, Ordering::Relaxed);
                    completed_tasks.fetch_add(1, Ordering::AcqRel);
                    let now = now_us();
                    for &succ in g.stf.graph().succs(t) {
                        if g.indeg[succ.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                            g.ready_at[succ.index()].store(now.to_bits(), Ordering::Relaxed);
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
            let _ = front.drain_prefetches();
        };

        // Seed pre-existing sources before any worker spawns. Snapshot
        // the sources first: a cache hit completes in place and can
        // drive successors' indegrees to zero, and those are released
        // inside `release` — only true sources may be seeded here.
        {
            let g = shared.read().unwrap_or_else(|e| e.into_inner());
            let view = SchedView {
                est: Estimator::new(g.stf.graph(), platform, model),
                loc: &unified,
                load: &loads,
                now: 0.0,
            };
            let mut sources: Vec<TaskId> = (0..pre)
                .map(TaskId::from_index)
                .filter(|t| g.indeg[t.index()].load(Ordering::Relaxed) == 0)
                .collect();
            release(&g, &mut sources, None, &driver_obs, &view);
        }

        let mut admitted: Vec<Option<Vec<TaskId>>> = Vec::with_capacity(stream.len());
        let mut rejections: Vec<(usize, AdmitError)> = Vec::new();

        std::thread::scope(|scope| {
            for (wi, obs) in cells.iter().enumerate() {
                let w = WorkerId::from_index(wi);
                let shared = &shared;
                let wake = &wake;
                let abort = &abort;
                let stream_closed = &stream_closed;
                let error = &error;
                let admitted_tasks = &admitted_tasks;
                let completed_tasks = &completed_tasks;
                let tenant_in_flight = &tenant_in_flight;
                let tenant_completed = &tenant_completed;
                let spans = &spans;
                let loads = &loads;
                let unified = &unified;
                let cache = &cache;
                let release = &release;
                scope.spawn(move || {
                    let arch = platform.worker(w).arch;
                    let class = platform.arch(arch).class;
                    // Successors released by one completion (reused).
                    let mut ready: Vec<TaskId> = Vec::new();
                    loop {
                        // Epoch before the exit check and pop: the same
                        // missed-wake protocol as the batch engine.
                        let seen = wake.current();
                        if abort.load(Ordering::Acquire)
                            || (stream_closed.load(Ordering::Acquire)
                                && completed_tasks.load(Ordering::Acquire)
                                    >= admitted_tasks.load(Ordering::Acquire))
                        {
                            wake.notify();
                            return;
                        }
                        let popped = {
                            let g = shared.read().unwrap_or_else(|e| e.into_inner());
                            let view = SchedView {
                                est: Estimator::new(g.stf.graph(), platform, model),
                                loc: unified,
                                load: loads,
                                now: now_us(),
                            };
                            front.pop(w, &view)
                        };
                        let Some(t) = popped else {
                            // Hold-backs become poppable by time alone;
                            // otherwise park until the next push,
                            // completion or stream event.
                            let bound = if front.pending() > 0 {
                                Some(HOLDBACK_REPOLL)
                            } else {
                                None
                            };
                            wake.wait(seen, bound);
                            continue;
                        };
                        obs.bump(Counter::Pops);
                        // Snapshot what execution needs, then drop the
                        // guard — kernels must not block the driver.
                        let (kernel, accesses, ttype, est_us) = {
                            let g = shared.read().unwrap_or_else(|e| e.into_inner());
                            let task = g.stf.graph().task(t);
                            let est = Estimator::new(g.stf.graph(), platform, model);
                            (
                                g.impls[t.index()].get(&class).cloned(),
                                task.accesses.clone(),
                                task.ttype,
                                est.delta_or_mean(t, arch).us(),
                            )
                        };
                        let Some(kernel) = kernel else {
                            let mut e = error.lock().unwrap_or_else(|p| p.into_inner());
                            if e.is_none() {
                                *e = Some(RunError::MissingKernel { task: t, class });
                            }
                            drop(e);
                            abort.store(true, Ordering::Release);
                            wake.notify();
                            return;
                        };
                        let t_start = now_us();
                        loads.set(w, t_start + est_us);
                        {
                            let g = shared.read().unwrap_or_else(|e| e.into_inner());
                            let view = SchedView {
                                est: Estimator::new(g.stf.graph(), platform, model),
                                loc: unified,
                                load: loads,
                                now: t_start,
                            };
                            front.feedback(&SchedEvent::TaskStarted { t, w }, &view);
                        }
                        // Buffer locks in access order, kernel behind a
                        // panic boundary — as in the batch engine.
                        let (bufs, modes): (Vec<BufRef<'_>>, Vec<AccessMode>) = accesses
                            .iter()
                            .map(|a| {
                                let b = &buffers[a.data.index()];
                                let gbuf = if a.mode.writes() {
                                    BufRef::W(b.write().expect("buffer poisoned"))
                                } else {
                                    BufRef::R(b.read().expect("buffer poisoned"))
                                };
                                (gbuf, a.mode)
                            })
                            .unzip();
                        let mut ctx = TaskCtx::new(bufs, modes);
                        let panicked =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                kernel(&mut ctx);
                            }))
                            .is_err();
                        drop(ctx);
                        if panicked {
                            let mut e = error.lock().unwrap_or_else(|p| p.into_inner());
                            if e.is_none() {
                                *e = Some(RunError::KernelPanicked { task: t });
                            }
                            drop(e);
                            abort.store(true, Ordering::Release);
                            wake.notify();
                            return;
                        }
                        let t_end = now_us();
                        loads.set(w, t_end);
                        // Completion happens entirely under one read
                        // guard: the driver's write-guarded commit can
                        // therefore never observe (or miss) half of it.
                        {
                            let g = shared.read().unwrap_or_else(|e| e.into_inner());
                            let est = Estimator::new(g.stf.graph(), platform, model);
                            est.record(t, arch, t_end - t_start);
                            spans
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .push(TaskSpan {
                                    task: t,
                                    ttype,
                                    worker: w,
                                    ready_at: f64::from_bits(
                                        g.ready_at[t.index()].load(Ordering::Relaxed),
                                    ),
                                    start: t_start,
                                    end: t_end,
                                });
                            let view = SchedView {
                                est: Estimator::new(g.stf.graph(), platform, model),
                                loc: unified,
                                load: loads,
                                now: t_end,
                            };
                            front.feedback(
                                &SchedEvent::TaskFinished {
                                    t,
                                    w,
                                    elapsed_us: t_end - t_start,
                                },
                                &view,
                            );
                            // Populate the result cache before releasing
                            // successors: clone the written buffers in
                            // dedup'd write order — the same order a
                            // future hit materializes them back — while
                            // no successor can yet be re-writing them.
                            if let Some(rc) = cache.as_deref() {
                                if let Some(meta) = g.stf.graph().cache_meta(t) {
                                    let mut written: Vec<DataId> = Vec::new();
                                    let mut payload: Vec<Vec<f64>> = Vec::new();
                                    let mut bytes = 0u64;
                                    for d in g.stf.graph().task(t).writes() {
                                        if written.contains(&d) {
                                            continue;
                                        }
                                        written.push(d);
                                        let buf =
                                            buffers[d.index()].read().expect("buffer poisoned");
                                        bytes += (buf.len() * 8) as u64;
                                        payload.push(buf.clone());
                                    }
                                    rc.insert(meta, Some(payload), bytes);
                                }
                            }
                            g.done[t.index()].store(true, Ordering::Release);
                            ready.clear();
                            for &succ in g.stf.graph().succs(t) {
                                if g.indeg[succ.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    g.ready_at[succ.index()]
                                        .store(t_end.to_bits(), Ordering::Relaxed);
                                    ready.push(succ);
                                }
                            }
                            release(&g, &mut ready, Some(w), obs, &view);
                            let ti = g.tenant_of[t.index()] as usize;
                            tenant_in_flight[ti].fetch_sub(1, Ordering::AcqRel);
                            tenant_completed[ti].fetch_add(1, Ordering::AcqRel);
                            completed_tasks.fetch_add(1, Ordering::AcqRel);
                        }
                        wake.notify();
                    }
                });
            }

            // ---- The open-loop driver (this thread). Submissions are
            // processed in order as fast as admission allows; a
            // rejection drops the stage and moves on — no waiting.
            //
            // Starvation aging runs on the driver's virtual arrival
            // clock: submission `si` arrives at `si * arrival_gap_us`,
            // and a tenant's progress is read off the completion ledger
            // — the boost depends only on the arrival/completion
            // interleaving, never on wall time.
            let mut last_progress_v = vec![0.0f64; nt];
            let mut last_completed_seen = vec![0u64; nt];
            for (si, sub) in stream.into_iter().enumerate() {
                if abort.load(Ordering::Acquire) {
                    admitted.push(None);
                    continue;
                }
                let ti = sub.tenant;
                let spec = &cfg.tenants[ti];
                let staged_n = sub.tasks.len();
                let mut g = shared.write().unwrap_or_else(|e| e.into_inner());
                let boost = if cfg.arrival_gap_us > 0.0 {
                    let vnow = si as f64 * cfg.arrival_gap_us;
                    let done_now = tenant_completed[ti].load(Ordering::Acquire);
                    if done_now != last_completed_seen[ti]
                        || tenant_in_flight[ti].load(Ordering::Acquire) == 0
                    {
                        // The ledger moved (or the tenant is idle):
                        // progress, reset the drought.
                        last_completed_seen[ti] = done_now;
                        last_progress_v[ti] = vnow;
                        0
                    } else {
                        cfg.fairness.aging_boost(vnow - last_progress_v[ti])
                    }
                } else {
                    0
                };
                // Workers only mutate the counters under read guards, so
                // this in-flight snapshot is exact while we hold write.
                let in_flight = admitted_tasks.load(Ordering::Acquire)
                    - completed_tasks.load(Ordering::Acquire);
                let decision = cfg.admission.check(
                    ti,
                    staged_n,
                    in_flight,
                    tenant_in_flight[ti].load(Ordering::Acquire),
                );
                // Register types first (idempotent), then stage every
                // task — the stage is dropped on rejection, which must
                // leave graph, flows and versions untouched.
                let prepared: Vec<Prepared> = sub
                    .tasks
                    .into_iter()
                    .map(|tb| Prepared {
                        ttype: g.stf.graph_mut().register_type(
                            &tb.ttype,
                            tb.impls.contains_key(&ArchClass::Cpu),
                            tb.impls.contains_key(&ArchClass::Gpu),
                        ),
                        prio: effective_priority(
                            spec.base_priority.saturating_add(tb.priority),
                            spec.weight,
                            &cfg.fairness,
                            boost,
                        ),
                        label: if tb.label.is_empty() {
                            tb.ttype.clone()
                        } else {
                            tb.label
                        },
                        accesses: tb.accesses,
                        flops: tb.flops,
                        impls: tb.impls,
                    })
                    .collect();
                let mut impls_of: Vec<HashMap<ArchClass, KernelFn>> =
                    Vec::with_capacity(prepared.len());
                let mut stage = g.stf.begin_submission();
                for p in prepared {
                    stage.submit_prio(p.ttype, p.accesses, p.flops, p.prio, p.label);
                    impls_of.push(p.impls);
                }
                if let Err(err) = decision {
                    drop(stage);
                    drop(g);
                    rejections.push((si, err));
                    admitted.push(None);
                    continue;
                }
                let ids = stage.commit();
                let now = now_us();
                for (&t, im) in ids.iter().zip(impls_of) {
                    let open = g
                        .stf
                        .graph()
                        .preds(t)
                        .iter()
                        .filter(|p| !g.done[p.index()].load(Ordering::Acquire))
                        .count();
                    g.indeg.push(AtomicUsize::new(open));
                    g.done.push(AtomicBool::new(false));
                    g.ready_at.push(AtomicU64::new(now.to_bits()));
                    g.tenant_of.push(ti as u32);
                    g.impls.push(im);
                }
                admitted_tasks.fetch_add(ids.len(), Ordering::AcqRel);
                tenant_in_flight[ti].fetch_add(ids.len(), Ordering::AcqRel);
                tenant_admitted[ti].fetch_add(ids.len() as u64, Ordering::AcqRel);
                let view = SchedView {
                    est: Estimator::new(g.stf.graph(), platform, model),
                    loc: &unified,
                    load: &loads,
                    now,
                };
                // Snapshot the sources before probing: a cache hit
                // cascade completes successors in place, and those must
                // not be re-seen by this scan.
                let mut sources: Vec<TaskId> = ids
                    .iter()
                    .copied()
                    .filter(|t| g.indeg[t.index()].load(Ordering::Relaxed) == 0)
                    .collect();
                release(&g, &mut sources, None, &driver_obs, &view);
                drop(g);
                admitted.push(Some(ids));
                wake.notify();
            }
            stream_closed.store(true, Ordering::Release);
            wake.notify();
        });

        // Restore the grown graph and kernel table: `graph()`/`buffer()`
        // keep working after the stream, and further batch runs see the
        // streamed tasks as already-submitted work.
        let sh = shared.into_inner().unwrap_or_else(|e| e.into_inner());
        self.stf = sh.stf;
        self.impls = sh.impls;

        let run_error = error.lock().unwrap_or_else(|p| p.into_inner()).take();
        let makespan_us = now_us();
        let mut trace = Trace::new(nw);
        trace.tasks = spans.into_inner().unwrap_or_else(|p| p.into_inner());
        trace
            .tasks
            .sort_by(|a, b| a.end.total_cmp(&b.end).then(a.task.cmp(&b.task)));
        let mut counters = front.counters();
        driver_obs.drain_into(&mut counters);
        for c in &cells {
            c.drain_into(&mut counters);
        }
        counters.tenant_admitted = tenant_admitted
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        counters.tenant_completed = tenant_completed
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        counters.tenant_cache_hits = tenant_cache_hits
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        let mut tenant_rejected = vec![0u64; nt];
        let subdags_admitted = admitted.iter().filter(|a| a.is_some()).count() as u64;
        for (_, err) in &rejections {
            let ti = match err {
                AdmitError::Backpressure { tenant, .. }
                | AdmitError::TenantBackpressure { tenant, .. } => *tenant,
            };
            tenant_rejected[ti] += 1;
        }
        counters.tenant_rejected = tenant_rejected;
        Ok(StreamReport {
            scheduler: sched_name,
            makespan_us,
            trace,
            subdags_admitted,
            subdags_rejected: rejections.len() as u64,
            admitted,
            rejections,
            tasks_admitted: admitted_tasks.load(Ordering::Relaxed),
            tasks_completed: completed_tasks.load(Ordering::Relaxed),
            cache_hits: cache_hits_n.load(Ordering::Relaxed),
            cache_misses: cache_misses_n.load(Ordering::Relaxed),
            counters,
            error: run_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mp_perfmodel::{TableModel, TimeFn};
    use mp_platform::presets::homogeneous;
    use mp_sched::EagerPrioScheduler;

    fn model() -> Arc<dyn PerfModel> {
        Arc::new(
            TableModel::builder()
                .set("STREAM", ArchClass::Cpu, TimeFn::Const(5.0))
                .build(),
        )
    }

    /// A fork-join submission over `root` with `width` middles.
    fn forkjoin(tenant: usize, root: mp_dag::ids::DataId, width: usize) -> Submission {
        let mut tasks = Vec::new();
        tasks.push(
            TaskBuilder::new("STREAM")
                .access(root, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(10.0),
        );
        for _ in 0..width {
            tasks.push(
                TaskBuilder::new("STREAM")
                    .access(root, AccessMode::Read)
                    .cpu(|_| {})
                    .flops(10.0),
            );
        }
        Submission { tenant, tasks }
    }

    #[test]
    fn streamed_subdags_execute_exactly_once_with_cross_submission_deps() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let root = rt.register(vec![0.0], "root");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let stream: Vec<Submission> = (0..20).map(|i| forkjoin(i % 2, root, 3)).collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert_eq!(report.subdags_admitted, 20);
        assert_eq!(report.subdags_rejected, 0);
        assert_eq!(report.tasks_admitted, 20 * 4);
        assert_eq!(report.trace.tasks.len(), 20 * 4);
        // The root chain executed once per submission, in order.
        assert_eq!(rt.buffer(root)[0], 20.0);
        // Exactly-once + precedence over the final graph.
        let mut seen = vec![0usize; rt.graph().task_count()];
        for s in &report.trace.tasks {
            seen[s.task.index()] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn backpressure_rejects_whole_subdags_and_strands_nothing() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let root = rt.register(vec![0.0], "root");
        let mut cfg = StreamConfig::new(TenantSpec::equal(1));
        cfg.admission.max_in_flight = 8;
        // An instant driver against 5µs tasks: most submissions arrive
        // while the first ones are still in flight.
        let stream: Vec<Submission> = (0..40).map(|_| forkjoin(0, root, 3)).collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert!(report.subdags_rejected > 0, "driver outpaces 2 workers");
        assert_eq!(
            report.subdags_admitted + report.subdags_rejected,
            40,
            "every submission decided"
        );
        // Every admitted task executed exactly once; rejected sub-DAGs
        // left no trace in the graph.
        assert_eq!(report.tasks_admitted, rt.graph().task_count());
        assert_eq!(report.tasks_completed, report.tasks_admitted);
        assert_eq!(
            rt.buffer(root)[0] as u64,
            report.subdags_admitted,
            "root chain ran once per admitted submission"
        );
    }

    #[test]
    fn streamed_tasks_carry_weighted_priorities() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let a = rt.register(vec![0.0], "a");
        let b = rt.register(vec![0.0], "b");
        let cfg = StreamConfig::new(vec![
            TenantSpec::new("light", 1.0),
            TenantSpec::new("heavy", 4.0),
        ]);
        let stream = vec![
            Submission {
                tenant: 0,
                tasks: vec![TaskBuilder::new("STREAM")
                    .access(a, AccessMode::Write)
                    .cpu(|_| {})],
            },
            Submission {
                tenant: 1,
                tasks: vec![TaskBuilder::new("STREAM")
                    .access(b, AccessMode::Write)
                    .cpu(|_| {})],
            },
        ];
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete());
        let g = rt.graph();
        let light = report.admitted[0].as_ref().unwrap()[0];
        let heavy = report.admitted[1].as_ref().unwrap()[0];
        let f = FairnessConfig::default();
        assert_eq!(g.task(light).user_priority, f.resolution);
        assert_eq!(g.task(heavy).user_priority, 4 * f.resolution);
    }

    /// A warm-serving submission: a write-only root plus `width`
    /// readers. Write-only roots key independently of the prior
    /// version, so identical resubmissions on the same root hit.
    fn warm_sub(tenant: usize, root: mp_dag::ids::DataId, width: usize) -> Submission {
        let mut tasks = Vec::new();
        tasks.push(
            TaskBuilder::new("STREAM")
                .access(root, AccessMode::Write)
                .cpu(|ctx| ctx.w(0)[0] = 7.0)
                .flops(10.0),
        );
        for _ in 0..width {
            tasks.push(
                TaskBuilder::new("STREAM")
                    .access(root, AccessMode::Read)
                    .cpu(|_| {})
                    .flops(10.0),
            );
        }
        Submission { tenant, tasks }
    }

    #[test]
    fn warm_resubmission_bypasses_the_scheduler_on_the_threaded_path() {
        let mut rt = Runtime::new(homogeneous(4), model());
        rt.set_cache(Arc::new(mp_cache::ResultCache::new()));
        let r0 = rt.register(vec![0.0], "root0");
        let r1 = rt.register(vec![0.0], "root1");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let roots = [r0, r1];
        let stream: Vec<Submission> = (0..40).map(|i| warm_sub(i % 2, roots[i % 2], 3)).collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert_eq!(report.subdags_admitted, 40);
        assert_eq!(report.tasks_admitted, 160);
        assert_eq!(report.tasks_completed, 160);
        // One cold round per root — a writer and 3 readers each — then
        // every later release hits: the entry is always populated
        // before the WAR/WAW chain releases the resubmitted twin, so
        // the counts are exact despite the threading.
        assert_eq!(report.cache_misses, 8);
        assert_eq!(report.cache_hits, 152);
        // Hit tasks never reached the scheduler and record no span.
        assert_eq!(report.trace.tasks.len(), 8);
        assert_eq!(report.counters.tenant_cache_hits.iter().sum::<u64>(), 152);
        assert_eq!(
            report.counters.tenant_cache_hits,
            vec![76, 76],
            "both tenants warm equally"
        );
        assert_eq!(rt.buffer(r0)[0], 7.0);
        assert_eq!(rt.buffer(r1)[0], 7.0);
    }

    /// The same accounting with a wide identical fan-out: each
    /// submission's 32 readers share one cache key, so a release loop
    /// that pushed one reader before probing the next would let a fast
    /// worker populate the entry and turn later siblings into hits.
    #[test]
    fn warm_resubmission_with_wide_identical_fan_out_counts_exactly() {
        const WIDTH: usize = 32;
        let mut rt = Runtime::new(homogeneous(8), model());
        rt.set_cache(Arc::new(mp_cache::ResultCache::new()));
        let roots: Vec<DataId> = (0..4)
            .map(|i| rt.register(vec![0.0], &format!("root{i}")))
            .collect();
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let stream: Vec<Submission> = (0..40)
            .map(|i| warm_sub(i % 2, roots[i % 4], WIDTH))
            .collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        let per_sub = 1 + WIDTH as u64;
        assert_eq!(report.tasks_completed as u64, 40 * per_sub);
        // One cold round per root, every reader of it included.
        assert_eq!(report.cache_misses, 4 * per_sub);
        assert_eq!(report.cache_hits, 36 * per_sub);
        assert_eq!(report.trace.tasks.len() as u64, 4 * per_sub);
        assert_eq!(report.counters.tenant_cache_hits, vec![18 * per_sub; 2]);
    }

    #[test]
    fn cache_off_serving_reports_zero_cache_traffic() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let root = rt.register(vec![0.0], "root");
        let cfg = StreamConfig::new(TenantSpec::equal(1));
        let stream: Vec<Submission> = (0..10).map(|_| forkjoin(0, root, 2)).collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete());
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cache_misses, 0);
        assert_eq!(report.trace.tasks.len(), report.tasks_completed);
    }

    /// Threaded twin of the virtual-time engine's
    /// `starvation_aging_narrows_the_latency_gap`: the boost comes off
    /// the driver's virtual arrival clock and the completion ledger,
    /// never wall time, so with completions provably held back the
    /// boost ladder is exact and reproducible.
    #[test]
    fn virtual_clock_aging_boosts_starved_streamed_priorities() {
        // A gate keeps every kernel from finishing while the driver
        // commits, so the completion ledger cannot advance mid-stream.
        let gate = Arc::new(AtomicBool::new(false));
        let mut rt = Runtime::new(homogeneous(2), model());
        let d = rt.register(vec![0.0], "chain");
        let mut cfg = StreamConfig::new(TenantSpec::equal(1));
        cfg.arrival_gap_us = 50_000.0; // one aging quantum per arrival
        let stream: Vec<Submission> = (0..6)
            .map(|_| {
                let gate = gate.clone();
                Submission {
                    tenant: 0,
                    tasks: vec![TaskBuilder::new("STREAM")
                        .access(d, AccessMode::ReadWrite)
                        .cpu(move |ctx| {
                            while !gate.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                            ctx.w(0)[0] += 1.0;
                        })],
                }
            })
            .collect();
        let opener = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(200));
                gate.store(true, Ordering::Release);
            })
        };
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        opener.join().unwrap();
        assert!(report.is_complete(), "{:?}", report.error);
        let f = FairnessConfig::default();
        for (si, ids) in report.admitted.iter().enumerate() {
            let t = ids.as_ref().unwrap()[0];
            let expect = f.resolution + (si as i64).min(f.max_aging_boost);
            assert_eq!(
                rt.graph().task(t).user_priority,
                expect,
                "submission {si} should carry boost {}",
                expect - f.resolution
            );
        }
        assert_eq!(rt.buffer(d)[0], 6.0);
    }
}
