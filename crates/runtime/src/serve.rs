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
//!   reproducible.
//!
//! The driver runs on the calling thread; the workers are the batch
//! engine's ([`crate::engine`]), so a stream gets everything a batch run
//! gets: any [`ConcurrentScheduler`] front-end (global-lock, sharded,
//! relaxed), the result cache's release-time probe (a warm resubmission
//! of an identical sub-DAG costs no scheduler or queue capacity at all),
//! [`crate::FaultPlan`] injection, [`crate::RetryPolicy`] retries of
//! panicking or transiently failing kernels, and the observability
//! counters and events. A worker death that leaves some admitted or
//! later-committed task without a capable survivor ends the stream with
//! [`RunError::NoCapableWorker`]. The driver commits each admitted
//! sub-DAG under the core's write guard, so a completion can never race
//! the indegree snapshot of a commit. Bad input — no tenants, an unknown
//! tenant, a task no platform class can run, a task type re-registered
//! with other implementations — is refused with a typed [`RunError`]
//! before any thread spawns.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use mp_dag::ids::{TaskId, TaskTypeId};
use mp_sched::api::Scheduler;
use mp_sched::concurrent::{ConcurrentScheduler, GlobalLock};
pub use mp_serve::{AdmissionConfig, AdmitError, FairnessConfig, TenantSpec};

use mp_serve::effective_priority;
use mp_trace::{CounterSnapshot, RuntimeEvent, Trace};

use crate::engine::{RunError, Runtime, TaskBuilder};

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
    /// admitted/rejected/completed and the cache's per-run eviction and
    /// persistence deltas.
    pub counters: CounterSnapshot,
    /// Worker park/wake, cache and fault timeline. Empty unless built
    /// with `--features obs`.
    pub events: Vec<RuntimeEvent>,
    /// Why the stream aborted, if it did.
    pub error: Option<RunError>,
}

impl StreamReport {
    /// Did every admitted task complete?
    pub fn is_complete(&self) -> bool {
        self.error.is_none() && self.tasks_completed == self.tasks_admitted
    }
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

    /// Serve `stream` by driving `front` from one thread per platform
    /// worker while this thread plays the open-loop driver.
    pub fn serve_concurrent(
        &mut self,
        front: &dyn ConcurrentScheduler,
        cfg: &StreamConfig,
        stream: Vec<Submission>,
    ) -> Result<StreamReport, RunError> {
        self.check_stream(cfg, &stream)?;
        let nt = cfg.tenants.len();
        let (out, (admitted, rejections)) = self.execute(front, nt, |core, obs| {
            let mut admitted: Vec<Option<Vec<TaskId>>> = Vec::with_capacity(stream.len());
            let mut rejections: Vec<(usize, AdmitError)> = Vec::new();
            // Submissions are processed in order as fast as admission
            // allows; a rejection drops the submission and moves on.
            //
            // Starvation aging runs on the driver's virtual arrival
            // clock: submission `si` arrives at `si * arrival_gap_us`,
            // and a tenant's progress is read off the completion ledger
            // — the boost depends only on the arrival/completion
            // interleaving, never on wall time.
            let mut last_progress_v = vec![0.0f64; nt];
            let mut last_completed_seen = vec![0u64; nt];
            for (si, sub) in stream.into_iter().enumerate() {
                if core.aborted() {
                    admitted.push(None);
                    continue;
                }
                let ti = sub.tenant;
                let spec = &cfg.tenants[ti];
                let mut g = core.write();
                let tenant_in_flight = core.tenant_in_flight[ti].load(Ordering::Acquire);
                let boost = if cfg.arrival_gap_us > 0.0 {
                    let vnow = si as f64 * cfg.arrival_gap_us;
                    let done_now = core.tenant_completed[ti].load(Ordering::Acquire);
                    if done_now != last_completed_seen[ti] || tenant_in_flight == 0 {
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
                let decision =
                    cfg.admission
                        .check(ti, sub.tasks.len(), core.in_flight(), tenant_in_flight);
                // Register types first (idempotent, and checked
                // consistent before the stream started), then stage an
                // admitted submission's tasks and commit them at once.
                let ttypes: Vec<TaskTypeId> = sub
                    .tasks
                    .iter()
                    .map(|tb| {
                        let (cpu, gpu) = tb.impl_classes();
                        g.stf.graph_mut().register_type(&tb.ttype, cpu, gpu)
                    })
                    .collect();
                if let Err(err) = decision {
                    drop(g);
                    rejections.push((si, err));
                    admitted.push(None);
                    continue;
                }
                let sh = &mut *g;
                let first = sh.impls.len();
                let mut stage = sh.stf.begin_submission();
                for (tb, tt) in sub.tasks.into_iter().zip(ttypes) {
                    let prio = effective_priority(
                        spec.base_priority.saturating_add(tb.priority),
                        spec.weight,
                        &cfg.fairness,
                        boost,
                    );
                    let label = tb.label_or_type();
                    stage.submit_prio(tt, tb.accesses, tb.flops, prio, label);
                    sh.impls.push(tb.impls);
                }
                let ids = stage.commit();
                let last = sh.impls.len();
                debug_assert_eq!(ids.len(), last - first);
                core.commit(sh, first..last, ti, core.now_us(), obs);
                drop(g);
                admitted.push(Some(ids));
                core.notify();
            }
            (admitted, rejections)
        });

        let mut counters = out.report.counters;
        counters.tenant_admitted = out.tenant_admitted;
        counters.tenant_completed = out.tenant_completed;
        counters.tenant_cache_hits = out.tenant_cache_hits;
        counters.tenant_rejected = vec![0; nt];
        for (_, err) in &rejections {
            let ti = match err {
                AdmitError::Backpressure { tenant, .. }
                | AdmitError::TenantBackpressure { tenant, .. } => *tenant,
            };
            counters.tenant_rejected[ti] += 1;
        }
        Ok(StreamReport {
            scheduler: out.report.scheduler,
            makespan_us: out.report.makespan_us,
            trace: out.report.trace,
            subdags_admitted: admitted.iter().filter(|a| a.is_some()).count() as u64,
            subdags_rejected: rejections.len() as u64,
            admitted,
            rejections,
            tasks_admitted: out.tasks_admitted,
            tasks_completed: out.tasks_completed,
            cache_hits: out.cache_hits,
            cache_misses: out.cache_misses,
            counters,
            events: out.report.events,
            error: out.report.error,
        })
    }

    /// Refuse a stream that could never be served, before any thread
    /// spawns. A task's reported id is the index it would get with every
    /// earlier submission admitted.
    fn check_stream(&self, cfg: &StreamConfig, stream: &[Submission]) -> Result<(), RunError> {
        if let Some(err) = self.submit_error.clone() {
            return Err(err);
        }
        if cfg.tenants.is_empty() {
            return Err(RunError::NoTenants);
        }
        let graph = self.stf.graph();
        // Types the stream registers first, with their classes.
        let mut fresh: HashMap<&str, (bool, bool)> = HashMap::new();
        let mut next = graph.task_count();
        for (submission, sub) in stream.iter().enumerate() {
            if sub.tenant >= cfg.tenants.len() {
                return Err(RunError::UnknownTenant {
                    submission,
                    tenant: sub.tenant,
                    tenants: cfg.tenants.len(),
                });
            }
            for tb in &sub.tasks {
                let registered = graph
                    .type_id(&tb.ttype)
                    .map(|id| graph.task_type(id))
                    .map(|ty| (ty.cpu_impl, ty.gpu_impl))
                    .or_else(|| fresh.get(tb.ttype.as_str()).copied());
                if let Some(err) = tb.unusable(TaskId::from_index(next), &self.classes, registered)
                {
                    return Err(err);
                }
                fresh.entry(&tb.ttype).or_insert_with(|| tb.impl_classes());
                next += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    use mp_dag::access::AccessMode;
    use mp_dag::ids::DataId;
    use mp_perfmodel::{PerfModel, TableModel, TimeFn};
    use mp_platform::presets::homogeneous;
    use mp_platform::types::{ArchClass, WorkerId};
    use mp_sched::api::SchedView;
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

    /// A policy that panics when the driver pushes task `victim`: a
    /// stand-in for any panic on the driver thread.
    struct PanicOnDriverPush {
        inner: EagerPrioScheduler,
        victim: usize,
    }

    impl Scheduler for PanicOnDriverPush {
        fn name(&self) -> &'static str {
            "panic-on-driver-push"
        }

        fn push(&mut self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
            assert!(
                releaser.is_some() || t.index() != self.victim,
                "policy bug on the driver thread"
            );
            self.inner.push(t, releaser, view);
        }

        fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
            self.inner.pop(w, view)
        }

        fn pending(&self) -> usize {
            self.inner.pending()
        }
    }

    /// Regression: a panic on the driver thread once deadlocked the
    /// process — `thread::scope` joined workers parked waiting for a
    /// stream close that never came. The drop guard now closes the
    /// stream and wakes the workers on every driver exit, so `serve`
    /// unwinds instead of hanging; the watchdog turns a recurrence into
    /// a test failure instead of a hung suite.
    #[test]
    fn driver_panic_closes_the_stream_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut rt = Runtime::new(homogeneous(2), model());
            let a = rt.register(vec![0.0], "a");
            let b = rt.register(vec![0.0], "b");
            let cfg = StreamConfig::new(TenantSpec::equal(1));
            let one = |d| Submission {
                tenant: 0,
                tasks: vec![TaskBuilder::new("STREAM")
                    .access(d, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)],
            };
            let sched = PanicOnDriverPush {
                inner: EagerPrioScheduler::new(),
                victim: 1,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.serve(Box::new(sched), &cfg, vec![one(a), one(b)])
            }));
            let _ = tx.send(outcome.is_err());
        });
        let unwound = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("serve hung after a driver panic");
        assert!(unwound, "the driver panic propagates out of serve");
    }

    fn one_task(tenant: usize, ttype: &str, d: DataId) -> Submission {
        Submission {
            tenant,
            tasks: vec![TaskBuilder::new(ttype)
                .access(d, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)],
        }
    }

    #[test]
    fn empty_tenant_list_is_a_typed_error() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let d = rt.register(vec![0.0], "d");
        let cfg = StreamConfig::new(Vec::new());
        let err = rt
            .serve(
                Box::new(EagerPrioScheduler::new()),
                &cfg,
                vec![one_task(0, "STREAM", d)],
            )
            .expect_err("no tenants");
        assert_eq!(err, RunError::NoTenants);
        assert_eq!(rt.graph().task_count(), 0);
    }

    #[test]
    fn out_of_range_tenant_is_a_typed_error() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let d = rt.register(vec![0.0], "d");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let stream = vec![one_task(1, "STREAM", d), one_task(5, "STREAM", d)];
        let err = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect_err("unknown tenant");
        assert_eq!(
            err,
            RunError::UnknownTenant {
                submission: 1,
                tenant: 5,
                tenants: 2
            }
        );
        assert_eq!(rt.graph().task_count(), 0, "refused before anything ran");
    }

    #[test]
    fn streamed_task_without_implementations_is_a_typed_error() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let d = rt.register(vec![0.0], "d");
        let cfg = StreamConfig::new(TenantSpec::equal(1));
        let bare = Submission {
            tenant: 0,
            tasks: vec![TaskBuilder::new("BARE").access(d, AccessMode::Read)],
        };
        let err = rt
            .serve(
                Box::new(EagerPrioScheduler::new()),
                &cfg,
                vec![one_task(0, "STREAM", d), bare],
            )
            .expect_err("no implementation");
        assert!(
            matches!(err, RunError::NoUsableImpl { task, .. } if task == TaskId::from_index(1)),
            "got {err:?}"
        );
    }

    /// The reproduction: submission 0 registers `K` CPU-only, then
    /// submission 1 re-registers it with a GPU implementation. This used
    /// to panic inside `TaskGraph::register_type` under the driver's
    /// write guard.
    #[test]
    fn re_registered_task_type_is_a_typed_error() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let d = rt.register(vec![0.0], "d");
        let cfg = StreamConfig::new(TenantSpec::equal(1));
        let gpu_too = Submission {
            tenant: 0,
            tasks: vec![TaskBuilder::new("K")
                .access(d, AccessMode::ReadWrite)
                .cpu(|_| {})
                .gpu(|_| {})],
        };
        let err = rt
            .serve(
                Box::new(EagerPrioScheduler::new()),
                &cfg,
                vec![one_task(0, "K", d), gpu_too],
            )
            .expect_err("mismatched re-registration");
        assert_eq!(
            err,
            RunError::ImplMismatch {
                task: TaskId::from_index(1),
                ttype: "K".into()
            }
        );
        assert_eq!(rt.graph().task_count(), 0, "refused before anything ran");
        assert!(rt.graph().type_id("K").is_none(), "no type registered");
    }

    /// Threaded twin of `serve_sim`'s delta test: the stream reports the
    /// cache's persist writes and evictions of this run.
    #[test]
    fn cache_eviction_and_persist_deltas_reach_the_stream_counters() {
        let dir = std::env::temp_dir().join(format!("mp-rt-serve-deltas-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(mp_cache::ResultCache::new());
        cache.persist_to(&dir).expect("attach log");
        let serve_cold = |cache: &Arc<mp_cache::ResultCache>| {
            let mut rt = Runtime::new(homogeneous(2), model());
            rt.set_cache(Arc::clone(cache));
            let roots: Vec<DataId> = (0..4)
                .map(|i| rt.register(vec![0.0], &format!("root{i}")))
                .collect();
            let cfg = StreamConfig::new(TenantSpec::equal(2));
            let stream = (0..8).map(|i| warm_sub(i % 2, roots[i % 4], 2)).collect();
            rt.serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
                .expect("serve failed")
        };
        let report = serve_cold(&cache);
        assert!(report.is_complete(), "{:?}", report.error);
        // One record per executed (missed) task.
        let executed = report.trace.tasks.len() as u64;
        assert_eq!(report.cache_misses, executed);
        assert_eq!(report.counters.cache_persist_writes, executed);
        let _ = std::fs::remove_dir_all(&dir);

        let capped = Arc::new(mp_cache::ResultCache::with_capacity(64));
        let report = serve_cold(&capped);
        assert!(report.is_complete(), "{:?}", report.error);
        assert!(
            report.counters.cache_evictions > 0,
            "a 64-byte cache evicts"
        );
        assert_eq!(report.counters.cache_evictions, capped.evictions());
    }
}
