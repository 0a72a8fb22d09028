//! The virtual-time open-loop serving engine.
//!
//! A discrete-event loop over two event kinds — sub-DAG **arrivals**
//! (from a deterministic [`ArrivalProcess`]) and task **finishes** —
//! drives any sequential [`mp_sched::Scheduler`] against a graph that
//! grows *while it is being executed*:
//!
//! * each arrival stages one fork-join sub-DAG for its tenant through
//!   [`mp_dag::SubmissionStage`]; consecutive sub-DAGs of a tenant reuse
//!   the tenant's data handles, so cross-submission RAW/WAR/WAW edges
//!   resolve by data identity exactly as in the batch STF path;
//! * admission ([`AdmissionConfig`]) rejects a staged sub-DAG whole when
//!   in-flight bounds would overflow — the stage is dropped untouched,
//!   so later submissions still chain onto the last *admitted* writer;
//! * admitted tasks get their [`effective_priority`] (tenant weight ×
//!   base, plus starvation aging) before commit;
//! * task durations come from the performance model via the same
//!   [`Estimator`] the batch engines use; workers are busy-until slots.
//!
//! Everything is a pure function of `(platform, model, scheduler
//! policy, config)`: no wall clock, no ambient RNG — repeat runs are
//! bit-identical, which [`crate::ServeReport::schedule_hash`] makes
//! checkable in one comparison.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mp_cache::{Lookup, PersistStats, ResultCache};
use mp_dag::access::AccessMode;
use mp_dag::hash;
use mp_dag::ids::{DataId, TaskId, TaskTypeId};
use mp_dag::stf::StfBuilder;
use mp_perfmodel::{Estimator, PerfModel};
use mp_platform::types::{MemNodeId, Platform, WorkerId};
use mp_sched::api::{DataLocator, LoadInfo, SchedEvent, SchedView, Scheduler};
use mp_trace::{CounterSnapshot, LatencyStats};

use crate::admission::AdmissionConfig;
use crate::arrival::ArrivalProcess;
use crate::report::{ServeReport, TenantStats};
use crate::tenant::{effective_priority, FairnessConfig, TenantSpec};

/// Shape of the sub-DAG one arrival submits: a fork-join of
/// `1 + width + 1` tasks (root writer → `width` parallel readers → join)
/// over the tenant's persistent handles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubDagShape {
    /// Parallel middle tasks per submission.
    pub width: usize,
    /// Work estimate per task (feeds rate-based models).
    pub flops: f64,
    /// Handle-pool slots per tenant: submission `s` of a tenant uses
    /// slot `s % pool`, so up to `pool` of its sub-DAGs can be in
    /// flight concurrently while every `pool`-th submission still
    /// chains on its predecessor by data identity (RAW/WAR/WAW on the
    /// slot's handles).
    pub pool: usize,
    /// Fraction of submissions whose flops are deterministically
    /// perturbed (drawn per arrival index from [`ServeConfig::seed`]).
    /// Flops are part of the cache fingerprint, so a mutated
    /// submission's whole sub-DAG re-executes under warm serving —
    /// `0.0` (the default) streams bit-identical resubmissions.
    pub mutation_frac: f64,
}

impl Default for SubDagShape {
    fn default() -> Self {
        Self {
            width: 4,
            flops: 1000.0,
            pool: 4,
            mutation_frac: 0.0,
        }
    }
}

/// Full configuration of one serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The tenants submitting work (round-robin over arrivals).
    pub tenants: Vec<TenantSpec>,
    /// Priority-weighting fairness layer.
    pub fairness: FairnessConfig,
    /// Admission bounds.
    pub admission: AdmissionConfig,
    /// Open-loop arrival process.
    pub arrivals: ArrivalProcess,
    /// Total sub-DAG submissions to inject.
    pub submissions: usize,
    /// Shape of each submitted sub-DAG.
    pub subdag: SubDagShape,
    /// Seed of every deterministic draw (arrival gaps).
    pub seed: u64,
}

impl ServeConfig {
    /// A run of `submissions` sub-DAGs from `tenants` under `arrivals`,
    /// with default fairness/admission/shape knobs.
    pub fn new(tenants: Vec<TenantSpec>, arrivals: ArrivalProcess, submissions: usize) -> Self {
        Self {
            tenants,
            fairness: FairnessConfig::default(),
            admission: AdmissionConfig::default(),
            arrivals,
            submissions,
            subdag: SubDagShape::default(),
            seed: 0x5EED_5E12_7E00_0001,
        }
    }
}

/// Why a serving run stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The scheduler held back every pending task past the re-poll
    /// budget with no event left to make progress — a policy hold-back
    /// bug (or a task no worker can execute).
    Stalled {
        /// Admitted-but-incomplete tasks at the stall.
        pending: usize,
        /// Tasks completed before the stall.
        completed: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Stalled { pending, completed } => write!(
                f,
                "serving run stalled with {pending} task(s) pending after {completed} completion(s)"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Unified-memory locality (mirrors the threaded runtime): every handle
/// is resident everywhere, so locality heuristics see a flat world.
struct Unified;

impl DataLocator for Unified {
    fn is_on(&self, _d: DataId, _m: MemNodeId) -> bool {
        true
    }

    fn holders(&self, _d: DataId) -> Vec<MemNodeId> {
        vec![MemNodeId(0)]
    }
}

/// Busy-until table in virtual µs (f64 bits; atomics only because the
/// [`LoadInfo`] trait takes `&self`).
struct Loads(Vec<AtomicU64>);

impl Loads {
    fn new(n: usize) -> Self {
        Self((0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect())
    }

    fn set(&self, w: usize, v: f64) {
        self.0[w].store(v.to_bits(), Ordering::Relaxed);
    }
}

impl LoadInfo for Loads {
    fn busy_until(&self, w: WorkerId) -> f64 {
        f64::from_bits(self.0[w.index()].load(Ordering::Relaxed))
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum EvKind {
    /// Arrival `k` of the precomputed open-loop sequence.
    Arrival(u32),
    /// Worker `wi` finishes task `t` started at `started` µs.
    Finish { wi: u32, t: TaskId, started: f64 },
}

#[derive(Clone, Copy, Debug)]
struct Ev {
    at: f64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at.to_bits() == other.at.to_bits() && self.seq == other.seq
    }
}

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Bounded re-poll when the scheduler holds back work with no event
/// left: virtual time advances by this quantum per attempt.
const REPOLL_US: f64 = 100.0;
const MAX_REPOLLS: usize = 100_000;

struct Engine<'e> {
    platform: &'e Platform,
    model: &'e dyn PerfModel,
    cfg: &'e ServeConfig,
    /// Shared result cache (`None` = caching off, bit-identical to the
    /// pre-cache engine).
    cache: Option<&'e ResultCache>,
    stf: StfBuilder,
    loc: Unified,
    load: Loads,
    idle: Vec<bool>,
    /// Per-task state, indexed by task index (grown at commit).
    indeg: Vec<usize>,
    done: Vec<bool>,
    ready_at: Vec<f64>,
    tenant_of: Vec<u32>,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    admitted_tasks: u64,
    completed_tasks: u64,
    tenant_in_flight: Vec<usize>,
    /// Virtual instant of the tenant's last progress mark (completion,
    /// or admission while its pipeline was empty) — the starvation-aging
    /// reference point.
    last_progress: Vec<f64>,
    tstats: Vec<TenantStats>,
    latency: LatencyStats,
    samples: Vec<u64>,
    decisions: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    /// The cache's lifetime eviction count and persistence counters at
    /// engine start: the cache outlives runs, so this run's share is the
    /// delta at report time.
    cache_evictions_at_start: u64,
    cache_persist_at_start: PersistStats,
    schedule_hash: u64,
    makespan: f64,
    ttype: TaskTypeId,
    /// `slots[tenant][slot]` — the persistent handles one sub-DAG
    /// instance of that tenant writes through.
    slots: Vec<Vec<SlotHandles>>,
    /// Arrivals seen per tenant (admitted or not) — drives the slot
    /// rotation deterministically.
    arrivals_seen: Vec<u64>,
}

struct SlotHandles {
    root: DataId,
    outs: Vec<DataId>,
    join: DataId,
}

impl<'e> Engine<'e> {
    fn new(
        platform: &'e Platform,
        model: &'e dyn PerfModel,
        cfg: &'e ServeConfig,
        cache: Option<&'e ResultCache>,
    ) -> Self {
        assert!(!cfg.tenants.is_empty(), "serving needs at least one tenant");
        let nw = platform.worker_count();
        let mut stf = StfBuilder::new();
        let ttype = stf.graph_mut().register_type("SRV", true, true);
        let nt = cfg.tenants.len();
        let pool = cfg.subdag.pool.max(1);
        let mut slots = Vec::with_capacity(nt);
        for t in &cfg.tenants {
            let tenant_slots = (0..pool)
                .map(|s| SlotHandles {
                    root: stf
                        .graph_mut()
                        .add_data(1024, format!("{}.{s}.root", t.name)),
                    outs: (0..cfg.subdag.width)
                        .map(|i| {
                            stf.graph_mut()
                                .add_data(1024, format!("{}.{s}.o{i}", t.name))
                        })
                        .collect(),
                    join: stf
                        .graph_mut()
                        .add_data(1024, format!("{}.{s}.join", t.name)),
                })
                .collect::<Vec<_>>();
            slots.push(tenant_slots);
        }
        let tstats = cfg
            .tenants
            .iter()
            .map(|t| TenantStats {
                name: t.name.clone(),
                weight: t.weight,
                ..TenantStats::default()
            })
            .collect();
        Self {
            platform,
            model,
            cfg,
            cache,
            stf,
            loc: Unified,
            load: Loads::new(nw),
            idle: vec![true; nw],
            indeg: Vec::new(),
            done: Vec::new(),
            ready_at: Vec::new(),
            tenant_of: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            admitted_tasks: 0,
            completed_tasks: 0,
            tenant_in_flight: vec![0; nt],
            last_progress: vec![0.0; nt],
            tstats,
            latency: LatencyStats::default(),
            samples: Vec::new(),
            decisions: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations: 0,
            cache_evictions_at_start: cache.map_or(0, ResultCache::evictions),
            cache_persist_at_start: cache.map(ResultCache::persist_stats).unwrap_or_default(),
            schedule_hash: hash::FNV_OFFSET,
            makespan: 0.0,
            ttype,
            slots,
            arrivals_seen: vec![0; nt],
        }
    }

    fn push_event(&mut self, at: f64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev { at, seq, kind }));
    }

    fn view(&self, now: f64) -> SchedView<'_> {
        SchedView {
            est: Estimator::new(self.stf.graph(), self.platform, self.model),
            loc: &self.loc,
            load: &self.load,
            now,
        }
    }

    fn in_flight(&self) -> usize {
        (self.admitted_tasks - self.completed_tasks) as usize
    }

    fn fold_decision(&mut self, t: TaskId, wi: usize, now: f64) {
        for word in [t.index() as u64, wi as u64, now.to_bits()] {
            self.schedule_hash ^= word;
            self.schedule_hash = self.schedule_hash.wrapping_mul(hash::FNV_PRIME);
        }
    }

    /// One arrival: stage the tenant's sub-DAG, decide admission, commit
    /// with effective priorities, push newly-ready tasks.
    fn on_arrival(&mut self, sched: &mut dyn Scheduler, k: usize, now: f64) {
        let ti = k % self.cfg.tenants.len();
        let slot = (self.arrivals_seen[ti] % self.slots[ti].len() as u64) as usize;
        self.arrivals_seen[ti] += 1;
        let width = self.cfg.subdag.width;
        let n_tasks = width + 2;
        let decision =
            self.cfg
                .admission
                .check(ti, n_tasks, self.in_flight(), self.tenant_in_flight[ti]);
        if decision.is_err() {
            self.tstats[ti].subdags_rejected += 1;
            return;
        }
        let boost = if self.tenant_in_flight[ti] > 0 {
            self.cfg.fairness.aging_boost(now - self.last_progress[ti])
        } else {
            self.last_progress[ti] = now;
            0
        };
        let spec = &self.cfg.tenants[ti];
        let eff = effective_priority(spec.base_priority, spec.weight, &self.cfg.fairness, boost);
        // Flops feed the fingerprint, so a mutated arrival is a cache
        // miss over its whole sub-DAG. The perturbation is drawn per
        // arrival index — a constant offset (as `resubmit_with_mutation`
        // uses on closed DAGs) would make all mutated arrivals a second
        // warm family that hits itself.
        let mutate = self.cfg.subdag.mutation_frac > 0.0
            && mp_fault::unit(self.cfg.seed, k as u64, 0xCACE) < self.cfg.subdag.mutation_frac;
        let flops = if mutate {
            self.cfg.subdag.flops * (1.0625 + mp_fault::unit(self.cfg.seed, k as u64, 0xF10)) + 1.0
        } else {
            self.cfg.subdag.flops
        };
        let sh = &self.slots[ti][slot];
        let (ttype, root, join) = (self.ttype, sh.root, sh.join);
        let outs = sh.outs.clone();
        let mut stage = self.stf.begin_submission();
        stage.submit_prio(
            ttype,
            vec![(root, AccessMode::Write)],
            flops,
            eff,
            format!("t{ti}.s{k}.root"),
        );
        for (i, &o) in outs.iter().enumerate() {
            stage.submit_prio(
                ttype,
                vec![(root, AccessMode::Read), (o, AccessMode::Write)],
                flops,
                eff,
                format!("t{ti}.s{k}.mid{i}"),
            );
        }
        let mut join_acc: Vec<(DataId, AccessMode)> =
            outs.iter().map(|&o| (o, AccessMode::Read)).collect();
        join_acc.push((join, AccessMode::Write));
        stage.submit_prio(ttype, join_acc, flops, eff, format!("t{ti}.s{k}.join"));
        let ids = stage.commit();
        debug_assert_eq!(ids.len(), n_tasks);

        self.tstats[ti].subdags_admitted += 1;
        self.tstats[ti].tasks_admitted += ids.len() as u64;
        self.admitted_tasks += ids.len() as u64;
        self.tenant_in_flight[ti] += ids.len();
        let mut ready = Vec::new();
        for &t in &ids {
            debug_assert_eq!(t.index(), self.indeg.len());
            let open_preds = self
                .stf
                .graph()
                .preds(t)
                .iter()
                .filter(|p| !self.done[p.index()])
                .count();
            self.indeg.push(open_preds);
            self.done.push(false);
            self.ready_at.push(now);
            self.tenant_of.push(ti as u32);
            if open_preds == 0 {
                ready.push(t);
            }
        }
        for t in ready {
            self.release(sched, t, None, now);
        }
    }

    /// Release a task whose dependencies are all met: probe the result
    /// cache first (when one is installed) and complete verified hits
    /// in place — never pushed, popped or estimated, no latency sample
    /// — draining the cascade of successors those completions release.
    /// Misses (and every task when caching is off) go to the scheduler
    /// exactly as before.
    fn release(&mut self, sched: &mut dyn Scheduler, t: TaskId, from: Option<WorkerId>, now: f64) {
        let mut work = vec![(t, from)];
        while let Some((t, from)) = work.pop() {
            self.ready_at[t.index()] = now;
            if !self.probe_hit(t) {
                let view = self.view(now);
                sched.push(t, from, &view);
                continue;
            }
            // Verified hit: completes at `now` with zero virtual cost.
            self.done[t.index()] = true;
            self.completed_tasks += 1;
            let ti = self.tenant_of[t.index()] as usize;
            self.tstats[ti].tasks_completed += 1;
            self.tstats[ti].cache_hits += 1;
            self.tenant_in_flight[ti] -= 1;
            self.last_progress[ti] = now;
            self.makespan = now;
            let succs: Vec<TaskId> = self.stf.graph().succs(t).to_vec();
            for s in succs {
                self.indeg[s.index()] -= 1;
                if self.indeg[s.index()] == 0 {
                    work.push((s, None));
                }
            }
        }
    }

    /// Probe the cache for `t` (`need_payload = false`: virtual time
    /// materializes no bytes). Counts every outcome; `true` on a
    /// verified hit.
    fn probe_hit(&mut self, t: TaskId) -> bool {
        let Some(cache) = self.cache else {
            return false;
        };
        match self
            .stf
            .graph()
            .cache_meta(t)
            .map(|m| cache.lookup(m, false))
        {
            Some(Lookup::Hit(_)) => {
                self.cache_hits += 1;
                true
            }
            Some(Lookup::Invalidated) => {
                self.cache_invalidations += 1;
                self.cache_misses += 1;
                false
            }
            _ => {
                // No entry — or no metadata at all (such tasks can
                // never hit).
                self.cache_misses += 1;
                false
            }
        }
    }

    /// One task completion: publish it to the policy, release
    /// successors, free the worker.
    fn on_finish(
        &mut self,
        sched: &mut dyn Scheduler,
        wi: usize,
        t: TaskId,
        started: f64,
        now: f64,
    ) {
        self.done[t.index()] = true;
        self.completed_tasks += 1;
        let ti = self.tenant_of[t.index()] as usize;
        self.tstats[ti].tasks_completed += 1;
        self.tenant_in_flight[ti] -= 1;
        self.last_progress[ti] = now;
        self.makespan = now;
        self.idle[wi] = true;
        // Populate the result cache (payload-less: virtual time has no
        // bytes — the threaded runtime stores real buffers).
        if let Some(cache) = self.cache {
            if let Some(meta) = self.stf.graph().cache_meta(t) {
                let g = self.stf.graph();
                let bytes: u64 = g
                    .task(t)
                    .accesses
                    .iter()
                    .filter(|a| a.mode.writes())
                    .map(|a| g.data_desc(a.data).size)
                    .sum();
                cache.insert(meta, None, bytes);
            }
        }
        if sched.consumes_feedback() {
            let view = self.view(now);
            sched.feedback(
                &SchedEvent::TaskFinished {
                    t,
                    w: WorkerId::from_index(wi),
                    elapsed_us: now - started,
                },
                &view,
            );
        }
        let succs: Vec<TaskId> = self.stf.graph().succs(t).to_vec();
        for s in succs {
            self.indeg[s.index()] -= 1;
            if self.indeg[s.index()] == 0 {
                self.release(sched, s, Some(WorkerId::from_index(wi)), now);
            }
        }
    }

    /// Hand tasks to idle workers until no pop succeeds.
    fn try_assign(&mut self, sched: &mut dyn Scheduler, now: f64) {
        loop {
            let mut assigned = false;
            for wi in 0..self.idle.len() {
                if !self.idle[wi] {
                    continue;
                }
                let w = WorkerId::from_index(wi);
                let popped = {
                    let view = self.view(now);
                    sched.pop(w, &view)
                };
                let Some(t) = popped else { continue };
                let arch = self.platform.worker(w).arch;
                let dt = {
                    let view = self.view(now);
                    view.est.delta_or_mean(t, arch).us()
                };
                let lat_us = (now - self.ready_at[t.index()]).max(0.0).round() as u64;
                self.latency.record(lat_us);
                self.samples.push(lat_us);
                let ti = self.tenant_of[t.index()] as usize;
                self.tstats[ti].latency.record(lat_us);
                self.decisions += 1;
                self.fold_decision(t, wi, now);
                self.idle[wi] = false;
                self.load.set(wi, now + dt);
                if sched.consumes_feedback() {
                    let view = self.view(now);
                    sched.feedback(&SchedEvent::TaskStarted { t, w }, &view);
                }
                self.push_event(
                    now + dt,
                    EvKind::Finish {
                        wi: wi as u32,
                        t,
                        started: now,
                    },
                );
                assigned = true;
            }
            if !assigned {
                return;
            }
        }
    }

    /// The scheduler returned `None` everywhere but work is pending and
    /// no event is left: advance virtual time in bounded quanta (policy
    /// hold-backs can expire by time alone). Returns `false` on stall.
    fn repoll(&mut self, sched: &mut dyn Scheduler, from: f64) -> bool {
        let mut now = from;
        for _ in 0..MAX_REPOLLS {
            now += REPOLL_US;
            self.try_assign(sched, now);
            if !self.heap.is_empty() {
                return true;
            }
        }
        false
    }

    fn into_report(self, scheduler: String, error: Option<ServeError>) -> ServeReport {
        let nt = self.cfg.tenants.len();
        let mut counters = CounterSnapshot {
            tenant_admitted: vec![0; nt],
            tenant_rejected: vec![0; nt],
            tenant_completed: vec![0; nt],
            ..Default::default()
        };
        for (ti, ts) in self.tstats.iter().enumerate() {
            counters.tenant_admitted[ti] = ts.tasks_admitted;
            counters.tenant_rejected[ti] = ts.subdags_rejected;
            counters.tenant_completed[ti] = ts.tasks_completed;
        }
        counters.cache_hits = self.cache_hits;
        counters.cache_misses = self.cache_misses;
        counters.cache_invalidations = self.cache_invalidations;
        if let Some(rc) = self.cache {
            counters.cache_evictions = rc.evictions() - self.cache_evictions_at_start;
            let (ps, at_start) = (rc.persist_stats(), self.cache_persist_at_start);
            counters.cache_persist_writes = ps.writes - at_start.writes;
            counters.cache_loaded = ps.loaded - at_start.loaded;
            counters.cache_load_rejects = ps.load_rejects - at_start.load_rejects;
            counters.cache_compactions = ps.compactions - at_start.compactions;
        }
        ServeReport {
            scheduler,
            workers: self.platform.worker_count(),
            arrivals: self.cfg.arrivals.label(),
            makespan_us: self.makespan,
            decisions: self.decisions,
            tasks_admitted: self.admitted_tasks,
            tasks_completed: self.completed_tasks,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            subdags_admitted: self.tstats.iter().map(|t| t.subdags_admitted).sum(),
            subdags_rejected: self.tstats.iter().map(|t| t.subdags_rejected).sum(),
            latency: self.latency,
            samples_us: self.samples,
            tenants: self.tstats,
            counters,
            schedule_hash: self.schedule_hash,
            error,
            sorted: OnceLock::new(),
        }
    }
}

/// Run one open-loop serving session in virtual time (see module docs).
/// Deterministic: equal inputs produce a bit-identical [`ServeReport`].
/// Equivalent to [`serve_sim_cached`] with caching off.
pub fn serve_sim(
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Scheduler,
    cfg: &ServeConfig,
) -> ServeReport {
    serve_sim_cached(platform, model, sched, cfg, None)
}

/// [`serve_sim`] with an optional shared [`ResultCache`]: every task
/// released with all dependencies met probes the cache first, and a
/// verified hit completes at the release instant without ever entering
/// the scheduler (no push/pop/estimate, no latency sample, no decision
/// fold) — cascades of all-hit successors drain in the same instant.
/// Completed tasks populate the cache payload-less, so a warm
/// resubmission of an identical sub-DAG over the same tenant slot hits
/// end to end. With `cache: None` the run is bit-identical to the
/// pre-cache engine.
pub fn serve_sim_cached(
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Scheduler,
    cfg: &ServeConfig,
    cache: Option<&ResultCache>,
) -> ServeReport {
    let mut eng = Engine::new(platform, model, cfg, cache);
    let times = cfg.arrivals.times_us(cfg.submissions, cfg.seed);
    for (k, &at) in times.iter().enumerate() {
        eng.push_event(at, EvKind::Arrival(k as u32));
    }
    let mut error = None;
    while let Some(Reverse(ev)) = eng.heap.pop() {
        let now = ev.at;
        match ev.kind {
            EvKind::Arrival(k) => eng.on_arrival(sched, k as usize, now),
            EvKind::Finish { wi, t, started } => eng.on_finish(sched, wi as usize, t, started, now),
        }
        eng.try_assign(sched, now);
        if eng.heap.is_empty()
            && eng.completed_tasks < eng.admitted_tasks
            && !eng.repoll(sched, now)
        {
            error = Some(ServeError::Stalled {
                pending: eng.in_flight(),
                completed: eng.completed_tasks,
            });
            break;
        }
    }
    eng.into_report(sched.name().to_string(), error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_perfmodel::{TableModel, TimeFn};
    use mp_platform::presets::homogeneous;
    use mp_platform::types::ArchClass;
    use mp_sched::EagerPrioScheduler;

    fn model() -> TableModel {
        TableModel::builder()
            .set("SRV", ArchClass::Cpu, TimeFn::Const(25.0))
            .build()
    }

    fn run(cfg: &ServeConfig, workers: usize) -> ServeReport {
        let platform = homogeneous(workers);
        let model = model();
        let mut sched = EagerPrioScheduler::new();
        serve_sim(&platform, &model, &mut sched, cfg)
    }

    #[test]
    fn open_loop_run_completes_and_is_deterministic() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(3),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            200,
        );
        let a = run(&cfg, 8);
        let b = run(&cfg, 8);
        assert!(a.is_complete(), "error: {:?}", a.error);
        assert_eq!(a.tasks_completed, a.tasks_admitted);
        assert!(a.decisions > 0 && a.makespan_us > 0.0);
        // Bit-identical repeat.
        assert_eq!(a.schedule_hash, b.schedule_hash);
        assert_eq!(a.samples_us, b.samples_us);
        assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
        // Latency accounting covers every decision.
        assert_eq!(a.latency.count, a.decisions);
        assert_eq!(a.samples_us.len() as u64, a.decisions);
    }

    #[test]
    fn overload_rejects_with_backpressure_but_strands_nothing() {
        let mut cfg = ServeConfig::new(
            TenantSpec::equal(2),
            ArrivalProcess::Bursty {
                rate_per_sec: 50_000.0,
                burst: 16,
            },
            400,
        );
        cfg.admission.max_in_flight = 48;
        let r = run(&cfg, 2);
        assert!(r.subdags_rejected > 0, "expected backpressure rejections");
        // Every *admitted* task still completed: rejections never strand
        // an admitted predecessor.
        assert!(r.is_complete(), "error: {:?}", r.error);
        assert_eq!(
            r.subdags_admitted + r.subdags_rejected,
            cfg.submissions as u64
        );
        // In-flight never exceeded the high-water mark: each admitted
        // sub-DAG fits the bound by construction of the check.
        assert!(r.tasks_admitted >= r.subdags_admitted * 6);
    }

    #[test]
    fn heavier_tenant_sees_lower_scheduling_latency_under_saturation() {
        let mut cfg = ServeConfig::new(
            vec![TenantSpec::new("heavy", 8.0), TenantSpec::new("light", 1.0)],
            ArrivalProcess::Poisson {
                rate_per_sec: 40_000.0,
            },
            600,
        );
        cfg.admission.max_in_flight = 2048;
        // Aging off: measure pure weight separation.
        cfg.fairness.aging_quantum_us = 0.0;
        let r = run(&cfg, 4);
        assert!(r.is_complete(), "error: {:?}", r.error);
        let heavy = &r.tenants[0];
        let light = &r.tenants[1];
        assert!(heavy.tasks_completed > 0 && light.tasks_completed > 0);
        assert!(
            heavy.latency.mean_us() < light.latency.mean_us(),
            "weighted tenant should be scheduled first under saturation: \
             heavy {:.1}µs vs light {:.1}µs",
            heavy.latency.mean_us(),
            light.latency.mean_us()
        );
    }

    #[test]
    fn starvation_aging_narrows_the_latency_gap() {
        let base = {
            let mut cfg = ServeConfig::new(
                vec![TenantSpec::new("heavy", 8.0), TenantSpec::new("light", 1.0)],
                ArrivalProcess::Poisson {
                    rate_per_sec: 40_000.0,
                },
                600,
            );
            cfg.admission.max_in_flight = 2048;
            cfg.fairness.aging_quantum_us = 0.0;
            cfg
        };
        let mut aged = base.clone();
        aged.fairness.aging_quantum_us = 200.0;
        aged.fairness.max_aging_boost = 64;
        let r0 = run(&base, 4);
        let r1 = run(&aged, 4);
        assert!(r0.is_complete() && r1.is_complete());
        let gap = |r: &ServeReport| r.tenants[1].latency.mean_us() - r.tenants[0].latency.mean_us();
        assert!(
            gap(&r1) < gap(&r0),
            "aging should narrow the starved tenant's latency gap: \
             {:.1}µs (aged) vs {:.1}µs (no aging)",
            gap(&r1),
            gap(&r0)
        );
    }

    #[test]
    fn warm_resubmission_hits_the_cache_and_skips_the_scheduler() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(3),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            200,
        );
        let platform = homogeneous(8);
        let model = model();
        let cache = mp_cache::ResultCache::new();
        let mut sched = EagerPrioScheduler::new();
        let r = serve_sim_cached(&platform, &model, &mut sched, &cfg, Some(&cache));
        assert!(r.is_complete(), "error: {:?}", r.error);
        // Serve roots are write-only, so submission s and s+pool on the
        // same tenant slot key identically: after one cold round per
        // (tenant, slot) — 3 tenants × 4 slots × 6 tasks — everything
        // hits, in the same single run.
        let cold = 3 * 4 * 6;
        assert_eq!(r.cache_misses, cold);
        assert_eq!(r.cache_hits, r.tasks_admitted - cold);
        assert!(
            r.cache_hits as f64 >= 0.9 * r.tasks_admitted as f64,
            "hits {} of {}",
            r.cache_hits,
            r.tasks_admitted
        );
        // Hit tasks never entered the scheduler: decisions and latency
        // samples cover only the cold misses.
        assert_eq!(r.decisions, r.cache_misses);
        assert_eq!(r.samples_us.len() as u64, r.decisions);
        assert_eq!(r.latency.count, r.decisions);
        // Per-tenant hit accounting adds up, and hits are a subset of
        // completions.
        assert_eq!(
            r.tenants.iter().map(|t| t.cache_hits).sum::<u64>(),
            r.cache_hits
        );
        for t in &r.tenants {
            assert!(t.cache_hits <= t.tasks_completed);
        }
        assert_eq!(r.counters.cache_hits, r.cache_hits);
        assert_eq!(r.counters.cache_misses, r.cache_misses);
    }

    /// The cache's lifetime counters reach the report as per-run
    /// deltas: a cold run persisting to a log reports one write per
    /// inserted record, and a byte-capped cache reports its evictions.
    #[test]
    fn cache_eviction_and_persist_deltas_reach_the_counters() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(2),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            60,
        );
        let platform = homogeneous(4);
        let model = model();
        let dir = std::env::temp_dir().join(format!("mp-serve-deltas-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = mp_cache::ResultCache::new();
        cache.persist_to(&dir).expect("attach log");
        let mut sched = EagerPrioScheduler::new();
        let r = serve_sim_cached(&platform, &model, &mut sched, &cfg, Some(&cache));
        assert!(r.is_complete(), "error: {:?}", r.error);
        assert!(r.cache_misses > 0);
        // Every miss executes once and inserts one record.
        assert_eq!(r.counters.cache_persist_writes, r.cache_misses);
        assert_eq!(
            r.counters.cache_persist_writes,
            cache.persist_stats().writes
        );
        let _ = std::fs::remove_dir_all(&dir);

        // A few hundred bytes hold a record or two of the working set.
        let capped = mp_cache::ResultCache::with_capacity(256);
        let r = serve_sim_cached(&platform, &model, &mut sched, &cfg, Some(&capped));
        assert!(r.is_complete(), "error: {:?}", r.error);
        assert!(r.counters.cache_evictions > 0, "a one-record cache evicts");
        assert_eq!(r.counters.cache_evictions, capped.evictions());
    }

    #[test]
    fn warm_cache_carries_across_runs() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(2),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            60,
        );
        let platform = homogeneous(4);
        let model = model();
        let cache = mp_cache::ResultCache::new();
        let cold = serve_sim_cached(
            &platform,
            &model,
            &mut EagerPrioScheduler::new(),
            &cfg,
            Some(&cache),
        );
        // Handle identities are (dense id, size)-derived, so a second
        // engine over the same config re-creates the same keys: every
        // task of the warm run hits and the scheduler is never used.
        let warm = serve_sim_cached(
            &platform,
            &model,
            &mut EagerPrioScheduler::new(),
            &cfg,
            Some(&cache),
        );
        assert!(cold.cache_misses > 0);
        assert!(warm.is_complete());
        assert_eq!(warm.cache_hits, warm.tasks_admitted);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.decisions, 0);
        // All-hit completions collapse onto arrival instants: the warm
        // makespan is the last arrival, well under the cold makespan's
        // trailing execution.
        assert!(warm.makespan_us <= cold.makespan_us);
    }

    #[test]
    fn mutated_resubmissions_re_execute_their_dirty_cone() {
        let mk = |mf: f64| {
            let mut cfg = ServeConfig::new(
                TenantSpec::equal(2),
                ArrivalProcess::Poisson {
                    rate_per_sec: 5000.0,
                },
                200,
            );
            cfg.subdag.mutation_frac = mf;
            let platform = homogeneous(8);
            let model = model();
            let cache = mp_cache::ResultCache::new();
            serve_sim_cached(
                &platform,
                &model,
                &mut EagerPrioScheduler::new(),
                &cfg,
                Some(&cache),
            )
        };
        let pure = mk(0.0);
        let dirty = mk(0.3);
        assert!(pure.is_complete() && dirty.is_complete());
        // Mutated flops change the fingerprint of the whole sub-DAG
        // (root key, then every in-version downstream), so the dirty
        // stream re-executes more and still serves the rest warm.
        assert!(
            dirty.cache_misses > pure.cache_misses,
            "mutation must add misses: {} vs {}",
            dirty.cache_misses,
            pure.cache_misses
        );
        assert!(dirty.cache_hits > 0, "unmutated arrivals still hit");
        assert_eq!(dirty.decisions, dirty.cache_misses);
        // Repeat-deterministic: the mutation draw is seeded, not random.
        let again = mk(0.3);
        assert_eq!(again.schedule_hash, dirty.schedule_hash);
        assert_eq!(again.cache_misses, dirty.cache_misses);
    }

    #[test]
    fn cache_off_is_bit_identical_to_the_uncached_engine() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(3),
            ArrivalProcess::Bursty {
                rate_per_sec: 20_000.0,
                burst: 8,
            },
            150,
        );
        let platform = homogeneous(4);
        let model = model();
        let a = serve_sim(&platform, &model, &mut EagerPrioScheduler::new(), &cfg);
        let b = serve_sim_cached(
            &platform,
            &model,
            &mut EagerPrioScheduler::new(),
            &cfg,
            None,
        );
        assert_eq!(a.schedule_hash, b.schedule_hash);
        assert_eq!(a.samples_us, b.samples_us);
        assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
        assert_eq!(b.cache_hits, 0);
        assert_eq!(b.cache_misses, 0);
    }

    #[test]
    fn per_tenant_counters_land_in_the_snapshot() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(2),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            50,
        );
        let r = run(&cfg, 4);
        assert_eq!(r.counters.tenant_admitted.len(), 2);
        assert_eq!(
            r.counters.tenant_admitted.iter().sum::<u64>(),
            r.tasks_admitted
        );
        assert_eq!(
            r.counters.tenant_completed.iter().sum::<u64>(),
            r.tasks_completed
        );
    }
}
