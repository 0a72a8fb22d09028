//! The four workloads. Each builds its inputs from the seeds alone
//! ([`Workload::setup`]) and then runs measured rounds
//! ([`Workload::round`]) through the library's public entry points,
//! checking every output.
//!
//! Sizes are chosen so that one round takes one to three seconds on a
//! 2-core host: the benchmark reports medians over rounds, and a short
//! round leaves room for enough of them in one run.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mp_apps::dense::{potrf, DenseConfig};
use mp_apps::fmm::{fmm, Distribution, FmmConfig};
use mp_apps::sparseqr::{matrix, sparse_qr, SparseQrConfig};
use mp_apps::{dense_model, fmm_model, sparseqr_model};
use mp_audit::diff::schedule_hash;
use mp_bench::make_scheduler;
use mp_cache::{Lookup, ResultCache};
use mp_dag::{AccessMode, DataId, TaskGraph, TaskId};
use mp_perfmodel::{PerfModel, TableModel, TimeFn};
use mp_platform::presets::{homogeneous, intel_v100, simple};
use mp_platform::types::{ArchClass, Platform};
use mp_runtime::{RunReport, Runtime, StreamConfig, Submission, TaskBuilder, TaskCtx};
use mp_sched::{ConcurrentScheduler, GlobalLock, Scheduler};
use mp_serve::{serve_sim, ArrivalProcess, ServeConfig, SubDagShape, TenantSpec};
use mp_sim::{simulate, SimConfig, SimResult};

use crate::calib::{timed, Timed};
use crate::kernels::{self, spin, TileOp, B, CPU_SPIN, GPU_SPIN};
use crate::layers::{tag, Ledger};
use crate::span::{drain, span, span_if, Kind};
use crate::wrap::{TracedFront, TracedModel, TracedScheduler};

/// Every seed a workload draws its inputs from.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// FMM particle positions.
    pub fmm: u64,
    /// Sparse-QR elimination tree.
    pub tree: u64,
    /// Simulated execution-time noise.
    pub noise: u64,
    /// Serving arrival gaps.
    pub arrival: u64,
    /// Initial matrix of the threaded Cholesky.
    pub data: u64,
}

impl Seeds {
    /// Derive every seed from one run seed.
    pub fn from_run_seed(seed: u64) -> Self {
        let s = |k: u64| kernels::splitmix(seed.wrapping_mul(0x100).wrapping_add(k));
        Self {
            fmm: s(1),
            tree: s(2),
            noise: s(3),
            arrival: s(4),
            data: s(5),
        }
    }
}

/// One timed engine call of a round.
#[derive(Clone, Debug)]
pub struct Phase {
    /// What ran, e.g. `fmm/dmdas` or `cold`.
    pub label: String,
    /// Tasks (or records) it completed.
    pub items: f64,
    /// Its wall time and the calibration around it.
    pub t: Timed,
    /// Its per-layer rate metric (one of [`rate_metrics`]) and the count
    /// that metric divides by the calibrated time, e.g.
    /// `("subdags_per_s", sub-DAGs served)`.
    pub rate: (String, f64),
}

/// What one round measured and checked.
#[derive(Debug, Default)]
pub struct Round {
    /// Timed engine calls, in order.
    pub phases: Vec<Phase>,
    /// Model outputs (virtual clock), e.g. `multiprio_vs_dmdas`.
    pub model: Vec<(&'static str, f64)>,
    /// Values that must repeat exactly across rounds and between the
    /// traced and untraced run: makespan bits, schedule hashes, digests.
    pub outputs: Vec<(String, u64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Round {
    /// Count `n` operations of which `bad` failed.
    fn op(&mut self, n: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(why());
        }
    }

    /// A timed call that completed `items` tasks (or records) and whose
    /// rate metric `rate` counts `count` per calibrated second.
    fn phase(
        &mut self,
        label: impl Into<String>,
        items: usize,
        t: Timed,
        rate: String,
        count: usize,
    ) {
        self.phases.push(Phase {
            label: label.into(),
            items: items as f64,
            t,
            rate: (rate, count as f64),
        });
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Build one set of inputs from the seeds. With `traced`, the
    /// set-up and the generator and submit calls in it record spans.
    fn setup(&mut self, traced: bool);

    /// Every set-up so far, timed.
    fn setup_times(&self) -> &[Timed];

    /// One measured round. With `traced`, every layer call records a
    /// span and `ledger` receives the per-round counters.
    fn round(&mut self, traced: bool, ledger: &mut Ledger) -> Round;

    /// How much more than the calibration's reference computation this
    /// workload slows down when the host does: its times go as the
    /// reference computation's to this power (see `calib`).
    fn host_sensitivity(&self) -> f64;
}

/// [`Workload::host_sensitivity`] of the single-threaded simulation
/// workloads. On the host the benchmark was defined on, the least-squares
/// slope of log simulation time on log calibration time, over about 500
/// Cholesky simulations in three captures of three minutes, was 1.4 in
/// quiet periods and 2.0–2.4 in the noisiest one; over three sets of five
/// or ten runs, `paper_sim`'s spread of `tasks_per_s` was least at 1.5–2
/// in two and at 1.1 in the third, and `policy_sweep`'s varied little
/// between 1 and 1.5.
const SIM_SENSITIVITY: f64 = 1.5;
/// [`Workload::host_sensitivity`] of the threaded workloads: over two
/// sets of runs each, the spread of `threaded_batch`'s and
/// `serve_stream`'s `tasks_per_s` was least at 1–1.25 and doubled or
/// more by 1.5.
const THREADED_SENSITIVITY: f64 = 1.0;

/// The workload called `name`, writing any files under `work`.
pub fn by_name(name: &str, seeds: Seeds, work: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_sim" => Box::new(PaperSim::new(seeds)),
        "policy_sweep" => Box::new(PolicySweep::new(seeds)),
        "threaded_batch" => Box::new(ThreadedBatch::new(seeds, work)),
        "serve_stream" => Box::new(ServeStream::new(seeds)),
        _ => return None,
    })
}

/// Names accepted by [`by_name`].
pub const WORKLOADS: [&str; 4] = [
    "paper_sim",
    "policy_sweep",
    "threaded_batch",
    "serve_stream",
];

/// Applications of `paper_sim`, in round order.
const PAPER_APPS: [&str; 3] = ["cholesky", "fmm", "sparse_qr"];
/// Policies of `paper_sim`.
const PAPER_POLICIES: [&str; 2] = ["multiprio", "dmdas"];

/// Per-layer rate metric of one simulated `app` under `policy`.
fn sim_rate(workload: &str, app: &str, policy: &str) -> String {
    format!("rate.{workload}.{app}.{policy}")
}

/// Every per-call rate metric of every workload, with its unit: the
/// values a [`Phase`] can carry.
pub fn rate_metrics() -> Vec<(String, &'static str)> {
    let mut m = Vec::new();
    for app in PAPER_APPS {
        for policy in PAPER_POLICIES {
            m.push((sim_rate("paper_sim", app, policy), "tasks/s"));
        }
    }
    for policy in SWEEP_POLICIES {
        m.push((sim_rate("policy_sweep", "fmm", policy), "tasks/s"));
    }
    for (name, unit) in [
        ("plain_tasks_per_s", "tasks/s"),
        ("cold_tasks_per_s", "tasks/s"),
        ("reopen_records_per_s", "records/s"),
        ("warm_tasks_per_s", "tasks/s"),
        ("sim_subdags_per_s", "subdags/s"),
        ("subdags_per_s", "subdags/s"),
    ] {
        m.push((name.to_string(), unit));
    }
    m
}

/// Run `f` as one set-up, timed into `times`.
fn timed_setup<R>(traced: bool, times: &mut Vec<Timed>, f: impl FnOnce() -> R) -> R {
    let (r, t) = timed(|| span_if(traced, Kind::Setup, 0, f));
    times.push(t);
    r
}

/// A generator call, recorded as an `apps` span when traced.
fn build<R>(traced: bool, f: impl FnOnce() -> R) -> R {
    span_if(traced, Kind::Build, 0, f)
}

/// A fresh instance of `policy`, recording spans when `traced`.
fn policy_for(policy: &str, traced: bool) -> Box<dyn Scheduler> {
    if traced {
        Box::new(TracedScheduler::new(make_scheduler(policy), tag(policy)))
    } else {
        make_scheduler(policy)
    }
}

/// One simulated application.
struct App {
    name: &'static str,
    graph: TaskGraph,
    model: Arc<dyn PerfModel>,
    noise_cv: f64,
}

/// Simulate `app` under `policy`, wrapped in the tracing layer when
/// `traced`. Returns the result and the timing of `simulate`.
fn sim_run(
    app: &App,
    platform: &Platform,
    policy: &str,
    cfg: SimConfig,
    traced: bool,
    ledger: &mut Ledger,
) -> (SimResult, Timed) {
    let tg = tag(policy);
    let model = model_for(Arc::clone(&app.model), traced);
    let mut s = policy_for(policy, traced);
    let (r, t) = timed(|| {
        span_if(traced, Kind::Sim, tg, || {
            simulate(&app.graph, platform, model.as_ref(), s.as_mut(), cfg)
        })
    });
    if !traced {
        return (r, t);
    }
    ledger.fold_sim(&drain());
    ledger.engine(tg, t.wall_s * 1e9, 1);
    ledger.count("sim.empty_pops", r.stats.empty_pops as f64);
    ledger.count(
        "sim.transfer_bytes",
        (r.stats.demand_bytes + r.stats.prefetch_bytes + r.stats.writeback_bytes) as f64,
    );
    ledger.count("sim.capacity_evictions", r.stats.capacity_evictions as f64);
    (r, t)
}

/// Check one simulation and record its outputs.
fn check_sim(round: &mut Round, label: &str, app: &App, r: &SimResult) {
    let n = app.graph.task_count();
    let ok = r.error.is_none() && r.is_complete() && r.stats.tasks == n;
    round.op(1, u64::from(!ok), || {
        format!(
            "{label}: error {:?}, {} of {n} tasks",
            r.error, r.stats.tasks
        )
    });
    round
        .outputs
        .push((format!("{label}/makespan"), r.makespan.to_bits()));
    round
        .outputs
        .push((format!("{label}/empty_pops"), r.stats.empty_pops));
    if !r.trace.tasks.is_empty() {
        round
            .outputs
            .push((format!("{label}/schedule_hash"), schedule_hash(&r.trace)));
    }
}

/// Cholesky tile count of `paper_sim` (about 11k tasks).
const PAPER_CHOL_NT: usize = 40;
/// FMM particles of `paper_sim` (height 6, groups of 20: about 16k tasks).
const PAPER_FMM_PARTICLES: usize = 200_000;

/// The `repro` path: MultiPrio and Dmdas on the paper's three
/// applications, with trace recording and validation on.
pub struct PaperSim {
    seeds: Seeds,
    platform: Platform,
    apps: Vec<App>,
    setups: Vec<Timed>,
}

impl PaperSim {
    fn new(seeds: Seeds) -> Self {
        Self {
            seeds,
            platform: intel_v100(),
            apps: Vec::new(),
            setups: Vec::new(),
        }
    }
}

impl Workload for PaperSim {
    fn setup(&mut self, traced: bool) {
        let seeds = self.seeds;
        self.apps.clear();
        self.apps = timed_setup(traced, &mut self.setups, || {
            vec![
                App {
                    name: PAPER_APPS[0],
                    graph: build(traced, || {
                        potrf(DenseConfig::new(PAPER_CHOL_NT * 960, 960)).graph
                    }),
                    model: Arc::new(dense_model()),
                    noise_cv: 0.0,
                },
                App {
                    name: PAPER_APPS[1],
                    graph: build(traced, || {
                        fmm(FmmConfig {
                            particles: PAPER_FMM_PARTICLES,
                            tree_height: 6,
                            group_size: 20,
                            distribution: Distribution::Uniform,
                            seed: seeds.fmm,
                        })
                        .graph
                    }),
                    model: Arc::new(fmm_model()),
                    noise_cv: 0.3,
                },
                App {
                    name: PAPER_APPS[2],
                    graph: build(traced, || {
                        let tf17 = matrix("TF17").expect("TF17 is a Fig. 7 matrix");
                        sparse_qr(
                            tf17,
                            SparseQrConfig {
                                seed: seeds.tree,
                                ..SparseQrConfig::default()
                            },
                        )
                        .graph
                    }),
                    model: Arc::new(sparseqr_model()),
                    noise_cv: 0.3,
                },
            ]
        });
    }

    fn setup_times(&self) -> &[Timed] {
        &self.setups
    }

    fn host_sensitivity(&self) -> f64 {
        SIM_SENSITIVITY
    }

    fn round(&mut self, traced: bool, ledger: &mut Ledger) -> Round {
        let mut round = Round::default();
        let mut log_ratio = 0.0;
        for app in &self.apps {
            let cfg = SimConfig::seeded(self.seeds.noise).with_noise(app.noise_cv);
            let mut makespan = [0.0; 2];
            for (i, policy) in PAPER_POLICIES.into_iter().enumerate() {
                let label = format!("{}/{policy}", app.name);
                let (r, t) = sim_run(app, &self.platform, policy, cfg, traced, ledger);
                check_sim(&mut round, &label, app, &r);
                let rate = sim_rate("paper_sim", app.name, policy);
                round.phase(label, r.stats.tasks, t, rate, r.stats.tasks);
                makespan[i] = r.makespan;
            }
            log_ratio += (makespan[1] / makespan[0]).ln();
        }
        let ratio = (log_ratio / self.apps.len() as f64).exp();
        round.model.push(("multiprio_vs_dmdas", ratio));
        ledger.count("sim.multiprio_vs_dmdas", ratio);
        round
    }
}

/// FMM particles of `policy_sweep`.
const SWEEP_FMM_PARTICLES: usize = 150_000;
/// FMM octree height of `policy_sweep`.
const SWEEP_FMM_HEIGHT: usize = 6;
/// FMM group size of `policy_sweep`. With the two above: about 27k
/// tasks, generated in under a second, with FIFO's head-of-queue scans
/// still 7× MultiPrio's cost. The 60k-task h=7 tree takes 4 s to
/// generate and 4–6 s under FIFO, too long to repeat within one run.
const SWEEP_FMM_GROUP: usize = 12;
/// Policies of `policy_sweep`.
const SWEEP_POLICIES: [&str; 5] = ["multiprio", "dmdas", "heteroprio", "lws", "fifo"];

/// Sweep mode: one large, wide FMM DAG under five policies with trace
/// recording and validation off, as the `scaling` bench runs it.
pub struct PolicySweep {
    seeds: Seeds,
    platform: Platform,
    app: Option<App>,
    setups: Vec<Timed>,
}

impl PolicySweep {
    fn new(seeds: Seeds) -> Self {
        Self {
            seeds,
            platform: simple(6, 2),
            app: None,
            setups: Vec::new(),
        }
    }
}

impl Workload for PolicySweep {
    fn setup(&mut self, traced: bool) {
        let seed = self.seeds.fmm;
        self.app = None;
        let graph = timed_setup(traced, &mut self.setups, || {
            build(traced, || {
                fmm(FmmConfig {
                    particles: SWEEP_FMM_PARTICLES,
                    tree_height: SWEEP_FMM_HEIGHT,
                    group_size: SWEEP_FMM_GROUP,
                    distribution: Distribution::Uniform,
                    seed,
                })
                .graph
            })
        });
        self.app = Some(App {
            name: "fmm",
            graph,
            model: Arc::new(fmm_model()),
            noise_cv: 0.0,
        });
    }

    fn setup_times(&self) -> &[Timed] {
        &self.setups
    }

    fn host_sensitivity(&self) -> f64 {
        SIM_SENSITIVITY
    }

    fn round(&mut self, traced: bool, ledger: &mut Ledger) -> Round {
        let mut round = Round::default();
        let app = self
            .app
            .as_ref()
            .expect("setup runs before the first round");
        let cfg = SimConfig {
            record_trace: false,
            validate: false,
            ..SimConfig::seeded(self.seeds.noise)
        };
        for policy in SWEEP_POLICIES {
            let label = format!("{}/{policy}", app.name);
            let (r, t) = sim_run(app, &self.platform, policy, cfg, traced, ledger);
            check_sim(&mut round, &label, app, &r);
            let rate = sim_rate("policy_sweep", app.name, policy);
            round.phase(label, r.stats.tasks, t, rate, r.stats.tasks);
        }
        round
    }
}

/// A kernel closure: `body` on every call, inside a `runtime` kernel
/// span when `traced`.
fn kernel(
    traced: bool,
    body: impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static,
) -> impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static {
    move |ctx| span_if(traced, Kind::Kernel, 0, || body(ctx))
}

/// One tile op on the runtime's buffers: the read tiles come first in
/// the access list, the written tile last.
fn tile_body(op: TileOp, iters: u32) -> impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static {
    move |ctx| {
        let reads = ctx.len() - 1;
        let mut ins = [[0.0; B * B]; 2];
        for (i, tile) in ins.iter_mut().enumerate().take(reads) {
            tile.copy_from_slice(ctx.r(i));
        }
        let refs: [&[f64]; 2] = [&ins[0], &ins[1]];
        op.apply(&refs[..reads], ctx.w(reads));
        spin(iters);
    }
}

/// `policy` behind the global-lock front end; with `traced`, both the
/// front end and the policy record spans.
fn global_lock(policy: &str, traced: bool) -> Box<dyn ConcurrentScheduler> {
    let front = GlobalLock::new(policy_for(policy, traced));
    if traced {
        Box::new(TracedFront::new(front, tag(policy)))
    } else {
        Box::new(front)
    }
}

/// `model`, recording spans when `traced`.
fn model_for(model: Arc<dyn PerfModel>, traced: bool) -> Arc<dyn PerfModel> {
    if traced {
        Arc::new(TracedModel::new(model))
    } else {
        model
    }
}

/// Run `rt` under `policy` behind the global lock, wrapped in the
/// tracing layer when `traced`. Returns the report and its timing.
fn run_threaded(
    rt: &mut Runtime,
    policy: &str,
    workers: usize,
    traced: bool,
    ledger: &mut Ledger,
) -> (RunReport, Timed) {
    let tg = tag(policy);
    let front = global_lock(policy, traced);
    let (r, t) = timed(|| span_if(traced, Kind::Run, tg, || rt.run_concurrent(front.as_ref())));
    let report = r.expect("every task has a CPU and a GPU implementation");
    if traced {
        ledger.fold(&drain());
        ledger.engine(tg, t.wall_s * 1e9, workers);
        ledger.threaded_ns += t.wall_s * 1e9 * workers as f64;
        ledger.threaded_tasks += report.trace.tasks.len() as f64;
    }
    (report, t)
}

/// Tile count of `threaded_batch` (about 70k tasks).
const BATCH_NT: usize = 75;
/// Policy of the threaded workloads' batch run.
const BATCH_POLICY: &str = "multiprio";
/// The threaded workloads' kernel estimates, µs, per class: matching
/// the kernels' measured cost keeps MultiPrio's wall-clock hold-backs
/// meaningful.
const CPU_US: f64 = 2.0;
const GPU_US: f64 = 1.0;

/// A submitted runtime ready to run.
struct Prepared {
    rt: Runtime,
    traced: bool,
}

/// Tile Cholesky through `Runtime::register`/`submit` with the
/// benchmark's own kernels: a plain run, a cold run persisting into the
/// result cache, a reopen of the persisted log, and a warm run from it.
pub struct ThreadedBatch {
    seeds: Seeds,
    dir: PathBuf,
    pool: Vec<Prepared>,
    tasks: usize,
    reference: Option<u64>,
    setups: Vec<Timed>,
}

impl ThreadedBatch {
    fn new(seeds: Seeds, work: &Path) -> Self {
        Self {
            seeds,
            dir: work.join("threaded_batch"),
            pool: Vec::new(),
            tasks: 0,
            reference: None,
            setups: Vec::new(),
        }
    }

    fn model() -> Arc<dyn PerfModel> {
        let mut b = TableModel::builder();
        for k in ["POTRF", "TRSM", "SYRK", "GEMM"] {
            b = b.set(k, ArchClass::Cpu, TimeFn::Const(CPU_US)).set(
                k,
                ArchClass::Gpu,
                TimeFn::Const(GPU_US),
            );
        }
        Arc::new(b.build())
    }

    /// A prepared runtime built with the tracing flag `traced`.
    fn take(&mut self, traced: bool) -> Runtime {
        self.pool.retain(|p| p.traced == traced);
        if self.pool.is_empty() {
            self.setup(traced);
        }
        self.pool.pop().expect("setup prepared a runtime").rt
    }
}

impl Workload for ThreadedBatch {
    fn setup(&mut self, traced: bool) {
        let seed = self.seeds.data;
        let (rt, graph, initial) = timed_setup(traced, &mut self.setups, || {
            let graph = build(traced, || potrf(DenseConfig::new(BATCH_NT * B, B)).graph);
            let mut diag = vec![false; graph.data_count()];
            for t in graph.tasks() {
                if graph.task_type(t.ttype).name == "POTRF" {
                    diag[t.accesses[0].data.index()] = true;
                }
            }
            let initial: Vec<Vec<f64>> = (0..graph.data_count())
                .map(|d| kernels::initial_tile(seed, d, diag[d], BATCH_NT))
                .collect();
            let mut rt = Runtime::new(simple(1, 1), model_for(Self::model(), traced));
            for (d, tile) in initial.iter().enumerate() {
                rt.register(tile.clone(), &graph.data_desc(DataId::from_index(d)).label);
            }
            for t in graph.tasks() {
                let name = &graph.task_type(t.ttype).name;
                let op = TileOp::from_type(name);
                let mut tb = TaskBuilder::new(name)
                    .flops(t.flops)
                    .priority(t.user_priority)
                    .cpu(kernel(traced, tile_body(op, CPU_SPIN)))
                    .gpu(kernel(traced, tile_body(op, GPU_SPIN)));
                for a in &t.accesses {
                    tb = tb.access(a.data, a.mode);
                }
                span_if(traced, Kind::Submit, 0, || rt.submit(tb));
            }
            (rt, graph, initial)
        });
        self.tasks = graph.task_count();
        if self.reference.is_none() {
            self.reference = Some(kernels::reference_digest(&graph, initial));
        }
        self.pool.push(Prepared { rt, traced });
    }

    fn setup_times(&self) -> &[Timed] {
        &self.setups
    }

    fn host_sensitivity(&self) -> f64 {
        THREADED_SENSITIVITY
    }

    fn round(&mut self, traced: bool, ledger: &mut Ledger) -> Round {
        let mut round = Round::default();
        let mut plain = self.take(traced);
        let mut cold = self.take(traced);
        let mut warm = self.take(traced);
        let n = self.tasks;
        let reference = self.reference.expect("setup computed the reference digest");
        let check_run =
            |round: &mut Round, label: &str, rt: &Runtime, r: &RunReport, executed: usize| {
                let digest = rt.buffers_digest();
                let ok = r.is_complete() && r.trace.tasks.len() == executed && digest == reference;
                round.op(1, u64::from(!ok), || {
                    format!(
                    "{label}: error {:?}, executed {} (expected {executed}), digest {digest:016x} \
                     (reference {reference:016x})",
                    r.error,
                    r.trace.tasks.len()
                )
                });
                round.outputs.push((format!("{label}/digest"), digest));
            };

        let (r, t) = run_threaded(&mut plain, BATCH_POLICY, 2, traced, ledger);
        check_run(&mut round, "plain", &plain, &r, n);
        round.phase("plain", n, t, "plain_tasks_per_s".into(), n);

        let cold_dir = self.dir.join("cold");
        let _ = std::fs::remove_dir_all(&cold_dir);
        let cache = Arc::new(ResultCache::new());
        cache
            .persist_to(&cold_dir)
            .expect("the work directory is writable");
        cold.set_cache(Arc::clone(&cache));
        let (r, t) = run_threaded(&mut cold, BATCH_POLICY, 2, traced, ledger);
        check_run(&mut round, "cold", &cold, &r, n);
        round.phase("cold", n, t, "cold_tasks_per_s".into(), n);
        drop(cold);
        drop(cache);
        if traced {
            ledger.count("cache.persist_bytes", dir_bytes(&cold_dir) as f64);
        }

        let (opened, t) =
            timed(|| span_if(traced, Kind::CacheOpen, 0, || ResultCache::open(&cold_dir)));
        let (reopened, load) = opened.expect("the persisted log is readable");
        let ok = load.rejected == 0 && load.loaded == n as u64;
        round.op(
            load.records_scanned.max(1),
            u64::from(!ok).max(load.rejected),
            || {
                format!(
                    "reopen: loaded {} of {n}, rejected {}",
                    load.loaded, load.rejected
                )
            },
        );
        let loaded = load.loaded as usize;
        round.phase("reopen", loaded, t, "reopen_records_per_s".into(), loaded);
        if traced {
            ledger.count("cache.records_loaded", load.loaded as f64);
            ledger.count("cache.load_rejects", load.rejected as f64);
        }

        let reopened = Arc::new(reopened);
        warm.set_cache(Arc::clone(&reopened));
        let (r, t) = run_threaded(&mut warm, BATCH_POLICY, 2, traced, ledger);
        check_run(&mut round, "warm", &warm, &r, 0);
        round.phase("warm", n, t, "warm_tasks_per_s".into(), n);

        if traced {
            lookup_sweep(&warm, &reopened, &self.dir.join("sweep"), ledger);
        }
        let _ = std::fs::remove_dir_all(&cold_dir);
        round
    }
}

/// Direct cache calls: look every task's key up in `cache`, and insert
/// each hit into a fresh cache persisting to `dir`.
fn lookup_sweep(rt: &Runtime, cache: &ResultCache, dir: &Path, ledger: &mut Ledger) {
    let _ = std::fs::remove_dir_all(dir);
    let sink = ResultCache::new();
    sink.persist_to(dir)
        .expect("the work directory is writable");
    let graph = rt.graph();
    let (mut probes, mut hits) = (0u64, 0u64);
    for i in 0..graph.task_count() {
        let Some(meta) = graph.cache_meta(TaskId::from_index(i)) else {
            continue;
        };
        probes += 1;
        if let Lookup::Hit(e) = span(Kind::CacheLookup, 0, || cache.lookup(meta, true)) {
            hits += 1;
            let payload = e.payload.clone();
            span(Kind::CacheInsert, 0, || sink.insert(meta, payload, e.bytes));
        }
    }
    drop(sink);
    let _ = std::fs::remove_dir_all(dir);
    ledger.fold(&drain());
    ledger.count("cache.probes", probes as f64);
    ledger.count("cache.hits", hits as f64);
}

/// Total size of the files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Sub-DAGs of the threaded stream.
const SERVE_SUBDAGS: usize = 12_000;
/// Sub-DAGs of the `serve_sim` stream (its decisions are cheaper).
const SERVE_SIM_SUBDAGS: usize = 40_000;
/// Parallel middle tasks per sub-DAG.
const SERVE_WIDTH: usize = 4;
/// Persistent handle slots per tenant.
const SERVE_POOL: usize = 4;
/// Workers of both serving paths.
const SERVE_WORKERS: usize = 2;
/// Modelled task time of the serving stream, µs.
const SERVE_TASK_US: f64 = 25.0;
/// Offered load as a share of modelled capacity: below saturation, so
/// admission rejects nothing.
const SERVE_LOAD: f64 = 0.7;
/// Extra-work iterations of a serving kernel.
const SERVE_SPIN: u32 = 600;

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("gold", 4.0),
        TenantSpec::new("silver", 2.0),
        TenantSpec::new("bronze", 1.0),
        TenantSpec::new("bronze2", 1.0),
    ]
}

fn serve_model() -> Arc<dyn PerfModel> {
    Arc::new(
        TableModel::builder()
            .set("SRV", ArchClass::Cpu, TimeFn::Const(SERVE_TASK_US))
            .build(),
    )
}

/// Handles of one (tenant, slot).
struct Slot {
    root: DataId,
    outs: Vec<DataId>,
    join: DataId,
}

/// A runtime with registered handles plus the stream to serve on it.
struct PreparedStream {
    rt: Runtime,
    stream: Vec<Submission>,
    slots: Vec<Slot>,
    traced: bool,
}

/// Multi-tenant fork-join serving, once in virtual time through
/// `serve_sim` and once on threads through `Runtime::serve_concurrent`.
pub struct ServeStream {
    cfg: ServeConfig,
    pool: Vec<PreparedStream>,
    setups: Vec<Timed>,
}

impl ServeStream {
    fn new(seeds: Seeds) -> Self {
        let tasks_per_subdag = (SERVE_WIDTH + 2) as f64;
        let rate = SERVE_WORKERS as f64 * 1e6 / SERVE_TASK_US / tasks_per_subdag * SERVE_LOAD;
        let mut cfg = ServeConfig::new(
            tenants(),
            ArrivalProcess::Poisson { rate_per_sec: rate },
            SERVE_SIM_SUBDAGS,
        );
        cfg.subdag = SubDagShape {
            width: SERVE_WIDTH,
            pool: SERVE_POOL,
            ..SubDagShape::default()
        };
        cfg.seed = seeds.arrival;
        Self {
            cfg,
            pool: Vec::new(),
            setups: Vec::new(),
        }
    }

    /// Submission `k` goes to tenant `k % tenants`, slot
    /// `(k / tenants) % pool`: the round-robin `serve_sim` uses.
    fn slot_of(k: usize) -> usize {
        let nt = tenants().len();
        (k % nt) * SERVE_POOL + (k / nt) % SERVE_POOL
    }

    fn take(&mut self, traced: bool) -> PreparedStream {
        self.pool.retain(|p| p.traced == traced);
        if self.pool.is_empty() {
            self.setup(traced);
        }
        self.pool.pop().expect("setup prepared a stream")
    }
}

impl Workload for ServeStream {
    fn setup(&mut self, traced: bool) {
        let prepared = timed_setup(traced, &mut self.setups, || {
            let mut rt = Runtime::new(homogeneous(SERVE_WORKERS), model_for(serve_model(), traced));
            let nt = tenants().len();
            let slots: Vec<Slot> = (0..nt * SERVE_POOL)
                .map(|s| Slot {
                    root: rt.register(vec![0.0], &format!("s{s}.root")),
                    outs: (0..SERVE_WIDTH)
                        .map(|i| rt.register(vec![0.0], &format!("s{s}.o{i}")))
                        .collect(),
                    join: rt.register(vec![0.0], &format!("s{s}.join")),
                })
                .collect();
            let stream = (0..SERVE_SUBDAGS)
                .map(|k| {
                    let sl = &slots[Self::slot_of(k)];
                    let mut tasks = vec![TaskBuilder::new("SRV")
                        .access(sl.root, AccessMode::ReadWrite)
                        .cpu(kernel(traced, |ctx| {
                            ctx.w(0)[0] += 1.0;
                            spin(SERVE_SPIN);
                        }))];
                    for &o in &sl.outs {
                        tasks.push(
                            TaskBuilder::new("SRV")
                                .access(sl.root, AccessMode::Read)
                                .access(o, AccessMode::Write)
                                .cpu(kernel(traced, |ctx| {
                                    let (r, w) = ctx.rw_pair(0, 1);
                                    w[0] = r[0];
                                    spin(SERVE_SPIN);
                                })),
                        );
                    }
                    let mut join = TaskBuilder::new("SRV");
                    for &o in &sl.outs {
                        join = join.access(o, AccessMode::Read);
                    }
                    tasks.push(join.access(sl.join, AccessMode::Write).cpu(kernel(
                        traced,
                        |ctx| {
                            let sum: f64 = (0..SERVE_WIDTH).map(|i| ctx.r(i)[0]).sum();
                            ctx.w(SERVE_WIDTH)[0] = sum;
                            spin(SERVE_SPIN);
                        },
                    )));
                    Submission {
                        tenant: k % nt,
                        tasks,
                    }
                })
                .collect();
            PreparedStream {
                rt,
                stream,
                slots,
                traced,
            }
        });
        self.pool.push(prepared);
    }

    fn setup_times(&self) -> &[Timed] {
        &self.setups
    }

    fn host_sensitivity(&self) -> f64 {
        THREADED_SENSITIVITY
    }

    fn round(&mut self, traced: bool, ledger: &mut Ledger) -> Round {
        let mut round = Round::default();
        let tasks_per_subdag = SERVE_WIDTH + 2;
        let tg = tag("prio");

        // Virtual-time serving.
        let model = model_for(serve_model(), traced);
        let platform = homogeneous(SERVE_WORKERS);
        let mut s = policy_for("prio", traced);
        let (r, t) = timed(|| {
            span_if(traced, Kind::ServeSim, tg, || {
                serve_sim(&platform, model.as_ref(), s.as_mut(), &self.cfg)
            })
        });
        let n = self.cfg.submissions;
        round.op(n as u64, r.subdags_rejected, || {
            format!("serve_sim: {} sub-DAGs rejected", r.subdags_rejected)
        });
        let ok = r.is_complete() && r.tasks_completed == (n * tasks_per_subdag) as u64;
        round.op(1, u64::from(!ok), || {
            format!(
                "serve_sim: error {:?}, {} of {} tasks",
                r.error,
                r.tasks_completed,
                n * tasks_per_subdag
            )
        });
        round
            .outputs
            .push(("serve_sim/schedule_hash".into(), r.schedule_hash));
        round
            .outputs
            .push(("serve_sim/makespan".into(), r.makespan_us.to_bits()));
        round.phase(
            "serve_sim",
            r.tasks_completed as usize,
            t,
            "sim_subdags_per_s".into(),
            r.subdags_admitted as usize,
        );
        round.model.push(("virtual_wait_p99_us", r.p99_us() as f64));
        if traced {
            ledger.fold(&drain());
            ledger.engine(tg, t.wall_s * 1e9, 1);
            ledger.count("serve.decisions", r.decisions as f64);
            ledger.count("serve.subdags_rejected", r.subdags_rejected as f64);
            ledger.count("serve.virtual_wait_p99_us", r.p99_us() as f64);
        }

        // Threaded serving.
        let PreparedStream {
            mut rt,
            stream,
            slots,
            ..
        } = self.take(traced);
        let n = stream.len();
        // `serve_concurrent` has no arrival pacing: its driver offers the
        // whole stream at once. A cap that bound would reject sub-DAGs
        // and drop them, so the cap covers the whole stream and this
        // path measures a saturated run in which admission only counts;
        // only `serve_sim` above serves below saturation.
        let mut scfg = StreamConfig::new(tenants());
        scfg.admission.max_in_flight = n * tasks_per_subdag;
        let front = global_lock("prio", traced);
        let (r, t) = timed(|| {
            span_if(traced, Kind::Run, tg, || {
                rt.serve_concurrent(front.as_ref(), &scfg, stream)
            })
        });
        let r = r.expect("every serving task has a CPU implementation");
        if traced {
            ledger.fold(&drain());
            ledger.engine(tg, t.wall_s * 1e9, SERVE_WORKERS);
            ledger.threaded_ns += t.wall_s * 1e9 * SERVE_WORKERS as f64;
            ledger.threaded_tasks += r.trace.tasks.len() as f64;
            ledger.count("serve.subdags_rejected", r.subdags_rejected as f64);
        }
        round.op(n as u64, r.subdags_rejected, || {
            format!("serve_concurrent: {} sub-DAGs rejected", r.subdags_rejected)
        });
        let findings = mp_audit::streaming_audit(rt.graph(), &r.trace);
        let mut per_slot = vec![0.0; slots.len()];
        for k in 0..n {
            per_slot[Self::slot_of(k)] += 1.0;
        }
        let wrong_values = slots
            .iter()
            .zip(&per_slot)
            .filter(|(sl, &c)| {
                rt.buffer(sl.root)[0] != c
                    || sl.outs.iter().any(|&o| rt.buffer(o)[0] != c)
                    || rt.buffer(sl.join)[0] != c * SERVE_WIDTH as f64
            })
            .count();
        let ok = r.is_complete()
            && r.tasks_completed == n * tasks_per_subdag
            && findings.is_empty()
            && wrong_values == 0;
        round.op(1, u64::from(!ok), || {
            format!(
                "serve_concurrent: error {:?}, {} of {} tasks, {} audit findings, \
                 {wrong_values} slots with wrong final values",
                r.error,
                r.tasks_completed,
                n * tasks_per_subdag,
                findings.len()
            )
        });
        round
            .outputs
            .push(("serve_concurrent/digest".into(), rt.buffers_digest()));
        round.phase(
            "serve_concurrent",
            r.tasks_completed,
            t,
            "subdags_per_s".into(),
            r.subdags_admitted as usize,
        );
        round
    }
}
