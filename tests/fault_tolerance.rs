//! Worker-failure tolerance (DESIGN.md §9): detection, quarantine, task
//! retry with backoff, and replica recovery.
//!
//! The contract under a fault plan: every run either completes with each
//! task committed at least once (*effectively-once* — sim-side recompute
//! recovery may legitimately re-commit a producer whose output died with
//! a device), or stops with a typed error naming the task that no
//! surviving worker can execute. Fault injection is deterministic — the
//! same plan reproduces the same schedule bit for bit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use multiprio_suite::apps::dense::{potrf, DenseConfig};
use multiprio_suite::apps::dense_model;
use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::audit::streaming_audit;
use multiprio_suite::audit::{differential, schedule_hash, DiffConfig};
use multiprio_suite::bench::make_scheduler_factory;
use multiprio_suite::dag::DataId;
use multiprio_suite::dag::{AccessMode, TaskGraph};
use multiprio_suite::perfmodel::{PerfModel, TableModel, TimeFn};
use multiprio_suite::platform::presets::simple;
use multiprio_suite::platform::types::ArchClass;
use multiprio_suite::runtime::serve::TenantSpec;
use multiprio_suite::runtime::{
    FaultPlan, RelaxedConfig, RelaxedMultiQueue, RetryPolicy, RunError, Runtime, StreamConfig,
    StreamReport, Submission, TaskBuilder, TaskCtx,
};
use multiprio_suite::sched::concurrent::ShardedAdapter;
use multiprio_suite::sched::EagerPrioScheduler;
use multiprio_suite::sim::{simulate, SimConfig, SimError};
use multiprio_suite::trace::Trace;
use proptest::prelude::*;

const SCHEDULERS: [&str; 4] = ["multiprio", "dmdas", "heteroprio", "lws"];

/// Every task committed at least once.
fn effectively_once(graph: &TaskGraph, trace: &Trace) -> bool {
    let mut counts = vec![0usize; graph.task_count()];
    for s in &trace.tasks {
        counts[s.task.index()] += 1;
    }
    counts.iter().all(|&c| c >= 1)
}

/// Kill plans through the full differential harness: the sim (virtual
/// time) and the runtime (wall clock, both front-ends) must both
/// quarantine the victim, finish the DAG on the survivors, and agree on
/// effectively-once + precedence.
#[test]
fn kill_sweep_differential_agrees_across_front_ends() {
    let g = random_dag(RandomDagConfig {
        layers: 4,
        width: 5,
        seed: 23,
        ..Default::default()
    });
    let model: Arc<dyn PerfModel> = Arc::new(random_model());
    let platform = simple(3, 1);
    for sched in SCHEDULERS {
        let factory = make_scheduler_factory(sched);
        for shards in [0usize, 4] {
            // Kill a CPU early, a CPU late, and the lone GPU (every
            // random-DAG kernel keeps a CPU implementation, so the run
            // must still complete).
            for plan in [
                FaultPlan::default().kill_worker(0, 0),
                FaultPlan::default().kill_worker(1, 3),
                FaultPlan::default().kill_worker(3, 1),
                FaultPlan::default().kill_worker(0, 1).kill_worker(3, 2),
            ] {
                let cfg = DiffConfig {
                    sim_cfg: SimConfig::seeded(5),
                    shards,
                    faults: Some(plan),
                    retry: RetryPolicy::new(4, 0.0),
                    relaxed: None,
                };
                let report = differential(&g, &platform, &model, &*factory, &cfg);
                assert!(
                    report.is_clean(),
                    "{sched}/shards={shards}/kills={:?}: first mismatch: {}",
                    plan.kills,
                    report.mismatches[0]
                );
            }
        }
    }
}

/// Transient failures under the differential harness: with a retry
/// budget both sides absorb every failed attempt and agree.
#[test]
fn transient_sweep_differential_agrees_across_front_ends() {
    let g = random_dag(RandomDagConfig {
        layers: 4,
        width: 5,
        seed: 29,
        ..Default::default()
    });
    let model: Arc<dyn PerfModel> = Arc::new(random_model());
    let platform = simple(3, 1);
    for sched in SCHEDULERS {
        let factory = make_scheduler_factory(sched);
        for shards in [0usize, 4] {
            let plan = FaultPlan {
                seed: 31,
                transient_fail_prob: 0.3,
                ..FaultPlan::default()
            };
            let cfg = DiffConfig {
                sim_cfg: SimConfig::seeded(5),
                shards,
                faults: Some(plan),
                retry: RetryPolicy::new(16, 2.0),
                relaxed: None,
            };
            let report = differential(&g, &platform, &model, &*factory, &cfg);
            assert!(
                report.is_clean(),
                "{sched}/shards={shards}: first mismatch: {}",
                report.mismatches[0]
            );
        }
    }
}

/// Killing every GPU mid-Cholesky degrades the run to CPU-only: the
/// survivors absorb the remaining tasks (every dense kernel has a CPU
/// implementation) and the DAG completes effectively-once.
#[test]
fn all_gpus_killed_cholesky_degrades_to_cpu_and_completes() {
    let w = potrf(DenseConfig::new(6 * 480, 480));
    let model = dense_model();
    let platform = simple(4, 2); // workers 0–3 CPU, 4–5 GPU
    for sched in SCHEDULERS {
        let f = make_scheduler_factory(sched);
        let mut s = f();
        let r = simulate(
            &w.graph,
            &platform,
            &model,
            s.as_mut(),
            SimConfig::seeded(3)
                .with_faults(FaultPlan::default().kill_worker(4, 2).kill_worker(5, 3))
                .with_retry(RetryPolicy::new(4, 0.0)),
        );
        assert!(r.error.is_none(), "{sched}: {:?}", r.error);
        assert_eq!(r.stats.worker_failures, 2, "{sched}");
        assert!(effectively_once(&w.graph, &r.trace), "{sched}");
        // After the last GPU span ends, everything runs on the CPUs.
        let gpu_last = r
            .trace
            .tasks
            .iter()
            .filter(|sp| sp.worker.index() >= 4)
            .map(|sp| sp.end)
            .fold(0.0f64, f64::max);
        assert!(gpu_last > 0.0, "{sched}: GPUs never ran before dying");
        let cpu_after = r
            .trace
            .tasks
            .iter()
            .filter(|sp| sp.start >= gpu_last)
            .collect::<Vec<_>>();
        assert!(
            !cpu_after.is_empty() && cpu_after.iter().all(|sp| sp.worker.index() < 4),
            "{sched}: post-failure spans not CPU-only"
        );
    }
}

/// The same fault plan reproduces the same schedule bit for bit — kills,
/// retries and recompute recovery all run on virtual time, never the
/// wall clock.
#[test]
fn fault_schedules_are_bit_identical_across_repeats() {
    let w = potrf(DenseConfig::new(4 * 480, 480));
    let model = dense_model();
    let platform = simple(2, 2);
    for sched in SCHEDULERS {
        let plan = FaultPlan {
            seed: 17,
            transient_fail_prob: 0.2,
            ..FaultPlan::default()
        }
        .kill_worker(3, 1)
        .kill_worker(1, 4);
        let run = || {
            let f = make_scheduler_factory(sched);
            let mut s = f();
            simulate(
                &w.graph,
                &platform,
                &model,
                s.as_mut(),
                SimConfig::seeded(11)
                    .with_faults(plan)
                    .with_retry(RetryPolicy::new(16, 3.0)),
            )
        };
        let (a, b) = (run(), run());
        assert!(a.error.is_none(), "{sched}: {:?}", a.error);
        assert_eq!(
            schedule_hash(&a.trace),
            schedule_hash(&b.trace),
            "{sched}: fault schedule not repeat-deterministic"
        );
    }
}

/// Mixed-capability graph for the survivor proptest: chains of CPU-only,
/// GPU-only and dual-implementation kernels, selected by `kinds` bits.
fn mixed_graph(kinds: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut specs = Vec::new();
    if kinds & 1 != 0 {
        specs.push(g.register_type("CPUONLY", true, false));
    }
    if kinds & 2 != 0 {
        specs.push(g.register_type("GPUONLY", false, true));
    }
    if kinds & 4 != 0 {
        specs.push(g.register_type("BOTH", true, true));
    }
    for (i, &k) in specs.iter().enumerate() {
        let d = g.add_data(1024, format!("d{i}"));
        for j in 0..3 {
            g.add_task(
                k,
                vec![(d, AccessMode::ReadWrite)],
                1.0,
                format!("t{i}_{j}"),
            );
        }
    }
    g
}

fn mixed_model() -> TableModel {
    TableModel::builder()
        .set("CPUONLY", ArchClass::Cpu, TimeFn::Const(50.0))
        .set("GPUONLY", ArchClass::Gpu, TimeFn::Const(20.0))
        .set("BOTH", ArchClass::Cpu, TimeFn::Const(50.0))
        .set("BOTH", ArchClass::Gpu, TimeFn::Const(20.0))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Kill a random subset of workers at start-of-run: the run completes
    /// (effectively-once) iff every kernel kind present retains a capable
    /// survivor; otherwise it stops with the typed `NoCapableWorker`.
    #[test]
    fn prop_completes_iff_every_kernel_keeps_a_capable_survivor(
        kill_mask in 0u32..8,
        kinds in 1usize..8,
        sched_idx in 0usize..SCHEDULERS.len(),
    ) {
        // simple(2, 1): workers 0–1 CPU, worker 2 GPU.
        let g = mixed_graph(kinds);
        let model = mixed_model();
        let platform = simple(2, 1);
        let mut plan = FaultPlan::default();
        for wk in 0..3usize {
            if kill_mask & (1 << wk) != 0 {
                plan = plan.kill_worker(wk, 0);
            }
        }
        let cpu_survives = kill_mask & 0b011 != 0b011;
        let gpu_survives = kill_mask & 0b100 == 0;
        let expect_ok = (kinds & 1 == 0 || cpu_survives)
            && (kinds & 2 == 0 || gpu_survives)
            && (kinds & 4 == 0 || cpu_survives || gpu_survives);

        let factory = make_scheduler_factory(SCHEDULERS[sched_idx]);
        let mut s = factory();
        let r = simulate(&g, &platform, &model, s.as_mut(),
            SimConfig::seeded(7).with_faults(plan).with_retry(RetryPolicy::new(4, 0.0)));
        if expect_ok {
            prop_assert!(r.error.is_none(),
                "mask={kill_mask:03b} kinds={kinds:03b} {}: unexpected {:?}",
                SCHEDULERS[sched_idx], r.error);
            prop_assert_eq!(r.stats.tasks, g.task_count());
            prop_assert!(effectively_once(&g, &r.trace));
        } else {
            prop_assert!(
                matches!(r.error, Some(SimError::NoCapableWorker { .. })),
                "mask={kill_mask:03b} kinds={kinds:03b} {}: expected NoCapableWorker, got {:?}",
                SCHEDULERS[sched_idx], r.error
            );
        }
    }
}

// ---- Threaded serving under faults ------------------------------------
//
// Streams run through the same worker loop as batch runs, so they must
// survive the same faults: worker kills (quarantine), transient attempt
// failures and panicking kernels (retry), and end with a typed error
// when no capable worker is left.

/// simple(3, 1): workers 0–2 are CPUs, worker 3 is the GPU.
const SERVE_CPUS: usize = 3;

fn serve_model() -> Arc<dyn PerfModel> {
    Arc::new(
        TableModel::builder()
            .set("SRV", ArchClass::Cpu, TimeFn::Const(5.0))
            .set("SRV", ArchClass::Gpu, TimeFn::Const(2.0))
            .set("SRVG", ArchClass::Gpu, TimeFn::Const(2.0))
            .build(),
    )
}

/// A task of type `SRV` running `f` on either class. When `flaky`, the
/// first attempt panics before touching any buffer.
fn srv(flaky: bool, f: impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static) -> TaskBuilder {
    let armed = AtomicBool::new(flaky);
    let body = Arc::new(move |ctx: &mut TaskCtx<'_>| {
        assert!(!armed.swap(false, Ordering::Relaxed), "flaky kernel");
        f(ctx);
    });
    let gpu = Arc::clone(&body);
    TaskBuilder::new("SRV")
        .cpu(move |ctx| body(ctx))
        .gpu(move |ctx| gpu(ctx))
}

/// One sub-DAG: bump `root`, copy it into each of `outs`, sum the
/// copies into `sum`. Final buffer values depend only on how many
/// sub-DAGs ran on each root, never on the schedule.
fn serve_subdag(
    tenant: usize,
    root: DataId,
    outs: &[DataId],
    sum: DataId,
    flaky: bool,
) -> Submission {
    let mut tasks = vec![srv(flaky, |ctx| ctx.w(0)[0] += 1.0).access(root, AccessMode::ReadWrite)];
    for &o in outs {
        tasks.push(
            srv(false, |ctx| ctx.w(0)[0] = ctx.r(1)[0])
                .access(o, AccessMode::Write)
                .access(root, AccessMode::Read),
        );
    }
    let mut join = srv(flaky, |ctx| {
        let s = (1..ctx.len()).map(|i| ctx.r(i)[0]).sum();
        ctx.w(0)[0] = s;
    })
    .access(sum, AccessMode::Write);
    for &o in outs {
        join = join.access(o, AccessMode::Read);
    }
    tasks.push(join);
    Submission { tenant, tasks }
}

/// Serve `stream` through front-end `front`: 0 = global lock, 1 =
/// sharded, otherwise relaxed.
fn serve_on(rt: &mut Runtime, front: usize, stream: Vec<Submission>) -> StreamReport {
    let cfg = StreamConfig::new(TenantSpec::equal(2));
    let report = match front {
        0 => rt.serve(Box::new(EagerPrioScheduler::new()), &cfg, stream),
        1 => {
            let front = ShardedAdapter::new(2, &|| Box::new(EagerPrioScheduler::new()));
            rt.serve_concurrent(&front, &cfg, stream)
        }
        _ => {
            let front = RelaxedMultiQueue::new(SERVE_CPUS + 1, RelaxedConfig::default());
            rt.serve_concurrent(&front, &cfg, stream)
        }
    };
    report.expect("every stream here is valid")
}

/// Twelve fork-join sub-DAGs over three roots, from two tenants, with
/// every other sub-DAG's bump and join flaky when `flaky`.
fn faulty_serve(
    front: usize,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    flaky: bool,
) -> (StreamReport, Runtime) {
    let mut rt = Runtime::new(simple(SERVE_CPUS, 1), serve_model());
    if let Some(plan) = plan {
        rt.set_faults(plan);
    }
    rt.set_retry_policy(retry);
    let slots: Vec<(DataId, Vec<DataId>, DataId)> = (0..3)
        .map(|k| {
            let root = rt.register(vec![0.0], &format!("root{k}"));
            let outs = (0..2)
                .map(|i| rt.register(vec![0.0], &format!("out{k}.{i}")))
                .collect();
            (root, outs, rt.register(vec![0.0], &format!("sum{k}")))
        })
        .collect();
    let stream = (0..12)
        .map(|i| {
            let (root, outs, sum) = &slots[i % 3];
            serve_subdag(i % 2, *root, outs, *sum, flaky && i % 2 == 0)
        })
        .collect();
    let report = serve_on(&mut rt, front, stream);
    (report, rt)
}

#[test]
fn serving_survives_kill_transient_and_panic_retry_plans() {
    let retry = RetryPolicy::new(16, 0.0);
    for front in 0..3 {
        let (clean, rt) = faulty_serve(front, None, RetryPolicy::default(), false);
        assert!(clean.is_complete(), "front {front}: {:?}", clean.error);
        let want = rt.buffers_digest();
        let kill = FaultPlan::default()
            .kill_worker(0, 2)
            .kill_worker(SERVE_CPUS, 1);
        let transient = FaultPlan {
            seed: 11,
            transient_fail_prob: 0.3,
            ..FaultPlan::default()
        };
        for (name, plan, flaky) in [
            ("kill", Some(kill), false),
            ("transient", Some(transient), false),
            ("panic-retry", None, true),
        ] {
            let (r, rt) = faulty_serve(front, plan, retry, flaky);
            assert!(r.is_complete(), "front {front}/{name}: {:?}", r.error);
            assert_eq!(r.tasks_completed, 12 * 4, "front {front}/{name}");
            let findings = streaming_audit(rt.graph(), &r.trace);
            assert!(findings.is_empty(), "front {front}/{name}: {}", findings[0]);
            assert_eq!(
                rt.buffers_digest(),
                want,
                "front {front}/{name}: buffers differ"
            );
        }
    }
}

#[test]
fn serving_aborts_on_first_panic_under_the_default_retry_policy() {
    for front in 0..3 {
        let (r, rt) = faulty_serve(front, None, RetryPolicy::default(), true);
        assert!(
            matches!(r.error, Some(RunError::KernelPanicked { .. })),
            "front {front}: got {:?}",
            r.error
        );
        assert!(!r.is_complete());
        // A partial trace: what ran before the abort ran once.
        assert!(r.trace.tasks.len() < rt.graph().task_count());
        let mut seen = vec![false; rt.graph().task_count()];
        for s in &r.trace.tasks {
            assert!(!std::mem::replace(&mut seen[s.task.index()], true));
        }
    }
}

/// GPU-only sub-DAGs on a platform whose lone GPU dies: the stream ends
/// with `NoCapableWorker` instead of hanging — whether the doomed tasks
/// were committed before the death (found by the dying worker) or after
/// it (found by the driver at commit).
#[test]
fn serving_ends_typed_when_the_only_capable_class_dies() {
    let gpu_only = |d: DataId| Submission {
        tenant: 1,
        tasks: vec![TaskBuilder::new("SRVG")
            .access(d, AccessMode::ReadWrite)
            .gpu(|ctx| ctx.w(0)[0] += 1.0)],
    };
    for front in 0..3 {
        // Committed before the death: the GPU dies after its first task.
        let mut rt = Runtime::new(simple(SERVE_CPUS, 1), serve_model());
        rt.set_faults(FaultPlan::default().kill_worker(SERVE_CPUS, 1));
        let d = rt.register(vec![0.0], "d");
        let r = serve_on(&mut rt, front, (0..8).map(|_| gpu_only(d)).collect());
        assert!(
            matches!(r.error, Some(RunError::NoCapableWorker { .. })),
            "front {front}: got {:?}",
            r.error
        );

        // Committed after the death: the GPU dies at start, while the
        // driver is still committing a long run of CPU work.
        let mut rt = Runtime::new(simple(SERVE_CPUS, 1), serve_model());
        rt.set_faults(FaultPlan::default().kill_worker(SERVE_CPUS, 0));
        let (c, d) = (rt.register(vec![0.0], "c"), rt.register(vec![0.0], "d"));
        let mut stream: Vec<Submission> = (0..200)
            .map(|_| Submission {
                tenant: 0,
                tasks: vec![srv(false, |ctx| ctx.w(0)[0] += 1.0).access(c, AccessMode::ReadWrite)],
            })
            .collect();
        stream.push(gpu_only(d));
        let r = serve_on(&mut rt, front, stream);
        match r.error {
            Some(RunError::NoCapableWorker { task }) => {
                assert_eq!(rt.graph().type_of(task).name, "SRVG", "front {front}");
            }
            other => panic!("front {front}: expected NoCapableWorker, got {other:?}"),
        }
    }
}
