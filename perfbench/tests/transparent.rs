//! The tracing wrappers are transparent: a wrapped run computes exactly
//! what the unwrapped run computes — the same makespans and schedule
//! hashes in the simulator, the scheduler-only replay and `serve_sim`,
//! and the same buffer digests on the threaded runtime.

use std::sync::Arc;

use mp_apps::dense::{potrf, DenseConfig};
use mp_apps::fmm::{fmm, Distribution, FmmConfig};
use mp_audit::diff::schedule_hash;
use mp_bench::{make_scheduler, replay};
use mp_perfmodel::{PerfModel, TableModel, TimeFn};
use mp_platform::presets::{homogeneous, intel_v100, simple};
use mp_platform::types::ArchClass;
use mp_runtime::{Runtime, StreamConfig, Submission, TaskBuilder};
use mp_sched::{GlobalLock, Scheduler};
use mp_serve::{serve_sim, ArrivalProcess, ServeConfig, TenantSpec};
use mp_sim::{simulate, SimConfig};
use perfbench::layers::{tag, POLICIES};
use perfbench::span::{drain, Kind};
use perfbench::wrap::{TracedFront, TracedModel, TracedScheduler};

fn wrapped(policy: &str) -> TracedScheduler {
    TracedScheduler::new(make_scheduler(policy), tag(policy))
}

#[test]
fn wrappers_forward_policy_metadata() {
    for p in POLICIES {
        let (raw, w) = (make_scheduler(p), wrapped(p));
        assert_eq!(raw.name(), w.name(), "{p}");
        assert_eq!(raw.consumes_feedback(), w.consumes_feedback(), "{p}");
        assert_eq!(raw.emits_prefetches(), w.emits_prefetches(), "{p}");
    }
}

#[test]
fn wrapped_simulation_and_replay_are_bit_identical() {
    let dense = potrf(DenseConfig::new(8 * 960, 960)).graph;
    let fmm_graph = fmm(FmmConfig {
        particles: 4_000,
        tree_height: 4,
        group_size: 16,
        distribution: Distribution::Clustered,
        seed: 11,
    })
    .graph;
    let platform = intel_v100();
    let models: [(&mp_dag::TaskGraph, Arc<dyn PerfModel>); 2] = [
        (&dense, Arc::new(mp_apps::dense_model())),
        (&fmm_graph, Arc::new(mp_apps::fmm_model())),
    ];
    for (graph, model) in &models {
        let traced_model = TracedModel::new(Arc::clone(model));
        for p in POLICIES {
            let cfg = SimConfig::seeded(5).with_noise(0.3);
            let mut raw = make_scheduler(p);
            let a = simulate(graph, &platform, model.as_ref(), raw.as_mut(), cfg);
            let mut w = wrapped(p);
            let b = simulate(graph, &platform, &traced_model, &mut w, cfg);
            assert!(a.error.is_none() && a.is_complete(), "{p}: {:?}", a.error);
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{p} makespan");
            assert_eq!(
                schedule_hash(&a.trace),
                schedule_hash(&b.trace),
                "{p} schedule"
            );
            assert_eq!(a.stats.empty_pops, b.stats.empty_pops, "{p} empty pops");
            assert_eq!(a.stats.demand_bytes, b.stats.demand_bytes, "{p} transfers");

            let mut raw = make_scheduler(p);
            let a = replay(graph, &platform, model.as_ref(), raw.as_mut());
            let mut w = wrapped(p);
            let b = replay(graph, &platform, &traced_model, &mut w);
            assert_eq!(a.schedule_hash, b.schedule_hash, "{p} replay");
            assert_eq!(a.pops, b.pops, "{p} replay pops");
        }
    }
    // The wrapped runs recorded scheduler spans and folded model calls.
    let d = drain();
    let pops = d
        .spans
        .iter()
        .flatten()
        .filter(|s| s.kind == Kind::SchedPop && s.tag == tag("dmdas"))
        .count();
    assert!(pops > 0, "no dmdas pop spans recorded");
    assert!(d
        .folded
        .iter()
        .any(|(k, st)| *k == Kind::Estimate && st.calls > 0));
}

fn srv_model() -> Arc<dyn PerfModel> {
    Arc::new(
        TableModel::builder()
            .set("SRV", ArchClass::Cpu, TimeFn::Const(25.0))
            .build(),
    )
}

#[test]
fn wrapped_serve_sim_is_bit_identical() {
    let mut cfg = ServeConfig::new(
        vec![TenantSpec::new("a", 3.0), TenantSpec::new("b", 1.0)],
        ArrivalProcess::Poisson {
            rate_per_sec: 20_000.0,
        },
        500,
    );
    cfg.seed = 99;
    let platform = homogeneous(2);
    let model = srv_model();
    for p in ["prio", "fifo", "multiprio", "dmdas"] {
        let mut raw = make_scheduler(p);
        let a = serve_sim(&platform, model.as_ref(), raw.as_mut(), &cfg);
        let mut w = wrapped(p);
        let b = serve_sim(
            &platform,
            &TracedModel::new(Arc::clone(&model)),
            &mut w,
            &cfg,
        );
        assert!(a.is_complete(), "{p}: {:?}", a.error);
        assert_eq!(a.schedule_hash, b.schedule_hash, "{p} schedule");
        assert_eq!(
            a.makespan_us.to_bits(),
            b.makespan_us.to_bits(),
            "{p} makespan"
        );
        assert_eq!(a.decisions, b.decisions, "{p} decisions");
    }
}

/// A small tile Cholesky on the runtime with the benchmark's kernels.
fn cholesky_runtime(model: Arc<dyn PerfModel>) -> Runtime {
    use perfbench::kernels::{initial_tile, TileOp, B};
    let graph = potrf(DenseConfig::new(6 * B, B)).graph;
    let mut rt = Runtime::new(simple(1, 1), model);
    for d in 0..graph.data_count() {
        let diag = d % 7 == 0; // tile (i, i) of a 6×6 tile grid
        rt.register(initial_tile(3, d, diag, 6), "t");
    }
    for t in graph.tasks() {
        let name = &graph.task_type(t.ttype).name;
        let op = TileOp::from_type(name);
        let body = move |ctx: &mut mp_runtime::TaskCtx<'_>| {
            let reads = ctx.len() - 1;
            let ins: Vec<Vec<f64>> = (0..reads).map(|i| ctx.r(i).to_vec()).collect();
            let refs: Vec<&[f64]> = ins.iter().map(Vec::as_slice).collect();
            op.apply(&refs, ctx.w(reads));
        };
        let mut tb = TaskBuilder::new(name)
            .priority(t.user_priority)
            .cpu(body)
            .gpu(body);
        for a in &t.accesses {
            tb = tb.access(a.data, a.mode);
        }
        rt.submit(tb);
    }
    rt
}

#[test]
fn wrapped_threaded_runs_give_identical_digests() {
    let model: Arc<dyn PerfModel> = Arc::new(
        TableModel::builder()
            .set("POTRF", ArchClass::Cpu, TimeFn::Const(2.0))
            .set("TRSM", ArchClass::Cpu, TimeFn::Const(2.0))
            .set("SYRK", ArchClass::Cpu, TimeFn::Const(2.0))
            .set("GEMM", ArchClass::Cpu, TimeFn::Const(2.0))
            .set("POTRF", ArchClass::Gpu, TimeFn::Const(1.0))
            .set("TRSM", ArchClass::Gpu, TimeFn::Const(1.0))
            .set("SYRK", ArchClass::Gpu, TimeFn::Const(1.0))
            .set("GEMM", ArchClass::Gpu, TimeFn::Const(1.0))
            .build(),
    );
    for p in ["multiprio", "dmdas", "prio"] {
        let mut raw = cholesky_runtime(Arc::clone(&model));
        let a = raw.run(make_scheduler(p)).expect("runs");
        let traced: Arc<dyn PerfModel> = Arc::new(TracedModel::new(Arc::clone(&model)));
        let mut w = cholesky_runtime(traced);
        let front = TracedFront::new(
            GlobalLock::new(Box::new(wrapped(p)) as Box<dyn Scheduler>),
            tag(p),
        );
        let b = w.run_concurrent(&front).expect("runs");
        assert!(a.is_complete() && b.is_complete(), "{p}");
        assert_eq!(a.trace.tasks.len(), b.trace.tasks.len(), "{p}");
        assert_eq!(raw.buffers_digest(), w.buffers_digest(), "{p} digest");
    }
}

#[test]
fn wrapped_threaded_serving_gives_identical_digests() {
    let serve = |traced: bool| -> u64 {
        let model = srv_model();
        let model = if traced {
            Arc::new(TracedModel::new(model))
        } else {
            model
        };
        let mut rt = Runtime::new(homogeneous(2), model);
        let roots: Vec<_> = (0..4)
            .map(|i| rt.register(vec![0.0], &format!("r{i}")))
            .collect();
        let stream: Vec<Submission> = (0..200)
            .map(|k| Submission {
                tenant: k % 2,
                tasks: vec![
                    TaskBuilder::new("SRV")
                        .access(roots[k % 4], mp_dag::AccessMode::ReadWrite)
                        .cpu(|ctx| ctx.w(0)[0] = ctx.r(0)[0] * 1.5 + 1.0),
                    TaskBuilder::new("SRV")
                        .access(roots[(k + 1) % 4], mp_dag::AccessMode::ReadWrite)
                        .cpu(|ctx| ctx.w(0)[0] -= 0.25),
                ],
            })
            .collect();
        let mut cfg = StreamConfig::new(vec![TenantSpec::new("a", 2.0), TenantSpec::new("b", 1.0)]);
        cfg.admission.max_in_flight = 1 << 20;
        let r = if traced {
            let front = TracedFront::new(
                GlobalLock::new(Box::new(wrapped("prio")) as Box<dyn Scheduler>),
                tag("prio"),
            );
            rt.serve_concurrent(&front, &cfg, stream)
        } else {
            rt.serve(make_scheduler("prio"), &cfg, stream)
        }
        .expect("serves");
        assert!(r.is_complete() && r.subdags_rejected == 0);
        rt.buffers_digest()
    };
    assert_eq!(serve(false), serve(true));
}
