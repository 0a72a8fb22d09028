//! The threaded runtime executes real closures under every scheduler and
//! produces correct results and valid wall-clock traces — under both the
//! global-lock and the sharded concurrent front-ends.

use std::sync::Arc;

use multiprio_suite::bench::make_scheduler;
use multiprio_suite::dag::AccessMode;
use multiprio_suite::perfmodel::{HistoryModel, PerfModel, TableModel, TimeFn};
use multiprio_suite::platform::presets::{homogeneous, simple};
use multiprio_suite::platform::types::ArchClass;
use multiprio_suite::runtime::{RunReport, Runtime, TaskBuilder};
use multiprio_suite::sched::concurrent::ShardedAdapter;

fn vector_pipeline(
    rt: &mut Runtime,
    chains: usize,
    len: usize,
) -> Vec<multiprio_suite::dag::DataId> {
    let data: Vec<_> = (0..chains)
        .map(|i| rt.register(vec![1.0; len], &format!("v{i}")))
        .collect();
    for step in 0..4 {
        for &d in &data {
            rt.submit(
                TaskBuilder::new("SCALE")
                    .access(d, AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v *= 2.0;
                        }
                    })
                    .gpu(|ctx| {
                        for v in ctx.w(0) {
                            *v *= 2.0;
                        }
                    })
                    .flops(len as f64)
                    .label(format!("scale{step}")),
            );
        }
    }
    data
}

fn model() -> Arc<dyn PerfModel> {
    Arc::new(
        TableModel::builder()
            .set("SCALE", ArchClass::Cpu, TimeFn::Const(20.0))
            .set("SCALE", ArchClass::Gpu, TimeFn::Const(5.0))
            .build(),
    )
}

/// Run the standard pipeline under one scheduler and front-end; return
/// the report plus the final buffer contents.
fn run_pipeline(sched: &str, shards: Option<usize>) -> (RunReport, Vec<Vec<f64>>) {
    let mut rt = Runtime::new(simple(2, 1), model());
    let data = vector_pipeline(&mut rt, 6, 512);
    let report = match shards {
        None => rt.run(make_scheduler(sched)),
        Some(s) => rt.run_concurrent(&ShardedAdapter::new(s, &|| make_scheduler(sched))),
    }
    .unwrap_or_else(|e| panic!("{sched}: {e}"));
    let bufs = data.iter().map(|&d| rt.buffer(d)).collect();
    (report, bufs)
}

#[test]
fn every_scheduler_drives_the_real_runtime() {
    // LWS/fifo/etc. included: the runtime must work with any policy.
    for sched in ["multiprio", "dmdas", "heteroprio", "lws", "fifo"] {
        let (report, bufs) = run_pipeline(sched, None);
        assert_eq!(report.trace.tasks.len(), 24, "{sched}");
        report
            .trace
            .validate()
            .unwrap_or_else(|e| panic!("{sched}: {e}"));
        for b in bufs {
            assert!(
                b.iter().all(|&v| v == 16.0),
                "{sched}: four doublings must give 16"
            );
        }
    }
}

#[test]
fn sharded_front_end_matches_global_lock_results() {
    // Acceptance: identical buffer contents under both front-ends.
    for sched in ["multiprio", "dmdas", "fifo"] {
        let (global_report, global_bufs) = run_pipeline(sched, None);
        let (sharded_report, sharded_bufs) = run_pipeline(sched, Some(3));
        assert_eq!(global_report.trace.tasks.len(), 24, "{sched}");
        assert_eq!(sharded_report.trace.tasks.len(), 24, "{sched}");
        sharded_report
            .trace
            .validate()
            .unwrap_or_else(|e| panic!("{sched}: {e}"));
        assert!(sharded_report.scheduler.contains("sharded"), "{sched}");
        assert_eq!(global_bufs, sharded_bufs, "{sched}: front-ends must agree");
    }
}

#[test]
fn history_model_learns_from_real_execution() {
    let history = Arc::new(HistoryModel::new(
        TableModel::builder()
            .set("SCALE", ArchClass::Cpu, TimeFn::Const(1000.0)) // wrong prior
            .build(),
        2,
    ));
    let mut rt = Runtime::new(homogeneous(2), history.clone());
    let _ = vector_pipeline(&mut rt, 4, 256);
    let report = rt.run(make_scheduler("fifo")).expect("run failed");
    assert_eq!(report.trace.tasks.len(), 16);
    assert!(
        history.bucket_count() > 0,
        "measured times must populate the history model"
    );
}

#[test]
fn wall_clock_trace_is_consistent() {
    let mut rt = Runtime::new(homogeneous(4), model());
    let _ = vector_pipeline(&mut rt, 8, 1024);
    let report = rt.run(make_scheduler("multiprio")).expect("run failed");
    assert!(report.makespan_us > 0.0);
    let last_end = report
        .trace
        .tasks
        .iter()
        .map(|s| s.end)
        .fold(0.0f64, f64::max);
    assert!(last_end <= report.makespan_us + 1.0);
    report.trace.validate().expect("no overlap, no time travel");
}
