//! Concurrency invariants of the threaded runtime: under randomized DAGs,
//! worker counts and shard counts, every task executes exactly once and
//! no task starts before all of its predecessors finished — under all
//! three scheduler front-ends (global lock, sharded, relaxed multi-queue).

use std::collections::HashMap;
use std::sync::Arc;

use multiprio_suite::bench::{make_scheduler, make_scheduler_factory};
use multiprio_suite::dag::{AccessMode, DataId, TaskId};
use multiprio_suite::perfmodel::{PerfModel, TableModel, TimeFn};
use multiprio_suite::platform::presets::homogeneous;
use multiprio_suite::platform::types::ArchClass;
use multiprio_suite::runtime::{RelaxedConfig, RelaxedMultiQueue, RunReport, Runtime, TaskBuilder};
use multiprio_suite::sched::concurrent::ShardedAdapter;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn model() -> Arc<dyn PerfModel> {
    Arc::new(
        TableModel::builder()
            .set("STEP", ArchClass::Cpu, TimeFn::Const(5.0))
            .build(),
    )
}

/// Submit a `layers × width` random DAG: each task increments its own
/// buffer and reads a random other buffer, so the STF front-end infers a
/// random cross-chain dependency structure. Returns the task count.
fn submit_random_dag(rt: &mut Runtime, layers: usize, width: usize, seed: u64) -> usize {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let bufs: Vec<_> = (0..width)
        .map(|i| rt.register(vec![0.0; 4], &format!("b{i}")))
        .collect();
    let mut count = 0;
    for l in 0..layers {
        for i in 0..width {
            let mut tb = TaskBuilder::new("STEP").access(bufs[i], AccessMode::ReadWrite);
            let j = rng.gen_range(0..width);
            if j != i {
                tb = tb.access(bufs[j], AccessMode::Read);
            }
            rt.submit(
                tb.cpu(|ctx| {
                    for v in ctx.w(0) {
                        *v += 1.0;
                    }
                })
                .flops(4.0)
                .label(format!("t{l}_{i}")),
            );
            count += 1;
        }
    }
    count
}

/// Assert the two invariants on a finished run's wall-clock trace:
/// exactly-once execution and DAG precedence.
fn check_invariants(rt: &Runtime, report: &RunReport, expected_tasks: usize) {
    // Exactly once: one span per task, no task missing or duplicated.
    let mut spans: HashMap<TaskId, (f64, f64)> = HashMap::new();
    for s in &report.trace.tasks {
        assert!(
            spans.insert(s.task, (s.start, s.end)).is_none(),
            "task {:?} executed more than once",
            s.task
        );
    }
    assert_eq!(spans.len(), expected_tasks, "every task must execute");
    // Precedence: no task starts before all its predecessors ended
    // (start and end come from one monotonic clock).
    for i in 0..expected_tasks {
        let t = TaskId::from_index(i);
        let (start, _) = spans[&t];
        for &p in rt.graph().preds(t) {
            let (_, pred_end) = spans[&p];
            assert!(
                pred_end <= start,
                "task {t:?} started at {start} before predecessor {p:?} ended at {pred_end}"
            );
        }
    }
    report.trace.validate().expect("valid trace");
}

fn run_and_check(layers: usize, width: usize, workers: usize, shards: usize, seed: u64) {
    // Global-lock front-end.
    let mut rt = Runtime::new(homogeneous(workers), model());
    let n = submit_random_dag(&mut rt, layers, width, seed);
    let report = rt.run(make_scheduler("fifo")).expect("global run failed");
    check_invariants(&rt, &report, n);

    // Sharded front-end, same DAG.
    let mut rt = Runtime::new(homogeneous(workers), model());
    let n = submit_random_dag(&mut rt, layers, width, seed);
    let front = ShardedAdapter::new(shards, &|| make_scheduler("fifo"));
    let report = rt.run_concurrent(&front).expect("sharded run failed");
    check_invariants(&rt, &report, n);
    // Each task adds 1.0 to its own buffer once: values prove effects
    // were neither lost nor applied twice.
    for i in 0..width {
        let b = rt.buffer(DataId::from_index(i));
        assert!(
            b.iter().all(|&v| v == layers as f64),
            "buffer {i} corrupted: {b:?}"
        );
    }

    // Relaxed multi-queue front-end, same DAG. The pop order may deviate
    // from exact priority order, but exactly-once and precedence are
    // unconditional.
    let mut rt = Runtime::new(homogeneous(workers), model());
    let n = submit_random_dag(&mut rt, layers, width, seed);
    let cfg = RelaxedConfig {
        queues_per_worker: 1 + (shards % 3),
        seed,
        track_rank: true,
    };
    let front = RelaxedMultiQueue::new(workers, cfg);
    let report = rt.run_concurrent(&front).expect("relaxed run failed");
    check_invariants(&rt, &report, n);
    let rank = front.rank_stats().expect("relaxed run reports rank stats");
    assert_eq!(rank.pops as usize, n);
    for i in 0..width {
        let b = rt.buffer(DataId::from_index(i));
        assert!(
            b.iter().all(|&v| v == layers as f64),
            "buffer {i} corrupted under relaxed front-end: {b:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn workers_drain_every_task_exactly_once_respecting_deps(
        layers in 1usize..5,
        width in 1usize..7,
        workers in 1usize..5,
        shards in 1usize..4,
        seed in 0u64..10_000,
    ) {
        run_and_check(layers, width, workers, shards, seed);
    }
}

/// Heavier randomized drain. Debug builds keep it small so plain
/// `cargo test` stays fast; `cargo test --release` runs the full size.
#[test]
fn stress_many_workers_many_tasks() {
    let (layers, width) = if cfg!(debug_assertions) {
        (8, 16)
    } else {
        (40, 32)
    };
    for seed in 0..3 {
        run_and_check(layers, width, 8, 8, seed);
    }
    // MultiPrio (stateful, hold-backs, shared gain) through the sharded
    // front-end at full width.
    let mut rt = Runtime::new(homogeneous(8), model());
    let n = submit_random_dag(&mut rt, layers, width, 42);
    let front = ShardedAdapter::new(8, &*make_scheduler_factory("multiprio"));
    let report = rt
        .run_concurrent(&front)
        .expect("multiprio sharded run failed");
    check_invariants(&rt, &report, n);
    // Relaxed front-end at full width and c=4 (32 queues, 8 workers).
    let mut rt = Runtime::new(homogeneous(8), model());
    let n = submit_random_dag(&mut rt, layers, width, 42);
    let cfg = RelaxedConfig {
        queues_per_worker: 4,
        seed: 42,
        track_rank: false,
    };
    let report = rt
        .run_concurrent(&RelaxedMultiQueue::new(8, cfg))
        .expect("relaxed stress run failed");
    check_invariants(&rt, &report, n);
}
