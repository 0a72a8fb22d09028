//! Threaded-runtime throughput scaling: tasks/second as the worker count
//! grows, under the global-lock and sharded scheduler front-ends.
//!
//! The workload is deliberately scheduler-bound: thousands of near-empty
//! kernels, so almost all wall time is spent in push/pop/feedback. With
//! one mutex around the policy, adding workers adds contention instead of
//! throughput; the sharded multi-queue keeps the scheduling path mostly
//! uncontended and should pull ahead as workers increase (the adversarial
//! case for a global lock is exactly this one — cheap kernels).
//!
//! On a single-core host the absolute numbers cannot show parallel
//! speedup (threads timeshare the core); the front-end comparison at a
//! given worker count still reflects per-task synchronization overhead
//! and contended-wait time, which is what separates the two designs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mp_bench::{make_scheduler, make_scheduler_factory};
use mp_dag::access::AccessMode;
use mp_perfmodel::{PerfModel, TableModel, TimeFn};
use mp_platform::presets::homogeneous;
use mp_platform::types::ArchClass;
use mp_runtime::{Runtime, TaskBuilder};
use mp_sched::concurrent::ShardedAdapter;

/// Independent chains of cheap kernels: `chains × depth` tasks, each a
/// handful of float ops. Chains give the pushes a `releaser` (exercising
/// shard affinity) while leaving ample parallelism.
fn cheap_workload(workers: usize) -> Runtime {
    let model: Arc<dyn PerfModel> = Arc::new(
        TableModel::builder()
            .set("TICK", ArchClass::Cpu, TimeFn::Const(1.0))
            .build(),
    );
    let mut rt = Runtime::new(homogeneous(workers), model);
    let chains = 64;
    let depth = 32;
    for c in 0..chains {
        let d = rt.register(vec![1.0; 8], &format!("c{c}"));
        for _ in 0..depth {
            rt.submit(
                TaskBuilder::new("TICK")
                    .access(d, AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v += 1.0;
                        }
                    })
                    .flops(8.0),
            );
        }
    }
    rt
}

fn bench_scaling(c: &mut Criterion) {
    let tasks = 64 * 32;
    for workers in [1usize, 2, 4, 8] {
        let mut group = c.benchmark_group(format!("runtime_2048_cheap_tasks_w{workers}"));
        group.throughput(Throughput::Elements(tasks as u64));
        // The runtime is built once and re-run per iteration (a run
        // re-executes the whole submitted DAG), so only the execution —
        // worker threads + scheduler front-end — is timed.
        group.bench_function("global-lock", |b| {
            let mut rt = cheap_workload(workers);
            b.iter(|| {
                let r = rt.run(make_scheduler("fifo")).expect("run failed");
                std::hint::black_box(r.makespan_us)
            })
        });
        group.bench_function("sharded", |b| {
            let mut rt = cheap_workload(workers);
            let factory = make_scheduler_factory("fifo");
            b.iter(|| {
                let front = ShardedAdapter::new(workers, &*factory);
                let r = rt.run_concurrent(&front).expect("run failed");
                std::hint::black_box(r.makespan_us)
            })
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scaling
}
criterion_main!(benches);
