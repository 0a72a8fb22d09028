//! Differential test: `fifo` and `lws` keep their ready queues per
//! capability class, and must pop exactly what a scan of one queue in
//! push order pops. The scan-based references below are the
//! single-queue implementations the per-class queues replaced.

use std::collections::VecDeque;

use mp_apps::random::{random_dag, random_model, RandomDagConfig};
use mp_dag::{TaskGraph, TaskId};
use mp_perfmodel::{EstimateQuery, Estimator, PerfModel, TableModel};
use mp_platform::presets::simple;
use mp_platform::types::{ArchClass, Platform, WorkerId};
use mp_sched::testutil::{MapLocator, ZeroLoad};
use mp_sched::{FifoScheduler, LwsScheduler, SchedView, Scheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `random_model` with missing entries: every third dual-implementation
/// task has no CPU estimate, so the DAG mixes CPU-only, GPU-only and
/// dual tasks.
struct MissingEntries(TableModel);

impl PerfModel for MissingEntries {
    fn estimate(&self, q: &EstimateQuery<'_>) -> Option<f64> {
        let gpu_only = q.ttype.name == "RBOTH" && q.task.id.index().is_multiple_of(3);
        if gpu_only && q.arch.class == ArchClass::Cpu {
            return None;
        }
        self.0.estimate(q)
    }
}

/// The single-queue `fifo`: first executable task in push order.
#[derive(Default)]
struct ScanFifo {
    queue: VecDeque<TaskId>,
}

impl Scheduler for ScanFifo {
    fn name(&self) -> &'static str {
        "scan-fifo"
    }

    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, _view: &SchedView<'_>) {
        self.queue.push_back(t);
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let pos = self
            .queue
            .iter()
            .position(|&t| view.worker_can_exec(t, w))?;
        self.queue.remove(pos)
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// The single-deque `lws`: own deque scanned newest-first, victims
/// (same node first, then by id) scanned oldest-first.
#[derive(Default)]
struct ScanLws {
    deques: Vec<VecDeque<TaskId>>,
    rr: usize,
}

impl Scheduler for ScanLws {
    fn name(&self) -> &'static str {
        "scan-lws"
    }

    fn push(&mut self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let n = view.platform().worker_count();
        self.deques.resize_with(n, VecDeque::new);
        let owner = releaser.map_or_else(
            || {
                self.rr += 1;
                (self.rr - 1) % n
            },
            |w| w.index(),
        );
        self.deques[owner].push_back(t);
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let platform = view.platform();
        self.deques
            .resize_with(platform.worker_count(), VecDeque::new);
        let own = &mut self.deques[w.index()];
        if let Some(pos) = own.iter().rposition(|&t| view.worker_can_exec(t, w)) {
            return own.remove(pos);
        }
        let node = platform.worker(w).mem_node;
        let mut victims: Vec<WorkerId> = platform
            .workers()
            .iter()
            .map(|x| x.id)
            .filter(|&v| v != w)
            .collect();
        victims.sort_unstable_by_key(|&v| (platform.worker(v).mem_node != node, v));
        for v in victims {
            let deque = &mut self.deques[v.index()];
            if let Some(pos) = deque.iter().position(|&t| view.worker_can_exec(t, w)) {
                return deque.remove(pos);
            }
        }
        None
    }

    fn pending(&self) -> usize {
        self.deques.iter().map(VecDeque::len).sum()
    }
}

/// Replay `graph` with randomly interleaved pops and completions (the
/// interleaving is drawn from `seed`); returns every pop as
/// `(worker, result)`.
fn replay(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Scheduler,
    seed: u64,
) -> Vec<(WorkerId, Option<TaskId>)> {
    let loc = MapLocator::default();
    let view = SchedView {
        est: Estimator::new(graph, platform, model),
        loc: &loc,
        load: &ZeroLoad,
        now: 0.0,
    };
    let n = graph.task_count();
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.preds(TaskId::from_index(i)).len())
        .collect();
    for (i, _) in indeg.iter().enumerate().filter(|(_, &d)| d == 0) {
        sched.push(TaskId::from_index(i), None, &view);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut running: Vec<(WorkerId, TaskId)> = Vec::new();
    let mut log = Vec::new();
    let mut done = 0;
    while done < n {
        if !running.is_empty() && (sched.pending() == 0 || rng.gen_bool(0.4)) {
            let (w, t) = running.swap_remove(rng.gen_range(0..running.len()));
            done += 1;
            for &s in graph.succs(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    sched.push(s, Some(w), &view);
                }
            }
        } else {
            let w = WorkerId::from_index(rng.gen_range(0..platform.worker_count()));
            let popped = sched.pop(w, &view);
            if let Some(t) = popped {
                assert!(view.worker_can_exec(t, w));
                running.push((w, t));
            }
            log.push((w, popped));
        }
    }
    assert_eq!(sched.pending(), 0);
    log
}

#[test]
fn class_queues_pop_in_the_single_queue_scan_order() {
    let platform = simple(3, 1);
    let model = MissingEntries(random_model());
    for seed in 0..24u64 {
        let graph = random_dag(RandomDagConfig {
            layers: 10,
            width: 14,
            gpu_fraction: 0.6,
            seed,
            ..Default::default()
        });
        // Workers 0-2 are CPUs, worker 3 the GPU. Count CPU-only,
        // GPU-only and dual tasks.
        let est = Estimator::new(&graph, &platform, &model);
        let mut kinds = [0usize; 3];
        for t in graph.tasks() {
            let on_cpu = est.can_exec(t.id, platform.worker(WorkerId(0)).arch);
            let on_gpu = est.can_exec(t.id, platform.worker(WorkerId(3)).arch);
            kinds[usize::from(on_gpu) * 2 + usize::from(on_cpu) - 1] += 1;
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "mixed capabilities: {kinds:?}"
        );

        let pairs: [(Box<dyn Scheduler>, Box<dyn Scheduler>); 2] = [
            (Box::new(FifoScheduler::new()), Box::<ScanFifo>::default()),
            (Box::new(LwsScheduler::new()), Box::<ScanLws>::default()),
        ];
        for (mut fast, mut scan) in pairs {
            let want = replay(&graph, &platform, &model, scan.as_mut(), seed);
            let got = replay(&graph, &platform, &model, fast.as_mut(), seed);
            assert_eq!(got, want, "{} diverged on seed {seed}", fast.name());
        }
    }
}
