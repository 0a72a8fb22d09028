//! Differential test: `dm`, `dmda` and `dmdas` memoize δ per arch and the
//! fetch time per memory node within one push, and must map, queue, pop
//! and prefetch exactly what evaluating the EFT afresh for every worker
//! does. `PerWorkerDm` below is that per-worker implementation.

use mp_apps::random::{random_dag, random_model, RandomDagConfig};
use mp_dag::{TaskGraph, TaskId};
use mp_perfmodel::{EstimateQuery, Estimator, PerfModel, TableModel};
use mp_platform::link::Link;
use mp_platform::presets::hetero_node;
use mp_platform::types::{ArchClass, MemNodeId, Platform, WorkerId};
use mp_sched::testutil::{MapLocator, TableLoad};
use mp_sched::{DequeModelScheduler, DmVariant, PrefetchReq, SchedView, Scheduler};
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

/// A dm-family scheduler whose queues the replay can inspect.
trait Probe: Scheduler {
    fn queued(&self, w: WorkerId) -> Vec<TaskId>;
}

impl Probe for DequeModelScheduler {
    fn queued(&self, w: WorkerId) -> Vec<TaskId> {
        DequeModelScheduler::queued(self, w)
    }
}

/// One queued task: `(user priority, push sequence number, task)`.
type Queued = (i64, u64, TaskId);

/// The dm family with the EFT evaluated afresh for every worker: one δ
/// estimate and one fetch-time walk per worker per push, and the δ
/// re-estimated at pop. Queues are plain vectors in push order.
struct PerWorkerDm {
    variant: DmVariant,
    queues: Vec<Vec<Queued>>,
    committed: Vec<f64>,
    disabled: Vec<bool>,
    prefetches: Vec<PrefetchReq>,
    seq: u64,
    pending: usize,
}

impl PerWorkerDm {
    fn new(variant: DmVariant) -> Self {
        Self {
            variant,
            queues: Vec::new(),
            committed: Vec::new(),
            disabled: Vec::new(),
            prefetches: Vec::new(),
            seq: 0,
            pending: 0,
        }
    }

    fn ensure(&mut self, n: usize) {
        self.queues.resize_with(n, Vec::new);
        self.committed.resize(n, 0.0);
        self.disabled.resize(n, false);
    }

    fn data_aware(&self) -> bool {
        self.variant != DmVariant::Dm
    }

    fn sorted(&self) -> bool {
        self.variant == DmVariant::Dmdas
    }

    /// Queue of `w` in pop-consideration order.
    fn ordered(&self, w: WorkerId) -> Vec<Queued> {
        let mut q = self.queues[w.index()].clone();
        if self.sorted() {
            q.sort_by_key(|&(prio, seq, _)| (std::cmp::Reverse(prio), seq));
        }
        q
    }

    fn enqueue(&mut self, w: WorkerId, entry: Queued) {
        self.queues[w.index()].push(entry);
        self.pending += 1;
    }
}

impl Scheduler for PerWorkerDm {
    fn name(&self) -> &'static str {
        "per-worker-dm"
    }

    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let platform = view.platform();
        self.ensure(platform.worker_count());
        let mut best: Option<(WorkerId, f64)> = None;
        for worker in platform.workers() {
            let w = worker.id;
            if self.disabled[w.index()] {
                continue;
            }
            let Some(delta) = view.delta_on_worker(t, w) else {
                continue;
            };
            let free_at = view.load.busy_until(w).max(view.now) + self.committed[w.index()];
            let fetch = if self.data_aware() {
                view.fetch_time(t, worker.mem_node)
            } else {
                0.0
            };
            let cost = free_at + fetch + delta;
            // Workers come in id order, so a strict `<` keeps the lowest
            // id among equal costs.
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((w, cost));
            }
        }
        let (w, _) = best.expect("task has an executable worker");
        self.committed[w.index()] += view.delta_on_worker(t, w).expect("capable");
        let prio = view.graph().task(t).user_priority;
        self.enqueue(w, (prio, self.seq, t));
        self.seq += 1;
        if self.data_aware() {
            let node = platform.worker(w).mem_node;
            for d in view.graph().task(t).reads() {
                if !view.loc.is_on(d, node) {
                    self.prefetches.push(PrefetchReq { data: d, node });
                }
            }
        }
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        self.ensure(view.platform().worker_count());
        let q = self.ordered(w);
        let &(top, ..) = q.first()?;
        let (_, seq, t) = if self.sorted() {
            // Locality band: the first (up to) 8 entries of the top
            // priority; the last one with the most local bytes wins.
            let node = view.platform().worker(w).mem_node;
            q.iter()
                .take_while(|&&(prio, ..)| prio == top)
                .take(8)
                .copied()
                .max_by_key(|&(_, _, t)| view.local_bytes(t, node))
                .expect("band is non-empty")
        } else {
            q[0]
        };
        self.queues[w.index()].retain(|&(_, s, _)| s != seq);
        self.committed[w.index()] -= view.delta_on_worker(t, w).expect("capable");
        self.pending -= 1;
        Some(t)
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn worker_disabled(&mut self, w: WorkerId, view: &SchedView<'_>) {
        self.ensure(view.platform().worker_count());
        self.disabled[w.index()] = true;
        let mut stranded = std::mem::take(&mut self.queues[w.index()]);
        stranded.sort_by_key(|&(_, seq, _)| seq);
        self.committed[w.index()] = 0.0;
        self.pending -= stranded.len();
        for entry in stranded {
            let capable = view.platform().workers().iter().any(|x| {
                !self.disabled[x.id.index()] && view.delta_on_worker(entry.2, x.id).is_some()
            });
            if capable {
                self.push(entry.2, None, view);
            } else {
                self.enqueue(w, entry);
            }
        }
    }

    fn drain_prefetches(&mut self) -> Vec<PrefetchReq> {
        std::mem::take(&mut self.prefetches)
    }
}

impl Probe for PerWorkerDm {
    fn queued(&self, w: WorkerId) -> Vec<TaskId> {
        if w.index() >= self.queues.len() {
            return Vec::new();
        }
        self.ordered(w).into_iter().map(|(_, _, t)| t).collect()
    }
}

/// 3 CPU workers on RAM and two GPUs with 2 stream workers each: three
/// memory nodes, two arches, several workers per node.
fn platform() -> Platform {
    hetero_node("diff", 5, 1.0, 2, 1.0, 16 << 30, 2, Link::new(12.0, 10.0))
}

/// Everything the replay observed, in order.
#[derive(Debug, PartialEq)]
enum Event {
    Pop(WorkerId, Option<TaskId>),
    Prefetch(Vec<PrefetchReq>),
    Queues(Vec<Vec<TaskId>>),
    /// Tasks queued on the victim when it was disabled.
    Stranded(usize),
}

/// Replay `graph` with randomly interleaved pops and completions (drawn
/// from `seed`). Data starts spread over the three memory nodes and
/// moves as tasks complete; busy-until times and the clock advance with
/// the run. One GPU worker is disabled a third of the way through.
fn replay(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Probe,
    seed: u64,
) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let node = |w: WorkerId| platform.worker(w).mem_node;
    let mut loc = MapLocator::default();
    for d in 0..graph.data_count() {
        let d = mp_dag::DataId::from_index(d);
        match rng.gen_range(0..4u32) {
            0 => {}
            1 => loc.write(d, MemNodeId(1)),
            2 => loc.write(d, MemNodeId(2)),
            _ => {
                loc.place(d, MemNodeId(0));
                loc.place(d, MemNodeId(1 + rng.gen_range(0..2u32)));
            }
        }
    }
    let mut load = TableLoad::default();
    let mut now = 0.0f64;
    let mut log = Vec::new();
    let observe = |sched: &mut dyn Probe, log: &mut Vec<Event>| {
        log.push(Event::Prefetch(sched.drain_prefetches()));
        let queues = platform.workers().iter().map(|w| sched.queued(w.id));
        log.push(Event::Queues(queues.collect()));
    };
    macro_rules! view {
        () => {
            SchedView {
                est: Estimator::new(graph, platform, model),
                loc: &loc,
                load: &load,
                now,
            }
        };
    }

    let n = graph.task_count();
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.preds(TaskId::from_index(i)).len())
        .collect();
    for (i, _) in indeg.iter().enumerate().filter(|(_, &d)| d == 0) {
        sched.push(TaskId::from_index(i), None, &view!());
    }
    observe(sched, &mut log);
    // The last GPU stream worker dies a third of the way through.
    let victim = WorkerId::from_index(platform.worker_count() - 1);
    let mut alive: Vec<WorkerId> = platform.workers().iter().map(|w| w.id).collect();
    let mut running: Vec<(WorkerId, TaskId)> = Vec::new();
    let mut done = 0;
    while done < n {
        if done >= n / 3 && alive.contains(&victim) {
            alive.retain(|&w| w != victim);
            log.push(Event::Stranded(sched.queued(victim).len()));
            sched.worker_disabled(victim, &view!());
            observe(sched, &mut log);
        }
        if !running.is_empty() && (sched.pending() == 0 || rng.gen_bool(0.4)) {
            let (w, t) = running.swap_remove(rng.gen_range(0..running.len()));
            done += 1;
            now += rng.gen_range(1.0..200.0);
            for a in &graph.task(t).accesses {
                if a.mode.writes() {
                    loc.write(a.data, node(w));
                } else {
                    loc.place(a.data, node(w));
                }
            }
            for &s in graph.succs(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    sched.push(s, Some(w), &view!());
                }
            }
            observe(sched, &mut log);
        } else {
            let w = alive[rng.gen_range(0..alive.len())];
            let popped = sched.pop(w, &view!());
            if let Some(t) = popped {
                let view = view!();
                assert!(view.worker_can_exec(t, w));
                let delta = view.delta_on_worker(t, w).expect("capable");
                load.0.insert(w, now + delta);
                running.push((w, t));
            }
            log.push(Event::Pop(w, popped));
        }
    }
    assert_eq!(sched.pending(), 0);
    log
}

#[test]
fn memoized_eft_matches_the_per_worker_eft() {
    let platform = platform();
    let model = MissingEntries(random_model());
    let (mut stranded, mut prefetched) = (0, 0);
    for seed in 0..16u64 {
        let graph = random_dag(RandomDagConfig {
            layers: 10,
            width: 14,
            gpu_fraction: 0.6,
            data_min: 1 << 20,
            data_max: 32 << 20,
            seed,
            ..Default::default()
        });
        let est = Estimator::new(&graph, &platform, &model);
        let cpu = platform.worker(WorkerId(0)).arch;
        let gpu = platform.worker(WorkerId(3)).arch;
        let mut kinds = [0usize; 3];
        for t in graph.tasks() {
            let on_cpu = est.can_exec(t.id, cpu);
            let on_gpu = est.can_exec(t.id, gpu);
            kinds[usize::from(on_gpu) * 2 + usize::from(on_cpu) - 1] += 1;
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "mixed capabilities: {kinds:?}"
        );

        for variant in [DmVariant::Dm, DmVariant::Dmda, DmVariant::Dmdas] {
            let mut want_s = PerWorkerDm::new(variant);
            let mut got_s = DequeModelScheduler::new(variant);
            let want = replay(&graph, &platform, &model, &mut want_s, seed);
            let got = replay(&graph, &platform, &model, &mut got_s, seed);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{variant:?} diverged on seed {seed} at event {i}");
            }
            assert_eq!(got.len(), want.len(), "{variant:?} seed {seed}: log length");
            for e in &got {
                match e {
                    Event::Stranded(k) => stranded += k,
                    Event::Prefetch(reqs) => prefetched += reqs.len(),
                    _ => {}
                }
            }
        }
    }
    assert!(
        stranded > 0,
        "the disabled worker had queued tasks to remap"
    );
    assert!(prefetched > 0, "dmda/dmdas requested prefetches");
}
