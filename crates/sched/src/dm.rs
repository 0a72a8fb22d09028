//! The StarPU *deque model* (dm) scheduler family (paper Sec. II):
//!
//! * **dm** (`heft-tm-pr`) — at PUSH, map the task to the worker with the
//!   earliest expected finish time based on the performance model;
//! * **dmda** (`heft-tmdp-pr`) — additionally estimate the time to
//!   transfer the task's data to the candidate's memory node, and request
//!   a prefetch once mapped;
//! * **dmdas** — additionally keep each worker's queue sorted by the
//!   *user-provided* task priorities; among equal-priority tasks, prefer
//!   those whose data is already on the device (the paper's description
//!   of Dmdas's data-locality sensitivity).
//!
//! Dmdas is the paper's main comparator. When an application sets no
//! priorities (FMM, sparse QR in the paper), every task has priority 0 and
//! dmdas degrades to ready-order insertion, exactly as the paper states.
//!
//! A push costs O(W) EFT comparisons over the W workers, but at most one
//! model estimate per arch and one fetch-time walk per memory node: δ
//! depends on a worker only through its arch and the fetch time only
//! through its memory node, so both are memoized for the pushed task.

use std::collections::{BinaryHeap, VecDeque};

use mp_dag::ids::TaskId;
use mp_platform::types::WorkerId;

use crate::api::{PrefetchReq, SchedView, Scheduler};
use crate::util::{best_worker_by, expected_finish};

/// Per-push memo of the EFT inputs that depend on a worker only through
/// its arch or its memory node. Filled lazily, so a push makes no
/// estimate and no fetch walk that a per-worker evaluation would not.
#[derive(Debug, Default)]
struct PushMemo {
    /// δ(t, arch) by arch index: `None` until estimated, then the
    /// estimate (`Some(None)` when the arch cannot run the task).
    delta: Vec<Option<Option<f64>>>,
    /// Fetch time of the task's missing reads by memory-node index.
    fetch: Vec<Option<f64>>,
}

impl PushMemo {
    fn reset(&mut self, archs: usize, nodes: usize) {
        self.delta.clear();
        self.delta.resize(archs, None);
        self.fetch.clear();
        self.fetch.resize(nodes, None);
    }
}

/// Which member of the family to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmVariant {
    /// Model-only EFT mapping.
    Dm,
    /// EFT + transfer estimates + prefetch.
    Dmda,
    /// Dmda + user-priority-sorted queues with local-data preference.
    Dmdas,
}

impl DmVariant {
    fn data_aware(self) -> bool {
        !matches!(self, DmVariant::Dm)
    }

    fn sorted(self) -> bool {
        matches!(self, DmVariant::Dmdas)
    }
}

/// One queued entry: task, its user priority, a submission sequence
/// number for stable FIFO order among equal priorities, and the δ added
/// to the worker's committed work at push (subtracted again at pop, so a
/// model that changes in between cannot make `committed` drift).
#[derive(Clone, Copy, Debug)]
struct Entry {
    t: TaskId,
    prio: i64,
    seq: u64,
    delta: f64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap order: highest user priority first, FIFO (lowest
        // sequence number) among equals. `seq` is unique, so this is a
        // total order and heap layout never influences pop order.
        self.prio.cmp(&other.prio).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One worker's queue: a FIFO for dm/dmda, a priority heap for dmdas
/// (O(log n) push instead of the former O(n) sorted insert).
#[derive(Debug, Default)]
struct WorkerQueue {
    fifo: VecDeque<Entry>,
    heap: BinaryHeap<Entry>,
}

impl WorkerQueue {
    /// Queue length (exercised by the in-module tests).
    #[cfg_attr(not(test), allow(dead_code))]
    fn len(&self) -> usize {
        self.fifo.len() + self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.heap.is_empty()
    }
}

/// The dm/dmda/dmdas scheduler.
#[derive(Debug)]
pub struct DequeModelScheduler {
    variant: DmVariant,
    /// Per-worker queues (heap-ordered for dmdas, FIFO otherwise).
    queues: Vec<WorkerQueue>,
    /// Work (µs) mapped to each worker but not yet popped.
    committed: Vec<f64>,
    /// Quarantined workers (worker failure): excluded from EFT mapping.
    disabled: Vec<bool>,
    prefetches: Vec<PrefetchReq>,
    /// Scratch for the dmdas locality band (≤ `LOCALITY_BAND` entries).
    band: Vec<Entry>,
    /// Scratch for the per-push δ and fetch-time memo.
    memo: PushMemo,
    seq: u64,
    pending: usize,
}

impl DequeModelScheduler {
    /// Create a scheduler of the given variant.
    pub fn new(variant: DmVariant) -> Self {
        Self {
            variant,
            queues: Vec::new(),
            committed: Vec::new(),
            disabled: Vec::new(),
            prefetches: Vec::new(),
            band: Vec::new(),
            memo: PushMemo::default(),
            seq: 0,
            pending: 0,
        }
    }

    fn ensure(&mut self, n: usize) {
        if self.queues.len() < n {
            self.queues.resize_with(n, WorkerQueue::default);
            self.committed.resize(n, 0.0);
            self.disabled.resize(n, false);
        }
    }

    /// Tasks queued on `w`, in queue order: FIFO order for dm/dmda,
    /// (priority desc, push order) for dmdas. For tests and diagnostics.
    pub fn queued(&self, w: WorkerId) -> Vec<TaskId> {
        let Some(q) = self.queues.get(w.index()) else {
            return Vec::new();
        };
        let mut heap: Vec<Entry> = q.heap.iter().copied().collect();
        heap.sort_unstable_by(|a, b| b.cmp(a));
        q.fifo.iter().chain(&heap).map(|e| e.t).collect()
    }
}

impl Scheduler for DequeModelScheduler {
    fn name(&self) -> &'static str {
        match self.variant {
            DmVariant::Dm => "dm",
            DmVariant::Dmda => "dmda",
            DmVariant::Dmdas => "dmdas",
        }
    }

    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, view: &SchedView<'_>) {
        self.ensure(view.platform().worker_count());
        let data_aware = self.variant.data_aware();
        let platform = view.platform();
        let committed = &self.committed;
        let disabled = &self.disabled;
        let memo = &mut self.memo;
        memo.reset(platform.arch_count(), platform.mem_node_count());
        let (w, _) = best_worker_by(view, |w| {
            if disabled[w.index()] {
                return None;
            }
            let worker = platform.worker(w);
            let delta = (*memo.delta[worker.arch.index()]
                .get_or_insert_with(|| view.est.delta(t, worker.arch)))?;
            let fetch = if data_aware {
                *memo.fetch[worker.mem_node.index()]
                    .get_or_insert_with(|| view.fetch_time(t, worker.mem_node))
            } else {
                0.0
            };
            Some(expected_finish(view, w, committed[w.index()], fetch, delta))
        })
        .expect("task has no executable worker — generator/platform mismatch");
        let delta = self.memo.delta[platform.worker(w).arch.index()]
            .flatten()
            .expect("best worker can execute");
        self.committed[w.index()] += delta;
        let prio = view.graph().task(t).user_priority;
        let entry = Entry {
            t,
            prio,
            seq: self.seq,
            delta,
        };
        self.seq += 1;
        let q = &mut self.queues[w.index()];
        if self.variant.sorted() {
            q.heap.push(entry);
        } else {
            q.fifo.push_back(entry);
        }
        self.pending += 1;
        if data_aware {
            // Mapping decided: ask the engine to stage the reads early.
            let node = view.platform().worker(w).mem_node;
            for d in view.graph().task(t).reads() {
                if !view.loc.is_on(d, node) {
                    self.prefetches.push(PrefetchReq { data: d, node });
                }
            }
        }
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        self.ensure(view.platform().worker_count());
        if self.queues[w.index()].is_empty() {
            return None;
        }
        let entry = if self.variant.sorted() {
            // Among the highest-priority band, prefer the task with the
            // most bytes already on this worker's node. The band is
            // clipped to the queue head: StarPU's dmdas keeps equal
            // priorities in insertion order and only the front region
            // competes on data availability (an unbounded scan would turn
            // dmdas into a global locality-greedy scheduler it is not).
            const LOCALITY_BAND: usize = 8;
            let node = view.platform().worker(w).mem_node;
            let mut band = std::mem::take(&mut self.band);
            band.clear();
            let q = &mut self.queues[w.index()];
            let top = q.heap.peek().expect("queue checked non-empty").prio;
            // Heap pops arrive in (prio desc, seq asc) order — exactly the
            // former sorted-queue head order, so the band contents and the
            // locality tie-break (`max_by_key` keeps the *last* maximum)
            // are unchanged.
            while band.len() < LOCALITY_BAND {
                match q.heap.peek() {
                    Some(e) if e.prio == top => band.push(q.heap.pop().expect("peeked")),
                    _ => break,
                }
            }
            let idx = (0..band.len())
                .max_by_key(|&i| view.local_bytes(band[i].t, node))
                .expect("band is non-empty");
            let entry = band[idx];
            for (i, &e) in band.iter().enumerate() {
                if i != idx {
                    q.heap.push(e);
                }
            }
            self.band = band;
            entry
        } else {
            self.queues[w.index()]
                .fifo
                .pop_front()
                .expect("queue checked non-empty")
        };
        self.committed[w.index()] -= entry.delta;
        self.pending -= 1;
        Some(entry.t)
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn worker_disabled(&mut self, w: WorkerId, view: &SchedView<'_>) {
        self.ensure(view.platform().worker_count());
        self.disabled[w.index()] = true;
        // The dead worker's queue is private: drain it and remap every
        // entry through the ordinary EFT push, which now skips `w`.
        let q = &mut self.queues[w.index()];
        let mut stranded: Vec<Entry> = q.fifo.drain(..).collect();
        stranded.extend(q.heap.drain());
        self.committed[w.index()] = 0.0;
        self.pending -= stranded.len();
        // Preserve the original mapping order (dm/dmda queue order and
        // the dmdas seq tie-break both descend from it).
        stranded.sort_unstable_by_key(|e| e.seq);
        for e in stranded {
            let capable = (0..view.platform().worker_count()).any(|xi| {
                !self.disabled[xi]
                    && view
                        .delta_on_worker(e.t, WorkerId::from_index(xi))
                        .is_some()
            });
            if capable {
                self.push(e.t, None, view);
            } else {
                // No surviving implementation anywhere: leave the entry
                // parked on the dead queue. The engine's capability sweep
                // runs right after this hook and surfaces the typed
                // `NoCapableWorker` error naming the task.
                let q = &mut self.queues[w.index()];
                if self.variant.sorted() {
                    q.heap.push(e);
                } else {
                    q.fifo.push_back(e);
                }
                self.pending += 1;
            }
        }
    }

    fn drain_prefetches(&mut self) -> Vec<PrefetchReq> {
        std::mem::take(&mut self.prefetches)
    }

    fn drain_prefetches_into(&mut self, out: &mut Vec<PrefetchReq>) {
        out.append(&mut self.prefetches);
    }

    fn emits_prefetches(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;
    use mp_dag::AccessMode;
    use mp_platform::types::MemNodeId;

    #[test]
    fn dm_maps_to_fastest_then_balances() {
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..12)
            .map(|i| fx.add_task(fx.both, 64, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let mut s = DequeModelScheduler::new(DmVariant::Dm);
        for &t in &tasks {
            s.push(t, None, &view);
        }
        // GPU is 10× faster: most work lands there, but once its committed
        // queue exceeds 100 µs the CPUs start receiving tasks.
        let gpu_q = s.queues[2].len();
        let cpu_q = s.queues[0].len() + s.queues[1].len();
        assert!(gpu_q >= 8, "gpu should absorb the bulk (got {gpu_q})");
        assert!(cpu_q >= 1, "cpus should receive overflow (got {cpu_q})");
        assert_eq!(gpu_q + cpu_q, 12);
    }

    #[test]
    fn dmda_avoids_expensive_transfers() {
        let mut fx = Fixture::two_arch();
        let d = fx.graph.add_data(1 << 30, "huge");
        let t = fx
            .graph
            .add_task(fx.both, vec![(d, AccessMode::Read)], 1.0, "t");
        let view = fx.view();
        let mut dm = DequeModelScheduler::new(DmVariant::Dm);
        let mut dmda = DequeModelScheduler::new(DmVariant::Dmda);
        dm.push(t, None, &view);
        dmda.push(t, None, &view);
        assert_eq!(dm.queues[2].len(), 1, "dm ignores the 1 GiB fetch");
        assert_eq!(dmda.queues[0].len(), 1, "dmda keeps the task near its data");
    }

    #[test]
    fn dmda_emits_prefetch_for_mapped_reads() {
        let mut fx = Fixture::two_arch();
        let d = fx.graph.add_data(1024, "small");
        let t = fx
            .graph
            .add_task(fx.both, vec![(d, AccessMode::Read)], 1.0, "t");
        let view = fx.view();
        let mut s = DequeModelScheduler::new(DmVariant::Dmda);
        s.push(t, None, &view);
        let reqs = s.drain_prefetches();
        assert_eq!(
            reqs,
            vec![PrefetchReq {
                data: d,
                node: MemNodeId(1)
            }]
        );
        assert!(s.drain_prefetches().is_empty(), "drain clears the buffer");
    }

    #[test]
    fn dmdas_orders_by_user_priority() {
        let mut fx = Fixture::two_arch();
        let lo = fx.add_task(fx.cpu_only, 64, "lo");
        let filler = fx.add_task(fx.cpu_only, 64, "filler");
        let hi = fx.add_task(fx.cpu_only, 64, "hi");
        fx.graph.set_user_priority(hi, 10);
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mut s = DequeModelScheduler::new(DmVariant::Dmdas);
        // EFT mapping: lo -> c0, filler -> c1, hi -> c0 (tie on committed
        // work breaks to the lowest id). c0's queue holds [hi, lo].
        s.push(lo, None, &view);
        s.push(filler, None, &view);
        s.push(hi, None, &view);
        assert_eq!(s.pop(c0, &view), Some(hi), "higher priority first");
        assert_eq!(s.pop(c0, &view), Some(lo));
    }

    #[test]
    fn dmdas_prefers_local_data_among_equal_priorities() {
        let mut fx = Fixture::two_arch();
        let d_remote = fx.graph.add_data(4096, "remote");
        let d_local = fx.graph.add_data(4096, "local");
        let t_remote =
            fx.graph
                .add_task(fx.gpu_only, vec![(d_remote, AccessMode::Read)], 1.0, "tr");
        let t_local = fx
            .graph
            .add_task(fx.gpu_only, vec![(d_local, AccessMode::Read)], 1.0, "tl");
        fx.locator.place(d_local, MemNodeId(1));
        let view = fx.view();
        let (_, _, g0) = fx.workers();
        let mut s = DequeModelScheduler::new(DmVariant::Dmdas);
        s.push(t_remote, None, &view);
        s.push(t_local, None, &view);
        assert_eq!(s.pop(g0, &view), Some(t_local), "local data wins the tie");
        assert_eq!(s.pop(g0, &view), Some(t_remote));
    }

    #[test]
    fn fifo_among_equal_priorities_without_data() {
        let mut fx = Fixture::two_arch();
        let a = fx.add_task(fx.cpu_only, 64, "a");
        let b = fx.add_task(fx.cpu_only, 64, "b");
        let view = fx.view();
        let (c0, c1, _) = fx.workers();
        let mut s = DequeModelScheduler::new(DmVariant::Dmdas);
        // EFT maps a -> c0 and b -> c1 (load balancing on free workers).
        s.push(a, None, &view);
        s.push(b, None, &view);
        assert_eq!(s.pop(c0, &view), Some(a));
        assert_eq!(s.pop(c1, &view), Some(b));
        assert_eq!(s.pending(), 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::testutil::Fixture;

    /// Committed-work bookkeeping balances to zero over a push/pop cycle
    /// and actually steers later mappings away from loaded workers.
    #[test]
    fn committed_work_balances_and_steers() {
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..6)
            .map(|i| fx.add_task(fx.cpu_only, 64, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let (c0, c1, _) = fx.workers();
        let mut s = DequeModelScheduler::new(DmVariant::Dm);
        for &t in &tasks {
            s.push(t, None, &view);
        }
        // Round-robin-ish across the two equal CPUs via committed work.
        assert_eq!(s.queues[c0.index()].len(), 3);
        assert_eq!(s.queues[c1.index()].len(), 3);
        for _ in 0..3 {
            assert!(s.pop(c0, &view).is_some());
            assert!(s.pop(c1, &view).is_some());
        }
        assert!(
            s.committed[c0.index()].abs() < 1e-9,
            "committed drains to zero"
        );
        assert!(s.committed[c1.index()].abs() < 1e-9);
        assert_eq!(s.pending(), 0);
    }

    /// Under a model whose estimates change between push and pop (a
    /// history model recording runs in between), pop subtracts exactly
    /// the δ its push added, so draining every queue leaves `committed`
    /// at exactly zero.
    #[test]
    fn committed_returns_to_zero_when_the_model_changes() {
        use mp_perfmodel::{EstimateQuery, Estimator, PerfModel, TableModel};
        use std::sync::atomic::{AtomicU64, Ordering};

        use crate::api::SchedView;

        /// The fixture's table scaled by a factor that can change.
        struct Drifting {
            base: TableModel,
            scale: AtomicU64,
        }

        impl PerfModel for Drifting {
            fn estimate(&self, q: &EstimateQuery<'_>) -> Option<f64> {
                let scale = f64::from_bits(self.scale.load(Ordering::Relaxed));
                self.base.estimate(q).map(|us| us * scale)
            }
        }

        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = [fx.both, fx.cpu_only, fx.gpu_only]
            .iter()
            .cycle()
            .take(9)
            .enumerate()
            .map(|(i, &ty)| fx.add_task(ty, 64, &format!("t{i}")))
            .collect();
        let model = Drifting {
            base: fx.model.clone(),
            scale: AtomicU64::new(1.0f64.to_bits()),
        };
        let view = SchedView {
            est: Estimator::new(&fx.graph, &fx.platform, &model),
            loc: &fx.locator,
            load: &fx.load,
            now: 0.0,
        };
        for variant in [DmVariant::Dm, DmVariant::Dmda, DmVariant::Dmdas] {
            model.scale.store(1.0f64.to_bits(), Ordering::Relaxed);
            let mut s = DequeModelScheduler::new(variant);
            for &t in &tasks {
                s.push(t, None, &view);
            }
            // Every estimate triples before the first pop.
            model.scale.store(3.0f64.to_bits(), Ordering::Relaxed);
            for w in fx.platform.workers() {
                while s.pop(w.id, &view).is_some() {}
            }
            assert_eq!(s.pending(), 0);
            assert!(
                s.committed.iter().all(|&c| c == 0.0),
                "{variant:?}: committed drifted to {:?}",
                s.committed
            );
        }
    }

    /// Variant names round-trip through the trait.
    #[test]
    fn variant_names() {
        use crate::api::Scheduler as _;
        assert_eq!(DequeModelScheduler::new(DmVariant::Dm).name(), "dm");
        assert_eq!(DequeModelScheduler::new(DmVariant::Dmda).name(), "dmda");
        assert_eq!(DequeModelScheduler::new(DmVariant::Dmdas).name(), "dmdas");
    }

    /// dm never emits prefetches; dmda/dmdas do.
    #[test]
    fn prefetch_emission_per_variant() {
        for (variant, expects) in [
            (DmVariant::Dm, false),
            (DmVariant::Dmda, true),
            (DmVariant::Dmdas, true),
        ] {
            let mut fx = Fixture::two_arch();
            let t = fx.add_task(fx.both, 4096, "t");
            let view = fx.view();
            let mut s = DequeModelScheduler::new(variant);
            s.push(t, None, &view);
            assert_eq!(!s.drain_prefetches().is_empty(), expects, "{variant:?}");
        }
    }

    /// Pop from an empty queue returns None without disturbing others.
    #[test]
    fn empty_queue_pop_is_none() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.gpu_only, 64, "t");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = DequeModelScheduler::new(DmVariant::Dmdas);
        s.push(t, None, &view); // maps to the GPU
        assert_eq!(s.pop(c0, &view), None, "CPU queue stays empty");
        assert_eq!(s.pop(g0, &view), Some(t));
    }
}
