//! Locality work stealing (StarPU's `lws` policy, paper Sec. II).
//!
//! Resource-centric: each worker owns a deque. A ready task lands on the
//! deque of the worker that released it (locality); idle workers pop their
//! own deque LIFO and steal FIFO from victims, preferring victims on the
//! same memory node. As the paper notes, `lws` treats CPUs and GPUs as
//! identical resources — it is included for completeness and ablations,
//! not as a paper comparator.

use mp_dag::ids::TaskId;
use mp_platform::types::WorkerId;

use crate::api::{SchedView, Scheduler};
use crate::classq::{CapClasses, ClassQueues};

/// Per-worker deques with locality-ordered stealing.
///
/// Each deque is stored per capability class, so the owner's newest-first
/// pop and a thief's oldest-first steal compare class ends instead of
/// scanning past tasks the popping worker cannot run.
#[derive(Debug, Default)]
pub struct LwsScheduler {
    classes: CapClasses,
    deques: Vec<ClassQueues>,
    /// Round-robin cursor for initially-ready tasks (no releaser).
    rr: usize,
    pending: usize,
    /// Cached victim order per thief (same-node victims first, then by
    /// id) — the platform is fixed for a run, so this never changes.
    victim_order: Vec<Vec<WorkerId>>,
}

impl LwsScheduler {
    /// New empty scheduler (deques are sized lazily from the view).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.deques.len() < n {
            self.deques.resize_with(n, ClassQueues::default);
        }
    }
}

impl Scheduler for LwsScheduler {
    fn name(&self) -> &'static str {
        "lws"
    }

    fn push(&mut self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        self.ensure(view.platform().worker_count());
        let owner = match releaser {
            Some(w) => w.index(),
            None => {
                let i = self.rr % self.deques.len();
                self.rr += 1;
                i
            }
        };
        let class = self.classes.class_of(t, view);
        self.deques[owner].push(class, t);
        self.pending += 1;
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        self.ensure(view.platform().worker_count());
        // Own deque first, newest-first (cache warmth).
        if let Some(t) = self.deques[w.index()].pop(w, &self.classes, view, true) {
            self.pending -= 1;
            return Some(t);
        }
        // Steal oldest-first, same-node victims before remote ones. The
        // victim order depends only on the (fixed) platform: build it once
        // per thief and replay it on every later steal attempt.
        if self.victim_order.len() < view.platform().worker_count() {
            self.victim_order
                .resize_with(view.platform().worker_count(), Vec::new);
        }
        if self.victim_order[w.index()].is_empty() {
            let my_node = view.platform().worker(w).mem_node;
            let victims = &mut self.victim_order[w.index()];
            victims.extend(
                view.platform()
                    .workers()
                    .iter()
                    .map(|x| x.id)
                    .filter(|&v| v != w),
            );
            victims.sort_unstable_by_key(|&v| {
                let same = view.platform().worker(v).mem_node == my_node;
                (if same { 0u8 } else { 1u8 }, v)
            });
        }
        for k in 0..self.victim_order[w.index()].len() {
            let v = self.victim_order[w.index()][k];
            if let Some(t) = self.deques[v.index()].pop(w, &self.classes, view, false) {
                self.pending -= 1;
                return Some(t);
            }
        }
        None
    }

    fn pending(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;

    #[test]
    fn own_deque_is_lifo() {
        let mut fx = Fixture::two_arch();
        let t0 = fx.add_task(fx.both, 64, "t0");
        let t1 = fx.add_task(fx.both, 64, "t1");
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mut s = LwsScheduler::new();
        s.push(t0, Some(c0), &view);
        s.push(t1, Some(c0), &view);
        assert_eq!(s.pop(c0, &view), Some(t1), "newest first on own deque");
        assert_eq!(s.pop(c0, &view), Some(t0));
    }

    #[test]
    fn stealing_is_fifo_and_prefers_same_node() {
        let mut fx = Fixture::two_arch();
        let t0 = fx.add_task(fx.both, 64, "t0");
        let t1 = fx.add_task(fx.both, 64, "t1");
        let t2 = fx.add_task(fx.both, 64, "t2");
        let view = fx.view();
        let (c0, c1, g0) = fx.workers();
        let mut s = LwsScheduler::new();
        // c1 (same node as c0) holds [t0, t1]; g0 holds [t2].
        s.push(t0, Some(c1), &view);
        s.push(t1, Some(c1), &view);
        s.push(t2, Some(g0), &view);
        assert_eq!(
            s.pop(c0, &view),
            Some(t0),
            "steal oldest from same-node victim"
        );
        assert_eq!(s.pop(c0, &view), Some(t1));
        assert_eq!(
            s.pop(c0, &view),
            Some(t2),
            "then fall back to remote victim"
        );
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn thief_skips_tasks_it_cannot_run() {
        let mut fx = Fixture::two_arch();
        let tg = fx.add_task(fx.gpu_only, 64, "g");
        let tc = fx.add_task(fx.cpu_only, 64, "c");
        let view = fx.view();
        let (c0, c1, g0) = fx.workers();
        let mut s = LwsScheduler::new();
        s.push(tg, Some(c1), &view);
        s.push(tc, Some(c1), &view);
        assert_eq!(s.pop(c0, &view), Some(tc), "cpu thief skips gpu-only work");
        assert_eq!(s.pop(g0, &view), Some(tg));
    }

    #[test]
    fn initial_tasks_round_robin() {
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..6)
            .map(|i| fx.add_task(fx.cpu_only, 64, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let mut s = LwsScheduler::new();
        for &t in &tasks {
            s.push(t, None, &view);
        }
        // 3 workers, 6 tasks: each deque gets 2.
        assert_eq!(
            s.deques.iter().map(|d| d.len()).collect::<Vec<_>>(),
            vec![2, 2, 2]
        );
    }
}
