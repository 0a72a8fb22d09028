//! Ready queues keyed by capability class, for the central-queue and
//! work-stealing baselines.
//!
//! A task's *capability class* is the set of arches that can run it,
//! evaluated once at push with [`SchedView::worker_can_exec`]'s
//! predicate. Every task of a class is runnable by the same workers, so a
//! pop that wants "the first task in push order this worker can run"
//! only has to compare the heads of the classes it can run, instead of
//! testing every task it skips. Each entry carries a push sequence number
//! so heads of different classes compare in push order, which makes the
//! pop order identical to a scan of one queue in push order.
//!
//! The class is fixed at push: a model whose feasibility answers change
//! while a task is queued (none of the shipped ones do) would see its
//! pops follow the push-time answer.

use std::collections::VecDeque;

use mp_dag::ids::TaskId;
use mp_platform::types::WorkerId;

use crate::api::SchedView;

/// Dense ids for the capability classes seen so far.
#[derive(Debug, Default)]
pub(crate) struct CapClasses {
    /// Arch count of the platform: the width of each row of `can`.
    arches: usize,
    /// Row `c` (`arches` flags) says which arches can run class `c`.
    can: Vec<bool>,
}

impl CapClasses {
    /// The class of `t`, registered on first sight. The platform is
    /// fixed for the scheduler's lifetime.
    pub(crate) fn class_of(&mut self, t: TaskId, view: &SchedView<'_>) -> usize {
        let archs = view.platform().archs();
        self.arches = archs.len();
        let width = self.arches.max(1);
        let row = self.can.len();
        self.can
            .extend(archs.iter().map(|a| view.est.can_exec(t, a.id)));
        let (known, new) = self.can.split_at(row);
        if let Some(c) = known.chunks(width).position(|k| k == new) {
            self.can.truncate(row);
            return c;
        }
        row / width
    }

    /// Can arch number `arch` run the tasks of class `c`?
    fn runs(&self, c: usize, arch: usize) -> bool {
        self.can[c * self.arches + arch]
    }
}

/// One logical queue in push order, stored as one FIFO per class.
#[derive(Debug, Default)]
pub(crate) struct ClassQueues {
    queues: Vec<VecDeque<(u64, TaskId)>>,
    next_seq: u64,
}

impl ClassQueues {
    /// Append `t` of class `class`.
    pub(crate) fn push(&mut self, class: usize, t: TaskId) {
        if self.queues.len() <= class {
            self.queues.resize_with(class + 1, VecDeque::new);
        }
        self.queues[class].push_back((self.next_seq, t));
        self.next_seq += 1;
    }

    /// Number of queued tasks.
    pub(crate) fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Remove the oldest task `w` can run, or the newest when `newest`:
    /// the first hit of a forward (backward) scan of the whole queue.
    pub(crate) fn pop(
        &mut self,
        w: WorkerId,
        classes: &CapClasses,
        view: &SchedView<'_>,
        newest: bool,
    ) -> Option<TaskId> {
        let arch = view.platform().worker(w).arch.index();
        let mut best: Option<(usize, u64)> = None;
        for (c, q) in self.queues.iter().enumerate() {
            let end = if newest { q.back() } else { q.front() };
            let Some(&(seq, _)) = end else { continue };
            // Sequence numbers are unique, so `seq > b` is "newer".
            if best.is_none_or(|(_, b)| (seq > b) == newest) && classes.runs(c, arch) {
                best = Some((c, seq));
            }
        }
        let q = &mut self.queues[best?.0];
        let (_, t) = if newest { q.pop_back() } else { q.pop_front() }?;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;

    #[test]
    fn classes_are_shared_by_tasks_with_the_same_arches() {
        let mut fx = Fixture::two_arch();
        let b0 = fx.add_task(fx.both, 64, "b0");
        let c0 = fx.add_task(fx.cpu_only, 64, "c0");
        let b1 = fx.add_task(fx.both, 64, "b1");
        let g0 = fx.add_task(fx.gpu_only, 64, "g0");
        let view = fx.view();
        let mut classes = CapClasses::default();
        let ids: Vec<_> = [b0, c0, b1, g0]
            .iter()
            .map(|&t| classes.class_of(t, &view))
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 2]);
        let (cpu, _, gpu) = fx.workers();
        let cpu = fx.platform.worker(cpu).arch.index();
        let gpu = fx.platform.worker(gpu).arch.index();
        assert!(classes.runs(0, cpu) && classes.runs(0, gpu));
        assert!(classes.runs(1, cpu) && !classes.runs(1, gpu));
        assert!(!classes.runs(2, cpu) && classes.runs(2, gpu));
    }

    #[test]
    fn pops_follow_push_order_across_classes() {
        let mut fx = Fixture::two_arch();
        let tasks = [
            fx.add_task(fx.gpu_only, 64, "g0"),
            fx.add_task(fx.cpu_only, 64, "c0"),
            fx.add_task(fx.both, 64, "b0"),
            fx.add_task(fx.cpu_only, 64, "c1"),
        ];
        let view = fx.view();
        let (cpu, _, gpu) = fx.workers();
        let mut classes = CapClasses::default();
        let mut q = ClassQueues::default();
        for &t in &tasks {
            q.push(classes.class_of(t, &view), t);
        }
        assert_eq!(q.pop(gpu, &classes, &view, true), Some(tasks[2]));
        assert_eq!(q.pop(cpu, &classes, &view, false), Some(tasks[1]));
        assert_eq!(q.pop(cpu, &classes, &view, false), Some(tasks[3]));
        assert_eq!(q.pop(cpu, &classes, &view, false), None);
        assert_eq!(q.pop(gpu, &classes, &view, false), Some(tasks[0]));
        assert_eq!(q.pop(gpu, &classes, &view, true), None);
    }
}
