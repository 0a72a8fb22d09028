//! Central-queue FIFO scheduler (the `eager` StarPU policy).

use mp_dag::ids::TaskId;
use mp_platform::types::WorkerId;

use crate::api::{SchedView, Scheduler};
use crate::classq::{CapClasses, ClassQueues};

/// Tasks are handed out in ready order to whichever worker asks first and
/// can execute them. No model, no locality — the floor every smarter
/// policy must beat.
///
/// The single ready-order queue is stored per capability class, so a pop
/// compares class heads instead of scanning past tasks the worker cannot
/// run; the pop order is the one-queue scan's.
#[derive(Default, Debug)]
pub struct FifoScheduler {
    classes: CapClasses,
    queue: ClassQueues,
}

impl FifoScheduler {
    /// New empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, view: &SchedView<'_>) {
        self.queue.push(self.classes.class_of(t, view), t);
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        // First executable task in ready order; the rest stay queued.
        self.queue.pop(w, &self.classes, view, false)
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;

    #[test]
    fn fifo_order_per_worker_capability() {
        let mut fx = Fixture::two_arch();
        let t_gpu = fx.add_task(fx.gpu_only, 64, "g");
        let t_cpu = fx.add_task(fx.cpu_only, 64, "c");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = FifoScheduler::new();
        s.push(t_gpu, None, &view);
        s.push(t_cpu, None, &view);
        // CPU worker skips the GPU-only head and gets the CPU task.
        assert_eq!(s.pop(c0, &view), Some(t_cpu));
        assert_eq!(s.pending(), 1);
        assert_eq!(s.pop(g0, &view), Some(t_gpu));
        assert_eq!(s.pop(g0, &view), None);
        assert_eq!(s.pending(), 0);
    }
}
