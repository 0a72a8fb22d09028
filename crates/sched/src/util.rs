//! Shared helpers for scheduler implementations.

use mp_platform::types::WorkerId;

use crate::api::SchedView;

/// Earliest-finish-time estimate of running a task on `w`, given extra
/// `committed_us` of work already queued on that worker inside the
/// scheduler, the task's estimated fetch time `fetch_us` to the worker's
/// memory node (0 when transfers are ignored) and its duration `delta_us`
/// on the worker's arch: `max(now, busy_until(w)) + committed + fetch + δ`.
///
/// The fetch time and δ come from the caller because they depend on the
/// worker only through its memory node and its arch, so a caller that
/// maps one task over many workers computes each once per distinct value.
pub fn expected_finish(
    view: &SchedView<'_>,
    w: WorkerId,
    committed_us: f64,
    fetch_us: f64,
    delta_us: f64,
) -> f64 {
    let free_at = view.load.busy_until(w).max(view.now) + committed_us;
    // Transfers overlap with the worker draining its queue only partially;
    // StarPU's dm family adds them serially, which we follow.
    free_at + fetch_us + delta_us
}

/// Deterministic argmin over workers: earliest finish, ties by worker id.
pub fn best_worker_by<F: FnMut(WorkerId) -> Option<f64>>(
    view: &SchedView<'_>,
    mut cost: F,
) -> Option<(WorkerId, f64)> {
    let mut best: Option<(WorkerId, f64)> = None;
    for worker in view.platform().workers() {
        if let Some(c) = cost(worker.id) {
            let better = match best {
                None => true,
                Some((bw, bc)) => c < bc || (c == bc && worker.id < bw),
            };
            if better {
                best = Some((worker.id, c));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;
    use mp_dag::ids::TaskId;

    /// EFT of `t` on `w` with nothing committed, fetch time included when
    /// `with_transfers` is set.
    fn eft(view: &SchedView<'_>, t: TaskId, w: WorkerId, with_transfers: bool) -> Option<f64> {
        let delta = view.delta_on_worker(t, w)?;
        let fetch = if with_transfers {
            view.fetch_time(t, view.platform().worker(w).mem_node)
        } else {
            0.0
        };
        Some(expected_finish(view, w, 0.0, fetch, delta))
    }

    #[test]
    fn eft_prefers_gpu_for_accelerated_kernel() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 1024, "t");
        let view = fx.view();
        let (w, c) = best_worker_by(&view, |w| eft(&view, t, w, false)).unwrap();
        assert_eq!(w, WorkerId(2));
        assert_eq!(c, 10.0);
    }

    #[test]
    fn eft_accounts_for_load() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 1024, "t");
        // GPU busy for 1000 µs: CPU (100 µs) wins.
        fx.load.0.insert(WorkerId(2), 1000.0);
        let view = fx.view();
        let (w, _) = best_worker_by(&view, |w| eft(&view, t, w, false)).unwrap();
        assert_eq!(w, WorkerId(0));
    }

    #[test]
    fn transfers_can_flip_the_choice() {
        let mut fx = Fixture::two_arch();
        // 1 GiB of read data in RAM: moving it to the GPU costs ~89 ms,
        // far more than the 90 µs the GPU saves.
        let d = fx.graph.add_data(1 << 30, "huge");
        let t = fx
            .graph
            .add_task(fx.both, vec![(d, mp_dag::AccessMode::Read)], 1.0, "t");
        let view = fx.view();
        let (w_no, _) = best_worker_by(&view, |w| eft(&view, t, w, false)).unwrap();
        let (w_da, _) = best_worker_by(&view, |w| eft(&view, t, w, true)).unwrap();
        assert_eq!(w_no, WorkerId(2), "transfer-blind EFT picks the GPU");
        assert_eq!(w_da, WorkerId(0), "data-aware EFT keeps it on a CPU");
    }

    #[test]
    fn ties_break_on_worker_id() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.cpu_only, 64, "t");
        let view = fx.view();
        let (w, _) = best_worker_by(&view, |w| eft(&view, t, w, false)).unwrap();
        assert_eq!(w, WorkerId(0), "both CPUs cost 50 µs; lowest id wins");
    }
}
