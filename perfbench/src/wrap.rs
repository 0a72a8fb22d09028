//! Transparent wrappers that time every call into a layer.
//!
//! Each wrapper forwards every trait method to the wrapped object —
//! including the provided ones, so a policy's own overrides stay in
//! force — and records one span per call that does work. The metadata
//! getters (`name`, `consumes_feedback`, `emits_prefetches`, `counters`,
//! `version`) are forwarded without a span. `tests/transparent.rs`
//! checks that a wrapped run reproduces the unwrapped one bit for bit.

use std::sync::Arc;

use mp_dag::ids::TaskId;
use mp_perfmodel::{EstimateQuery, PerfModel};
use mp_platform::types::WorkerId;
use mp_sched::api::{PrefetchReq, SchedEvent, SchedView, Scheduler};
use mp_sched::ConcurrentScheduler;
use mp_trace::CounterSnapshot;

use crate::span::{record, span, Kind};

/// A sequential policy whose calls are recorded as `sched` spans.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    tag: u8,
}

impl TracedScheduler {
    /// Wrap `inner`; `tag` names the policy in the spans.
    pub fn new(inner: Box<dyn Scheduler>, tag: u8) -> Self {
        Self { inner, tag }
    }
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn push(&mut self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        span(Kind::SchedPush, self.tag, || {
            self.inner.push(t, releaser, view)
        });
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        record(
            Kind::SchedPop,
            self.tag,
            || self.inner.pop(w, view),
            Option::is_some,
        )
    }

    fn pending(&self) -> usize {
        span(Kind::SchedOther, self.tag, || self.inner.pending())
    }

    fn worker_disabled(&mut self, w: WorkerId, view: &SchedView<'_>) {
        span(Kind::SchedOther, self.tag, || {
            self.inner.worker_disabled(w, view)
        });
    }

    fn push_retry(&mut self, t: TaskId, attempt: u32, view: &SchedView<'_>) {
        span(Kind::SchedOther, self.tag, || {
            self.inner.push_retry(t, attempt, view)
        });
    }

    fn feedback(&mut self, ev: &SchedEvent, view: &SchedView<'_>) {
        span(Kind::SchedOther, self.tag, || self.inner.feedback(ev, view));
    }

    fn consumes_feedback(&self) -> bool {
        self.inner.consumes_feedback()
    }

    fn drain_prefetches(&mut self) -> Vec<PrefetchReq> {
        span(Kind::SchedOther, self.tag, || self.inner.drain_prefetches())
    }

    fn drain_prefetches_into(&mut self, out: &mut Vec<PrefetchReq>) {
        span(Kind::SchedOther, self.tag, || {
            self.inner.drain_prefetches_into(out)
        });
    }

    fn emits_prefetches(&self) -> bool {
        self.inner.emits_prefetches()
    }

    fn counters(&self) -> CounterSnapshot {
        self.inner.counters()
    }
}

/// A concurrent front end whose calls are recorded as `runtime` spans.
/// Wrap a front end built around a [`TracedScheduler`] and the front
/// span minus its policy child is the time spent in the front end
/// itself (lock wait and hand-off).
pub struct TracedFront<F> {
    inner: F,
    tag: u8,
}

impl<F: ConcurrentScheduler> TracedFront<F> {
    /// Wrap `inner`; `tag` names the policy in the spans.
    pub fn new(inner: F, tag: u8) -> Self {
        Self { inner, tag }
    }
}

impl<F: ConcurrentScheduler> ConcurrentScheduler for TracedFront<F> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn push(&self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        span(Kind::FrontPush, self.tag, || {
            self.inner.push(t, releaser, view)
        });
    }

    fn pop(&self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        record(
            Kind::FrontPop,
            self.tag,
            || self.inner.pop(w, view),
            Option::is_some,
        )
    }

    fn feedback(&self, ev: &SchedEvent, view: &SchedView<'_>) {
        span(Kind::FrontOther, self.tag, || self.inner.feedback(ev, view));
    }

    fn worker_disabled(&self, w: WorkerId, view: &SchedView<'_>) {
        span(Kind::FrontOther, self.tag, || {
            self.inner.worker_disabled(w, view)
        });
    }

    fn push_retry(&self, t: TaskId, attempt: u32, view: &SchedView<'_>) {
        span(Kind::FrontOther, self.tag, || {
            self.inner.push_retry(t, attempt, view)
        });
    }

    fn pending(&self) -> usize {
        span(Kind::FrontOther, self.tag, || self.inner.pending())
    }

    fn drain_prefetches(&self) -> Vec<PrefetchReq> {
        span(Kind::FrontOther, self.tag, || self.inner.drain_prefetches())
    }

    fn counters(&self) -> CounterSnapshot {
        self.inner.counters()
    }
}

/// A performance model whose calls are recorded as `perfmodel` spans.
pub struct TracedModel {
    inner: Arc<dyn PerfModel>,
}

impl TracedModel {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn PerfModel>) -> Self {
        Self { inner }
    }
}

impl PerfModel for TracedModel {
    fn estimate(&self, q: &EstimateQuery<'_>) -> Option<f64> {
        span(Kind::Estimate, 0, || self.inner.estimate(q))
    }

    fn record(&self, q: &EstimateQuery<'_>, measured_us: f64) {
        span(Kind::ModelRecord, 0, || self.inner.record(q, measured_us));
    }

    fn version(&self) -> u64 {
        self.inner.version()
    }
}
