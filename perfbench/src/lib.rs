//! End-to-end and per-layer wall-clock benchmark of the MultiPrio suite.
//!
//! The benchmark drives only the library's public entry points and
//! measures layers from outside, by timing the calls into them through
//! the transparent wrappers of [`wrap`]. See `METRICS.md` for the
//! workloads, the metrics and which layer metric should move which
//! end-to-end metric.

pub mod calib;
pub mod kernels;
pub mod layers;
pub mod span;
pub mod workloads;
pub mod wrap;
