//! Host-speed calibration of wall times.
//!
//! On a shared host the same code runs at different speeds from one
//! stretch of seconds to the next, and such a stretch can outlast a
//! whole run: neighbouring machines contend for the caches and memory
//! bandwidth. A pure arithmetic loop barely notices this, so the clock
//! rate is not what changes. The benchmark therefore times a fixed
//! reference computation of its own, ordered-map and heap updates and a
//! sort, memory traffic of the kind the schedulers and the simulator
//! make, right before and right after every timed call, and scales the
//! call's wall time by ([`REF_S`] ÷ the mean of the two calibrations)
//! raised to the workload's sensitivity
//! ([`Workload::host_sensitivity`](crate::workloads::Workload::host_sensitivity)).
//! A calibrated time is the wall time the call would have taken with the
//! reference computation at its usual speed. The library never runs the
//! reference computation, so a change to the library moves calibrated
//! times exactly as it moves wall times.

use std::cell::Cell;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use crate::kernels::splitmix;

/// Typical wall time of [`reference`] on the 2-vCPU host the benchmark
/// was defined on, s: its median there ranged over 0.013–0.021 s from
/// run to run. Calibrated times read close to wall times at that speed.
pub const REF_S: f64 = 0.015;

thread_local! {
    /// The last calibration on this thread, reused as the next call's
    /// "before".
    static LAST: Cell<Option<f64>> = const { Cell::new(None) };
}

/// Wall seconds of one run of the reference computation.
pub fn reference() -> f64 {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut x = 7u64;
    for i in 0..60_000u64 {
        x = splitmix(x ^ i);
        map.insert(x % 100_000, i);
        heap.push(x);
        if i % 3 == 0 {
            heap.pop();
            map.remove(&(splitmix(x) % 100_000));
        }
    }
    let mut v: Vec<u64> = (0..100_000u64).map(splitmix).collect();
    v.sort_unstable();
    black_box((map.len(), heap.len(), v[v.len() / 2]));
    t0.elapsed().as_secs_f64()
}

/// A timed call: its wall time and the mean calibration around it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall seconds of the call.
    pub wall_s: f64,
    /// Mean wall seconds of the reference computation just before and
    /// just after the call.
    pub cal_s: f64,
}

impl Timed {
    /// The call's wall time scaled to the reference speed, for code
    /// whose time goes as the reference computation's to the power
    /// `sensitivity`, s.
    pub fn calibrated_s(&self, sensitivity: f64) -> f64 {
        self.wall_s * (REF_S / self.cal_s).powf(sensitivity)
    }
}

/// Run `f` between two calibrations and time it. The calibration after
/// one call serves as the one before the next on the same thread.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let before = LAST.with(Cell::take).unwrap_or_else(reference);
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let after = reference();
    LAST.with(|c| c.set(Some(after)));
    (
        r,
        Timed {
            wall_s,
            cal_s: (before + after) / 2.0,
        },
    )
}
