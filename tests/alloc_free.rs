//! Steady-state `pop` must not allocate (DESIGN.md §6b).
//!
//! A counting global allocator is armed only while `pop` runs, and only
//! on the popping thread: the flag is thread-local, so allocations other
//! threads make meanwhile (the test harness's own) are not counted.
//! Every scheduler gets one full warm-up replay (scratch buffers, slabs
//! and caches grow there), then a second replay over the same graph
//! during which any pop-path allocation fails the test.
//!
//! `multiprio-reference` is deliberately excluded: it is the retained
//! pre-arena implementation whose allocation cost *is* the measured
//! baseline (see `crates/core/src/reference.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::bench::{make_scheduler, SCHEDULER_NAMES};
use multiprio_suite::dag::TaskGraph;
use multiprio_suite::dag::TaskId;
use multiprio_suite::perfmodel::{Estimator, PerfModel};
use multiprio_suite::platform::presets::simple;
use multiprio_suite::platform::types::{MemNodeId, Platform, WorkerId};
use multiprio_suite::sched::api::{DataLocator, LoadInfo, SchedView, Scheduler};

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static POP_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Count one allocation if this thread is inside an armed `pop`.
fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        POP_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// All data lives in RAM; no replicas move (mirrors the replay driver).
struct RamLocator;

impl DataLocator for RamLocator {
    fn is_on(&self, _d: multiprio_suite::dag::DataId, m: MemNodeId) -> bool {
        m == MemNodeId(0)
    }

    fn holders(&self, _d: multiprio_suite::dag::DataId) -> Vec<MemNodeId> {
        vec![MemNodeId(0)]
    }
}

struct FreeLoad;

impl LoadInfo for FreeLoad {
    fn busy_until(&self, _w: WorkerId) -> f64 {
        0.0
    }
}

/// Replay `graph` through `sched`; when `count` is set, arm the counting
/// allocator around every `pop` call (and only there — push may allocate).
fn drive(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Scheduler,
    count: bool,
) {
    let n = graph.task_count();
    let nw = platform.worker_count();
    let loc = RamLocator;
    let load = FreeLoad;
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.preds(TaskId::from_index(i)).len())
        .collect();
    let view = SchedView {
        est: Estimator::new(graph, platform, model),
        loc: &loc,
        load: &load,
        now: 0.0,
    };
    for (i, &d) in indeg.iter().enumerate().take(n) {
        if d == 0 {
            sched.push(TaskId::from_index(i), None, &view);
        }
    }
    let mut scheduled = 0usize;
    let mut w = 0usize;
    let mut idle_lap = 0usize;
    while scheduled < n {
        let wid = WorkerId::from_index(w);
        w = (w + 1) % nw;
        ARMED.set(count);
        let popped = sched.pop(wid, &view);
        ARMED.set(false);
        match popped {
            Some(t) => {
                scheduled += 1;
                idle_lap = 0;
                for &s in graph.succs(t) {
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        sched.push(s, Some(wid), &view);
                    }
                }
            }
            None => {
                idle_lap += 1;
                assert!(idle_lap <= nw, "'{}' deadlocked in replay", sched.name());
            }
        }
    }
}

/// Sequential by design: the counter is process-global, so all
/// schedulers are checked inside one test function.
///
/// The gate applies to the default build only: with `--features obs`,
/// MultiPrio's decision-provenance ring records a window snapshot per
/// pop (DESIGN.md §8), which allocates by design. The determinism gate
/// in CI proves obs changes no scheduling decision; this test proves
/// the *off* build pays nothing.
#[test]
fn steady_state_pop_never_allocates() {
    if multiprio_suite::trace::obs::obs_enabled() {
        eprintln!("alloc-free gate skipped: built with --features obs");
        return;
    }
    let g = random_dag(RandomDagConfig {
        layers: 14,
        width: 12,
        seed: 7,
        ..Default::default()
    });
    let m = random_model();
    let p = simple(3, 1);
    for &name in SCHEDULER_NAMES
        .iter()
        .filter(|&&n| n != "multiprio-reference")
    {
        let mut s = make_scheduler(name);
        // Warm-up round: slabs, scratch buffers and caches size themselves.
        drive(&g, &p, &m, s.as_mut(), false);
        // Steady state: the same scheduler instance replays the same DAG;
        // every pop must run entirely in preallocated memory.
        POP_ALLOCS.store(0, Ordering::Relaxed);
        drive(&g, &p, &m, s.as_mut(), true);
        let allocs = POP_ALLOCS.load(Ordering::Relaxed);
        assert_eq!(allocs, 0, "'{name}' allocated {allocs} times inside pop");
    }
}
