//! Steady-state `pop` must not allocate (DESIGN.md §6b), and neither may
//! `SchedView::fetch_time` over the simulator's data store.
//!
//! A counting global allocator is armed only around the measured calls,
//! and only on the calling thread: the flag and the count are
//! thread-local, so allocations other threads make meanwhile (the test
//! harness's own, or another test's) are not counted.
//! Every scheduler gets one full warm-up replay (scratch buffers, slabs
//! and caches grow there), then a second replay over the same graph
//! during which any pop-path allocation fails the test.
//!
//! `multiprio-reference` is deliberately excluded: it is the retained
//! pre-arena implementation whose allocation cost *is* the measured
//! baseline (see `crates/core/src/reference.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::bench::{make_scheduler, SCHEDULER_NAMES};
use multiprio_suite::dag::{AccessMode, TaskGraph, TaskId};
use multiprio_suite::perfmodel::{Estimator, PerfModel};
use multiprio_suite::platform::presets::simple;
use multiprio_suite::platform::types::{MemNodeId, Platform, WorkerId};
use multiprio_suite::sched::api::{DataLocator, LoadInfo, SchedView, Scheduler};
use multiprio_suite::sim::data::DataStore;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation if this thread is inside an armed call.
fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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
        ALLOCS.set(0);
        drive(&g, &p, &m, s.as_mut(), true);
        let allocs = ALLOCS.get();
        assert_eq!(allocs, 0, "'{name}' allocated {allocs} times inside pop");
    }
}

/// `fetch_time` folds the fastest holder through the sim `DataStore`'s
/// `for_each_holder`, which walks the replicas in place. Reads missing on
/// the target node, replicas on two nodes and a replica still in flight
/// must all be handled without one allocation.
#[test]
fn fetch_time_over_the_sim_data_store_never_allocates() {
    let mut g = TaskGraph::new();
    let k = g.register_type("K", true, true);
    let ram_only = g.add_data(1 << 20, "ram-only");
    let two_nodes = g.add_data(4 << 20, "two-nodes");
    let in_flight = g.add_data(2 << 20, "in-flight");
    let t = g.add_task(
        k,
        vec![
            (ram_only, AccessMode::Read),
            (two_nodes, AccessMode::Read),
            (in_flight, AccessMode::ReadWrite),
        ],
        1.0,
        "t",
    );
    // Nodes: RAM (0), gpu0-mem (1), gpu1-mem (2).
    let p = simple(1, 2);
    let m = random_model();
    let mut store = DataStore::new(&g, &p);
    store.allocate(two_nodes, MemNodeId(1), 0.0, false);
    store.allocate(in_flight, MemNodeId(1), 5.0, false);
    store.now = 1.0;
    let view = SchedView {
        est: Estimator::new(&g, &p, &m),
        loc: &store,
        load: &FreeLoad,
        now: store.now,
    };
    let nodes = [MemNodeId(0), MemNodeId(1), MemNodeId(2)];
    let mut got = [0.0; 3];
    ALLOCS.set(0);
    ARMED.set(true);
    for (slot, &node) in got.iter_mut().zip(&nodes) {
        *slot = view.fetch_time(t, node);
    }
    ARMED.set(false);
    assert_eq!(ALLOCS.get(), 0, "fetch_time allocated");

    // Same sums as folding the minimum over the allocating `holders()`.
    for (&got, &node) in got.iter().zip(&nodes) {
        let want = g
            .task(t)
            .reads()
            .filter(|&d| !store.is_on(d, node))
            .map(|d| {
                store
                    .holders(d)
                    .iter()
                    .map(|&h| p.transfer_time(g.data_desc(d).size, h, node))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, |total, best| total + best);
        assert_eq!(got.to_bits(), want.to_bits(), "fetch_time to {node:?}");
    }
    assert_eq!(got[0], 0.0, "every read is valid in RAM");
    assert!(got[1] > 0.0, "the in-flight replica does not count yet");
    assert!(got[2] > got[1], "gpu1 holds nothing");
}
