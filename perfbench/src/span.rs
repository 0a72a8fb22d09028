//! Span recording for the traced run.
//!
//! Every call the benchmark makes into a layer — directly or through the
//! wrappers in [`crate::wrap`] — becomes one [`Span`]: kind (layer and
//! op), policy tag, start, end, self time, thread and parent. Spans go
//! into a per-thread buffer preallocated on first use; the benchmark
//! drains all buffers at quiescent points (after each engine call has
//! returned and joined its worker threads) and folds them into
//! aggregates. Nothing here runs in an untraced run: untraced runs hand
//! the engines the unwrapped objects.
//!
//! Performance-model calls are the exception: Dmdas and MultiPrio make
//! about 10⁷ of them per simulated round, too many to keep one span
//! each. They are timed the same way (and still count as children of
//! the scheduler span around them), but fold into per-thread counters
//! at exit instead of being stored.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Layer and operation of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One whole set-up of a workload's inputs.
    Setup,
    /// `mp_apps` generator call.
    Build,
    /// `Runtime::submit`.
    Submit,
    /// `mp_sim::simulate`.
    Sim,
    /// `Scheduler::push`.
    SchedPush,
    /// `Scheduler::pop`.
    SchedPop,
    /// Any other `Scheduler` call (feedback, pending, prefetch drain, ...).
    SchedOther,
    /// `PerfModel::estimate`.
    Estimate,
    /// `PerfModel::record`.
    ModelRecord,
    /// `ConcurrentScheduler::push` (front end around the policy).
    FrontPush,
    /// `ConcurrentScheduler::pop`.
    FrontPop,
    /// Any other `ConcurrentScheduler` call.
    FrontOther,
    /// `Runtime::run_concurrent` / `Runtime::serve_concurrent`.
    Run,
    /// The benchmark's own kernel body.
    Kernel,
    /// `mp_serve::serve_sim`.
    ServeSim,
    /// `ResultCache::open`.
    CacheOpen,
    /// `ResultCache::lookup`.
    CacheLookup,
    /// `ResultCache::insert` into a persisting cache.
    CacheInsert,
}

impl Kind {
    /// True for calls into a scheduling policy.
    pub fn is_sched(self) -> bool {
        matches!(self, Kind::SchedPush | Kind::SchedPop | Kind::SchedOther)
    }
}

/// No enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call. Times are nanoseconds since the process epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Entry time.
    pub start_ns: u64,
    /// Exit time.
    pub end_ns: u64,
    /// Duration minus the durations of direct child spans.
    pub self_ns: u64,
    /// Per-thread span id.
    pub id: u32,
    /// Id of the enclosing span on the same thread, or [`NO_PARENT`].
    pub parent: u32,
    /// Thread ordinal (registration order).
    pub worker: u16,
    /// Layer and op.
    pub kind: Kind,
    /// Policy index for scheduler and front-end spans, 0 otherwise.
    pub tag: u8,
    /// A pop that returned a task.
    pub hit: bool,
}

/// Folded calls of one (kind, tag).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stat {
    /// Calls.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Pops that returned a task.
    pub hits: u64,
}

impl Stat {
    /// Add one call.
    pub fn add(&mut self, dur_ns: u64, self_ns: u64, hit: bool) {
        self.calls += 1;
        self.total_ns += dur_ns;
        self.self_ns += self_ns;
        self.hits += u64::from(hit);
    }

    /// Add another tally.
    pub fn merge(&mut self, o: &Stat) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
        self.hits += o.hits;
    }
}

/// Kinds folded into counters instead of being stored as spans.
fn folded(kind: Kind) -> bool {
    matches!(kind, Kind::Estimate | Kind::ModelRecord)
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What one thread recorded since the last drain.
#[derive(Default)]
struct Recorded {
    spans: Vec<Span>,
    folded: Vec<(Kind, Stat)>,
}

/// A thread's records, shared with the registry so they outlive the
/// thread (the runtime's scoped workers exit before the drain).
type Buffer = Arc<Mutex<Recorded>>;

/// An open span on the current thread.
struct Frame {
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

struct Local {
    buf: Buffer,
    stack: Vec<Frame>,
    next_id: u32,
    worker: u16,
}

/// Spans each thread's buffer holds before it first grows.
const PREALLOC: usize = 1 << 16;

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn registry() -> MutexGuard<'static, Vec<Buffer>> {
    static REGISTRY: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
    REGISTRY
        .lock()
        .expect("span registry poisoned by a panicking thread")
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            static THREADS: AtomicU16 = AtomicU16::new(0);
            let buf: Buffer = Arc::new(Mutex::new(Recorded {
                spans: Vec::with_capacity(PREALLOC),
                folded: Vec::new(),
            }));
            registry().push(Arc::clone(&buf));
            Local {
                buf,
                stack: Vec::with_capacity(16),
                next_id: 0,
                worker: THREADS.fetch_add(1, Ordering::Relaxed),
            }
        });
        f(local)
    })
}

/// Run `f` inside a span of `kind`; `hit` decides the span's hit flag
/// from the result.
pub fn record<R>(kind: Kind, tag: u8, f: impl FnOnce() -> R, hit: impl FnOnce(&R) -> bool) -> R {
    with_local(|l| {
        let id = l.next_id;
        l.next_id = l.next_id.wrapping_add(1);
        l.stack.push(Frame {
            id,
            start_ns: now_ns(),
            child_ns: 0,
        });
    });
    let r = f();
    let end_ns = now_ns();
    let hit = hit(&r);
    with_local(|l| {
        let frame = l.stack.pop().expect("span exit without a matching entry");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let parent = match l.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => NO_PARENT,
        };
        let self_ns = dur.saturating_sub(frame.child_ns);
        let mut buf = l
            .buf
            .lock()
            .expect("span buffer poisoned by a panicking thread");
        if folded(kind) {
            match buf.folded.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, st)) => st.add(dur, self_ns, hit),
                None => {
                    let mut st = Stat::default();
                    st.add(dur, self_ns, hit);
                    buf.folded.push((kind, st));
                }
            }
            return;
        }
        buf.spans.push(Span {
            start_ns: frame.start_ns,
            end_ns,
            self_ns,
            id: frame.id,
            parent,
            worker: l.worker,
            kind,
            tag,
            hit,
        });
    });
    r
}

/// [`record`] with no hit flag.
pub fn span<R>(kind: Kind, tag: u8, f: impl FnOnce() -> R) -> R {
    record(kind, tag, f, |_| false)
}

/// [`span`] when `traced`, else just `f()`.
pub fn span_if<R>(traced: bool, kind: Kind, tag: u8, f: impl FnOnce() -> R) -> R {
    if traced {
        span(kind, tag, f)
    } else {
        f()
    }
}

/// Everything recorded since the last drain.
#[derive(Debug, Default)]
pub struct Drained {
    /// Stored spans, one vector per thread.
    pub spans: Vec<Vec<Span>>,
    /// Folded calls, summed over threads.
    pub folded: Vec<(Kind, Stat)>,
}

/// Take everything recorded so far. Call only when no traced call is in
/// flight on any thread.
pub fn drain() -> Drained {
    let mut reg = registry();
    let mut out = Drained::default();
    for b in reg.iter() {
        // A buffer referenced by the registry alone belongs to an exited
        // thread and is dropped below; live ones keep their preallocation.
        let live = Arc::strong_count(b) > 1;
        let mut g = b
            .lock()
            .expect("span buffer poisoned by a panicking thread");
        let spans = if live {
            std::mem::replace(&mut g.spans, Vec::with_capacity(PREALLOC))
        } else {
            std::mem::take(&mut g.spans)
        };
        if !spans.is_empty() {
            out.spans.push(spans);
        }
        for (kind, st) in g.folded.drain(..) {
            match out.folded.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, acc)) => acc.merge(&st),
                None => out.folded.push((kind, st)),
            }
        }
    }
    reg.retain(|b| Arc::strong_count(b) > 1);
    out
}
