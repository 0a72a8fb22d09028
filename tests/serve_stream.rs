//! Property-based streaming-serving tests: random interleaved
//! multi-tenant submission streams through the threaded runtime's
//! serving mode must execute exactly once with per-sub-DAG precedence —
//! under the global-lock, sharded *and* relaxed front-ends — and
//! admission rejections must never strand admitted work.
//!
//! The oracle has two layers: `mp_audit::streaming_audit` checks
//! exactly-once + precedence over the final grown graph (which *is* the
//! admitted set — rejected stages never touch it), and a counting
//! kernel on every root handle cross-checks that the number of
//! committed root executions equals the number of admitted submissions
//! that wrote that handle — a rejected stage that left residue, a
//! stranded dependency, or a double execution all break the count.
//!
//! The cache-backed properties run the *same* random stream with the
//! result cache on and off: the final buffer digests must be
//! bit-identical across all three front-ends (a hit may serve wrong
//! speed, never wrong data), the cache-aware audit must account for
//! every span-less hit, and a rejected sub-DAG must never strand a
//! cache entry.

use std::collections::HashSet;
use std::sync::Arc;

use multiprio_suite::audit::{streaming_audit, streaming_audit_cached};
use multiprio_suite::dag::AccessMode;
use multiprio_suite::perfmodel::{PerfModel, TableModel, TimeFn};
use multiprio_suite::platform::presets::homogeneous;
use multiprio_suite::platform::types::ArchClass;
use multiprio_suite::runtime::serve::TenantSpec;
use multiprio_suite::runtime::{
    RelaxedConfig, RelaxedMultiQueue, ResultCache, Runtime, StreamConfig, Submission, TaskBuilder,
};
use multiprio_suite::sched::concurrent::ShardedAdapter;
use multiprio_suite::sched::EagerPrioScheduler;
use proptest::prelude::*;

/// Tiny deterministic generator (splitmix64) for shaping streams.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn model() -> Arc<dyn PerfModel> {
    Arc::new(
        TableModel::builder()
            .set("K", ArchClass::Cpu, TimeFn::Const(2.0))
            .build(),
    )
}

/// One fork-join sub-DAG: a counting root writer on `handle` plus
/// `width` readers. Chains with every other submission on the same
/// handle by data identity.
fn subdag(tenant: usize, handle: multiprio_suite::dag::DataId, width: usize) -> Submission {
    let mut tasks = vec![TaskBuilder::new("K")
        .access(handle, AccessMode::ReadWrite)
        .cpu(|ctx| ctx.w(0)[0] += 1.0)
        .flops(4.0)];
    for _ in 0..width {
        tasks.push(
            TaskBuilder::new("K")
                .access(handle, AccessMode::Read)
                .cpu(|_| {})
                .flops(4.0),
        );
    }
    Submission { tenant, tasks }
}

/// Run one random stream through the chosen front-end and check every
/// serving invariant.
fn check_stream(
    seed: u64,
    submissions: usize,
    tenants: usize,
    handles: usize,
    max_in_flight: usize,
    per_tenant_cap: Option<usize>,
    front: usize,
) {
    let mut rt = Runtime::new(homogeneous(3), model());
    let roots: Vec<_> = (0..handles)
        .map(|i| rt.register(vec![0.0], &format!("h{i}")))
        .collect();
    let mut cfg = StreamConfig::new(
        (0..tenants)
            .map(|i| TenantSpec::new(format!("t{i}"), (i + 1) as f64))
            .collect(),
    );
    cfg.admission.max_in_flight = max_in_flight;
    cfg.admission.max_tenant_in_flight = per_tenant_cap;

    let mut mix = Mix(seed);
    let mut writes_planned: Vec<(usize, usize)> = Vec::new(); // (submission, handle)
    let stream: Vec<Submission> = (0..submissions)
        .map(|si| {
            let h = mix.below(handles);
            writes_planned.push((si, h));
            subdag(mix.below(tenants), roots[h], mix.below(3) + 1)
        })
        .collect();

    let report = match front {
        0 => rt.serve(Box::new(EagerPrioScheduler::new()), &cfg, stream),
        1 => rt.serve_concurrent(
            &ShardedAdapter::new(2, &|| Box::new(EagerPrioScheduler::new())),
            &cfg,
            stream,
        ),
        _ => rt.serve_concurrent(
            &RelaxedMultiQueue::new(3, RelaxedConfig::default()),
            &cfg,
            stream,
        ),
    }
    .expect("serve failed");

    // Every admitted task completed; the stream never stalled.
    assert!(report.is_complete(), "error: {:?}", report.error);
    // The admission ledger balances.
    assert_eq!(
        report.subdags_admitted + report.subdags_rejected,
        submissions as u64
    );
    assert_eq!(report.admitted.len(), submissions);
    assert_eq!(report.rejections.len(), report.subdags_rejected as usize);
    // The final graph is exactly the admitted set.
    assert_eq!(report.tasks_admitted, rt.graph().task_count());
    // Exactly-once + per-sub-DAG precedence (including cross-submission
    // edges resolved by data identity) over the whole grown graph.
    let findings = streaming_audit(rt.graph(), &report.trace);
    assert!(findings.is_empty(), "{findings:?}");
    // Counting oracle: each handle's root chain ran once per *admitted*
    // submission that wrote it — rejections left no residue, nothing
    // stranded, nothing double-executed.
    let mut admitted_writes = vec![0u64; handles];
    for &(si, h) in &writes_planned {
        if report.admitted[si].is_some() {
            admitted_writes[h] += 1;
        }
    }
    for (h, &root) in roots.iter().enumerate() {
        assert_eq!(
            rt.buffer(root)[0] as u64,
            admitted_writes[h],
            "handle {h} write count"
        );
    }
}

/// A mixed sub-DAG for the cache properties: a counting `ReadWrite`
/// root on `count_h` (re-versions every commit, so it can never hit —
/// the write oracle stays exact) plus a cacheable write-only task on
/// `warm_h` and `width` readers of it (identical resubmissions hit).
fn mixed_subdag(
    tenant: usize,
    count_h: multiprio_suite::dag::DataId,
    warm_h: multiprio_suite::dag::DataId,
    width: usize,
) -> Submission {
    let mut tasks = vec![
        TaskBuilder::new("K")
            .access(count_h, AccessMode::ReadWrite)
            .cpu(|ctx| ctx.w(0)[0] += 1.0)
            .flops(4.0),
        TaskBuilder::new("K")
            .access(warm_h, AccessMode::Write)
            .cpu(|ctx| ctx.w(0)[0] = 5.0)
            .flops(4.0),
    ];
    for _ in 0..width {
        tasks.push(
            TaskBuilder::new("K")
                .access(warm_h, AccessMode::Read)
                .cpu(|_| {})
                .flops(4.0),
        );
    }
    Submission { tenant, tasks }
}

/// Run the same random stream cache-off and cache-on through one
/// front-end; the final buffer digests must agree bit for bit and the
/// cache-aware audit must account for every hit.
fn check_cached_stream(
    seed: u64,
    submissions: usize,
    tenants: usize,
    handles: usize,
    front: usize,
) {
    let run = |cached: bool| -> (u64, u64, Vec<u64>) {
        let mut rt = Runtime::new(homogeneous(3), model());
        if cached {
            rt.set_cache(Arc::new(ResultCache::new()));
        }
        let counts: Vec<_> = (0..handles)
            .map(|i| rt.register(vec![0.0], &format!("c{i}")))
            .collect();
        let warms: Vec<_> = (0..handles)
            .map(|i| rt.register(vec![0.0], &format!("w{i}")))
            .collect();
        let cfg = StreamConfig::new(
            (0..tenants)
                .map(|i| TenantSpec::new(format!("t{i}"), (i + 1) as f64))
                .collect(),
        );
        let mut mix = Mix(seed);
        let mut writes_planned: Vec<usize> = Vec::new();
        let stream: Vec<Submission> = (0..submissions)
            .map(|_| {
                let h = mix.below(handles);
                writes_planned.push(h);
                mixed_subdag(mix.below(tenants), counts[h], warms[h], mix.below(3) + 1)
            })
            .collect();
        let report = match front {
            0 => rt.serve(Box::new(EagerPrioScheduler::new()), &cfg, stream),
            1 => rt.serve_concurrent(
                &ShardedAdapter::new(2, &|| Box::new(EagerPrioScheduler::new())),
                &cfg,
                stream,
            ),
            _ => rt.serve_concurrent(
                &RelaxedMultiQueue::new(3, RelaxedConfig::default()),
                &cfg,
                stream,
            ),
        }
        .expect("serve failed");
        assert!(report.is_complete(), "error: {:?}", report.error);
        // Generous default admission: identical graphs on both runs.
        assert_eq!(report.subdags_rejected, 0);
        let findings = streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits);
        assert!(findings.is_empty(), "{findings:?}");
        if !cached {
            assert_eq!(report.cache_hits, 0);
            assert_eq!(report.cache_misses, 0);
        }
        // The counting roots can never be served from the cache: their
        // fingerprints re-version every commit.
        let mut count_writes = vec![0u64; handles];
        for &h in &writes_planned {
            count_writes[h] += 1;
        }
        for (h, &c) in counts.iter().enumerate() {
            assert_eq!(rt.buffer(c)[0] as u64, count_writes[h], "count handle {h}");
        }
        (rt.buffers_digest(), report.cache_hits, count_writes)
    };
    let (cold_digest, _, cold_counts) = run(false);
    let (warm_digest, warm_hits, warm_counts) = run(true);
    assert_eq!(
        cold_digest, warm_digest,
        "cache on/off must leave bit-identical buffers"
    );
    assert_eq!(cold_counts, warm_counts);
    // Each warm handle warms up after its first write-only round, so
    // any resubmitted shape produces hits.
    if submissions > 2 * handles {
        assert!(warm_hits > 0, "warm stream of {submissions} never hit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Global-lock front-end, generous admission: everything admits,
    /// everything runs exactly once in precedence order.
    #[test]
    fn prop_streamed_subdags_execute_exactly_once_global(
        seed in 0u64..1000,
        submissions in 4usize..24,
        tenants in 1usize..4,
        handles in 1usize..4,
    ) {
        check_stream(seed, submissions, tenants, handles, 4096, None, 0);
    }

    /// Sharded front-end under tight global backpressure: rejections
    /// happen and must never strand admitted predecessors.
    #[test]
    fn prop_backpressure_strands_nothing_sharded(
        seed in 0u64..1000,
        submissions in 8usize..32,
        tenants in 1usize..4,
        handles in 1usize..3,
        max_in_flight in 4usize..16,
    ) {
        check_stream(seed, submissions, tenants, handles, max_in_flight, None, 1);
    }

    /// Relaxed multi-queue front-end with per-tenant caps: relaxed pop
    /// ordering must not break exactly-once or precedence.
    #[test]
    fn prop_relaxed_front_end_keeps_serving_invariants(
        seed in 0u64..1000,
        submissions in 8usize..32,
        tenants in 2usize..4,
        handles in 1usize..3,
        tenant_cap in 4usize..12,
    ) {
        check_stream(seed, submissions, tenants, handles, 64, Some(tenant_cap), 2);
    }

    /// Cache on/off digest equality, global-lock front-end.
    #[test]
    fn prop_cache_on_off_digests_agree_global(
        seed in 0u64..1000,
        submissions in 4usize..20,
        tenants in 1usize..4,
        handles in 1usize..3,
    ) {
        check_cached_stream(seed, submissions, tenants, handles, 0);
    }

    /// Cache on/off digest equality, sharded front-end.
    #[test]
    fn prop_cache_on_off_digests_agree_sharded(
        seed in 0u64..1000,
        submissions in 4usize..20,
        tenants in 1usize..4,
        handles in 1usize..3,
    ) {
        check_cached_stream(seed, submissions, tenants, handles, 1);
    }

    /// Cache on/off digest equality, relaxed multi-queue front-end.
    #[test]
    fn prop_cache_on_off_digests_agree_relaxed(
        seed in 0u64..1000,
        submissions in 4usize..20,
        tenants in 1usize..4,
        handles in 1usize..3,
    ) {
        check_cached_stream(seed, submissions, tenants, handles, 2);
    }

    /// Tight admission with the cache on: a rejected sub-DAG is dropped
    /// before it can be probed or populated, so every cache entry
    /// corresponds to a committed task's fingerprint — rejections
    /// strand no entries.
    #[test]
    fn prop_rejected_subdags_strand_no_cache_entries(
        seed in 0u64..1000,
        submissions in 8usize..32,
        tenants in 1usize..4,
        handles in 1usize..3,
        max_in_flight in 6usize..16,
    ) {
        let cache = Arc::new(ResultCache::new());
        let mut rt = Runtime::new(homogeneous(3), model());
        rt.set_cache(Arc::clone(&cache));
        let counts: Vec<_> = (0..handles)
            .map(|i| rt.register(vec![0.0], &format!("c{i}")))
            .collect();
        let warms: Vec<_> = (0..handles)
            .map(|i| rt.register(vec![0.0], &format!("w{i}")))
            .collect();
        let mut cfg = StreamConfig::new(TenantSpec::equal(tenants));
        cfg.admission.max_in_flight = max_in_flight;
        let mut mix = Mix(seed);
        let stream: Vec<Submission> = (0..submissions)
            .map(|_| {
                let h = mix.below(handles);
                mixed_subdag(mix.below(tenants), counts[h], warms[h], mix.below(3) + 1)
            })
            .collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        prop_assert!(report.is_complete(), "error: {:?}", report.error);
        prop_assert_eq!(
            report.subdags_admitted + report.subdags_rejected,
            submissions as u64
        );
        let findings = streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits);
        prop_assert!(findings.is_empty(), "{:?}", findings);
        // The grown graph is exactly the admitted set; only its
        // fingerprints can ever be populated. Every committed task was
        // executed or hit, so the entry count matches exactly.
        let g = rt.graph();
        let committed_keys: HashSet<u64> = (0..g.task_count())
            .filter_map(|i| g.cache_meta(multiprio_suite::dag::TaskId::from_index(i)))
            .map(|m| m.key)
            .collect();
        prop_assert_eq!(cache.len(), committed_keys.len());
    }
}
