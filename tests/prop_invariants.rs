//! Property-based integration tests: random DAGs through random scheduler
//! choices must always yield valid schedules with conserved structure.

use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::bench::{make_scheduler, replay, SCHEDULER_NAMES};
use multiprio_suite::dag::{critical_path, topological_order};
use multiprio_suite::perfmodel::{Estimator, PerfModel};
use multiprio_suite::platform::presets::simple;
use multiprio_suite::sim::{simulate, SimConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Simulated schedules satisfy all structural invariants for random
    /// shapes, scheduler choices and noise levels.
    #[test]
    fn prop_valid_schedules(
        seed in 0u64..1000,
        layers in 2usize..7,
        width in 2usize..9,
        sched_idx in 0usize..SCHEDULER_NAMES.len(),
        cpus in 1usize..5,
        gpus in 0usize..3,
        noise in 0usize..2,
    ) {
        let g = random_dag(RandomDagConfig { layers, width, seed, ..Default::default() });
        let m = random_model();
        // gpus can be 0: CPU-only platforms must also work (RCPU+RBOTH
        // both have CPU implementations).
        let p = simple(cpus, gpus);
        let mut s = make_scheduler(SCHEDULER_NAMES[sched_idx]);
        let cfg = if noise == 0 {
            SimConfig::seeded(seed)
        } else {
            SimConfig::seeded(seed).with_noise(0.2)
        };
        let r = simulate(&g, &p, &m, s.as_mut(), cfg);

        // Every task exactly once.
        prop_assert_eq!(r.stats.tasks, g.task_count());
        prop_assert_eq!(r.trace.tasks.len(), g.task_count());
        let mut seen = vec![false; g.task_count()];
        for span in &r.trace.tasks {
            prop_assert!(!seen[span.task.index()], "duplicate execution");
            seen[span.task.index()] = true;
        }
        // Workers never overlap; no task precedes its readiness.
        prop_assert!(r.trace.validate().is_ok());
        // Precedence constraints.
        let index = r.trace.span_index();
        for span in &r.trace.tasks {
            for &pred in g.preds(span.task) {
                let pe = index.get(pred).unwrap().end;
                prop_assert!(span.start >= pe - 1e-6);
            }
        }
        // Lower bound (only exact without noise).
        if noise == 0 {
            let est = Estimator::new(&g, &p, &m as &dyn PerfModel);
            let cp = critical_path(&g, |t| est.best_delta(t).unwrap()).length;
            prop_assert!(r.makespan >= cp - 1e-6);
        }
    }

    /// STF inference: for random submission programs the graph is acyclic
    /// and a topological order exists that matches submission order
    /// prefix-freeness (ids only ever depend on smaller ids).
    #[test]
    fn prop_stf_edges_point_forward(
        seed in 0u64..500,
        layers in 1usize..10,
        width in 1usize..12,
    ) {
        let g = random_dag(RandomDagConfig { layers, width, seed, ..Default::default() });
        prop_assert!(g.validate_acyclic().is_ok());
        for t in g.tasks() {
            for &s in g.succs(t.id) {
                prop_assert!(s > t.id, "STF edges point from earlier to later submissions");
            }
        }
        let order = topological_order(&g);
        prop_assert_eq!(order.len(), g.task_count());
    }

    /// The slab-backed MultiPrio (lazy heap deletion, push-plan cache)
    /// pops the exact same task→worker sequence as the retained eager
    /// [`ReferenceScheduler`] on random DAGs — the determinism contract
    /// of the arena rewrite (DESIGN.md §6b).
    #[test]
    fn prop_slab_scheduler_matches_reference(
        seed in 0u64..400,
        layers in 2usize..8,
        width in 2usize..10,
        cpus in 1usize..5,
        gpus in 0usize..3,
    ) {
        let g = random_dag(RandomDagConfig { layers, width, seed, ..Default::default() });
        let m = random_model();
        let p = simple(cpus, gpus);
        let mut slab = make_scheduler("multiprio");
        let mut reference = make_scheduler("multiprio-reference");
        let rs = replay(&g, &p, &m, slab.as_mut());
        let rr = replay(&g, &p, &m, reference.as_mut());
        prop_assert_eq!(rs.scheduled, g.task_count());
        prop_assert_eq!(rs.scheduled, rr.scheduled);
        prop_assert_eq!(
            rs.schedule_hash, rr.schedule_hash,
            "slab and reference schedulers diverged (seed {})", seed
        );
    }
}

/// Re-pushing a `TaskId` the scheduler has already taken (schedulers are
/// reused across replay rounds) must not let the stale first-generation
/// heap entries shadow or duplicate the fresh one.
#[test]
fn repushed_task_id_does_not_resurrect_stale_entries() {
    use multiprio_suite::multiprio::MultiPrioScheduler;
    use multiprio_suite::sched::testutil::Fixture;
    use multiprio_suite::sched::Scheduler;

    let mut fx = Fixture::two_arch();
    let t = fx.add_task(fx.both, 64, "t");
    let view = fx.view();
    let (_, _, g0) = fx.workers();
    let mut s = MultiPrioScheduler::with_defaults();
    s.push(t, None, &view);
    assert_eq!(s.pop(g0, &view), Some(t));
    // Same id, second life: the old entries are still physically present
    // in the heaps (lazy deletion) but carry a dead generation.
    s.push(t, None, &view);
    assert_eq!(s.pop(g0, &view), Some(t), "second life pops normally");
    assert_eq!(s.pop(g0, &view), None, "and exactly once");
    assert_eq!(s.pending(), 0);
}
