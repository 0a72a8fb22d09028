//! `StfBuilder` keeps its per-handle inference state in dense vectors
//! indexed by `DataId`. This test drives it with random access programs
//! side by side with a test-local copy of the hash-map-based builder it
//! replaced, and requires identical edges, cache keys, fingerprints,
//! out-versions and data versions.

use std::collections::HashMap;

use mp_dag::graph::CacheMeta;
use mp_dag::hash;
use mp_dag::{AccessMode, DataId, StfBuilder, TaskGraph, TaskId, TaskTypeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Default)]
struct Flow {
    last_writer: Option<TaskId>,
    readers_since_write: Vec<TaskId>,
}

/// The map-based STF builder, kept as the reference.
struct MapStf {
    graph: TaskGraph,
    flows: HashMap<DataId, Flow>,
    versions: HashMap<DataId, u64>,
}

impl MapStf {
    fn from_graph(graph: TaskGraph) -> Self {
        Self {
            graph,
            flows: HashMap::new(),
            versions: HashMap::new(),
        }
    }

    fn initial_version(&self, d: DataId) -> u64 {
        let desc = self.graph.data_desc(d);
        hash::mix64(hash::fnv1a_words(&[d.index() as u64, desc.size]))
    }

    fn data_version(&mut self, d: DataId) -> u64 {
        let init = self.initial_version(d);
        *self.versions.entry(d).or_insert(init)
    }

    fn cache_meta(
        &mut self,
        ttype: TaskTypeId,
        accesses: &[(DataId, AccessMode)],
        flops: f64,
    ) -> CacheMeta {
        let mut fingerprint = vec![
            hash::fnv1a_bytes(self.graph.task_type(ttype).name.as_bytes()),
            flops.to_bits(),
        ];
        for &(d, mode) in accesses {
            fingerprint.push(match mode {
                AccessMode::Read => 1,
                AccessMode::Write => 2,
                AccessMode::ReadWrite => 3,
            });
            fingerprint.push(hash::mix64(self.initial_version(d) ^ 0x5157_4944_454e_5449));
            if mode.reads() {
                let v = self.data_version(d);
                fingerprint.push(v);
            }
        }
        let key = hash::fnv1a_words(&fingerprint);
        let mut out_versions = Vec::new();
        for (i, &(d, mode)) in accesses.iter().enumerate() {
            if mode.writes() {
                let v = hash::mix64(key ^ hash::mix64(i as u64 + 1));
                self.versions.insert(d, v);
                out_versions.push(v);
            }
        }
        CacheMeta {
            key,
            fingerprint,
            out_versions,
        }
    }

    fn submit(
        &mut self,
        ttype: TaskTypeId,
        accesses: Vec<(DataId, AccessMode)>,
        flops: f64,
        prio: i64,
        label: String,
    ) -> TaskId {
        let t = self.graph.add_task(ttype, accesses.clone(), flops, label);
        let meta = self.cache_meta(ttype, &accesses, flops);
        self.graph.set_cache_meta(t, meta);
        self.graph.set_user_priority(t, prio);
        for (d, mode) in accesses {
            let flow = self.flows.entry(d).or_default();
            if mode.reads() {
                if let Some(w) = flow.last_writer {
                    self.graph.add_edge(w, t);
                }
            }
            if mode.writes() {
                for &r in &flow.readers_since_write {
                    if r != t {
                        self.graph.add_edge(r, t);
                    }
                }
                if let Some(w) = flow.last_writer {
                    if w != t {
                        self.graph.add_edge(w, t);
                    }
                }
                flow.last_writer = Some(t);
                flow.readers_since_write.clear();
            }
            if mode.reads() && !mode.writes() {
                flow.readers_since_write.push(t);
            }
        }
        t
    }
}

/// One task drawn at random: type, accesses (with spare capacity, and
/// sometimes the same handle twice), flops, priority.
type Draw = (TaskTypeId, Vec<(DataId, AccessMode)>, f64, i64);

fn draw(rng: &mut StdRng, types: &[TaskTypeId], handles: usize) -> Draw {
    let n = rng.gen_range(1..5usize);
    let mut acc = Vec::with_capacity(n + rng.gen_range(0..6usize));
    for _ in 0..n {
        let d = DataId::from_index(rng.gen_range(0..handles));
        let mode = match rng.gen_range(0..3u32) {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => AccessMode::ReadWrite,
        };
        // Reading a handle this task already wrote would be a
        // self-dependency, which STF rejects.
        let written = acc
            .iter()
            .any(|&(x, m): &(DataId, AccessMode)| x == d && m.writes());
        acc.push((d, if written { AccessMode::Write } else { mode }));
    }
    let ttype = types[rng.gen_range(0..types.len())];
    let flops = [0.0, 1.0, 2.5, 1e9][rng.gen_range(0..4usize)];
    (ttype, acc, flops, rng.gen_range(-3..4i64))
}

fn assert_same(dense: &TaskGraph, reference: &TaskGraph, ctx: &str) {
    assert_eq!(dense.task_count(), reference.task_count(), "{ctx}");
    assert_eq!(dense.edge_count(), reference.edge_count(), "{ctx}");
    assert_eq!(dense.data_count(), reference.data_count(), "{ctx}");
    for t in reference.tasks() {
        let id = t.id;
        let got = dense.task(id);
        assert_eq!(got.label, t.label, "{ctx} {id:?}");
        assert_eq!(got.ttype, t.ttype, "{ctx} {id:?}");
        assert_eq!(got.flops.to_bits(), t.flops.to_bits(), "{ctx} {id:?}");
        assert_eq!(got.user_priority, t.user_priority, "{ctx} {id:?}");
        assert_eq!(got.accesses, t.accesses, "{ctx} {id:?}");
        assert_eq!(
            got.accesses.capacity(),
            got.accesses.len(),
            "{ctx} {id:?}: stored accesses must not keep spare capacity"
        );
        assert_eq!(dense.preds(id), reference.preds(id), "{ctx} {id:?}");
        assert_eq!(dense.succs(id), reference.succs(id), "{ctx} {id:?}");
        assert_eq!(
            dense.cache_meta(id),
            reference.cache_meta(id),
            "{ctx} {id:?}"
        );
    }
}

/// Run one random program against both builders. `pre` seeds both with
/// the same pre-populated graph (bare tasks, no inference state).
fn run_program(seed: u64, pre: TaskGraph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dense = StfBuilder::from_graph(pre.clone());
    let mut reference = MapStf::from_graph(pre);
    let mut types: Vec<TaskTypeId> = dense.graph().types().iter().map(|t| t.id).collect();
    let add_type = |dense: &mut StfBuilder, reference: &mut MapStf, name: String| {
        let a = dense.graph_mut().register_type(&name, true, true);
        let b = reference.graph.register_type(&name, true, true);
        assert_eq!(a, b);
        a
    };
    if types.is_empty() {
        types.push(add_type(&mut dense, &mut reference, "K0".into()));
    }
    while dense.graph().data_count() < 3 {
        let n = dense.graph().data_count();
        dense.graph_mut().add_data(8 << n, format!("d{n}"));
        reference.graph.add_data(8 << n, format!("d{n}"));
    }
    let ctx = format!("seed {seed}");
    for step in 0..200 {
        let handles = dense.graph().data_count();
        match rng.gen_range(0..100u32) {
            // A fresh handle after submissions; half the time its
            // version is seeded before its first use.
            0..=7 => {
                let size = 8 * rng.gen_range(1..64u64);
                let a = dense.graph_mut().add_data(size, format!("n{step}"));
                let b = reference.graph.add_data(size, format!("n{step}"));
                assert_eq!(a, b);
                if rng.gen_bool(0.5) {
                    let v = rng.gen::<u64>();
                    dense.set_data_version(a, v);
                    reference.versions.insert(a, v);
                }
            }
            // Re-seed an arbitrary (possibly already used) handle.
            8..=11 => {
                let d = DataId::from_index(rng.gen_range(0..handles));
                let v = rng.gen::<u64>();
                dense.set_data_version(d, v);
                reference.versions.insert(d, v);
            }
            12..=14 => {
                let name = format!("K{}", types.len());
                types.push(add_type(&mut dense, &mut reference, name));
            }
            // A staged batch, committed or discarded.
            15..=29 => {
                let commit = rng.gen_bool(0.5);
                let n = rng.gen_range(1..5usize);
                let draws: Vec<Draw> = (0..n).map(|_| draw(&mut rng, &types, handles)).collect();
                // The builder under test gets the drawn buffers (spare
                // capacity included), the reference gets copies.
                let copies: Vec<Draw> = draws.clone();
                let mut stage = dense.begin_submission();
                for (i, (k, acc, flops, prio)) in draws.into_iter().enumerate() {
                    stage.submit_prio(k, acc, flops, prio, format!("s{step}.{i}"));
                }
                if commit {
                    let ids = stage.commit();
                    for (i, (k, acc, flops, prio)) in copies.into_iter().enumerate() {
                        let t = reference.submit(k, acc, flops, prio, format!("s{step}.{i}"));
                        assert_eq!(t, ids[i], "{ctx}");
                    }
                } else {
                    drop(stage);
                }
            }
            // Version reads must agree (and must not disturb later keys).
            30..=34 => {
                let d = DataId::from_index(rng.gen_range(0..handles));
                assert_eq!(dense.data_version(d), reference.data_version(d), "{ctx}");
            }
            _ => {
                let (k, acc, flops, prio) = draw(&mut rng, &types, handles);
                let b = reference.submit(k, acc.clone(), flops, prio, format!("t{step}"));
                let a = dense.submit_prio(k, acc, flops, prio, format!("t{step}"));
                assert_eq!(a, b, "{ctx}");
            }
        }
    }
    for i in 0..dense.graph().data_count() {
        let d = DataId::from_index(i);
        assert_eq!(
            dense.data_version(d),
            reference.data_version(d),
            "{ctx} {d:?}"
        );
    }
    assert_same(&dense.finish(), &reference.graph, &ctx);
}

#[test]
fn dense_state_matches_the_map_based_builder_on_random_programs() {
    for seed in 0..64 {
        run_program(seed, TaskGraph::new());
    }
}

#[test]
fn dense_state_matches_on_a_pre_populated_graph() {
    for seed in 100..132 {
        let mut pre = TaskGraph::new();
        let k = pre.register_type("PRE", true, false);
        let ds: Vec<DataId> = (0..5)
            .map(|i| pre.add_data(16 * (i + 1), format!("p{i}")))
            .collect();
        let a = pre.add_task(k, vec![(ds[0], AccessMode::Write)], 1.0, "pre0");
        let b = pre.add_task(k, vec![(ds[0], AccessMode::Read)], 1.0, "pre1");
        pre.add_edge(a, b);
        run_program(seed, pre);
    }
}
