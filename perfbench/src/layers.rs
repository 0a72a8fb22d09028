//! Folding drained spans into the per-layer metrics of the traced run.

use std::collections::BTreeMap;

use crate::span::{Drained, Kind, Span, Stat};

/// The scheduling policies the workloads run; a policy's index is the
/// `tag` of its spans.
pub const POLICIES: [&str; 6] = ["multiprio", "dmdas", "heteroprio", "lws", "fifo", "prio"];

/// Span tag of `policy`.
pub fn tag(policy: &str) -> u8 {
    POLICIES
        .iter()
        .position(|p| *p == policy)
        .unwrap_or_else(|| panic!("unknown policy {policy}")) as u8
}

/// Everything the traced rounds of one workload measured.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Span statistics by (kind, tag).
    pub by: BTreeMap<(Kind, u8), Stat>,
    /// Engine thread-time by policy tag: engine wall × threads driving
    /// the policy, summed over engine calls, ns.
    pub engine_ns: BTreeMap<u8, f64>,
    /// Threaded-engine thread-time, ns (subset of `engine_ns`).
    pub threaded_ns: f64,
    /// Tasks the threaded engines executed (cache hits excluded).
    pub threaded_tasks: f64,
    /// `simulate` calls folded by [`Ledger::fold_sim`].
    pub sims: u64,
    /// Entry → first scheduler call, summed, ns.
    pub sim_prepare_ns: f64,
    /// Last scheduler call → return, summed, ns.
    pub sim_tail_ns: f64,
    /// Self time of `simulate` between its first and last scheduler
    /// call, summed, ns.
    pub sim_loop_self_ns: f64,
    /// Duration of the `simulate` calls, summed, ns.
    pub sim_ns: f64,
    /// Traced rounds folded.
    pub rounds: u64,
    /// Per-round counters the workloads report (empty pops, bytes, ...),
    /// summed over rounds.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Fold drained records.
    pub fn fold(&mut self, d: &Drained) {
        for s in d.spans.iter().flatten() {
            self.by
                .entry((s.kind, s.tag))
                .or_default()
                .add(s.dur_ns(), s.self_ns, s.hit);
        }
        for (kind, st) in &d.folded {
            self.by.entry((*kind, 0)).or_default().merge(st);
        }
    }

    /// Fold the records of one traced `simulate` call, splitting its wall
    /// time into preparation, event loop and tail.
    pub fn fold_sim(&mut self, d: &Drained) {
        self.fold(d);
        for spans in &d.spans {
            let Some(sim) = spans.iter().find(|s| s.kind == Kind::Sim) else {
                continue;
            };
            let sched = spans
                .iter()
                .filter(|s| s.kind.is_sched() && s.start_ns >= sim.start_ns);
            let (first, last) = sched.fold((u64::MAX, 0), |(f, l), s| {
                (f.min(s.start_ns), l.max(s.end_ns))
            });
            if first > last {
                continue;
            }
            let child_in_loop: u64 = spans
                .iter()
                .filter(|s| s.parent == sim.id && s.start_ns >= first && s.end_ns <= last)
                .map(Span::dur_ns)
                .sum();
            self.sims += 1;
            self.sim_ns += sim.dur_ns() as f64;
            self.sim_prepare_ns += (first - sim.start_ns) as f64;
            self.sim_tail_ns += sim.end_ns.saturating_sub(last) as f64;
            self.sim_loop_self_ns += (last - first).saturating_sub(child_in_loop) as f64;
        }
    }

    /// Account `wall_ns × threads` of engine time to policy `tag`.
    pub fn engine(&mut self, tag: u8, wall_ns: f64, threads: usize) {
        *self.engine_ns.entry(tag).or_default() += wall_ns * threads as f64;
    }

    /// Add to a per-round counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn stat(&self, kind: Kind, tag: Option<u8>) -> Stat {
        let mut out = Stat::default();
        for (&(k, t), s) in &self.by {
            if k == kind && tag.is_none_or(|want| want == t) {
                out.merge(s);
            }
        }
        out
    }

    fn per_round(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0) / self.rounds.max(1) as f64
    }

    /// The per-layer metrics, `(name, value, unit, clock)`. A layer the
    /// workload does not exercise reports 0.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str, &'static str)> {
        fn mean(total: f64, n: f64) -> f64 {
            if n > 0.0 {
                total / n
            } else {
                0.0
            }
        }
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let build = self.stat(Kind::Build, None);
        let setups = self.stat(Kind::Setup, None);
        m.push((
            "apps.build_s".into(),
            mean(build.total_ns as f64, setups.calls as f64) * 1e-9,
            "s",
        ));
        let submit = self.stat(Kind::Submit, None);
        m.push((
            "dag.submit_ns".into(),
            mean(submit.total_ns as f64, submit.calls as f64),
            "ns",
        ));
        for (i, p) in POLICIES.iter().enumerate() {
            let t = Some(i as u8);
            let push = self.stat(Kind::SchedPush, t);
            let pop = self.stat(Kind::SchedPop, t);
            let other = self.stat(Kind::SchedOther, t);
            let busy = (push.total_ns + pop.total_ns + other.total_ns) as f64;
            let engine = self.engine_ns.get(&(i as u8)).copied().unwrap_or(0.0);
            m.push((
                format!("sched.{p}.push_ns"),
                mean(push.total_ns as f64, push.calls as f64),
                "ns",
            ));
            m.push((
                format!("sched.{p}.pop_ns"),
                mean(pop.total_ns as f64, pop.calls as f64),
                "ns",
            ));
            m.push((
                format!("sched.{p}.pop_hit_ratio"),
                mean(pop.hits as f64, pop.calls as f64),
                "ratio",
            ));
            m.push((format!("sched.{p}.busy_frac"), mean(busy, engine), "ratio"));
        }
        let est = self.stat(Kind::Estimate, None);
        let rec = self.stat(Kind::ModelRecord, None);
        let engine_all: f64 = self.engine_ns.values().sum();
        m.push((
            "perfmodel.estimate_calls".into(),
            est.calls as f64 / self.rounds.max(1) as f64,
            "count",
        ));
        m.push((
            "perfmodel.estimate_ns".into(),
            mean(est.total_ns as f64, est.calls as f64),
            "ns",
        ));
        m.push((
            "perfmodel.busy_frac".into(),
            mean((est.total_ns + rec.total_ns) as f64, engine_all),
            "ratio",
        ));
        let sims = self.sims as f64;
        m.push((
            "sim.prepare_s".into(),
            mean(self.sim_prepare_ns, sims) * 1e-9,
            "s",
        ));
        m.push((
            "sim.loop_self_frac".into(),
            mean(self.sim_loop_self_ns, self.sim_ns),
            "ratio",
        ));
        m.push((
            "sim.tail_s".into(),
            mean(self.sim_tail_ns, sims) * 1e-9,
            "s",
        ));
        for (name, unit) in [
            ("sim.empty_pops", "count"),
            ("sim.transfer_bytes", "bytes"),
            ("sim.capacity_evictions", "count"),
            ("sim.multiprio_vs_dmdas", "ratio"),
        ] {
            m.push((name.into(), self.per_round(name), unit));
        }
        let front: Vec<Stat> = [Kind::FrontPush, Kind::FrontPop, Kind::FrontOther]
            .into_iter()
            .map(|k| self.stat(k, None))
            .collect();
        let front_calls: u64 = front.iter().map(|s| s.calls).sum();
        let front_self: u64 = front.iter().map(|s| s.self_ns).sum();
        let kernel = self.stat(Kind::Kernel, None);
        m.push((
            "runtime.front_wait_ns".into(),
            mean(front_self as f64, front_calls as f64),
            "ns",
        ));
        m.push((
            "runtime.kernel_busy_frac".into(),
            mean(kernel.total_ns as f64, self.threaded_ns),
            "ratio",
        ));
        m.push((
            "runtime.overhead_ns_per_task".into(),
            mean(
                self.threaded_ns - kernel.total_ns as f64,
                self.threaded_tasks,
            ),
            "ns",
        ));
        let lookup = self.stat(Kind::CacheLookup, None);
        let insert = self.stat(Kind::CacheInsert, None);
        m.push((
            "cache.hit_ratio".into(),
            mean(self.per_round("cache.hits"), self.per_round("cache.probes")),
            "ratio",
        ));
        m.push((
            "cache.lookup_ns".into(),
            mean(lookup.total_ns as f64, lookup.calls as f64),
            "ns",
        ));
        m.push((
            "cache.persist_bytes".into(),
            self.per_round("cache.persist_bytes"),
            "bytes",
        ));
        m.push((
            "cache.persist_ns_per_record".into(),
            mean(insert.total_ns as f64, insert.calls as f64),
            "ns",
        ));
        m.push((
            "cache.records_loaded".into(),
            self.per_round("cache.records_loaded"),
            "count",
        ));
        m.push((
            "cache.load_rejects".into(),
            self.per_round("cache.load_rejects"),
            "count",
        ));
        let serve = self.stat(Kind::ServeSim, None);
        let decisions = self.per_round("serve.decisions");
        m.push((
            "serve.sim_ns_per_decision".into(),
            mean(serve.total_ns as f64 / self.rounds.max(1) as f64, decisions),
            "ns",
        ));
        m.push(("serve.decisions".into(), decisions, "count"));
        m.push((
            "serve.subdags_rejected".into(),
            self.per_round("serve.subdags_rejected"),
            "count",
        ));
        m.push((
            "serve.virtual_wait_p99_us".into(),
            self.per_round("serve.virtual_wait_p99_us"),
            "virtual_us",
        ));
        m.into_iter()
            .map(|(n, v, u)| {
                let virtual_clock =
                    n == "serve.virtual_wait_p99_us" || n == "sim.multiprio_vs_dmdas";
                (n, v, u, if virtual_clock { "virtual" } else { "wall" })
            })
            .collect()
    }
}
