//! Simulated memory state: replicas, coherence, capacity, link queues.
//!
//! With `--features audit`, every mutation additionally runs the
//! invariant auditor (see [`DataStore::take_audit`]); violations are
//! recorded instead of asserted so a corrupted run still produces a
//! diagnosable report.

use std::collections::HashMap;

use mp_dag::graph::TaskGraph;
use mp_dag::ids::DataId;
use mp_platform::types::{MemNodeId, Platform};
use mp_sched::api::DataLocator;
use mp_trace::AuditRecord;

/// Eviction plan: `(ready_time, writebacks)`, each writeback being
/// `(data, start, end)`.
pub type RoomPlan = (f64, Vec<(DataId, f64, f64)>);

/// One replica of a data handle on a memory node.
#[derive(Clone, Copy, Debug)]
pub struct Replica {
    /// The replica's value is usable from this time on (transfers and
    /// writes land in the future).
    pub valid_at: f64,
    /// Last time a task on this node touched the replica (LRU key).
    pub last_use: f64,
    /// Pin count: >0 while a scheduled/running task needs the replica.
    pub pins: u32,
    /// Dirty: this node holds the only up-to-date value.
    pub dirty: bool,
}

/// All replicas of one handle. Tiny vectors: |M| is small.
#[derive(Clone, Debug, Default)]
struct HandleState {
    replicas: Vec<(MemNodeId, Replica)>,
}

impl HandleState {
    fn get(&self, m: MemNodeId) -> Option<&Replica> {
        self.replicas.iter().find(|(n, _)| *n == m).map(|(_, r)| r)
    }

    fn get_mut(&mut self, m: MemNodeId) -> Option<&mut Replica> {
        self.replicas
            .iter_mut()
            .find(|(n, _)| *n == m)
            .map(|(_, r)| r)
    }
}

/// Memory + interconnect state of the simulated machine.
pub struct DataStore {
    handles: Vec<HandleState>,
    /// Bytes allocated per memory node.
    used: Vec<u64>,
    /// Per directed link: time until which the link is busy (FIFO model).
    link_busy: HashMap<(MemNodeId, MemNodeId), f64>,
    sizes: Vec<u64>,
    capacities: Vec<Option<u64>>,
    /// Current simulation time mirror, so `DataLocator` answers "valid
    /// *now*" queries without threading `now` through the trait.
    pub now: f64,
    /// Invariant violations recorded by the auditor. Only ever written
    /// under `--features audit`; stays empty (and costs nothing) without
    /// the feature.
    audit: Vec<AuditRecord>,
}

impl DataStore {
    /// Initialize: every handle has one valid, clean replica on main RAM.
    pub fn new(graph: &TaskGraph, platform: &Platform) -> Self {
        let sizes: Vec<u64> = graph.data().iter().map(|d| d.size).collect();
        let mut handles = Vec::with_capacity(sizes.len());
        let ram = platform.ram();
        for _ in &sizes {
            handles.push(HandleState {
                replicas: vec![(
                    ram,
                    Replica {
                        valid_at: 0.0,
                        last_use: 0.0,
                        pins: 0,
                        dirty: false,
                    },
                )],
            });
        }
        let mut used = vec![0u64; platform.mem_node_count()];
        used[ram.index()] = sizes.iter().sum();
        Self {
            handles,
            used,
            link_busy: HashMap::new(),
            sizes,
            capacities: platform.mem_nodes().iter().map(|m| m.capacity).collect(),
            now: 0.0,
            audit: Vec::new(),
        }
    }

    /// Size of a handle.
    pub fn size(&self, d: DataId) -> u64 {
        self.sizes[d.index()]
    }

    /// Number of data handles tracked.
    pub fn handle_count(&self) -> usize {
        self.sizes.len()
    }

    /// Bytes allocated on a node.
    pub fn used(&self, m: MemNodeId) -> u64 {
        self.used[m.index()]
    }

    /// The replica of `d` on `m`, if allocated (possibly still arriving).
    pub fn replica(&self, d: DataId, m: MemNodeId) -> Option<&Replica> {
        self.handles[d.index()].get(m)
    }

    /// Time at which `d` becomes usable on `m`; `None` if not allocated.
    pub fn available_at(&self, d: DataId, m: MemNodeId) -> Option<f64> {
        self.replica(d, m).map(|r| r.valid_at)
    }

    /// Nodes holding a usable-or-arriving replica, with validity times.
    pub fn holders_full(&self, d: DataId) -> &[(MemNodeId, Replica)] {
        &self.handles[d.index()].replicas
    }

    /// Allocate a replica arriving at `valid_at` (space must already be
    /// reserved via [`Self::make_room`]).
    pub fn allocate(&mut self, d: DataId, m: MemNodeId, valid_at: f64, dirty: bool) {
        let size = self.sizes[d.index()];
        let h = &mut self.handles[d.index()];
        assert!(h.get(m).is_none(), "replica of {d:?} already on {m:?}");
        h.replicas.push((
            m,
            Replica {
                valid_at,
                last_use: valid_at,
                pins: 0,
                dirty,
            },
        ));
        self.used[m.index()] += size;
        if let Some(cap) = self.capacities[m.index()] {
            assert!(
                self.used[m.index()] <= cap,
                "node {m:?} over capacity: make_room must be called first"
            );
        }
        #[cfg(feature = "audit")]
        {
            self.audit_capacity(m);
            self.audit_coherence(d);
        }
    }

    /// Drop a replica, freeing its space. Panics if pinned.
    pub fn drop_replica(&mut self, d: DataId, m: MemNodeId) {
        let size = self.sizes[d.index()];
        let h = &mut self.handles[d.index()];
        let i = h
            .replicas
            .iter()
            .position(|(n, _)| *n == m)
            .unwrap_or_else(|| panic!("no replica of {d:?} on {m:?}"));
        assert_eq!(h.replicas[i].1.pins, 0, "dropping pinned replica of {d:?}");
        h.replicas.swap_remove(i);
        self.used[m.index()] -= size;
    }

    /// Pin (prevent eviction of) the replica of `d` on `m`.
    pub fn pin(&mut self, d: DataId, m: MemNodeId) {
        self.handles[d.index()]
            .get_mut(m)
            .expect("pinning absent replica")
            .pins += 1;
    }

    /// Release one pin.
    pub fn unpin(&mut self, d: DataId, m: MemNodeId) {
        let r = self.handles[d.index()]
            .get_mut(m)
            .expect("unpinning absent replica");
        assert!(r.pins > 0, "unbalanced unpin of {d:?} on {m:?}");
        r.pins -= 1;
    }

    /// Touch the LRU clock of `d` on `m`.
    pub fn touch(&mut self, d: DataId, m: MemNodeId, now: f64) {
        if let Some(r) = self.handles[d.index()].get_mut(m) {
            r.last_use = r.last_use.max(now);
        }
    }

    /// Mark a write completion: the replica on `m` is the unique valid
    /// copy from `at` on; all other replicas are dropped (unless pinned by
    /// a concurrent reader — the STF dependency engine prevents that).
    pub fn commit_write(&mut self, d: DataId, m: MemNodeId, at: f64) {
        let others: Vec<MemNodeId> = self.handles[d.index()]
            .replicas
            .iter()
            .filter(|(n, r)| *n != m && r.pins == 0)
            .map(|(n, _)| *n)
            .collect();
        for n in others {
            self.drop_replica(d, n);
        }
        let r = self.handles[d.index()]
            .get_mut(m)
            .expect("writer's replica exists");
        // The write defines the value: validity is exactly the commit time
        // (write-only replicas are allocated with valid_at = f64::MAX).
        r.valid_at = at;
        r.dirty = true;
        r.last_use = at;
        #[cfg(feature = "audit")]
        self.audit_coherence(d);
    }

    /// Mark a replica clean (after write-back to RAM).
    pub fn mark_clean(&mut self, d: DataId, m: MemNodeId) {
        if let Some(r) = self.handles[d.index()].get_mut(m) {
            r.dirty = false;
        }
        #[cfg(feature = "audit")]
        self.audit_coherence(d);
    }

    /// Mark a replica dirty: worker-failure recovery promotes a surviving
    /// copy to the sole authoritative value, which must be written back
    /// before any future eviction.
    pub fn mark_dirty(&mut self, d: DataId, m: MemNodeId) {
        if let Some(r) = self.handles[d.index()].get_mut(m) {
            r.dirty = true;
        }
        #[cfg(feature = "audit")]
        self.audit_coherence(d);
    }

    /// Free space on `m` until `needed` extra bytes fit, evicting
    /// least-recently-used unpinned replicas. Clean replicas are dropped
    /// instantly; dirty ones are written back to RAM over the link (the
    /// returned time is when the space is actually reusable, and the
    /// write-backs are reported for trace recording).
    ///
    /// Returns `(ready_time, writebacks)` where each writeback is
    /// `(data, start, end)`. Panics when the node cannot possibly fit the
    /// request (working set larger than device memory).
    pub fn make_room(
        &mut self,
        m: MemNodeId,
        needed: u64,
        now: f64,
        platform: &Platform,
    ) -> RoomPlan {
        match self.try_make_room(m, needed, now, platform) {
            Ok(r) => r,
            Err((used, cap)) => panic!(
                "node {m:?} out of memory: {used} used + {needed} needed > {cap} capacity, \
                 nothing evictable"
            ),
        }
    }

    /// Fallible variant of [`Self::make_room`]: returns `Err((used,
    /// capacity))` when the request cannot be satisfied (everything
    /// remaining is pinned). Evictions performed before discovering the
    /// failure stay evicted — they were unpinned and reloadable anyway.
    pub fn try_make_room(
        &mut self,
        m: MemNodeId,
        needed: u64,
        now: f64,
        platform: &Platform,
    ) -> Result<RoomPlan, (u64, u64)> {
        let Some(cap) = self.capacities[m.index()] else {
            return Ok((now, Vec::new())); // unbounded node
        };
        let mut writebacks = Vec::new();
        let mut ready = now;
        while self.used[m.index()] + needed > cap {
            // LRU victim among unpinned replicas on m.
            let victim = self
                .handles
                .iter()
                .enumerate()
                .filter_map(|(i, h)| {
                    h.get(m).and_then(|r| {
                        (r.pins == 0).then_some((DataId::from_index(i), r.last_use, r.dirty))
                    })
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let Some((d, _, dirty)) = victim else {
                return Err((self.used[m.index()], cap));
            };
            if dirty {
                // Must persist the only valid copy to RAM first.
                let ram = platform.ram();
                let end = if self.replica(d, ram).is_some() {
                    // RAM already has an (outdated) copy slot: just refresh.
                    let start = self.link_start(m, ram, now);
                    let end = start + platform.transfer_time(self.size(d), m, ram);
                    self.set_link_busy(m, ram, end);
                    let r = self.handles[d.index()].get_mut(ram).expect("checked above");
                    r.valid_at = end;
                    writebacks.push((d, start, end));
                    end
                } else {
                    let start = self.link_start(m, ram, now);
                    let end = start + platform.transfer_time(self.size(d), m, ram);
                    self.set_link_busy(m, ram, end);
                    self.allocate(d, ram, end, false);
                    writebacks.push((d, start, end));
                    end
                };
                ready = ready.max(end);
            }
            self.drop_replica(d, m);
        }
        Ok((ready, writebacks))
    }

    /// Earliest start time for a transfer on the directed link `from→to`.
    pub fn link_start(&self, from: MemNodeId, to: MemNodeId, now: f64) -> f64 {
        self.link_busy
            .get(&(from, to))
            .copied()
            .unwrap_or(0.0)
            .max(now)
    }

    /// Mark the link busy until `until`.
    pub fn set_link_busy(&mut self, from: MemNodeId, to: MemNodeId, until: f64) {
        #[cfg(feature = "audit")]
        {
            let prev = self.link_busy.get(&(from, to)).copied().unwrap_or(0.0);
            if until < prev - 1e-9 {
                self.audit.push(AuditRecord::new(
                    self.now,
                    mp_trace::AuditKind::LinkTimeRegression,
                    format!("link {from:?}->{to:?}: busy horizon {until} behind {prev}"),
                ));
            }
        }
        let slot = self.link_busy.entry((from, to)).or_insert(0.0);
        *slot = slot.max(until);
    }

    // ------------------------------------------------------------------
    // Auditing
    // ------------------------------------------------------------------

    /// Replicas still pinned — must be empty once a run has quiesced
    /// (every pin is released at task completion or on a rejected
    /// staging attempt). Each entry is `(data, node, pins)`.
    pub fn leaked_pins(&self) -> Vec<(DataId, MemNodeId, u32)> {
        let mut out = Vec::new();
        for (i, h) in self.handles.iter().enumerate() {
            for &(m, ref r) in &h.replicas {
                if r.pins > 0 {
                    out.push((DataId::from_index(i), m, r.pins));
                }
            }
        }
        out
    }

    /// Drain the violations recorded so far (engine merges them into the
    /// [`crate::SimResult`]). Always callable; empty without the
    /// `audit` feature.
    pub fn take_audit(&mut self) -> Vec<AuditRecord> {
        std::mem::take(&mut self.audit)
    }

    /// MSI coherence of one handle: at most one dirty replica, and a
    /// dirty replica is the sole copy apart from stale replicas kept
    /// alive by pinned concurrent readers.
    #[cfg(feature = "audit")]
    fn audit_coherence(&mut self, d: DataId) {
        let reps = &self.handles[d.index()].replicas;
        let dirty: Vec<MemNodeId> = reps
            .iter()
            .filter(|(_, r)| r.dirty)
            .map(|&(m, _)| m)
            .collect();
        if dirty.len() > 1 {
            self.audit.push(AuditRecord::new(
                self.now,
                mp_trace::AuditKind::MultipleDirtyReplicas,
                format!("{d:?} dirty on {dirty:?}"),
            ));
        }
        if let [owner] = dirty[..] {
            // Copies fetched *from* the dirty owner after its write
            // committed (prefetches, shared reads) are coherent: their
            // valid_at postdates the commit. Only copies predating the
            // commit hold a stale value.
            let owner_valid = reps
                .iter()
                .find(|&&(m, _)| m == owner)
                .map(|(_, r)| r.valid_at)
                .unwrap();
            let stale_unpinned: Vec<MemNodeId> = reps
                .iter()
                .filter(|&&(m, ref r)| m != owner && r.pins == 0 && r.valid_at + 1e-9 < owner_valid)
                .map(|&(m, _)| m)
                .collect();
            if !stale_unpinned.is_empty() {
                self.audit.push(AuditRecord::new(
                    self.now,
                    mp_trace::AuditKind::DirtyNotSole,
                    format!(
                        "{d:?} dirty on {owner:?} but stale unpinned copies on {stale_unpinned:?}"
                    ),
                ));
            }
        }
    }

    /// Capacity invariant of one node: `used[m] ≤ capacity[m]`.
    #[cfg(feature = "audit")]
    fn audit_capacity(&mut self, m: MemNodeId) {
        if let Some(cap) = self.capacities[m.index()] {
            if self.used[m.index()] > cap {
                let used = self.used[m.index()];
                self.audit.push(AuditRecord::new(
                    self.now,
                    mp_trace::AuditKind::CapacityExceeded,
                    format!("node {m:?}: {used} used > {cap} capacity"),
                ));
            }
        }
    }

    /// Quiesce-time sweep: record a [`mp_trace::AuditKind::PinLeak`] for
    /// every replica still pinned after the run drained.
    #[cfg(feature = "audit")]
    pub fn audit_quiesce(&mut self) {
        for (d, m, pins) in self.leaked_pins() {
            self.audit.push(AuditRecord::new(
                self.now,
                mp_trace::AuditKind::PinLeak,
                format!("{d:?} on {m:?} still holds {pins} pin(s) at quiesce"),
            ));
        }
    }
}

impl DataLocator for DataStore {
    fn is_on(&self, d: DataId, m: MemNodeId) -> bool {
        self.replica(d, m).is_some_and(|r| r.valid_at <= self.now)
    }

    fn holders(&self, d: DataId) -> Vec<MemNodeId> {
        let mut nodes = Vec::new();
        self.for_each_holder(d, &mut |m| nodes.push(m));
        nodes
    }

    fn for_each_holder(&self, d: DataId, f: &mut dyn FnMut(MemNodeId)) {
        for (n, r) in &self.handles[d.index()].replicas {
            if r.valid_at <= self.now {
                f(*n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dag::access::AccessMode;
    use mp_platform::presets::simple;

    fn setup(sizes: &[u64]) -> (TaskGraph, Platform, DataStore) {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let ds: Vec<DataId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| g.add_data(s, format!("d{i}")))
            .collect();
        // Keep the graph non-trivial for completeness.
        g.add_task(k, vec![(ds[0], AccessMode::Read)], 1.0, "t");
        let p = simple(1, 1);
        let store = DataStore::new(&g, &p);
        (g, p, store)
    }

    #[test]
    fn initial_state_all_in_ram() {
        let (_, p, store) = setup(&[100, 200]);
        assert!(store.is_on(DataId(0), p.ram()));
        assert!(!store.is_on(DataId(0), MemNodeId(1)));
        assert_eq!(store.used(p.ram()), 300);
        assert_eq!(store.holders(DataId(0)), vec![p.ram()]);
    }

    #[test]
    fn allocate_and_future_validity() {
        let (_, _, mut store) = setup(&[100]);
        store.allocate(DataId(0), MemNodeId(1), 50.0, false);
        store.now = 10.0;
        assert!(!store.is_on(DataId(0), MemNodeId(1)), "still arriving");
        store.now = 50.0;
        assert!(store.is_on(DataId(0), MemNodeId(1)));
        assert_eq!(store.used(MemNodeId(1)), 100);
    }

    #[test]
    fn commit_write_invalidates_remote() {
        let (_, _, mut store) = setup(&[100]);
        store.allocate(DataId(0), MemNodeId(1), 0.0, false);
        store.commit_write(DataId(0), MemNodeId(1), 42.0);
        store.now = 42.0;
        assert!(store.is_on(DataId(0), MemNodeId(1)));
        assert!(!store.is_on(DataId(0), MemNodeId(0)), "RAM copy dropped");
        assert!(store.replica(DataId(0), MemNodeId(1)).unwrap().dirty);
        assert_eq!(store.used(MemNodeId(0)), 0);
    }

    #[test]
    fn pins_block_eviction() {
        let (_, p, mut store) = setup(&[100]);
        store.allocate(DataId(0), MemNodeId(1), 0.0, false);
        store.pin(DataId(0), MemNodeId(1));
        // Capacity of the `simple` preset GPU is huge; exercise pin API
        // and the panic path of drop instead.
        store.unpin(DataId(0), MemNodeId(1));
        store.drop_replica(DataId(0), MemNodeId(1));
        assert!(store.replica(DataId(0), MemNodeId(1)).is_none());
        let _ = p;
    }

    /// Pin accounting must stay balanced across evictions and rejected
    /// allocation attempts: eviction may only take unpinned replicas,
    /// a failed `try_make_room` must leave pin counts untouched, and
    /// `leaked_pins` reports exactly the outstanding pins.
    #[test]
    fn pins_balance_across_eviction_and_rejection() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d0 = g.add_data(100, "d0");
        let d1 = g.add_data(100, "d1");
        g.add_task(k, vec![(d0, AccessMode::Read)], 1.0, "t");
        let p = mp_platform::presets::hetero_node(
            "tiny-gpu",
            2,
            1.0,
            1,
            1.0,
            250,
            1,
            mp_platform::link::Link::pcie_gen3(),
        );
        let mut store = DataStore::new(&g, &p);
        let gpu = MemNodeId(1);
        store.allocate(d0, gpu, 0.0, false);
        store.allocate(d1, gpu, 0.0, false);
        store.pin(d0, gpu);
        assert_eq!(store.leaked_pins(), vec![(d0, gpu, 1)]);
        // Eviction must pick the unpinned d1, leaving d0's pin intact.
        let (_, wb) = store.make_room(gpu, 100, 1.0, &p);
        assert!(wb.is_empty());
        assert!(store.replica(d0, gpu).is_some(), "pinned replica survives");
        assert!(store.replica(d1, gpu).is_none(), "unpinned LRU evicted");
        // A request nothing can satisfy fails without touching pins.
        assert!(store.try_make_room(gpu, 1_000, 1.0, &p).is_err());
        assert_eq!(store.leaked_pins(), vec![(d0, gpu, 1)]);
        assert_eq!(store.replica(d0, gpu).unwrap().pins, 1);
        // Releasing the pin quiesces the store.
        store.unpin(d0, gpu);
        assert!(store.leaked_pins().is_empty());
    }

    #[test]
    fn make_room_evicts_lru_clean_first() {
        // Tiny GPU: capacity 250 bytes.
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d0 = g.add_data(100, "d0");
        let d1 = g.add_data(100, "d1");
        let d2 = g.add_data(100, "d2");
        g.add_task(k, vec![(d0, AccessMode::Read)], 1.0, "t");
        let p = mp_platform::presets::hetero_node(
            "tiny-gpu",
            2,
            1.0,
            1,
            1.0,
            250,
            1,
            mp_platform::link::Link::pcie_gen3(),
        );
        let mut store = DataStore::new(&g, &p);
        let gpu = MemNodeId(1);
        store.allocate(d0, gpu, 0.0, false);
        store.allocate(d1, gpu, 0.0, false);
        store.touch(d0, gpu, 5.0);
        store.touch(d1, gpu, 9.0);
        // Need 100 more bytes: evict d0 (older LRU), clean → instant.
        let (ready, wb) = store.make_room(gpu, 100, 10.0, &p);
        assert_eq!(ready, 10.0);
        assert!(wb.is_empty());
        assert!(store.replica(d0, gpu).is_none());
        assert!(store.replica(d1, gpu).is_some());
        store.allocate(d2, gpu, 10.0, false);
        assert_eq!(store.used(gpu), 200);
    }

    #[test]
    fn make_room_writes_back_dirty_victims() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d0 = g.add_data(100, "d0");
        let d1 = g.add_data(100, "d1");
        g.add_task(k, vec![(d0, AccessMode::Read)], 1.0, "t");
        let p = mp_platform::presets::hetero_node(
            "tiny-gpu",
            2,
            1.0,
            1,
            1.0,
            150,
            1,
            mp_platform::link::Link::new(0.001, 5.0), // slow link: visible time
        );
        let mut store = DataStore::new(&g, &p);
        let gpu = MemNodeId(1);
        store.allocate(d0, gpu, 0.0, false);
        store.commit_write(d0, gpu, 0.0); // now dirty, RAM copy dropped
        let (ready, wb) = store.make_room(gpu, 100, 10.0, &p);
        assert_eq!(wb.len(), 1);
        assert!(ready > 10.0, "write-back takes link time");
        // RAM holds the value again.
        store.now = ready;
        assert!(store.is_on(d0, MemNodeId(0)));
        assert!(store.replica(d0, gpu).is_none());
        let _ = d1;
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn impossible_fit_panics() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(100, "d");
        g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t");
        let p = mp_platform::presets::hetero_node(
            "tiny-gpu",
            2,
            1.0,
            1,
            1.0,
            50,
            1,
            mp_platform::link::Link::pcie_gen3(),
        );
        let mut store = DataStore::new(&g, &p);
        store.make_room(MemNodeId(1), 100, 0.0, &p);
    }

    /// With the auditor on, deliberately-corrupted coherence state is
    /// recorded (not asserted): two dirty replicas of one handle and a
    /// dirty replica coexisting with an unpinned stale copy.
    #[cfg(feature = "audit")]
    #[test]
    fn auditor_flags_coherence_violations_and_pin_leaks() {
        use mp_trace::AuditKind;
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(100, "d");
        g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t");
        // Two GPUs: mem nodes {ram=0, gpu0=1, gpu1=2}.
        let p = simple(1, 2);
        let mut store = DataStore::new(&g, &p);
        // RAM holds a clean unpinned copy from t=0; a dirty allocation
        // valid later leaves RAM stale, violating "dirty implies sole
        // up-to-date copy".
        store.allocate(DataId(0), MemNodeId(1), 10.0, true);
        // A second dirty replica violates "at most one dirty".
        store.allocate(DataId(0), MemNodeId(2), 10.0, true);
        store.pin(DataId(0), MemNodeId(1));
        store.audit_quiesce();
        let records = store.take_audit();
        let kinds: Vec<AuditKind> = records.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&AuditKind::DirtyNotSole), "{records:?}");
        assert!(
            kinds.contains(&AuditKind::MultipleDirtyReplicas),
            "{records:?}"
        );
        assert!(kinds.contains(&AuditKind::PinLeak), "{records:?}");
        assert!(store.take_audit().is_empty(), "take_audit drains");
    }

    #[test]
    fn link_fifo_serializes() {
        let (_, _, mut store) = setup(&[100]);
        let (a, b) = (MemNodeId(0), MemNodeId(1));
        assert_eq!(store.link_start(a, b, 5.0), 5.0);
        store.set_link_busy(a, b, 20.0);
        assert_eq!(store.link_start(a, b, 5.0), 20.0);
        // Opposite direction is independent (full duplex).
        assert_eq!(store.link_start(b, a, 5.0), 5.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mp_dag::access::AccessMode;
    use proptest::prelude::*;

    proptest! {
        /// Byte accounting stays exact under random allocate / drop /
        /// write sequences, and capacity is never exceeded.
        #[test]
        fn prop_byte_accounting(ops in proptest::collection::vec((0u8..3, 0u32..8), 1..120)) {
            let mut g = TaskGraph::new();
            let k = g.register_type("K", true, true);
            let handles: Vec<DataId> =
                (0..8).map(|i| g.add_data(100 + i * 10, format!("d{i}"))).collect();
            g.add_task(k, vec![(handles[0], AccessMode::Read)], 1.0, "t");
            let p = mp_platform::presets::simple(1, 1);
            let mut store = DataStore::new(&g, &p);
            let gpu = MemNodeId(1);
            let mut on_gpu: std::collections::HashSet<DataId> = Default::default();
            for (op, di) in ops {
                let d = handles[di as usize];
                match op {
                    0 => {
                        if !on_gpu.contains(&d) {
                            store.allocate(d, gpu, 0.0, false);
                            on_gpu.insert(d);
                        }
                    }
                    1 => {
                        if on_gpu.remove(&d) {
                            store.drop_replica(d, gpu);
                        }
                    }
                    _ => {
                        if on_gpu.contains(&d) {
                            store.commit_write(d, gpu, 1.0);
                        }
                    }
                }
                let expect: u64 = on_gpu.iter().map(|&d| store.size(d)).sum();
                prop_assert_eq!(store.used(gpu), expect, "gpu bytes drifted");
            }
        }

        /// `make_room` always reaches the requested headroom (on an
        /// unpinned store) and never drops below zero usage.
        #[test]
        fn prop_make_room_converges(present in proptest::collection::vec(0u32..6, 0..8), need in 0u64..600) {
            let mut g = TaskGraph::new();
            let k = g.register_type("K", true, true);
            let handles: Vec<DataId> =
                (0..8).map(|i| g.add_data(100, format!("d{i}"))).collect();
            g.add_task(k, vec![(handles[0], AccessMode::Read)], 1.0, "t");
            let p = mp_platform::presets::hetero_node(
                "t", 2, 1.0, 1, 1.0, 600, 1, mp_platform::link::Link::pcie_gen3());
            let mut store = DataStore::new(&g, &p);
            let gpu = MemNodeId(1);
            let mut seen = std::collections::HashSet::new();
            for di in present {
                let d = handles[di as usize];
                if seen.insert(d) {
                    store.allocate(d, gpu, 0.0, false);
                }
            }
            if need <= 600 {
                let (ready, _) = store.make_room(gpu, need, 5.0, &p);
                prop_assert!(ready >= 5.0);
                prop_assert!(store.used(gpu) + need <= 600);
            }
        }
    }
}
