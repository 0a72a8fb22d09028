//! Octree construction and task-graph emission for the FMM.

use std::mem;

use mp_dag::{AccessMode, DataId, StfBuilder, TaskGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::morton;
use super::{Distribution, FmmConfig};

/// Multipole/local expansion terms (order 8 → (8+1)² terms).
const EXPANSION_TERMS: f64 = 81.0;
/// Bytes per expansion coefficient (complex f64).
const TERM_BYTES: u64 = 16;
/// Bytes per particle in the position/charge buffer.
const PARTICLE_BYTES: u64 = 32;
/// Flops per particle-particle interaction (potential + force).
const P2P_FLOPS_PER_PAIR: f64 = 27.0;

/// Shape statistics of a generated FMM workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FmmStats {
    /// Occupied leaf cells.
    pub leaf_cells: usize,
    /// Total groups over all levels.
    pub groups: usize,
    /// Leaf-level groups.
    pub leaf_groups: usize,
}

/// A generated FMM workload.
#[derive(Clone, Debug)]
pub struct FmmWorkload {
    /// The task graph (no user priorities — matching the paper).
    pub graph: TaskGraph,
    /// Total flops for reporting.
    pub total_flops: f64,
    /// Shape statistics.
    pub stats: FmmStats,
}

/// One level of the group tree.
struct Level {
    /// Occupied cells (sorted Morton) with particle counts.
    cells: Vec<(u64, u64)>,
    /// Cell → position + 1 (0: empty) over every Morton code of the
    /// level, kept only while that table is at most 8× the occupied
    /// cells; otherwise empty, and lookups binary-search `cells`.
    slots: Vec<u32>,
    /// Cells per group (the level's cells are grouped in Morton chunks).
    group_size: usize,
    /// Global id of the level's first group; its groups are consecutive.
    first_group: usize,
}

impl Level {
    fn new(level: usize, cells: Vec<(u64, u64)>, group_size: usize, first_group: usize) -> Self {
        let codes = 1usize << (3 * level);
        let mut slots = Vec::new();
        if codes <= 8 * cells.len() {
            slots = vec![0u32; codes];
            for (pos, &(m, _)) in cells.iter().enumerate() {
                slots[m as usize] = pos as u32 + 1;
            }
        }
        Level {
            cells,
            slots,
            group_size,
            first_group,
        }
    }

    /// Position of cell `m` in `cells`, if it is occupied.
    fn position(&self, m: u64) -> Option<usize> {
        if self.slots.is_empty() {
            self.cells.binary_search_by_key(&m, |&(c, _)| c).ok()
        } else {
            (self.slots[m as usize] as usize).checked_sub(1)
        }
    }

    /// Global group id of the cell at `pos`.
    fn group_of(&self, pos: usize) -> usize {
        self.first_group + pos / self.group_size
    }

    /// Positions of the cells of the level's `i`-th group.
    fn group_cells(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * self.group_size;
        start..(start + self.group_size).min(self.cells.len())
    }

    /// Number of groups.
    fn groups(&self) -> usize {
        self.cells.len().div_ceil(self.group_size)
    }

    /// Global ids of the level's groups.
    fn group_ids(&self) -> std::ops::Range<usize> {
        self.first_group..self.first_group + self.groups()
    }
}

/// Sum the counts of equal consecutive keys: sorted `(key, count)` in,
/// one `(key, total)` per distinct key out.
fn count_runs<K: PartialEq>(items: impl IntoIterator<Item = (K, u64)>) -> Vec<(K, u64)> {
    let mut out: Vec<(K, u64)> = Vec::new();
    for (k, c) in items {
        match out.last_mut() {
            Some((last, n)) if *last == k => *n += c,
            _ => out.push((k, c)),
        }
    }
    out
}

/// The `((parent group, child group), child cells)` pairs between a
/// level and the next finer one, in ascending pair order: walking the
/// sorted child cells, both their group and their parent's group never
/// decrease, so the pairs arrive sorted and equal ones are adjacent.
fn tree_pairs(parent: &Level, child: &Level) -> Vec<((usize, usize), u64)> {
    let mut ppos = 0;
    count_runs(child.cells.iter().enumerate().map(|(pos, &(m, _))| {
        let p = morton::parent(m);
        while parent.cells[ppos].0 != p {
            ppos += 1;
        }
        ((parent.group_of(ppos), child.group_of(pos)), 1)
    }))
}

struct Group {
    multipole: DataId,
    local: DataId,
    /// Leaf groups only: particle positions and accumulated potentials.
    particles: Option<DataId>,
    potential: Option<DataId>,
    /// Total particles in the group's cells.
    count: u64,
}

/// Generate the FMM task graph for `cfg`.
pub fn fmm(cfg: FmmConfig) -> FmmWorkload {
    cfg.validate().expect("invalid FMM configuration");
    let leaf_level = cfg.tree_height - 1;
    let side = 1u32 << leaf_level;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // ------------------------------------------------------------------
    // 1. Sample particles into leaf cells.
    // ------------------------------------------------------------------
    // Count particles per leaf cell. With at least as many particles
    // as leaf cells, count into a dense table over every Morton code;
    // otherwise keep the codes, sort them and count runs. Either way
    // the temporary is the smaller of the two sizes.
    let leaf_codes = 1usize << (3 * leaf_level);
    let (mut bins, mut codes): (Vec<u64>, Vec<u64>) = if leaf_codes <= cfg.particles {
        (vec![0; leaf_codes], Vec::new())
    } else {
        (Vec::new(), Vec::with_capacity(cfg.particles))
    };
    let clusters: Vec<(f64, f64, f64)> = (0..8)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    for _ in 0..cfg.particles {
        let (x, y, z) = match cfg.distribution {
            Distribution::Uniform => (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()),
            Distribution::Clustered => {
                let (cx, cy, cz) = clusters[rng.gen_range(0..clusters.len())];
                let gauss = |rng: &mut StdRng| {
                    let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
                    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * 0.05
                };
                (
                    (cx + gauss(&mut rng)).clamp(0.0, 1.0 - 1e-9),
                    (cy + gauss(&mut rng)).clamp(0.0, 1.0 - 1e-9),
                    (cz + gauss(&mut rng)).clamp(0.0, 1.0 - 1e-9),
                )
            }
        };
        let ix = (x * side as f64) as u32;
        let iy = (y * side as f64) as u32;
        let iz = (z * side as f64) as u32;
        let m = morton::encode(ix, iy, iz);
        match bins.get_mut(m as usize) {
            Some(n) => *n += 1,
            None => codes.push(m),
        }
    }
    let leaf_cells: Vec<(u64, u64)> = if bins.is_empty() {
        codes.sort_unstable();
        count_runs(codes.into_iter().map(|m| (m, 1)))
    } else {
        (0..).zip(bins).filter(|&(_, n)| n > 0).collect()
    };

    // ------------------------------------------------------------------
    // 2. Build levels 2..=leaf_level (occupancy propagates upward).
    // ------------------------------------------------------------------
    let mut stf = StfBuilder::new();
    let k_p2m = stf.graph_mut().register_type("P2M", true, false);
    let k_m2m = stf.graph_mut().register_type("M2M", true, false);
    let k_m2l = stf.graph_mut().register_type("M2L", true, true);
    let k_l2l = stf.graph_mut().register_type("L2L", true, false);
    let k_l2p = stf.graph_mut().register_type("L2P", true, false);
    let k_p2p = stf.graph_mut().register_type("P2P", true, true);

    // Built leaf first; reversed below so that `levels[l - 2]` is level l.
    let mut levels: Vec<Level> = Vec::with_capacity(leaf_level - 1);
    let mut groups: Vec<Group> = Vec::new();
    let mut cur = leaf_cells;
    for l in (2..=leaf_level).rev() {
        let level = Level::new(l, cur, cfg.group_size, groups.len());
        for (chunk_idx, chunk) in level.cells.chunks(cfg.group_size).enumerate() {
            let ncells = chunk.len();
            let count: u64 = chunk.iter().map(|&(_, c)| c).sum();
            let exp_bytes = (ncells as u64) * (EXPANSION_TERMS as u64) * TERM_BYTES;
            let multipole = stf
                .graph_mut()
                .add_data(exp_bytes, format!("mult[l{l}g{chunk_idx}]"));
            let local = stf
                .graph_mut()
                .add_data(exp_bytes, format!("loc[l{l}g{chunk_idx}]"));
            let (particles, potential) = if l == leaf_level {
                (
                    Some(
                        stf.graph_mut()
                            .add_data(count.max(1) * PARTICLE_BYTES, format!("part[g{chunk_idx}]")),
                    ),
                    Some(
                        stf.graph_mut()
                            .add_data(count.max(1) * 8, format!("pot[g{chunk_idx}]")),
                    ),
                )
            } else {
                (None, None)
            };
            groups.push(Group {
                multipole,
                local,
                particles,
                potential,
                count,
            });
        }
        // Parent level occupancy: parents of sorted cells are sorted.
        cur = count_runs(level.cells.iter().map(|&(m, c)| (morton::parent(m), c)));
        levels.push(level);
    }
    levels.reverse();
    let level = |l: usize| &levels[l - 2];

    // ------------------------------------------------------------------
    // 3. Emit tasks in FMM phase order; STF infers the DAG.
    // ------------------------------------------------------------------

    // P2P: direct near-field sums, one task per target leaf group.
    let leaf = level(leaf_level);
    let mut near = Vec::with_capacity(27);
    for (i, gid) in leaf.group_ids().enumerate() {
        let g = &groups[gid];
        let mut sources: Vec<usize> = Vec::new();
        let mut flops = 0.0f64;
        for pos in leaf.group_cells(i) {
            let (m, c) = leaf.cells[pos];
            morton::neighbors_into(m, side, true, &mut near);
            for &n in &near {
                if let Some(npos) = leaf.position(n) {
                    let (_, nc) = leaf.cells[npos];
                    flops += c as f64 * nc as f64 * P2P_FLOPS_PER_PAIR;
                    let src_gid = leaf.group_of(npos);
                    if src_gid != gid && !sources.contains(&src_gid) {
                        sources.push(src_gid);
                    }
                }
            }
        }
        let mut acc = vec![
            (g.particles.expect("leaf group"), AccessMode::Read),
            (g.potential.expect("leaf group"), AccessMode::ReadWrite),
        ];
        for s in sources {
            acc.push((groups[s].particles.expect("leaf group"), AccessMode::Read));
        }
        stf.submit(k_p2p, acc, flops, format!("P2P(g{gid})"));
    }

    // P2M: one per leaf group.
    for gid in leaf.group_ids() {
        let g = &groups[gid];
        let flops = g.count as f64 * EXPANSION_TERMS * 8.0;
        stf.submit(
            k_p2m,
            vec![
                (g.particles.expect("leaf group"), AccessMode::Read),
                (g.multipole, AccessMode::Write),
            ],
            flops,
            format!("P2M(g{gid})"),
        );
    }

    // M2M: bottom-up, one task per (parent group, child group) pair.
    for l in (2..leaf_level).rev() {
        for ((pg, cg), cells) in tree_pairs(level(l), level(l + 1)) {
            let flops = cells as f64 * EXPANSION_TERMS * EXPANSION_TERMS * 0.5;
            stf.submit(
                k_m2m,
                vec![
                    (groups[cg].multipole, AccessMode::Read),
                    (groups[pg].multipole, AccessMode::ReadWrite),
                ],
                flops,
                format!("M2M(g{pg}<-g{cg})"),
            );
        }
    }

    // M2L: per level, tasks per (target group, chunk of source groups).
    // TBFMM accumulates into the local expansion with a commutative
    // access mode; plain STF ReadWrite would serialize one task per
    // source group into a long chain, so we batch sources into at most
    // M2L_CHUNKS tasks per target — same work, bounded chain length.
    //
    // A target group's cells are one Morton chunk, so its interaction
    // pairs are counted per source group in a dense counter while that
    // chunk is walked; the touched sources, sorted, are the task inputs.
    const M2L_CHUNKS: usize = 4;
    let mut list = Vec::with_capacity(189);
    for l in 2..=leaf_level {
        let lev = level(l);
        let lside = 1u32 << l;
        let mut pairs = vec![0u64; lev.groups()];
        let mut touched: Vec<usize> = Vec::new();
        for (i, tg) in lev.group_ids().enumerate() {
            for pos in lev.group_cells(i) {
                morton::interaction_list_into(lev.cells[pos].0, lside, &mut list);
                for &s in &list {
                    if let Some(spos) = lev.position(s) {
                        let si = spos / lev.group_size;
                        if pairs[si] == 0 {
                            touched.push(si);
                        }
                        pairs[si] += 1;
                    }
                }
            }
            touched.sort_unstable();
            let sources: Vec<(usize, u64)> = touched
                .drain(..)
                .map(|si| (lev.first_group + si, mem::take(&mut pairs[si])))
                .collect();
            if sources.is_empty() {
                continue;
            }
            let chunk = sources.len().div_ceil(M2L_CHUNKS).max(1);
            for (ci, batch) in sources.chunks(chunk).enumerate() {
                let npairs: u64 = batch.iter().map(|&(_, n)| n).sum();
                let flops = npairs as f64 * EXPANSION_TERMS * EXPANSION_TERMS * 2.0;
                let mut acc = vec![(groups[tg].local, AccessMode::ReadWrite)];
                for &(sg, _) in batch {
                    acc.push((groups[sg].multipole, AccessMode::Read));
                }
                stf.submit(k_m2l, acc, flops, format!("M2L(g{tg}#{ci})"));
            }
        }
    }

    // L2L: top-down mirror of M2M.
    for l in 2..leaf_level {
        for ((pg, cg), cells) in tree_pairs(level(l), level(l + 1)) {
            let flops = cells as f64 * EXPANSION_TERMS * EXPANSION_TERMS * 0.5;
            stf.submit(
                k_l2l,
                vec![
                    (groups[pg].local, AccessMode::Read),
                    (groups[cg].local, AccessMode::ReadWrite),
                ],
                flops,
                format!("L2L(g{cg}<-g{pg})"),
            );
        }
    }

    // L2P: one per leaf group.
    for gid in leaf.group_ids() {
        let g = &groups[gid];
        let flops = g.count as f64 * EXPANSION_TERMS * 8.0;
        stf.submit(
            k_l2p,
            vec![
                (g.local, AccessMode::Read),
                (g.particles.expect("leaf group"), AccessMode::Read),
                (g.potential.expect("leaf group"), AccessMode::ReadWrite),
            ],
            flops,
            format!("L2P(g{gid})"),
        );
    }

    let graph = stf.finish();
    let total_flops = graph.stats().total_flops;
    let stats = FmmStats {
        leaf_cells: leaf.cells.len(),
        groups: groups.len(),
        leaf_groups: leaf.groups(),
    };
    FmmWorkload {
        graph,
        total_flops,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(dist: Distribution) -> FmmConfig {
        FmmConfig {
            particles: 5_000,
            tree_height: 4,
            group_size: 16,
            distribution: dist,
            seed: 1,
        }
    }

    #[test]
    fn builds_valid_dag() {
        let w = fmm(small(Distribution::Uniform));
        assert!(w.graph.validate_acyclic().is_ok());
        assert!(w.graph.task_count() > 50, "got {}", w.graph.task_count());
        assert!(w.total_flops > 0.0);
        assert!(w.stats.leaf_cells > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fmm(small(Distribution::Uniform));
        let b = fmm(small(Distribution::Uniform));
        assert_eq!(a.graph.task_count(), b.graph.task_count());
        assert_eq!(a.total_flops, b.total_flops);
    }

    #[test]
    fn phase_dependencies_hold() {
        // Every L2P must transitively depend on some P2M (through the
        // M2M/M2L/L2L pipeline): check direct preds are L2L/M2L/P2P-free
        // but non-empty.
        let w = fmm(small(Distribution::Uniform));
        let g = &w.graph;
        for t in g.tasks() {
            let name = &g.task_type(t.ttype).name;
            if name == "L2P" {
                assert!(
                    !g.preds(t.id).is_empty(),
                    "L2P must wait for local expansion"
                );
            }
            if name == "M2M" {
                // M2M reads a child multipole written by P2M or M2M.
                assert!(!g.preds(t.id).is_empty());
            }
        }
    }

    #[test]
    fn clustered_is_more_irregular_than_uniform() {
        let wu = fmm(small(Distribution::Uniform));
        let wc = fmm(small(Distribution::Clustered));
        // Clustered occupies fewer leaf cells for the same particle count.
        assert!(wc.stats.leaf_cells < wu.stats.leaf_cells);
        // And its P2P task sizes vary more (coefficient of variation).
        let cv = |w: &FmmWorkload| {
            let p2p: Vec<f64> = w
                .graph
                .tasks()
                .iter()
                .filter(|t| w.graph.task_type(t.ttype).name == "P2P")
                .map(|t| t.flops)
                .collect();
            let mean = p2p.iter().sum::<f64>() / p2p.len() as f64;
            let var = p2p.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / p2p.len() as f64;
            var.sqrt() / mean
        };
        assert!(
            cv(&wc) > cv(&wu),
            "clustered cv {} vs uniform cv {}",
            cv(&wc),
            cv(&wu)
        );
    }

    #[test]
    fn gpu_kernels_are_the_flop_heavy_ones() {
        let w = fmm(small(Distribution::Uniform));
        let g = &w.graph;
        let flops_of = |name: &str| -> f64 {
            g.tasks()
                .iter()
                .filter(|t| g.task_type(t.ttype).name == name)
                .map(|t| t.flops)
                .sum()
        };
        let gpu_side = flops_of("P2P") + flops_of("M2L");
        assert!(
            gpu_side > 0.5 * w.total_flops,
            "P2P+M2L must dominate ({} of {})",
            gpu_side,
            w.total_flops
        );
    }

    #[test]
    fn wide_disconnected_dag() {
        // The FMM DAG's width must vastly exceed its depth — the property
        // the paper credits for MultiPrio's win on this workload.
        let w = fmm(small(Distribution::Uniform));
        let profile = mp_dag::width_profile(&w.graph);
        let depth = profile.len();
        let width = *profile.iter().max().unwrap();
        assert!(width > 2 * depth, "width {width} vs depth {depth}");
    }
}
