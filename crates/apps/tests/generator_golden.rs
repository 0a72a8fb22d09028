//! Golden digests of generated task graphs.
//!
//! Each digest folds every field a consumer of a generated graph can
//! observe: data handles (size, label), task types, and per task its
//! type, label, flops bits, user priority, accesses, pred and succ lists
//! (in stored order) and STF cache metadata (key, fingerprint,
//! out-versions). A generator optimization must leave every digest
//! unchanged; a deliberate change to a generator's output must update
//! the pinned value and say why.
//!
//! Run with `GOLDEN_PRINT=1 cargo test -p mp-apps --test generator_golden
//! -- --nocapture` to print the current digests.

use mp_apps::dense::{geqrf, getrf, potrf, DenseConfig};
use mp_apps::fmm::{fmm, Distribution, FmmConfig};
use mp_apps::sparseqr::{matrix, sparse_qr, SparseQrConfig};
use mp_dag::{AccessMode, TaskGraph};

/// FNV-1a over 64-bit words, byte by byte.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }
}

fn graph_digest(g: &TaskGraph) -> u64 {
    let mut d = Digest::new();
    d.word(g.data_count() as u64);
    for desc in g.data() {
        d.word(desc.id.index() as u64);
        d.word(desc.size);
        d.str(&desc.label);
    }
    d.word(g.types().len() as u64);
    for ty in g.types() {
        d.str(&ty.name);
        d.word(u64::from(ty.cpu_impl) | u64::from(ty.gpu_impl) << 1);
    }
    d.word(g.task_count() as u64);
    d.word(g.edge_count() as u64);
    for t in g.tasks() {
        d.word(t.id.index() as u64);
        d.word(t.ttype.index() as u64);
        d.str(&t.label);
        d.word(t.flops.to_bits());
        d.word(t.user_priority as u64);
        d.words(t.accesses.iter().map(|a| {
            let mode = match a.mode {
                AccessMode::Read => 1,
                AccessMode::Write => 2,
                AccessMode::ReadWrite => 3,
            };
            (a.data.index() as u64) << 2 | mode
        }));
        d.words(g.preds(t.id).iter().map(|p| p.index() as u64));
        d.words(g.succs(t.id).iter().map(|s| s.index() as u64));
        match g.cache_meta(t.id) {
            None => d.word(0),
            Some(m) => {
                d.word(1);
                d.word(m.key);
                d.words(m.fingerprint.iter().copied());
                d.words(m.out_versions.iter().copied());
            }
        }
    }
    d.0
}

/// Compare computed digests with the pinned ones, printing the computed
/// list first when `GOLDEN_PRINT` is set.
fn assert_golden(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (name, d) in got {
            println!("    (\"{name}\", 0x{d:016x}),");
        }
    }
    let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let drift: Vec<String> = got
        .iter()
        .zip(&pinned)
        .filter(|(g, p)| g != p)
        .map(|(g, p)| format!("{}: got 0x{:016x}, pinned {} 0x{:016x}", g.0, g.1, p.0, p.1))
        .collect();
    assert_eq!(got.len(), pinned.len(), "one pinned digest per graph");
    assert!(drift.is_empty(), "digest drift:\n{}", drift.join("\n"));
}

fn fmm_name(c: &FmmConfig) -> String {
    let dist = match c.distribution {
        Distribution::Uniform => "u",
        Distribution::Clustered => "c",
    };
    format!(
        "fmm/{dist}/h{}/g{}/n{}/s{}",
        c.tree_height, c.group_size, c.particles, c.seed
    )
}

/// Small FMM configurations: both distributions, heights 3–6, and
/// group sizes that do (1, 16, 64) and do not (7, 20) divide the
/// occupied-cell counts.
fn fmm_configs() -> Vec<FmmConfig> {
    let shapes: [(usize, usize, &[usize]); 4] = [
        (3, 300, &[1, 7, 16]),
        (4, 2_000, &[1, 7, 16, 64]),
        (5, 6_000, &[7, 16, 64]),
        (6, 10_000, &[20, 64]),
    ];
    let mut out = Vec::new();
    for distribution in [Distribution::Uniform, Distribution::Clustered] {
        for &(tree_height, particles, groups) in &shapes {
            for &group_size in groups {
                out.push(FmmConfig {
                    particles,
                    tree_height,
                    group_size,
                    distribution,
                    seed: 11 + tree_height as u64,
                });
            }
        }
    }
    out
}

/// Recorded from the hash-map-based builder these digests guard.
const FMM_GOLDEN: &[(&str, u64)] = &[
    ("fmm/u/h3/g1/n300/s14", 0x6bbd5c2735bba30e),
    ("fmm/u/h3/g7/n300/s14", 0x030b3d83af86e4e3),
    ("fmm/u/h3/g16/n300/s14", 0xf16baecf7d8dc4bf),
    ("fmm/u/h4/g1/n2000/s15", 0xab51b7676f1093dc),
    ("fmm/u/h4/g7/n2000/s15", 0x5cae98cd674e141a),
    ("fmm/u/h4/g16/n2000/s15", 0xb8cee651323d4b2a),
    ("fmm/u/h4/g64/n2000/s15", 0x783e9da7c2adb302),
    ("fmm/u/h5/g7/n6000/s16", 0x9eda6d84bb08aa9c),
    ("fmm/u/h5/g16/n6000/s16", 0x9b4af8d2efd2b7d4),
    ("fmm/u/h5/g64/n6000/s16", 0x0bb0010d82f2f5d2),
    ("fmm/u/h6/g20/n10000/s17", 0x58f674a8bb6a2d00),
    ("fmm/u/h6/g64/n10000/s17", 0x4fbddf1ab7077c9f),
    ("fmm/c/h3/g1/n300/s14", 0x5c93480b27b00c3d),
    ("fmm/c/h3/g7/n300/s14", 0x042687b5a4d43672),
    ("fmm/c/h3/g16/n300/s14", 0xe1e62ae591f38598),
    ("fmm/c/h4/g1/n2000/s15", 0xcf8ca9bfa36771bd),
    ("fmm/c/h4/g7/n2000/s15", 0x6f2c1a1bbe23fd4e),
    ("fmm/c/h4/g16/n2000/s15", 0x34c79b5ee73fb550),
    ("fmm/c/h4/g64/n2000/s15", 0x77be6a343e719f21),
    ("fmm/c/h5/g7/n6000/s16", 0x77d1881044e17321),
    ("fmm/c/h5/g16/n6000/s16", 0x8a19156ed338e979),
    ("fmm/c/h5/g64/n6000/s16", 0x8037b8032d0399f2),
    ("fmm/c/h6/g20/n10000/s17", 0xbebb00e528afd475),
    ("fmm/c/h6/g64/n10000/s17", 0xc166b34049faf4b4),
];

#[test]
fn fmm_graphs_match_their_golden_digests() {
    let got: Vec<(String, u64)> = fmm_configs()
        .iter()
        .map(|c| {
            let w = fmm(*c);
            let mut d = Digest::new();
            d.word(graph_digest(&w.graph));
            d.word(w.total_flops.to_bits());
            d.word(w.stats.leaf_cells as u64);
            d.word(w.stats.groups as u64);
            d.word(w.stats.leaf_groups as u64);
            (fmm_name(c), d.0)
        })
        .collect();
    assert_golden(&got, FMM_GOLDEN);
}

const OTHER_GOLDEN: &[(&str, u64)] = &[
    ("sparse_qr/TF17", 0x05b2d81ed0cb5fad),
    ("sparse_qr/cat_ears_4_4", 0x2029577c137cd72f),
    ("dense/potrf/nt7", 0x9fc31e1ec56db798),
    ("dense/getrf/nt7", 0xf9d43f8840f094a2),
    ("dense/geqrf/nt7", 0xcbe9fe7fc3f20a1e),
];

#[test]
fn sparse_qr_and_dense_graphs_match_their_golden_digests() {
    let mut graphs: Vec<(String, TaskGraph, f64)> = Vec::new();
    for name in ["TF17", "cat_ears_4_4"] {
        let w = sparse_qr(matrix(name).unwrap(), SparseQrConfig::default());
        graphs.push((format!("sparse_qr/{name}"), w.graph, w.total_flops));
    }
    let cfg = DenseConfig::new(7 * 320, 320);
    let w = potrf(cfg);
    graphs.push(("dense/potrf/nt7".into(), w.graph, w.total_flops));
    let w = getrf(cfg);
    graphs.push(("dense/getrf/nt7".into(), w.graph, w.total_flops));
    let w = geqrf(cfg);
    graphs.push(("dense/geqrf/nt7".into(), w.graph, w.total_flops));

    let got: Vec<(String, u64)> = graphs
        .iter()
        .map(|(name, g, flops)| {
            let mut d = Digest::new();
            d.word(graph_digest(g));
            d.word(flops.to_bits());
            (name.clone(), d.0)
        })
        .collect();
    assert_golden(&got, OTHER_GOLDEN);
}
