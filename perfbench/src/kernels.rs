//! The benchmark's own deterministic kernels for the threaded workloads.
//!
//! Tile Cholesky on small `B × B` tiles (row-major, lower triangle) plus
//! a fixed amount of extra arithmetic that brings each task to a few µs,
//! with the "GPU" variant doing less of it (a faster device). Both
//! variants write bit-identical outputs, so buffer digests do not depend
//! on which worker ran a task. [`reference_digest`] replays the same
//! kernels sequentially in submission order: under STF every handle sees
//! the same sequence of writes, so any correct schedule ends with this
//! digest.

use std::hint::black_box;
use std::sync::Arc;

use mp_dag::{AccessMode, DataId, TaskGraph};
use mp_perfmodel::TableModel;
use mp_platform::presets::simple;
use mp_runtime::Runtime;

/// Tile side.
pub const B: usize = 8;

/// Extra-work iterations per task on a CPU worker.
pub const CPU_SPIN: u32 = 1200;
/// Extra-work iterations per task on a "GPU" worker.
pub const GPU_SPIN: u32 = 400;

/// Fixed extra arithmetic that stands in for a longer kernel body; its
/// result is discarded, so outputs do not depend on it.
pub fn spin(iters: u32) {
    let mut x = 1.0f64;
    for _ in 0..iters {
        x = black_box(x * 0.999_999_9 + 1e-9);
    }
    black_box(x);
}

/// The four tile kernels of `mp_apps::dense::potrf`, by type name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileOp {
    /// Factor a diagonal tile in place.
    Potrf,
    /// `A_ik ← A_ik L_kk⁻ᵀ`.
    Trsm,
    /// `A_ii ← A_ii − A_ik A_ikᵀ`.
    Syrk,
    /// `A_ij ← A_ij − A_ik A_jkᵀ`.
    Gemm,
}

impl TileOp {
    /// The op of a `potrf` task type.
    pub fn from_type(name: &str) -> Self {
        match name {
            "POTRF" => TileOp::Potrf,
            "TRSM" => TileOp::Trsm,
            "SYRK" => TileOp::Syrk,
            "GEMM" => TileOp::Gemm,
            other => panic!("not a potrf kernel: {other}"),
        }
    }

    /// Apply the op: `ins` are the read tiles, `out` the written one, in
    /// the access order of the generator.
    pub fn apply(self, ins: &[&[f64]], out: &mut [f64]) {
        match self {
            TileOp::Potrf => {
                for j in 0..B {
                    let mut d = out[j * B + j];
                    for k in 0..j {
                        d -= out[j * B + k] * out[j * B + k];
                    }
                    let d = d.sqrt();
                    out[j * B + j] = d;
                    for i in j + 1..B {
                        let mut s = out[i * B + j];
                        for k in 0..j {
                            s -= out[i * B + k] * out[j * B + k];
                        }
                        out[i * B + j] = s / d;
                    }
                }
            }
            TileOp::Trsm => {
                let l = ins[0];
                for r in 0..B {
                    for j in 0..B {
                        let mut s = out[r * B + j];
                        for k in 0..j {
                            s -= out[r * B + k] * l[j * B + k];
                        }
                        out[r * B + j] = s / l[j * B + j];
                    }
                }
            }
            TileOp::Syrk => {
                let a = ins[0];
                for i in 0..B {
                    for j in 0..B {
                        let mut s = 0.0;
                        for k in 0..B {
                            s += a[i * B + k] * a[j * B + k];
                        }
                        out[i * B + j] -= s;
                    }
                }
            }
            TileOp::Gemm => {
                let (a, b) = (ins[0], ins[1]);
                for i in 0..B {
                    for j in 0..B {
                        let mut s = 0.0;
                        for k in 0..B {
                            s += a[i * B + k] * b[j * B + k];
                        }
                        out[i * B + j] -= s;
                    }
                }
            }
        }
    }
}

/// splitmix64 step, the suite's seeding idiom.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial contents of tile `d` of an SPD matrix of `nt × nt` tiles:
/// small seeded entries, symmetric within diagonal tiles (`diag`), plus
/// a dominant diagonal there.
pub fn initial_tile(seed: u64, d: usize, diag: bool, nt: usize) -> Vec<f64> {
    let mut v = vec![0.0; B * B];
    for i in 0..B {
        for j in 0..B {
            let (r, c) = if diag && j > i { (j, i) } else { (i, j) };
            let h = splitmix(seed ^ ((d as u64) << 20) ^ ((r * B + c) as u64));
            v[i * B + j] = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        if diag {
            v[i * B + i] += (nt * B) as f64;
        }
    }
    v
}

/// Execute every task of `graph` in submission order on `buffers` and
/// return the final digest, as `Runtime::buffers_digest` computes it
/// over the same buffers registered in a fresh runtime.
pub fn reference_digest(graph: &TaskGraph, mut buffers: Vec<Vec<f64>>) -> u64 {
    for task in graph.tasks() {
        let op = TileOp::from_type(&graph.task_type(task.ttype).name);
        let out_id = task
            .accesses
            .iter()
            .find(|a| a.mode != AccessMode::Read)
            .expect("every potrf task writes one tile")
            .data;
        let mut out = std::mem::take(&mut buffers[out_id.index()]);
        let ins: Vec<&[f64]> = task
            .accesses
            .iter()
            .filter(|a| a.mode == AccessMode::Read)
            .map(|a| buffers[a.data.index()].as_slice())
            .collect();
        op.apply(&ins, &mut out);
        buffers[out_id.index()] = out;
    }
    let mut rt = Runtime::new(simple(1, 1), Arc::new(TableModel::builder().build()));
    for (d, tile) in buffers.into_iter().enumerate() {
        rt.register(tile, &graph.data_desc(DataId::from_index(d)).label);
    }
    rt.buffers_digest()
}
