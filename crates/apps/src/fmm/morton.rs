//! 3D Morton (Z-order) indexing for octree cells.

/// Interleave the low 10 bits of `x` into every third bit.
fn spread(x: u32) -> u64 {
    let mut v = u64::from(x) & 0x3ff; // 10 bits → levels up to 10
    v = (v | (v << 16)) & 0x0300_00FF;
    v = (v | (v << 8)) & 0x0300_F00F;
    v = (v | (v << 4)) & 0x030C_30C3;
    v = (v | (v << 2)) & 0x0924_9249;
    v
}

/// Morton index of the cell at integer coordinates `(x, y, z)`.
pub fn encode(x: u32, y: u32, z: u32) -> u64 {
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

fn compact(v: u64) -> u32 {
    let mut v = v & 0x0924_9249;
    v = (v | (v >> 2)) & 0x030C_30C3;
    v = (v | (v >> 4)) & 0x0300_F00F;
    v = (v | (v >> 8)) & 0x0300_00FF;
    v = (v | (v >> 16)) & 0x3ff;
    v as u32
}

/// Inverse of [`encode`].
pub fn decode(m: u64) -> (u32, u32, u32) {
    (compact(m), compact(m >> 1), compact(m >> 2))
}

/// Morton index of the parent cell (one octree level up).
pub fn parent(m: u64) -> u64 {
    m >> 3
}

/// The up-to-26 neighbor cells (plus optionally self) of a cell at a
/// level with `side` cells per dimension.
pub fn neighbors(m: u64, side: u32, include_self: bool) -> Vec<u64> {
    let mut out = Vec::with_capacity(27);
    neighbors_into(m, side, include_self, &mut out);
    out
}

/// [`neighbors`] into a reused buffer, which is cleared first.
pub fn neighbors_into(m: u64, side: u32, include_self: bool, out: &mut Vec<u64>) {
    out.clear();
    let (x, y, z) = decode(m);
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            for dz in -1i64..=1 {
                if dx == 0 && dy == 0 && dz == 0 && !include_self {
                    continue;
                }
                let (nx, ny, nz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                if (0..side as i64).contains(&nx)
                    && (0..side as i64).contains(&ny)
                    && (0..side as i64).contains(&nz)
                {
                    out.push(encode(nx as u32, ny as u32, nz as u32));
                }
            }
        }
    }
}

/// The M2L interaction list of a cell: children of the parent's neighbors
/// that are not neighbors of the cell itself (at most 189 entries).
pub fn interaction_list(m: u64, side: u32) -> Vec<u64> {
    let mut out = Vec::with_capacity(189);
    interaction_list_into(m, side, &mut out);
    out
}

/// [`interaction_list`] into a reused buffer, which is cleared first.
///
/// Entries come in the order of the parent's [`neighbors`] (self
/// included), eight children each. A child is near-field, and skipped,
/// when it is in bounds and within Chebyshev distance 1 of the cell —
/// exactly membership in `neighbors(m, side, true)`, tested on
/// coordinates instead of by search.
pub fn interaction_list_into(m: u64, side: u32, out: &mut Vec<u64>) {
    out.clear();
    let (x, y, z) = decode(m);
    let parent_side = i64::from((side / 2).max(1));
    let (px, py, pz) = decode(parent(m));
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            for dz in -1i64..=1 {
                let (qx, qy, qz) = (px as i64 + dx, py as i64 + dy, pz as i64 + dz);
                if !((0..parent_side).contains(&qx)
                    && (0..parent_side).contains(&qy)
                    && (0..parent_side).contains(&qz))
                {
                    continue;
                }
                let (qx, qy, qz) = (qx as u32, qy as u32, qz as u32);
                let pn = encode(qx, qy, qz);
                for child in 0..8u32 {
                    let (cx, cy, cz) = (
                        2 * qx + (child & 1),
                        2 * qy + (child >> 1 & 1),
                        2 * qz + (child >> 2),
                    );
                    let near = cx < side
                        && cy < side
                        && cz < side
                        && cx.abs_diff(x) <= 1
                        && cy.abs_diff(y) <= 1
                        && cz.abs_diff(z) <= 1;
                    if !near {
                        out.push((pn << 3) | u64::from(child));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for (x, y, z) in [(0, 0, 0), (1, 2, 3), (31, 7, 15), (1023, 1023, 1023)] {
            assert_eq!(decode(encode(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn parent_halves_coordinates() {
        let m = encode(6, 3, 5);
        assert_eq!(decode(parent(m)), (3, 1, 2));
    }

    #[test]
    fn morton_order_is_hierarchical() {
        // All 8 children of a cell are contiguous in Morton order.
        let p = encode(2, 1, 3);
        for c in 0..8u64 {
            assert_eq!(parent((p << 3) | c), p);
        }
    }

    #[test]
    fn corner_cell_has_7_neighbors() {
        let m = encode(0, 0, 0);
        assert_eq!(neighbors(m, 4, false).len(), 7);
        assert_eq!(neighbors(m, 4, true).len(), 8);
    }

    #[test]
    fn interior_cell_has_26_neighbors() {
        let m = encode(1, 1, 1);
        assert_eq!(neighbors(m, 4, false).len(), 26);
    }

    #[test]
    fn interaction_list_size_interior() {
        // For a deep interior cell: 27 parent-neighborhood cells × 8
        // children − 27 near cells = 189.
        let m = encode(4, 4, 4);
        assert_eq!(interaction_list(m, 16).len(), 189);
    }

    #[test]
    fn interaction_list_excludes_near_field() {
        let m = encode(4, 4, 4);
        let near = neighbors(m, 16, true);
        for c in interaction_list(m, 16) {
            assert!(!near.contains(&c));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Encode/decode round-trips for all 10-bit coordinates.
        #[test]
        fn prop_roundtrip(x in 0u32..1024, y in 0u32..1024, z in 0u32..1024) {
            prop_assert_eq!(decode(encode(x, y, z)), (x, y, z));
        }

        /// Every neighbor is within Chebyshev distance 1 and in bounds;
        /// neighborhood is symmetric.
        #[test]
        fn prop_neighbors_sound(x in 0u32..16, y in 0u32..16, z in 0u32..16) {
            let side = 16u32;
            let m = encode(x, y, z);
            for n in neighbors(m, side, false) {
                let (nx, ny, nz) = decode(n);
                prop_assert!(nx < side && ny < side && nz < side);
                let d = (nx as i64 - x as i64).abs()
                    .max((ny as i64 - y as i64).abs())
                    .max((nz as i64 - z as i64).abs());
                prop_assert_eq!(d, 1, "not adjacent: {:?}", (nx, ny, nz));
                prop_assert!(
                    neighbors(n, side, false).contains(&m),
                    "neighborhood must be symmetric"
                );
            }
        }

        /// Interaction lists never contain near-field cells, stay in
        /// bounds, and contain only cells whose parents neighbor ours.
        #[test]
        fn prop_interaction_list_sound(x in 0u32..16, y in 0u32..16, z in 0u32..16) {
            let side = 16u32;
            let m = encode(x, y, z);
            let near = neighbors(m, side, true);
            for c in interaction_list(m, side) {
                let (cx, cy, cz) = decode(c);
                prop_assert!(cx < side && cy < side && cz < side);
                prop_assert!(!near.contains(&c));
                let pd = {
                    let (px, py, pz) = decode(parent(m));
                    let (qx, qy, qz) = decode(parent(c));
                    (px as i64 - qx as i64).abs()
                        .max((py as i64 - qy as i64).abs())
                        .max((pz as i64 - qz as i64).abs())
                };
                prop_assert!(pd <= 1, "parents must be neighbors or equal");
            }
        }
    }
}
