//! Differential test of the FMM interaction list: the coordinate-test
//! implementation in `mp_apps::fmm::morton` must emit exactly the
//! entries, in exactly the order, of the original near-field
//! membership scan kept below.

use mp_apps::fmm::morton::{interaction_list, interaction_list_into, neighbors, parent};

/// The original definition: children of the parent's neighbors (parent
/// included) that are not in the cell's own 27-neighborhood.
fn interaction_list_by_membership(m: u64, side: u32) -> Vec<u64> {
    let parent_side = (side / 2).max(1);
    let near: Vec<u64> = neighbors(m, side, true);
    let mut out = Vec::with_capacity(189);
    for pn in neighbors(parent(m), parent_side, true) {
        for child in 0..8u64 {
            let c = (pn << 3) | child;
            if !near.contains(&c) {
                out.push(c);
            }
        }
    }
    out
}

#[test]
fn interaction_list_matches_the_membership_scan_on_every_cell_of_levels_2_to_6() {
    let mut buf = Vec::new();
    for level in 2..=6u32 {
        let side = 1u32 << level;
        let cells = 1u64 << (3 * level);
        for m in 0..cells {
            let want = interaction_list_by_membership(m, side);
            assert_eq!(interaction_list(m, side), want, "level {level} cell {m}");
            // The buffer variant replaces, never appends to, the buffer.
            interaction_list_into(m, side, &mut buf);
            assert_eq!(buf, want, "level {level} cell {m} (_into)");
        }
    }
}
