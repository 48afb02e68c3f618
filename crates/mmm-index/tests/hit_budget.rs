//! Regression tests for the packed-hit bit budget.
//!
//! A hit is packed as `rid << 40 | pos << 1 | strand`, so reference ids have
//! 24 bits and positions 39. The old code packed whatever it was handed:
//! reference #2^24 silently wrapped into reference #0's hits and mismapped
//! every read seeding there. `MinimizerIndex::build` must refuse such sets
//! with a typed error instead.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_index::{check_hit_budget, IdxOpts, IndexError, MinimizerIndex, MAX_REF_SEQS};
use mmm_seq::SeqRecord;

/// A crafted reference set one past the 24-bit rid budget must fail loudly
/// at build time. The records are empty (no allocation per record), so the
/// only cost is the 2^24-entry vector itself; the count check runs before
/// any sketching, so the failure is immediate.
#[test]
fn over_budget_reference_set_fails_loudly() {
    let refs = vec![SeqRecord::new(String::new(), Vec::new()); MAX_REF_SEQS + 1];
    let err = match MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1) {
        Ok(_) => panic!("over-budget reference set built without error"),
        Err(e) => e,
    };
    assert!(matches!(err, IndexError::HitBudget { .. }), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("packed-hit") && msg.contains("rid budget"),
        "error must name the budget: {msg}"
    );
}

/// The largest set that still fits must build.
#[test]
fn budget_boundary_is_exact() {
    assert!(check_hit_budget(
        MAX_REF_SEQS,
        std::iter::repeat_n(("r", 1usize), MAX_REF_SEQS)
    )
    .is_ok());
    assert!(check_hit_budget(
        MAX_REF_SEQS + 1,
        std::iter::repeat_n(("r", 1usize), MAX_REF_SEQS + 1)
    )
    .is_err());
}

/// An in-budget multi-reference build still works and anchors resolve to
/// the correct reference (the behaviour the budget check protects).
#[test]
fn in_budget_multi_reference_build_maps_to_right_rid() {
    let mut state = 99u64;
    let mut genome = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect()
    };
    let g0 = genome(20_000);
    let g1 = genome(20_000);
    let refs = vec![
        SeqRecord::new("chrA", mmm_seq::nt4_decode(&g0)),
        SeqRecord::new("chrB", mmm_seq::nt4_decode(&g1)),
    ];
    let idx = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1).unwrap();
    let anchors = idx.collect_anchors(&g1[5_000..7_000]);
    assert!(!anchors.is_empty());
    let on_b = anchors.iter().filter(|a| a.rid == 1).count();
    assert!(
        on_b as f64 > 0.9 * anchors.len() as f64,
        "{on_b}/{} anchors on chrB",
        anchors.len()
    );
}
