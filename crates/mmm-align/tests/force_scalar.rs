//! End-to-end check of the `MMM_DISABLE_SIMD` environment override: with
//! every SIMD tier disabled, dispatch must settle on the scalar kernels and
//! produce output identical to the scalar reference.
//!
//! The override is read once per process, so this binary holds exactly one
//! test: it sets the variable before the first dispatch and every assertion
//! runs against that state. (Per-tier fallback order is covered
//! env-independently by `dispatch::tests` via explicit `DisabledTiers`
//! masks.)
#![cfg(not(miri))]

use mmm_align::{best_engine, best_mm2_engine, Engine, Layout, Scoring, Width};

#[test]
fn env_override_forces_scalar_with_identical_output() {
    std::env::set_var("MMM_DISABLE_SIMD", "sse,avx2,avx512");

    for w in [Width::Sse, Width::Avx2, Width::Avx512] {
        assert!(!w.is_available(), "{w:?} should be masked off by the env");
    }
    assert!(Width::Scalar.is_available());
    assert_eq!(best_engine(), Engine::new(Layout::Manymap, Width::Scalar));
    assert_eq!(best_mm2_engine(), Engine::new(Layout::Mm2, Width::Scalar));

    // The forced-scalar mapper default produces exactly the scalar result.
    let t = mmm_seq::to_nt4(b"ACGTTTACGGGACTACGTTACGACTAGCATCAGT");
    let q = mmm_seq::to_nt4(b"ACGTTACGGGCACTAGTTAGACTAGCTCAGT");
    let sc = Scoring::MAP_ONT;
    let gold = mmm_align::scalar::align_manymap(&t, &q, &sc, true);
    assert_eq!(best_engine().align(&t, &q, &sc, true), gold);
}
