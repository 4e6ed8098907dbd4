//! Equivalence tests for the [`KernelBackend`] precision/ILP variants.
//!
//! The numerics contract (DESIGN.md §14) pinned here, at every rayon
//! pool size:
//!
//! * `Reference` **is** the pre-backend code path — `new()` defaults to
//!   it, so every older golden/equivalence suite keeps pinning it.
//! * `UnrolledF64` is deterministic, serial/parallel bit-identical, and
//!   agrees with `Reference` to ≤1e-10 relative — bit-identically on
//!   `grad_block`, where `Reference` already runs the unrolled forward
//!   panel.
//! * `MixedF32` is deterministic and agrees with `Reference` to ≤1e-4
//!   relative on rankings, gradients and HVPs.

use chef_core::{rank_infl_top_b, rank_infl_with_vector, rank_infl_with_vector_serial, InflScore};
use chef_linalg::{Matrix, Workspace};
use chef_model::{Dataset, KernelBackend, KernelPath, LogisticRegression, Model, SoftLabel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 600;
const DIM: usize = 7;
const CLASSES: usize = 3;
const GAMMA: f64 = 0.8;

/// Multiclass weak-label fixture large enough to cross the parallel
/// scoring grain (128) and several `SCORE_BLOCK` boundaries.
fn fixture(seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut raw = Vec::with_capacity(N * DIM);
    let mut labels = Vec::with_capacity(N);
    let mut truth = Vec::with_capacity(N);
    for i in 0..N {
        let c = i % CLASSES;
        for d in 0..DIM {
            let center = if d % CLASSES == c { 1.5 } else { -0.5 };
            raw.push(center + rng.gen_range(-1.0..1.0));
        }
        let mut probs = vec![0.0; CLASSES];
        let conf = rng.gen_range(0.5..0.9);
        for (k, p) in probs.iter_mut().enumerate() {
            *p = if k == c {
                conf
            } else {
                (1.0 - conf) / (CLASSES - 1) as f64
            };
        }
        labels.push(SoftLabel::new(probs));
        truth.push(Some(c));
    }
    Dataset::new(
        Matrix::from_vec(N, DIM, raw),
        labels,
        vec![false; N],
        truth,
        CLASSES,
    )
}

/// A non-degenerate parameter/influence-vector pair (no training needed:
/// the backends must agree at *any* `w`, `v`).
fn w_and_v(model: &dyn Model, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w: Vec<f64> = (0..model.num_params())
        .map(|_| rng.gen_range(-0.5..0.5))
        .collect();
    let v: Vec<f64> = (0..model.num_params())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    (w, v)
}

fn assert_rankings_close(got: &[InflScore], reference: &[InflScore], tol: f64) {
    assert_eq!(got.len(), reference.len());
    for (g, r) in got.iter().zip(reference) {
        assert_eq!(g.index, r.index, "ranking order diverged");
        assert_eq!(
            g.suggested, r.suggested,
            "suggested label diverged at {}",
            g.index
        );
        assert!(
            (g.score - r.score).abs() <= tol * (1.0 + r.score.abs()),
            "index {}: {} vs reference {}",
            g.index,
            g.score,
            r.score
        );
    }
}

fn grad_of(model: &LogisticRegression, data: &Dataset, batch: &[usize], w: &[f64]) -> Vec<f64> {
    let mut ws = Workspace::new();
    let mut out = vec![0.0; model.num_params()];
    let path = model.grad_block(w, data, batch, GAMMA, &mut out, &mut ws);
    assert_eq!(path, KernelPath::Gemm);
    out
}

fn hvp_of(
    model: &LogisticRegression,
    data: &Dataset,
    batch: &[usize],
    w: &[f64],
    v: &[f64],
) -> Vec<f64> {
    let mut ws = Workspace::new();
    let mut out = vec![0.0; model.num_params()];
    let path = model.hvp_block(w, data, batch, GAMMA, v, &mut out, &mut ws);
    assert_eq!(path, KernelPath::Gemm);
    out
}

#[test]
fn backends_report_their_names_and_default_is_reference() {
    let model = LogisticRegression::new(DIM, CLASSES);
    assert_eq!(model.kernel_backend(), KernelBackend::Reference);
    for backend in KernelBackend::ALL {
        let m = LogisticRegression::new(DIM, CLASSES).with_backend(backend);
        assert_eq!(m.kernel_backend(), backend);
        assert_eq!(m.scoring_kernel(), KernelPath::Gemm);
    }
    assert_eq!(KernelBackend::Reference.name(), "reference");
    assert_eq!(KernelBackend::UnrolledF64.name(), "unrolled_f64");
    assert_eq!(KernelBackend::MixedF32.name(), "mixed_f32");
}

#[test]
fn unrolled_ranking_matches_reference_to_tolerance() {
    let data = fixture(31);
    let reference = LogisticRegression::new(DIM, CLASSES);
    let unrolled = LogisticRegression::new(DIM, CLASSES).with_backend(KernelBackend::UnrolledF64);
    let (w, v) = w_and_v(&reference, 32);
    let pool = data.uncleaned_indices();
    let want = rank_infl_with_vector(&reference, &data, &w, &v, &pool, GAMMA);
    let got = rank_infl_with_vector(&unrolled, &data, &w, &v, &pool, GAMMA);
    assert_rankings_close(&got, &want, 1e-10);
}

#[test]
fn unrolled_ranking_is_deterministic_and_serial_parallel_bit_identical() {
    let data = fixture(33);
    let model = LogisticRegression::new(DIM, CLASSES).with_backend(KernelBackend::UnrolledF64);
    let (w, v) = w_and_v(&model, 34);
    let pool = data.uncleaned_indices();
    let first = rank_infl_with_vector(&model, &data, &w, &v, &pool, GAMMA);
    let again = rank_infl_with_vector(&model, &data, &w, &v, &pool, GAMMA);
    let serial = rank_infl_with_vector_serial(&model, &data, &w, &v, &pool, GAMMA);
    for (a, b) in first.iter().zip(&again).chain(first.iter().zip(&serial)) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.suggested, b.suggested);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}

#[test]
fn unrolled_grad_block_is_bit_identical_to_reference() {
    // Reference's grad_block forward panel already runs the unrolled
    // kernel, so UnrolledF64 must agree bit-for-bit there.
    let data = fixture(35);
    let reference = LogisticRegression::new(DIM, CLASSES);
    let unrolled = LogisticRegression::new(DIM, CLASSES).with_backend(KernelBackend::UnrolledF64);
    let (w, _) = w_and_v(&reference, 36);
    let batch: Vec<usize> = (0..N).collect();
    let want = grad_of(&reference, &data, &batch, &w);
    let got = grad_of(&unrolled, &data, &batch, &w);
    for (g, r) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), r.to_bits());
    }
}

#[test]
fn unrolled_hvp_block_matches_reference_to_tolerance() {
    let data = fixture(37);
    let reference = LogisticRegression::new(DIM, CLASSES);
    let unrolled = LogisticRegression::new(DIM, CLASSES).with_backend(KernelBackend::UnrolledF64);
    let (w, v) = w_and_v(&reference, 38);
    let batch: Vec<usize> = (0..N).collect();
    let want = hvp_of(&reference, &data, &batch, &w, &v);
    let got = hvp_of(&unrolled, &data, &batch, &w, &v);
    for (g, r) in got.iter().zip(&want) {
        assert!((g - r).abs() <= 1e-10 * (1.0 + r.abs()), "{g} vs {r}");
    }
}

#[test]
fn mixed_f32_ranking_matches_reference_within_documented_tolerance() {
    let data = fixture(41);
    let reference = LogisticRegression::new(DIM, CLASSES);
    let mixed = LogisticRegression::new(DIM, CLASSES).with_backend(KernelBackend::MixedF32);
    let (w, v) = w_and_v(&reference, 42);
    let pool = data.uncleaned_indices();
    let want = rank_infl_with_vector(&reference, &data, &w, &v, &pool, GAMMA);
    let got = rank_infl_with_vector(&mixed, &data, &w, &v, &pool, GAMMA);
    // Scores must agree to the documented ≤1e-4; near-ties may swap
    // ranks, so compare scores by index rather than by rank position.
    assert_eq!(got.len(), want.len());
    let mut by_index: Vec<Option<f64>> = vec![None; N];
    for s in &want {
        by_index[s.index] = Some(s.score);
    }
    for s in &got {
        let r = by_index[s.index].expect("index sets diverged");
        assert!(
            (s.score - r).abs() <= 1e-4 * (1.0 + r.abs()),
            "index {}: mixed {} vs reference {}",
            s.index,
            s.score,
            r
        );
    }
}

#[test]
fn mixed_f32_ranking_is_deterministic_and_serial_parallel_bit_identical() {
    let data = fixture(43);
    let model = LogisticRegression::new(DIM, CLASSES).with_backend(KernelBackend::MixedF32);
    let (w, v) = w_and_v(&model, 44);
    let pool = data.uncleaned_indices();
    let first = rank_infl_with_vector(&model, &data, &w, &v, &pool, GAMMA);
    let again = rank_infl_with_vector(&model, &data, &w, &v, &pool, GAMMA);
    let serial = rank_infl_with_vector_serial(&model, &data, &w, &v, &pool, GAMMA);
    for (a, b) in first.iter().zip(&again).chain(first.iter().zip(&serial)) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.suggested, b.suggested);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    // Top-b selection is the exact prefix on this backend too.
    for b in [1, 17, 256] {
        let top = rank_infl_top_b(&model, &data, &w, &v, &pool, GAMMA, b);
        for (t, f) in top.iter().zip(&first) {
            assert_eq!(t.index, f.index);
            assert_eq!(t.score.to_bits(), f.score.to_bits());
        }
    }
}

#[test]
fn mixed_f32_grad_and_hvp_match_reference_within_tolerance() {
    let data = fixture(45);
    let reference = LogisticRegression::new(DIM, CLASSES);
    let mixed = LogisticRegression::new(DIM, CLASSES).with_backend(KernelBackend::MixedF32);
    let (w, v) = w_and_v(&reference, 46);
    let batch: Vec<usize> = (0..N).collect();
    let want_g = grad_of(&reference, &data, &batch, &w);
    let got_g = grad_of(&mixed, &data, &batch, &w);
    // The summed batch gradient scales with |batch|; compare per-sample
    // magnitudes against the documented ≤1e-4 relative contract.
    let scale = batch.len() as f64;
    for (g, r) in got_g.iter().zip(&want_g) {
        assert!(
            (g - r).abs() <= 1e-4 * (scale + r.abs()),
            "grad: {g} vs {r}"
        );
    }
    let want_h = hvp_of(&reference, &data, &batch, &w, &v);
    let got_h = hvp_of(&mixed, &data, &batch, &w, &v);
    for (g, r) in got_h.iter().zip(&want_h) {
        assert!((g - r).abs() <= 1e-4 * (scale + r.abs()), "hvp: {g} vs {r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: on random parameter/vector draws every backend's
    /// score_block agrees with Reference within its documented
    /// tolerance, and UnrolledF64 twice in a row is bit-stable.
    #[test]
    fn prop_backend_score_blocks_agree(seed in 0u64..500) {
        let data = fixture(seed);
        let reference = LogisticRegression::new(DIM, CLASSES);
        let (w, v) = w_and_v(&reference, seed ^ 0x5eed);
        let block: Vec<usize> = (0..96).map(|r| (r * 13 + seed as usize) % N).collect();
        let run = |m: &LogisticRegression| {
            let mut class_dots = vec![0.0; block.len() * CLASSES];
            let mut label_dots = vec![0.0; block.len()];
            let mut ws = Workspace::new();
            m.score_block(&w, &data, &block, &v, &mut class_dots, &mut label_dots, &mut ws);
            (class_dots, label_dots)
        };
        let (ref_cd, ref_ld) = run(&reference);
        for (backend, tol) in [(KernelBackend::UnrolledF64, 1e-10), (KernelBackend::MixedF32, 1e-4)] {
            let m = LogisticRegression::new(DIM, CLASSES).with_backend(backend);
            let (cd, ld) = run(&m);
            let (cd2, ld2) = run(&m);
            for (a, b) in cd.iter().zip(&cd2).chain(ld.iter().zip(&ld2)) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} not deterministic", backend.name());
            }
            for (g, r) in cd.iter().zip(&ref_cd).chain(ld.iter().zip(&ref_ld)) {
                prop_assert!(
                    (g - r).abs() <= tol * (1.0 + r.abs()),
                    "{}: {} vs {}", backend.name(), g, r
                );
            }
        }
    }
}
