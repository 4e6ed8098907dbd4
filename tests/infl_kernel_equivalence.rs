//! Equivalence tests for the batched, structure-aware influence kernels.
//!
//! The GEMM-backed `score_block`/`hvp_block` fast path (logistic
//! regression) and the generic per-sample fallback (MLP) must produce
//! the same rankings, suggested labels and Hessian-vector products as
//! the reference per-sample implementations — to ~1e-10 for the closed
//! form. The fixture is sized above every parallel grain, and the
//! pool-size tests run one entry point under a 1-worker and a 4-worker
//! scoped pool, so the threaded block dispatch is compared exactly with
//! the 1-worker loop.

use chef_core::{
    rank_infl_top_b, rank_infl_with_vector, rank_infl_with_vector_per_sample, InflScore,
};
use chef_linalg::{vector, Matrix, Workspace};
use chef_model::{
    Dataset, KernelPath, LogisticRegression, Mlp, Model, SoftLabel, WeightedObjective,
};
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

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
}

/// A non-degenerate parameter/influence-vector pair (no training needed:
/// the kernels must agree at *any* `w`, `v`).
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

fn assert_rankings_close(batched: &[InflScore], reference: &[InflScore], tol: f64) {
    assert_eq!(batched.len(), reference.len());
    for (b, r) in batched.iter().zip(reference) {
        assert_eq!(b.index, r.index, "ranking order diverged");
        assert_eq!(
            b.suggested, r.suggested,
            "suggested label diverged at {}",
            b.index
        );
        assert!(
            (b.score - r.score).abs() <= tol * (1.0 + r.score.abs()),
            "index {}: batched {} vs reference {}",
            b.index,
            b.score,
            r.score
        );
    }
}

#[test]
fn logreg_reports_gemm_kernel_and_mlp_falls_back() {
    let logreg = LogisticRegression::new(DIM, CLASSES);
    let mlp = Mlp::new(DIM, 4, CLASSES);
    assert_eq!(logreg.scoring_kernel(), KernelPath::Gemm);
    assert_eq!(mlp.scoring_kernel(), KernelPath::PerSample);
    assert_eq!(KernelPath::Gemm.name(), "gemm");
    assert_eq!(KernelPath::PerSample.name(), "per_sample");
}

#[test]
fn logreg_batched_ranking_matches_per_sample_reference() {
    let data = fixture(11);
    let model = LogisticRegression::new(DIM, CLASSES);
    let (w, v) = w_and_v(&model, 12);
    let pool = data.uncleaned_indices();
    let batched = rank_infl_with_vector(&model, &data, &w, &v, &pool, GAMMA);
    let reference = rank_infl_with_vector_per_sample(&model, &data, &w, &v, &pool, GAMMA);
    assert_rankings_close(&batched, &reference, 1e-10);
}

#[test]
fn logreg_batched_parallel_and_serial_are_bit_identical() {
    let data = fixture(13);
    let model = LogisticRegression::new(DIM, CLASSES);
    let (w, v) = w_and_v(&model, 14);
    let candidates = data.uncleaned_indices();
    let rank = |threads| {
        pool(threads).install(|| rank_infl_with_vector(&model, &data, &w, &v, &candidates, GAMMA))
    };
    let (dispatched, serial) = (rank(4), rank(1));
    assert_eq!(dispatched.len(), serial.len());
    for (a, b) in dispatched.iter().zip(&serial) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.suggested, b.suggested);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}

#[test]
fn gamma_one_drops_upweight_term_in_batched_path() {
    // With γ = 1 the (1−γ) label-gradient term must vanish from the
    // batched scores exactly as it does from the per-sample path.
    let data = fixture(15);
    let model = LogisticRegression::new(DIM, CLASSES);
    let (w, v) = w_and_v(&model, 16);
    let pool = data.uncleaned_indices();
    let batched = rank_infl_with_vector(&model, &data, &w, &v, &pool, 1.0);
    let reference = rank_infl_with_vector_per_sample(&model, &data, &w, &v, &pool, 1.0);
    assert_rankings_close(&batched, &reference, 1e-10);
}

#[test]
fn mlp_fallback_ranking_matches_per_sample_reference() {
    let data = fixture(17);
    let model = Mlp::new(DIM, 4, CLASSES);
    let (w, v) = w_and_v(&model, 18);
    let pool = data.uncleaned_indices();
    let batched = rank_infl_with_vector(&model, &data, &w, &v, &pool, GAMMA);
    let reference = rank_infl_with_vector_per_sample(&model, &data, &w, &v, &pool, GAMMA);
    // The fallback routes through the same per-sample gradients, so the
    // agreement is exact up to summation order (identical here).
    assert_rankings_close(&batched, &reference, 1e-12);
}

#[test]
fn top_b_selection_equals_full_sort_prefix() {
    let data = fixture(19);
    let model = LogisticRegression::new(DIM, CLASSES);
    let (w, v) = w_and_v(&model, 20);
    let pool = data.uncleaned_indices();
    let full = rank_infl_with_vector(&model, &data, &w, &v, &pool, GAMMA);
    for b in [0, 1, 7, 128, N, N + 5] {
        let top = rank_infl_top_b(&model, &data, &w, &v, &pool, GAMMA, b);
        assert_eq!(top.len(), b.min(N), "b = {b}");
        for (t, f) in top.iter().zip(&full) {
            assert_eq!(t.index, f.index, "b = {b}");
            assert_eq!(t.suggested, f.suggested);
            assert_eq!(t.score.to_bits(), f.score.to_bits());
        }
    }
}

/// Reference HVP: the allocating per-sample loop `batch_hvp` replaced.
fn reference_batch_hvp(
    model: &dyn Model,
    obj: &WeightedObjective,
    data: &Dataset,
    batch: &[usize],
    w: &[f64],
    v: &[f64],
) -> Vec<f64> {
    let m = model.num_params();
    let mut out = vec![0.0; m];
    let mut h = vec![0.0; m];
    for &i in batch {
        model.hvp(w, data.feature(i), data.label(i), v, &mut h);
        vector::axpy(data.weight(i, obj.gamma), &h, &mut out);
    }
    if !batch.is_empty() {
        vector::scale(1.0 / batch.len() as f64, &mut out);
    }
    vector::axpy(obj.l2, v, &mut out);
    out
}

#[test]
fn logreg_blocked_hvp_matches_per_sample_reference() {
    let data = fixture(21);
    let model = LogisticRegression::new(DIM, CLASSES);
    let obj = WeightedObjective::new(GAMMA, 0.05);
    let (w, v) = w_and_v(&model, 22);
    let batch: Vec<usize> = (0..N).collect();
    let hvp = |threads| {
        let mut out = vec![0.0; model.num_params()];
        pool(threads).install(|| obj.batch_hvp(&model, &data, &batch, &w, &v, &mut out));
        out
    };
    let got = hvp(4);
    let want = reference_batch_hvp(&model, &obj, &data, &batch, &w, &v);
    for (g, r) in got.iter().zip(&want) {
        assert!((g - r).abs() <= 1e-10 * (1.0 + r.abs()), "{g} vs {r}");
    }
    // One worker sums the same chunks in the same order: exact.
    let serial = hvp(1);
    let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&serial));
}

#[test]
fn mlp_blocked_hvp_matches_per_sample_reference() {
    let data = fixture(23);
    let model = Mlp::new(DIM, 4, CLASSES);
    let obj = WeightedObjective::new(GAMMA, 0.05);
    let (w, v) = w_and_v(&model, 24);
    let batch: Vec<usize> = (0..N).collect();
    let mut got = vec![0.0; model.num_params()];
    obj.batch_hvp(&model, &data, &batch, &w, &v, &mut got);
    let want = reference_batch_hvp(&model, &obj, &data, &batch, &w, &v);
    for (g, r) in got.iter().zip(&want) {
        assert!((g - r).abs() <= 1e-10 * (1.0 + r.abs()), "{g} vs {r}");
    }
}

#[test]
fn raw_score_block_contract_holds_for_both_models() {
    // The trait contract: class_dots[r*C + c] = vᵀ∇_w(−log p⁽ᶜ⁾),
    // label_dots[r] = vᵀ∇_wF — checked against direct gradient dots.
    let data = fixture(25);
    let models: [(&dyn Model, KernelPath, f64); 2] = [
        (
            &LogisticRegression::new(DIM, CLASSES),
            KernelPath::Gemm,
            1e-10,
        ),
        (&Mlp::new(DIM, 4, CLASSES), KernelPath::PerSample, 1e-12),
    ];
    for (model, expect_path, tol) in models {
        let (w, v) = w_and_v(model, 26);
        let block: Vec<usize> = (0..64).map(|r| r * 9 % N).collect();
        let mut class_dots = vec![0.0; block.len() * CLASSES];
        let mut label_dots = vec![0.0; block.len()];
        let mut ws = Workspace::new();
        let path = model.score_block(
            &w,
            &data,
            &block,
            &v,
            &mut class_dots,
            &mut label_dots,
            &mut ws,
        );
        assert_eq!(path, expect_path);
        let mut g = vec![0.0; model.num_params()];
        for (r, &i) in block.iter().enumerate() {
            for c in 0..CLASSES {
                model.class_grad(&w, data.feature(i), c, &mut g);
                let want = vector::dot(&v, &g);
                let got = class_dots[r * CLASSES + c];
                assert!(
                    (got - want).abs() <= tol * (1.0 + want.abs()),
                    "class dot {i}/{c}: {got} vs {want}"
                );
            }
            model.grad(&w, data.feature(i), data.label(i), &mut g);
            let want = vector::dot(&v, &g);
            assert!(
                (label_dots[r] - want).abs() <= tol * (1.0 + want.abs()),
                "label dot {i}: {} vs {want}",
                label_dots[r]
            );
        }
    }
}
