//! Equivalence tests for the batched training/replay engine.
//!
//! Three guarantees from DESIGN.md §13 are pinned here:
//!
//! 1. the GEMM-backed `grad_block` (logistic regression) and the generic
//!    per-sample fallback (MLP) agree with a reference per-sample
//!    weighted gradient sum to ≤1e-10;
//! 2. the full SGD trajectory through `WeightedObjective::batch_grad` is
//!    *bit-identical* under a 1-worker and a 4-worker scoped pool —
//!    every cached `w_t` and `∇F(w_t, B_t)`;
//! 3. the flat `TraceStore` provenance arena replays through
//!    DeltaGrad-L exactly as the old per-iteration `Vec<Vec<f64>>`
//!    clones did: rows match a reference nested-vector capture bitwise,
//!    and a trace rebuilt from that nested capture produces a bitwise
//!    identical DeltaGrad outcome.

use chef_linalg::{vector, Matrix, Workspace};
use chef_model::{
    Dataset, KernelPath, LogisticRegression, Mlp, Model, SoftLabel, WeightedObjective,
};
use chef_train::{
    deltagrad_update, train, BatchPlan, DeltaGradConfig, SgdConfig, TraceStore, TrainTrace,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 1200;
const DIM: usize = 6;
const CLASSES: usize = 3;
const GAMMA: f64 = 0.8;

/// Multiclass weak-label fixture large enough that full-dataset batches
/// cross the parallel gradient grain (512) and several `GRAD_BLOCK`
/// boundaries.
fn fixture(seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut raw = Vec::with_capacity(N * DIM);
    let mut labels = Vec::with_capacity(N);
    let mut truth = Vec::with_capacity(N);
    for i in 0..N {
        let c = i % CLASSES;
        for d in 0..DIM {
            let center = if d % CLASSES == c { 1.2 } else { -0.4 };
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

fn random_w(model: &dyn Model, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..model.num_params())
        .map(|_| rng.gen_range(-0.5..0.5))
        .collect()
}

/// Reference minibatch gradient: the per-sample `grad_ws` loop that
/// `grad_block` replaced, summed in batch order — exactly the default
/// trait implementation.
fn reference_weighted_grad_sum(
    model: &dyn Model,
    data: &Dataset,
    batch: &[usize],
    gamma: f64,
    w: &[f64],
) -> Vec<f64> {
    let m = model.num_params();
    let mut out = vec![0.0; m];
    let mut g = vec![0.0; m];
    let mut ws = Workspace::new();
    for &i in batch {
        model.grad_ws(w, data.feature(i), data.label(i), &mut g, &mut ws);
        vector::axpy(data.weight(i, gamma), &g, &mut out);
    }
    out
}

#[test]
fn logreg_grad_block_matches_per_sample_reference() {
    let data = fixture(31);
    let model = LogisticRegression::new(DIM, CLASSES);
    let w = random_w(&model, 32);
    let mut ws = Workspace::new();
    // Consecutive (borrowed feature rows) and strided (gathered) batches.
    let consecutive: Vec<usize> = (100..100 + 700).collect();
    let strided: Vec<usize> = (0..700).map(|r| r * 7 % N).collect();
    for batch in [&consecutive, &strided] {
        let mut got = vec![0.0; model.num_params()];
        let path = model.grad_block(&w, &data, batch, GAMMA, &mut got, &mut ws);
        assert_eq!(path, KernelPath::Gemm);
        let want = reference_weighted_grad_sum(&model, &data, batch, GAMMA, &w);
        for (g, r) in got.iter().zip(&want) {
            assert!((g - r).abs() <= 1e-10 * (1.0 + r.abs()), "{g} vs {r}");
        }
    }
}

#[test]
fn mlp_grad_block_falls_back_to_per_sample_loop() {
    let data = fixture(33);
    let model = Mlp::new(DIM, 4, CLASSES);
    let w = random_w(&model, 34);
    let mut ws = Workspace::new();
    let batch: Vec<usize> = (0..600).map(|r| r * 11 % N).collect();
    let mut got = vec![0.0; model.num_params()];
    let path = model.grad_block(&w, &data, &batch, GAMMA, &mut got, &mut ws);
    assert_eq!(path, KernelPath::PerSample);
    // The fallback *is* the per-sample loop, so agreement is exact.
    let want = reference_weighted_grad_sum(&model, &data, &batch, GAMMA, &w);
    assert_eq!(got, want);
}

#[test]
fn batch_grad_dispatch_is_bit_identical_to_serial_twin() {
    let data = fixture(35);
    let model = LogisticRegression::new(DIM, CLASSES);
    let obj = WeightedObjective::new(GAMMA, 0.03);
    let w = random_w(&model, 36);
    for n in [64, 511, 512, 1024, N] {
        let batch: Vec<usize> = (0..n).collect();
        let grad = |threads| {
            let mut out = vec![0.0; model.num_params()];
            pool(threads).install(|| obj.batch_grad(&model, &data, &batch, &w, &mut out));
            out
        };
        assert_eq!(grad(4), grad(1), "batch len {n}");
    }
}

#[test]
fn sgd_trajectory_is_bit_identical_to_serial_replay() {
    // `train` on a 4-worker pool fans `batch_grad` out; a hand-rolled
    // loop on a 1-worker pool must reproduce every iterate exactly,
    // including with batches above the parallel grain.
    let data = fixture(37);
    let model = LogisticRegression::new(DIM, CLASSES);
    let obj = WeightedObjective::new(GAMMA, 0.02);
    let cfg = SgdConfig {
        lr: 0.1,
        epochs: 3,
        batch_size: 600,
        seed: 9,
        cache_provenance: true,
    };
    let out = pool(4).install(|| train(&model, &obj, &data, &model.init_params(), &cfg));
    let trace = out.trace.unwrap();

    let plan = BatchPlan::new(data.len(), cfg.batch_size, cfg.epochs, cfg.seed);
    let mut w = model.init_params();
    let mut g = vec![0.0; model.num_params()];
    pool(1).install(|| {
        for (t, batch) in plan.iter() {
            obj.batch_grad(&model, &data, &batch, &w, &mut g);
            assert_eq!(w.as_slice(), trace.params.row(t), "params, iteration {t}");
            assert_eq!(g.as_slice(), trace.grads.row(t), "grads, iteration {t}");
            vector::axpy(-cfg.lr, &g, &mut w);
        }
    });
    assert_eq!(w, out.w);
}

#[test]
fn trace_store_replays_deltagrad_like_nested_vec_clones() {
    let data = fixture(38);
    let model = LogisticRegression::new(DIM, CLASSES);
    let obj = WeightedObjective::new(GAMMA, 0.02);
    let m = model.num_params();
    let cfg = SgdConfig {
        epochs: 3,
        batch_size: 150,
        cache_provenance: true,
        ..SgdConfig::default()
    };
    let out = train(&model, &obj, &data, &model.init_params(), &cfg);
    let trace = out.trace.unwrap();

    // The arena's rows are exactly the per-iteration clones the old
    // `Vec<Vec<f64>>` cache would have stored.
    let nested_params: Vec<Vec<f64>> = (0..trace.params.len())
        .map(|t| trace.params.row(t).to_vec())
        .collect();
    let nested_grads: Vec<Vec<f64>> = (0..trace.grads.len())
        .map(|t| trace.grads.row(t).to_vec())
        .collect();

    // Flip a handful of labels to deterministic clean ones.
    let mut new_data = data.clone();
    let changed: Vec<usize> = (0..40).map(|k| k * 29 % N).collect();
    for &i in &changed {
        let c = new_data.ground_truth(i).unwrap();
        new_data.clean_label(i, SoftLabel::onehot(c, CLASSES));
    }

    // Replaying from a trace rebuilt out of the nested clones must be
    // bitwise indistinguishable from replaying the arena-backed trace.
    let rebuilt = TrainTrace {
        plan: trace.plan.clone(),
        params: TraceStore::from_flat(m, nested_params.concat()),
        grads: TraceStore::from_flat(m, nested_grads.concat()),
        epoch_checkpoints: trace.epoch_checkpoints.clone(),
        lr: trace.lr,
    };
    let dg = DeltaGradConfig::default();
    let a = deltagrad_update(&model, &obj, &data, &new_data, &changed, &trace, &dg);
    let b = deltagrad_update(&model, &obj, &data, &new_data, &changed, &rebuilt, &dg);
    assert_eq!(a.w, b.w);
    assert_eq!(a.trace.params, b.trace.params);
    assert_eq!(a.trace.grads, b.trace.grads);
    assert_eq!(a.trace.epoch_checkpoints, b.trace.epoch_checkpoints);
    assert_eq!(a.stats.explicit_iters, b.stats.explicit_iters);
    assert_eq!(a.stats.approx_iters, b.stats.approx_iters);
}

#[test]
fn val_grad_dispatch_is_bit_identical_to_serial_twin() {
    let data = fixture(39);
    let model = LogisticRegression::new(DIM, CLASSES);
    let obj = WeightedObjective::new(GAMMA, 0.05);
    let w = random_w(&model, 40);
    let val_grad = |threads| {
        let mut out = vec![0.0; model.num_params()];
        pool(threads).install(|| obj.val_grad(&model, &data, &w, &mut out));
        out
    };
    assert_eq!(val_grad(4), val_grad(1));
}
