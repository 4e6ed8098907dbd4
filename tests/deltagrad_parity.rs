//! Integration: DeltaGrad-L parity with retraining across multiple
//! cleaning rounds, on realistically generated (not hand-built) data.

use chef_core::{ConstructorKind, ModelConstructor};
use chef_data::{generate, paper_suite};
use chef_linalg::vector;
use chef_model::{LabelOverlay, LogisticRegression, SoftLabel, WeightedObjective};
use chef_train::{DeltaGradConfig, SgdConfig, TrainTrace};
use chef_weak::{weaken_split, WeakenConfig};

fn setup() -> (LogisticRegression, WeightedObjective, chef_data::Split) {
    let spec = paper_suite(50)
        .into_iter()
        .find(|s| s.name == "Retina")
        .unwrap();
    let mut split = generate(&spec, 9);
    weaken_split(&mut split, &spec, &WeakenConfig::default());
    let model = LogisticRegression::new(split.train.dim(), 2);
    (model, WeightedObjective::new(0.8, 0.1), split)
}

fn sgd() -> SgdConfig {
    SgdConfig {
        lr: 0.1,
        epochs: 12,
        batch_size: 64,
        seed: 17,
        cache_provenance: true,
    }
}

#[test]
fn three_rounds_of_deltagrad_l_stay_close_to_retraining() {
    let (model, obj, split) = setup();
    let retrain = ModelConstructor::new(ConstructorKind::Retrain, sgd());
    let dg = ModelConstructor::new(
        ConstructorKind::DeltaGradL(DeltaGradConfig::default()),
        sgd(),
    );

    let mut data = split.train.clone();
    let init = retrain.initial_train(&model, &obj, &data);
    let mut trace_dg = init.trace.clone();
    let mut trace_rt = init.trace;

    for round in 0..3 {
        // Clean 8 samples to ground truth.
        let old = data.clone();
        let changed: Vec<usize> = data.uncleaned_indices().into_iter().take(8).collect();
        for &i in &changed {
            let t = data.ground_truth(i).unwrap();
            data.clean_label(i, SoftLabel::onehot(t, 2));
        }
        let rt = retrain.update(&model, &obj, &old, &data, &changed, &trace_rt);
        let up = dg.update(&model, &obj, &old, &data, &changed, &trace_dg);
        let w_dg = up.w;
        trace_dg = up.trace;
        trace_rt = rt.trace;
        let rel = vector::distance(&w_dg, &rt.w) / vector::norm2(&rt.w).max(1.0);
        assert!(rel < 0.1, "round {round}: relative distance {rel}");
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_traces_bit_equal(a: &TrainTrace, b: &TrainTrace, round: usize) {
    assert_eq!(a.params.len(), b.params.len(), "round {round}: trace rows");
    for t in 0..a.params.len() {
        assert_eq!(
            bits(a.params.row(t)),
            bits(b.params.row(t)),
            "round {round}: w_{t}"
        );
        assert_eq!(
            bits(a.grads.row(t)),
            bits(b.grads.row(t)),
            "round {round}: g_{t}"
        );
    }
    assert_eq!(a.epoch_checkpoints.len(), b.epoch_checkpoints.len());
    for (e, (x, y)) in a
        .epoch_checkpoints
        .iter()
        .zip(&b.epoch_checkpoints)
        .enumerate()
    {
        assert_eq!(bits(x), bits(y), "round {round}: epoch checkpoint {e}");
    }
}

/// The round loop hands DeltaGrad-L the pre-annotation data as a
/// `LabelOverlay` over the live store; the replay must be exactly the one
/// a full clone of the pre-annotation dataset drives.
#[test]
fn overlay_old_data_replays_bit_identically_to_a_cloned_dataset() {
    let (model, obj, split) = setup();
    let dg = ModelConstructor::new(
        ConstructorKind::DeltaGradL(DeltaGradConfig::default()),
        sgd(),
    );
    let mut data = split.train.clone();
    let init = dg.initial_train(&model, &obj, &data);
    let mut trace_overlay = init.trace.clone();
    let mut trace_clone = init.trace;

    for round in 0..3 {
        // Clean 8 samples spread over the store, a new set each round.
        let changed: Vec<usize> = data
            .uncleaned_indices()
            .into_iter()
            .step_by(37)
            .skip(round)
            .take(8)
            .collect();
        let old = data.clone();
        let mut prior = LabelOverlay::new();
        for &i in &changed {
            prior.insert(i, data.label(i).clone(), data.is_clean(i));
        }
        for &i in &changed {
            let t = data.ground_truth(i).unwrap();
            data.clean_label(i, SoftLabel::onehot(t, 2));
        }
        let via_overlay = dg.update(
            &model,
            &obj,
            &prior.over(&data),
            &data,
            &changed,
            &trace_overlay,
        );
        let via_clone = dg.update(&model, &obj, &old, &data, &changed, &trace_clone);
        assert_eq!(
            bits(&via_overlay.w),
            bits(&via_clone.w),
            "round {round}: final w"
        );
        assert_traces_bit_equal(&via_overlay.trace, &via_clone.trace, round);
        trace_overlay = via_overlay.trace;
        trace_clone = via_clone.trace;
    }
}

#[test]
fn deltagrad_l_is_faster_than_retraining() {
    let (model, obj, split) = setup();
    let retrain = ModelConstructor::new(ConstructorKind::Retrain, sgd());
    let dg = ModelConstructor::new(
        ConstructorKind::DeltaGradL(DeltaGradConfig::default()),
        sgd(),
    );
    let mut data = split.train.clone();
    let init = retrain.initial_train(&model, &obj, &data);
    let old = data.clone();
    let changed: Vec<usize> = (0..10).collect();
    for &i in &changed {
        let t = data.ground_truth(i).unwrap();
        data.clean_label(i, SoftLabel::onehot(t, 2));
    }
    // Warm up, then take the best of 3 to de-noise CI machines.
    let mut t_rt = f64::INFINITY;
    let mut t_dg = f64::INFINITY;
    for _ in 0..3 {
        let rt = retrain.update(&model, &obj, &old, &data, &changed, &init.trace);
        let up = dg.update(&model, &obj, &old, &data, &changed, &init.trace);
        t_rt = t_rt.min(rt.elapsed.as_secs_f64());
        t_dg = t_dg.min(up.elapsed.as_secs_f64());
    }
    assert!(
        t_dg < t_rt,
        "DeltaGrad-L {t_dg:.4}s not faster than Retrain {t_rt:.4}s"
    );
}

#[test]
fn deltagrad_l_handles_the_weight_flip_of_cleaning() {
    // The γ → 1 re-weighting is part of the update (§4.2 point 4): verify
    // by comparing against retraining with t0 = 1 (exact replay).
    let (model, obj, split) = setup();
    let mut data = split.train.clone();
    let exact = ModelConstructor::new(
        ConstructorKind::DeltaGradL(DeltaGradConfig {
            j0: 0,
            t0: 1,
            m0: 2,
        }),
        sgd(),
    );
    let retrain = ModelConstructor::new(ConstructorKind::Retrain, sgd());
    let init = retrain.initial_train(&model, &obj, &data);
    let old = data.clone();
    let changed = vec![3usize, 77, 150];
    for &i in &changed {
        let t = data.ground_truth(i).unwrap();
        data.clean_label(i, SoftLabel::onehot(t, 2));
    }
    let a = exact.update(&model, &obj, &old, &data, &changed, &init.trace);
    let b = retrain.update(&model, &obj, &old, &data, &changed, &init.trace);
    for (x, y) in a.w.iter().zip(&b.w) {
        assert!((x - y).abs() < 1e-9, "{x} vs {y}");
    }
}
