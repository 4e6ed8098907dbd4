//! Integration: the parallel selector hot path is equivalent to the
//! serial one.
//!
//! `rank_infl_with_vector` and `IncremInfl::candidates` dispatch to the
//! thread pool on a multi-worker pool; their `*_serial` twins are the
//! 1-worker path. Both must produce the same ranked
//! indices and suggested labels from the same seeds, with scores
//! drifting by at most 1e-10 (per-candidate scores carry no
//! cross-sample floating-point reduction, so in practice they are
//! bit-identical — the tolerance covers only the model-layer gradient
//! reductions feeding the shared influence vector). ci.sh runs this
//! test with the feature both enabled and disabled; in the disabled
//! configuration every pair trivially agrees, which pins the serial
//! fallback as the semantic reference.

use chef_core::increm::IncremInfl;
use chef_core::influence::{
    influence_vector, rank_infl_with_vector, rank_infl_with_vector_serial, InflConfig,
};
use chef_data::generate;
use chef_model::{Dataset, LogisticRegression, WeightedObjective};
use chef_train::{train, SgdConfig};
use chef_weak::{weaken_split, WeakenConfig};

struct Fixture {
    model: LogisticRegression,
    obj: WeightedObjective,
    data: Dataset,
    val: Dataset,
    w0: Vec<f64>,
    w: Vec<f64>,
    v: Vec<f64>,
}

/// A weakly-labeled problem large enough that every parallel grain gate
/// in chef-model (512) and chef-core (128) actually engages.
fn fixture(seed: u64) -> Fixture {
    let spec = chef_data::by_name("MIMIC", 20).unwrap();
    let mut split = generate(&spec, seed);
    weaken_split(&mut split, &spec, &WeakenConfig::default());
    let model = LogisticRegression::new(split.train.dim(), 2);
    let obj = WeightedObjective::new(0.8, 0.1);
    let cfg = SgdConfig {
        lr: 0.1,
        epochs: 8,
        batch_size: 1024,
        seed: 7,
        cache_provenance: false,
    };
    let w_init = vec![0.0; chef_model::Model::num_params(&model)];
    let w0 = train(&model, &obj, &split.train, &w_init, &cfg).w;
    // Drift a little past w0 so the Increm-Infl bounds are non-trivial.
    let drift = SgdConfig {
        lr: 0.05,
        epochs: 2,
        batch_size: 1024,
        seed: 8,
        cache_provenance: false,
    };
    let w = train(&model, &obj, &split.train, &w0, &drift).w;
    let v = influence_vector(
        &model,
        &obj,
        &split.train,
        &split.val,
        &w,
        &InflConfig::default(),
    );
    Fixture {
        model,
        obj,
        data: split.train,
        val: split.val,
        w0,
        w,
        v,
    }
}

#[test]
fn rank_infl_parallel_equals_serial() {
    let f = fixture(17);
    let pool = f.data.uncleaned_indices();
    assert!(pool.len() >= 512, "fixture too small: {}", pool.len());
    let par = rank_infl_with_vector(&f.model, &f.data, &f.w, &f.v, &pool, f.obj.gamma);
    let ser = rank_infl_with_vector_serial(&f.model, &f.data, &f.w, &f.v, &pool, f.obj.gamma);
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.index, b.index, "ranked order diverged");
        assert_eq!(a.suggested, b.suggested, "sample {}", a.index);
        assert!(
            (a.score - b.score).abs() <= 1e-10,
            "sample {}: {} vs {}",
            a.index,
            a.score,
            b.score
        );
    }
}

#[test]
fn increm_candidates_parallel_equals_serial() {
    let f = fixture(23);
    let inc = IncremInfl::initialize(&f.model, &f.data, &f.w0);
    let pool = f.data.uncleaned_indices();
    let b = 25;
    let (cp, sp) = inc.candidates(&f.model, &f.data, &f.w, &f.v, &pool, b, f.obj.gamma);
    let (cs, ss) = inc.candidates_serial(&f.model, &f.data, &f.w, &f.v, &pool, b, f.obj.gamma);
    assert_eq!(cp, cs, "candidate sets diverged");
    assert_eq!(sp.pool, ss.pool);
    assert_eq!(sp.candidates, ss.candidates);

    // The full Increm-Infl round built on top must agree with a serial
    // Full evaluation in both indices and suggested labels.
    let (mut ranked, _) = inc.select(&f.model, &f.data, &f.w, &f.v, &pool, b, f.obj.gamma);
    ranked.truncate(b);
    let mut full = rank_infl_with_vector_serial(&f.model, &f.data, &f.w, &f.v, &pool, f.obj.gamma);
    full.truncate(b);
    let ai: Vec<usize> = ranked.iter().map(|s| s.index).collect();
    let bi: Vec<usize> = full.iter().map(|s| s.index).collect();
    assert_eq!(ai, bi);
    let al: Vec<usize> = ranked.iter().map(|s| s.suggested).collect();
    let bl: Vec<usize> = full.iter().map(|s| s.suggested).collect();
    assert_eq!(al, bl);
}

#[test]
fn parallel_results_are_reproducible_run_to_run() {
    // The rayon shim chunks by input length only and reduces in chunk
    // order, so repeated parallel evaluations must agree bit-for-bit —
    // this is what rules out thread-count-dependent float drift.
    let f = fixture(29);
    let pool = f.data.uncleaned_indices();
    let v2 = influence_vector(
        &f.model,
        &f.obj,
        &f.data,
        &f.val,
        &f.w,
        &InflConfig::default(),
    );
    for (a, b) in f.v.iter().zip(&v2) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "influence vector not reproducible"
        );
    }
    let r1 = rank_infl_with_vector(&f.model, &f.data, &f.w, &f.v, &pool, f.obj.gamma);
    let r2 = rank_infl_with_vector(&f.model, &f.data, &f.w, &f.v, &pool, f.obj.gamma);
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.suggested, b.suggested);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}
