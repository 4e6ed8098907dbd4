//! Integration: every result is bit-identical at every rayon pool size.
//!
//! The selector hot path (`rank_infl_with_vector`,
//! `IncremInfl::{initialize, candidates}`), the model-layer reductions
//! under the CG solve (`influence_vector`) and the whole cleaning loop
//! (`Pipeline::run`) each have one entry point. These tests run that
//! entry point under a 1-worker and a 4-worker scoped pool in one
//! process and compare the results exactly: ranked indices, suggested
//! labels, scores, influence vectors and parameters by their bits. The
//! rayon shim chunks by input length only and combines chunks in chunk
//! order, and every accumulation sums fixed-size chunks in chunk order,
//! so no comparison needs a tolerance.

use chef_core::increm::IncremInfl;
use chef_core::influence::{influence_vector, rank_infl_with_vector, InflConfig, InflScore};
use chef_core::{
    AnnotationConfig, ConstructorKind, InflSelector, LabelStrategy, Pipeline, PipelineConfig,
    PipelineReport,
};
use chef_data::generate;
use chef_model::{Dataset, LogisticRegression, WeightedObjective};
use chef_train::{DeltaGradConfig, SgdConfig};
use chef_weak::{weaken_split, WeakenConfig};

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|f| f.to_bits()).collect()
}

fn assert_rankings_identical(a: &[InflScore], b: &[InflScore]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "ranked order diverged");
        assert_eq!(x.suggested, y.suggested, "sample {}", x.index);
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "sample {}", x.index);
    }
}

struct Fixture {
    model: LogisticRegression,
    obj: WeightedObjective,
    data: Dataset,
    val: Dataset,
    w0: Vec<f64>,
    w: Vec<f64>,
    v: Vec<f64>,
}

/// A weakly-labeled MIMIC problem large enough that every parallel grain
/// gate in chef-model (512) and chef-core (128) actually engages.
fn split(seed: u64) -> chef_data::Split {
    let spec = chef_data::by_name("MIMIC", 20).unwrap();
    let mut split = generate(&spec, seed);
    weaken_split(&mut split, &spec, &WeakenConfig::default());
    split
}

/// Train `w0`, drift to `w` and solve for `v` at whatever pool size is
/// in effect.
fn fixture(seed: u64) -> Fixture {
    let split = split(seed);
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
    let w0 = chef_train::train(&model, &obj, &split.train, &w_init, &cfg).w;
    // Drift a little past w0 so the Increm-Infl bounds are non-trivial.
    let drift = SgdConfig {
        lr: 0.05,
        epochs: 2,
        batch_size: 1024,
        seed: 8,
        cache_provenance: false,
    };
    let w = chef_train::train(&model, &obj, &split.train, &w0, &drift).w;
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
    let pool_idx = f.data.uncleaned_indices();
    assert!(
        pool_idx.len() >= 512,
        "fixture too small: {}",
        pool_idx.len()
    );
    let rank = |threads| {
        pool(threads).install(|| {
            rank_infl_with_vector(&f.model, &f.data, &f.w, &f.v, &pool_idx, f.obj.gamma)
        })
    };
    assert_rankings_identical(&rank(4), &rank(1));
}

#[test]
fn increm_candidates_parallel_equals_serial() {
    let f = fixture(23);
    let pool_idx = f.data.uncleaned_indices();
    let b = 25;
    let round = |threads| {
        pool(threads).install(|| {
            let inc = IncremInfl::initialize(&f.model, &f.data, &f.w0);
            let (cands, stats) =
                inc.candidates(&f.model, &f.data, &f.w, &f.v, &pool_idx, b, f.obj.gamma);
            let (ranked, _) = inc.select(&f.model, &f.data, &f.w, &f.v, &pool_idx, b, f.obj.gamma);
            (inc.snapshot(), cands, stats, ranked)
        })
    };
    let (snap4, cands4, stats4, ranked4) = round(4);
    let (snap1, cands1, stats1, ranked1) = round(1);
    assert_eq!(bits(&snap4.w0), bits(&snap1.w0), "provenance diverged");
    assert_eq!(bits(&snap4.hessian_norms0), bits(&snap1.hessian_norms0));
    assert_eq!(
        bits(&snap4.class_hessian_norms0),
        bits(&snap1.class_hessian_norms0)
    );
    assert_eq!(cands4, cands1, "candidate sets diverged");
    assert_eq!(stats4, stats1);
    assert_rankings_identical(&ranked4, &ranked1);

    // The Increm-Infl round must agree with a 1-worker Full evaluation
    // in both indices and suggested labels.
    let mut full = pool(1)
        .install(|| rank_infl_with_vector(&f.model, &f.data, &f.w, &f.v, &pool_idx, f.obj.gamma));
    full.truncate(b);
    let ai: Vec<usize> = ranked4.iter().take(b).map(|s| s.index).collect();
    let bi: Vec<usize> = full.iter().map(|s| s.index).collect();
    assert_eq!(ai, bi);
    let al: Vec<usize> = ranked4.iter().take(b).map(|s| s.suggested).collect();
    let bl: Vec<usize> = full.iter().map(|s| s.suggested).collect();
    assert_eq!(al, bl);
}

#[test]
fn parallel_results_are_reproducible_run_to_run() {
    // Repeated evaluations at one pool size agree bit-for-bit.
    let f = fixture(29);
    let pool_idx = f.data.uncleaned_indices();
    let v2 = influence_vector(
        &f.model,
        &f.obj,
        &f.data,
        &f.val,
        &f.w,
        &InflConfig::default(),
    );
    assert_eq!(bits(&f.v), bits(&v2), "influence vector not reproducible");
    let r1 = rank_infl_with_vector(&f.model, &f.data, &f.w, &f.v, &pool_idx, f.obj.gamma);
    let r2 = rank_infl_with_vector(&f.model, &f.data, &f.w, &f.v, &pool_idx, f.obj.gamma);
    assert_rankings_identical(&r1, &r2);
}

#[test]
fn influence_vector_is_bit_identical_across_pool_sizes() {
    // Training, drift and the CG solve (whose Hessian-vector products
    // run on a 2048-row subsample, above the chunking grain) all under
    // each pool: w0, w and v = H⁻¹∇F_val must agree bit-for-bit.
    for seed in [17, 23, 29] {
        let one = pool(1).install(|| fixture(seed));
        let four = pool(4).install(|| fixture(seed));
        assert_eq!(bits(&one.w0), bits(&four.w0), "w0, seed {seed}");
        assert_eq!(bits(&one.w), bits(&four.w), "w, seed {seed}");
        assert_eq!(bits(&one.v), bits(&four.v), "v, seed {seed}");
    }
}

/// Three rounds of Increm-Infl with DeltaGrad-L updates.
fn run_loop(seed: u64) -> PipelineReport {
    let split = split(seed);
    let model = LogisticRegression::new(split.train.dim(), 2);
    let cfg = PipelineConfig {
        budget: 30,
        round_size: 10,
        objective: WeightedObjective::new(0.8, 0.1),
        sgd: SgdConfig {
            lr: 0.1,
            epochs: 4,
            batch_size: 1024,
            seed: 5,
            cache_provenance: true,
        },
        constructor: ConstructorKind::DeltaGradL(DeltaGradConfig::default()),
        annotation: AnnotationConfig {
            strategy: LabelStrategy::SuggestionOnly,
            error_rate: 0.05,
            seed: 3,
        },
        ..PipelineConfig::default()
    };
    let mut selector = InflSelector::incremental();
    Pipeline::new(cfg).run(&model, split.train, &split.val, &split.test, &mut selector)
}

#[test]
fn pipeline_round_loop_is_bit_identical_across_pool_sizes() {
    let one = pool(1).install(|| run_loop(31));
    let four = pool(4).install(|| run_loop(31));
    assert_eq!(one.rounds.len(), 3);
    assert_eq!(four.rounds.len(), 3);
    for (a, b) in one.rounds.iter().zip(&four.rounds) {
        assert_eq!(a.selected, b.selected, "round {}: selections", a.round);
        assert_eq!(
            a.telemetry.selector.hvp_evals, b.telemetry.selector.hvp_evals,
            "round {}: hvp_evals",
            a.round
        );
        assert_eq!(
            a.test_f1.to_bits(),
            b.test_f1.to_bits(),
            "round {}",
            a.round
        );
    }
    assert!(
        one.rounds
            .iter()
            .flat_map(|r| &r.selected)
            .all(|s| s.suggested.is_some()),
        "Infl suggests a label for every selection"
    );
    assert_eq!(bits(&one.final_w), bits(&four.final_w), "final_w");
    assert_eq!(
        bits(&one.final_w_raw),
        bits(&four.final_w_raw),
        "final_w_raw"
    );
}
