//! The systems story: what Increm-Infl and DeltaGrad-L actually save.
//!
//! Runs the same cleaning workload twice — naive (Full influence +
//! Retrain) vs incremental (Increm-Infl + DeltaGrad-L) — and prints the
//! per-phase timings plus the check that both pick the same first-round
//! samples (the paper's Exp2/Exp3 story in one program).
//!
//! ```text
//! cargo run --release --example incremental_speedups
//! ```

use chef_core::{
    AnnotationConfig, ConstructorKind, InflSelector, LabelStrategy, Pipeline, PipelineConfig,
};
use chef_data::{generate, paper_suite};
use chef_model::{LogisticRegression, WeightedObjective};
use chef_train::{DeltaGradConfig, SgdConfig};
use chef_weak::{weaken_split, WeakenConfig};

fn main() {
    let spec = paper_suite(5)
        .into_iter()
        .find(|s| s.name == "MIMIC")
        .expect("suite contains MIMIC");
    let mut split = generate(&spec, 11);
    weaken_split(&mut split, &spec, &WeakenConfig::default());
    println!("dataset: {} training samples", split.train.len());

    let model = LogisticRegression::new(split.train.dim(), split.train.num_classes());
    let base = PipelineConfig {
        budget: 100,
        round_size: 10,
        objective: WeightedObjective::new(0.8, 0.2),
        sgd: SgdConfig {
            lr: 0.1,
            epochs: 25,
            batch_size: 512,
            seed: 9,
            cache_provenance: true,
        },
        constructor: ConstructorKind::Retrain,
        annotation: AnnotationConfig {
            strategy: LabelStrategy::SuggestionOnly,
            error_rate: 0.05,
            seed: 2,
        },
        ..PipelineConfig::default()
    };

    // Naive: Full influence evaluation + retraining from scratch.
    let mut full = InflSelector::full();
    let naive = Pipeline::new(base.clone()).run(
        &model,
        split.train.clone(),
        &split.val,
        &split.test,
        &mut full,
    );

    // Incremental: Increm-Infl pruning + DeltaGrad-L replay.
    let mut incremental_cfg = base;
    incremental_cfg.constructor = ConstructorKind::DeltaGradL(DeltaGradConfig::default());
    let mut increm = InflSelector::incremental();
    let fast = Pipeline::new(incremental_cfg).run(
        &model,
        split.train.clone(),
        &split.val,
        &split.test,
        &mut increm,
    );

    // Increm-Infl ≡ Full only while both runs share a model: later rounds
    // diverge once Retrain and DeltaGrad-L produce different parameters.
    let first_round = |r: &chef_core::PipelineReport| -> Vec<usize> {
        r.rounds[0].selected.iter().map(|s| s.index).collect()
    };
    let same_first_round = first_round(&naive) == first_round(&fast);

    println!(
        "naive       : select {:>8.1?} | update {:>8.1?} | test F1 {:.4}",
        naive.total_select_time(),
        naive.total_update_time(),
        naive.final_test_f1()
    );
    println!(
        "incremental : select {:>8.1?} | update {:>8.1?} | test F1 {:.4}",
        fast.total_select_time(),
        fast.total_update_time(),
        fast.final_test_f1()
    );
    println!(
        "update speed-up: {:.1}x | select speed-up: {:.1}x | identical first-round selection: {}",
        naive.total_update_time().as_secs_f64() / fast.total_update_time().as_secs_f64().max(1e-9),
        naive.total_select_time().as_secs_f64() / fast.total_select_time().as_secs_f64().max(1e-9),
        same_first_round
    );
    if let Some(stats) = fast.rounds.last().and_then(|r| r.selector_stats) {
        println!(
            "last-round Increm-Infl pruning: evaluated {}/{} samples exactly",
            stats.candidates, stats.pool
        );
    }
}
