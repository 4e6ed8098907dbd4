//! Integration test for the telemetry.v1 observability layer.
//!
//! Runs the full pipeline (Increm-Infl selector + DeltaGrad-L
//! constructor) with telemetry enabled and asserts the structured
//! per-round breakdown: pruning counters, gradient/HVP evaluation
//! counts, annotation vote counts, and replay-vs-exact step counts.
//! A disabled handle must record nothing and leave every result
//! bit-identical to an enabled run.

use chef_core::{
    AnnotationConfig, ConstructorKind, InflSelector, LabelStrategy, Pipeline, PipelineConfig,
    Telemetry,
};
use chef_linalg::Matrix;
use chef_model::{Dataset, LogisticRegression, SoftLabel, WeightedObjective};
use chef_train::{DeltaGradConfig, SgdConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N_TRAIN: usize = 120;
const NUM_CLASSES: usize = 2;

fn make(count: usize, weak: bool, rng: &mut SmallRng) -> Dataset {
    let mut raw = Vec::new();
    let mut labels = Vec::new();
    let mut truth = Vec::new();
    for _ in 0..count {
        let c = usize::from(rng.gen_range(0.0..1.0) < 0.5);
        let sign = if c == 1 { 1.0 } else { -1.0 };
        raw.push(sign * 1.2 + rng.gen_range(-1.0..1.0));
        raw.push(sign * 1.2 + rng.gen_range(-1.0..1.0));
        if weak {
            let good = rng.gen_range(0.0..1.0) < 0.65;
            let p = rng.gen_range(0.55..0.95);
            let l = if good == (c == 1) {
                SoftLabel::new(vec![1.0 - p, p])
            } else {
                SoftLabel::new(vec![p, 1.0 - p])
            };
            labels.push(l);
        } else {
            labels.push(SoftLabel::onehot(c, NUM_CLASSES));
        }
        truth.push(Some(c));
    }
    Dataset::new(
        Matrix::from_vec(count, 2, raw),
        labels,
        vec![!weak; count],
        truth,
        NUM_CLASSES,
    )
}

fn config(telemetry: Telemetry) -> PipelineConfig {
    PipelineConfig {
        budget: 15,
        round_size: 5,
        objective: WeightedObjective::new(0.8, 0.05),
        sgd: SgdConfig {
            lr: 0.1,
            epochs: 6,
            batch_size: 30,
            seed: 3,
            cache_provenance: true,
        },
        constructor: ConstructorKind::DeltaGradL(DeltaGradConfig::default()),
        annotation: AnnotationConfig {
            strategy: LabelStrategy::SuggestionPlusHumans(2),
            error_rate: 0.05,
            seed: 11,
        },
        telemetry,
        ..PipelineConfig::default()
    }
}

#[test]
fn pipeline_emits_structured_round_telemetry() {
    let mut rng = SmallRng::seed_from_u64(7);
    let train = make(N_TRAIN, true, &mut rng);
    let val = make(40, false, &mut rng);
    let test = make(40, false, &mut rng);
    let model = LogisticRegression::new(2, NUM_CLASSES);

    let telemetry = Telemetry::enabled();
    let pipeline = Pipeline::new(config(telemetry.clone()));
    let mut selector = InflSelector::incremental();
    let report = pipeline.run(&model, train, &val, &test, &mut selector);

    assert_eq!(report.rounds.len(), 3, "budget 15 / round 5 = 3 rounds");

    // Expected per-candidate gradient cost of Eq. 6 with γ < 1: C class
    // gradients plus one full gradient for the up-weight term.
    let grads_per_score = NUM_CLASSES + 1;
    // DeltaGrad replays the full SGD iteration schedule each update.
    let iters_per_update = 6 * N_TRAIN.div_ceil(30);

    let mut total_scored = 0u64;
    let mut total_pruned = 0u64;
    for (k, r) in report.rounds.iter().enumerate() {
        let t = &r.telemetry;
        assert_eq!(t.round, k);

        // ---- Selector phase: pruned vs. scored (Theorem 1). ----
        let sel = &t.selector;
        assert_eq!(sel.selector, "Infl+Increm");
        assert!(sel.pool > 0);
        assert_eq!(
            sel.pruned + sel.scored,
            sel.pool,
            "round {k}: every candidate is either pruned or scored"
        );
        assert!(sel.scored >= r.selected.len(), "scored at least b samples");
        assert_eq!(sel.grad_evals, sel.scored * grads_per_score);
        assert!(sel.hvp_evals > 0, "the CG solve applied the Hessian");
        let expected_rate = sel.pruned as f64 / sel.pool as f64;
        assert!((sel.bound_hit_rate - expected_rate).abs() < 1e-12);

        // ---- Annotation phase: votes, conflicts, abstains. ----
        let ann = &t.annotation;
        assert_eq!(ann.requested, r.selected.len());
        assert_eq!(ann.cleaned + ann.abstains, ann.requested);
        assert_eq!(ann.cleaned, r.cleaned);
        assert_eq!(ann.abstains, r.ambiguous);
        // 2 humans + 1 suggestion per sample with known ground truth.
        assert_eq!(ann.votes, 3 * ann.requested);
        assert!(ann.conflicts <= ann.requested);

        // ---- Constructor phase: replay vs. exact steps. ----
        let ctor = &t.constructor;
        assert_eq!(ctor.kind, "deltagrad-l");
        assert_eq!(ctor.lbfgs_history, DeltaGradConfig::default().m0);
        assert_eq!(ctor.epochs, 6);
        assert_eq!(
            ctor.exact_steps + ctor.replay_steps,
            iters_per_update,
            "round {k}: every SGD iteration is either exact or replayed"
        );
        assert!(ctor.exact_steps > 0, "j₀ burn-in forces exact steps");
        assert!(ctor.replay_steps > 0, "most iterations replay via L-BFGS");

        total_scored += sel.scored as u64;
        total_pruned += sel.pruned as u64;
    }

    // Later rounds must actually exercise the Theorem-1 bound.
    assert!(total_pruned > 0, "Increm-Infl never pruned anything");

    // ---- Registry + export. ----
    assert!(telemetry.is_enabled());
    assert_eq!(telemetry.rounds_recorded(), report.rounds.len());
    assert_eq!(telemetry.counter("selector.scored"), total_scored);
    assert_eq!(telemetry.counter("selector.pruned"), total_pruned);
    assert_eq!(
        telemetry.counter("increm.provenance_grads"),
        (N_TRAIN * (NUM_CLASSES + 1)) as u64,
        "provenance initialization: one Hessian norm plus C per-class norms per sample"
    );
    assert_eq!(telemetry.counter("pipeline.rounds"), 3);
    // chef-train reports through the same handle: the initial training
    // plus every constructor update ran under a `train.sgd` span.
    assert!(telemetry.counter("train.epochs") >= 6);

    let json = telemetry
        .export_json("pipeline")
        .expect("enabled telemetry exports");
    for needle in [
        "\"schema\":\"telemetry.v1\"",
        "\"kind\":\"pipeline\"",
        "\"available_cores\":",
        "\"telemetry_feature\":true",
        "\"counters\":{",
        "\"selector.scored\":",
        "\"increm.provenance_grads\":",
        "\"spans\":{",
        "\"pipeline.init\"",
        "\"round.select\"",
        "\"round.annotate\"",
        "\"round.update\"",
        "\"round.eval\"",
        "\"train.sgd\"",
        "\"histograms\":{",
        "\"train.batch_ms\"",
        "\"rounds\":[",
        "\"pruned\":",
        "\"replay_steps\":",
    ] {
        assert!(
            json.contains(needle),
            "{needle} missing from export:\n{json}"
        );
    }
}

#[test]
fn disabled_handle_records_nothing() {
    let mut rng = SmallRng::seed_from_u64(9);
    let train = make(60, true, &mut rng);
    let val = make(30, false, &mut rng);
    let model = LogisticRegression::new(2, NUM_CLASSES);
    let run = |telemetry: Telemetry| {
        let mut cfg = config(telemetry);
        cfg.budget = 5;
        let mut selector = InflSelector::full();
        Pipeline::new(cfg).run(&model, train.clone(), &val, &val, &mut selector)
    };

    let telemetry = Telemetry::disabled();
    let report = run(telemetry.clone());

    // The structured breakdown is still populated from plain counts…
    assert_eq!(report.rounds.len(), 1);
    assert_eq!(report.rounds[0].telemetry.selector.selector, "Infl");
    assert_eq!(report.rounds[0].telemetry.selector.pruned, 0);
    // …but the disabled handle recorded nothing and exports nothing.
    assert_eq!(telemetry.counter("pipeline.rounds"), 0);
    assert!(telemetry.export_json("pipeline").is_none());
    assert_eq!(telemetry.rounds_recorded(), 0);

    // The per-sample path is bit-identical with telemetry on or off.
    let enabled = Telemetry::enabled();
    let on = run(enabled.clone());
    assert_eq!(enabled.rounds_recorded(), 1, "the enabled run recorded");
    assert_eq!(on.rounds.len(), report.rounds.len());
    for (a, b) in on.rounds.iter().zip(&report.rounds) {
        let picks = |r: &chef_core::RoundReport| -> Vec<(usize, Option<usize>)> {
            r.selected.iter().map(|s| (s.index, s.suggested)).collect()
        };
        assert_eq!(picks(a), picks(b), "selected indices and suggestions");
        assert_eq!(a.val_f1.to_bits(), b.val_f1.to_bits());
        assert_eq!(a.test_f1.to_bits(), b.test_f1.to_bits());
    }
    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&on.final_w), bits(&report.final_w), "final_w bits");
}

#[test]
fn logreg_rounds_report_the_reference_gemm_backend() {
    // Pins what a pipeline run writes into `kernel_backend`: both GEMM
    // phases of every round name the one panel family, "reference".
    let mut rng = SmallRng::seed_from_u64(13);
    let train = make(N_TRAIN, true, &mut rng);
    let val = make(40, false, &mut rng);
    let model = LogisticRegression::new(2, NUM_CLASSES);
    let telemetry = Telemetry::enabled();
    let mut cfg = config(telemetry.clone());
    cfg.budget = 10;
    let mut selector = InflSelector::full();
    let report = Pipeline::new(cfg).run(&model, train, &val, &val, &mut selector);

    assert_eq!(report.rounds.len(), 2, "budget 10 / round 5 = 2 rounds");
    for r in &report.rounds {
        let (sel, ctor) = (&r.telemetry.selector, &r.telemetry.constructor);
        let round = r.telemetry.round;
        assert_eq!(sel.kernel_path, "gemm", "round {round}: selector path");
        assert_eq!(sel.kernel_backend, "reference", "round {round}: selector");
        assert_eq!(ctor.kernel_path, "gemm", "round {round}: constructor path");
        assert_eq!(ctor.kernel_backend, "reference", "round {round}: ctor");
    }
    let json = telemetry.export_json("pipeline").expect("enabled export");
    assert_eq!(
        json.matches("\"kernel_backend\":\"reference\"").count(),
        2 * report.rounds.len(),
        "one selector and one constructor entry per round:\n{json}"
    );
}
