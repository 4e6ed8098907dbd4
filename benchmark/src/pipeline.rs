//! The three cleaning-loop workloads: a session of rounds driven through
//! `Pipeline::round_loop`, `RoundLoop::next_batch` / `provide` and
//! `AnnotationPhase::decide_batch`, timed from outside at each call.
//!
//! A run takes setup samples (fresh selector and store each time, stopped
//! after the first batch), then runs pairs of identical sessions until
//! `--seconds` have passed and at least [`MIN_ROUNDS`] round turnarounds
//! are pooled. Pair `i` cleans its own dataset, generated from sub-seed
//! `i` of the run's seed, so the pooled numbers average over inputs as
//! well as over rounds (test F1 moves by several points between
//! datasets); each pooled turnaround is the faster of the pair's two
//! replays of that round. Checks: the two sessions of a pair must agree
//! bit for bit, each setup probe's first batch must equal that of the
//! pair with the same sub-seed, the traced session must equal the
//! untraced one, and the mmap workload must equal an in-memory replay of
//! the same config.

use crate::stats::{median, percentile};
use crate::trace::{self, Layer, Op, Phase, Snapshot, Spans, TracedModel, TracedStore};
use crate::{Opts, Outcome, Scratch};
use chef_core::{
    AnnotationConfig, AnnotationPhase, CheckpointConfig, ConstructorKind, InflSelector,
    LabelStrategy, Pipeline, PipelineConfig, RoundStep, StorePipelineReport, Telemetry,
};
use chef_data::store::write_store;
use chef_data::{by_name, generate, DatasetSpec, IntegrityMode, MmapStore, Split, StoreOptions};
use chef_model::{DatasetStore, LogisticRegression, Model, StoreIoStats, WeightedObjective};
use chef_train::{DeltaGradConfig, SgdConfig};
use chef_weak::{weaken_split, WeakenConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Samples per round (`b`).
const ROUND_SIZE: usize = 10;
/// Setup samples taken before the sessions; each session adds one.
const SETUP_PROBES: usize = 2;
/// Sub-seeds whose final test F1 is averaged, at least: the pairs a run
/// always completes. Fixed per workload, so the metric does not move
/// with how many sessions fit in the time box.
const MIN_PAIRS: usize = 3;
/// Round turnarounds a run pools before it may stop: p90 needs 100.
const MIN_ROUNDS: usize = 100;
/// Test rows: the paper-scale test splits (100 rows for Fashion at
/// scale 2) make test F1 move by whole percents between seeds.
const TEST_ROWS: usize = 2_000;
/// Shards of the mmap training store, and how many stay resident: the
/// working set exceeds the residency window by two shards.
const SHARDS: usize = 10;
const RESIDENCY_CHUNKS: usize = 8;
/// Stop starting sessions after this long whatever the sample count, so a
/// run on a slow machine still ends well inside its time limit.
const HARD_STOP: Duration = Duration::from_secs(120);

/// One cleaning-loop workload.
pub struct PipelineWorkload {
    /// Paper dataset.
    pub dataset: &'static str,
    /// Scale divisor of the paper's split sizes.
    pub scale: usize,
    /// Increm-Infl pruning (else Full Infl).
    pub incremental: bool,
    /// DeltaGrad-L model updates (else Retrain).
    pub deltagrad: bool,
    /// Cleaning budget `B` per session.
    pub budget: usize,
    /// Serve the training set from an mmap store and checkpoint every
    /// round.
    pub mmap: bool,
}

impl PipelineWorkload {
    fn spec(&self, smoke: bool) -> DatasetSpec {
        let scale = if smoke { self.scale * 100 } else { self.scale };
        let mut spec = by_name(self.dataset, scale).expect("workloads name paper datasets");
        spec.test = if smoke { 200 } else { TEST_ROWS };
        spec
    }

    fn budget(&self, smoke: bool) -> usize {
        if smoke {
            30
        } else {
            self.budget
        }
    }

    fn config(&self, spec: &DatasetSpec, n: usize, seed: u64, smoke: bool) -> PipelineConfig {
        PipelineConfig {
            budget: self.budget(smoke),
            round_size: ROUND_SIZE,
            objective: WeightedObjective::new(0.8, 0.2),
            sgd: SgdConfig {
                lr: 0.1,
                epochs: 25,
                batch_size: (n / 16).clamp(32, 512),
                seed,
                cache_provenance: true,
            },
            constructor: if self.deltagrad {
                ConstructorKind::DeltaGradL(DeltaGradConfig::default())
            } else {
                ConstructorKind::Retrain
            },
            annotation: AnnotationConfig {
                strategy: LabelStrategy::SuggestionOnly,
                error_rate: spec.annotator_error,
                seed: seed ^ 0x77,
            },
            ..PipelineConfig::default()
        }
    }
}

/// Everything sessions share, built once per run.
struct Env<'a> {
    w: &'a PipelineWorkload,
    spec: DatasetSpec,
    smoke: bool,
    model: LogisticRegression,
    traced_model: TracedModel,
    scratch: &'a Scratch,
}

/// One sub-seed's inputs: the weakened split, its pipeline config and,
/// for the mmap workload, the training set written as a store.
struct Inputs {
    split: Split,
    cfg: PipelineConfig,
    store_dir: Option<PathBuf>,
}

/// Sub-seed of session `i` of a run.
fn session_seed(seed: u64, i: usize) -> u64 {
    seed * 1000 + i as u64
}

impl Env<'_> {
    fn inputs(&self, seed: u64) -> Inputs {
        let mut split = generate(&self.spec, seed);
        weaken_split(
            &mut split,
            &self.spec,
            &WeakenConfig {
                seed: seed ^ 0xabcd,
                ..WeakenConfig::default()
            },
        );
        let cfg = self
            .w
            .config(&self.spec, split.train.len(), seed, self.smoke);
        let store_dir = self.w.mmap.then(|| {
            let dir = self.scratch.dir.join(format!("train-{seed}"));
            if !dir.exists() {
                let rows = split.train.len().div_ceil(SHARDS);
                write_store(&split.train, &dir, rows).expect("write the training store");
            }
            dir
        });
        Inputs {
            split,
            cfg,
            store_dir,
        }
    }
}

/// What one session (or setup probe) measured.
struct Session {
    setup_s: f64,
    first_batch_s: f64,
    open_ms: f64,
    select_ms: Vec<f64>,
    annotate_ms: Vec<f64>,
    provide_ms: Vec<f64>,
    /// The closing `next_batch` that found the budget spent.
    done_ms: f64,
    report: Option<StorePipelineReport>,
    io: Option<StoreIoStats>,
    telemetry: Telemetry,
    /// Tracer totals after round 0, so layer numbers cover steady rounds.
    after_round0: Option<Snapshot>,
    /// Indices of round 0's batch.
    first_batch: Vec<usize>,
}

impl Session {
    /// How long annotators wait after handing in round `k` until round
    /// `k + 1`'s batch arrives: `provide(k)` + `next_batch(k + 1)`.
    fn turnaround_ms(&self) -> Vec<f64> {
        (0..self.provide_ms.len())
            .map(|k| {
                self.provide_ms[k] + self.select_ms.get(k + 1).copied().unwrap_or(self.done_ms)
            })
            .collect()
    }

    fn fingerprint(&self) -> u64 {
        fingerprint(
            self.report
                .as_ref()
                .expect("full sessions keep their report"),
        )
    }
}

/// Bit-exact digest of a session's decisions: every selected index and
/// suggestion, each round's F1 bits and the final parameter bits.
fn fingerprint(report: &StorePipelineReport) -> u64 {
    let mut h = crate::Fnv::default();
    for round in &report.rounds {
        for sel in &round.selected {
            h.u64(sel.index as u64);
            h.u64(sel.suggested.map_or(0, |c| c as u64 + 1));
        }
        h.u64(round.val_f1.to_bits());
        h.u64(round.test_f1.to_bits());
    }
    for w in &report.final_w {
        h.u64(w.to_bits());
    }
    h.finish()
}

/// Run one session: open the training set (from its store when `mmap`),
/// `round_loop`, then rounds until done — or only through the first
/// batch when `probe`.
fn session(
    env: &Env,
    inputs: &Inputs,
    mmap: bool,
    label: &str,
    probe: bool,
    mut spans: Option<&mut Spans>,
) -> Session {
    let traced = spans.is_some();
    let mut cfg = inputs.cfg.clone();
    let ckpt_dir = env.scratch.dir.join(format!("ckpt-{label}"));
    if env.w.mmap && !probe {
        cfg.checkpoint = Some(CheckpointConfig {
            dir: ckpt_dir.clone(),
            every_rounds: 1,
            keep: 2,
        });
    }
    if traced {
        // Checkpoint sizes and write times are program-reported.
        cfg.telemetry = Telemetry::enabled();
    }
    let telemetry = cfg.telemetry.clone();
    let pipeline = Pipeline::new(cfg);
    let annotators = AnnotationPhase::new(inputs.cfg.annotation);
    let model: &dyn Model = if traced {
        &env.traced_model
    } else {
        &env.model
    };
    let mut selector = if env.w.incremental {
        InflSelector::incremental()
    } else {
        InflSelector::full()
    };

    // Setup is timed from opening the inputs: the mmap open is part of
    // it, the benchmark's own copy of an in-memory split is not.
    let (mut store, t0, open_ms): (Box<dyn DatasetStore>, Instant, f64) = match &inputs.store_dir {
        Some(dir) if mmap => {
            let t0 = Instant::now();
            let store =
                MmapStore::open_with(dir, store_options()).expect("open the training store");
            (Box::new(store), t0, t0.elapsed().as_secs_f64() * 1e3)
        }
        _ => (Box::new(inputs.split.train.clone()), Instant::now(), 0.0),
    };
    let mut traced_store;
    let data: &mut dyn DatasetStore = if traced {
        traced_store = TracedStore::new(&mut *store);
        &mut traced_store
    } else {
        &mut *store
    };

    trace::set_phase(Phase::Setup);
    let (val, test) = (&inputs.split.val, &inputs.split.test);
    let mut rl = pipeline.round_loop(model, data, val, test, &mut selector);
    let setup_end = Instant::now();
    let setup_s = (setup_end - t0).as_secs_f64();
    let rep_span = spans.as_deref_mut().map(|s| {
        let rep = s.record("session", t0, t0, None, None);
        s.record("setup", t0, setup_end, Some(rep), None);
        rep
    });

    let mut out = Session {
        setup_s,
        first_batch_s: 0.0,
        open_ms,
        select_ms: Vec::new(),
        annotate_ms: Vec::new(),
        provide_ms: Vec::new(),
        done_ms: 0.0,
        report: None,
        io: None,
        telemetry,
        after_round0: None,
        first_batch: Vec::new(),
    };
    loop {
        trace::set_phase(Phase::Select);
        let ts = Instant::now();
        let step = rl.next_batch();
        let te = Instant::now();
        let select_ms = (te - ts).as_secs_f64() * 1e3;
        let first = out.select_ms.is_empty();
        if first {
            out.first_batch_s = (te - t0).as_secs_f64();
        }
        let batch = match step {
            RoundStep::Done => {
                out.done_ms = select_ms;
                break;
            }
            RoundStep::Awaiting(batch) => batch,
        };
        if first {
            out.first_batch = batch.items.iter().map(|it| it.index).collect();
            if probe {
                return out;
            }
        }
        out.select_ms.push(select_ms);

        trace::set_phase(Phase::Annotate);
        let (outcomes, stats) = annotators.decide_batch(&batch);
        let tp = Instant::now();
        out.annotate_ms.push((tp - te).as_secs_f64() * 1e3);

        trace::set_phase(Phase::Provide);
        rl.provide(&outcomes, stats, tp - te);
        let tend = Instant::now();
        out.provide_ms.push((tend - tp).as_secs_f64() * 1e3);

        if let Some(s) = spans.as_deref_mut() {
            let round = Some(batch.round);
            let r = s.record("round", ts, tend, rep_span, round);
            s.record("round.select", ts, te, Some(r), round);
            s.record("round.annotate", te, tp, Some(r), round);
            s.record("round.provide", tp, tend, Some(r), round);
            if batch.round == 0 {
                out.after_round0 = Some(trace::snapshot());
            }
        }
    }
    let report = rl.finish();
    if let (Some(s), Some(rep)) = (spans, rep_span) {
        s.close_at(rep, Instant::now());
    }
    out.report = Some(report);
    out.io = store.io_stats();
    if ckpt_dir.exists() {
        std::fs::remove_dir_all(&ckpt_dir).expect("remove the session's checkpoints");
    }
    out
}

fn store_options() -> StoreOptions {
    StoreOptions {
        residency_chunks: RESIDENCY_CHUNKS,
        force_pread: false,
        integrity: IntegrityMode::LazyFirstTouch,
        background_prefetch: true,
    }
}

/// Run one cleaning-loop workload.
pub fn run(w: &PipelineWorkload, opts: &Opts, scratch: &Scratch) -> Outcome {
    let spec = w.spec(opts.smoke);
    let env = Env {
        w,
        model: LogisticRegression::new(spec.dim, spec.num_classes),
        traced_model: TracedModel::new(Box::new(LogisticRegression::new(
            spec.dim,
            spec.num_classes,
        ))),
        spec,
        smoke: opts.smoke,
        scratch,
    };
    if opts.trace {
        traced_run(&env, opts.seed)
    } else {
        timed_run(&env, opts)
    }
}

/// The end-to-end run: setup samples, then pairs of identical sessions
/// until the time and sample floors are met.
fn timed_run(env: &Env, opts: &Opts) -> Outcome {
    let mmap = env.w.mmap;
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut first_batch = Vec::new();
    let mut probe_batches = Vec::new();
    for i in 0..SETUP_PROBES {
        let inputs = env.inputs(session_seed(opts.seed, i));
        let p = session(env, &inputs, mmap, &format!("probe-{i}"), true, None);
        setup.push(p.setup_s);
        first_batch.push(p.first_batch_s);
        probe_batches.push(p.first_batch);
    }
    // Every run completes the pairs the round floor needs; F1 averages
    // exactly those.
    let rounds_per_session = env.w.budget(env.smoke) / ROUND_SIZE;
    let f1_pairs = MIN_ROUNDS.div_ceil(rounds_per_session).max(MIN_PAIRS);
    let mut out = Outcome::default();
    let mut turnaround = Vec::new();
    let mut f1 = Vec::new();
    let mut first_fingerprint = None;
    loop {
        let i = f1.len();
        let inputs = env.inputs(session_seed(opts.seed, i));
        let a = session(env, &inputs, mmap, &format!("session-{i}a"), false, None);
        let b = session(env, &inputs, mmap, &format!("session-{i}b"), false, None);
        let rounds = a.provide_ms.len();
        out.attempted += 2 * rounds as u64;
        if rounds == 0 {
            out.violations.push("a session ran no rounds".into());
            break;
        }
        if a.fingerprint() != b.fingerprint() {
            out.failed += 2 * rounds as u64;
            out.violations
                .push(format!("the two sessions of sub-seed {i} disagree"));
        }
        if probe_batches.get(i).is_some_and(|p| *p != a.first_batch) {
            out.failed += rounds as u64;
            out.violations.push(format!(
                "sub-seed {i}: the setup probe chose another first batch"
            ));
        }
        // Round by round, the faster of two identical replays: a burst
        // of interference from other processes rarely hits both.
        let (ta, tb) = (a.turnaround_ms(), b.turnaround_ms());
        turnaround.extend(ta.iter().zip(&tb).map(|(x, y)| x.min(*y)));
        setup.extend([a.setup_s, b.setup_s]);
        first_batch.extend([a.first_batch_s, b.first_batch_s]);
        f1.push(
            a.report
                .as_ref()
                .map_or(f64::NAN, StorePipelineReport::final_test_f1),
        );
        first_fingerprint.get_or_insert(a.fingerprint());
        let elapsed = start.elapsed();
        let enough = f1.len() >= f1_pairs
            && turnaround.len() >= MIN_ROUNDS
            && elapsed.as_secs_f64() >= opts.seconds;
        if enough || elapsed >= HARD_STOP {
            break;
        }
    }
    let peak_rss_mb = crate::peak_rss_mb();

    if let (true, Some(fp)) = (mmap, first_fingerprint) {
        let inputs = env.inputs(session_seed(opts.seed, 0));
        let in_memory = session(env, &inputs, false, "check-memory", false, None);
        if in_memory.fingerprint() != fp {
            out.failed = out.attempted;
            out.violations
                .push("mmap session differs from its in-memory replay".into());
        }
    }

    let n = turnaround.len();
    if f1.len() < f1_pairs {
        out.violations
            .push(format!("{} sub-seeds ran, {f1_pairs} needed", f1.len()));
    }
    let f1 = &f1[..f1.len().min(f1_pairs)];
    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric(
        "first_batch_s",
        median(&first_batch),
        "s",
        first_batch.len(),
    );
    out.metric("turnaround_p50_ms", median_or_nan(&turnaround), "ms", n);
    match percentile(&turnaround, 90.0) {
        Some(p90) => out.unbounded("turnaround_p90_ms", p90, "ms", n),
        None => out
            .violations
            .push(format!("p90 refused: {n} round samples, 100 needed")),
    }
    let mean_f1 = f1.iter().sum::<f64>() / f1.len().max(1) as f64;
    out.metric("final_test_f1", mean_f1, "f1", f1.len());
    out.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
    out
}

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// The traced run: one untraced session for reference, one session of
/// the same inputs through the proxies, then the per-layer split.
fn traced_run(env: &Env, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mmap = env.w.mmap;
    let inputs = env.inputs(session_seed(seed, 0));
    let plain = session(env, &inputs, mmap, "plain", false, None);
    trace::reset();
    let mut spans = Spans::new();
    let traced = session(env, &inputs, mmap, "traced", false, Some(&mut spans));
    let end = trace::snapshot();
    out.spans = Some(spans);
    let spans = out.spans.as_ref().expect("just set");

    let rounds = plain.provide_ms.len();
    out.attempted = (rounds + traced.provide_ms.len()) as u64;
    if rounds < 2 {
        out.violations
            .push("the traced run needs two rounds".into());
        return out;
    }
    if traced.fingerprint() != plain.fingerprint() {
        out.failed = out.attempted;
        out.violations
            .push("the traced session differs from the untraced one".into());
    }
    let mut tax_ratio = 0.0;
    if mmap {
        let replay = session(env, &inputs, false, "replay", false, None);
        if replay.fingerprint() != plain.fingerprint() {
            out.failed = out.attempted;
            out.violations
                .push("mmap session differs from its in-memory replay".into());
        }
        tax_ratio = median(&plain.turnaround_ms()) / median(&replay.turnaround_ms());
    }

    // Steady rounds: everything after round 0, whose select pays the
    // Increm-Infl initialization (reported as selector.init_ms).
    let r0 = traced
        .after_round0
        .clone()
        .expect("round 0 snapshots the tracer");
    let st = end.minus(&r0);
    let steady = (rounds - 1) as f64;
    let steady_ms = |name: &str| {
        spans
            .spans
            .iter()
            .filter(|s| s.name == name && s.round.is_some_and(|r| r > 0))
            .map(|s| s.ms())
            .sum::<f64>()
    };
    let (select_ms, annotate_ms, provide_ms) = (
        steady_ms("round.select"),
        steady_ms("round.annotate"),
        steady_ms("round.provide"),
    );
    // The phases against the wall clock from round 1's start to the last
    // round's end, so time the benchmark itself spends between calls
    // shows up as a gap.
    let (first_us, last_us) = spans
        .spans
        .iter()
        .filter(|s| s.name == "round" && s.round.is_some_and(|r| r > 0))
        .fold((u64::MAX, 0), |(lo, hi), s| {
            (lo.min(s.start_us), hi.max(s.end_us))
        });
    let wall_ms = last_us.saturating_sub(first_us) as f64 / 1e3;
    let gap = 1.0 - (select_ms + annotate_ms + provide_ms) / wall_ms;
    if gap.abs() > 0.05 {
        out.violations.push(format!(
            "phase spans cover {:.1}% of round wall time",
            100.0 * (1.0 - gap)
        ));
    }

    let report = traced
        .report
        .as_ref()
        .expect("full sessions keep their report");
    let (exact, replay) = report.rounds.iter().fold((0, 0), |(e, r), x| {
        let c = &x.telemetry.constructor;
        (e + c.exact_steps, r + c.replay_steps)
    });
    let pruned: Vec<f64> = report
        .rounds
        .iter()
        .map(|r| r.telemetry.selector.bound_hit_rate)
        .collect();
    let rounds_phases = [Phase::Select, Phase::Annotate, Phase::Provide];
    let store_outside = |p: Phase| st.wall(Layer::Store, &[p]) - st.wall(Layer::StoreInModel, &[p]);
    let hvp = st.op(Op::HvpBlock, &[Phase::Select]);
    let score = st.op(Op::ScoreBlock, &[Phase::Select]);
    let grad = st.op(Op::GradBlock, &[Phase::Provide]);
    let predict = st.op(Op::Predict, &[Phase::Provide]);
    let feature_rows = st.op(Op::FeatureRows, &rounds_phases);
    let prefetch = st.op(Op::Prefetch, &rounds_phases);
    let store_wall = st.wall(Layer::Store, &rounds_phases);
    let (ckpt_writes, ckpt_bytes, ckpt_ms) = checkpoint_stats(&traced.telemetry);
    // Self times: a phase's wall time minus the wall time of the layers
    // it calls into. Checkpoint writes are spread evenly over the rounds.
    let selector_self =
        select_ms - st.wall(Layer::Model, &[Phase::Select]) - store_outside(Phase::Select);
    let constructor_self = provide_ms
        - st.wall(Layer::Model, &[Phase::Provide])
        - store_outside(Phase::Provide)
        - predict.busy_ms
        - ckpt_ms * steady / rounds as f64;
    let per_round = |x: f64| x / steady;
    let io = traced.io.unwrap_or_default();
    let turnaround_p50 = |s: &Session| median(&s.turnaround_ms());

    out.layers(
        rounds,
        &[
            ("round.select_ms", median(&plain.select_ms), "ms"),
            ("round.annotate_ms", median(&plain.annotate_ms), "ms"),
            ("round.provide_ms", median(&plain.provide_ms), "ms"),
            ("selector.pruned_frac_p50", median(&pruned), "frac"),
            (
                "selector.pruned_frac_min",
                pruned.iter().copied().fold(f64::INFINITY, f64::min),
                "frac",
            ),
            (
                "constructor.replay_frac",
                replay as f64 / (exact + replay).max(1) as f64,
                "frac",
            ),
            ("store.tax_ratio", tax_ratio, "ratio"),
            (
                "bench.trace_overhead_frac",
                turnaround_p50(&traced) / turnaround_p50(&plain) - 1.0,
                "frac",
            ),
        ],
    );
    out.layers(
        rounds - 1,
        &[
            ("selector.cg_ms", per_round(hvp.busy_ms), "ms"),
            ("selector.hvp_calls", per_round(hvp.calls as f64), "count"),
            ("selector.score_ms", per_round(score.busy_ms), "ms"),
            (
                "selector.scored_rows",
                per_round(score.rows as f64),
                "count",
            ),
            ("selector.bound_ms", per_round(selector_self.max(0.0)), "ms"),
            ("constructor.grad_ms", per_round(grad.busy_ms), "ms"),
            (
                "constructor.grad_rows",
                per_round(grad.rows as f64),
                "count",
            ),
            (
                "constructor.self_ms",
                per_round(constructor_self.max(0.0)),
                "ms",
            ),
            (
                "eval.predict_calls",
                per_round(predict.calls as f64),
                "count",
            ),
            ("eval.predict_ms", per_round(predict.busy_ms), "ms"),
            (
                "store.feature_rows_ms",
                per_round(feature_rows.busy_ms),
                "ms",
            ),
            (
                "store.feature_rows_calls",
                per_round(feature_rows.calls as f64),
                "count",
            ),
            (
                "store.feature_rows_rows",
                per_round(feature_rows.rows as f64),
                "count",
            ),
            ("store.prefetch_ms", per_round(prefetch.busy_ms), "ms"),
            (
                "store.prefetch_calls",
                per_round(prefetch.calls as f64),
                "count",
            ),
            (
                "store.prefetch_rows",
                per_round(prefetch.rows as f64),
                "count",
            ),
            (
                "store.row_calls",
                per_round(st.op(Op::Row, &rounds_phases).calls as f64),
                "count",
            ),
            ("store.self_ms", per_round(store_wall), "ms"),
            ("store.frac", store_wall / wall_ms, "frac"),
            ("bench.span_gap_frac", gap, "frac"),
        ],
    );
    out.layers(
        1,
        &[
            (
                "selector.init_ms",
                plain.select_ms[0] - median(&plain.select_ms),
                "ms",
            ),
            (
                "setup.grad_ms",
                end.op(Op::GradBlock, &[Phase::Setup]).busy_ms,
                "ms",
            ),
            ("store.open_ms", plain.open_ms, "ms"),
            ("store.verify_ms", io.verify_ms as f64, "ms"),
            ("store.blocks_verified", io.blocks_verified as f64, "count"),
            (
                "store.lazy_verify_hits",
                io.lazy_verify_hits as f64,
                "count",
            ),
            (
                "store.prefetch_overlap_ms",
                io.prefetch_overlap_ms as f64,
                "ms",
            ),
        ],
    );
    let writes = ckpt_writes.max(1) as f64;
    out.layers(
        ckpt_writes as usize,
        &[
            ("checkpoint.bytes", ckpt_bytes as f64 / writes, "bytes"),
            ("checkpoint.write_ms", ckpt_ms / writes, "ms"),
        ],
    );
    model_layers(&mut out, &st, &rounds_phases, steady, rounds - 1);
    annotation_layers(
        &mut out,
        report.rounds.iter().map(|r| &r.telemetry.annotation),
    );
    out
}

/// The `model` layer: kernel costs per row and per unit of work.
pub fn model_layers(m: &mut Outcome, t: &Snapshot, phases: &[Phase], units: f64, n: usize) {
    let per_row = |o: trace::OpTotals| {
        if o.rows == 0 {
            0.0
        } else {
            o.busy_ms * 1e6 / o.rows as f64
        }
    };
    let self_ms = t.wall(Layer::Model, phases) - t.wall(Layer::StoreInModel, phases);
    m.layers(
        n,
        &[
            (
                "model.score_ns_per_row",
                per_row(t.op(Op::ScoreBlock, phases)),
                "ns",
            ),
            (
                "model.grad_ns_per_row",
                per_row(t.op(Op::GradBlock, phases)),
                "ns",
            ),
            (
                "model.hvp_ms",
                t.op(Op::HvpBlock, phases).busy_ms / units,
                "ms",
            ),
            (
                "model.per_sample_calls",
                t.op(Op::PerSample, phases).calls as f64 / units,
                "count",
            ),
            ("model.self_ms", self_ms / units, "ms"),
        ],
    );
}

/// The `annotation` layer: shares of the requested samples.
pub fn annotation_layers<'a>(
    m: &mut Outcome,
    rounds: impl Iterator<Item = &'a chef_core::AnnotationTelemetry>,
) {
    let (mut req, mut cleaned, mut abstains, mut conflicts, mut n) = (0, 0, 0, 0, 0);
    for a in rounds {
        req += a.requested;
        cleaned += a.cleaned;
        abstains += a.abstains;
        conflicts += a.conflicts;
        n += 1;
    }
    let frac = |x: usize| x as f64 / req.max(1) as f64;
    m.layers(
        n,
        &[
            ("annotation.clean_frac", frac(cleaned), "frac"),
            ("annotation.abstain_frac", frac(abstains), "frac"),
            ("annotation.conflict_frac", frac(conflicts), "frac"),
        ],
    );
}

/// `(writes, bytes, write ms)` from the session's `telemetry.v1` export:
/// checkpoint writes happen inside `provide`, so the program's own
/// histogram is the only place their time is visible.
fn checkpoint_stats(tel: &Telemetry) -> (u64, u64, f64) {
    let sum_ms = tel
        .export_json("bench")
        .and_then(|doc| chef_obs::parse_json(&doc).ok())
        .and_then(|v| {
            v.get("histograms")?
                .get("checkpoint.write_ms")?
                .get("sum_ms")?
                .as_f64()
        })
        .unwrap_or(0.0);
    (
        tel.counter("checkpoint.writes"),
        tel.counter("checkpoint.bytes"),
        sum_ms,
    )
}
