//! The traced run's instruments: forwarding proxies for the `Model` and
//! `DatasetStore` traits that time and count every call into the model
//! kernels and the out-of-core store, plus in-memory phase spans.
//!
//! Calls aggregate into per-(phase, op) atomics, so rayon workers record
//! concurrently without locks. Block kernels and store reads also keep a
//! *wall* total per (phase, layer): the union of the intervals in which
//! at least one such call was running, which is what a layer costs the
//! round when its calls overlap on several threads. A store call made
//! from inside a model kernel is tagged as such, so the model layer's
//! self time can exclude it.

use chef_linalg::{KernelBackend, Workspace};
use chef_model::{DatasetStore, KernelPath, Model, SoftLabel, StoreIoStats};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The phase the driving thread is in; calls record under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Opening inputs through `round_loop` (init SGD, initial eval).
    Setup = 0,
    /// `RoundLoop::next_batch`: the selector.
    Select = 1,
    /// `AnnotationPhase::decide_batch`: the simulated panel.
    Annotate = 2,
    /// `RoundLoop::provide`: constructor, eval, checkpoint.
    Provide = 3,
    /// Served jobs, whose phases interleave on the pool workers.
    Serve = 4,
}
const PHASES: usize = 5;

/// A traced operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `Model::score_block`.
    ScoreBlock = 0,
    /// `Model::grad_block`.
    GradBlock = 1,
    /// `Model::hvp_block`.
    HvpBlock = 2,
    /// Non-block per-sample kernels: `grad`, `class_grad`, `hvp`, their
    /// `_ws` forms and the Hessian norms.
    PerSample = 3,
    /// Prediction and loss (the evaluation path).
    Predict = 4,
    /// `DatasetStore::feature_rows`.
    FeatureRows = 5,
    /// Residency hints: `prefetch_rows`, `advise_*`, `prefetch_upcoming`.
    Prefetch = 6,
    /// Per-row `DatasetStore::feature`, counted but not timed.
    Row = 7,
}
const OPS: usize = 8;

/// Layers whose wall time is tracked as a union of intervals.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// Model block kernels.
    Model = 0,
    /// Store reads and hints.
    Store = 1,
    /// Store reads and hints issued from inside a model kernel.
    StoreInModel = 2,
}
const LAYERS: usize = 3;

struct Cell3 {
    calls: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
}

struct Union {
    active: u32,
    since_ns: u64,
    wall_ns: u64,
}

struct Tracer {
    phase: AtomicUsize,
    ops: [[Cell3; OPS]; PHASES],
    unions: [[Mutex<Union>; LAYERS]; PHASES],
}

static TRACER: Tracer = Tracer {
    phase: AtomicUsize::new(0),
    ops: [const { [const { Cell3::new() }; OPS] }; PHASES],
    unions: [const { [const { Mutex::new(Union::new()) }; LAYERS] }; PHASES],
};

impl Cell3 {
    const fn new() -> Self {
        Self {
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }
}

impl Union {
    const fn new() -> Self {
        Self {
            active: 0,
            since_ns: 0,
            wall_ns: 0,
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// Depth of model-kernel calls on this thread (store calls inside
    /// one are tagged [`Layer::StoreInModel`]).
    static IN_MODEL: Cell<u32> = const { Cell::new(0) };
}

/// Set the phase subsequent calls record under.
pub fn set_phase(p: Phase) {
    TRACER.phase.store(p as usize, Relaxed);
}

/// Zero every counter (between traced runs in one process).
pub fn reset() {
    for phase in &TRACER.ops {
        for c in phase {
            c.calls.store(0, Relaxed);
            c.rows.store(0, Relaxed);
            c.busy_ns.store(0, Relaxed);
        }
    }
    for phase in &TRACER.unions {
        for u in phase {
            *u.lock().expect("trace union lock poisoned") = Union::new();
        }
    }
}

fn phase() -> usize {
    TRACER.phase.load(Relaxed)
}

fn enter(phase: usize, layer: Layer, t: u64) {
    let mut u = TRACER.unions[phase][layer as usize]
        .lock()
        .expect("trace union lock poisoned");
    if u.active == 0 {
        u.since_ns = t;
    }
    u.active += 1;
}

fn exit(phase: usize, layer: Layer, t: u64) {
    let mut u = TRACER.unions[phase][layer as usize]
        .lock()
        .expect("trace union lock poisoned");
    u.active -= 1;
    if u.active == 0 {
        u.wall_ns += t.saturating_sub(u.since_ns);
    }
}

/// Time a block call of `op` on `layer` (rows = work items).
fn timed<R>(op: Op, layer: Layer, rows: usize, f: impl FnOnce() -> R) -> R {
    let p = phase();
    let in_model = IN_MODEL.with(Cell::get) > 0;
    let layers: &[Layer] = match layer {
        Layer::Store if in_model => &[Layer::Store, Layer::StoreInModel],
        _ => std::slice::from_ref(&layer),
    };
    let t0 = now_ns();
    for &l in layers {
        enter(p, l, t0);
    }
    let is_model = matches!(layer, Layer::Model);
    if is_model {
        IN_MODEL.with(|c| c.set(c.get() + 1));
    }
    let out = f();
    if is_model {
        IN_MODEL.with(|c| c.set(c.get() - 1));
    }
    let t1 = now_ns();
    for &l in layers {
        exit(p, l, t1);
    }
    let c = &TRACER.ops[p][op as usize];
    c.calls.fetch_add(1, Relaxed);
    c.rows.fetch_add(rows as u64, Relaxed);
    c.busy_ns.fetch_add(t1 - t0, Relaxed);
    out
}

/// Count and busy-time a per-sample call (no wall union: these run by
/// the million and would serialize on the union lock).
fn counted<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    let c = &TRACER.ops[phase()][op as usize];
    c.calls.fetch_add(1, Relaxed);
    c.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
    out
}

/// Totals of one op.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTotals {
    /// Calls.
    pub calls: u64,
    /// Rows (block kernels and store reads), else 0.
    pub rows: u64,
    /// Thread-summed call time, ms.
    pub busy_ms: f64,
}

/// A copy of every counter at one instant; subtract two to get the
/// totals of the interval between them.
#[derive(Debug, Clone)]
pub struct Snapshot {
    ops: [[OpTotals; OPS]; PHASES],
    walls_ms: [[f64; LAYERS]; PHASES],
}

/// Copy the counters. Take it between calls: an interval still open in a
/// wall union is not counted yet.
pub fn snapshot() -> Snapshot {
    let mut s = Snapshot {
        ops: [[OpTotals::default(); OPS]; PHASES],
        walls_ms: [[0.0; LAYERS]; PHASES],
    };
    for p in 0..PHASES {
        for o in 0..OPS {
            let c = &TRACER.ops[p][o];
            s.ops[p][o] = OpTotals {
                calls: c.calls.load(Relaxed),
                rows: c.rows.load(Relaxed),
                busy_ms: c.busy_ns.load(Relaxed) as f64 / 1e6,
            };
        }
        for l in 0..LAYERS {
            let u = TRACER.unions[p][l]
                .lock()
                .expect("trace union lock poisoned");
            s.walls_ms[p][l] = u.wall_ns as f64 / 1e6;
        }
    }
    s
}

impl Snapshot {
    /// Totals of `op` over `phases`.
    pub fn op(&self, op: Op, phases: &[Phase]) -> OpTotals {
        let mut t = OpTotals::default();
        for &p in phases {
            let c = self.ops[p as usize][op as usize];
            t.calls += c.calls;
            t.rows += c.rows;
            t.busy_ms += c.busy_ms;
        }
        t
    }

    /// Wall ms in which at least one `layer` call ran, over `phases`.
    pub fn wall(&self, layer: Layer, phases: &[Phase]) -> f64 {
        phases
            .iter()
            .map(|&p| self.walls_ms[p as usize][layer as usize])
            .sum()
    }

    /// `self − earlier`, counter by counter.
    pub fn minus(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = self.clone();
        for p in 0..PHASES {
            for o in 0..OPS {
                let (a, b) = (&mut d.ops[p][o], earlier.ops[p][o]);
                a.calls -= b.calls;
                a.rows -= b.rows;
                a.busy_ms -= b.busy_ms;
            }
            for l in 0..LAYERS {
                d.walls_ms[p][l] -= earlier.walls_ms[p][l];
            }
        }
        d
    }
}

/// Forwards every [`Model`] method to the wrapped model, recording each
/// call. Results are the inner model's, bit for bit.
pub struct TracedModel {
    inner: Box<dyn Model + Send>,
}

impl TracedModel {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Model + Send>) -> Self {
        Self { inner }
    }
}

impl Model for TracedModel {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn predict_proba(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        counted(Op::Predict, || self.inner.predict_proba(w, x, out))
    }
    fn loss(&self, w: &[f64], x: &[f64], y: &SoftLabel) -> f64 {
        counted(Op::Predict, || self.inner.loss(w, x, y))
    }
    fn grad(&self, w: &[f64], x: &[f64], y: &SoftLabel, out: &mut [f64]) {
        counted(Op::PerSample, || self.inner.grad(w, x, y, out))
    }
    fn hvp(&self, w: &[f64], x: &[f64], y: &SoftLabel, v: &[f64], out: &mut [f64]) {
        counted(Op::PerSample, || self.inner.hvp(w, x, y, v, out))
    }
    fn class_grad(&self, w: &[f64], x: &[f64], class: usize, out: &mut [f64]) {
        counted(Op::PerSample, || self.inner.class_grad(w, x, class, out))
    }
    fn grad_ws(&self, w: &[f64], x: &[f64], y: &SoftLabel, out: &mut [f64], ws: &mut Workspace) {
        counted(Op::PerSample, || self.inner.grad_ws(w, x, y, out, ws))
    }
    fn hvp_ws(
        &self,
        w: &[f64],
        x: &[f64],
        y: &SoftLabel,
        v: &[f64],
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        counted(Op::PerSample, || self.inner.hvp_ws(w, x, y, v, out, ws))
    }
    fn class_grad_ws(
        &self,
        w: &[f64],
        x: &[f64],
        class: usize,
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        counted(Op::PerSample, || {
            self.inner.class_grad_ws(w, x, class, out, ws)
        })
    }
    fn scoring_kernel(&self) -> KernelPath {
        self.inner.scoring_kernel()
    }
    fn kernel_backend(&self) -> KernelBackend {
        self.inner.kernel_backend()
    }
    fn score_block(
        &self,
        w: &[f64],
        data: &dyn DatasetStore,
        block: &[usize],
        v: &[f64],
        class_dots: &mut [f64],
        label_dots: &mut [f64],
        ws: &mut Workspace,
    ) -> KernelPath {
        timed(Op::ScoreBlock, Layer::Model, block.len(), || {
            self.inner
                .score_block(w, data, block, v, class_dots, label_dots, ws)
        })
    }
    fn grad_block(
        &self,
        w: &[f64],
        data: &dyn DatasetStore,
        batch: &[usize],
        gamma: f64,
        out: &mut [f64],
        ws: &mut Workspace,
    ) -> KernelPath {
        timed(Op::GradBlock, Layer::Model, batch.len(), || {
            self.inner.grad_block(w, data, batch, gamma, out, ws)
        })
    }
    fn hvp_block(
        &self,
        w: &[f64],
        data: &dyn DatasetStore,
        batch: &[usize],
        gamma: f64,
        v: &[f64],
        out: &mut [f64],
        ws: &mut Workspace,
    ) -> KernelPath {
        timed(Op::HvpBlock, Layer::Model, batch.len(), || {
            self.inner.hvp_block(w, data, batch, gamma, v, out, ws)
        })
    }
    fn hessian_norm(&self, w: &[f64], x: &[f64], y: &SoftLabel) -> f64 {
        counted(Op::PerSample, || self.inner.hessian_norm(w, x, y))
    }
    fn class_hessian_norm(&self, w: &[f64], x: &[f64], class: usize) -> f64 {
        counted(Op::PerSample, || self.inner.class_hessian_norm(w, x, class))
    }
    fn initial_params(&self, seed: u64) -> Vec<f64> {
        self.inner.initial_params(seed)
    }
    fn predict(&self, w: &[f64], x: &[f64]) -> Vec<f64> {
        counted(Op::Predict, || self.inner.predict(w, x))
    }
    fn predict_class(&self, w: &[f64], x: &[f64]) -> usize {
        counted(Op::Predict, || self.inner.predict_class(w, x))
    }
}

/// Forwards every [`DatasetStore`] method to the wrapped store. Calls
/// are recorded only for stores that report I/O statistics — the
/// out-of-core store layer; an in-memory `Dataset` is forwarded
/// untouched, so the store layer reads 0 where it is bypassed.
pub struct TracedStore<'a> {
    inner: &'a mut dyn DatasetStore,
    record: bool,
}

impl<'a> TracedStore<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn DatasetStore) -> Self {
        let record = inner.io_stats().is_some();
        Self { inner, record }
    }

    fn hint(&self, rows: usize, f: impl FnOnce()) {
        if self.record {
            timed(Op::Prefetch, Layer::Store, rows, f);
        } else {
            f();
        }
    }
}

impl DatasetStore for TracedStore<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn feature(&self, i: usize) -> &[f64] {
        if self.record {
            TRACER.ops[phase()][Op::Row as usize]
                .calls
                .fetch_add(1, Relaxed);
        }
        self.inner.feature(i)
    }
    fn feature_rows(&self, lo: usize, hi: usize) -> &[f64] {
        if self.record {
            timed(Op::FeatureRows, Layer::Store, hi - lo, || {
                self.inner.feature_rows(lo, hi)
            })
        } else {
            self.inner.feature_rows(lo, hi)
        }
    }
    fn contiguous_limit(&self, lo: usize) -> usize {
        self.inner.contiguous_limit(lo)
    }
    fn shard_boundaries(&self) -> Vec<usize> {
        self.inner.shard_boundaries()
    }
    fn label(&self, i: usize) -> &SoftLabel {
        self.inner.label(i)
    }
    fn is_clean(&self, i: usize) -> bool {
        self.inner.is_clean(i)
    }
    fn weight(&self, i: usize, gamma: f64) -> f64 {
        self.inner.weight(i, gamma)
    }
    fn ground_truth(&self, i: usize) -> Option<usize> {
        self.inner.ground_truth(i)
    }
    fn clean_label(&mut self, i: usize, label: SoftLabel) {
        self.inner.clean_label(i, label);
    }
    fn set_label(&mut self, i: usize, label: SoftLabel) {
        self.inner.set_label(i, label);
    }
    fn mark_uncleaned(&mut self, i: usize) {
        self.inner.mark_uncleaned(i);
    }
    fn uncleaned_indices(&self) -> Vec<usize> {
        self.inner.uncleaned_indices()
    }
    fn num_clean(&self) -> usize {
        self.inner.num_clean()
    }
    fn prefetch_rows(&self, rows: &[usize]) {
        self.hint(rows.len(), || self.inner.prefetch_rows(rows));
    }
    fn advise_range(&self, lo: usize, hi: usize) {
        self.hint(hi - lo, || self.inner.advise_range(lo, hi));
    }
    fn advise_scanned(&self, lo: usize, hi: usize) {
        self.hint(hi - lo, || self.inner.advise_scanned(lo, hi));
    }
    fn prefetch_upcoming(&self, lo: usize, hi: usize) {
        self.hint(hi - lo, || self.inner.prefetch_upcoming(lo, hi));
    }
    fn io_stats(&self) -> Option<StoreIoStats> {
        self.inner.io_stats()
    }
    fn to_dataset(&self) -> chef_model::Dataset {
        self.inner.to_dataset()
    }
}

/// One recorded phase span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `session`, `setup`, `round`, `round.select`, `round.annotate` or
    /// `round.provide`.
    pub name: &'static str,
    /// Start, µs since the recorder was created.
    pub start_us: u64,
    /// End, µs since the recorder was created.
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round id of round spans.
    pub round: Option<usize>,
}

impl Span {
    /// Duration, ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e3
    }
}

/// In-memory span recorder, written out when the run ends.
pub struct Spans {
    origin: Instant,
    /// Every span, in the order recorded.
    pub spans: Vec<Span>,
}

impl Spans {
    /// Empty recorder; times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Record a span; returns its index, the `parent` of its children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        round: Option<usize>,
    ) -> usize {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Move the end of span `i` to `end`.
    pub fn close_at(&mut self, i: usize, end: Instant) {
        self.spans[i].end_us = self.us(end);
    }
}
