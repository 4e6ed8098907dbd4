//! **Infl** — the paper's modified influence function (Eq. 6).
//!
//! For an uncleaned sample `z̃` and a candidate deterministic label `c`
//! with perturbation `δ_y = onehot(c) − ỹ`, Infl estimates the change in
//! validation loss caused by *cleaning* (changing the label **and**
//! up-weighting the sample from γ to 1):
//!
//! ```text
//! I_pert(z̃, δ_y, γ) = −∇F(w, Z_val)ᵀ H⁻¹(w) [∇_y∇_w F(w, z̃) δ_y
//!                                            + (1 − γ) ∇_w F(w, z̃)]
//! ```
//!
//! A *negative* value means cleaning `z̃` to class `c` would reduce the
//! validation loss, so the most negative (sample, class) pairs are both
//! the cleaning priorities and the suggested labels. The Hessian-inverse
//! product is formed once per round with conjugate gradients over
//! Hessian-vector products (§4.1.1) and reused for every sample, so a
//! full pass costs one CG solve plus `C` per-class gradients per sample.

use crate::PAR_GRAIN;
use chef_linalg::cg::{conjugate_gradient, conjugate_gradient_from, CgConfig};
use chef_linalg::{vector, Workspace};
#[cfg(test)]
use chef_model::Dataset;
use chef_model::{DatasetStore, Model, WeightedObjective};
use std::cmp::Ordering;

/// Configuration for influence computations.
#[derive(Debug, Clone, Copy)]
pub struct InflConfig {
    /// Conjugate-gradient settings for the `H⁻¹v` solve.
    pub cg: CgConfig,
    /// Subsample the training-set Hessian to at most this many samples
    /// for the CG solve (0 disables subsampling). This is the standard
    /// stochastic-estimation trick of Koh & Liang; without it the CG
    /// phase would dwarf the gradient phase that Exp2 isolates.
    pub hessian_batch: usize,
    /// Seed for the Hessian subsample.
    pub seed: u64,
}

impl Default for InflConfig {
    fn default() -> Self {
        Self {
            cg: CgConfig {
                max_iters: 100,
                tol: 1e-7,
                damping: 0.0,
            },
            hessian_batch: 2048,
            seed: 0x1f1,
        }
    }
}

impl InflConfig {
    /// The configuration for cleaning round `round`: identical CG
    /// settings, but the Hessian-subsample seed deterministically mixed
    /// with the round index (splitmix64's odd multiplier) so each round
    /// sketches a *different* subset of training rows. Round 0 leaves
    /// the base seed unchanged, so single-shot callers are unaffected.
    pub fn for_round(&self, round: usize) -> Self {
        Self {
            seed: self.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..*self
        }
    }
}

/// The influence of cleaning one sample to its best candidate label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflScore {
    /// Training-set index of the sample.
    pub index: usize,
    /// The deterministic label whose perturbation minimizes Eq. 6 — the
    /// label Infl suggests to the annotators.
    pub suggested: usize,
    /// The minimized influence value (most negative = most harmful).
    pub score: f64,
}

/// Result of the once-per-round `H⁻¹ ∇F_val` solve, with the CG cost
/// counters the telemetry layer reports (`hvp_evals` in telemetry.v1).
#[derive(Debug, Clone)]
pub struct InflVectorOutcome {
    /// The influence vector `v = H⁻¹(w) ∇F(w, Z_val)`.
    pub v: Vec<f64>,
    /// Conjugate-gradient iterations the solve took.
    pub cg_iters: usize,
    /// Whether CG hit its residual tolerance within the iteration budget.
    pub cg_converged: bool,
    /// Hessian-vector products applied (the solve's dominant cost).
    pub hvp_evals: usize,
    /// Whether the Hessian was subsampled to `cfg.hessian_batch` rows.
    pub hessian_subsampled: bool,
}

/// Compute `v = H⁻¹(w) ∇F(w, Z_val)` — shared by Infl, Infl-D and Infl-Y.
///
/// The sign convention follows the paper's `vᵀ = −∇F_valᵀ H⁻¹` *without*
/// the minus: callers negate where Eq. 6 does.
pub fn influence_vector<M: Model + ?Sized>(
    model: &M,
    objective: &WeightedObjective,
    data: &dyn DatasetStore,
    val: &dyn DatasetStore,
    w: &[f64],
    cfg: &InflConfig,
) -> Vec<f64> {
    influence_vector_outcome(model, objective, data, val, w, cfg).v
}

/// [`influence_vector`] plus the solve's cost counters, for telemetry.
pub fn influence_vector_outcome<M: Model + ?Sized>(
    model: &M,
    objective: &WeightedObjective,
    data: &dyn DatasetStore,
    val: &dyn DatasetStore,
    w: &[f64],
    cfg: &InflConfig,
) -> InflVectorOutcome {
    influence_vector_outcome_from(model, objective, data, val, w, cfg, None)
}

/// [`influence_vector_outcome`] with an optional warm start for the CG
/// solve. Between cleaning rounds `w` (and hence `H(w)` and `∇F_val`)
/// moves only as far as one small-batch model update, so the previous
/// round's solution `v` is an excellent initial iterate: CG still runs
/// to the *same* fixed residual tolerance and only the iteration count
/// changes. Pass `None` (or a guess of the wrong dimension, which is
/// ignored) for the cold zero start; the warm path costs one extra HVP
/// to form the initial residual, counted in `hvp_evals`.
#[allow(clippy::too_many_arguments)]
pub fn influence_vector_outcome_from<M: Model + ?Sized>(
    model: &M,
    objective: &WeightedObjective,
    data: &dyn DatasetStore,
    val: &dyn DatasetStore,
    w: &[f64],
    cfg: &InflConfig,
    warm_start: Option<&[f64]>,
) -> InflVectorOutcome {
    let mut val_grad = vec![0.0; model.num_params()];
    objective.val_grad(model, val, w, &mut val_grad);
    let warm = warm_start.filter(|x0| x0.len() == val_grad.len());
    let subsampled = cfg.hessian_batch > 0 && data.len() > cfg.hessian_batch;
    let (out, hvp_evals) = if subsampled {
        let batch = hessian_subsample(data.len(), cfg.hessian_batch, cfg.seed);
        let op = objective.hessian_operator_on(model, data, w, batch);
        let out = match warm {
            Some(x0) => conjugate_gradient_from(&op, &val_grad, x0, &cfg.cg),
            None => conjugate_gradient(&op, &val_grad, &cfg.cg),
        };
        (out, op.applies())
    } else {
        let op = objective.hessian_operator(model, data, w);
        let out = match warm {
            Some(x0) => conjugate_gradient_from(&op, &val_grad, x0, &cfg.cg),
            None => conjugate_gradient(&op, &val_grad, &cfg.cg),
        };
        (out, op.applies())
    };
    InflVectorOutcome {
        v: out.x,
        cg_iters: out.iters,
        cg_converged: out.converged,
        hvp_evals,
        hessian_subsampled: subsampled,
    }
}

/// Deterministic uniform subsample of `k` out of `n` indices.
fn hessian_subsample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    idx.truncate(k);
    idx
}

/// Evaluate Eq. 6 for one sample and one candidate label, given the
/// precomputed influence vector `v = H⁻¹ ∇F_val`.
///
/// `I_pert = −vᵀ [∇_y∇_wF · δ_y + (1−γ) ∇_wF]`, where column `c` of
/// `∇_y∇_wF` is the per-class gradient `−∇_w log p⁽ᶜ⁾` (Eq. 9), so the
/// matrix-vector product is evaluated class-by-class without ever
/// materializing the `m × C` matrix.
#[allow(clippy::too_many_arguments)]
pub fn influence_of_label<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    index: usize,
    class: usize,
    gamma: f64,
    scratch: &mut InflScratch,
) -> f64 {
    let x = data.feature(index);
    let y = data.label(index);
    let delta = y.delta_to(class);
    let mut acc = 0.0;
    for (c, &d) in delta.iter().enumerate() {
        if d == 0.0 {
            continue;
        }
        model.class_grad(w, x, c, &mut scratch.grad);
        acc += d * vector::dot(v, &scratch.grad);
    }
    if gamma < 1.0 {
        model.grad(w, x, y, &mut scratch.grad);
        acc += (1.0 - gamma) * vector::dot(v, &scratch.grad);
    }
    -acc
}

/// Reusable gradient buffer for influence evaluations.
#[derive(Debug, Clone)]
pub struct InflScratch {
    grad: Vec<f64>,
}

impl InflScratch {
    /// Allocate scratch for a model.
    pub fn new<M: Model + ?Sized>(model: &M) -> Self {
        Self {
            grad: vec![0.0; model.num_params()],
        }
    }
}

/// Score every index in `candidates` with Infl, returning results sorted
/// ascending by score (most harmful first).
///
/// This is the "Full" evaluation path of the paper's Exp2; Increm-Infl
/// narrows `candidates` before calling it.
pub fn rank_infl<M: Model + ?Sized>(
    model: &M,
    objective: &WeightedObjective,
    data: &dyn DatasetStore,
    val: &dyn DatasetStore,
    w: &[f64],
    candidates: &[usize],
    cfg: &InflConfig,
) -> Vec<InflScore> {
    let v = influence_vector(model, objective, data, val, w, cfg);
    rank_infl_with_vector(model, data, w, &v, candidates, objective.gamma)
}

/// Candidates per [`Model::score_block`] call. Sized so one block's GEMM
/// panels (`block × d` features, `block × C` probabilities and dots)
/// stay cache-resident while still amortizing the panel setup.
const SCORE_BLOCK: usize = 256;

/// Deterministic total order on scores: ascending score (most harmful
/// first), ties broken by training-set index. Using the index — rather
/// than position in the candidate slice — makes the ranking independent
/// of candidate order, so Increm-Infl's pruned pool and the full pool
/// sort tied samples identically.
fn cmp_scores(a: &InflScore, b: &InflScore) -> Ordering {
    a.score.total_cmp(&b.score).then(a.index.cmp(&b.index))
}

/// Score one block of candidates through [`Model::score_block`] and push
/// the per-sample best-class scores onto `out`.
///
/// Per sample the block kernel hands back `vᵀ∇_w(−log p⁽ᶜ⁾)` for every
/// class plus `vᵀ∇_wF`; Eq. 6 for candidate class `c` is then
/// `−((cd[c] − ỹᵀcd) + (1−γ)·ld)` — the `δ_y = onehot(c) − ỹ` contraction
/// costs O(C) total because the `ỹᵀcd` term is shared by all classes.
/// The best class is chosen by strict `<`, first class on ties, matching
/// [`score_candidate`].
#[allow(clippy::too_many_arguments)]
fn score_block_into<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    block: &[usize],
    gamma: f64,
    ws: &mut Workspace,
    out: &mut Vec<InflScore>,
) {
    let c = model.num_classes();
    let mut class_dots = ws.take_uninit(block.len() * c);
    let mut label_dots = ws.take_uninit(block.len());
    model.score_block(w, data, block, v, &mut class_dots, &mut label_dots, ws);
    for (r, &i) in block.iter().enumerate() {
        let cd = &class_dots[r * c..(r + 1) * c];
        let mut ydot = 0.0;
        for (k, &p) in data.label(i).probs().iter().enumerate() {
            ydot += p * cd[k];
        }
        let upweight = if gamma < 1.0 {
            (1.0 - gamma) * label_dots[r]
        } else {
            0.0
        };
        let mut best_class = 0;
        let mut best = f64::INFINITY;
        for (k, &cdk) in cd.iter().enumerate() {
            let s = -((cdk - ydot) + upweight);
            if s < best {
                best = s;
                best_class = k;
            }
        }
        out.push(InflScore {
            index: i,
            suggested: best_class,
            score: best,
        });
    }
    ws.put(label_dots);
    ws.put(class_dots);
}

/// Score every candidate through the blocked kernel path, unsorted, in
/// candidate order. [`SCORE_BLOCK`]-sized blocks fan out over the
/// thread pool above [`PAR_GRAIN`] candidates — but only on a
/// pool with more than one worker: at one worker the fan-out's
/// per-block workspaces, output vectors and final merge are pure
/// overhead (the cause of the parallel-slower-than-serial rank cells in
/// earlier BENCH_selector.json runs). Each sample's dots are
/// row-independent affine products, so scores are bit-identical to the
/// serial blocked path regardless of block grouping.
fn score_all_blocked<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    candidates: &[usize],
    gamma: f64,
) -> Vec<InflScore> {
    if candidates.len() >= PAR_GRAIN && rayon::current_num_threads() > 1 {
        use rayon::prelude::*;
        let nblocks = candidates.len().div_ceil(SCORE_BLOCK);
        let per_block: Vec<Vec<InflScore>> = (0..nblocks)
            .into_par_iter()
            .map_init(Workspace::new, |ws, bi| {
                let lo = bi * SCORE_BLOCK;
                let hi = (lo + SCORE_BLOCK).min(candidates.len());
                let block = &candidates[lo..hi];
                let mut out = Vec::with_capacity(block.len());
                score_block_into(model, data, w, v, block, gamma, ws, &mut out);
                out
            })
            .collect();
        let mut scores = Vec::with_capacity(candidates.len());
        for mut b in per_block {
            scores.append(&mut b);
        }
        return scores;
    }
    let mut ws = Workspace::new();
    let mut scores = Vec::with_capacity(candidates.len());
    for block in candidates.chunks(SCORE_BLOCK) {
        score_block_into(model, data, w, v, block, gamma, &mut ws, &mut scores);
    }
    scores
}

/// Score one candidate: best (most negative) Eq. 6 influence over the
/// `C` class perturbations. Shared by the serial and parallel rankers.
fn score_candidate<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    index: usize,
    gamma: f64,
    scratch: &mut InflScratch,
) -> InflScore {
    let mut best_class = 0;
    let mut best = f64::INFINITY;
    for c in 0..model.num_classes() {
        let s = influence_of_label(model, data, w, v, index, c, gamma, scratch);
        if s < best {
            best = s;
            best_class = c;
        }
    }
    InflScore {
        index,
        suggested: best_class,
        score: best,
    }
}

/// [`rank_infl`] with a precomputed influence vector (lets callers share
/// one CG solve across selector variants).
///
/// Scoring runs through the model's batched [`Model::score_block`]
/// kernel in `SCORE_BLOCK`-sized blocks; on a multi-worker pool,
/// candidate sets of at least `PAR_GRAIN` fan the blocks out over the
/// thread pool. Per-sample dots are row-independent, so scores
/// are bit-identical to the serial blocked path regardless of block
/// grouping or candidate order, and the `(score, index)` sort makes the
/// full ranking deterministic even under exact score ties.
pub fn rank_infl_with_vector<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    candidates: &[usize],
    gamma: f64,
) -> Vec<InflScore> {
    let mut scores = score_all_blocked(model, data, w, v, candidates, gamma);
    scores.sort_unstable_by(cmp_scores);
    scores
}

/// Single-threaded [`rank_infl_with_vector`]. The public entry point
/// produces bit-identical results above the parallel grain size, and
/// the speedup bench calls this directly as the baseline.
pub fn rank_infl_with_vector_serial<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    candidates: &[usize],
    gamma: f64,
) -> Vec<InflScore> {
    let mut ws = Workspace::new();
    let mut scores = Vec::with_capacity(candidates.len());
    for block in candidates.chunks(SCORE_BLOCK) {
        score_block_into(model, data, w, v, block, gamma, &mut ws, &mut scores);
    }
    scores.sort_unstable_by(cmp_scores);
    scores
}

/// Top-`b` variant of [`rank_infl_with_vector`] for callers that only
/// consume a cleaning batch: scores every candidate through the same
/// blocked kernels, then selects the `b` most harmful with an O(n)
/// partial selection (`select_nth_unstable_by`) instead of sorting the
/// full pool, and sorts only those `b`. The `(score, index)` total order
/// makes the result deterministic and exactly equal to
/// `rank_infl_with_vector(..)[..b]`.
pub fn rank_infl_top_b<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    candidates: &[usize],
    gamma: f64,
    b: usize,
) -> Vec<InflScore> {
    let mut scores = score_all_blocked(model, data, w, v, candidates, gamma);
    if b == 0 {
        return Vec::new();
    }
    if b < scores.len() {
        scores.select_nth_unstable_by(b - 1, cmp_scores);
        scores.truncate(b);
    }
    scores.sort_unstable_by(cmp_scores);
    scores
}

/// Sharded [`rank_infl_top_b`]: scores candidates one storage shard at
/// a time, releasing each shard's residency before touching the next,
/// and merges the per-shard top-`b` lists under the same
/// `(score, index)` total order.
///
/// **Determinism argument** (DESIGN.md §15.4): every candidate's score
/// depends only on its own feature row, label and the shared `(w, v)`
/// vectors, never on which shard scored it — the blocked kernels read
/// rows through the same `DatasetStore` surface either way. The global
/// top-`b` under a total order is therefore exactly the top-`b` of the
/// union of per-shard top-`b` lists: any sample ranked inside the
/// global top-`b` is necessarily inside its own shard's top-`b`. The
/// k-way merge compares with `cmp_scores`, whose index tie-break
/// makes the result independent of shard boundaries and shard visit
/// order — bit-identical to `rank_infl_top_b` over the whole pool.
///
/// On a single-shard store (`shard_boundaries() == [0, n]`) this *is*
/// `rank_infl_top_b`, so in-memory callers pay nothing.
pub fn rank_infl_top_b_sharded<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    candidates: &[usize],
    gamma: f64,
    b: usize,
) -> Vec<InflScore> {
    let bounds = data.shard_boundaries();
    if bounds.len() <= 2 {
        return rank_infl_top_b(model, data, w, v, candidates, gamma, b);
    }
    if b == 0 {
        return Vec::new();
    }
    // Partition the candidate pool by shard. Candidates arrive in any
    // order; a per-shard bucket scan keeps this O(n + k).
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); bounds.len() - 1];
    for &i in candidates {
        // bounds is sorted ascending; partition_point finds the shard.
        let s = bounds.partition_point(|&lo| lo <= i) - 1;
        buckets[s].push(i);
    }
    let mut per_shard: Vec<Vec<InflScore>> = Vec::new();
    for (s, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let (lo, hi) = (bounds[s], bounds[s + 1]);
        // Hand the *next* populated shard to the store's background
        // verify-and-warm worker (a no-op for in-memory data or serial
        // builds) so its I/O overlaps this shard's scoring.
        if let Some(t) = (s + 1..buckets.len()).find(|&t| !buckets[t].is_empty()) {
            data.prefetch_upcoming(bounds[t], bounds[t + 1]);
        }
        per_shard.push(rank_infl_top_b(model, data, w, v, bucket, gamma, b));
        data.advise_scanned(lo, hi);
    }
    merge_top_b(per_shard, b)
}

/// Deterministic k-way merge of `cmp_scores`-sorted lists into the
/// global top-`b`. The comparator is a total order (index tie-break),
/// so the output is independent of the order of `lists`.
fn merge_top_b(lists: Vec<Vec<InflScore>>, b: usize) -> Vec<InflScore> {
    let mut heads = vec![0usize; lists.len()];
    let mut out = Vec::with_capacity(b.min(lists.iter().map(Vec::len).sum()));
    while out.len() < b {
        let mut best: Option<usize> = None;
        for (l, list) in lists.iter().enumerate() {
            if heads[l] >= list.len() {
                continue;
            }
            best = match best {
                None => Some(l),
                Some(k) if cmp_scores(&list[heads[l]], &lists[k][heads[k]]) == Ordering::Less => {
                    Some(l)
                }
                keep => keep,
            };
        }
        let Some(l) = best else { break };
        out.push(lists[l][heads[l]]);
        heads[l] += 1;
    }
    out
}

/// Per-sample reference ranking: the pre-batching implementation, one
/// `C + 1`-gradient `score_candidate` loop per candidate. Kept as the
/// equivalence baseline the batched kernels are tested and benchmarked
/// against (`infl_kernel_equivalence`, the `infl_kernels` bench); not
/// used by the pipeline.
pub fn rank_infl_with_vector_per_sample<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w: &[f64],
    v: &[f64],
    candidates: &[usize],
    gamma: f64,
) -> Vec<InflScore> {
    let mut scratch = InflScratch::new(model);
    let mut scores: Vec<InflScore> = candidates
        .iter()
        .map(|&i| score_candidate(model, data, w, v, i, gamma, &mut scratch))
        .collect();
    scores.sort_unstable_by(cmp_scores);
    scores
}

/// Direct (no-approximation) estimate of Eq. 6's target quantity: retrain
/// with sample `index` cleaned to `class` (weight 1) and report
/// `N · (F(w_U, Z_val) − F(w, Z_val))`. Used as a ground-truth oracle in
/// tests — it is exactly what the influence function linearizes.
#[cfg(test)]
pub(crate) fn brute_force_influence(
    model: &chef_model::LogisticRegression,
    objective: &WeightedObjective,
    data: &Dataset,
    val: &Dataset,
    index: usize,
    class: usize,
) -> f64 {
    use chef_model::SoftLabel;
    // Minimize both objectives to high precision with full-batch GD.
    let minimize = |d: &Dataset| -> Vec<f64> {
        let mut w = vec![0.0; chef_model::Model::num_params(model)];
        let mut g = vec![0.0; w.len()];
        let idx: Vec<usize> = (0..d.len()).collect();
        for _ in 0..8000 {
            objective.batch_grad(model, d, &idx, &w, &mut g);
            vector::axpy(-0.5, &g, &mut w);
            if vector::norm2(&g) < 1e-10 {
                break;
            }
        }
        w
    };
    let w_orig = minimize(data);
    let mut cleaned = data.clone();
    cleaned.clean_label(index, SoftLabel::onehot(class, data.num_classes()));
    let w_clean = minimize(&cleaned);
    data.len() as f64
        * (objective.val_loss(model, val, &w_clean) - objective.val_loss(model, val, &w_orig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_linalg::Matrix;
    use chef_model::{LogisticRegression, SoftLabel};
    use chef_train::{train, SgdConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Small weakly-labeled problem where one sample's label is flipped.
    fn fixture(seed: u64) -> (LogisticRegression, WeightedObjective, Dataset, Dataset) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 60;
        let mut raw = Vec::new();
        let mut labels = Vec::new();
        let mut clean = Vec::new();
        let mut truth = Vec::new();
        for i in 0..n {
            let c = usize::from(i % 2 == 1);
            let sign = if c == 1 { 1.0 } else { -1.0 };
            raw.push(sign * 1.2 + rng.gen_range(-0.8..0.8));
            raw.push(sign * 1.2 + rng.gen_range(-0.8..0.8));
            // Mildly informative probabilistic labels.
            let p_true = rng.gen_range(0.55..0.9);
            let l = if c == 1 {
                SoftLabel::new(vec![1.0 - p_true, p_true])
            } else {
                SoftLabel::new(vec![p_true, 1.0 - p_true])
            };
            labels.push(l);
            clean.push(false);
            truth.push(Some(c));
        }
        // Sample 0 gets a confidently *wrong* label: the most harmful one.
        labels[0] = SoftLabel::new(vec![0.02, 0.98]); // truth is class 0
        let data = Dataset::new(Matrix::from_vec(n, 2, raw), labels, clean, truth, 2);

        let mut vraw = Vec::new();
        let mut vlabels = Vec::new();
        let mut vtruth = Vec::new();
        for i in 0..30 {
            let c = usize::from(i % 2 == 1);
            let sign = if c == 1 { 1.0 } else { -1.0 };
            vraw.push(sign * 1.2 + rng.gen_range(-0.8..0.8));
            vraw.push(sign * 1.2 + rng.gen_range(-0.8..0.8));
            vlabels.push(SoftLabel::onehot(c, 2));
            vtruth.push(Some(c));
        }
        let val = Dataset::new(
            Matrix::from_vec(30, 2, vraw),
            vlabels,
            vec![true; 30],
            vtruth,
            2,
        );
        let model = LogisticRegression::new(2, 2);
        let obj = WeightedObjective::new(0.8, 0.1);
        (model, obj, data, val)
    }

    fn fit(model: &LogisticRegression, obj: &WeightedObjective, data: &Dataset) -> Vec<f64> {
        let cfg = SgdConfig {
            lr: 0.2,
            epochs: 60,
            batch_size: 60,
            seed: 5,
            cache_provenance: false,
        };
        let w0 = vec![0.0; chef_model::Model::num_params(model)];
        train(model, obj, data, &w0, &cfg).w
    }

    #[test]
    fn influence_vector_solves_hessian_system() {
        let (model, obj, data, val) = fixture(1);
        let w = fit(&model, &obj, &data);
        let v = influence_vector(&model, &obj, &data, &val, &w, &InflConfig::default());
        // H v must equal ∇F_val.
        let mut hv = vec![0.0; v.len()];
        obj.hvp(&model, &data, &w, &v, &mut hv);
        let mut val_grad = vec![0.0; v.len()];
        obj.val_grad(&model, &val, &w, &mut val_grad);
        for (a, b) in hv.iter().zip(&val_grad) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn flipped_sample_is_ranked_most_harmful() {
        let (model, obj, data, val) = fixture(2);
        let w = fit(&model, &obj, &data);
        let all: Vec<usize> = data.uncleaned_indices();
        let ranked = rank_infl(&model, &obj, &data, &val, &w, &all, &InflConfig::default());
        // The poisoned sample 0 should appear very near the top.
        let pos = ranked.iter().position(|s| s.index == 0).unwrap();
        assert!(pos < 5, "poisoned sample ranked {pos}");
        // And the suggested label must be its ground truth (class 0).
        assert_eq!(ranked[pos].suggested, 0);
    }

    #[test]
    fn scores_are_sorted_ascending() {
        let (model, obj, data, val) = fixture(3);
        let w = fit(&model, &obj, &data);
        let all = data.uncleaned_indices();
        let ranked = rank_infl(&model, &obj, &data, &val, &w, &all, &InflConfig::default());
        for pair in ranked.windows(2) {
            assert!(pair[0].score <= pair[1].score);
        }
        assert_eq!(ranked.len(), all.len());
    }

    #[test]
    fn influence_approximates_brute_force_retraining() {
        // The headline correctness property: Eq. 6 linearizes the actual
        // change in validation loss under clean-and-upweight.
        let (model, obj, data, val) = fixture(4);
        // Use the exact minimizer so the influence function's stationarity
        // assumption holds.
        let w = {
            let idx: Vec<usize> = (0..data.len()).collect();
            let mut w = vec![0.0; chef_model::Model::num_params(&model)];
            let mut g = vec![0.0; w.len()];
            for _ in 0..8000 {
                obj.batch_grad(&model, &data, &idx, &w, &mut g);
                vector::axpy(-0.5, &g, &mut w);
            }
            w
        };
        let v = influence_vector(&model, &obj, &data, &val, &w, &InflConfig::default());
        let mut scratch = InflScratch::new(&model);
        for &(index, class) in &[(0usize, 0usize), (2, 1), (7, 0)] {
            let predicted =
                influence_of_label(&model, &data, &w, &v, index, class, obj.gamma, &mut scratch);
            let actual = brute_force_influence(&model, &obj, &data, &val, index, class);
            // First-order estimates: agree in sign and magnitude scale.
            assert!(
                (predicted - actual).abs() < 0.35 * actual.abs().max(0.25),
                "sample {index}→{class}: predicted {predicted}, actual {actual}"
            );
        }
    }

    #[test]
    fn blocked_ranking_matches_per_sample_reference() {
        let (model, obj, data, val) = fixture(6);
        let w = fit(&model, &obj, &data);
        let v = influence_vector(&model, &obj, &data, &val, &w, &InflConfig::default());
        let all = data.uncleaned_indices();
        let blocked = rank_infl_with_vector(&model, &data, &w, &v, &all, obj.gamma);
        let serial = rank_infl_with_vector_serial(&model, &data, &w, &v, &all, obj.gamma);
        let reference = rank_infl_with_vector_per_sample(&model, &data, &w, &v, &all, obj.gamma);
        assert_eq!(blocked.len(), reference.len());
        for (b, s) in blocked.iter().zip(&serial) {
            // Blocked parallel and blocked serial are bit-identical.
            assert_eq!(b.index, s.index);
            assert_eq!(b.suggested, s.suggested);
            assert_eq!(b.score.to_bits(), s.score.to_bits());
        }
        for (b, r) in blocked.iter().zip(&reference) {
            assert_eq!(b.index, r.index);
            assert_eq!(b.suggested, r.suggested);
            assert!(
                (b.score - r.score).abs() <= 1e-10 * (1.0 + r.score.abs()),
                "index {}: blocked {} vs per-sample {}",
                b.index,
                b.score,
                r.score
            );
        }
    }

    #[test]
    fn top_b_equals_full_ranking_prefix() {
        let (model, obj, data, val) = fixture(7);
        let w = fit(&model, &obj, &data);
        let v = influence_vector(&model, &obj, &data, &val, &w, &InflConfig::default());
        let all = data.uncleaned_indices();
        let full = rank_infl_with_vector(&model, &data, &w, &v, &all, obj.gamma);
        for b in [0, 1, 5, all.len(), all.len() + 10] {
            let top = rank_infl_top_b(&model, &data, &w, &v, &all, obj.gamma, b);
            let want = &full[..b.min(full.len())];
            assert_eq!(top.len(), want.len(), "b = {b}");
            for (t, f) in top.iter().zip(want) {
                assert_eq!(t.index, f.index, "b = {b}");
                assert_eq!(t.suggested, f.suggested);
                assert_eq!(t.score.to_bits(), f.score.to_bits());
            }
        }
    }

    #[test]
    fn cmp_scores_totally_orders_non_finite_scores() {
        let s = |score: f64, index: usize| InflScore {
            index,
            suggested: 0,
            score,
        };
        let mut scores = vec![
            s(f64::NAN, 9),
            s(f64::INFINITY, 8),
            s(0.0, 7),
            s(f64::NEG_INFINITY, 6),
            s(-1.0, 5),
            s(f64::NAN, 1),
            s(-f64::NAN, 3),
        ];
        scores.sort_unstable_by(cmp_scores);
        let order: Vec<usize> = scores.iter().map(|x| x.index).collect();
        // `total_cmp` ordering: −NaN < −∞ < −1 < 0 < +∞ < +NaN, with
        // equal-bit NaNs tie-broken by training-set index (1 before 9).
        assert_eq!(order, vec![3, 6, 5, 7, 8, 1, 9]);
        // The comparator is a total order even on NaN: antisymmetric
        // and never Equal for distinct indices.
        for a in &scores {
            for b in &scores {
                if a.index == b.index {
                    assert_eq!(cmp_scores(a, b), Ordering::Equal);
                } else {
                    assert_eq!(cmp_scores(a, b), cmp_scores(b, a).reverse());
                    assert_ne!(cmp_scores(a, b), Ordering::Equal);
                }
            }
        }
    }

    #[test]
    fn non_finite_scores_rank_deterministically_and_match_serial() {
        // An influence vector with ±∞ rows drives some score dots to
        // ±∞ and (via ∞ − ∞) NaN; the (total_cmp, index) order must
        // keep the ranking deterministic, serial/parallel-identical,
        // and top-b-consistent even then.
        let (model, obj, data, _val) = fixture(8);
        let m = chef_model::Model::num_params(&model);
        let w = vec![0.0; m];
        let mut v = vec![1.0; m];
        v[0] = f64::INFINITY;
        v[m - 1] = f64::NEG_INFINITY;
        // Three copies of the pool cross the parallel grain (128).
        let mut candidates = Vec::new();
        for _ in 0..3 {
            candidates.extend(data.uncleaned_indices());
        }
        let full = rank_infl_with_vector(&model, &data, &w, &v, &candidates, obj.gamma);
        assert!(
            full.iter().any(|s| !s.score.is_finite()),
            "fixture failed to produce non-finite scores"
        );
        let serial = rank_infl_with_vector_serial(&model, &data, &w, &v, &candidates, obj.gamma);
        assert_eq!(full.len(), serial.len());
        for (a, b) in full.iter().zip(&serial) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.suggested, b.suggested);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // The ranking is a cmp_scores-sorted sequence (NaNs at the end,
        // not interleaved), and top-b is exactly its prefix.
        for pair in full.windows(2) {
            assert_ne!(cmp_scores(&pair[0], &pair[1]), Ordering::Greater);
        }
        for b in [1, 7, 130, candidates.len()] {
            let top = rank_infl_top_b(&model, &data, &w, &v, &candidates, obj.gamma, b);
            assert_eq!(top.len(), b.min(candidates.len()), "b = {b}");
            for (t, f) in top.iter().zip(&full) {
                assert_eq!(t.index, f.index, "b = {b}");
                assert_eq!(t.suggested, f.suggested);
                assert_eq!(t.score.to_bits(), f.score.to_bits());
            }
        }
    }

    #[test]
    fn for_round_mixes_seed_deterministically() {
        let base = InflConfig::default();
        // Round 0 is the identity: single-shot callers see the old seed.
        assert_eq!(base.for_round(0).seed, base.seed);
        // Later rounds change the seed, deterministically and distinctly.
        let seeds: Vec<u64> = (0..8).map(|r| base.for_round(r).seed).collect();
        for (r, &s) in seeds.iter().enumerate() {
            assert_eq!(s, base.for_round(r).seed, "round {r} not deterministic");
            for (r2, &s2) in seeds.iter().enumerate().skip(r + 1) {
                assert_ne!(s, s2, "rounds {r} and {r2} share a Hessian sketch seed");
            }
        }
        // Everything but the seed is untouched.
        let r3 = base.for_round(3);
        assert_eq!(r3.cg.max_iters, base.cg.max_iters);
        assert_eq!(r3.hessian_batch, base.hessian_batch);
        // And the subsample it induces differs from round 0's.
        let a = hessian_subsample(500, 32, base.for_round(0).seed);
        let b = hessian_subsample(500, 32, base.for_round(1).seed);
        assert_ne!(a, b, "round 1 resampled the same Hessian sketch");
    }

    #[test]
    fn gamma_one_removes_upweight_term() {
        // With γ = 1 Infl reduces to the pure label-change influence of
        // Eq. 7 (Infl-Y) — cleaning to the label's own argmax of a
        // deterministic label has zero influence.
        let (model, obj, mut data, val) = fixture(5);
        let obj1 = WeightedObjective::new(1.0, obj.l2);
        data.set_label(3, SoftLabel::onehot(1, 2));
        let w = fit(&model, &obj1, &data);
        let v = influence_vector(&model, &obj1, &data, &val, &w, &InflConfig::default());
        let mut scratch = InflScratch::new(&model);
        let s = influence_of_label(&model, &data, &w, &v, 3, 1, 1.0, &mut scratch);
        assert!(s.abs() < 1e-12, "influence {s}");
        let _ = obj;
    }
}
