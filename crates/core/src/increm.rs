//! **Increm-Infl** — incremental influence with early pruning
//! (paper Theorem 1, Algorithm 1, Appendices B, D, E).
//!
//! Evaluating Infl on every uncleaned sample costs `C + 1` gradients per
//! sample per round. Increm-Infl avoids most of that in rounds `k ≥ 1` by
//! freezing the initialization model `w⁽⁰⁾` and the Hessian spectral
//! norms of Appendix D at `w⁽⁰⁾` as *provenance*, and bounding how far
//! the true influence at `w⁽ᵏ⁾` can drift from the frozen value `I₀`:
//!
//! ```text
//! I_pert⁽ᵏ⁾ − I₀ ∈ [ ½ Σ_j (δ_j e₁ − |δ_j| e₂) ‖H⁽ʲ⁾‖ + ((1−γ)/2)(e₁−e₂) μ_z ,
//!                   ½ Σ_j (δ_j e₁ + |δ_j| e₂) ‖H⁽ʲ⁾‖ + ((1−γ)/2)(e₁+e₂) μ_z ]
//! ```
//!
//! with `e₁ = vᵀ(w⁽ᵏ⁾ − w⁽⁰⁾)`, `e₂ = ‖v‖‖w⁽ᵏ⁾ − w⁽⁰⁾‖` and
//! `v = −H⁻¹∇F_val` (the bounds exactly as derived in Appendix A.2; the
//! in-text statement of Theorem 1 drops a factor ½, see DESIGN.md).
//! Algorithm 1 then keeps (a) the samples with the top-b smallest `I₀`
//! and (b) every sample whose lower bound undercuts the largest upper
//! bound `L` among those top-b — a set that provably contains the true
//! top-b, so the expensive exact pass runs on a few samples only.
//!
//! The paper also freezes every sample's gradients at `w⁽⁰⁾`, because
//! it pays autodiff for each `vᵀ∇` dot. Here those dots come from
//! [`Model::score_block`], the kernel Full scoring runs (for logistic
//! regression a closed form that never forms a gradient, DESIGN.md
//! §11.1), so `I₀` is that kernel evaluated at `w⁽⁰⁾` against this
//! round's `v`, and no gradient row is stored.
//!
//! Like the paper, the integrated Hessians in the bound are approximated
//! by their value at `w⁽⁰⁾`; the `slack` factor (default 1, i.e. the
//! paper's behaviour) can widen the interval to absorb that approximation.

use crate::influence::{class_scores, map_scored, rank_infl_top_b, InflScore};
use crate::PAR_GRAIN;
use chef_model::{DatasetStore, Model};
use std::cmp::Ordering;

/// Pre-computed per-sample provenance (the "initialization step" state).
#[derive(Debug, Clone)]
struct Provenance {
    w0: Vec<f64>,
    /// `‖H(w⁽⁰⁾, z̃)‖` per sample (μ_z in the bound).
    hessian_norms0: Vec<f64>,
    /// `‖−∇²_w log p⁽ʲ⁾(w⁽⁰⁾, x̃)‖`, flat `n·C` (sample-major).
    class_hessian_norms0: Vec<f64>,
    /// Parameter count `m` (the length of `w0`).
    num_params: usize,
    /// Class count `C` (row stride of `class_hessian_norms0`).
    num_classes: usize,
}

/// Per-sample result of the Theorem 1 bound pass: the best frozen
/// influence with its upper bound and the smallest lower bound over
/// classes.
#[derive(Debug, Clone)]
struct Entry {
    index: usize,
    i0: f64,
    ub: f64,
    lb_min: f64,
}

/// Algorithm 1's order on bound entries: ascending `I₀`, ties broken by
/// training-set index, so the top-b is independent of pool order.
fn cmp_entries(a: &Entry, b: &Entry) -> Ordering {
    a.i0.total_cmp(&b.i0).then(a.index.cmp(&b.index))
}

/// Algorithm 1, lines 3–5: the `b` entries with the smallest `I₀`, then
/// every other entry whose lower bound undercuts the largest upper bound
/// `L` among those `b`. A partial selection finds the top `b` in O(n);
/// under [`cmp_entries`] it is the set a stable sort of the ascending
/// pool puts first.
fn prune(mut entries: Vec<Entry>, b: usize) -> Vec<usize> {
    let b = b.min(entries.len());
    if b == 0 {
        return Vec::new();
    }
    if b < entries.len() {
        entries.select_nth_unstable_by(b - 1, cmp_entries);
    }
    let (top, rest) = entries.split_at(b);
    let l = top.iter().map(|e| e.ub).fold(f64::NEG_INFINITY, f64::max);
    let mut cands: Vec<usize> = top.iter().map(|e| e.index).collect();
    cands.extend(rest.iter().filter(|e| e.lb_min < l).map(|e| e.index));
    cands
}

/// Work counters for one Increm-Infl round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncremStats {
    /// Samples in the uncleaned pool this round.
    pub pool: usize,
    /// Samples surviving the bound-based pruning (whose influence was
    /// evaluated exactly).
    pub candidates: usize,
}

/// The Increm-Infl sample selector state.
#[derive(Debug, Clone)]
pub struct IncremInfl {
    provenance: Provenance,
    /// Multiplier on the half-width of the Theorem 1 interval (1 = exact
    /// paper bounds).
    pub slack: f64,
}

/// An owned, serializable copy of the full Increm-Infl state: `w⁽⁰⁾`,
/// the Hessian norms frozen there by the initialization step, and the
/// bound-slack knob. Produced by [`IncremInfl::snapshot`] and consumed
/// by [`IncremInfl::from_snapshot`]; the checkpoint subsystem stores the
/// vectors in its binary payload so a resumed run prunes with
/// bit-identical Theorem 1 intervals instead of re-running the
/// initialization step at a different model.
#[derive(Debug, Clone, PartialEq)]
pub struct IncremSnapshot {
    /// Initialization-step parameters `w⁽⁰⁾` (length `num_params`).
    pub w0: Vec<f64>,
    /// Frozen per-sample Hessian norms (length `n`).
    pub hessian_norms0: Vec<f64>,
    /// Frozen per-class Hessian norms, flat `n·num_classes` sample-major.
    pub class_hessian_norms0: Vec<f64>,
    /// Parameter count `m` (the length of `w0`).
    pub num_params: usize,
    /// Class count `C` (row stride of `class_hessian_norms0`).
    pub num_classes: usize,
    /// The [`IncremInfl::slack`] multiplier in effect.
    pub slack: f64,
}

impl IncremSnapshot {
    /// Validate internal length invariants, returning a description of
    /// the first violation. `from_snapshot` calls this so a checkpoint
    /// corrupted in a length-preserving way still fails loudly.
    pub fn validate(&self) -> Result<(), String> {
        let m = self.num_params;
        let c = self.num_classes;
        if m == 0 || c == 0 {
            return Err("IncremSnapshot: zero num_params/num_classes".into());
        }
        if self.w0.len() != m {
            return Err(format!(
                "IncremSnapshot: w0 length {} != {m}",
                self.w0.len()
            ));
        }
        if self.class_hessian_norms0.len() != self.hessian_norms0.len() * c {
            return Err("IncremSnapshot: class_hessian_norms0 length mismatch".into());
        }
        Ok(())
    }
}

/// Append the Hessian norms at `w0` of rows `rows` to `mu` (one per row)
/// and `class_mu` (`C` per row).
fn push_norms<M: Model + ?Sized>(
    model: &M,
    data: &dyn DatasetStore,
    w0: &[f64],
    rows: std::ops::Range<usize>,
    mu: &mut Vec<f64>,
    class_mu: &mut Vec<f64>,
) {
    for i in rows {
        let x = data.feature(i);
        mu.push(model.hessian_norm(w0, x, data.label(i)));
        class_mu.extend((0..model.num_classes()).map(|c| model.class_hessian_norm(w0, x, c)));
    }
}

impl IncremInfl {
    /// Initialization step: freeze `w⁽⁰⁾` and pre-compute every training
    /// sample's Hessian norms there (`n·(C + 1)` norms, no gradient).
    ///
    /// With more than one worker thread, blocks of rows are computed
    /// across the thread pool and concatenated in row order; every row
    /// is independent (no floating-point reduction), so the provenance
    /// is bit-identical at every pool size.
    pub fn initialize<M: Model + ?Sized>(model: &M, data: &dyn DatasetStore, w0: &[f64]) -> Self {
        let n = data.len();
        let c_count = model.num_classes();
        let mut hessian_norms0 = Vec::with_capacity(n);
        let mut class_hessian_norms0 = Vec::with_capacity(n * c_count);
        // One storage shard at a time: each shard's feature rows are
        // prefetched, swept, and released before the next shard is
        // touched, so an out-of-core store never holds more than one
        // shard resident during the initialization step.
        let bounds = data.shard_boundaries();
        for (k, win) in bounds.windows(2).enumerate() {
            let (lo, hi) = (win[0], win[1]);
            data.advise_range(lo, hi);
            // Let the store's background worker verify-and-warm the
            // next shard while this one is swept (no-op on in-memory
            // data or with background prefetch off; the sweep's output is
            // independent of whether the hint is honored).
            if k + 2 < bounds.len() {
                data.prefetch_upcoming(bounds[k + 1], bounds[k + 2]);
            }
            if hi - lo >= PAR_GRAIN && rayon::current_num_threads() > 1 {
                use rayon::prelude::*;
                let blocks: Vec<(Vec<f64>, Vec<f64>)> = (0..(hi - lo).div_ceil(PAR_GRAIN))
                    .into_par_iter()
                    .map(|bi| {
                        let start = lo + bi * PAR_GRAIN;
                        let (mut mu, mut class_mu) = (Vec::new(), Vec::new());
                        let rows = start..(start + PAR_GRAIN).min(hi);
                        push_norms(model, data, w0, rows, &mut mu, &mut class_mu);
                        (mu, class_mu)
                    })
                    .collect();
                for (mu, class_mu) in blocks {
                    hessian_norms0.extend(mu);
                    class_hessian_norms0.extend(class_mu);
                }
            } else {
                let (mu, class_mu) = (&mut hessian_norms0, &mut class_hessian_norms0);
                push_norms(model, data, w0, lo..hi, mu, class_mu);
            }
            data.advise_scanned(lo, hi);
        }
        Self {
            provenance: Provenance {
                w0: w0.to_vec(),
                hessian_norms0,
                class_hessian_norms0,
                num_params: model.num_params(),
                num_classes: c_count,
            },
            slack: 1.0,
        }
    }

    /// The initialization-step parameters `w⁽⁰⁾`.
    pub fn w0(&self) -> &[f64] {
        &self.provenance.w0
    }

    /// Copy the full state into a serializable [`IncremSnapshot`].
    pub fn snapshot(&self) -> IncremSnapshot {
        IncremSnapshot {
            w0: self.provenance.w0.clone(),
            hessian_norms0: self.provenance.hessian_norms0.clone(),
            class_hessian_norms0: self.provenance.class_hessian_norms0.clone(),
            num_params: self.provenance.num_params,
            num_classes: self.provenance.num_classes,
            slack: self.slack,
        }
    }

    /// Rebuild the selector state from a snapshot (the inverse of
    /// [`Self::snapshot`]): byte-for-byte the same provenance, so the
    /// bound pass of a resumed run is bit-identical to the original.
    ///
    /// # Errors
    /// Returns the violated invariant if the snapshot's buffer lengths
    /// are inconsistent (e.g. a corrupt checkpoint).
    pub fn from_snapshot(snap: IncremSnapshot) -> Result<Self, String> {
        snap.validate()?;
        Ok(Self {
            provenance: Provenance {
                w0: snap.w0,
                hessian_norms0: snap.hessian_norms0,
                class_hessian_norms0: snap.class_hessian_norms0,
                num_params: snap.num_params,
                num_classes: snap.num_classes,
            },
            slack: snap.slack,
        })
    }

    /// The Theorem 1 bound pass: one [`Entry`] per pool sample, in pool
    /// order. Each sample's per-class `I₀` is Full's Eq. 6 score at
    /// `w⁽⁰⁾` ([`map_scored`] over [`Model::score_block`], the same
    /// blocks, fan-out and store reads as Full scoring, then
    /// [`class_scores`]); the interval around it is O(C) arithmetic on
    /// the frozen norms. Entries carry no cross-sample reduction, so
    /// they are bit-identical at every pool size.
    #[allow(clippy::too_many_arguments)]
    fn bound_entries<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        w_k: &[f64],
        v_pos: &[f64],
        pool: &[usize],
        gamma: f64,
    ) -> Vec<Entry> {
        let c_count = self.provenance.num_classes;
        debug_assert_eq!(self.provenance.num_params, model.num_params());
        debug_assert_eq!(c_count, model.num_classes());
        let w0 = &self.provenance.w0;
        let dw = chef_linalg::vector::sub(w_k, w0);
        // v = −v_pos in the paper's convention.
        let e1 = -chef_linalg::vector::dot(v_pos, &dw);
        let e2 = chef_linalg::vector::norm2(v_pos) * chef_linalg::vector::norm2(&dw);
        let gterm = (1.0 - gamma) / 2.0;
        map_scored(model, data, w0, v_pos, pool, |i, cd, ld| {
            let label = data.label(i);
            let norms = &self.provenance.class_hessian_norms0[i * c_count..(i + 1) * c_count];
            let mu = self.provenance.hessian_norms0[i];
            let mut best_i0 = f64::INFINITY;
            let mut best_ub = f64::INFINITY;
            let mut lb_min = f64::INFINITY;
            for (c, i0) in class_scores(label, cd, ld, gamma).enumerate() {
                // δ = onehot(c) − ỹ, one component at a time.
                let mut signed = 0.0;
                let mut absolute = 0.0;
                for (k, (&p, &norm)) in label.probs().iter().zip(norms).enumerate() {
                    let d = if k == c { 1.0 - p } else { -p };
                    signed += d * norm;
                    absolute += d.abs() * norm;
                }
                let mut lo = 0.5 * (signed * e1 - absolute * e2) + gterm * (e1 - e2) * mu;
                let mut hi = 0.5 * (signed * e1 + absolute * e2) + gterm * (e1 + e2) * mu;
                if self.slack != 1.0 {
                    let mid = 0.5 * (lo + hi);
                    let half = 0.5 * (hi - lo) * self.slack;
                    lo = mid - half;
                    hi = mid + half;
                }
                if i0 < best_i0 {
                    best_i0 = i0;
                    best_ub = i0 + hi;
                }
                lb_min = lb_min.min(i0 + lo);
            }
            Entry {
                index: i,
                i0: best_i0,
                ub: best_ub,
                lb_min,
            }
        })
    }

    /// Algorithm 1: return the candidate set `Z_inf⁽ᵏ⁾ ⊆ pool` that is
    /// guaranteed (under the Hessian-freeze approximation) to contain the
    /// top-`b` most influential samples at `w_k`.
    ///
    /// A round pays one pass of Full's scoring kernel over the pool at
    /// `w⁽⁰⁾` plus O(C) per sample; the candidate set is bit-identical at
    /// every pool size.
    #[allow(clippy::too_many_arguments)]
    pub fn candidates<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        w_k: &[f64],
        v_pos: &[f64],
        pool: &[usize],
        b: usize,
        gamma: f64,
    ) -> (Vec<usize>, IncremStats) {
        let entries = self.bound_entries(model, data, w_k, v_pos, pool, gamma);
        let cands = prune(entries, b);
        let stats = IncremStats {
            pool: pool.len(),
            candidates: cands.len(),
        };
        (cands, stats)
    }

    /// Full Increm-Infl round: prune with Algorithm 1, then evaluate Infl
    /// exactly on the candidates and return the top-`b` scores (most
    /// harmful first) plus work counters.
    #[allow(clippy::too_many_arguments)]
    pub fn select<M: Model + ?Sized>(
        &self,
        model: &M,
        data: &dyn DatasetStore,
        w_k: &[f64],
        v_pos: &[f64],
        pool: &[usize],
        b: usize,
        gamma: f64,
    ) -> (Vec<InflScore>, IncremStats) {
        let (cands, stats) = self.candidates(model, data, w_k, v_pos, pool, b, gamma);
        let ranked = rank_infl_top_b(model, data, w_k, v_pos, &cands, gamma, b);
        (ranked, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::influence::{
        influence_of_label, influence_vector, rank_infl_with_vector, InflConfig, InflScratch,
    };
    use chef_linalg::Matrix;
    use chef_model::{Dataset, LogisticRegression, Mlp, SoftLabel, WeightedObjective};
    use chef_train::{train, SgdConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn fixture(n: usize, seed: u64) -> (LogisticRegression, WeightedObjective, Dataset, Dataset) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut raw = Vec::new();
        let mut labels = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..n {
            let c = usize::from(rng.gen_range(0.0..1.0) < 0.5);
            let sign = if c == 1 { 1.0 } else { -1.0 };
            raw.push(sign + rng.gen_range(-1.0..1.0));
            raw.push(sign + rng.gen_range(-1.0..1.0));
            let p = rng.gen_range(0.1..0.9);
            labels.push(SoftLabel::new(vec![p, 1.0 - p]));
            truth.push(Some(c));
        }
        let data = Dataset::new(
            Matrix::from_vec(n, 2, raw),
            labels,
            vec![false; n],
            truth,
            2,
        );
        let mut vraw = Vec::new();
        let mut vlab = Vec::new();
        let mut vtruth = Vec::new();
        for _ in 0..40 {
            let c = usize::from(rng.gen_range(0.0..1.0) < 0.5);
            let sign = if c == 1 { 1.0 } else { -1.0 };
            vraw.push(sign + rng.gen_range(-1.0..1.0));
            vraw.push(sign + rng.gen_range(-1.0..1.0));
            vlab.push(SoftLabel::onehot(c, 2));
            vtruth.push(Some(c));
        }
        let val = Dataset::new(
            Matrix::from_vec(40, 2, vraw),
            vlab,
            vec![true; 40],
            vtruth,
            2,
        );
        (
            LogisticRegression::new(2, 2),
            WeightedObjective::new(0.8, 0.05),
            data,
            val,
        )
    }

    /// A deterministic three-class problem: features on a grid, soft
    /// labels that vary by row, or one-hot ones for a validation set.
    fn three_class(n: usize, clean: bool) -> Dataset {
        let features = (0..2 * n).map(|k| (k % 17) as f64 / 8.0 - 1.0).collect();
        let labels = (0..n)
            .map(|i| match clean {
                true => SoftLabel::onehot(i % 3, 3),
                false => {
                    let (a, b) = (0.2 + (i % 5) as f64 * 0.1, 0.05 + (i % 7) as f64 * 0.04);
                    SoftLabel::new(vec![a, b, 1.0 - a - b])
                }
            })
            .collect();
        let truth = (0..n).map(|i| Some(i % 3)).collect();
        Dataset::new(
            Matrix::from_vec(n, 2, features),
            labels,
            vec![clean; n],
            truth,
            3,
        )
    }

    fn fit<M: Model + ?Sized>(
        model: &M,
        obj: &WeightedObjective,
        data: &dyn DatasetStore,
        epochs: usize,
        seed: u64,
    ) -> Vec<f64> {
        let cfg = SgdConfig {
            lr: 0.1,
            epochs,
            batch_size: 50,
            seed,
            cache_provenance: false,
        };
        train(model, obj, data, &model.initial_params(seed), &cfg).w
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn at_w0_bounds_are_tight_and_candidates_minimal() {
        let (model, obj, data, val) = fixture(80, 1);
        let w0 = fit(&model, &obj, &data, 20, 3);
        let inc = IncremInfl::initialize(&model, &data, &w0);
        let v = influence_vector(&model, &obj, &data, &val, &w0, &InflConfig::default());
        let pool = data.uncleaned_indices();
        let (cands, stats) = inc.candidates(&model, &data, &w0, &v, &pool, 5, obj.gamma);
        // At w_k = w0, e1 = e2 = 0 → intervals are points → only exact
        // ties can join the top-5.
        assert!(stats.candidates <= 7, "candidates {}", stats.candidates);
        assert_eq!(cands.len(), stats.candidates);
        assert_eq!(stats.pool, 80);
    }

    /// Logistic regression at 2 and 3 classes and the three-class MLP,
    /// each with `n` training rows, a validation set and a fitted `w⁽⁰⁾`;
    /// per case the influence vector at `w⁽⁰⁾`, the bound entries at
    /// `w⁽ᵏ⁾ = w⁽⁰⁾`, and Full's exact scores sorted by index.
    #[allow(clippy::type_complexity)]
    fn at_w0(
        n: usize,
    ) -> Vec<(
        Box<dyn Model>,
        Dataset,
        Vec<f64>,
        Vec<f64>,
        Vec<Entry>,
        Vec<InflScore>,
    )> {
        let (lr2, obj, data2, val2) = fixture(n, 2);
        let (data3, val3) = (three_class(n, false), three_class(30, true));
        let cases: Vec<(Box<dyn Model>, Dataset, Dataset)> = vec![
            (Box::new(lr2), data2, val2),
            (
                Box::new(LogisticRegression::new(2, 3)),
                data3.clone(),
                val3.clone(),
            ),
            (Box::new(Mlp::new(2, 4, 3)), data3, val3),
        ];
        cases
            .into_iter()
            .map(|(model, data, val)| {
                let w0 = fit(&*model, &obj, &data, 10, 4);
                let inc = IncremInfl::initialize(&*model, &data, &w0);
                let v = influence_vector(&*model, &obj, &data, &val, &w0, &InflConfig::default());
                let pool = data.uncleaned_indices();
                let entries = inc.bound_entries(&*model, &data, &w0, &v, &pool, obj.gamma);
                let mut exact = rank_infl_with_vector(&*model, &data, &w0, &v, &pool, obj.gamma);
                exact.sort_by_key(|s| s.index);
                (model, data, w0, v, entries, exact)
            })
            .collect()
    }

    #[test]
    fn frozen_influence_matches_exact_at_w0() {
        let gamma = fixture(1, 0).1.gamma;
        for (model, data, w0, v, entries, exact) in at_w0(60) {
            let mut scratch = InflScratch::new(&*model);
            for (e, s) in entries.iter().zip(&exact) {
                // Eq. 6 from the dense class_grad/grad rows at w⁽⁰⁾.
                let dense = influence_of_label(
                    &*model,
                    &data,
                    &w0,
                    &v,
                    s.index,
                    s.suggested,
                    gamma,
                    &mut scratch,
                );
                assert!(
                    (dense - s.score).abs() < 1e-10,
                    "sample {}: dense {dense} vs exact {}",
                    s.index,
                    s.score
                );
                assert_eq!(e.index, s.index);
                assert!(
                    (e.i0 - dense).abs() < 1e-10,
                    "sample {}: frozen {} vs dense {dense}",
                    s.index,
                    e.i0
                );
            }
        }
    }

    #[test]
    fn frozen_influence_is_fulls_exact_score_bit_for_bit_at_w0() {
        // Increm's I₀ and Full's score run one kernel through one
        // contraction. 300 rows span two score blocks and clear the
        // parallel grain.
        for (_, _, _, _, entries, exact) in at_w0(300) {
            for (e, s) in entries.iter().zip(&exact) {
                assert_eq!(e.index, s.index);
                assert_eq!(e.i0.to_bits(), s.score.to_bits(), "sample {}", s.index);
                assert_eq!(e.ub, e.i0, "the interval collapses to I₀");
            }
        }
    }

    #[test]
    fn increm_returns_same_top_b_as_full_after_drift() {
        // The paper's Exp2 correctness claim: Increm-Infl always returns
        // the same influential set as the Full evaluation.
        let (model, obj, data, val) = fixture(150, 3);
        let w0 = fit(&model, &obj, &data, 15, 5);
        let inc = IncremInfl::initialize(&model, &data, &w0);
        // Drift: continue training for a few more epochs.
        let w_k = {
            let cfg = SgdConfig {
                lr: 0.05,
                epochs: 4,
                batch_size: 50,
                seed: 9,
                cache_provenance: false,
            };
            train(&model, &obj, &data, &w0, &cfg).w
        };
        let v = influence_vector(&model, &obj, &data, &val, &w_k, &InflConfig::default());
        let pool = data.uncleaned_indices();
        let b = 10;
        let (inc_top, stats) = inc.select(&model, &data, &w_k, &v, &pool, b, obj.gamma);
        let mut full = rank_infl_with_vector(&model, &data, &w_k, &v, &pool, obj.gamma);
        full.truncate(b);
        let inc_set: Vec<usize> = inc_top.iter().map(|s| s.index).collect();
        let full_set: Vec<usize> = full.iter().map(|s| s.index).collect();
        assert_eq!(inc_set, full_set, "stats: {stats:?}");
        // And the pruning actually pruned something.
        assert!(stats.candidates < stats.pool, "stats: {stats:?}");
    }

    #[test]
    fn candidate_set_always_contains_true_top_b() {
        for seed in 0..5 {
            let (model, obj, data, val) = fixture(100, 10 + seed);
            let w0 = fit(&model, &obj, &data, 10, seed);
            let inc = IncremInfl::initialize(&model, &data, &w0);
            let w_k = {
                let cfg = SgdConfig {
                    lr: 0.08,
                    epochs: 3,
                    batch_size: 25,
                    seed: seed + 100,
                    cache_provenance: false,
                };
                train(&model, &obj, &data, &w0, &cfg).w
            };
            let v = influence_vector(&model, &obj, &data, &val, &w_k, &InflConfig::default());
            let pool = data.uncleaned_indices();
            let (cands, _) = inc.candidates(&model, &data, &w_k, &v, &pool, 5, obj.gamma);
            let mut full = rank_infl_with_vector(&model, &data, &w_k, &v, &pool, obj.gamma);
            full.truncate(5);
            for s in &full {
                assert!(
                    cands.contains(&s.index),
                    "seed {seed}: true top-b sample {} pruned away",
                    s.index
                );
            }
        }
    }

    /// Reference for [`prune`]: a stable sort of the entries by `I₀`
    /// alone, then the same cutoff rule.
    fn prune_by_stable_sort(mut entries: Vec<Entry>, b: usize) -> Vec<usize> {
        entries.sort_by(|a, b| a.i0.total_cmp(&b.i0));
        let b = b.min(entries.len());
        let l = entries[..b]
            .iter()
            .map(|e| e.ub)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut cands: Vec<usize> = entries[..b].iter().map(|e| e.index).collect();
        cands.extend(
            entries[b..]
                .iter()
                .filter(|e| e.lb_min < l)
                .map(|e| e.index),
        );
        cands
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn partial_selection_picks_the_stable_sort_set_under_ties() {
        let entry = |index, i0, ub, lb_min| Entry {
            index,
            i0,
            ub,
            lb_min,
        };
        // Indices 2, 5 and 7 tie at I₀ = 1 across the b = 2 boundary.
        // Over the ascending pool the stable sort keeps 2 (ub 9), so
        // L = 9 and only lb_min < 9 joins: 5 (lb 8) yes, 7 (lb 9.5) no.
        // Breaking the tie toward 7 (ub 1) would give L = 1 and drop 5.
        let entries = vec![
            entry(0, 0.5, 0.6, 0.4),
            entry(2, 1.0, 9.0, 0.9),
            entry(5, 1.0, 1.0, 8.0),
            entry(7, 1.0, 1.0, 9.5),
            entry(9, 3.0, 3.0, 10.0),
        ];
        assert_eq!(sorted(prune(entries.clone(), 2)), vec![0, 2, 5]);
        assert_eq!(
            sorted(prune(entries.clone(), 2)),
            sorted(prune_by_stable_sort(entries.clone(), 2))
        );
        // b = 0 selects nothing; b ≥ pool keeps everything.
        assert!(prune(entries.clone(), 0).is_empty());
        assert_eq!(sorted(prune(entries.clone(), 9)), vec![0, 2, 5, 7, 9]);

        // Randomized: few distinct I₀ values force ties at the b-th place.
        let mut rng = SmallRng::seed_from_u64(41);
        for trial in 0..500 {
            let n = rng.gen_range(1..40);
            let entries: Vec<Entry> = (0..n)
                .map(|r| {
                    let i0 = f64::from(rng.gen_range(0..4u32));
                    let ub = i0 + rng.gen_range(0.0..3.0);
                    let lb = i0 - rng.gen_range(0.0..3.0);
                    entry(3 * r + 1, i0, ub, lb)
                })
                .collect();
            let b = rng.gen_range(0..n + 2);
            assert_eq!(
                sorted(prune(entries.clone(), b)),
                sorted(prune_by_stable_sort(entries, b)),
                "trial {trial}, n {n}, b {b}"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (model, obj, data, val) = fixture(60, 5);
        let w0 = fit(&model, &obj, &data, 10, 7);
        let mut inc = IncremInfl::initialize(&model, &data, &w0);
        inc.slack = 1.5;
        let snap = inc.snapshot();
        let restored = IncremInfl::from_snapshot(snap.clone()).unwrap();
        assert_eq!(restored.snapshot(), snap);
        // The restored selector produces the identical candidate set.
        let v = influence_vector(&model, &obj, &data, &val, &w0, &InflConfig::default());
        let pool = data.uncleaned_indices();
        let (a, _) = inc.candidates(&model, &data, &w0, &v, &pool, 5, obj.gamma);
        let (b, _) = restored.candidates(&model, &data, &w0, &v, &pool, 5, obj.gamma);
        assert_eq!(a, b);
    }

    #[test]
    fn in_place_initialization_equals_the_rowwise_reference() {
        // 300 rows clear the parallel grain, so the 4-worker pool runs
        // the blocked fan-out (with a partial last block); the
        // three-class MLP covers the per-sample model path.
        let (lr, obj, data2, _) = fixture(300, 8);
        let (mlp, data3) = (Mlp::new(2, 4, 3), three_class(300, false));
        let cases: [(&dyn Model, &Dataset); 2] = [(&lr, &data2), (&mlp, &data3)];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (model, data) in cases {
            let w0 = fit(model, &obj, data, 5, 2);
            // Row-wise reference: each sample's norms, appended in order.
            let (mut mu, mut class_mu) = (Vec::new(), Vec::new());
            for i in 0..data.len() {
                let (x, y) = (data.feature(i), data.label(i));
                mu.push(model.hessian_norm(&w0, x, y));
                for c in 0..model.num_classes() {
                    class_mu.push(model.class_hessian_norm(&w0, x, c));
                }
            }
            for threads in [1, 4] {
                let snap = pool(threads).install(|| IncremInfl::initialize(model, data, &w0));
                let snap = snap.snapshot();
                assert_eq!(bits(&snap.w0), bits(&w0));
                assert_eq!(bits(&snap.hessian_norms0), bits(&mu));
                assert_eq!(bits(&snap.class_hessian_norms0), bits(&class_mu));
                assert_eq!(snap.class_hessian_norms0.len(), 300 * model.num_classes());
            }
        }
    }

    #[test]
    fn snapshot_validation_rejects_inconsistent_lengths() {
        let (model, obj, data, _) = fixture(20, 6);
        let w0 = fit(&model, &obj, &data, 5, 8);
        let inc = IncremInfl::initialize(&model, &data, &w0);
        let mut snap = inc.snapshot();
        snap.hessian_norms0.pop();
        assert!(IncremInfl::from_snapshot(snap).is_err());
    }

    #[test]
    fn slack_widens_candidates() {
        let (model, obj, data, val) = fixture(120, 4);
        let w0 = fit(&model, &obj, &data, 10, 6);
        let mut inc = IncremInfl::initialize(&model, &data, &w0);
        let w_k = {
            let cfg = SgdConfig {
                lr: 0.05,
                epochs: 2,
                batch_size: 40,
                seed: 12,
                cache_provenance: false,
            };
            train(&model, &obj, &data, &w0, &cfg).w
        };
        let v = influence_vector(&model, &obj, &data, &val, &w_k, &InflConfig::default());
        let pool = data.uncleaned_indices();
        let (_, tight) = inc.candidates(&model, &data, &w_k, &v, &pool, 5, obj.gamma);
        inc.slack = 3.0;
        let (_, wide) = inc.candidates(&model, &data, &w_k, &v, &pool, 5, obj.gamma);
        assert!(wide.candidates >= tight.candidates);
    }
}
