//! **Increm-Infl** — incremental influence with early pruning
//! (paper Theorem 1, Algorithm 1, Appendices B, D, E).
//!
//! Evaluating Infl on every uncleaned sample costs `C + 1` gradients per
//! sample per round. Increm-Infl avoids most of that in rounds `k ≥ 1` by
//! freezing per-sample quantities at the initialization model `w⁽⁰⁾` as
//! *provenance* — the gradients `∇_wF(w⁽⁰⁾, z̃)`, the per-class gradients
//! `∇_y∇_wF(w⁽⁰⁾, z̃)` and the Hessian spectral norms of Appendix D — and
//! bounding how far the true influence at `w⁽ᵏ⁾` can drift from the
//! frozen value `I₀`:
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
//! Like the paper, the integrated Hessians in the bound are approximated
//! by their value at `w⁽⁰⁾`; the `slack` factor (default 1, i.e. the
//! paper's behaviour) can widen the interval to absorb that approximation.

use crate::influence::{rank_infl_top_b, InflScore};
use crate::PAR_GRAIN;
use chef_linalg::kernels;
use chef_model::{DatasetStore, Model};

/// Pre-computed per-sample provenance (the "initialization step" state).
///
/// All per-sample vectors live in contiguous row-major buffers (stride
/// `m = num_params`, class-major within a sample) so the bound pass can
/// hoist its dot products into blocked [`kernels::gather_matvec`] sweeps
/// over provenance rows instead of chasing one heap allocation per
/// sample.
#[derive(Debug, Clone)]
struct Provenance {
    w0: Vec<f64>,
    /// `∇_w F(w⁽⁰⁾, z̃)` per sample: row `i` of an `n × m` matrix.
    grads0: Vec<f64>,
    /// Per-class gradients: row `i·C + c` of an `(n·C) × m` matrix.
    class_grads0: Vec<f64>,
    /// `‖H(w⁽⁰⁾, z̃)‖` per sample (μ_z in the bound).
    hessian_norms0: Vec<f64>,
    /// `‖−∇²_w log p⁽ʲ⁾(w⁽⁰⁾, x̃)‖`, flat `n·C` (sample-major).
    class_hessian_norms0: Vec<f64>,
    /// Parameter count `m` (row stride of the gradient buffers).
    num_params: usize,
    /// Class count `C` (row-group stride of `class_grads0`).
    num_classes: usize,
}

/// The provenance of rows `start..start + hessian_norms0.len()`: one
/// contiguous block of each flat [`Provenance`] buffer, borrowed so the
/// initialization step writes every row in place.
struct ProvenanceBlock<'a> {
    start: usize,
    grads0: &'a mut [f64],
    class_grads0: &'a mut [f64],
    hessian_norms0: &'a mut [f64],
    class_hessian_norms0: &'a mut [f64],
}

impl<'a> ProvenanceBlock<'a> {
    /// Compute every row of the block at `w0`. Rows are independent, so
    /// how the rows are split into blocks cannot change a bit.
    fn fill<M: Model + ?Sized>(&mut self, model: &M, data: &dyn DatasetStore, w0: &[f64]) {
        let m = model.num_params();
        let c_count = model.num_classes();
        let rows = self
            .grads0
            .chunks_exact_mut(m)
            .zip(self.class_grads0.chunks_exact_mut(c_count * m))
            .zip(self.hessian_norms0.iter_mut())
            .zip(self.class_hessian_norms0.chunks_exact_mut(c_count));
        for (r, (((grad0, class_grads0), hessian_norm0), class_norms0)) in rows.enumerate() {
            let i = self.start + r;
            let x = data.feature(i);
            let y = data.label(i);
            model.grad(w0, x, y, grad0);
            for (c, row) in class_grads0.chunks_exact_mut(m).enumerate() {
                model.class_grad(w0, x, c, row);
            }
            *hessian_norm0 = model.hessian_norm(w0, x, y);
            for (c, norm) in class_norms0.iter_mut().enumerate() {
                *norm = model.class_hessian_norm(w0, x, c);
            }
        }
    }

    /// Split into consecutive blocks of at most `rows` rows each.
    fn split(self, rows: usize, m: usize, c_count: usize) -> Vec<ProvenanceBlock<'a>> {
        let start = self.start;
        self.grads0
            .chunks_mut(rows * m)
            .zip(self.class_grads0.chunks_mut(rows * c_count * m))
            .zip(self.hessian_norms0.chunks_mut(rows))
            .zip(self.class_hessian_norms0.chunks_mut(rows * c_count))
            .enumerate()
            .map(|(k, (((g, cg), hn), chn))| ProvenanceBlock {
                start: start + k * rows,
                grads0: g,
                class_grads0: cg,
                hessian_norms0: hn,
                class_hessian_norms0: chn,
            })
            .collect()
    }
}

/// Per-sample result of the Theorem 1 bound pass: the best frozen
/// influence with its upper bound and the smallest lower bound over
/// classes.
struct Entry {
    index: usize,
    i0: f64,
    ub: f64,
    lb_min: f64,
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

/// An owned, serializable copy of the full Increm-Infl state: the frozen
/// `w⁽⁰⁾` provenance of the initialization step plus the bound-slack
/// knob. Produced by [`IncremInfl::snapshot`] and consumed by
/// [`IncremInfl::from_snapshot`]; the checkpoint subsystem stores the
/// matrix fields in its binary payload so a resumed run prunes with
/// bit-identical Theorem 1 intervals instead of re-running the
/// initialization step at a different model.
#[derive(Debug, Clone, PartialEq)]
pub struct IncremSnapshot {
    /// Initialization-step parameters `w⁽⁰⁾` (length `num_params`).
    pub w0: Vec<f64>,
    /// Frozen per-sample gradients, row-major `n × num_params`.
    pub grads0: Vec<f64>,
    /// Frozen per-class gradients, row-major `(n·num_classes) × num_params`.
    pub class_grads0: Vec<f64>,
    /// Frozen per-sample Hessian norms (length `n`).
    pub hessian_norms0: Vec<f64>,
    /// Frozen per-class Hessian norms, flat `n·num_classes` sample-major.
    pub class_hessian_norms0: Vec<f64>,
    /// Parameter count `m` (row stride of the gradient buffers).
    pub num_params: usize,
    /// Class count `C` (row-group stride of `class_grads0`).
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
        if !self.grads0.len().is_multiple_of(m) {
            return Err("IncremSnapshot: grads0 not a multiple of num_params".into());
        }
        let n = self.grads0.len() / m;
        if self.class_grads0.len() != n * c * m {
            return Err("IncremSnapshot: class_grads0 length mismatch".into());
        }
        if self.hessian_norms0.len() != n {
            return Err("IncremSnapshot: hessian_norms0 length mismatch".into());
        }
        if self.class_hessian_norms0.len() != n * c {
            return Err("IncremSnapshot: class_hessian_norms0 length mismatch".into());
        }
        Ok(())
    }
}

impl IncremInfl {
    /// Initialization step: pre-compute provenance for every training
    /// sample at the initial model `w⁽⁰⁾`.
    ///
    /// Each row is written in place into the flat provenance buffers.
    /// With more than one worker thread, disjoint blocks of rows are
    /// filled across the thread pool; every row is independent (no
    /// floating-point reduction), so the provenance is bit-identical at
    /// every pool size.
    pub fn initialize<M: Model + ?Sized>(model: &M, data: &dyn DatasetStore, w0: &[f64]) -> Self {
        let m = model.num_params();
        let c_count = model.num_classes();
        let n = data.len();
        // Every row is written straight into its slices of the flat
        // buffers, so the provenance is held once: no per-row vectors
        // copied into place afterwards.
        let mut grads0 = vec![0.0; n * m];
        let mut class_grads0 = vec![0.0; n * c_count * m];
        let mut hessian_norms0 = vec![0.0; n];
        let mut class_hessian_norms0 = vec![0.0; n * c_count];
        // One storage shard at a time: each shard's feature rows are
        // prefetched, swept, and released before the next shard is
        // touched, so an out-of-core store never holds more than one
        // shard resident during the initialization step. Rows are
        // independent (no cross-row reduction), so the slab partition —
        // and the parallel fan-out within a slab — cannot change a bit
        // of the provenance relative to one flat 0..n sweep.
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
            let mut slab = ProvenanceBlock {
                start: lo,
                grads0: &mut grads0[lo * m..hi * m],
                class_grads0: &mut class_grads0[lo * c_count * m..hi * c_count * m],
                hessian_norms0: &mut hessian_norms0[lo..hi],
                class_hessian_norms0: &mut class_hessian_norms0[lo * c_count..hi * c_count],
            };
            if hi - lo >= PAR_GRAIN && rayon::current_num_threads() > 1 {
                use rayon::prelude::*;
                // Disjoint `PAR_GRAIN`-row blocks of the slab, one task
                // each; a block's lock is only ever taken by the task
                // that fills it.
                let blocks: Vec<std::sync::Mutex<ProvenanceBlock<'_>>> = slab
                    .split(PAR_GRAIN, m, c_count)
                    .into_iter()
                    .map(std::sync::Mutex::new)
                    .collect();
                blocks.par_iter().for_each(|block| {
                    block
                        .lock()
                        .expect("provenance block lock")
                        .fill(model, data, w0);
                });
            } else {
                slab.fill(model, data, w0);
            }
            data.advise_scanned(lo, hi);
        }
        Self {
            provenance: Provenance {
                w0: w0.to_vec(),
                grads0,
                class_grads0,
                hessian_norms0,
                class_hessian_norms0,
                num_params: m,
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
            grads0: self.provenance.grads0.clone(),
            class_grads0: self.provenance.class_grads0.clone(),
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
                grads0: snap.grads0,
                class_grads0: snap.class_grads0,
                hessian_norms0: snap.hessian_norms0,
                class_hessian_norms0: snap.class_hessian_norms0,
                num_params: snap.num_params,
                num_classes: snap.num_classes,
            },
            slack: snap.slack,
        })
    }

    /// Frozen influence `I₀(z̃, δ_y, γ)` for sample `i` and target class
    /// `class`, given the current influence vector `v_pos = H⁻¹∇F_val`.
    /// (Reference implementation kept for the unit tests; the production
    /// path in [`Self::candidates`] inlines it with hoisted dot products.)
    #[cfg(test)]
    fn frozen_influence(
        &self,
        data: &dyn DatasetStore,
        m: usize,
        v_pos: &[f64],
        i: usize,
        class: usize,
        gamma: f64,
    ) -> f64 {
        let delta = data.label(i).delta_to(class);
        let cg_base = i * self.provenance.num_classes * m;
        let mut acc = 0.0;
        for (c, &d) in delta.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            let row = &self.provenance.class_grads0[cg_base + c * m..cg_base + (c + 1) * m];
            acc += d * chef_linalg::vector::dot(v_pos, row);
        }
        if gamma < 1.0 {
            let grow = &self.provenance.grads0[i * m..(i + 1) * m];
            acc += (1.0 - gamma) * chef_linalg::vector::dot(v_pos, grow);
        }
        -acc
    }

    /// Evaluate the Theorem 1 interval for one pool sample. The dot
    /// products against the provenance gradients (`g_dot`, `class_dots`)
    /// are hoisted out entirely — [`Self::candidates`] computes them for
    /// the whole pool in blocked [`kernels::gather_matvec`] sweeps —
    /// so everything here is O(C) arithmetic on cached scalars, which is
    /// what makes the bound pass cheap relative to exact influence
    /// evaluation (Appendix E's complexity argument).
    #[allow(clippy::too_many_arguments)]
    fn bound_entry(
        &self,
        data: &dyn DatasetStore,
        e1: f64,
        e2: f64,
        gamma: f64,
        i: usize,
        g_dot: f64,
        class_dots: &[f64],
    ) -> Entry {
        let c_count = class_dots.len();
        let norms = &self.provenance.class_hessian_norms0[i * c_count..(i + 1) * c_count];
        let mu = self.provenance.hessian_norms0[i];
        let gterm = (1.0 - gamma) / 2.0;
        let mut best_i0 = f64::INFINITY;
        let mut best_ub = f64::INFINITY;
        let mut lb_min = f64::INFINITY;
        for c in 0..c_count {
            let delta = data.label(i).delta_to(c);
            let mut acc = 0.0;
            let mut signed = 0.0;
            let mut absolute = 0.0;
            for (k, &d) in delta.iter().enumerate() {
                acc += d * class_dots[k];
                signed += d * norms[k];
                absolute += d.abs() * norms[k];
            }
            if gamma < 1.0 {
                acc += (1.0 - gamma) * g_dot;
            }
            let i0 = -acc;
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
    }

    /// Algorithm 1: return the candidate set `Z_inf⁽ᵏ⁾ ⊆ pool` that is
    /// guaranteed (under the Hessian-freeze approximation) to contain the
    /// top-`b` most influential samples at `w_k`.
    ///
    /// The bound pass's dot products run in [`kernels::gather_matvec`],
    /// which fans out on a multi-worker pool; the entries carry no
    /// cross-sample reduction, so the candidate set is bit-identical at
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
        let m = self.provenance.num_params;
        let c_count = self.provenance.num_classes;
        debug_assert_eq!(m, model.num_params());
        debug_assert_eq!(c_count, model.num_classes());
        let _ = model;
        let dw = chef_linalg::vector::sub(w_k, &self.provenance.w0);
        // v = −v_pos in the paper's convention.
        let e1 = -chef_linalg::vector::dot(v_pos, &dw);
        let e2 = chef_linalg::vector::norm2(v_pos) * chef_linalg::vector::norm2(&dw);

        // Hoist every provenance dot product out of the per-sample loop:
        // one blocked gather-matvec sweep over the pool's frozen
        // gradients and one over its per-class gradient rows. Each output
        // element is a full-length row dot, so the sweep is bit-identical
        // at every pool size; `bound_entry` is then pure O(C) arithmetic
        // per sample.
        let mut g_dots = vec![0.0; pool.len()];
        let mut class_dots = vec![0.0; pool.len() * c_count];
        let class_rows: Vec<usize> = pool
            .iter()
            .flat_map(|&i| i * c_count..(i + 1) * c_count)
            .collect();
        kernels::gather_matvec(&self.provenance.grads0, m, pool, v_pos, &mut g_dots);
        kernels::gather_matvec(
            &self.provenance.class_grads0,
            m,
            &class_rows,
            v_pos,
            &mut class_dots,
        );

        // Per sample: the best (smallest) frozen influence over classes,
        // with its interval (`bound_entry`), in pool order.
        let mut entries: Vec<Entry> = pool
            .iter()
            .enumerate()
            .map(|(r, &i)| {
                let cd = &class_dots[r * c_count..(r + 1) * c_count];
                self.bound_entry(data, e1, e2, gamma, i, g_dots[r], cd)
            })
            .collect();

        // Top-b smallest I₀ (Algorithm 1 line 3) and the largest upper
        // bound L among them (line 4).
        entries.sort_by(|a, b| a.i0.total_cmp(&b.i0));
        let b_eff = b.min(entries.len());
        let l = entries[..b_eff]
            .iter()
            .map(|e| e.ub)
            .fold(f64::NEG_INFINITY, f64::max);

        let mut cands: Vec<usize> = entries[..b_eff].iter().map(|e| e.index).collect();
        for e in &entries[b_eff..] {
            if e.lb_min < l {
                cands.push(e.index);
            }
        }
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
    use crate::influence::{influence_vector, rank_infl_with_vector, InflConfig};
    use chef_linalg::Matrix;
    use chef_model::{Dataset, LogisticRegression, SoftLabel, WeightedObjective};
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

    fn fit(
        model: &LogisticRegression,
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
        let w0 = vec![0.0; chef_model::Model::num_params(model)];
        train(model, obj, data, &w0, &cfg).w
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

    #[test]
    fn frozen_influence_matches_exact_at_w0() {
        let (model, obj, data, val) = fixture(50, 2);
        let w0 = fit(&model, &obj, &data, 20, 4);
        let inc = IncremInfl::initialize(&model, &data, &w0);
        let v = influence_vector(&model, &obj, &data, &val, &w0, &InflConfig::default());
        let exact = rank_infl_with_vector(&model, &data, &w0, &v, &[3, 7, 11], obj.gamma);
        for s in exact {
            let frozen = inc.frozen_influence(
                &data,
                chef_model::Model::num_params(&model),
                &v,
                s.index,
                s.suggested,
                obj.gamma,
            );
            assert!(
                (frozen - s.score).abs() < 1e-10,
                "sample {}: frozen {frozen} vs exact {}",
                s.index,
                s.score
            );
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

    /// Row-wise reference for [`IncremInfl::initialize`]: each sample's
    /// gradients and norms computed into scratch vectors, then appended
    /// to the flat buffers in row order.
    fn initialize_rowwise<M: Model + ?Sized>(
        model: &M,
        data: &dyn DatasetStore,
        w0: &[f64],
    ) -> IncremInfl {
        let (m, c_count) = (model.num_params(), model.num_classes());
        let mut snap = IncremSnapshot {
            w0: w0.to_vec(),
            grads0: Vec::new(),
            class_grads0: Vec::new(),
            hessian_norms0: Vec::new(),
            class_hessian_norms0: Vec::new(),
            num_params: m,
            num_classes: c_count,
            slack: 1.0,
        };
        let mut g = vec![0.0; m];
        for i in 0..data.len() {
            let (x, y) = (data.feature(i), data.label(i));
            model.grad(w0, x, y, &mut g);
            snap.grads0.extend_from_slice(&g);
            for c in 0..c_count {
                model.class_grad(w0, x, c, &mut g);
                snap.class_grads0.extend_from_slice(&g);
            }
            snap.hessian_norms0.push(model.hessian_norm(w0, x, y));
            for c in 0..c_count {
                snap.class_hessian_norms0
                    .push(model.class_hessian_norm(w0, x, c));
            }
        }
        IncremInfl::from_snapshot(snap).unwrap()
    }

    fn snapshot_bits(s: &IncremSnapshot) -> Vec<u64> {
        s.w0.iter()
            .chain(&s.grads0)
            .chain(&s.class_grads0)
            .chain(&s.hessian_norms0)
            .chain(&s.class_hessian_norms0)
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn in_place_initialization_equals_the_rowwise_reference() {
        // 300 rows clear the parallel grain, so a multi-worker pool runs
        // the blocked fan-out (with a partial last block); the
        // three-class MLP covers the per-sample model path.
        let (model, obj, data, _) = fixture(300, 8);
        let w0 = fit(&model, &obj, &data, 5, 2);
        let snap = IncremInfl::initialize(&model, &data, &w0).snapshot();
        let reference = initialize_rowwise(&model, &data, &w0).snapshot();
        assert_eq!(snap, reference);
        assert_eq!(snapshot_bits(&snap), snapshot_bits(&reference));
        assert_eq!(snap.grads0.len(), 300 * snap.num_params);

        let mlp = chef_model::Mlp::new(2, 4, 3);
        let three = Dataset::new(
            Matrix::from_vec(
                300,
                2,
                (0..600).map(|k| (k % 17) as f64 / 8.0 - 1.0).collect(),
            ),
            (0..300).map(|i| SoftLabel::onehot(i % 3, 3)).collect(),
            vec![false; 300],
            vec![None; 300],
            3,
        );
        let w0 = chef_model::Model::initial_params(&mlp, 4);
        let snap = IncremInfl::initialize(&mlp, &three, &w0).snapshot();
        let reference = initialize_rowwise(&mlp, &three, &w0).snapshot();
        assert_eq!(snap, reference);
        assert_eq!(snapshot_bits(&snap), snapshot_bits(&reference));
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
