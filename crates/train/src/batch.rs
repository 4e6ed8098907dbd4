//! Deterministic minibatch plans.
//!
//! Every SGD epoch shuffles the training indices with a RNG seeded by
//! `(plan seed, epoch)` and walks the permutation in `batch_size` chunks.
//! Because the schedule is a pure function of the seed, DeltaGrad can
//! replay the *exact* batches `B_t` of the original run without the
//! provenance cache having to store any index lists, and `B_t ∩ R` is
//! recomputable at replay time (paper §3.4).

use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, SeedableRng};

/// A reproducible epoch × minibatch schedule over `n` samples.
///
/// ```
/// use chef_train::BatchPlan;
///
/// let plan = BatchPlan::new(100, 32, 3, 42);
/// assert_eq!(plan.total_iterations(), 3 * 4);
/// // Replayable: the same (seed, iteration) always yields the same batch.
/// assert_eq!(plan.batch_at(7), BatchPlan::new(100, 32, 3, 42).batch_at(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    n: usize,
    batch_size: usize,
    epochs: usize,
    seed: u64,
}

impl BatchPlan {
    /// Create a plan.
    ///
    /// # Panics
    /// Panics if `n == 0` or `batch_size == 0`.
    pub fn new(n: usize, batch_size: usize, epochs: usize, seed: u64) -> Self {
        assert!(n > 0, "BatchPlan: empty dataset");
        assert!(batch_size > 0, "BatchPlan: zero batch size");
        Self {
            n,
            batch_size,
            epochs,
            seed,
        }
    }

    /// Number of training samples.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Minibatch size (the final batch of an epoch may be smaller).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of epochs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The shuffle seed: with `(n, batch_size, epochs)` it reconstructs
    /// the plan exactly, so checkpoints persist these four scalars
    /// instead of the materialized batch schedule.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Minibatches per epoch (`⌈n / batch_size⌉`).
    pub fn batches_per_epoch(&self) -> usize {
        self.n.div_ceil(self.batch_size)
    }

    /// Total number of SGD iterations `T`.
    pub fn total_iterations(&self) -> usize {
        self.epochs * self.batches_per_epoch()
    }

    /// The shuffled index order for an epoch.
    pub fn epoch_order(&self, epoch: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ (epoch as u64).wrapping_mul(0x9e37_79b9_7f4a));
        order.shuffle(&mut rng);
        order
    }

    /// The minibatches of one epoch, in iteration order.
    pub fn epoch_batches(&self, epoch: usize) -> Vec<Vec<usize>> {
        let order = self.epoch_order(epoch);
        order.chunks(self.batch_size).map(|c| c.to_vec()).collect()
    }

    /// The minibatch of global iteration `t` (`0 ≤ t < total_iterations`).
    pub fn batch_at(&self, t: usize) -> Vec<usize> {
        assert!(
            t < self.total_iterations(),
            "BatchPlan: iteration out of range"
        );
        let per = self.batches_per_epoch();
        let epoch = t / per;
        let slot = t % per;
        let order = self.epoch_order(epoch);
        order
            .chunks(self.batch_size)
            .nth(slot)
            .expect("slot within epoch")
            .to_vec()
    }

    /// Iterate `(t, batch)` over the whole plan without recomputing the
    /// epoch permutation per batch.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Vec<usize>)> + '_ {
        (0..self.epochs).flat_map(move |e| {
            let per = self.batches_per_epoch();
            self.epoch_batches(e)
                .into_iter()
                .enumerate()
                .map(move |(s, b)| (e * per + s, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn covers_every_sample_once_per_epoch() {
        let plan = BatchPlan::new(103, 10, 3, 42);
        for e in 0..3 {
            let mut seen = HashSet::new();
            for b in plan.epoch_batches(e) {
                for i in b {
                    assert!(seen.insert(i), "duplicate index {i} in epoch {e}");
                }
            }
            assert_eq!(seen.len(), 103);
        }
    }

    #[test]
    fn batch_sizes_are_full_except_last() {
        let plan = BatchPlan::new(25, 10, 1, 1);
        let batches = plan.epoch_batches(0);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 10);
        assert_eq!(batches[1].len(), 10);
        assert_eq!(batches[2].len(), 5);
    }

    #[test]
    fn replay_is_deterministic() {
        let a = BatchPlan::new(50, 8, 4, 9);
        let b = BatchPlan::new(50, 8, 4, 9);
        for t in 0..a.total_iterations() {
            assert_eq!(a.batch_at(t), b.batch_at(t));
        }
    }

    #[test]
    fn different_epochs_shuffle_differently() {
        let plan = BatchPlan::new(64, 64, 2, 5);
        assert_ne!(plan.epoch_order(0), plan.epoch_order(1));
    }

    #[test]
    fn different_seeds_shuffle_differently() {
        let a = BatchPlan::new(64, 64, 1, 5);
        let b = BatchPlan::new(64, 64, 1, 6);
        assert_ne!(a.epoch_order(0), b.epoch_order(0));
    }

    #[test]
    fn iter_matches_batch_at() {
        let plan = BatchPlan::new(33, 7, 2, 13);
        for (t, batch) in plan.iter() {
            assert_eq!(batch, plan.batch_at(t), "iteration {t}");
        }
        assert_eq!(plan.iter().count(), plan.total_iterations());
    }

    /// FNV-1a hashes of `BatchPlan::new(1000, 64, 3, 42)`'s epoch orders.
    /// Provenance caches and checkpoints persist only the plan's four
    /// scalars and rebuild the schedule on load, so the shuffle must stay
    /// bit-stable across RNG and plan changes.
    #[test]
    fn epoch_orders_match_golden_hashes() {
        let plan = BatchPlan::new(1000, 64, 3, 42);
        let golden = [
            0x03fa_9c01_f104_d31d_u64,
            0x2967_b289_b399_df31,
            0xbbe6_5d80_09fc_d771,
        ];
        for (e, want) in golden.into_iter().enumerate() {
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for i in plan.epoch_order(e) {
                for byte in (i as u64).to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(h, want, "epoch {e}");
        }
    }

    #[test]
    fn iteration_counts() {
        let plan = BatchPlan::new(100, 32, 5, 0);
        assert_eq!(plan.batches_per_epoch(), 4);
        assert_eq!(plan.total_iterations(), 20);
    }
}
