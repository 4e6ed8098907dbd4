//! The [`DatasetStore`] trait: the access surface every cleaning-loop
//! layer consumes, abstracted over *where the features live*.
//!
//! [`Dataset`] keeps everything in one in-memory matrix; the
//! `chef-data` mmap columnar store keeps features in fixed-width
//! on-disk shards. Both expose the same surface:
//!
//! * **Zero-copy blocks** — [`DatasetStore::feature_rows`] returns a
//!   contiguous row-major slice so the GEMM kernels of `score_block` /
//!   `grad_block` / `hvp_block` consume either store unchanged. A
//!   sharded store cannot splice two shards into one slice, so callers
//!   requesting blocks must stay within [`DatasetStore::contiguous_limit`];
//!   the block kernels' gather fallback covers arbitrary index sets.
//! * **Patch semantics** — labels, clean flags and ground truth are
//!   small (O(n·C)) and always RAM-resident; [`DatasetStore::clean_label`]
//!   and [`DatasetStore::set_label`] mutate them in place exactly like
//!   [`Dataset`], so `checkpoint.v1` label-patch replay works against
//!   any store.
//! * **Residency hints** — [`DatasetStore::advise_range`] and
//!   [`DatasetStore::advise_scanned`] are no-ops in memory and
//!   `madvise` calls on the mmap store, letting per-shard scoring
//!   sweeps bound their resident set. Row reads keep the mmap store's
//!   residency window on their own, so minibatch loops issue no hint.
//!
//! Every former `&Dataset` parameter in the kernels, objective,
//! influence functions, trainer and pipeline is now `&dyn DatasetStore`
//! — existing call sites coerce without edits, and the trait stays
//! object-safe so [`crate::Model`] and the selector trait remain
//! object-safe too.
//!
//! # Examples
//!
//! ```
//! use chef_model::{Dataset, DatasetStore, SoftLabel};
//! use chef_linalg::Matrix;
//!
//! let mut data = Dataset::new(
//!     Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
//!     (0..3).map(|_| SoftLabel::uniform(2)).collect(),
//!     vec![false; 3],
//!     vec![Some(0), Some(1), Some(0)],
//!     2,
//! );
//! // Any `&Dataset` is a `&dyn DatasetStore`:
//! let store: &dyn DatasetStore = &data;
//! assert_eq!(store.len(), 3);
//! assert_eq!(store.feature_rows(1, 3), &[3.0, 4.0, 5.0, 6.0]);
//! assert_eq!(store.contiguous_limit(0), 3); // fully in memory
//! assert_eq!(store.shard_boundaries(), vec![0, 3]);
//!
//! // Label patches flow through the same trait surface:
//! data.clean_label(1, SoftLabel::onehot(1, 2));
//! assert_eq!(data.uncleaned_indices(), vec![0, 2]);
//! ```

use crate::dataset::Dataset;
use crate::label::SoftLabel;

/// Cumulative I/O-side counters a [`DatasetStore`] may expose through
/// [`DatasetStore::io_stats`]: how much work integrity verification and
/// background prefetch did over the store's lifetime. The cleaning
/// pipeline folds these into the `store.*` telemetry counters at the end
/// of a run. Plain data (no `chef-obs` dependency) so any store
/// implementation can report without pulling in the telemetry machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Total milliseconds spent checksum-verifying shard bytes (eager
    /// open streaming plus lazy first-touch checks plus background
    /// prefetch verification).
    pub verify_ms: u64,
    /// Integrity units actually checksummed: whole shards under eager
    /// verification, individual blocks under lazy first-touch.
    pub blocks_verified: u64,
    /// Access-path verification lookups satisfied by the first-touch
    /// bitmap (the block was already verified) — evidence each block is
    /// checked exactly once, not once per read.
    pub lazy_verify_hits: u64,
    /// Milliseconds the background prefetch worker spent verifying and
    /// warming upcoming windows — work overlapped with foreground
    /// compute rather than serialized into the scan.
    pub prefetch_overlap_ms: u64,
    /// Chunks that entered the residency window (one `WILLNEED` each on
    /// a mapped store); a re-touch of a resident chunk is not counted.
    pub window_entries: u64,
    /// Chunks dropped with `DONTNEED`, by window eviction or by
    /// [`DatasetStore::advise_scanned`].
    pub window_releases: u64,
}

/// Storage-agnostic access to a training set: the exact surface the
/// influence kernels, weighted objective, trainer and cleaning loop
/// consume. See the [module docs](self) for the contract.
pub trait DatasetStore: Send + Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Whether the store has no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimension (before the implicit bias column models add).
    fn dim(&self) -> usize;

    /// Number of classes.
    fn num_classes(&self) -> usize;

    /// Feature row of sample `i` as a borrowed slice (zero-copy for
    /// both the in-memory matrix and an mmap'd shard).
    fn feature(&self, i: usize) -> &[f64];

    /// The feature rows `lo..hi` as one contiguous row-major slice
    /// (`(hi − lo) × dim`), zero-copy. Batched kernels use this to feed
    /// consecutive sample blocks straight into a GEMM.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, `hi > len()`, or the range crosses a
    /// storage boundary (`hi > contiguous_limit(lo)`). Callers that
    /// split work by [`Self::shard_boundaries`] or check
    /// [`Self::contiguous_limit`] never hit the latter.
    fn feature_rows(&self, lo: usize, hi: usize) -> &[f64];

    /// The largest `hi` for which `feature_rows(lo, hi)` is guaranteed
    /// to succeed: the end of the contiguous storage unit containing
    /// `lo`. `len()` for in-memory stores; the end of the chunk holding
    /// `lo` for sharded ones.
    fn contiguous_limit(&self, lo: usize) -> usize {
        let _ = lo;
        self.len()
    }

    /// Cut points of the store's contiguous units, as a sorted list
    /// `[0, b₁, …, len]`. In-memory stores are one unit (`[0, len]`);
    /// sharded stores return one entry per chunk boundary. Sharded
    /// scoring passes iterate these so every `feature_rows` call stays
    /// within one unit.
    fn shard_boundaries(&self) -> Vec<usize> {
        vec![0, self.len()]
    }

    /// Label of sample `i`.
    fn label(&self, i: usize) -> &SoftLabel;

    /// Whether sample `i` is clean (deterministic label, weight 1).
    fn is_clean(&self, i: usize) -> bool;

    /// Per-sample weight `γ_z` from Eq. 1: 1 for clean samples, `gamma`
    /// for uncleaned ones.
    fn weight(&self, i: usize, gamma: f64) -> f64 {
        if self.is_clean(i) {
            1.0
        } else {
            gamma
        }
    }

    /// Ground-truth class of sample `i` (simulation only).
    fn ground_truth(&self, i: usize) -> Option<usize>;

    /// Replace the label of sample `i` and mark it clean (the "delete
    /// probabilistic + insert cleaned" update of §4.2).
    fn clean_label(&mut self, i: usize, label: SoftLabel);

    /// Replace the label of sample `i` *without* marking it clean (the
    /// Fact/Twitter "ambiguous aggregate" rule, Appendix F.1).
    fn set_label(&mut self, i: usize, label: SoftLabel);

    /// Mark sample `i` as uncleaned (weight γ).
    fn mark_uncleaned(&mut self, i: usize);

    /// Indices of all currently uncleaned samples (the `Z_p` part).
    fn uncleaned_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.is_clean(i)).collect()
    }

    /// Number of clean samples.
    fn num_clean(&self) -> usize {
        (0..self.len()).filter(|&i| self.is_clean(i)).count()
    }

    /// Hint that `rows` will be read soon. No workspace store overrides
    /// it and no caller issues it: the mmap store's residency window
    /// follows the reads themselves, and a per-batch hint spanning more
    /// chunks than the window holds only fought it. The declaration
    /// stays only because the end-to-end benchmark's `TracedStore` proxy
    /// (`benchmark/src/trace.rs`) forwards it.
    fn prefetch_rows(&self, rows: &[usize]) {
        let _ = rows;
    }

    /// Hint that a sequential scan over rows `lo..hi` is about to start
    /// (`madvise(WILLNEED)` readahead for the covered chunks in the
    /// mmap store). No-op in memory.
    fn advise_range(&self, lo: usize, hi: usize) {
        let _ = (lo, hi);
    }

    /// Hint that the sequential scan over `lo..hi` is finished and the
    /// range will not be re-read soon; the mmap store drops the
    /// residency of the covered chunks (`madvise(DONTNEED)`). No-op in
    /// memory.
    fn advise_scanned(&self, lo: usize, hi: usize) {
        let _ = (lo, hi);
    }

    /// Hint that rows `lo..hi` will be scanned *after* the caller's
    /// current work — the asynchronous sibling of [`Self::advise_range`].
    /// Sharded selector passes call this for shard `s+1` while scoring
    /// shard `s`; a store with a background prefetch worker verifies and
    /// warms the window concurrently, overlapping I/O + checksum work
    /// with compute. Purely a performance hint: implementations must not
    /// change any visible data, so results stay bit-identical with the
    /// hint ignored (the in-memory and serial stores ignore it).
    fn prefetch_upcoming(&self, lo: usize, hi: usize) {
        let _ = (lo, hi);
    }

    /// Cumulative I/O-side counters ([`StoreIoStats`]) for stores that
    /// track integrity/prefetch work; `None` (the default) for stores
    /// with nothing to report. The pipeline records the totals as
    /// `store.*` telemetry counters when a run finishes.
    fn io_stats(&self) -> Option<StoreIoStats> {
        None
    }

    /// Materialize the store as an in-memory [`Dataset`] (features are
    /// copied). Intended for baselines and tests that need an owned,
    /// mutable snapshot — O(n·d), so not for hot paths.
    fn to_dataset(&self) -> Dataset {
        let n = self.len();
        let mut raw = Vec::with_capacity(n * self.dim());
        let mut labels = Vec::with_capacity(n);
        let mut clean = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for i in 0..n {
            raw.extend_from_slice(self.feature(i));
            labels.push(self.label(i).clone());
            clean.push(self.is_clean(i));
            truth.push(self.ground_truth(i));
        }
        Dataset::new(
            chef_linalg::Matrix::from_vec(n, self.dim(), raw),
            labels,
            clean,
            truth,
            self.num_classes(),
        )
    }
}

impl DatasetStore for Dataset {
    #[inline]
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    #[inline]
    fn dim(&self) -> usize {
        Dataset::dim(self)
    }

    #[inline]
    fn num_classes(&self) -> usize {
        Dataset::num_classes(self)
    }

    #[inline]
    fn feature(&self, i: usize) -> &[f64] {
        Dataset::feature(self, i)
    }

    #[inline]
    fn feature_rows(&self, lo: usize, hi: usize) -> &[f64] {
        Dataset::feature_rows(self, lo, hi)
    }

    #[inline]
    fn label(&self, i: usize) -> &SoftLabel {
        Dataset::label(self, i)
    }

    #[inline]
    fn is_clean(&self, i: usize) -> bool {
        Dataset::is_clean(self, i)
    }

    #[inline]
    fn ground_truth(&self, i: usize) -> Option<usize> {
        Dataset::ground_truth(self, i)
    }

    fn clean_label(&mut self, i: usize, label: SoftLabel) {
        Dataset::clean_label(self, i, label);
    }

    fn set_label(&mut self, i: usize, label: SoftLabel) {
        Dataset::set_label(self, i, label);
    }

    fn mark_uncleaned(&mut self, i: usize) {
        Dataset::mark_uncleaned(self, i);
    }

    fn uncleaned_indices(&self) -> Vec<usize> {
        Dataset::uncleaned_indices(self)
    }

    fn num_clean(&self) -> usize {
        Dataset::num_clean(self)
    }

    fn to_dataset(&self) -> Dataset {
        self.clone()
    }
}

/// A read-only view of a base store with a sparse set of label/flag
/// patches layered on top.
///
/// The cleaning loop needs "the dataset as it was before this round's
/// annotations" to drive DeltaGrad-L's delete+insert corrections
/// (constructor `old_data`). Cloning the whole store per round is
/// impossible for an on-disk store and wasteful for an in-memory one;
/// an overlay that remembers the handful of pre-annotation labels is
/// equivalent everywhere the constructor looks — features come straight
/// from the base, labels/flags from the patch set where present.
///
/// Mutating methods panic: the overlay is a snapshot, not a store.
///
/// # Cost contract
///
/// DeltaGrad-L's explicit replay steps read `label`/`is_clean` (via
/// `weight`) for every row of every exact minibatch — hundreds of
/// thousands of calls per round — so the view must cost what the base
/// store costs. [`LabelOverlay::over`] builds a dense membership bitset
/// over `0..base.len()` (n/8 bytes, O(n/64) to build); `label` and
/// `is_clean` on an unpatched row are one bit test plus the base
/// store's own call. Only the ≤ b patched rows consult the patch map.
///
/// # Examples
///
/// ```
/// use chef_model::{Dataset, DatasetStore, LabelOverlay, SoftLabel};
/// use chef_linalg::Matrix;
///
/// let mut data = Dataset::new(
///     Matrix::from_vec(2, 1, vec![1.0, 2.0]),
///     vec![SoftLabel::uniform(2), SoftLabel::uniform(2)],
///     vec![false, false],
///     vec![Some(0), Some(1)],
///     2,
/// );
/// // Snapshot sample 1's pre-cleaning state, then clean it.
/// let mut overlay = LabelOverlay::new();
/// overlay.insert(1, data.label(1).clone(), data.is_clean(1));
/// data.clean_label(1, SoftLabel::onehot(1, 2));
///
/// let old = overlay.over(&data);
/// assert!(!old.is_clean(1)); // the overlay still sees the old state
/// assert_eq!(old.label(1), &SoftLabel::uniform(2));
/// assert_eq!(old.feature(1), &[2.0]); // features pass through
/// ```
#[derive(Debug, Clone, Default)]
pub struct LabelOverlay {
    patches: std::collections::HashMap<usize, (SoftLabel, bool)>,
}

impl LabelOverlay {
    /// Empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that sample `i` had `label` and clean-flag `clean` at
    /// snapshot time. Later inserts for the same index overwrite.
    pub fn insert(&mut self, i: usize, label: SoftLabel, clean: bool) {
        self.patches.insert(i, (label, clean));
    }

    /// Number of patched samples.
    pub fn len(&self) -> usize {
        self.patches.len()
    }

    /// Whether the overlay patches nothing.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }

    /// View `base` through this overlay.
    ///
    /// # Panics
    /// Panics if a patched index is out of range for `base`.
    pub fn over<'a>(&'a self, base: &'a dyn DatasetStore) -> OverlayView<'a> {
        let n = base.len();
        let mut patched = vec![0u64; n.div_ceil(64)];
        for &i in self.patches.keys() {
            assert!(
                i < n,
                "LabelOverlay: patched index {i} out of range for {n} rows"
            );
            patched[i / 64] |= 1 << (i % 64);
        }
        OverlayView {
            base,
            overlay: self,
            patched,
        }
    }
}

/// The [`DatasetStore`] view produced by [`LabelOverlay::over`].
pub struct OverlayView<'a> {
    base: &'a dyn DatasetStore,
    overlay: &'a LabelOverlay,
    /// Bit `i` is set iff row `i` is patched; unpatched rows never touch
    /// the patch map.
    patched: Vec<u64>,
}

impl OverlayView<'_> {
    /// The snapshot of row `i`, if it is patched.
    #[inline]
    fn patch(&self, i: usize) -> Option<&(SoftLabel, bool)> {
        let word = self.patched.get(i / 64).copied().unwrap_or(0);
        if (word >> (i % 64)) & 1 == 1 {
            self.overlay.patches.get(&i)
        } else {
            None
        }
    }
}

impl DatasetStore for OverlayView<'_> {
    fn len(&self) -> usize {
        self.base.len()
    }

    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn num_classes(&self) -> usize {
        self.base.num_classes()
    }

    fn feature(&self, i: usize) -> &[f64] {
        self.base.feature(i)
    }

    fn feature_rows(&self, lo: usize, hi: usize) -> &[f64] {
        self.base.feature_rows(lo, hi)
    }

    fn contiguous_limit(&self, lo: usize) -> usize {
        self.base.contiguous_limit(lo)
    }

    fn shard_boundaries(&self) -> Vec<usize> {
        self.base.shard_boundaries()
    }

    #[inline]
    fn label(&self, i: usize) -> &SoftLabel {
        match self.patch(i) {
            Some((label, _)) => label,
            None => self.base.label(i),
        }
    }

    #[inline]
    fn is_clean(&self, i: usize) -> bool {
        match self.patch(i) {
            Some(&(_, clean)) => clean,
            None => self.base.is_clean(i),
        }
    }

    fn ground_truth(&self, i: usize) -> Option<usize> {
        self.base.ground_truth(i)
    }

    fn clean_label(&mut self, _i: usize, _label: SoftLabel) {
        panic!("LabelOverlay views are read-only");
    }

    fn set_label(&mut self, _i: usize, _label: SoftLabel) {
        panic!("LabelOverlay views are read-only");
    }

    fn mark_uncleaned(&mut self, _i: usize) {
        panic!("LabelOverlay views are read-only");
    }

    fn advise_range(&self, lo: usize, hi: usize) {
        self.base.advise_range(lo, hi);
    }

    fn advise_scanned(&self, lo: usize, hi: usize) {
        self.base.advise_scanned(lo, hi);
    }

    fn prefetch_upcoming(&self, lo: usize, hi: usize) {
        self.base.prefetch_upcoming(lo, hi);
    }

    fn io_stats(&self) -> Option<StoreIoStats> {
        self.base.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_linalg::Matrix;

    fn toy() -> Dataset {
        Dataset::new(
            Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]),
            vec![
                SoftLabel::onehot(0, 2),
                SoftLabel::new(vec![0.4, 0.6]),
                SoftLabel::new(vec![0.2, 0.8]),
            ],
            vec![true, false, false],
            vec![Some(0), Some(1), Some(0)],
            2,
        )
    }

    #[test]
    fn dataset_implements_the_trait_faithfully() {
        let d = toy();
        let s: &dyn DatasetStore = &d;
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.num_classes(), 2);
        assert_eq!(s.feature(1), &[0.0, 1.0]);
        assert_eq!(s.feature_rows(0, 2), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(s.contiguous_limit(0), 3);
        assert_eq!(s.contiguous_limit(2), 3);
        assert_eq!(s.shard_boundaries(), vec![0, 3]);
        assert_eq!(s.weight(0, 0.8), 1.0);
        assert_eq!(s.weight(1, 0.8), 0.8);
        assert_eq!(s.uncleaned_indices(), vec![1, 2]);
        assert_eq!(s.num_clean(), 1);
        // Residency hints are no-ops but must be callable.
        s.prefetch_rows(&[0, 2]);
        s.advise_scanned(0, 3);
    }

    #[test]
    fn to_dataset_round_trips() {
        let d = toy();
        let copy = (&d as &dyn DatasetStore).to_dataset();
        assert_eq!(copy.len(), d.len());
        for i in 0..d.len() {
            assert_eq!(copy.feature(i), d.feature(i));
            assert_eq!(copy.label(i), d.label(i));
            assert_eq!(copy.is_clean(i), d.is_clean(i));
            assert_eq!(copy.ground_truth(i), d.ground_truth(i));
        }
    }

    #[test]
    fn overlay_restores_pre_patch_state() {
        let mut d = toy();
        let mut overlay = LabelOverlay::new();
        overlay.insert(1, d.label(1).clone(), d.is_clean(1));
        overlay.insert(2, d.label(2).clone(), d.is_clean(2));
        d.clean_label(1, SoftLabel::onehot(1, 2));
        d.clean_label(2, SoftLabel::onehot(0, 2));

        let old = overlay.over(&d);
        assert_eq!(old.label(1), &SoftLabel::new(vec![0.4, 0.6]));
        assert!(!old.is_clean(1));
        assert_eq!(old.label(2), &SoftLabel::new(vec![0.2, 0.8]));
        assert!(!old.is_clean(2));
        // Unpatched samples and features read through.
        assert_eq!(old.label(0), d.label(0));
        assert_eq!(old.feature_rows(0, 3), d.feature_rows(0, 3));
        assert_eq!(old.uncleaned_indices(), vec![1, 2]);
        // The live store really is cleaned.
        assert!(d.is_clean(1) && d.is_clean(2));
    }

    /// The bitset view answers exactly like a clone of the
    /// pre-annotation store, on word boundaries (rows 63/64), both ends,
    /// and an index whose snapshot was re-inserted.
    #[test]
    fn overlay_equals_pre_annotation_clone_on_every_row() {
        let n = 130;
        let mut d = Dataset::new(
            Matrix::from_vec(n, 1, (0..n).map(|i| i as f64).collect()),
            (0..n)
                .map(|i| {
                    let p = (i % 9) as f64 / 10.0 + 0.05;
                    SoftLabel::new(vec![p, 1.0 - p])
                })
                .collect(),
            (0..n).map(|i| i % 5 == 0).collect(),
            vec![Some(0); n],
            2,
        );
        let pre = d.clone();
        let mut overlay = LabelOverlay::new();
        // A stale snapshot of row 64 that the second insert overwrites.
        overlay.insert(64, SoftLabel::onehot(1, 2), true);
        for i in [0, 63, 64, 129] {
            overlay.insert(i, d.label(i).clone(), d.is_clean(i));
        }
        assert_eq!(overlay.len(), 4);
        d.set_label(0, SoftLabel::new(vec![0.5, 0.5]));
        d.mark_uncleaned(0);
        d.clean_label(63, SoftLabel::onehot(1, 2));
        d.clean_label(64, SoftLabel::onehot(0, 2));
        d.set_label(129, SoftLabel::new(vec![0.9, 0.1]));

        let old = overlay.over(&d);
        for i in 0..n {
            assert_eq!(old.label(i), pre.label(i), "label of row {i}");
            assert_eq!(old.is_clean(i), pre.is_clean(i), "clean flag of row {i}");
            assert_eq!(
                old.weight(i, 0.8).to_bits(),
                DatasetStore::weight(&pre, i, 0.8).to_bits(),
                "weight of row {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overlay_rejects_out_of_range_patches() {
        let d = toy();
        let mut overlay = LabelOverlay::new();
        overlay.insert(3, SoftLabel::onehot(0, 2), true);
        let _ = overlay.over(&d);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn overlay_view_rejects_mutation() {
        let d = toy();
        let overlay = LabelOverlay::new();
        let mut view = overlay.over(&d);
        view.clean_label(0, SoftLabel::onehot(0, 2));
    }
}
