//! Cache-blocked batch kernels and a reusable allocation [`Workspace`].
//!
//! The Infl scoring path (chef-core) and the logistic-regression block
//! entry points (chef-model) bottom out here. Three design rules keep
//! the kernels both fast and reproducible:
//!
//! * **Whole-row dot products.** Every output element is one full
//!   [`vector::dot`] over the shared dimension `k`; blocking only
//!   reorders which *elements* are computed next, never how a single
//!   element's sum is associated. A blocked or parallel call is
//!   therefore bit-identical to the naive loop, which is what lets the
//!   selector's pool-size equivalence tests pin exact equality.
//! * **Row-major everything, `Bᵀ` implicit.** CHEF's GEMMs are all
//!   "samples × parameter-rows" products (`logits = X̃Wᵀ`, `U = X̃Vᵀ`),
//!   so the natural kernel is `C = A·Bᵀ` with both operands row-major —
//!   each output element is a contiguous-row dot, no transposition ever
//!   materialized.
//! * **No hidden allocation.** Kernels write into caller buffers;
//!   scratch comes from a [`Workspace`] that recycles `Vec`s across
//!   calls, so steady-state hot loops allocate nothing.

use crate::vector;

/// The panel-kernel family the batched model entry points run on, as
/// `Model::kernel_backend` reports it and telemetry records it.
///
/// There is one: score and HVP panels go through [`affine_nt`] and the
/// minibatch-gradient forward panel through [`affine_nt_unrolled`]
/// (DESIGN.md §14 has the numerics contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelBackend {
    /// The f64 panels described above.
    #[default]
    Reference,
}

impl KernelBackend {
    /// Stable lowercase name used in telemetry documents.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Reference => "reference",
        }
    }
}

/// Most buffers the pool retains. Hot loops hold at most a handful of
/// panels at once, so anything past this is churn — overflow evicts the
/// smallest-capacity entry rather than growing without bound.
const MAX_POOLED: usize = 16;

/// Pick the pooled buffer whose capacity fits `len` best: the smallest
/// capacity ≥ `len`, else the largest available (it is the cheapest to
/// grow). An empty pool hands back a fresh `Vec`.
fn best_fit(pool: &mut Vec<Vec<f64>>, len: usize) -> Vec<f64> {
    if pool.is_empty() {
        return Vec::new();
    }
    let mut best: Option<usize> = None;
    let mut largest = 0;
    for i in 0..pool.len() {
        let cap = pool[i].capacity();
        if cap >= len && best.is_none_or(|j| cap < pool[j].capacity()) {
            best = Some(i);
        }
        if cap > pool[largest].capacity() {
            largest = i;
        }
    }
    pool.swap_remove(best.unwrap_or(largest))
}

/// Return `buf` to `pool`, evicting the smallest-capacity entry when the
/// pool is full (keep the larger of the two — large panels are the
/// expensive allocations the pool exists to retain).
fn put_back(pool: &mut Vec<Vec<f64>>, buf: Vec<f64>) {
    if pool.len() < MAX_POOLED {
        pool.push(buf);
        return;
    }
    let mut min = 0;
    for i in 1..pool.len() {
        if pool[i].capacity() < pool[min].capacity() {
            min = i;
        }
    }
    if pool[min].capacity() < buf.capacity() {
        pool[min] = buf;
    }
}

/// A pool of recycled buffers: `take` a buffer, use it, `put` it back.
/// After warm-up no call allocates: `take` picks the **best-fit**
/// pooled buffer (smallest capacity that already holds `len`), so a
/// small request cannot steal the one large-capacity buffer and force
/// the next GEMM panel to reallocate. The pool keeps at most
/// `MAX_POOLED` (16) buffers, evicting the smallest on overflow.
///
/// Buffers returned by [`Workspace::take`] are zero-filled, so callers
/// can accumulate into them directly.
///
/// ```
/// use chef_linalg::Workspace;
///
/// let mut ws = Workspace::new();
/// let buf = ws.take(8);
/// assert_eq!(buf, vec![0.0; 8]);
/// ws.put(buf); // recycled: the next take(≤ capacity) won't allocate
/// let again = ws.take(4);
/// assert_eq!(again.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
}

impl Workspace {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow a zero-filled buffer of exactly `len` elements, reusing
    /// the best-fitting pooled allocation when one is available.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = best_fit(&mut self.pool, len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Borrow a buffer of exactly `len` elements whose contents are
    /// **unspecified** (recycled values from earlier uses). For hot
    /// paths that overwrite every element anyway — GEMM panels, gather
    /// targets — this skips [`Workspace::take`]'s O(len) zero-fill,
    /// which otherwise rivals the arithmetic it feeds on small blocks.
    pub fn take_uninit(&mut self, len: usize) -> Vec<f64> {
        let mut buf = best_fit(&mut self.pool, len);
        if buf.len() < len {
            buf.resize(len, 0.0);
        } else {
            buf.truncate(len);
        }
        buf
    }

    /// Return a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        put_back(&mut self.pool, buf);
    }
}

/// Affine block product `out[i][c] = dot(x_i, wb_c[..d]) + wb_c[d]` for
/// row-major `x` (`rows×d`) against bias-folded parameter rows `wb`
/// (`c_rows×(d+1)`) — one call computes a whole block's logits `X̃Wᵀ`
/// (or `U = X̃Vᵀ`) without materializing the bias column of `X̃`.
///
/// Serial by construction: callers block and parallelize over sample
/// blocks one level up, so this primitive stays allocation-free and
/// deterministic.
///
/// # Panics
/// Panics on shape mismatches (`d = 0` is rejected).
pub fn affine_nt(x: &[f64], wb: &[f64], d: usize, out: &mut [f64]) {
    assert!(d > 0, "affine_nt: d must be positive");
    assert_eq!(x.len() % d, 0, "affine_nt: x length not a multiple of d");
    let cols = d + 1;
    assert_eq!(
        wb.len() % cols,
        0,
        "affine_nt: wb length not a multiple of d+1"
    );
    let rows = x.len() / d;
    let c_rows = wb.len() / cols;
    assert_eq!(out.len(), rows * c_rows, "affine_nt: out shape mismatch");
    for i in 0..rows {
        let xrow = &x[i * d..(i + 1) * d];
        let orow = &mut out[i * c_rows..(i + 1) * c_rows];
        for (c, o) in orow.iter_mut().enumerate() {
            let wrow = &wb[c * cols..(c + 1) * cols];
            *o = vector::dot(xrow, &wrow[..d]) + wrow[d];
        }
    }
}

/// Dot product with four independent accumulators.
///
/// [`vector::dot`] is a single sequential floating-point reduction, so
/// the CPU cannot overlap its multiply-adds — each one waits on the
/// previous sum. Splitting the reduction into four independent partial
/// sums (combined as `(s0 + s1) + (s2 + s3)` at the end) breaks that
/// dependency chain and lets the FMA pipeline fill.
///
/// The summation *association* is fixed by the code (lane `i % 4`,
/// remainder appended to `s0`'s tree), so results are deterministic and
/// machine-independent — but they are **not** bit-identical to
/// [`vector::dot`]. Use it only inside kernels whose contract is
/// "agrees to ≤1e-10 with the per-sample path", never where two code
/// paths must pin exact equality against `vector::dot`-built results.
#[inline]
pub fn dot_unrolled(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot_unrolled: length mismatch");
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut s3 = 0.0;
    let xc = x.chunks_exact(4);
    let yc = y.chunks_exact(4);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        s0 += xs[0] * ys[0];
        s1 += xs[1] * ys[1];
        s2 += xs[2] * ys[2];
        s3 += xs[3] * ys[3];
    }
    for (a, b) in xr.iter().zip(yr) {
        s0 += a * b;
    }
    (s0 + s1) + (s2 + s3)
}

/// [`affine_nt`] with the inner dot replaced by [`dot_unrolled`]: same
/// shapes, same blocking (none — callers block one level up), different
/// (but fixed, deterministic) summation association. This is the
/// forward-panel kernel for throughput-critical batched paths such as
/// the logistic-regression `grad_block`, where the logits panel is the
/// dominant cost and the ≤1e-10 agreement contract applies.
///
/// # Panics
/// Panics on shape mismatches (`d = 0` is rejected).
pub fn affine_nt_unrolled(x: &[f64], wb: &[f64], d: usize, out: &mut [f64]) {
    assert!(d > 0, "affine_nt_unrolled: d must be positive");
    assert_eq!(
        x.len() % d,
        0,
        "affine_nt_unrolled: x length not a multiple of d"
    );
    let cols = d + 1;
    assert_eq!(
        wb.len() % cols,
        0,
        "affine_nt_unrolled: wb length not a multiple of d+1"
    );
    let rows = x.len() / d;
    let c_rows = wb.len() / cols;
    assert_eq!(
        out.len(),
        rows * c_rows,
        "affine_nt_unrolled: out shape mismatch"
    );
    for i in 0..rows {
        let xrow = &x[i * d..(i + 1) * d];
        let orow = &mut out[i * c_rows..(i + 1) * c_rows];
        for (c, o) in orow.iter_mut().enumerate() {
            let wrow = &wb[c * cols..(c + 1) * cols];
            *o = dot_unrolled(xrow, &wrow[..d]) + wrow[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(n: usize, rng: &mut SmallRng) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Naive reference through the existing `Matrix` type: `A·Bᵀ`.
    fn naive_nt(a: &[f64], b: &[f64], k: usize) -> Vec<f64> {
        let m = a.len() / k;
        let n = b.len() / k;
        let am = Matrix::from_vec(m, k, a.to_vec());
        let bm = Matrix::from_vec(n, k, b.to_vec());
        am.matmul(&bm.transpose()).as_slice().to_vec()
    }

    #[test]
    fn workspace_recycles_and_zeroes() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(5);
        buf.iter_mut().for_each(|v| *v = 7.0);
        let cap = buf.capacity();
        ws.put(buf);
        let again = ws.take(3);
        assert_eq!(again, vec![0.0; 3]);
        assert!(again.capacity() >= cap.min(3));
    }

    #[test]
    fn workspace_take_uninit_has_right_length_without_zeroing() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(4);
        buf.iter_mut().for_each(|v| *v = 9.0);
        ws.put(buf);
        // Shrinking reuse keeps recycled contents (that's the point).
        let b = ws.take_uninit(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b, vec![9.0, 9.0]);
        ws.put(b);
        // Growth extends with zeros beyond the recycled prefix.
        let b = ws.take_uninit(6);
        assert_eq!(b.len(), 6);
        assert_eq!(&b[2..], &[0.0; 4]);
    }

    #[test]
    fn workspace_take_is_best_fit_not_pop() {
        // A small take must not steal the one large-capacity buffer.
        let mut ws = Workspace::new();
        let big = ws.take(1024);
        let big_cap = big.capacity();
        let small = ws.take(8);
        ws.put(small); // pool order: [small] …
        ws.put(big); // … then [small, big]: a naive pop would grab `big`.
        let again_small = ws.take(8);
        assert!(
            again_small.capacity() < big_cap,
            "take(8) stole the large buffer (cap {})",
            again_small.capacity()
        );
        let again_big = ws.take_uninit(1024);
        assert_eq!(again_big.capacity(), big_cap, "large buffer reallocated");
    }

    #[test]
    fn workspace_prefers_largest_when_nothing_fits() {
        let mut ws = Workspace::new();
        let a = ws.take(16);
        let b = ws.take(64);
        let b_cap = b.capacity();
        ws.put(a);
        ws.put(b);
        // Nothing holds 100 elements: grow the largest, not the smallest.
        let grown = ws.take(100);
        assert!(grown.capacity() >= b_cap);
        assert_eq!(ws.pool.len(), 1, "smaller buffer should still be pooled");
        assert!(ws.pool[0].capacity() < b_cap, "took the wrong buffer");
    }

    #[test]
    fn workspace_pool_growth_is_bounded() {
        let mut ws = Workspace::new();
        for len in 1..=(2 * MAX_POOLED) {
            ws.put(Vec::with_capacity(len));
        }
        assert_eq!(ws.pool.len(), MAX_POOLED);
        // Overflow keeps the largest capacities: the smallest retained
        // buffer must beat every evicted one.
        let min_cap = ws.pool.iter().map(Vec::capacity).min().unwrap();
        assert!(
            min_cap > MAX_POOLED,
            "evicted a large buffer (min {min_cap})"
        );
    }

    #[test]
    fn affine_matches_explicit_bias_column() {
        let mut rng = SmallRng::seed_from_u64(2);
        let (rows, c, d) = (70, 3, 5);
        let x = rand_vec(rows * d, &mut rng);
        let wb = rand_vec(c * (d + 1), &mut rng);
        let mut out = vec![0.0; rows * c];
        affine_nt(&x, &wb, d, &mut out);
        // Reference: append the all-ones column and run the plain kernel.
        let mut xt = Vec::with_capacity(rows * (d + 1));
        for r in 0..rows {
            xt.extend_from_slice(&x[r * d..(r + 1) * d]);
            xt.push(1.0);
        }
        let reference = naive_nt(&xt, &wb, d + 1);
        for (a, b) in out.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn dot_unrolled_matches_dot_to_fp_tolerance() {
        let mut rng = SmallRng::seed_from_u64(8);
        for len in [0, 1, 3, 4, 5, 8, 17, 64, 257] {
            let x = rand_vec(len, &mut rng);
            let y = rand_vec(len, &mut rng);
            let plain = crate::vector::dot(&x, &y);
            let fast = dot_unrolled(&x, &y);
            assert!(
                (plain - fast).abs() <= 1e-12 * plain.abs().max(1.0),
                "len {len}: {plain} vs {fast}"
            );
        }
    }

    #[test]
    fn dot_unrolled_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(9);
        let x = rand_vec(103, &mut rng);
        let y = rand_vec(103, &mut rng);
        assert_eq!(
            dot_unrolled(&x, &y).to_bits(),
            dot_unrolled(&x, &y).to_bits()
        );
    }

    #[test]
    fn affine_unrolled_matches_affine_to_fp_tolerance() {
        let mut rng = SmallRng::seed_from_u64(10);
        for (rows, c, d) in [(1, 2, 1), (33, 3, 5), (70, 4, 32), (9, 2, 65)] {
            let x = rand_vec(rows * d, &mut rng);
            let wb = rand_vec(c * (d + 1), &mut rng);
            let mut plain = vec![0.0; rows * c];
            let mut fast = vec![0.0; rows * c];
            affine_nt(&x, &wb, d, &mut plain);
            affine_nt_unrolled(&x, &wb, d, &mut fast);
            for (a, b) in plain.iter().zip(&fast) {
                assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }
}
