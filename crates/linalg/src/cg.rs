//! Conjugate-gradient solver for symmetric positive-definite systems.
//!
//! CHEF never materializes the training-set Hessian `H(w)` (dimension m×m
//! with m the flattened parameter count). Instead, §4.1.1 of the paper
//! follows Koh & Liang and computes `vᵀ = −∇F(w, Z_val)ᵀ H⁻¹(w)` with the
//! conjugate-gradient method, where each iteration only needs one
//! Hessian-vector product. The [`LinearOperator`] trait abstracts that
//! product so models can supply exact closed-form HVPs (logistic
//! regression) or finite-difference HVPs (the MLP of Appendix G.2).

use crate::vector;

/// A symmetric positive-(semi)definite linear operator `x ↦ A x`.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Compute `out = A x`.
    fn apply(&self, x: &[f64], out: &mut [f64]);
}

/// A dense matrix is trivially a linear operator (used in tests/benches).
impl LinearOperator for crate::Matrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows(), self.cols());
        self.rows()
    }
    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.matvec(x, out);
    }
}

/// Configuration for [`conjugate_gradient`].
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Maximum number of CG iterations (a cap of `dim` is also applied
    /// implicitly by CG's exact-termination property in exact arithmetic).
    pub max_iters: usize,
    /// Terminate when `‖A x − b‖ ≤ tol · max(‖b‖, 1)`.
    pub tol: f64,
    /// Tikhonov damping added to the operator: solves `(A + damping·I) x = b`.
    /// Used for the non-convex MLP path where `A` may be indefinite.
    pub damping: f64,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            max_iters: 200,
            tol: 1e-8,
            damping: 0.0,
        }
    }
}

/// Result of a CG solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The solution estimate.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iters: usize,
    /// Final residual norm `‖b − A x‖`.
    pub residual_norm: f64,
    /// Whether the tolerance was met before hitting `max_iters`.
    pub converged: bool,
}

/// Solve `(A + damping·I) x = b` for symmetric positive-definite `A`.
///
/// Standard (unpreconditioned) conjugate gradients, initialized at zero.
/// Panics if `b` is not the operator's dimension.
///
/// ```
/// use chef_linalg::{conjugate_gradient, CgConfig, Matrix};
///
/// let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
/// let out = conjugate_gradient(&a, &[1.0, 2.0], &CgConfig::default());
/// assert!(out.converged);
/// assert!((out.x[0] - 1.0 / 11.0).abs() < 1e-8);
/// ```
pub fn conjugate_gradient<Op: LinearOperator + ?Sized>(
    op: &Op,
    b: &[f64],
    cfg: &CgConfig,
) -> CgOutcome {
    let n = op.dim();
    assert_eq!(b.len(), n, "conjugate_gradient: rhs dimension mismatch");
    let mut x = vec![0.0; n];
    // r = b - A x = b at x = 0.
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let bnorm = vector::norm2(b).max(1.0);
    let mut rs_old = vector::norm2_sq(&r);
    let target = cfg.tol * bnorm;

    if rs_old.sqrt() <= target {
        return CgOutcome {
            x,
            iters: 0,
            residual_norm: rs_old.sqrt(),
            converged: true,
        };
    }

    let max_iters = cfg.max_iters.max(1);
    let mut iters = 0;
    for _ in 0..max_iters {
        op.apply(&p, &mut ap);
        if cfg.damping != 0.0 {
            vector::axpy(cfg.damping, &p, &mut ap);
        }
        let p_ap = vector::dot(&p, &ap);
        if p_ap <= 0.0 || !p_ap.is_finite() {
            // Negative curvature or numerical breakdown: stop with the
            // current iterate. With a damped SPD operator this is rare.
            break;
        }
        let alpha = rs_old / p_ap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        iters += 1;
        let rs_new = vector::norm2_sq(&r);
        if rs_new.sqrt() <= target {
            rs_old = rs_new;
            break;
        }
        let beta = rs_new / rs_old;
        for (pi, ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        rs_old = rs_new;
    }

    let residual_norm = rs_old.sqrt();
    CgOutcome {
        converged: residual_norm <= target,
        x,
        iters,
        residual_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn spd(n: usize, seed: u64) -> Matrix {
        // A = Mᵀ M + n·I is SPD for any M.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let mut a = m.transpose().matmul(&m);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn solves_identity() {
        let a = Matrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        let out = conjugate_gradient(&a, &b, &CgConfig::default());
        assert!(out.converged);
        for (xi, bi) in out.x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn solves_known_2x2() {
        // A = [[4,1],[1,3]], b = [1,2] → x = [1/11, 7/11].
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let out = conjugate_gradient(&a, &[1.0, 2.0], &CgConfig::default());
        assert!(out.converged);
        assert!((out.x[0] - 1.0 / 11.0).abs() < 1e-9);
        assert!((out.x[1] - 7.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn solves_random_spd() {
        for seed in 0..5 {
            let n = 20;
            let a = spd(n, seed);
            let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut b = vec![0.0; n];
            a.matvec(&xs, &mut b);
            let out = conjugate_gradient(&a, &b, &CgConfig::default());
            assert!(out.converged, "seed {seed} did not converge");
            for (got, want) in out.x.iter().zip(&xs) {
                assert!((got - want).abs() < 1e-6, "seed {seed}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn damping_solves_shifted_system() {
        let a = Matrix::identity(3);
        let cfg = CgConfig {
            damping: 1.0,
            ..CgConfig::default()
        };
        // Solves (I + I) x = b → x = b/2.
        let out = conjugate_gradient(&a, &[2.0, 4.0, 6.0], &cfg);
        assert!(out.converged);
        assert!((out.x[0] - 1.0).abs() < 1e-9);
        assert!((out.x[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_is_immediate() {
        let a = spd(8, 3);
        let out = conjugate_gradient(&a, &[0.0; 8], &CgConfig::default());
        assert!(out.converged);
        assert_eq!(out.iters, 0);
        assert!(out.x.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn respects_max_iters() {
        let a = spd(30, 7);
        let cfg = CgConfig {
            max_iters: 2,
            tol: 1e-14,
            damping: 0.0,
        };
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mut b = vec![0.0; 30];
        a.matvec(&xs, &mut b);
        let out = conjugate_gradient(&a, &b, &cfg);
        assert_eq!(out.iters, 2);
    }
}
