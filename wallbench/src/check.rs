//! Correctness checks made apart from the library: a residual computed
//! with the benchmark's own CSR product, bitwise agreement between
//! executors, and the serving tier's accounting. Every check is one
//! attempted operation; a check that fails, or an operation that returned
//! an error, is one failed operation.

use spcg::sparse::CsrMatrix;

/// Upper bound on `‖b − A x‖₂ / ‖b‖₂` for an answer to count as correct.
/// The solver stops at a recurrence residual of 1e-12 relative to `‖b‖`;
/// the true residual of a converged answer on the benchmark's inputs sits
/// within two orders of magnitude of that, and an answer stopped early
/// sits many orders above.
pub const RESIDUAL_BOUND: f64 = 1e-9;

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Operations that returned an answer which failed its check.
    pub wrong: u64,
}

impl Tally {
    /// Counts one operation whose answer passed (`ok`) or failed its check;
    /// `what` describes a failure on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            if self.wrong <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
        ok
    }

    /// Counts one operation that returned an error instead of an answer.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed - self.wrong <= 5 {
            eprintln!("operation failed: {what}");
        }
    }

    /// Counts `res` as one operation: an error fails it, an answer is
    /// handed back for its check.
    pub fn ok<R, E: std::fmt::Display>(&mut self, res: Result<R, E>) -> Option<R> {
        match res {
            Ok(r) => Some(r),
            Err(e) => {
                self.error(e);
                None
            }
        }
    }

    /// Checks that `x` solves `A x = b` to within [`RESIDUAL_BOUND`].
    pub fn residual(&mut self, a: &CsrMatrix<f64>, x: &[f64], b: &[f64], what: &str) -> bool {
        let r = relative_residual(a, x, b);
        self.check(r <= RESIDUAL_BOUND, || format!("{what}: ‖b − A x‖/‖b‖ = {r:e}"))
    }

    /// Checks that two answers are bitwise equal.
    pub fn bitwise(&mut self, x: &[f64], y: &[f64], what: &str) -> bool {
        let same = x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
        self.check(same, || format!("{what}: answers differ bitwise"))
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// `‖b − A x‖₂ / ‖b‖₂`, with the product taken row by row from the CSR
/// arrays. Infinite when the lengths do not fit `A` or a value is not
/// finite, so such an answer never passes.
pub fn relative_residual(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let n = a.n_rows();
    if x.len() != a.n_cols() || b.len() != n {
        return f64::INFINITY;
    }
    let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
    let (mut rr, mut bb) = (0.0f64, 0.0f64);
    for i in 0..n {
        let mut ax = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            ax += values[k] * x[col_idx[k]];
        }
        let ri = b[i] - ax;
        rr += ri * ri;
        bb += b[i] * b[i];
    }
    let r = (rr / bb).sqrt();
    if r.is_finite() {
        r
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    //! Each check must be able to fail: a perturbed answer, an answer
    //! paired with the wrong right-hand side and a solve stopped before
    //! convergence are each counted as one failed operation, while the
    //! untouched answer passes.
    use super::*;
    use crate::inputs::{rhs, tag, Mix};
    use spcg::prelude::*;

    fn system() -> (CsrMatrix<f64>, SpcgPlan<f64>) {
        let a = spcg::sparse::generators::poisson_2d(40, 40);
        let plan = SpcgPlan::build(&a, SpcgOptions::default()).unwrap();
        (a, plan)
    }

    #[test]
    fn converged_answer_passes() {
        let (a, plan) = system();
        let b = rhs(a.n_rows(), &mut Mix::stream(1, tag::RHS, 0));
        let x = plan.solve(&b).unwrap().x;
        let mut t = Tally::default();
        assert!(t.residual(&a, &x, &b, "solve"));
        assert!(t.bitwise(&x, &x.clone(), "same answer"));
        assert_eq!((t.attempted, t.failed, t.wrong), (2, 0, 0));
    }

    #[test]
    fn perturbed_answer_fails() {
        let (a, plan) = system();
        let b = rhs(a.n_rows(), &mut Mix::stream(2, tag::RHS, 0));
        let mut x = plan.solve(&b).unwrap().x;
        x[a.n_rows() / 2] *= 1.0 + 1e-6;
        let mut t = Tally::default();
        assert!(!t.residual(&a, &x, &b, "perturbed x"));
        assert_eq!((t.attempted, t.failed, t.wrong), (1, 1, 1));
    }

    #[test]
    fn wrong_rhs_pairing_fails() {
        let (a, plan) = system();
        let b1 = rhs(a.n_rows(), &mut Mix::stream(3, tag::RHS, 0));
        let b2 = rhs(a.n_rows(), &mut Mix::stream(4, tag::RHS, 0));
        let x1 = plan.solve(&b1).unwrap().x;
        let mut t = Tally::default();
        assert!(!t.residual(&a, &x1, &b2, "x of b1 checked against b2"));
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn capped_solve_fails() {
        let a = spcg::sparse::generators::poisson_2d(40, 40);
        let capped = SpcgOptions::default().with_solver(SolverConfig::default().with_max_iters(3));
        let plan = SpcgPlan::build(&a, capped).unwrap();
        let b = rhs(a.n_rows(), &mut Mix::stream(5, tag::RHS, 0));
        let res = plan.solve(&b).unwrap();
        assert!(!res.converged());
        let mut t = Tally::default();
        assert!(!t.residual(&a, &res.x, &b, "solve capped at 3 iterations"));
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn one_ulp_breaks_bitwise_agreement() {
        let x = vec![1.0f64, 2.0, 3.0];
        let mut y = x.clone();
        y[1] = f64::from_bits(y[1].to_bits() + 1);
        let mut t = Tally::default();
        assert!(!t.bitwise(&x, &y, "one ulp apart"));
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn errors_and_mismatched_lengths_fail() {
        let a = spcg::sparse::generators::poisson_2d(4, 4);
        assert_eq!(relative_residual(&a, &[1.0; 3], &[1.0; 16]), f64::INFINITY);
        let mut t = Tally::default();
        assert!(t.ok::<(), _>(Err("boom")).is_none());
        assert_eq!((t.attempted, t.failed, t.wrong), (1, 1, 0));
    }
}
