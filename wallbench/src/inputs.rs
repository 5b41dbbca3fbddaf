//! Workload inputs. Matrix structures come from fixed suite recipes and
//! never depend on the seed, so every seed measures the same problem; the
//! run's `--seed` drives the right-hand sides, the value drift fed to
//! `refresh_values` and the serving tier's request sequence.

use spcg::sparse::CsrMatrix;
use spcg::suite::recipes::{Ordering, Recipe};
use spcg::suite::{standard_collection, MatrixSpec};

/// The `spcg-seq` input: the suite's layered-media recipe at 80 × 80, small
/// enough that the solve's operands stay in one core's L2 cache.
pub const LAYERED: Recipe = Recipe::Layered2D { nx: 80, ny: 80, period: 5, weak: 1e-4 };
/// The same recipe at the scale of the paper's target inputs, 300 × 300:
/// the input of the executor audit and of the parallel layer figures.
pub const LAYERED_LARGE: Recipe = Recipe::Layered2D { nx: 300, ny: 300, period: 5, weak: 1e-4 };
/// The decision audit's wavefront-poor input: the suite's banded recipe at
/// 60 000 rows.
pub const BANDED: Recipe = Recipe::Banded { n: 60_000, band: 4, density: 0.7, dominance: 1.5 };
/// Recipe seed of the layered and banded inputs (fixes their noise and
/// band fill).
pub const RECIPE_SEED: u64 = 0x5EED_2025;

/// The layered input, natural order (spread 1.5, as the suite builds it).
pub fn layered() -> CsrMatrix<f64> {
    LAYERED.build(RECIPE_SEED, 1.5, Ordering::Natural)
}

/// The large layered input, built as [`layered`].
pub fn layered_large() -> CsrMatrix<f64> {
    LAYERED_LARGE.build(RECIPE_SEED, 1.5, Ordering::Natural)
}

/// The banded input, natural order (no spread, as the suite builds it).
pub fn banded() -> CsrMatrix<f64> {
    BANDED.build(RECIPE_SEED, 1.0, Ordering::Natural)
}

/// Suite systems of the serving working set, in popularity order (the
/// first is requested most often).
pub const WORKING_SET: [&str; 12] = [
    "grid_00",
    "acoustic_00",
    "thermal_00",
    "struct_00",
    "thermal_01",
    "acoustic_01",
    "grid_01",
    "struct_02",
    "thermal_02",
    "struct_01",
    "grid_02",
    "thermal_04",
];

/// Zipf exponent of the working set's popularity.
pub const ZIPF_S: f64 = 1.1;

/// The working-set specs, in [`WORKING_SET`] order.
pub fn working_set() -> Vec<MatrixSpec> {
    let all = standard_collection();
    WORKING_SET
        .iter()
        .map(|name| {
            all.iter().find(|s| s.name == *name).cloned().expect("working-set name is in the suite")
        })
        .collect()
}

/// SplitMix64: a small seeded generator, independent of the library's.
#[derive(Debug, Clone, Default)]
pub struct Mix(u64);

impl Mix {
    /// The stream for item `k` of purpose `tag` under run seed `seed`.
    pub fn stream(seed: u64, tag: u64, k: u64) -> Self {
        let mut m = Self(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        m.0 ^= m.next_u64().wrapping_add(k.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        m
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn sym(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }
}

/// Stream tags, one per purpose.
pub mod tag {
    /// Right-hand sides.
    pub const RHS: u64 = 1;
    /// Value drift.
    pub const DRIFT: u64 = 2;
    /// One serving client's request sequence.
    pub const CLIENT: u64 = 3;
    /// Requests of a serving start-up.
    pub const STARTUP: u64 = 4;
}

/// A right-hand side of `n` entries uniform in `[-1, 1)`.
pub fn rhs(n: usize, mix: &mut Mix) -> Vec<f64> {
    (0..n).map(|_| mix.sym()).collect()
}

/// Relative size of the value drift.
pub const DRIFT: f64 = 0.01;

/// A value drift of `a` that keeps its structure, symmetry and
/// definiteness: `S A S + D`, with `S = diag(s)`, `s_i` uniform in
/// `1 ± DRIFT`, and `D ≥ 0` diagonal, `d_i` uniform in `[0, DRIFT·|a_ii|)`.
/// A congruence by a nonsingular diagonal keeps `A` symmetric positive
/// definite, and so does adding a nonnegative diagonal.
pub fn drift(a: &CsrMatrix<f64>, mix: &mut Mix) -> CsrMatrix<f64> {
    let n = a.n_rows();
    let s: Vec<f64> = (0..n).map(|_| 1.0 + DRIFT * mix.sym()).collect();
    let d: Vec<f64> = (0..n).map(|_| DRIFT * mix.unit()).collect();
    let mut out = a.clone();
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let values = out.values_mut();
    for i in 0..n {
        for k in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[k];
            let v = values[k] * s[i] * s[j];
            values[k] = if i == j { v + d[i] * v.abs() } else { v };
        }
    }
    out
}

/// Cumulative Zipf weights over `n` ranks with exponent `s`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += (r as f64).powf(-s);
            acc
        })
        .collect();
    let total = acc;
    cdf.iter_mut().for_each(|c| *c /= total);
    cdf
}

/// Draws a rank from a cumulative distribution.
pub fn draw(cdf: &[f64], mix: &mut Mix) -> usize {
    let u = mix.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_keeps_structure_and_symmetry() {
        let a = spcg::sparse::generators::poisson_2d(12, 12);
        let d = drift(&a, &mut Mix::stream(7, tag::RHS, 0));
        assert_eq!(a.row_ptr(), d.row_ptr());
        assert_eq!(a.col_idx(), d.col_idx());
        assert!(d.is_symmetric(0.0));
        assert_ne!(a.values(), d.values());
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let x = rhs(8, &mut Mix::stream(1, tag::RHS, 0));
        assert_eq!(x, rhs(8, &mut Mix::stream(1, tag::RHS, 0)));
        assert_ne!(x, rhs(8, &mut Mix::stream(1, tag::RHS, 1)));
        assert_ne!(x, rhs(8, &mut Mix::stream(2, tag::RHS, 0)));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let cdf = zipf_cdf(12, ZIPF_S);
        let mut mix = Mix::stream(3, tag::RHS, 0);
        let mut hits = [0usize; 12];
        for _ in 0..10_000 {
            hits[draw(&cdf, &mut mix)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[11] && hits[11] > 0);
    }
}
