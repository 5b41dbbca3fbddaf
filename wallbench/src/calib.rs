//! Host-speed correction. On a shared host the speed of one core swings by
//! 30–50% over seconds to minutes with the neighbours' load, and a whole
//! run can sit in a slow stretch. A fixed reference pass, written here and
//! independent of the library, is timed between the measured operations;
//! every measured time is scaled by [`NOMINAL_S`] over the mean of the two
//! reference readings around it. A change to the library moves only the
//! measured time, so the corrected figure moves with it, while a slow
//! stretch of the host moves both and cancels.
//!
//! The pass is built like the measured work, in shares that on the
//! development host tracked the plan build, the refresh and the solve
//! about equally well: CSR products, forward triangular sweeps and vector
//! updates over a cache-resident 2-D Laplacian, and sorts of freshly
//! allocated keys.

use std::hint::black_box;
use std::time::Instant;

/// The reference pass's time on the machine that set the benchmark's
/// figures, in a fast stretch; corrected times are in seconds at that
/// speed.
pub const NOMINAL_S: f64 = 1.0e-3;
/// Side of the reference grid: 4 096 rows, 20 224 nonzeros.
const GRID: usize = 64;
/// CSR products per pass.
const PRODUCTS: usize = 10;
/// Forward sweeps per pass.
const SWEEPS: usize = 10;
/// Vector updates (a dot product, an update and a normalisation) per pass.
const UPDATES: usize = 20;
/// Sorts per pass, and keys per sort.
const SORTS: usize = 4;
const SORT_KEYS: usize = 6_000;

/// The reference pass and its operands.
pub struct Reference {
    /// The Laplacian, CSR.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// Its strictly lower triangle, CSR, and its inverted diagonal.
    lower_ptr: Vec<usize>,
    lower_idx: Vec<usize>,
    lower_values: Vec<f64>,
    inv_diag: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl Reference {
    /// The 5-point Laplacian on a [`GRID`] × [`GRID`] grid, rows in natural
    /// order.
    pub fn new() -> Self {
        let n = GRID * GRID;
        let mut r = Self {
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
            lower_ptr: vec![0],
            lower_idx: Vec::new(),
            lower_values: Vec::new(),
            inv_diag: vec![0.25; n],
            x: vec![1.0; n],
            y: vec![0.0; n],
            z: vec![0.0; n],
        };
        for i in 0..n {
            let (row, col) = (i / GRID, i % GRID);
            let neighbours = [
                (row > 0).then(|| i.wrapping_sub(GRID)),
                (col > 0).then(|| i.wrapping_sub(1)),
                Some(i),
                (col + 1 < GRID).then_some(i + 1),
                (row + 1 < GRID).then_some(i + GRID),
            ];
            for j in neighbours.into_iter().flatten() {
                let v = if j == i { 4.0 } else { -1.0 };
                r.col_idx.push(j);
                r.values.push(v);
                if j < i {
                    r.lower_idx.push(j);
                    r.lower_values.push(v);
                }
            }
            r.row_ptr.push(r.col_idx.len());
            r.lower_ptr.push(r.lower_idx.len());
        }
        r
    }

    /// Runs one pass and returns its wall time, s.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.x.len();
        for _ in 0..PRODUCTS {
            for i in 0..n {
                let mut s = 0.0;
                for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                    s += self.values[k] * self.x[self.col_idx[k]];
                }
                self.y[i] = s;
            }
        }
        for _ in 0..SWEEPS {
            for i in 0..n {
                let mut s = self.y[i];
                for k in self.lower_ptr[i]..self.lower_ptr[i + 1] {
                    s -= self.lower_values[k] * self.z[self.lower_idx[k]];
                }
                self.z[i] = s * self.inv_diag[i];
            }
        }
        for _ in 0..UPDATES {
            let d: f64 = self.x.iter().zip(&self.z).map(|(a, b)| a * b).sum();
            let alpha = 1.0 / (1.0 + d.abs());
            for (x, z) in self.x.iter_mut().zip(&self.z) {
                *x = 0.5 * *x + alpha * z;
            }
            let norm = self.x.iter().map(|v| v * v).sum::<f64>().sqrt();
            self.x.iter_mut().for_each(|v| *v /= norm);
        }
        for sort in 0..SORTS as u64 {
            let mut keys: Vec<u64> = (0..SORT_KEYS as u64)
                .map(|k| (k ^ sort).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            keys.sort_unstable();
            black_box(&keys);
        }
        black_box(&self.x);
        t.elapsed().as_secs_f64()
    }
}

/// Reference readings taken between measured operations.
pub struct HostSpeed {
    reference: Reference,
    last: f64,
    /// Every reading, s.
    pub readings: Vec<f64>,
}

impl HostSpeed {
    /// Warms the reference up and takes the first reading.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        for _ in 0..20 {
            reference.time();
        }
        let last = reference.time();
        Self { reference, last, readings: vec![last] }
    }

    /// Takes a reading and returns the factor that corrects the times
    /// measured since the previous one: [`NOMINAL_S`] over the mean of the
    /// two readings.
    pub fn factor(&mut self) -> f64 {
        let now = self.reference.time();
        let f = NOMINAL_S / (0.5 * (self.last + now));
        self.last = now;
        self.readings.push(now);
        f
    }
}

/// Samples of one timed operation, as measured and corrected.
#[derive(Debug, Default, Clone)]
pub struct Series {
    /// Wall times, s.
    pub raw: Vec<f64>,
    /// The same times corrected for host speed, s at [`NOMINAL_S`].
    pub corrected: Vec<f64>,
}

impl Series {
    /// Adds wall times `raw`, corrected by `factor`.
    pub fn extend(&mut self, raw: &[f64], factor: f64) {
        self.raw.extend_from_slice(raw);
        self.corrected.extend(raw.iter().map(|t| t * factor));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.raw.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_the_laplacian_and_a_pass_takes_time() {
        let mut r = Reference::new();
        assert_eq!(r.row_ptr.len(), GRID * GRID + 1);
        assert_eq!(r.values.len(), 5 * GRID * GRID - 4 * GRID);
        assert_eq!(2 * r.lower_values.len() + GRID * GRID, r.values.len());
        assert!(r.time() > 0.0);
        let mut s = HostSpeed::new();
        let f = s.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(s.readings.len(), 2);
    }
}
