//! The plan workload `spcg-seq`: rounds of one cold `SpcgPlan::build`, one
//! value-only `refresh_values` and two seeded solves, on the layered input
//! with default options.

use crate::calib::{HostSpeed, Series};
use crate::check::Tally;
use crate::inputs::{drift, layered, rhs, tag, Mix};
use crate::layers::{traced_solve, SolveTrace};
use crate::stats::{cpu_seconds, timed};
use spcg::prelude::*;
use std::time::Instant;

/// Solves per round, alternating between the built and the refreshed plan.
const SOLVES_PER_ROUND: usize = 2;
/// Fewest measured rounds, so the solve samples reach the tail
/// percentile's sample count on any host.
const MIN_ROUNDS: usize = 50;
/// Warm-up rounds, not measured.
const WARM_ROUNDS: u64 = 5;
/// Round number of the first warm-up round, apart from the measured ones.
const WARM_BASE: u64 = 1 << 40;

/// The plan workload: its system and the options every plan is built with.
pub struct PlanWorkload {
    /// The system (natural order).
    pub a: CsrMatrix<f64>,
    /// Options of every build.
    pub opts: SpcgOptions,
}

/// What the measured rounds recorded.
#[derive(Debug, Default)]
pub struct PlanSamples {
    /// `SpcgPlan::build` times.
    pub setup: Series,
    /// `refresh_values` times.
    pub refresh: Series,
    /// Solve times.
    pub solve: Series,
    /// Reference readings around the measured rounds, s.
    pub reference: Vec<f64>,
    /// Measured rounds.
    pub rounds: usize,
    /// Wall time of the measured rounds, s.
    pub window_s: f64,
    /// CPU time of the measured rounds, s.
    pub cpu_s: f64,
    /// The traced solves (traced runs only).
    pub trace: SolveTrace,
}

impl PlanWorkload {
    /// The layered input with `SpcgOptions::default()`.
    pub fn new() -> Self {
        Self { a: layered(), opts: SpcgOptions::default() }
    }

    /// Runs [`WARM_ROUNDS`] warm-up rounds, then measured rounds until
    /// `seconds` have passed and at least [`MIN_ROUNDS`] are done, each
    /// followed by a reference reading that corrects its times. Every
    /// operation is counted in `tally`.
    pub fn run(&self, seed: u64, seconds: f64, traced: bool, tally: &mut Tally) -> PlanSamples {
        let mut warm = PlanSamples::default();
        for k in 0..WARM_ROUNDS {
            self.round(WARM_BASE + k, seed, traced, &mut warm, tally);
        }
        let mut s = PlanSamples::default();
        let mut speed = HostSpeed::new();
        let (cpu0, start) = (cpu_seconds(), Instant::now());
        while s.rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            s.rounds += 1;
            let raw = self.round(s.rounds as u64, seed, traced, &mut s, tally);
            let f = speed.factor();
            s.setup.extend(&raw.setup, f);
            s.refresh.extend(&raw.refresh, f);
            s.solve.extend(&raw.solve, f);
        }
        s.window_s = start.elapsed().as_secs_f64();
        s.cpu_s = cpu_seconds() - cpu0;
        s.reference = speed.readings;
        s
    }

    /// Round `k`: build, drift and refresh, then solve seeded right-hand
    /// sides, even-numbered ones on the built plan and odd-numbered ones on
    /// the refreshed plan. Each answer is checked against the matrix its
    /// plan was made for. Returns the wall times of the operations that
    /// passed.
    fn round(
        &self,
        k: u64,
        seed: u64,
        traced: bool,
        s: &mut PlanSamples,
        tally: &mut Tally,
    ) -> RoundTimes {
        let mut out = RoundTimes::default();
        let (built, t) = timed(|| SpcgPlan::build(&self.a, self.opts.clone()));
        let Some(plan) = tally.ok(built) else { return out };
        out.setup.push(t);
        let a_k = drift(&self.a, &mut Mix::stream(seed, tag::DRIFT, k));
        let (refreshed, t) = timed(|| plan.refresh_values(&a_k));
        let Some(fresh) = tally.ok(refreshed) else { return out };
        // A refresh that re-plans reports the sparsify time it spent; a
        // value-only refresh reports none.
        let value_only = fresh.sparsify_time().is_zero();
        if tally.check(value_only, || format!("round {k}: refresh fell back to a full build")) {
            out.refresh.push(t);
        }
        let mut ws = plan.make_workspace();
        for j in 0..SOLVES_PER_ROUND {
            let (p, a) = if j % 2 == 0 { (&plan, &self.a) } else { (&fresh, &a_k) };
            let idx = (k as usize * SOLVES_PER_ROUND + j) as u64;
            let b = rhs(self.a.n_rows(), &mut Mix::stream(seed, tag::RHS, idx));
            let (res, t) = if traced {
                timed(|| traced_solve(p, &b, &mut ws, &mut s.trace))
            } else {
                timed(|| p.solve_with_workspace(&b, &mut ws))
            };
            let Some(res) = tally.ok(res) else { continue };
            if tally.residual(a, &res.x, &b, &format!("round {k} solve {j}")) {
                out.solve.push(t);
            }
        }
        out
    }
}

/// Wall times of one round's operations, s.
#[derive(Debug, Default)]
struct RoundTimes {
    setup: Vec<f64>,
    refresh: Vec<f64>,
    solve: Vec<f64>,
}
