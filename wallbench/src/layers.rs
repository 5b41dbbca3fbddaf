//! Per-layer figures for the traced run. Every figure is taken from the
//! benchmark's own code, around calls into one layer's public functions;
//! the library's in-program tracing (`probe`) stays off.

use crate::inputs::{layered_large, rhs, tag, Mix};
use crate::stats::{cpu_seconds, median, repeat_median, timed};
use spcg::core::{sparsify_by_magnitude, wavefront_aware_sparsify};
use spcg::gpusim::{plan_end_to_end_cost, DeviceSpec};
use spcg::precond::FsaiPreconditioner;
use spcg::prelude::*;
use spcg::sparse::blas::{axpy, dot, xpby};
use spcg::sparse::spmv::{spmv, spmv_par};
use spcg::wavefront::{solve_blocks, solve_levels_par, BlockSchedule};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Time given to one per-layer timing (it still runs [`MIN_REPS`] calls).
const LAYER_BUDGET_S: f64 = 0.3;
/// Fewest calls behind one per-layer median.
const MIN_REPS: usize = 3;
/// Most calls behind one per-layer median.
const MAX_REPS: usize = 2000;
/// Iterations of the PCG run that times an approximate-inverse apply
/// outside the plan (only the apply time is wanted from it).
const AINV_APPLY_ITERS: usize = 50;
/// Threads of the process that takes the parallel executors' figures.
pub const PAR_THREADS: usize = 2;
/// The figures that process takes, in print order.
const PAR_METRICS: [(&str, &str); 2] =
    [("wavefront.sweep_par_us", "us"), ("sparse.spmv_par_us", "us")];

/// Named figures with their units, in print order: the end-to-end
/// metrics of a run, or its per-layer ones.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one figure.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Hands a timed call's result to the optimizer as used, so the call is
/// not removed as dead.
fn keep<R>(r: R) {
    std::hint::black_box(r);
}

/// Wraps a preconditioner and times every application.
pub struct TimedPrecond<'a, M: ?Sized> {
    inner: &'a M,
    ns: AtomicU64,
    applies: AtomicU64,
}

impl<'a, M: Preconditioner<f64> + ?Sized> TimedPrecond<'a, M> {
    /// Wraps `inner` with zeroed counts.
    pub fn new(inner: &'a M) -> Self {
        Self { inner, ns: AtomicU64::new(0), applies: AtomicU64::new(0) }
    }

    /// Applications so far.
    pub fn applies(&self) -> u64 {
        self.applies.load(Relaxed)
    }

    /// Mean time of one application so far, µs.
    pub fn mean_us(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / 1e3 / self.applies().max(1) as f64
    }

    fn record(&self, t: Instant) {
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.applies.fetch_add(1, Relaxed);
    }
}

impl<M: Preconditioner<f64> + ?Sized> Preconditioner<f64> for TimedPrecond<'_, M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(r, z);
        self.record(t);
    }

    fn scratch_len(&self) -> usize {
        self.inner.scratch_len()
    }

    fn apply_with_scratch(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply_with_scratch(r, z, scratch);
        self.record(t);
    }

    fn staging_len(&self) -> usize {
        self.inner.staging_len()
    }

    fn apply_staged(
        &self,
        r: &[f64],
        z: &mut [f64],
        scratch: &mut [f64],
        staging: &mut [<f64 as Scalar>::Lower],
    ) {
        let t = Instant::now();
        self.inner.apply_staged(r, z, scratch, staging);
        self.record(t);
    }

    fn value_bytes(&self) -> usize {
        self.inner.value_bytes()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
}

/// What the traced solves recorded, one entry per solve.
#[derive(Debug, Default)]
pub struct SolveTrace {
    /// Wall time of the solve, s.
    pub solve_s: Vec<f64>,
    /// PCG iterations.
    pub iterations: Vec<f64>,
    /// Mean preconditioner application, µs.
    pub apply_us: Vec<f64>,
    /// Preconditioner applications.
    pub applies: Vec<f64>,
}

/// Solves `plan`'s system through `pcg_with_workspace` with the plan's own
/// preconditioner wrapped in a [`TimedPrecond`], recording the solve in
/// `trace`. For the natural-order, full-precision plans the benchmark
/// builds, this is the loop `solve_with_workspace` runs.
pub fn traced_solve(
    plan: &SpcgPlan<f64>,
    b: &[f64],
    ws: &mut SolveWorkspace<f64>,
    trace: &mut SolveTrace,
) -> Result<SolveResult<f64>, SolverError> {
    assert!(!plan.is_reordered() && !plan.is_mixed(), "traced solves take natural full plans");
    let config = &plan.options().solver;
    let (res, applies, apply_us, t) = match plan.ainv() {
        Some(m) => run_timed(plan.operator(), m, b, config, ws),
        None => run_timed(plan.operator(), plan.factors(), b, config, ws),
    };
    if let Ok(r) = &res {
        trace.solve_s.push(t);
        trace.iterations.push(r.iterations as f64);
        trace.apply_us.push(apply_us);
        trace.applies.push(applies as f64);
    }
    res
}

fn run_timed<M: Preconditioner<f64> + ?Sized>(
    a: &CsrMatrix<f64>,
    m: &M,
    b: &[f64],
    config: &SolverConfig,
    ws: &mut SolveWorkspace<f64>,
) -> (Result<SolveResult<f64>, SolverError>, u64, f64, f64) {
    let timed_m = TimedPrecond::new(m);
    let (res, t) = timed(|| pcg_with_workspace(a, &timed_m, b, config, ws));
    (res, timed_m.applies(), timed_m.mean_us(), t)
}

/// The layer figures of one system, taken on `a` with the workload's
/// options and its built `plan`; `trace` holds the traced solves of that
/// plan.
pub fn system_layers(
    a: &CsrMatrix<f64>,
    opts: &SpcgOptions,
    plan: &SpcgPlan<f64>,
    trace: &SolveTrace,
    seed: u64,
    out: &mut Metrics,
) {
    let n = a.n_rows();
    let b = rhs(n, &mut Mix::stream(seed, tag::RHS, u64::MAX));
    let mut x = vec![0.0; n];
    let ms = |s: f64| s * 1e3;
    let us = |s: f64| s * 1e6;
    let budget = |f: &mut dyn FnMut()| repeat_median(LAYER_BUDGET_S, MIN_REPS, MAX_REPS, f);

    // core: Algorithm 2, the magnitude split at its ratio, the kind search.
    let params = opts.sparsify.clone().unwrap_or_default();
    out.push(
        "core.algorithm2_ms",
        ms(budget(&mut || keep(wavefront_aware_sparsify(a, &params)))),
        "ms",
    );
    let decision = wavefront_aware_sparsify(a, &params);
    let ratio = decision.chosen_ratio;
    out.push("core.sparsify_ms", ms(budget(&mut || keep(sparsify_by_magnitude(a, ratio)))), "ms");
    let auto = opts.clone().with_precond(PrecondKind::Auto);
    let mut chosen = PrecondKind::IluSparsified;
    let t_auto = budget(&mut || {
        chosen = SpcgPlan::build(a, auto.clone()).map_or(chosen, |p| p.precond_kind());
    });
    let forced = opts.clone().with_precond(chosen);
    let t_forced = budget(&mut || keep(SpcgPlan::build(a, forced.clone())));
    out.push("core.kind_search_ms", ms(t_auto - t_forced), "ms");

    // precond: ILU(0) of the sparsified matrix, and the plan's applies.
    let a_hat = &decision.sparsified.a_hat;
    out.push("precond.factor_ms", ms(budget(&mut || keep(ilu0(a_hat, opts.exec)))), "ms");
    out.push("precond.apply_us", median(&trace.apply_us), "us");
    out.push("precond.applies", median(&trace.applies), "count");
    ainv_layers(a, &b, out);

    // wavefront: schedules and sweeps of the sparsified L.
    let factors = ilu0(a_hat, opts.exec).expect("ILU(0) of the sparsified input");
    let l = factors.l();
    let schedule = LevelSchedule::build(l, Triangle::Lower);
    let blocks = BlockSchedule::from_levels(l, &schedule);
    out.push("wavefront.levels", schedule.n_levels() as f64, "count");
    out.push(
        "wavefront.level_build_ms",
        ms(budget(&mut || keep(LevelSchedule::build(l, Triangle::Lower)))),
        "ms",
    );
    out.push("wavefront.blocks", blocks.n_blocks() as f64, "count");
    out.push(
        "wavefront.block_build_ms",
        ms(budget(&mut || keep(BlockSchedule::from_levels(l, &schedule)))),
        "ms",
    );
    let seq = budget(&mut || spcg::wavefront::solve_lower_seq(l, &b, &mut x));
    out.push("wavefront.sweep_seq_us", us(seq), "us");

    // sparse: SpMV, one iteration's BLAS-1 set, the fingerprint.
    let t_spmv = budget(&mut || spmv(a, &b, &mut x));
    let idx = std::mem::size_of::<usize>() as f64;
    let bytes = a.nnz() as f64 * (8.0 + idx + 8.0) + (n + 1) as f64 * idx + n as f64 * 8.0;
    out.push("sparse.spmv_us", us(t_spmv), "us");
    out.push("sparse.spmv_gbs", bytes / t_spmv / 1e9, "GB/s");
    let (mut p, mut r, mut z) = (b.clone(), b.clone(), b.clone());
    let blas = budget(&mut || {
        let alpha = 1e-3 / (1.0 + dot(&p, &b).abs());
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &b, &mut r);
        let beta = 1e-3 / (1.0 + dot(&r, &z).abs());
        xpby(&z, beta, &mut p);
        z[0] += beta;
    });
    out.push("sparse.blas_us", us(blas), "us");
    out.push("sparse.fingerprint_us", us(budget(&mut || keep(MatrixFingerprint::of(a)))), "us");

    // solver and gpusim.
    let iters = median(&trace.iterations);
    out.push("solver.iterations", iters, "count");
    let per_iter: Vec<f64> =
        trace.solve_s.iter().zip(&trace.iterations).map(|(t, k)| t / k.max(1.0)).collect();
    out.push("solver.iter_us", us(median(&per_iter)), "us");
    let device = DeviceSpec::a100();
    let price = budget(&mut || keep(plan_end_to_end_cost(&device, plan, iters as usize)));
    out.push("gpusim.price_us", us(price), "us");
    par_layers_in_child(seed, out);
}

/// The approximate-inverse figures, on FSAI of `a`: the level-free kind
/// built from `a` alone (the benchmark's plans are ILU plans).
fn ainv_layers(a: &CsrMatrix<f64>, b: &[f64], out: &mut Metrics) {
    let build =
        repeat_median(LAYER_BUDGET_S, MIN_REPS, MAX_REPS, || keep(FsaiPreconditioner::new(a)));
    out.push("precond.ainv_build_ms", 1e3 * build, "ms");
    let fsai = FsaiPreconditioner::new(a).expect("FSAI of an SPD system");
    let config = SolverConfig::default().with_max_iters(AINV_APPLY_ITERS);
    let mut ws = SolveWorkspace::for_preconditioner(a.n_rows(), &fsai);
    let (_, _, apply_us, _) = run_timed(a, &fsai, b, &config, &mut ws);
    out.push("precond.ainv_apply_us", apply_us, "us");
    out.push("precond.ainv_nnz", fsai.nnz() as f64, "count");
}

/// The parallel executors' figures, taken on the large layered input in a process
/// of this program at [`PAR_THREADS`] threads (`--par-layers`), whatever
/// thread count this run has: its `#` lines are passed through and its
/// figures added to `out`. A figure the process did not give is NaN.
fn par_layers_in_child(seed: u64, out: &mut Metrics) {
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--par-layers", "--seed", &seed.to_string()])
            .env("RAYON_NUM_THREADS", PAR_THREADS.to_string())
            .output()
    });
    let stdout = match child {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        Ok(o) => {
            eprintln!("wallbench: --par-layers exited with {}", o.status);
            eprint!("{}", String::from_utf8_lossy(&o.stderr));
            String::new()
        }
        Err(e) => {
            eprintln!("wallbench: cannot start --par-layers: {e}");
            String::new()
        }
    };
    for line in stdout.lines().filter(|l| l.starts_with("# ")) {
        println!("# par-layers: {}", &line[2..]);
    }
    for (name, unit) in PAR_METRICS {
        let value = stdout
            .lines()
            .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .find_map(|rest| rest.split_whitespace().next()?.parse().ok());
        out.push(name, value.unwrap_or(f64::NAN), unit);
    }
}

/// Prints the parallel executors' figures (`name value unit` lines) on the
/// large layered input at this process's thread count: the sweep of the
/// sparsified `L` by the executor `Auto` resolves to, and `spmv_par`.
pub fn par_layers(seed: u64) {
    let a = layered_large();
    let n = a.n_rows();
    let b = rhs(n, &mut Mix::stream(seed, tag::RHS, u64::MAX));
    let mut x = vec![0.0; n];
    let params = SpcgOptions::default().sparsify.unwrap_or_default();
    let a_hat = wavefront_aware_sparsify(&a, &params).sparsified.a_hat;
    let factors = ilu0(&a_hat, ExecutionStrategy::Auto).expect("ILU(0) of the sparsified input");
    let (l, exec) = (factors.l(), factors.exec());
    let widest = factors.l_schedule().levels().iter().map(Vec::len).max().unwrap_or(0);
    let (cpu0, start) = (cpu_seconds(), Instant::now());
    let sweep = match exec {
        ExecutionStrategy::DependencyBlocks => {
            repeat_median(LAYER_BUDGET_S, MIN_REPS, MAX_REPS, || {
                solve_blocks(l, factors.l_blocks(), &b, &mut x)
            })
        }
        _ => repeat_median(LAYER_BUDGET_S, MIN_REPS, MAX_REPS, || {
            solve_levels_par(l, factors.l_schedule(), &b, &mut x)
        }),
    };
    let sweep_cpu_per_wall = (cpu_seconds() - cpu0) / start.elapsed().as_secs_f64();
    println!(
        "# input=layered-large n={n} threads={} exec={} levels={} widest_level={widest} \
         sweep_cpu_per_wall={sweep_cpu_per_wall:.3}",
        rayon::current_num_threads(),
        exec.label(),
        factors.l_schedule().n_levels(),
    );
    println!("wavefront.sweep_par_us {} us", 1e6 * sweep);
    let spmv = repeat_median(LAYER_BUDGET_S, MIN_REPS, MAX_REPS, || spmv_par(&a, &b, &mut x));
    println!("sparse.spmv_par_us {} us", 1e6 * spmv);
}
