//! Wall-clock benchmark of the SPCG library: plan, refresh, solve and
//! serve, timed through the public API with tracing off, every answer
//! checked apart from the library. See README.md for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wallbench --audit <spcg|levelfree> --seed <n>
//! wallbench --par-layers --seed <n>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). A run whose figures are incomplete, or
//! in which an operation failed, exits with a nonzero code.

mod audit;
mod calib;
mod check;
mod inputs;
mod layers;
mod plan_wl;
mod serve_wl;
mod stats;

use check::Tally;
use layers::{system_layers, Metrics, SolveTrace};
use plan_wl::{PlanSamples, PlanWorkload};
use serve_wl::{serve_one, ServeSamples, ServeWorkload};
use spcg::core::wavefront_aware_sparsify;
use spcg::prelude::*;
use stats::{median, peak_rss_mib, percentile, samples_for_tail, trimmed_mean};
use std::process::ExitCode;
use std::sync::Arc;

/// Tail percentile of solve latencies on `spcg-seq`.
const PLAN_TAIL: f64 = 90.0;
/// Tail percentile of request latencies on `serve-zipf`.
const SERVE_TAIL: f64 = 99.0;
/// Samples a tail percentile must have beyond it.
const TAIL_BEYOND: usize = 10;
/// Requests served alone for the serving figures of `spcg-seq`.
const SERVE_ONE_REQUESTS: usize = 10;
/// Traced direct solves behind the serving figures of `serve-zipf`.
const DIRECT_REQUESTS: usize = 400;
/// Traced solves of the most popular system, for its layer figures.
const TOP_SYSTEM_SOLVES: usize = 40;

/// The workloads, as named on the command line.
const WORKLOADS: [&str; 2] = ["spcg-seq", "serve-zipf"];

struct Args {
    workload: Option<String>,
    audit: Option<String>,
    par_layers: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        audit: None,
        par_layers: false,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--audit" => args.audit = Some(value()?),
            "--par-layers" => args.par_layers = true,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {}", WORKLOADS.join(", ")));
        }
    }
    let modes = [args.workload.is_some(), args.audit.is_some(), args.par_layers];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload <name>, --audit <spcg|levelfree> \
                    and --par-layers"
            .into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_host();
    if args.par_layers {
        layers::par_layers(args.seed);
        return ExitCode::SUCCESS;
    }
    let mut tally = Tally::default();
    if let Some(input) = &args.audit {
        return match audit::run(input, args.seed, &mut tally) {
            Ok(()) => {
                println!("# attempted={} failed={}", tally.attempted, tally.failed);
                if tally.failed > 0 {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("wallbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let workload = args.workload.as_deref().expect("checked by parse_args");
    println!(
        "# workload={workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if workload == "serve-zipf" {
        serve_zipf(&args, &mut tally)
    } else {
        spcg_seq(&args, &mut tally)
    };
    println!("# attempted={} failed={}", tally.attempted, tally.failed);
    print_result(&tally, &metrics)
}

/// Cores, threads, revision and compiler of this run.
fn print_host() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "# host: cores={cores} threads={} rev={} rustc={}",
        rayon::current_num_threads(),
        env("WALLBENCH_REV"),
        env("WALLBENCH_RUSTC"),
    );
}

fn spcg_seq(args: &Args, tally: &mut Tally) -> Metrics {
    let wl = PlanWorkload::new();
    print_system_shape("input", &wl.a, &wl.opts);
    if !args.trace {
        let s = wl.run(args.seed, args.seconds, false, tally);
        return plan_end_to_end(&s);
    }
    // The traced run: half the time on traced rounds, the rest on the
    // layer timings.
    let s = wl.run(args.seed, args.seconds / 2.0, true, tally);
    print_traced(&plan_end_to_end(&s));
    let mut out = Metrics::default();
    let Some(plan) = tally.ok(SpcgPlan::build(&wl.a, wl.opts.clone())) else { return out };
    system_layers(&wl.a, &wl.opts, &plan, &s.trace, args.seed, &mut out);
    let a = Arc::new(wl.a.clone());
    let (latency, submit, stats) = serve_one(&a, &wl.opts, SERVE_ONE_REQUESTS, args.seed, tally);
    serve_layers(&latency, &submit, &stats, &s.trace, &mut out);
    out.push("proc.cpu_per_wall", s.cpu_s / s.window_s, "ratio");
    out
}

fn plan_end_to_end(s: &PlanSamples) -> Metrics {
    println!(
        "# samples: rounds={} builds={} refreshes={} solves={} window_s={:.3}",
        s.rounds,
        s.setup.len(),
        s.refresh.len(),
        s.solve.len(),
        s.window_s
    );
    if s.solve.len() < samples_for_tail(PLAN_TAIL, TAIL_BEYOND) {
        println!("# note: fewer solves than p{PLAN_TAIL} needs for a tail");
    }
    print_raw(&[("setup_s", &s.setup), ("refresh_s", &s.refresh), ("solve_s", &s.solve)]);
    print_reference(&s.reference);
    let solve = &s.solve.corrected;
    let mut m = Metrics::default();
    m.push("setup_s", median(&s.setup.corrected), "s");
    m.push("refresh_s", median(&s.refresh.corrected), "s");
    m.push("solve_s", median(solve), "s");
    m.push("throughput_rps", 1.0 / trimmed_mean(solve), "req/s");
    m.push("latency_p50_ms", 1e3 * median(solve), "ms");
    m.push("latency_tail_ms", 1e3 * percentile(solve, PLAN_TAIL), "ms");
    m.push("peak_rss_mb", peak_rss_mib(), "MiB");
    m
}

/// The median wall times behind the corrected figures.
fn print_raw(series: &[(&str, &calib::Series)]) {
    for (name, s) in series {
        println!("# raw {name} median={:.6e} s", median(&s.raw));
    }
}

/// The host-speed reference readings of a run: their median and spread.
fn print_reference(readings: &[f64]) {
    println!(
        "# reference: readings={} median={:.4e} s p10={:.4e} p90={:.4e} nominal={:.1e}",
        readings.len(),
        median(readings),
        percentile(readings, 10.0),
        percentile(readings, 90.0),
        calib::NOMINAL_S
    );
}

fn serve_zipf(args: &Args, tally: &mut Tally) -> Metrics {
    let wl = ServeWorkload::new();
    for (name, a) in wl.names.iter().zip(&wl.systems) {
        print_system_shape(name, a, &wl.opts);
    }
    println!(
        "# serving: workers={} clients={} zipf_s={} systems={}",
        serve_wl::WORKERS,
        serve_wl::CLIENTS,
        inputs::ZIPF_S,
        wl.systems.len()
    );
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let s = wl.run(args.seed, seconds, args.trace, tally);
    let e2e = serve_end_to_end(&s);
    if !args.trace {
        return e2e;
    }
    print_traced(&e2e);
    let mut out = Metrics::default();
    let plans = wl.plans(tally);
    if plans.len() != wl.systems.len() {
        return out;
    }
    let direct = wl.direct_trace(&plans, args.seed, DIRECT_REQUESTS, tally);
    let mut top = SolveTrace::default();
    let mut ws = plans[0].make_workspace();
    for k in 0..TOP_SYSTEM_SOLVES {
        let mut mix = inputs::Mix::stream(args.seed, inputs::tag::RHS, k as u64);
        let b = inputs::rhs(wl.systems[0].n_rows(), &mut mix);
        if let Some(r) = tally.ok(layers::traced_solve(&plans[0], &b, &mut ws, &mut top)) {
            tally.residual(&wl.systems[0], &r.x, &b, &wl.names[0]);
        }
    }
    system_layers(&wl.systems[0], &wl.opts, &plans[0], &top, args.seed, &mut out);
    serve_layers(&s.latency.raw, &s.submit, &s.stats, &direct, &mut out);
    out.push("proc.cpu_per_wall", s.cpu_s / s.window_s, "ratio");
    out
}

fn serve_end_to_end(s: &ServeSamples) -> Metrics {
    println!(
        "# samples: startups={} direct_rounds={} requests={} window_s={:.3}",
        s.setup.len(),
        s.solve.len(),
        s.latency.len(),
        s.window_s
    );
    let mut m = Metrics::default();
    print_raw(&[
        ("setup_s", &s.setup),
        ("refresh_s", &s.refresh),
        ("solve_s", &s.solve),
        ("latency_s", &s.latency),
    ]);
    println!("# raw throughput_rps {:.6}", s.latency.len() as f64 / s.window_s);
    print_reference(&s.reference);
    let latency = &s.latency.corrected;
    m.push("setup_s", median(&s.setup.corrected), "s");
    m.push("refresh_s", median(&s.refresh.corrected), "s");
    m.push("solve_s", median(&s.solve.corrected), "s");
    m.push("throughput_rps", latency.len() as f64 / s.window_corrected_s, "req/s");
    m.push("latency_p50_ms", 1e3 * median(latency), "ms");
    m.push("latency_tail_ms", 1e3 * percentile(latency, SERVE_TAIL), "ms");
    m.push("peak_rss_mb", peak_rss_mib(), "MiB");
    m
}

/// The serving figures: served latencies and `submit` times against the
/// direct solves of the same systems.
fn serve_layers(
    latency: &[f64],
    submit: &[f64],
    stats: &spcg::serve::ServiceStats,
    direct: &SolveTrace,
    out: &mut Metrics,
) {
    let direct_s = median(&direct.solve_s);
    out.push("serve.direct_solve_ms", 1e3 * direct_s, "ms");
    out.push("serve.overhead_ms", 1e3 * (median(latency) - direct_s), "ms");
    out.push("serve.submit_us", 1e6 * median(submit), "us");
    let lookups = stats.cache.hits + stats.cache.misses;
    out.push("serve.cache_hit_ratio", stats.cache.hits as f64 / lookups.max(1) as f64, "ratio");
    out.push(
        "serve.batch_rhs_mean",
        stats.batched_rhs as f64 / stats.batches.max(1) as f64,
        "count",
    );
}

/// One header line on a system: its size, its wavefronts before and after
/// Algorithm 2, and what a plan built with `opts` resolves to.
fn print_system_shape(label: &str, a: &CsrMatrix<f64>, opts: &SpcgOptions) {
    let params = opts.sparsify.clone().unwrap_or_default();
    let d = wavefront_aware_sparsify(a, &params);
    let (exec, kind) = match SpcgPlan::build(a, opts.clone()) {
        Ok(p) => (
            p.ilu_factors().map_or("none (level-free)", |f| f.exec().label()),
            p.precond_kind().label(),
        ),
        Err(_) => ("build failed", "build failed"),
    };
    println!(
        "# {label}: n={} nnz={} wavefronts={}->{} ratio={}% exec={exec} kind={kind}",
        a.n_rows(),
        a.nnz(),
        d.wavefronts_original,
        d.wavefronts_sparsified,
        d.chosen_ratio,
    );
}

/// The traced run's own end-to-end figures, beside which an untraced run's
/// show the tracing overhead.
fn print_traced(m: &Metrics) {
    for (name, value, unit) in &m.0 {
        println!("# traced {name} {value} {unit}");
    }
}

/// Prints the figures and, when every figure has a value, the result line.
/// A figure without a value (none of its samples passed its check) or a
/// failed operation makes the run exit with a nonzero code.
fn print_result(tally: &Tally, metrics: &Metrics) -> ExitCode {
    for (name, value, unit) in &metrics.0 {
        println!("{name} {value} {unit}");
    }
    if let Some((name, ..)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("wallbench: {name} has no value; no result");
        return ExitCode::FAILURE;
    }
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    if tally.failed > 0 {
        eprintln!("wallbench: {} of {} operations failed", tally.failed, tally.attempted);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
