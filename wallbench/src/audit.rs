//! The decision audit: what each `Auto` choice measures on this host
//! beside its alternatives, and beside gpusim's A100 price for each. The
//! figures are reference figures for the README, not metrics. On the
//! `spcg` input it also checks, outside any timing, the executors'
//! documented property: each one's answer is bitwise equal to the
//! sequential sweep's.

use crate::check::Tally;
use crate::inputs::{banded, layered_large, rhs, tag, Mix};
use crate::stats::{median, timed};
use spcg::gpusim::{plan_iteration_cost, DeviceSpec};
use spcg::prelude::*;

/// Solves timed per configuration.
const SOLVES: usize = 12;
/// Builds timed per configuration.
const BUILDS: usize = 3;

/// Runs the audit on the `spcg` input (executors) or the `levelfree` input
/// (preconditioner kinds) and prints one table row per configuration.
pub fn run(input: &str, seed: u64, tally: &mut Tally) -> Result<(), String> {
    let base = SpcgOptions::default();
    let (a, configs): (CsrMatrix<f64>, Vec<(&str, SpcgOptions)>) = match input {
        "spcg" => (
            layered_large(),
            [
                ("seq", ExecutionStrategy::Sequential),
                ("barrier", ExecutionStrategy::LevelBarrier),
                ("blocks", ExecutionStrategy::DependencyBlocks),
                ("auto", ExecutionStrategy::Auto),
            ]
            .into_iter()
            .map(|(label, e)| (label, base.clone().with_exec(e)))
            .collect(),
        ),
        "levelfree" => (
            banded(),
            [
                ("ilu", PrecondKind::IluSparsified),
                ("fsai", PrecondKind::Fsai),
                ("spai", PrecondKind::Spai),
                ("auto", PrecondKind::Auto),
            ]
            .into_iter()
            .map(|(label, k)| (label, base.clone().with_precond(k)))
            .collect(),
        ),
        _ => return Err(format!("unknown audit input {input}; one of spcg, levelfree")),
    };
    println!("# audit {input}: n={} nnz={} seed={seed}", a.n_rows(), a.nnz());
    println!("| config | resolves to | build s | solve s | iterations | A100 µs/iter |");
    println!("|---|---|---|---|---|---|");
    let device = DeviceSpec::a100();
    // The answers of the first configuration (`seq` on the `spcg` input),
    // one per right-hand side, which every executor must reproduce bitwise.
    let mut reference: Vec<Vec<f64>> = Vec::new();
    for (label, opts) in configs {
        let mut builds = Vec::new();
        let mut plan = None;
        for _ in 0..BUILDS {
            let (p, t) = timed(|| SpcgPlan::build(&a, opts.clone()));
            builds.push(t);
            plan = tally.ok(p);
        }
        let Some(plan) = plan else { continue };
        let resolved = match plan.ilu_factors() {
            Some(f) => format!("{} / {}", plan.precond_kind().label(), f.exec().label()),
            None => plan.precond_kind().label().to_string(),
        };
        let mut ws = plan.make_workspace();
        let (mut solves, mut iters) = (Vec::new(), Vec::new());
        for k in 0..SOLVES {
            let b = rhs(a.n_rows(), &mut Mix::stream(seed, tag::RHS, k as u64));
            let (res, t) = timed(|| plan.solve_with_workspace(&b, &mut ws));
            let Some(r) = tally.ok(res) else { continue };
            if tally.residual(&a, &r.x, &b, label) {
                solves.push(t);
                iters.push(r.iterations as f64);
            }
            if input == "spcg" {
                match reference.get(k) {
                    Some(x) => {
                        tally.bitwise(&r.x, x, &format!("{label} against seq, solve {k}"));
                    }
                    None => reference.push(r.x),
                }
            }
        }
        let price = plan_iteration_cost(&device, &plan).total_us();
        println!(
            "| {label} | {resolved} | {:.4} | {:.4} | {} | {:.1} |",
            median(&builds),
            median(&solves),
            median(&iters),
            price
        );
    }
    Ok(())
}
