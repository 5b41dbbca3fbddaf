//! The `serve-zipf` workload: a `SolveService` with two workers under a
//! closed loop of clients that request systems of a small working set with
//! Zipf-skewed popularity.

use crate::calib::{HostSpeed, Series};
use crate::check::Tally;
use crate::inputs::{draw, drift, rhs, tag, working_set, zipf_cdf, Mix, ZIPF_S};
use crate::layers::{traced_solve, SolveTrace};
use crate::stats::{cpu_seconds, timed};
use spcg::prelude::*;
use spcg::serve::ServiceStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Worker threads of the service.
pub const WORKERS: usize = 2;
/// Clients of the closed loop; each keeps one request outstanding, so
/// this many requests are outstanding at any time.
pub const CLIENTS: usize = 4;
/// Requests one client sends in one stretch of the closed loop; a
/// reference reading between stretches corrects their latencies.
const STRETCH_REQUESTS: usize = 32;
/// Segments a run is cut into. Each holds its share of the start-ups, the
/// direct rounds and the closed loop, so every figure samples the whole
/// run and not one stretch of it.
const SEGMENTS: usize = 5;
/// Start-ups timed per segment, besides that of the service the closed
/// loop runs on.
const STARTUPS_PER_SEGMENT: usize = 4;
/// Share of the run spent on direct refresh and solve rounds; the rest
/// goes to the closed loop.
const DIRECT_SHARE: f64 = 0.35;
/// Fewest direct rounds per segment.
const MIN_DIRECT_ROUNDS: usize = 4;
/// Requests the closed loop completes at the least, so the tail percentile
/// always has its sample count.
pub const MIN_REQUESTS: usize = 2000;

/// The working set: systems in popularity order and the request
/// distribution over them.
pub struct ServeWorkload {
    /// Suite names, in popularity order.
    pub names: Vec<String>,
    /// The systems.
    pub systems: Vec<Arc<CsrMatrix<f64>>>,
    /// Cumulative request probability by popularity rank.
    pub cdf: Vec<f64>,
    /// Options the service builds every plan with.
    pub opts: SpcgOptions,
}

/// What one serving run recorded.
#[derive(Debug, Default)]
pub struct ServeSamples {
    /// Start-up times (service plus one request per system).
    pub setup: Series,
    /// Times to refresh every working-set plan once.
    pub refresh: Series,
    /// Times to solve one right-hand side on every working-set plan.
    pub solve: Series,
    /// Request latencies, submit to answer.
    pub latency: Series,
    /// `submit` times, s (traced runs only).
    pub submit: Vec<f64>,
    /// Wall time of the closed loop, s.
    pub window_s: f64,
    /// The same, corrected for host speed, s.
    pub window_corrected_s: f64,
    /// Reference readings of the run, s.
    pub reference: Vec<f64>,
    /// CPU time of the closed loop, s.
    pub cpu_s: f64,
    /// Service counters at the end of the run.
    pub stats: ServiceStats,
}

impl ServeWorkload {
    /// The working set of [`crate::inputs::WORKING_SET`], built.
    pub fn new() -> Self {
        let specs = working_set();
        Self {
            names: specs.iter().map(|s| s.name.clone()).collect(),
            systems: specs.iter().map(|s| Arc::new(s.build())).collect(),
            cdf: zipf_cdf(specs.len(), ZIPF_S),
            opts: SpcgOptions::default(),
        }
    }

    fn config(&self) -> ServiceConfig {
        ServiceConfig { workers: WORKERS, options: self.opts.clone(), ..ServiceConfig::default() }
    }

    /// Starts the service the closed loop runs on, then runs
    /// [`SEGMENTS`] segments of start-ups, direct rounds and closed loop,
    /// and finally checks the service's accounting.
    pub fn run(&self, seed: u64, seconds: f64, traced: bool, tally: &mut Tally) -> ServeSamples {
        let mut s = ServeSamples::default();
        let mut speed = HostSpeed::new();
        let (service, t) = self.start_up(seed, 0, tally);
        s.setup.extend(&[t], speed.factor());
        let plans = self.plans(tally);
        let mut ws: Vec<_> = plans.iter().map(|p| p.make_workspace()).collect();
        let mut clients: Vec<Client> = (0..CLIENTS as u64)
            .map(|c| Client { mix: Mix::stream(seed, tag::CLIENT, c), ..Client::default() })
            .collect();
        let before = service.stats().completed;
        let segment_s = seconds / SEGMENTS as f64;
        let mut round = 0;
        for seg in 0..SEGMENTS {
            for rep in 0..STARTUPS_PER_SEGMENT {
                let (_, t) =
                    self.start_up(seed, (1 + seg * STARTUPS_PER_SEGMENT + rep) as u64, tally);
                s.setup.extend(&[t], speed.factor());
            }
            if plans.len() == self.systems.len() {
                self.direct_rounds(
                    &plans,
                    &mut ws,
                    seed,
                    segment_s * DIRECT_SHARE,
                    &mut round,
                    &mut speed,
                    &mut s,
                    tally,
                );
            }
            self.closed_loop(
                &service,
                &mut clients,
                segment_s * (1.0 - DIRECT_SHARE),
                traced,
                &mut speed,
                &mut s,
            );
        }
        let mut sent = 0u64;
        for client in clients {
            tally.merge(&client.tally);
            sent += client.sent;
        }
        s.reference = speed.readings;
        s.stats = service.stats();
        let completed = s.stats.completed - before;
        tally.check(completed == sent, || format!("service completed {completed} of {sent}"));
        let (misses, distinct) = (s.stats.cache.misses, self.systems.len() as u64);
        tally.check(misses <= distinct, || {
            format!("plan cache missed {misses} times on {distinct} distinct systems")
        });
        s
    }

    /// One timed start-up: a new service and one request per working-set
    /// system, each waited for in turn. The answers are checked after the
    /// timing. Returns the service and the wall time, s.
    fn start_up(&self, seed: u64, rep: u64, tally: &mut Tally) -> (SolveService, f64) {
        let ((service, answers), t) = timed(|| {
            let service = SolveService::new(self.config());
            let answers: Vec<_> = self
                .systems
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let b =
                        rhs(a.n_rows(), &mut Mix::stream(seed, tag::STARTUP, rep << 8 | i as u64));
                    let req = SolveRequest::new(Arc::clone(a), b.clone());
                    (b, service.submit(req).and_then(|t| t.wait()))
                })
                .collect();
            (service, answers)
        });
        for (i, (b, answer)) in answers.into_iter().enumerate() {
            if let Some(out) = tally.ok(answer) {
                tally.residual(&self.systems[i], &out.result.x, &b, &self.names[i]);
            }
        }
        (service, t)
    }

    /// Plans of every working-set system, built directly.
    pub fn plans(&self, tally: &mut Tally) -> Vec<SpcgPlan<f64>> {
        self.systems
            .iter()
            .filter_map(|a| tally.ok(SpcgPlan::build(a.as_ref(), self.opts.clone())))
            .collect()
    }

    /// Rounds of: drift every system and refresh its plan (timed as one),
    /// then solve one right-hand side on every refreshed plan (timed as
    /// one); each answer is checked against its drifted system, and a
    /// reference reading corrects the round's times. Runs for `seconds` and
    /// at least [`MIN_DIRECT_ROUNDS`] rounds; `round` numbers the rounds
    /// across segments.
    #[allow(clippy::too_many_arguments)]
    fn direct_rounds(
        &self,
        plans: &[SpcgPlan<f64>],
        ws: &mut [SolveWorkspace<f64>],
        seed: u64,
        seconds: f64,
        round: &mut u64,
        speed: &mut HostSpeed,
        s: &mut ServeSamples,
        tally: &mut Tally,
    ) {
        let start = Instant::now();
        let mut done = 0;
        while done < MIN_DIRECT_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            done += 1;
            *round += 1;
            let k = *round;
            let drifted: Vec<_> = self
                .systems
                .iter()
                .enumerate()
                .map(|(i, a)| drift(a, &mut Mix::stream(seed, tag::DRIFT, k << 8 | i as u64)))
                .collect();
            let (fresh, t_refresh) = timed(|| {
                plans.iter().zip(&drifted).map(|(p, a)| p.refresh_values(a)).collect::<Vec<_>>()
            });
            let fresh: Vec<_> = fresh.into_iter().filter_map(|p| tally.ok(p)).collect();
            if fresh.len() != plans.len() {
                continue;
            }
            let value_only = fresh.iter().all(|p| p.sparsify_time().is_zero());
            let refreshed =
                tally.check(value_only, || format!("direct round {k}: a refresh re-planned"));
            let bs: Vec<_> = drifted
                .iter()
                .enumerate()
                .map(|(i, a)| rhs(a.n_rows(), &mut Mix::stream(seed, tag::RHS, k << 8 | i as u64)))
                .collect();
            let (answers, t_solve) = timed(|| {
                fresh
                    .iter()
                    .zip(&bs)
                    .zip(ws.iter_mut())
                    .map(|((p, b), w)| p.solve_with_workspace(b, w))
                    .collect::<Vec<_>>()
            });
            let mut all_ok = true;
            for (i, answer) in answers.into_iter().enumerate() {
                all_ok &= tally.ok(answer).is_some_and(|r| {
                    tally.residual(&drifted[i], &r.x, &bs[i], &format!("direct {}", self.names[i]))
                });
            }
            let f = speed.factor();
            if refreshed {
                s.refresh.extend(&[t_refresh], f);
            }
            if all_ok {
                s.solve.extend(&[t_solve], f);
            }
        }
    }

    /// One segment of the closed loop: stretches in which every client, in
    /// its own thread, sends [`STRETCH_REQUESTS`] requests one after
    /// another (request, wait, check), each stretch followed by a reference
    /// reading that corrects its latencies; until `seconds` have passed and
    /// the clients have made their share of [`MIN_REQUESTS`]. The client
    /// threads live for the whole segment and wait at a barrier between
    /// stretches.
    fn closed_loop(
        &self,
        service: &SolveService,
        clients: &mut [Client],
        seconds: f64,
        traced: bool,
        speed: &mut HostSpeed,
        s: &mut ServeSamples,
    ) {
        let start = Instant::now();
        let min_sent = MIN_REQUESTS.div_ceil(SEGMENTS);
        let barrier = Barrier::new(clients.len() + 1);
        let stop = AtomicBool::new(false);
        // Correction factor of each stretch, by stretch number.
        let mut factors = Vec::new();
        std::thread::scope(|scope| {
            for client in clients.iter_mut() {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    for stretch in 0.. {
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        for _ in 0..STRETCH_REQUESTS {
                            if let Some(t) = self.request(service, client, traced) {
                                client.latency.push((stretch, t));
                            }
                        }
                        barrier.wait();
                    }
                });
            }
            let mut sent = 0;
            while sent < min_sent || start.elapsed().as_secs_f64() < seconds {
                let (cpu0, t0) = (cpu_seconds(), Instant::now());
                barrier.wait();
                barrier.wait();
                let wall = t0.elapsed().as_secs_f64();
                s.cpu_s += cpu_seconds() - cpu0;
                let f = speed.factor();
                factors.push(f);
                s.window_s += wall;
                s.window_corrected_s += wall * f;
                sent += CLIENTS * STRETCH_REQUESTS;
            }
            stop.store(true, Ordering::Relaxed);
            barrier.wait();
        });
        for client in clients.iter_mut() {
            for (stretch, t) in client.latency.drain(..) {
                s.latency.extend(&[t], factors[stretch]);
            }
            s.submit.append(&mut client.submit);
        }
    }

    /// One request of `client`: draw a system and a right-hand side, submit,
    /// wait, check. Returns the latency, s, of an answer that passed.
    fn request(&self, service: &SolveService, client: &mut Client, traced: bool) -> Option<f64> {
        let i = draw(&self.cdf, &mut client.mix);
        let a = &self.systems[i];
        let b = rhs(a.n_rows(), &mut client.mix);
        let req = SolveRequest::new(Arc::clone(a), b.clone());
        let t0 = Instant::now();
        let ticket = service.submit(req);
        if traced {
            client.submit.push(t0.elapsed().as_secs_f64());
        }
        let answer = ticket.and_then(|t| t.wait());
        let latency = t0.elapsed().as_secs_f64();
        client.sent += 1;
        let out = client.tally.ok(answer)?;
        client.tally.residual(a, &out.result.x, &b, &self.names[i]).then_some(latency)
    }

    /// Direct warm solves of requests drawn as the clients draw them, on
    /// `plans`, traced; the serving figures compare against these.
    pub fn direct_trace(
        &self,
        plans: &[SpcgPlan<f64>],
        seed: u64,
        requests: usize,
        tally: &mut Tally,
    ) -> SolveTrace {
        let mut trace = SolveTrace::default();
        let mut ws: Vec<_> = plans.iter().map(|p| p.make_workspace()).collect();
        let mut mix = Mix::stream(seed, tag::CLIENT, u64::MAX);
        for _ in 0..requests {
            let i = draw(&self.cdf, &mut mix);
            let b = rhs(self.systems[i].n_rows(), &mut mix);
            if let Some(r) = tally.ok(traced_solve(&plans[i], &b, &mut ws[i], &mut trace)) {
                tally.residual(&self.systems[i], &r.x, &b, &self.names[i]);
            }
        }
        trace
    }
}

/// One closed-loop client: its request stream and what it recorded.
#[derive(Debug, Default)]
struct Client {
    mix: Mix,
    tally: Tally,
    sent: u64,
    /// Latencies of answers that passed, s, by stretch number.
    latency: Vec<(usize, f64)>,
    submit: Vec<f64>,
}

/// Serves `a` alone: a service with the workload's options and
/// [`WORKERS`] workers, one request to build its plan, then `requests`
/// requests one at a time. Returns the latencies and `submit` times of
/// those requests, s, and the service's counters.
pub fn serve_one(
    a: &Arc<CsrMatrix<f64>>,
    opts: &SpcgOptions,
    requests: usize,
    seed: u64,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>, ServiceStats) {
    let cfg = ServiceConfig { workers: WORKERS, options: opts.clone(), ..ServiceConfig::default() };
    let service = SolveService::new(cfg);
    let (mut latency, mut submit) = (Vec::new(), Vec::new());
    for k in 0..=requests {
        let b = rhs(a.n_rows(), &mut Mix::stream(seed, tag::CLIENT, k as u64));
        let t0 = Instant::now();
        let ticket = service.submit(SolveRequest::new(Arc::clone(a), b.clone()));
        let t_submit = t0.elapsed().as_secs_f64();
        let answer = ticket.and_then(|t| t.wait());
        let t_answer = t0.elapsed().as_secs_f64();
        if let Some(out) = tally.ok(answer) {
            // Request 0 builds the plan; the rest are the figures.
            if tally.residual(a, &out.result.x, &b, "served alone") && k > 0 {
                latency.push(t_answer);
                submit.push(t_submit);
            }
        }
    }
    (latency, submit, service.stats())
}
