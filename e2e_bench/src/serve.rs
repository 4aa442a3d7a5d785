//! The `serve-mixed` workload: rounds of mixed traffic through a fresh
//! `CafqaServer` with `ServeOptions::default()`.
//!
//! Each round builds its molecular problems (the round's set-up), starts
//! a fresh server, and drives the round's jobs as a closed loop from one
//! thread: at most [`WINDOW`] jobs in flight, the next submitted as soon
//! as one completes. The client observes completion by polling `status`
//! for every in-flight job (not by waiting on them in submission order),
//! so a short job queued behind a long one is charged its own latency.
//! Rounds repeat until the measuring time is up. Latencies are read on
//! both the wall clock and the process CPU clock.
//!
//! Traffic per round:
//! - a LiH bond family (same term masks, nearby coefficients), which
//!   warm-starts from completed neighbours;
//! - one H2O job, long and sliced;
//! - weighted MaxCut jobs on 16–24 vertices, routed to the Ising fast
//!   path;
//! - exact duplicates of LiH jobs submitted after their original
//!   completed, which must hit the cache;
//! - one exact duplicate submitted while its original is in flight.

use std::time::{Duration, Instant};

use cafqa_chem::{MolecularProblem, MoleculeKind};
use cafqa_circuit::EfficientSu2;
use cafqa_core::maxcut::{maxcut_hamiltonian, Graph};
use cafqa_core::{classify_ising, run_cafqa_on, CafqaOptions, ExecEngine, Penalty};
use cafqa_serve::{
    CafqaServer, Disposition, JobOutcome, JobSpec, JobStatus, PenaltySpec, ServeOptions,
    ServerStats,
};

use crate::chem::{self, ChemSplit};
use crate::search::{self, SearchStats};
use crate::{ab_engine, mean, median, nproc, quantile, Args, CpuClock, Report, Rng, Stopwatch};

/// Jobs in flight at once (the closed loop's window).
const WINDOW: usize = 4;
/// Client polling interval.
const POLL: Duration = Duration::from_millis(1);
/// LiH bond-family jobs per round.
const LIH_JOBS: usize = 7;
/// LiH bond range (Å), one stratum per family job.
const LIH_RANGE: (f64, f64) = (1.0, 4.2);
/// H2O bond range (Å) of the round's long job.
const H2O_RANGE: (f64, f64) = (0.9, 2.4);
/// MaxCut jobs per round and their vertex-count range.
const MAXCUT_JOBS: usize = 4;
const MAXCUT_VERTICES: (usize, usize) = (16, 24);
/// Edge probability of the weighted MaxCut graphs.
const MAXCUT_DENSITY: f64 = 0.3;
/// Duplicates submitted after their original completed.
const AFTER_DUPS: usize = 2;
/// Energy tolerance of the correctness gates (Ha).
const TOL: f64 = 1e-9;

/// What a job slot of a round is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Lih(usize),
    H2o,
    MaxCut(usize),
    /// Duplicate of LiH job `k`, submitted once the original completed.
    DupAfter(usize),
    /// Duplicate of LiH job `k`, submitted right after the original.
    DupInflight(usize),
}

/// A round's generated inputs.
struct Plan {
    lih_bonds: Vec<f64>,
    h2o_bond: f64,
    /// `(vertices, graph seed)` per MaxCut job.
    graphs: Vec<(usize, u64)>,
    lih_opts: CafqaOptions,
    h2o_opts: CafqaOptions,
    maxcut_opts: CafqaOptions,
    order: Vec<Slot>,
}

fn plan(seed: u64, round: usize) -> Plan {
    let mut rng = Rng::new(seed, 1000 + round as u64);
    let (lo, hi) = LIH_RANGE;
    let width = (hi - lo) / LIH_JOBS as f64;
    let lih_bonds = (0..LIH_JOBS).map(|k| lo + width * (k as f64 + rng.unit())).collect();
    let h2o_bond = H2O_RANGE.0 + (H2O_RANGE.1 - H2O_RANGE.0) * rng.unit();
    let span = MAXCUT_VERTICES.1 - MAXCUT_VERTICES.0 + 1;
    let graphs =
        (0..MAXCUT_JOBS).map(|_| (MAXCUT_VERTICES.0 + rng.below(span), rng.next_u64())).collect();
    let lih_opts = CafqaOptions {
        warmup: 60,
        iterations: 120,
        polish_sweeps: 1,
        seed: rng.next_u64(),
        ..Default::default()
    };
    let h2o_opts = CafqaOptions {
        warmup: 100,
        iterations: 100,
        polish_sweeps: 1,
        seed: rng.next_u64(),
        ..Default::default()
    };
    let maxcut_opts = CafqaOptions { seed: rng.next_u64(), ..Default::default() };

    let mut order: Vec<Slot> = (0..LIH_JOBS).map(Slot::Lih).collect();
    order.push(Slot::H2o);
    order.extend((0..MAXCUT_JOBS).map(Slot::MaxCut));
    rng.shuffle(&mut order);
    let mut family: Vec<usize> = (0..LIH_JOBS).collect();
    rng.shuffle(&mut family);
    let position = |order: &[Slot], k: usize| order.iter().position(|s| *s == Slot::Lih(k));
    let inflight = family[0];
    let at = position(&order, inflight).expect("every LiH job is planned") + 1;
    order.insert(at, Slot::DupInflight(inflight));
    for &k in &family[1..=AFTER_DUPS] {
        let earliest =
            (position(&order, k).expect("every LiH job is planned") + WINDOW + 1).min(order.len());
        let at = earliest + rng.below(order.len() - earliest + 1);
        order.insert(at, Slot::DupAfter(k));
    }
    Plan { lih_bonds, h2o_bond, graphs, lih_opts, h2o_opts, maxcut_opts, order }
}

/// One materialized job.
struct Job {
    slot: Slot,
    spec: JobSpec,
    /// HF and exact energies of molecular jobs.
    hf: Option<f64>,
    exact: Option<f64>,
    graph: Option<Graph>,
    /// Position of the original in the round order, for duplicates.
    original: Option<usize>,
}

fn molecular_spec(problem: &MolecularProblem, opts: &CafqaOptions) -> JobSpec {
    let ansatz = EfficientSu2::new(problem.n_qubits, 1);
    let seeds = search::molecular_seeds(&ansatz, problem, opts);
    let mut spec = JobSpec::new(ansatz, problem.hamiltonian.clone(), opts.clone());
    spec.penalties.push(PenaltySpec::new(
        "electron count",
        problem.number_op.clone(),
        problem.n_electrons() as f64,
        opts.number_penalty,
    ));
    spec.seeds = seeds;
    spec
}

/// Builds a round's jobs; returns them with each chemistry set-up's
/// process CPU seconds.
fn materialize(
    plan: &Plan,
    mut split: Option<&mut ChemSplit>,
) -> Result<(Vec<Job>, Vec<f64>), String> {
    let mut setups = Vec::new();
    // (spec, HF energy, exact energy) of one molecular problem.
    let mut molecular = |kind, bond, opts: &CafqaOptions| {
        let built = chem::build(kind, bond, true, split.as_deref_mut())?;
        setups.push(built.setup_cpu_s);
        let p = &built.problem;
        Ok::<_, String>((molecular_spec(p, opts), p.hf_energy, p.exact_energy))
    };
    let mut lih = Vec::new();
    for &bond in &plan.lih_bonds {
        lih.push(molecular(MoleculeKind::LiH, bond, &plan.lih_opts)?);
    }
    let h2o = molecular(MoleculeKind::H2O, plan.h2o_bond, &plan.h2o_opts)?;
    let mut jobs: Vec<Job> = Vec::with_capacity(plan.order.len());
    for &slot in &plan.order {
        let job = match slot {
            Slot::MaxCut(k) => {
                let (n, graph_seed) = plan.graphs[k];
                let graph = Graph::random_weighted(n, MAXCUT_DENSITY, graph_seed);
                let spec = JobSpec::new(
                    EfficientSu2::new(n, 1),
                    maxcut_hamiltonian(&graph),
                    plan.maxcut_opts.clone(),
                );
                Job { slot, spec, hf: None, exact: None, graph: Some(graph), original: None }
            }
            _ => {
                let (spec, hf, exact) = slot.lih().map_or(&h2o, |k| &lih[k]);
                let original = match slot {
                    Slot::DupAfter(k) | Slot::DupInflight(k) => {
                        plan.order.iter().position(|s| *s == Slot::Lih(k))
                    }
                    _ => None,
                };
                Job {
                    slot,
                    spec: spec.clone(),
                    hf: Some(*hf),
                    exact: *exact,
                    graph: None,
                    original,
                }
            }
        };
        jobs.push(job);
    }
    Ok((jobs, setups))
}

/// How one job fared in the closed loop.
struct Served {
    outcome: Result<JobOutcome, String>,
    /// Submit until completion was observed, wall and process CPU seconds.
    latency_s: f64,
    latency_cpu_s: f64,
    /// Submit until first seen out of `Queued` (or completed).
    queue_wait_s: f64,
}

struct RoundOut {
    served: Vec<Served>,
    serve_s: f64,
    serve_cpu_s: f64,
    stats: ServerStats,
}

struct Flight {
    index: usize,
    id: cafqa_serve::JobId,
    submitted: Instant,
    submitted_cpu: f64,
    started: Option<Instant>,
}

/// Drives one round through a fresh server as a closed loop.
fn serve_round(engine: &ExecEngine, jobs: &[Job]) -> RoundOut {
    let mut server = CafqaServer::start(engine.clone(), ServeOptions::default());
    let mut served: Vec<Option<Served>> = jobs.iter().map(|_| None).collect();
    let mut flights: Vec<Flight> = Vec::new();
    let mut next = 0;
    let clock = Stopwatch::start(CpuClock::Process);
    loop {
        while flights.len() < WINDOW && next < jobs.len() {
            if jobs[next].slot.is_after_dup() {
                let original = jobs[next].original.expect("duplicates know their original");
                if served[original].is_none() {
                    break;
                }
            }
            let (submitted, submitted_cpu) = (Instant::now(), CpuClock::Process.seconds());
            match server.submit(jobs[next].spec.clone()) {
                Ok(id) => flights.push(Flight {
                    index: next,
                    id,
                    submitted,
                    submitted_cpu,
                    started: None,
                }),
                Err(e) => {
                    served[next] = Some(Served {
                        outcome: Err(format!("rejected: {e}")),
                        latency_s: submitted.elapsed().as_secs_f64(),
                        latency_cpu_s: CpuClock::Process.seconds() - submitted_cpu,
                        queue_wait_s: 0.0,
                    });
                }
            }
            next += 1;
        }
        if flights.is_empty() && next >= jobs.len() {
            break;
        }
        let before = flights.len();
        flights.retain_mut(|f| {
            let status = server.status(f.id);
            let now = Instant::now();
            match status {
                Ok(JobStatus::Queued) => true,
                Ok(s) if !s.is_terminal() => {
                    f.started.get_or_insert(now);
                    true
                }
                other => {
                    let now_cpu = CpuClock::Process.seconds();
                    let outcome = match other {
                        Ok(_) => server.wait(f.id).map_err(|e| e.to_string()),
                        Err(e) => Err(e.to_string()),
                    };
                    served[f.index] = Some(Served {
                        outcome,
                        latency_s: (now - f.submitted).as_secs_f64(),
                        latency_cpu_s: now_cpu - f.submitted_cpu,
                        queue_wait_s: (f.started.unwrap_or(now) - f.submitted).as_secs_f64(),
                    });
                    false
                }
            }
        });
        if flights.len() == before {
            std::thread::sleep(POLL);
        }
    }
    let (serve_s, serve_cpu_s) = (clock.wall_s(), clock.cpu_s());
    let stats = server.stats();
    server.shutdown();
    let served = served.into_iter().map(|s| s.expect("every job was served")).collect();
    RoundOut { served, serve_s, serve_cpu_s, stats }
}

impl Slot {
    /// The LiH family member this slot submits, if any.
    fn lih(self) -> Option<usize> {
        match self {
            Slot::Lih(k) | Slot::DupAfter(k) | Slot::DupInflight(k) => Some(k),
            Slot::H2o | Slot::MaxCut(_) => None,
        }
    }

    fn is_after_dup(self) -> bool {
        matches!(self, Slot::DupAfter(_))
    }

    fn is_molecular(self) -> bool {
        !matches!(self, Slot::MaxCut(_))
    }
}

/// A round as served: its jobs, what happened, and its timings.
struct Round {
    jobs: Vec<Job>,
    out: RoundOut,
    setups: Vec<f64>,
    wall_s: f64,
}

fn run_round(
    engine: &ExecEngine,
    seed: u64,
    r: usize,
    split: Option<&mut ChemSplit>,
) -> Result<Round, String> {
    let clock = Instant::now();
    let (jobs, setups) = materialize(&plan(seed, r), split)?;
    let out = serve_round(engine, &jobs);
    Ok(Round { jobs, out, setups, wall_s: clock.elapsed().as_secs_f64() })
}

/// What the metrics and the traced comparison keep of a checked round.
/// Specs and full results are dropped, so the process's peak memory does
/// not grow with the number of rounds that fit in the measuring time.
struct Summary {
    jobs: Vec<JobSummary>,
    setups: Vec<f64>,
    serve_s: f64,
    serve_cpu_s: f64,
    wall_s: f64,
    stats: ServerStats,
}

struct JobSummary {
    slot: Slot,
    latency_s: f64,
    latency_cpu_s: f64,
    hf: Option<f64>,
    exact: Option<f64>,
    outcome: Result<Brief, String>,
}

/// The identity of a job's result.
struct Brief {
    energy: f64,
    config: Vec<usize>,
    seeds_used: Vec<Vec<usize>>,
    disposition: Disposition,
}

impl Brief {
    fn of(outcome: &JobOutcome) -> Self {
        Brief {
            energy: outcome.result.energy,
            config: outcome.result.best_config.clone(),
            seeds_used: outcome.seeds_used.clone(),
            disposition: outcome.disposition,
        }
    }

    fn is_hit(&self) -> bool {
        self.disposition == Disposition::CacheHit
    }
}

impl Round {
    fn summarize(self) -> Summary {
        let jobs = self
            .jobs
            .iter()
            .zip(&self.out.served)
            .map(|(job, served)| JobSummary {
                slot: job.slot,
                latency_s: served.latency_s,
                latency_cpu_s: served.latency_cpu_s,
                hf: job.hf,
                exact: job.exact,
                outcome: served.outcome.as_ref().map(Brief::of).map_err(Clone::clone),
            })
            .collect();
        Summary {
            jobs,
            setups: self.setups,
            serve_s: self.out.serve_s,
            serve_cpu_s: self.out.serve_cpu_s,
            wall_s: self.wall_s,
            stats: self.out.stats,
        }
    }
}

/// Correctness gates on a served round.
fn check_round(r: usize, round: &Round, report: &mut Report) {
    for (i, (job, served)) in round.jobs.iter().zip(&round.out.served).enumerate() {
        let at = format!("round {r} job {i} ({:?})", job.slot);
        let Ok(outcome) = &served.outcome else { continue };
        let energy = outcome.result.energy;
        if let Some(hf) = job.hf {
            report.gate(energy <= hf + TOL, || format!("{at}: CAFQA {energy:.9} above HF {hf:.9}"));
        }
        if let Some(exact) = job.exact {
            report.gate(energy >= exact - TOL, || {
                format!("{at}: CAFQA {energy:.9} below exact {exact:.9}")
            });
        }
        if let Some(graph) = &job.graph {
            let cut = graph.max_cut_exact();
            // `max_cut_exact` accumulates the cut along a 2^n-step
            // Gray-code walk without recomputing it, so its value carries
            // up to 2^n rounding steps of drift; the solver's energy is
            // recomputed from scratch. Allow exactly that drift.
            let weight: f64 = graph.edges.iter().map(|e| e.2.abs()).sum();
            let tol = TOL.max((1u64 << graph.n) as f64 * f64::EPSILON * weight);
            report.gate(energy >= -cut - tol, || {
                format!("{at}: MaxCut energy {energy:.12} below -max_cut {:.12}", -cut)
            });
            if graph.n <= 16 {
                report.gate((energy + cut).abs() <= tol, || {
                    format!("{at}: {}-vertex MaxCut energy {energy:.9} is not -max_cut", graph.n)
                });
            }
        }
        if job.slot.is_after_dup() {
            let original = job.original.and_then(|o| round.out.served[o].outcome.as_ref().ok());
            let hit = outcome.disposition == Disposition::CacheHit
                && original.is_some_and(|o| {
                    o.result.energy.to_bits() == energy.to_bits()
                        && o.result.best_config == outcome.result.best_config
                        && o.result.evaluations == outcome.result.evaluations
                });
            report.gate(hit, || {
                format!("{at}: duplicate of a completed job is not a bit-identical cache hit")
            });
        }
    }
}

/// Penalties of a spec in runner form.
fn penalties_of(spec: &JobSpec) -> Vec<Penalty> {
    spec.penalties
        .iter()
        .map(|p| Penalty::new(p.label.clone(), &p.op, p.target, p.weight))
        .collect()
}

/// Runs the workload and reports its metrics.
pub fn run(args: &Args) -> Report {
    // One engine worker: the served searches are small and refit-bound,
    // and a second worker made the timings noisier, not faster, on a
    // shared host.
    let engine = ExecEngine::serial();
    let mut report = Report::default();
    let pass = Instant::now();
    let mut rounds: Vec<Summary> = Vec::new();
    while rounds.is_empty() || pass.elapsed().as_secs_f64() < args.untraced_seconds() {
        let r = rounds.len();
        match run_round(&engine, args.seed, r, None) {
            Ok(round) => {
                check_round(r, &round, &mut report);
                rounds.push(round.summarize());
            }
            Err(e) => {
                report.violations.push(format!("round {r} set-up failed: {e}"));
                break;
            }
        }
    }

    let all = || rounds.iter().flat_map(|round| &round.jobs);
    let done: Vec<(&JobSummary, &Brief)> =
        all().filter_map(|j| j.outcome.as_ref().ok().map(|o| (j, o))).collect();
    report.attempted = all().count() as u64;
    report.failed = report.attempted - done.len() as u64;
    for j in all() {
        if let Err(e) = &j.outcome {
            report.notes.push(format!("{:?} failed: {e}", j.slot));
        }
    }
    let latencies: Vec<f64> = done.iter().map(|(j, _)| j.latency_s).collect();
    // Short jobs answer without a search: Ising fast-path solves and
    // cache hits. The rest computed a search result.
    let (short, computed): (Vec<_>, Vec<_>) =
        done.iter().partition(|(j, o)| !j.slot.is_molecular() || o.is_hit());
    let short: Vec<f64> = short.iter().map(|(j, _)| j.latency_s).collect();
    let computed_cpu: Vec<f64> = computed.iter().map(|(j, _)| j.latency_cpu_s).collect();
    let computed: Vec<f64> = computed.iter().map(|(j, _)| j.latency_s).collect();
    let setups: Vec<f64> = rounds.iter().flat_map(|r| r.setups.iter().copied()).collect();
    let serve_s: f64 = rounds.iter().map(|r| r.serve_s).sum();
    let serve_cpu_s: f64 = rounds.iter().map(|r| r.serve_cpu_s).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let recovered: Vec<f64> = done
        .iter()
        .filter_map(|(j, o)| {
            let (hf, exact) = (j.hf?, j.exact?);
            (hf - exact > TOL).then(|| 100.0 * (hf - o.energy) / (hf - exact))
        })
        .collect();
    let below_hf: Vec<f64> =
        done.iter().filter_map(|(j, o)| j.hf.map(|hf| 1e3 * (hf - o.energy))).collect();
    let stats = sum_stats(rounds.iter().map(|r| &r.stats));
    report.notes.push(format!(
        "rounds: {} | jobs: {} | slices: {} | cache hits: {} | warm starts: {} | \
         in-flight duplicate misses: {}",
        rounds.len(),
        done.len(),
        stats.slices,
        stats.cache_hits,
        stats.warm_starts,
        inflight_misses(all())
    ));
    report.notes.push(format!(
        "round serve seconds: {}",
        rounds.iter().map(|r| format!("{:.2}", r.serve_s)).collect::<Vec<_>>().join(" ")
    ));
    report.row("wall_s", Some(wall), "s");
    report.row("ops", Some(done.len() as f64), "count");
    report.row("setup_s", median(&setups), "s");
    report.row("setup_total_s", Some(setups.iter().sum()), "s");
    report.row("search_s", None, "s");
    report.row("search_total_s", None, "s");
    report.row("latency_p50_s", median(&computed), "s");
    report.row("cpu_latency_p50_s", median(&computed_cpu), "s");
    report.row("solves_per_s", Some(done.len() as f64 / serve_s), "1/s");
    report.row("solves_per_cpu_s", Some(done.len() as f64 / serve_cpu_s), "1/s");
    report.row("failed_frac", Some(report.failed as f64 / report.attempted.max(1) as f64), "ratio");
    report.row("corr_recovered_pct", mean(&recovered), "%");
    report.row("energy_below_hf_mha", mean(&below_hf), "mHa");
    report.row("kt_gain_mha", None, "mHa");
    report.row("job_latency_p50_s", median(&latencies), "s");
    report.row("job_latency_p75_s", quantile(&latencies, 0.75), "s");
    report.row("short_job_latency_p50_s", median(&short), "s");
    report.row("poll_interval_ms", Some(POLL.as_secs_f64() * 1e3), "ms");

    if args.trace {
        traced_pass(args, &engine, &rounds, &mut report);
    }
    report
}

fn sum_stats<'a>(stats: impl Iterator<Item = &'a ServerStats>) -> ServerStats {
    let mut total = ServerStats::default();
    for s in stats {
        total.submitted += s.submitted;
        total.rejected += s.rejected;
        total.completed += s.completed;
        total.cache_hits += s.cache_hits;
        total.warm_starts += s.warm_starts;
        total.cancelled += s.cancelled;
        total.failed += s.failed;
        total.slices += s.slices;
    }
    total
}

fn inflight_misses<'a>(jobs: impl Iterator<Item = &'a JobSummary>) -> usize {
    jobs.filter(|j| {
        matches!(j.slot, Slot::DupInflight(_)) && !j.outcome.as_ref().is_ok_and(Brief::is_hit)
    })
    .count()
}

/// Repeats the untraced pass's rounds with chemistry spans, replays
/// every computed job solo (search and Ising spans), checks bit-identity
/// and reports the per-layer metrics.
fn traced_pass(args: &Args, engine: &ExecEngine, untraced: &[Summary], report: &mut Report) {
    let mut split = ChemSplit::default();
    let mut search_stats = SearchStats::default();
    let mut round_stats = Vec::new();
    let (mut served_s, mut traced_wall, mut ops, mut inflight) = (0.0, 0.0, 0usize, 0usize);
    let (mut solo_s, mut classify_s, mut solve_s, mut routed) = (0.0, 0.0, 0.0, 0u64);
    let (mut workload_ab_s, mut partner_ab_s) = (0.0, 0.0);
    let mut queue_waits = Vec::new();
    let mut matched = 0usize;
    let partner = ab_engine();
    for (r, reference) in untraced.iter().enumerate() {
        let round = match run_round(engine, args.seed, r, Some(&mut split)) {
            Ok(round) => round,
            Err(e) => {
                report.violations.push(format!("traced round {r} failed: {e}"));
                return;
            }
        };
        round_stats.push(round.out.stats);
        served_s += round.out.serve_s;
        traced_wall += round.wall_s;
        ops += round.jobs.len();
        for (i, (job, served)) in round.jobs.iter().zip(&round.out.served).enumerate() {
            let at = format!("traced round {r} job {i} ({:?})", job.slot);
            let Ok(outcome) = &served.outcome else {
                report.violations.push(format!("{at} did not complete"));
                continue;
            };
            let brief = Brief::of(outcome);
            if matches!(job.slot, Slot::DupInflight(_)) && !brief.is_hit() {
                inflight += 1;
            }
            // Same effective inputs as the untraced pass ⇒ same bits.
            if let Ok(other) = &reference.jobs[i].outcome {
                if other.seeds_used == brief.seeds_used {
                    matched += 1;
                    report.gate(
                        other.energy.to_bits() == brief.energy.to_bits()
                            && other.config == brief.config,
                        || format!("{at}: energy differs from the untraced run"),
                    );
                }
            }
            if brief.is_hit() {
                continue;
            }
            queue_waits.push(served.queue_wait_s);
            let spec = &job.spec;
            let penalties = penalties_of(spec);
            if let Some(graph) = &job.graph {
                let clock = Instant::now();
                let form = classify_ising(&spec.hamiltonian);
                classify_s += clock.elapsed().as_secs_f64();
                if let Some(form) = form {
                    routed += 1;
                    let clock = Instant::now();
                    let solved = form.solve(spec.opts.seed);
                    solve_s += clock.elapsed().as_secs_f64();
                    report.gate(solved.is_ok(), || {
                        format!("{at}: {}-vertex solve rejected", graph.n)
                    });
                }
            }
            let stats = job.slot.is_molecular().then_some(&mut search_stats);
            let (solo, secs) = search::run(
                engine,
                &spec.ansatz,
                &spec.hamiltonian,
                &penalties,
                &outcome.seeds_used,
                &spec.opts,
                stats,
            );
            solo_s += secs;
            report.gate(
                solo.energy.to_bits() == outcome.result.energy.to_bits()
                    && solo.best_config == outcome.result.best_config,
                || format!("{at}: served result differs from its solo replay"),
            );
            if job.slot.is_molecular() {
                search_stats.add_eval_rerun(
                    engine,
                    &spec.ansatz,
                    &spec.hamiltonian,
                    &penalties,
                    &spec.opts,
                    outcome.seeds_used.len(),
                    solo.evaluations - solo.polish_evaluations,
                );
                // Engine A/B on the first round's computed molecular jobs:
                // one worker against `nproc` workers.
                if r == 0 {
                    let clock = Instant::now();
                    let other = run_cafqa_on(
                        &partner,
                        &spec.ansatz,
                        &spec.hamiltonian,
                        penalties.clone(),
                        &outcome.seeds_used,
                        &spec.opts,
                    );
                    partner_ab_s += clock.elapsed().as_secs_f64();
                    workload_ab_s += secs;
                    report.gate(
                        other.energy.to_bits() == solo.energy.to_bits()
                            && other.best_config == solo.best_config,
                        || format!("{at}: 1 and {} engine workers differ", nproc()),
                    );
                }
            }
        }
    }
    report.gate(matched > 0, || "no traced job had the untraced run's effective inputs".into());
    report.notes.push(format!("traced jobs with the untraced run's effective inputs: {matched}"));

    let stats = sum_stats(round_stats.iter());
    let computed = stats.completed.saturating_sub(stats.cache_hits);
    let untraced_wall: f64 = untraced.iter().map(|r| r.wall_s).sum();
    report.traced_pass(ops, traced_wall, untraced_wall, split.total_s() + served_s);

    split.report(report);
    search_stats.report(report);
    report.layer("ising.classify_s", classify_s);
    report.layer("ising.solve_s", solve_s);
    report.layer("ising.routed", routed as f64);
    report.layer("engine.workers", engine.workers() as f64);
    if workload_ab_s > 0.0 {
        report.layer("engine.speedup", workload_ab_s / partner_ab_s);
    }
    report.layer("serve.slices", stats.slices as f64);
    report.layer("serve.slices_per_job", stats.slices as f64 / computed.max(1) as f64);
    report.layer("serve.cache_hit_frac", stats.cache_hits as f64 / stats.completed.max(1) as f64);
    report.layer("serve.warm_starts", stats.warm_starts as f64);
    report.layer("serve.inflight_dup_misses", inflight as f64);
    report.layer("serve.queue_wait_s", median(&queue_waits).unwrap_or(0.0));
    report.layer("serve.solo_s", solo_s);
    report.layer("serve.overhead_frac", served_s / solo_s - 1.0);
}
