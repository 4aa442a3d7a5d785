//! The two molecular workloads: `h2o-sweep` and `cr2-wide`.
//!
//! A point is one bond length taken from set-up to result: chemistry,
//! the Clifford search and (on `h2o-sweep`) the Clifford+T refinement.
//! The untraced pass runs one stream of points per core, each stream on
//! its own one-worker engine and timed on its own thread's CPU clock,
//! until the measuring time is up; it also finishes at least one whole
//! pass over the bond grid, and its per-point metrics cover whole passes
//! only, so every run weighs each bond stratum equally. One stream per
//! core makes every run sample every core: on a shared host the same
//! point ran up to 20% slower on one core than, at the same time, on the
//! other. A traced run's untraced pass has a single stream, and its
//! traced pass repeats the points one after another, so the tracing
//! overhead compares like with like.

use std::sync::atomic::{AtomicUsize, Ordering};

use std::time::Instant;

use cafqa_chem::{hydrogen_chain, ChemPipeline, MoleculeKind, ScfKind, ScfOptions};
use cafqa_core::{
    run_cafqa_kt_on, run_cafqa_on, widen_clifford_config, CafqaKtResult, CafqaOptions, ExecEngine,
    MolecularCafqa, Penalty,
};

use crate::chem::{self, ChemSplit};
use crate::search::{self, SearchStats};
use crate::{ab_engine, mean, median, nproc, Args, CpuClock, Report, Rng, Stopwatch};

/// Clifford+T budget of the `h2o-sweep` refinement.
const KT_MAX: usize = 3;

/// Energy tolerance of the correctness gates (Ha).
const TOL: f64 = 1e-9;

/// `fig10_h2o --quick` rows at seed 0: bond, `E_HF`, `CAFQA_s`.
const FIG10_QUICK: &[(&str, &str, &str)] = &[
    ("0.500", "-73.124143", "-73.124143"),
    ("1.000", "-74.964683", "-74.964683"),
    ("2.000", "-74.401181", "-74.461871"),
    ("3.000", "-74.265244", "-74.359486"),
    ("4.000", "-74.249518", "-74.737313"),
];

/// `fig12_cr2_surrogate --quick` rows at seed 0: spacing, `HF_binding`,
/// `CAFQA_binding`.
const FIG12_QUICK: &[(&str, &str, &str)] =
    &[("2.850", "2.3770", "2.3770"), ("3.800", "2.8184", "2.8184")];

/// Which molecular workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Molecular {
    /// H2O singlet points plus a Clifford+T refinement.
    H2oSweep,
    /// The 34-qubit Cr2 surrogate at stretched spacings.
    Cr2Wide,
}

impl Molecular {
    fn kind(self) -> MoleculeKind {
        match self {
            Molecular::H2oSweep => MoleculeKind::H2O,
            Molecular::Cr2Wide => MoleculeKind::Cr2Surrogate,
        }
    }

    /// FCI is feasible for H2O; the Cr2 surrogate has no exact reference.
    fn exact(self) -> bool {
        self == Molecular::H2oSweep
    }

    /// The figure binary's `--quick` bond grid, walked at seed 0.
    fn figure_bonds(self) -> Vec<f64> {
        let all = self.kind().bond_sweep();
        match self {
            Molecular::H2oSweep => all.into_iter().step_by(2).collect(),
            Molecular::Cr2Wide => all[all.len() - 2..].to_vec(),
        }
    }

    /// Bond range sampled at other seeds, split into this many strata.
    fn range(self) -> (f64, f64, usize) {
        match self {
            Molecular::H2oSweep => (0.8, 3.8, 8),
            Molecular::Cr2Wide => (2.7, 3.9, 4),
        }
    }

    /// Points per pass over the bond grid: the figure grid at seed 0,
    /// otherwise one per stratum.
    fn cycle(self, seed: u64) -> usize {
        if seed == 0 {
            self.figure_bonds().len()
        } else {
            self.range().2
        }
    }

    fn golden(self) -> &'static [(&'static str, &'static str, &'static str)] {
        match self {
            Molecular::H2oSweep => FIG10_QUICK,
            Molecular::Cr2Wide => FIG12_QUICK,
        }
    }

    /// Bond length of point `i`: the figure grid at seed 0, otherwise one
    /// draw from the middle half of each stratum, strata in a seeded order
    /// per cycle (the middle half keeps neighbouring draws apart, so each
    /// pass samples the whole range evenly).
    fn bond(self, seed: u64, i: usize) -> f64 {
        if seed == 0 {
            let grid = self.figure_bonds();
            return grid[i % grid.len()];
        }
        let (lo, hi, strata) = self.range();
        let mut rng = Rng::new(seed, 100 + (i / strata) as u64);
        let mut order: Vec<usize> = (0..strata).collect();
        rng.shuffle(&mut order);
        let jitter: Vec<f64> = (0..strata).map(|_| rng.unit()).collect();
        let slot = i % strata;
        lo + (hi - lo) * (order[slot] as f64 + 0.25 + 0.5 * jitter[slot]) / strata as f64
    }

    /// The Clifford search options of point `i`.
    fn opts(self, seed: u64, i: usize) -> CafqaOptions {
        let seed = if seed == 0 {
            CafqaOptions::default().seed
        } else {
            Rng::new(seed, 200 + i as u64).next_u64()
        };
        match self {
            // The `fig10_h2o --quick` budget (`cafqa_budget(H2O, true)`).
            Molecular::H2oSweep => CafqaOptions {
                warmup: 400,
                iterations: 600,
                number_penalty: 1.0,
                seed,
                ..Default::default()
            },
            // The `fig12_cr2_surrogate --quick` options on a polished bond.
            Molecular::Cr2Wide => CafqaOptions {
                warmup: 60,
                iterations: 60,
                polish_sweeps: 1,
                polish_screen_top: 8,
                forest_window: 48,
                seed,
                ..Default::default()
            },
        }
    }

    /// The Clifford+T refinement options (the `fig16_clifford_t --quick`
    /// budget for registers up to 20 qubits).
    fn kt_opts(self, clifford: &CafqaOptions) -> CafqaOptions {
        CafqaOptions {
            warmup: 60,
            iterations: 80,
            polish_sweeps: 1,
            seed: clifford.seed,
            ..Default::default()
        }
    }
}

/// Layer measurements of a traced pass.
#[derive(Debug, Default)]
struct Trace {
    chem: ChemSplit,
    search: SearchStats,
    /// Outer spans around the Clifford search calls.
    search_span_s: f64,
    kt_s: f64,
    kt_evals: u64,
    kt_polish_evals: u64,
    kt_t_count: u64,
    kt_screened: u64,
    kt_runs: u64,
}

/// One completed point.
#[derive(Debug, Clone)]
struct Point {
    bond: f64,
    n_qubits: usize,
    hf: f64,
    exact: Option<f64>,
    energy: f64,
    config: Vec<usize>,
    kt: Option<(f64, Vec<usize>)>,
    /// CPU seconds of the chemistry set-up.
    setup_cpu_s: f64,
    /// Wall seconds of the searches.
    search_s: f64,
    /// Wall and CPU seconds of the whole point (CPU of the point's
    /// thread: the engine has one worker, which is the calling thread).
    wall_s: f64,
    cpu_s: f64,
}

/// Engine A/B replay of a point's searches: seconds and whether every
/// energy and configuration matched the workload engine's bit for bit.
struct Replay {
    secs: f64,
    identical: bool,
}

fn run_kt(
    engine: &ExecEngine,
    runner: &MolecularCafqa,
    clifford_config: &[usize],
    opts: &CafqaOptions,
) -> Result<CafqaKtResult, String> {
    let problem = runner.problem();
    let penalty =
        Penalty::new("electron count", &problem.number_op, problem.n_electrons() as f64, 1.0);
    run_cafqa_kt_on(
        engine,
        &runner.ansatz,
        &problem.hamiltonian,
        vec![penalty],
        KT_MAX,
        &[widen_clifford_config(clifford_config)],
        opts,
    )
    .map_err(|e| format!("kT refinement: {e}"))
}

fn run_point(
    which: Molecular,
    engine: &ExecEngine,
    bond: f64,
    opts: &CafqaOptions,
    mut trace: Option<&mut Trace>,
) -> Result<(Point, MolecularCafqa), String> {
    let clock = Stopwatch::start(CpuClock::Thread);
    let built =
        chem::build(which.kind(), bond, which.exact(), trace.as_mut().map(|t| &mut t.chem))?;
    let runner = MolecularCafqa::new(built.problem);
    let problem = runner.problem();
    let (result, mut search_s) = match trace.as_mut() {
        None => {
            let clock = Instant::now();
            let result = runner.run_on(engine, opts);
            (result, clock.elapsed().as_secs_f64())
        }
        Some(t) => {
            let penalties = search::molecular_penalties(problem, opts);
            let seeds = search::molecular_seeds(&runner.ansatz, problem, opts);
            let (result, secs) = search::run(
                engine,
                &runner.ansatz,
                &problem.hamiltonian,
                &penalties,
                &seeds,
                opts,
                Some(&mut t.search),
            );
            t.search_span_s += secs;
            (result, secs)
        }
    };
    let kt = if which == Molecular::H2oSweep {
        let clock = Instant::now();
        let kt = run_kt(engine, &runner, &result.best_config, &which.kt_opts(opts))?;
        let secs = clock.elapsed().as_secs_f64();
        search_s += secs;
        if let Some(t) = trace.as_mut() {
            t.kt_s += secs;
            t.kt_evals += kt.feasible_evaluations as u64;
            t.kt_polish_evals += kt.polish_evaluations as u64;
            t.kt_t_count += kt.t_count as u64;
            t.kt_screened += kt.screened_classes;
            t.kt_runs += 1;
        }
        Some((kt.energy, kt.best_config))
    } else {
        None
    };
    let (wall_s, cpu_s) = (clock.wall_s(), clock.cpu_s());
    if let Some(t) = trace {
        // Outside the point's clock: the evaluation re-run that splits
        // the BO phase into tableau time and surrogate time.
        let penalties = search::molecular_penalties(problem, opts);
        let seeds = search::molecular_seeds(&runner.ansatz, problem, opts);
        t.search.add_eval_rerun(
            engine,
            &runner.ansatz,
            &problem.hamiltonian,
            &penalties,
            opts,
            seeds.len(),
            result.evaluations - result.polish_evaluations,
        );
    }
    let point = Point {
        bond,
        n_qubits: problem.n_qubits,
        hf: problem.hf_energy,
        exact: problem.exact_energy,
        energy: result.energy,
        config: result.best_config,
        kt,
        setup_cpu_s: built.setup_cpu_s,
        search_s,
        wall_s,
        cpu_s,
    };
    Ok((point, runner))
}

/// Re-runs a point's searches on another engine.
fn replay_on(
    engine: &ExecEngine,
    which: Molecular,
    runner: &MolecularCafqa,
    point: &Point,
    opts: &CafqaOptions,
) -> Result<Replay, String> {
    let problem = runner.problem();
    let clock = Instant::now();
    let result = run_cafqa_on(
        engine,
        &runner.ansatz,
        &problem.hamiltonian,
        search::molecular_penalties(problem, opts),
        &search::molecular_seeds(&runner.ansatz, problem, opts),
        opts,
    );
    let mut identical =
        result.energy.to_bits() == point.energy.to_bits() && result.best_config == point.config;
    if which == Molecular::H2oSweep {
        let kt = run_kt(engine, runner, &result.best_config, &which.kt_opts(opts))?;
        identical &= point
            .kt
            .as_ref()
            .is_some_and(|(e, c)| e.to_bits() == kt.energy.to_bits() && *c == kt.best_config);
    }
    Ok(Replay { secs: clock.elapsed().as_secs_f64(), identical })
}

/// Correctness gates on one point.
fn check_point(
    which: Molecular,
    args: &Args,
    i: usize,
    p: &Point,
    e_atom: f64,
    report: &mut Report,
) {
    let at = format!("{} point {i} ({:.4} Å)", which.kind().name(), p.bond);
    report.gate(p.energy <= p.hf + TOL, || {
        format!("{at}: CAFQA {:.9} above HF {:.9}", p.energy, p.hf)
    });
    if let Some(exact) = p.exact {
        report.gate(p.energy >= exact - TOL, || {
            format!("{at}: CAFQA {:.9} below exact {exact:.9}", p.energy)
        });
    }
    if let Some((kt, _)) = &p.kt {
        report.gate(*kt <= p.energy + TOL, || {
            format!("{at}: kT {kt:.9} above its Clifford seed {:.9}", p.energy)
        });
    }
    if which == Molecular::Cr2Wide {
        report
            .gate(p.n_qubits == 34, || format!("{at}: register is {} qubits, not 34", p.n_qubits));
    }
    if args.seed == 0 {
        let golden = which.golden();
        let (bond, hf, energy) = golden[i % golden.len()];
        let (got_hf, got_energy) = match which {
            Molecular::H2oSweep => (format!("{:.6}", p.hf), format!("{:.6}", p.energy)),
            Molecular::Cr2Wide => {
                (format!("{:.4}", p.hf - 18.0 * e_atom), format!("{:.4}", p.energy - 18.0 * e_atom))
            }
        };
        report.gate(
            format!("{:.3}", p.bond) == bond && got_hf == hf && got_energy == energy,
            || {
                format!(
                    "{at}: row ({:.3}, {got_hf}, {got_energy}) differs from the figure's \
                 --quick row ({bond}, {hf}, {energy})",
                    p.bond
                )
            },
        );
    }
}

/// Runs a molecular workload and reports its metrics.
pub fn run(which: Molecular, args: &Args) -> Report {
    let mut report = Report::default();
    // Binding-energy reference of the Cr2 rows: the isolated H atom.
    let e_atom = if which == Molecular::Cr2Wide {
        match ChemPipeline::from_molecule(
            hydrogen_chain(1, 1.0),
            None,
            &ScfKind::Uhf { n_alpha: 1, n_beta: 0, guess_mix: 0.0 },
            &ScfOptions::default(),
        ) {
            Ok(pipe) => pipe.scf.energy,
            Err(e) => {
                report.violations.push(format!("H-atom reference failed: {e}"));
                return report;
            }
        }
    } else {
        0.0
    };

    // Untraced pass: each stream takes the next point index until the
    // measuring time is up and, unless tracing (whose per-layer metrics
    // have no bound), one whole pass over the bond grid is done.
    let cycle = which.cycle(args.seed);
    let pass = Stopwatch::start(CpuClock::Process);
    let next = AtomicUsize::new(0);
    let mut ran: Vec<(usize, Result<Point, String>)> = std::thread::scope(|scope| {
        let streams: Vec<_> = (0..if args.trace { 1 } else { nproc() })
            .map(|_| {
                scope.spawn(|| {
                    let engine = ExecEngine::serial();
                    let mut ran = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let more = i == 0
                            || pass.wall_s() < args.untraced_seconds()
                            || (!args.trace && i < cycle);
                        if !more {
                            break ran;
                        }
                        let opts = which.opts(args.seed, i);
                        let point =
                            run_point(which, &engine, which.bond(args.seed, i), &opts, None);
                        ran.push((i, point.map(|(point, _)| point)));
                    }
                })
            })
            .collect();
        streams.into_iter().flat_map(|s| s.join().expect("a point stream panicked")).collect()
    });
    let (wall, cpu) = (pass.wall_s(), pass.cpu_s());
    ran.sort_by_key(|(i, _)| *i);
    // Indices below `i` all ran: a stream stops at the first index it
    // declines, so only indices past the smallest declined one are missing.
    let i = ran.iter().enumerate().take_while(|(at, (k, _))| at == k).count();
    let mut points: Vec<(usize, Point)> = Vec::new();
    for (k, point) in ran {
        report.attempted += 1;
        match point {
            Ok(point) => points.push((k, point)),
            Err(e) => {
                report.failed += 1;
                report.notes.push(format!("point {k} failed: {e}"));
            }
        }
    }
    for (i, p) in &points {
        check_point(which, args, *i, p, e_atom, &mut report);
    }

    let col = |f: &dyn Fn(&Point) -> Option<f64>| -> Vec<f64> {
        points.iter().filter_map(|(_, p)| f(p)).collect()
    };
    // Per-point metrics over whole passes of the bond grid only, so every
    // run weighs each stratum equally whatever its seed.
    let whole = if i >= cycle { i / cycle * cycle } else { i };
    let cycled = |f: &dyn Fn(&Point) -> f64| -> Vec<f64> {
        points.iter().filter(|(k, _)| *k < whole).map(|(_, p)| f(p)).collect()
    };
    let setups = col(&|p| Some(p.setup_cpu_s));
    let recovered = col(&|p| {
        p.exact.filter(|e| p.hf - e > TOL).map(|e| 100.0 * (p.hf - p.energy) / (p.hf - e))
    });
    report.notes.push(format!(
        "points: {}",
        points
            .iter()
            .map(|(_, p)| {
                format!(
                    "{:.3}Å {:.6}Ha set-up {:.3} of {:.2} cpu s",
                    p.bond, p.energy, p.setup_cpu_s, p.cpu_s
                )
            })
            .collect::<Vec<_>>()
            .join(" | ")
    ));
    let cycled_cpu = cycled(&|p| p.cpu_s);
    report.row("wall_s", Some(wall), "s");
    report.row("cpu_s", Some(cpu), "s");
    report.row("ops", Some(points.len() as f64), "count");
    report.row("setup_s", median(&cycled(&|p| p.setup_cpu_s)), "s");
    report.row("setup_total_s", Some(setups.iter().sum()), "s");
    report.row("search_s", median(&cycled(&|p| p.search_s)), "s");
    report.row("search_total_s", Some(col(&|p| Some(p.search_s)).iter().sum()), "s");
    report.row("latency_p50_s", median(&cycled(&|p| p.wall_s)), "s");
    report.row("cpu_latency_p50_s", median(&cycled_cpu), "s");
    report.row("solves_per_s", Some(points.len() as f64 / wall), "1/s");
    report.row(
        "solves_per_cpu_s",
        Some(cycled_cpu.len() as f64 / cycled_cpu.iter().sum::<f64>()),
        "1/s",
    );
    report.row("failed_frac", Some(report.failed as f64 / report.attempted as f64), "ratio");
    report.row("corr_recovered_pct", mean(&recovered), "%");
    report.row("energy_below_hf_mha", mean(&col(&|p| Some(1e3 * (p.hf - p.energy)))), "mHa");
    report.row(
        "kt_gain_mha",
        mean(&col(&|p| p.kt.as_ref().map(|(kt, _)| 1e3 * (p.energy - kt)))),
        "mHa",
    );
    for name in ["job_latency_p50_s", "job_latency_p75_s", "short_job_latency_p50_s"] {
        report.row(name, None, "s");
    }

    if args.trace {
        traced_pass(which, args, &points, &mut report);
    }
    report
}

/// Repeats the untraced pass's points with layer spans, checks
/// bit-identity against it and against a serial engine, and reports the
/// per-layer metrics.
fn traced_pass(which: Molecular, args: &Args, untraced: &[(usize, Point)], report: &mut Report) {
    let engine = &ExecEngine::serial();
    let mut trace = Trace::default();
    let mut traced_wall = 0.0;
    let mut ab: Option<(f64, f64)> = None;
    for (k, (i, reference)) in untraced.iter().enumerate() {
        let opts = which.opts(args.seed, *i);
        let (point, runner) =
            match run_point(which, engine, reference.bond, &opts, Some(&mut trace)) {
                Ok(out) => out,
                Err(e) => {
                    report.violations.push(format!("traced point {i} failed: {e}"));
                    continue;
                }
            };
        traced_wall += point.wall_s;
        let same = point.energy.to_bits() == reference.energy.to_bits()
            && point.config == reference.config
            && point.hf.to_bits() == reference.hf.to_bits()
            && point.kt.as_ref().map(|(e, c)| (e.to_bits(), c))
                == reference.kt.as_ref().map(|(e, c)| (e.to_bits(), c));
        report.gate(same, || format!("traced point {i} differs from the untraced run"));
        // Engine A/B on the first point: the same searches on one
        // worker against `nproc` workers.
        if k == 0 {
            match replay_on(&ab_engine(), which, &runner, &point, &opts) {
                Ok(replay) => {
                    report.gate(replay.identical, || {
                        format!("point {i}: 1 and {} engine workers differ", nproc())
                    });
                    ab = Some((point.search_s, replay.secs));
                }
                Err(e) => report.violations.push(format!("engine A/B replay failed: {e}")),
            }
        }
    }
    let untraced_wall: f64 = untraced.iter().map(|(_, p)| p.wall_s).sum();
    let spans = trace.chem.total_s() + trace.search_span_s + trace.kt_s;
    report.traced_pass(untraced.len(), traced_wall, untraced_wall, spans);

    trace.chem.report(report);
    trace.search.report(report);
    report.layer("kt.search_s", trace.kt_s);
    report.layer("kt.evals", trace.kt_evals as f64);
    report.layer("kt.polish_evals", trace.kt_polish_evals as f64);
    report.layer("kt.t_count", trace.kt_t_count as f64 / trace.kt_runs.max(1) as f64);
    report.layer("kt.screened_classes", trace.kt_screened as f64);
    report.layer("engine.workers", engine.workers() as f64);
    if let Some((workload_s, ab_s)) = ab {
        report.layer("engine.speedup", workload_s / ab_s);
    }
}
