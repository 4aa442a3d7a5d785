//! The search layer, timed from outside.
//!
//! Untraced runs call the ordinary entry points. Traced runs call
//! `run_cafqa_resumable_on` (the function `run_cafqa_on` delegates to)
//! with an always-continue control that counts batches, read the phase
//! timers and counters the result carries, and then re-run
//! `CliffordObjective::evaluate_batch` on the same number of
//! configurations in the same batch shapes, so the BO phase splits into
//! tableau evaluation and everything else (the surrogate).

use std::time::Instant;

use cafqa_chem::MolecularProblem;
use cafqa_circuit::{Ansatz, EfficientSu2};
use cafqa_core::{
    run_cafqa_resumable_on, CafqaOptions, CafqaResult, CliffordObjective, ExecEngine, Penalty,
    RunControl, RunStatus,
};
use cafqa_pauli::PauliOp;

use crate::Rng;

/// Accumulated search-layer measurements of a traced pass.
#[derive(Debug, Default, Clone)]
pub struct SearchStats {
    /// Warm-up plus BO phase seconds (`CafqaResult::bo_seconds`).
    pub bo_s: f64,
    /// Polish endgame seconds (`CafqaResult::polish_seconds`).
    pub polish_s: f64,
    /// BO-phase evaluations.
    pub bo_evals: u64,
    /// Polish evaluations.
    pub polish_evals: u64,
    /// Control-callback calls (live BO batches).
    pub batches: u64,
    /// Seconds the outside re-run of the BO evaluations took.
    pub eval_s: f64,
    /// Configurations that re-run evaluated.
    pub eval_configs: u64,
    /// Configurations × Hamiltonian terms of that re-run.
    pub term_evals: f64,
    /// Strict best-so-far improvements over all evaluations.
    pub improvements: u64,
    /// Polish seeks that rewound / that restored a layer checkpoint.
    pub seeks: (u64, u64),
}

impl SearchStats {
    /// Writes the `search.*` and `clifford.*` per-layer metrics.
    pub fn report(&self, report: &mut crate::Report) {
        let evals = self.bo_evals + self.polish_evals;
        report.layer("search.bo_s", self.bo_s);
        report.layer("search.polish_s", self.polish_s);
        report.layer("search.bo_evals", self.bo_evals as f64);
        report.layer("search.polish_evals", self.polish_evals as f64);
        report.layer("search.batches", self.batches as f64);
        report.layer("search.eval_s", self.eval_s);
        report.layer("search.surrogate_s", self.bo_s - self.eval_s);
        report.layer("search.useful_frac", self.improvements as f64 / evals.max(1) as f64);
        report.layer("search.seeks_backward", self.seeks.0 as f64);
        report.layer("search.seeks_restored", self.seeks.1 as f64);
        if self.eval_configs > 0 && self.eval_s > 0.0 {
            report.layer("clifford.eval_us", 1e6 * self.eval_s / self.eval_configs as f64);
            report.layer("clifford.term_evals_per_s", self.term_evals / self.eval_s);
        }
        if self.polish_evals > 0 {
            report.layer("clifford.polish_eval_us", 1e6 * self.polish_s / self.polish_evals as f64);
        }
    }
}

/// The penalties `MolecularCafqa::run_on` attaches for `opts`.
pub fn molecular_penalties(problem: &MolecularProblem, opts: &CafqaOptions) -> Vec<Penalty> {
    let mut penalties = Vec::new();
    if opts.number_penalty > 0.0 {
        let target = problem.n_electrons() as f64;
        penalties.push(Penalty::new(
            "electron count",
            &problem.number_op,
            target,
            opts.number_penalty,
        ));
    }
    let s = 0.5 * (problem.n_alpha as f64 - problem.n_beta as f64);
    if opts.sz_penalty > 0.0 {
        penalties.push(Penalty::new("sz", &problem.sz_op, s, opts.sz_penalty));
    }
    if opts.s2_penalty > 0.0 {
        penalties.push(Penalty::new(
            "s-squared",
            &problem.s_squared_op,
            s * (s + 1.0),
            opts.s2_penalty,
        ));
    }
    penalties
}

/// The seed list `MolecularCafqa::run_on` searches from.
pub fn molecular_seeds(
    ansatz: &EfficientSu2,
    problem: &MolecularProblem,
    opts: &CafqaOptions,
) -> Vec<Vec<usize>> {
    if opts.seed_hf {
        vec![ansatz.basis_state_config(problem.hf_bits)]
    } else {
        Vec::new()
    }
}

/// One search through `run_cafqa_resumable_on` with a batch-counting
/// always-continue control; returns the result and its wall seconds,
/// and accumulates the result's counters into `stats` when given.
pub fn run(
    engine: &ExecEngine,
    ansatz: &EfficientSu2,
    hamiltonian: &PauliOp,
    penalties: &[Penalty],
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
    stats: Option<&mut SearchStats>,
) -> (CafqaResult, f64) {
    let mut batches = 0u64;
    let clock = Instant::now();
    let status = run_cafqa_resumable_on(
        engine,
        ansatz,
        hamiltonian,
        penalties.to_vec(),
        seeds,
        opts,
        None,
        &mut |_| {
            batches += 1;
            RunControl::Continue
        },
    );
    let secs = clock.elapsed().as_secs_f64();
    let result = match status {
        Ok(RunStatus::Complete(result)) => result,
        Ok(RunStatus::Suspended(_)) => unreachable!("an always-continue control cannot suspend"),
        Err(e) => unreachable!("no checkpoint was supplied: {e}"),
    };
    if let Some(stats) = stats {
        let bo_evals = result.evaluations - result.polish_evaluations;
        stats.bo_s += result.bo_seconds;
        stats.polish_s += result.polish_seconds;
        stats.bo_evals += bo_evals as u64;
        stats.polish_evals += result.polish_evaluations as u64;
        stats.batches += batches;
        stats.seeks.0 += result.polish_seek_stats.0;
        stats.seeks.1 += result.polish_seek_stats.1;
        stats.improvements += improvements(&result);
    }
    (result, secs)
}

/// Strict best-so-far improvements along a search trace.
pub fn improvements(result: &CafqaResult) -> u64 {
    let mut best = f64::INFINITY;
    let mut count = 0;
    for point in &result.trace {
        if point.best_so_far < best {
            best = point.best_so_far;
            count += 1;
        }
    }
    count
}

impl SearchStats {
    /// Evaluates `bo_evals` random configurations through a fresh
    /// objective on the same engine, in the BO phase's batch shapes (the
    /// warm-up plus seeds as one batch, then `proposals_per_refit` per
    /// refit), and accumulates the seconds spent inside
    /// `evaluate_batch` as `eval_s`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_eval_rerun(
        &mut self,
        engine: &ExecEngine,
        ansatz: &EfficientSu2,
        hamiltonian: &PauliOp,
        penalties: &[Penalty],
        opts: &CafqaOptions,
        seeds: usize,
        bo_evals: usize,
    ) {
        let mut objective = CliffordObjective::new(ansatz, hamiltonian).with_engine(engine.clone());
        for p in penalties {
            objective = objective.with_penalty(p.clone());
        }
        let d = ansatz.num_parameters();
        let mut rng = Rng::new(opts.seed, 0xE7A1);
        let mut sizes = vec![(opts.warmup + seeds).min(bo_evals)];
        let mut left = bo_evals - sizes[0];
        while left > 0 {
            let size = left.min(opts.proposals_per_refit.max(1));
            sizes.push(size);
            left -= size;
        }
        let mut secs = 0.0;
        for size in sizes {
            let batch: Vec<Vec<usize>> =
                (0..size).map(|_| (0..d).map(|_| rng.below(4)).collect()).collect();
            let clock = Instant::now();
            std::hint::black_box(objective.evaluate_batch(&batch));
            secs += clock.elapsed().as_secs_f64();
        }
        self.eval_s += secs;
        self.eval_configs += bo_evals as u64;
        self.term_evals += bo_evals as f64 * hamiltonian.num_terms() as f64;
    }
}
