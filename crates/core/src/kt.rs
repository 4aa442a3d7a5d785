//! CAFQA+kT: the beyond-Clifford search (paper §8, Fig. 16).
//!
//! The angle grid per parameter widens from 4 Clifford angles to 8
//! eighth-turns (`k·π/4`); every odd index is a non-Clifford rotation and
//! costs one branch doubling in the stabilizer-rank engine. A budget of
//! at most `k_max` odd indices keeps the configuration classically
//! simulable (`2^k` Clifford branches).
//!
//! This module runs that search on the compiled/engine stack: candidates
//! evaluate on [`BranchEnsemble`] (tableau-backed, so the search works at
//! H2O/Cr2 qubit counts where dense branch summation cannot run), batches
//! shard over an [`ExecEngine`], and the Bayesian layer samples a
//! *feasible-by-construction* genome instead of rejecting over-budget
//! configurations with a penalty constant — see
//! [`run_cafqa_kt_on`](run_cafqa_kt_on#feasibility-and-determinism).
//!
//! The tier owns only its value kernel ([`KtCore`]: the exact or
//! bound-screened branch-pair sum and the coarse rank probe). BO
//! candidates and polish moves evaluate through the prefix-checkpoint
//! cache shared with the Clifford tier ([`KtPolishSession`] is a
//! [`PrefixCache`] over branch ensembles), and the polish endgame runs the
//! shared greedy polish's kT coordinate and T-migration phases.
//!
//! Inputs are validated once, up front, by [`CafqaProblem::new`] on the
//! [`AngleGrid::CliffordT`] grid: register widths, the budget against
//! [`MAX_BRANCH_GATES`](cafqa_clifford::MAX_BRANCH_GATES), and 8-ary seeds
//! within the budget. The search itself then cannot fail on its inputs;
//! the one remaining error is an ansatz that does not compile to a
//! Clifford+T template ([`CafqaError::NotCompilable`]), found where the
//! template is compiled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cafqa_bayesopt::{minimize_with, SearchSpace};
use cafqa_circuit::{Ansatz, CompiledAnsatz};
use cafqa_clifford::BranchEnsemble;
use cafqa_pauli::PauliOp;

use crate::engine::ExecEngine;
use crate::objective::{ObjectiveValue, Penalty};
use crate::polish::{
    incumbent_or_origin, search_trace, Greedy, Neighborhood, Phase, PolishMove, PrefixCache,
    TierKernel,
};
use crate::problem::{AngleGrid, CafqaError, CafqaProblem};
use crate::runner::{run_to_completion, CafqaOptions, SearchPoint};

/// The outcome of a CAFQA+kT search.
#[derive(Debug, Clone)]
pub struct CafqaKtResult {
    /// Best configuration over the 8-ary grid.
    pub best_config: Vec<usize>,
    /// Raw `⟨H⟩` of the best configuration.
    pub energy: f64,
    /// Penalized objective value of the best configuration.
    pub penalized: f64,
    /// Number of non-Clifford rotations in the best configuration
    /// (`≤ k_max`).
    pub t_count: usize,
    /// Full search trace (BO phase then polish), penalized-objective
    /// bookkeeping as in [`crate::CafqaResult::trace`].
    pub trace: Vec<SearchPoint>,
    /// 1-based evaluation index that first reached the final best.
    pub iterations_to_best: usize,
    /// Evaluations that actually ran a branch simulation. With the
    /// feasibility-aware sampler this is *every* evaluation.
    pub feasible_evaluations: usize,
    /// Proposals discarded for exceeding the T budget before any
    /// simulation ran. Always 0 here — the genome encoding cannot
    /// express an over-budget configuration — but the frozen rejection
    ///-based reference implementation reports nonzero counts, and the
    /// split keeps the two comparable.
    pub rejected_evaluations: usize,
    /// Evaluations spent in the polish endgame (the tail of `trace`).
    pub polish_evaluations: usize,
    /// XOR classes skipped by the quadratic-Clifford bound screen across
    /// every branch-pair sum of the search. Always 0 when
    /// [`CafqaOptions::screen_tolerance`] is 0. Integer accumulation is
    /// order-independent, so the counter is deterministic at any worker
    /// count, like the trace itself.
    pub screened_classes: u64,
    /// Polish candidate moves pruned by bound ranking before any exact
    /// evaluation ran ([`CafqaOptions::kt_rank_top`]). Always 0 when
    /// ranking is off.
    pub screened_moves: u64,
}

/// Number of odd (non-Clifford) indices in an 8-ary configuration.
pub fn t_count_of(config: &[usize]) -> usize {
    config.iter().filter(|&&k| k % 2 == 1).count()
}

/// Converts a Clifford (4-ary) configuration to the 8-ary grid.
pub fn widen_clifford_config(config: &[usize]) -> Vec<usize> {
    config.iter().map(|&k| 2 * k).collect()
}

/// The feasible genome space for `d` parameters and budget `k_max`:
/// `d` quaternary Clifford dimensions followed by `k_max` *insertion*
/// dimensions of cardinality `2d + 1` (0 = no insertion; `v ≥ 1` turns
/// parameter `(v−1)/2` by `+π/4` or `−π/4`).
fn kt_search_space(d: usize, k_max: usize) -> SearchSpace {
    let mut cardinalities = vec![4usize; d];
    cardinalities.resize(d + k_max, 2 * d + 1);
    SearchSpace { cardinalities }
}

/// Decodes a genome into an 8-ary configuration. Insertions apply
/// sequentially, so two insertions on one parameter cancel back to a
/// Clifford angle — the odd-index count never exceeds the number of
/// insertion dimensions, which is why every genome is feasible.
fn decode_genome(genome: &[usize], d: usize) -> Vec<usize> {
    let mut config: Vec<usize> = genome[..d].iter().map(|&k| 2 * k).collect();
    for &v in &genome[d..] {
        if v == 0 {
            continue;
        }
        let param = (v - 1) / 2;
        let delta = if (v - 1) % 2 == 0 { 1 } else { 7 };
        config[param] = (config[param] + delta) % 8;
    }
    config
}

/// Encodes a validated 8-ary seed (entries `< 8`, at most `k_max` odd)
/// as a genome: the Clifford floor plus one `+π/4` insertion per odd
/// index. At `k_max = 0` the genome is the seed's 4-ary Clifford form.
fn encode_seed(config: &[usize], k_max: usize) -> Vec<usize> {
    let mut genome: Vec<usize> = config.iter().map(|&k| k / 2).collect();
    let mut insertions: Vec<usize> =
        config.iter().enumerate().filter(|&(_, &k)| k % 2 == 1).map(|(p, _)| 2 * p + 1).collect();
    insertions.resize(k_max, 0);
    genome.extend(insertions);
    genome
}

/// `(x mask, z mask, real coefficient)` of one Pauli term — the flat
/// form the branch-pair kernel consumes.
type MaskTerm = (u64, u64, f64);

/// `(weight, squared-op terms)` of one penalty, in mask form.
type MaskPenalty = (f64, Vec<MaskTerm>);

/// Flattens an operator into mask terms.
fn masks_of(op: &PauliOp) -> Vec<MaskTerm> {
    op.iter().map(|(p, c)| (p.x_mask(), p.z_mask(), c.re)).collect()
}

/// Evaluates one prepared branch ensemble against the Hamiltonian terms
/// and penalties. Terms sum in storage order and classes in one fixed
/// full-range [`BranchEnsemble::pair_sum`] per term, so the value is a
/// pure function of `(state, terms)` — the worker-count bit-identity of
/// the whole search reduces to this.
fn value_of(
    terms: &[MaskTerm],
    penalties: &[MaskPenalty],
    state: &BranchEnsemble,
) -> ObjectiveValue {
    let frames = state.frames();
    let classes = frames.num_branches();
    let mut energy = 0.0;
    for &(px, pz, c) in terms {
        energy += c * state.pair_sum(&frames, px, pz, 0..classes);
    }
    let mut penalized = energy;
    for (weight, ops) in penalties {
        let mut v = 0.0;
        for &(px, pz, c) in ops {
            v += c * state.pair_sum(&frames, px, pz, 0..classes);
        }
        penalized += weight * v;
    }
    ObjectiveValue { energy, penalized }
}

/// The per-term class tolerance: a class may be skipped only when its
/// bound, scaled by the term's (effective) coefficient magnitude, cannot
/// move the objective past `tol` — i.e. `bound(c) ≤ tol / |coeff|`.
#[inline]
fn term_tol(tol: f64, coeff: f64) -> f64 {
    if coeff == 0.0 {
        f64::INFINITY
    } else {
        tol / coeff.abs()
    }
}

/// [`value_of`] behind the quadratic-Clifford bound screen at the
/// term's [`term_tol`], and the total skipped-class count. `tol = 0.0`
/// delegates to [`value_of`] — the exact path stays frozen, bit for bit,
/// with zero screening overhead.
fn value_of_screened(
    terms: &[MaskTerm],
    penalties: &[MaskPenalty],
    state: &BranchEnsemble,
    tol: f64,
) -> (ObjectiveValue, u64) {
    if tol == 0.0 {
        return (value_of(terms, penalties, state), 0);
    }
    screened_fold(terms, penalties, state, |coeff| term_tol(tol, coeff))
}

/// The screened term fold: each term's class loop runs
/// [`BranchEnsemble::pair_sum_screened`] at `class_tol` of the term's
/// coefficient (penalty terms at their weighted coefficient); the second
/// return is the total skipped-class count.
fn screened_fold(
    terms: &[MaskTerm],
    penalties: &[MaskPenalty],
    state: &BranchEnsemble,
    class_tol: impl Fn(f64) -> f64,
) -> (ObjectiveValue, u64) {
    let frames = state.frames();
    let classes = frames.num_branches();
    let mut skipped = 0u64;
    let mut energy = 0.0;
    for &(px, pz, c) in terms {
        let s = state.pair_sum_screened(&frames, px, pz, 0..classes, class_tol(c));
        energy += c * s.sum;
        skipped += s.skipped_classes as u64;
    }
    let mut penalized = energy;
    for &(weight, ref ops) in penalties {
        let mut v = 0.0;
        for &(px, pz, c) in ops {
            let s = state.pair_sum_screened(&frames, px, pz, 0..classes, class_tol(weight * c));
            v += c * s.sum;
            skipped += s.skipped_classes as u64;
        }
        penalized += weight * v;
    }
    (ObjectiveValue { energy, penalized }, skipped)
}

/// Bound threshold of the coarse *ranking* evaluation: keep only classes
/// whose quadratic-Clifford bound exceeds 1/2 — for `±π/4` branch angles
/// that is the diagonal class and the single-branch-point classes
/// (overlap rank `ν ≤ 1`) — so scoring a move costs `O((1+t)·2^t)` per
/// term instead of the full `O(4^t)`.
const KT_RANK_BOUND: f64 = 0.5;

/// The shared, engine-shippable core of a kT search — the tier's
/// [`TierKernel`]: the Clifford+T compiled template plus the Hamiltonian
/// and penalty terms in mask form, evaluated on [`BranchEnsemble`]
/// states (a checkpoint may hold open branch frames, so the prefix cache
/// works *across the T-gate frontier*). Each value is a pure function of
/// the prepared state, so traces are bit-identical at any worker count.
pub struct KtCore {
    template: CompiledAnsatz,
    terms: Vec<MaskTerm>,
    penalties: Vec<MaskPenalty>,
    /// [`CafqaOptions::screen_tolerance`]: 0.0 runs the frozen exact
    /// [`value_of`] path, anything larger the bound-screened one.
    screen_tolerance: f64,
    /// XOR classes the bound screen skipped across every evaluation. A
    /// plain integer sum (a statistic publishing no other data, hence
    /// `Relaxed`), so it does not depend on chunking or worker count.
    skipped_classes: AtomicU64,
}

impl TierKernel for KtCore {
    type State = BranchEnsemble;
    /// Two chunks per worker: variants differ in T count, and so in
    /// branch count and cost.
    const SHARDS_PER_WORKER: usize = 2;

    fn template(&self) -> &CompiledAnsatz {
        &self.template
    }

    fn dispatches(&self, len: usize) -> bool {
        len > 1
    }

    fn value(
        self: &Arc<Self>,
        state: &Arc<BranchEnsemble>,
        _engine: Option<&ExecEngine>,
    ) -> ObjectiveValue {
        let (value, skipped) =
            value_of_screened(&self.terms, &self.penalties, state, self.screen_tolerance);
        self.skipped_classes.fetch_add(skipped, Ordering::Relaxed);
        value
    }

    /// The coarse penalized score: every term screened at the uniform
    /// [`KT_RANK_BOUND`].
    fn rank(&self, state: &BranchEnsemble) -> f64 {
        screened_fold(&self.terms, &self.penalties, state, |_| KT_RANK_BOUND).0.penalized
    }
}

/// An incremental evaluator for 8-ary configurations: the
/// [`PrefixCache`] over branch ensembles, built by [`kt_session`].
pub type KtPolishSession = PrefixCache<KtCore>;

impl PrefixCache<KtCore> {
    /// Total XOR classes the bound screen skipped across every evaluation
    /// this session ran. 0 while `screen_tolerance = 0`; deterministic at
    /// any worker count (integer accumulation is order-independent).
    pub fn skipped_classes(&self) -> u64 {
        self.kernel().skipped_classes.load(Ordering::Relaxed)
    }

    /// Evaluates arbitrary full configurations (no shared prefix): the
    /// engine-batched candidate path of the BO phase.
    pub fn evaluate_batch(&mut self, configs: &[Vec<usize>]) -> Vec<ObjectiveValue> {
        let moves: Vec<PolishMove> =
            configs.iter().map(|config| config.iter().copied().enumerate().collect()).collect();
        self.evaluate_moves(&moves)
    }

    /// Evaluates variants of `base` that differ only at the parameters
    /// in `changed`: the prefix up to the first op reading a changed
    /// parameter is checkpointed once and only the suffix replays per
    /// variant.
    pub fn evaluate_variants(
        &mut self,
        base: &[usize],
        changed: &[usize],
        variants: &[Vec<usize>],
    ) -> Vec<ObjectiveValue> {
        Neighborhood::evaluate(self, base, &variant_moves(changed, variants))
    }

    /// Coarse bound-screened scores for variants of `base` (same prefix
    /// contract as [`Self::evaluate_variants`]) — the move-*ranking*
    /// probe: every term's class loop truncated at [`KT_RANK_BOUND`], so
    /// a score costs `O((1+t)·2^t)` per term instead of `O(4^t)`. Scores
    /// shard over the engine exactly like exact values and never enter
    /// the trace.
    pub fn rank_variants(
        &mut self,
        base: &[usize],
        changed: &[usize],
        variants: &[Vec<usize>],
    ) -> Vec<f64> {
        Neighborhood::rank(self, base, &variant_moves(changed, variants))
    }
}

/// The polish moves patching `changed` to each variant's values.
fn variant_moves(changed: &[usize], variants: &[Vec<usize>]) -> Vec<PolishMove> {
    variants.iter().map(|v| changed.iter().map(|&p| (p, v[p])).collect()).collect()
}

/// Builds a standalone [`KtPolishSession`] for a template-expressible
/// ansatz — the screened-vs-exact A/B hook the benches and equivalence
/// tests drive directly, and the evaluator the search itself runs on.
/// Returns `None` when the ansatz cannot compile to a Clifford+T
/// template.
pub fn kt_session(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: &[Penalty],
    screen_tolerance: f64,
) -> Option<KtPolishSession> {
    let template = CompiledAnsatz::compile_clifford_t(ansatz)?;
    let base = vec![0; template.num_parameters()];
    let core = KtCore {
        template,
        terms: masks_of(hamiltonian),
        penalties: penalties.iter().map(|p| (p.weight, masks_of(p.squared_op()))).collect(),
        screen_tolerance,
        skipped_classes: AtomicU64::new(0),
    };
    let zero = BranchEnsemble::zero_state(ansatz.num_qubits());
    Some(PrefixCache::new(Arc::new(core), Some(engine.clone()), base, zero))
}

/// Runs the CAFQA+kT search with at most `k_max` T-like rotations, on
/// the process-global execution engine.
///
/// Seeds are 8-ary (use [`widen_clifford_config`] on a Clifford-only
/// CAFQA result — the paper inserts T gates "at prior Clifford gate
/// positions"). See [`run_cafqa_kt_on`] for the feasibility and
/// determinism contract.
///
/// # Errors
///
/// Any [`CafqaProblem::new`] failure on the
/// [`AngleGrid::CliffordT`]` { k_max }` grid, before any search state
/// exists: [`CafqaError::QubitMismatch`],
/// [`CafqaError::BudgetTooLarge`] (`k_max` above
/// [`MAX_BRANCH_GATES`](cafqa_clifford::MAX_BRANCH_GATES)),
/// [`CafqaError::BadSeed`] (wrong length, or an entry outside `0..8`)
/// and [`CafqaError::SeedInfeasible`] (more than `k_max` odd entries).
/// At `k_max = 0` the Clifford search's own validation follows, so
/// [`IsingFastPath::Force`](crate::IsingFastPath::Force) on an
/// unroutable instance is a [`CafqaError::NotIsingClass`]. For
/// `k_max > 0`, [`CafqaError::NotCompilable`] when the ansatz does not
/// compile to a Clifford+T template.
pub fn run_cafqa_kt(
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    k_max: usize,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> Result<CafqaKtResult, CafqaError> {
    run_cafqa_kt_on(ExecEngine::global(), ansatz, hamiltonian, penalties, k_max, seeds, opts)
}

/// [`run_cafqa_kt`] on an explicit [`ExecEngine`].
///
/// # Feasibility and determinism
///
/// Three properties compose, and this section is the single source of
/// truth for them:
///
/// - **Feasible by construction.** The Bayesian layer does not sample
///   the raw 8-ary grid (where most of the space is over budget and a
///   rejection constant poisons the surrogate). It samples a genome of
///   `d` Clifford dimensions plus `k_max` *insertion* dimensions, each
///   either inert or turning one parameter by `±π/4`; decoded
///   configurations therefore carry at most `k_max` odd indices, every
///   evaluation runs a real branch simulation, and
///   [`CafqaKtResult::rejected_evaluations`] is always 0. The incumbent
///   is always simulable, so the search returns a structured
///   [`CafqaError`] on bad *inputs* instead of panicking on its own
///   output.
/// - **`k_max = 0` reproduces the Clifford search.** A zero budget
///   delegates wholesale to [`run_cafqa_on`](crate::run_cafqa_on) (same
///   engine, options and seeds, with seeds narrowed to the 4-ary grid)
///   and widens the result; the trace is bit-identical to the classic
///   run's.
/// - **Worker-count bit-identity.** Candidate values are pure functions
///   of the candidate: terms sum in storage order, branch-pair classes
///   in one fixed full-range fold ([`value_of`]'s contract), and the
///   engine reassembles shard results in submission order. Changing the
///   worker count — including to 1 — changes no bit of the trace,
///   matching the Clifford search's contract.
///
/// The polish endgame runs the greedy sweeps shared with the Clifford
/// search on the prefix-checkpoint cache ([`KtPolishSession`]), which
/// extends the incremental kernel across the T-gate frontier; its kT
/// phases add T-migration pair moves at constant T count, and its one
/// acceptance fold only ever improves on the BO incumbent (the all-zero
/// configuration when the BO phase produced none).
///
/// With [`CafqaOptions::screen_tolerance`] or
/// [`CafqaOptions::kt_rank_top`] nonzero, evaluations run behind the
/// quadratic-Clifford bound screen and polish batches are bound-ranked —
/// see the [screening and
/// tolerance](CafqaOptions#screening-and-tolerance) notes for the
/// tolerance semantics and what stays deterministic. At the defaults
/// (`0.0` / `0`) every path above is the frozen exact one, bit for bit.
///
/// # Errors
///
/// As for [`run_cafqa_kt`].
pub fn run_cafqa_kt_on(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    k_max: usize,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> Result<CafqaKtResult, CafqaError> {
    let grid = AngleGrid::CliffordT { k_max };
    let problem = CafqaProblem::new(ansatz, hamiltonian, penalties, seeds, grid, opts)?;
    let d = ansatz.num_parameters();
    let genome_seeds: Vec<Vec<usize>> = seeds.iter().map(|seed| encode_seed(seed, k_max)).collect();
    if k_max == 0 {
        // Zero budget: the space *is* the Clifford space, and the genomes
        // are the seeds' 4-ary forms. Delegate to the classic search
        // (bit-identical trace) and widen the result.
        let r =
            run_to_completion(engine, ansatz, hamiltonian, problem.penalties, &genome_seeds, opts)?;
        return Ok(CafqaKtResult {
            best_config: widen_clifford_config(&r.best_config),
            energy: r.energy,
            penalized: r.penalized,
            t_count: 0,
            feasible_evaluations: r.evaluations,
            rejected_evaluations: 0,
            iterations_to_best: r.iterations_to_best,
            polish_evaluations: r.polish_evaluations,
            trace: r.trace,
            screened_classes: 0,
            screened_moves: 0,
        });
    }

    let mut session =
        kt_session(engine, ansatz, hamiltonian, &problem.penalties, opts.screen_tolerance)
            .ok_or(CafqaError::NotCompilable)?;

    let space = kt_search_space(d, k_max);
    let mut raw_trace: Vec<(f64, f64)> = Vec::new();
    let result = minimize_with(
        &space,
        |batch: &[Vec<usize>]| {
            let decoded: Vec<Vec<usize>> =
                batch.iter().map(|genome| decode_genome(genome, d)).collect();
            let values = session.evaluate_batch(&decoded);
            values
                .iter()
                .map(|v| {
                    raw_trace.push((v.energy, v.penalized));
                    v.penalized
                })
                .collect()
        },
        &genome_seeds,
        &opts.bo_options(),
        engine,
    );
    let best8 = decode_genome(&incumbent_or_origin(result.best_config, d + k_max), d);
    let start_value = match raw_trace.get(result.iterations_to_best.wrapping_sub(1)) {
        Some(&(energy, penalized)) => ObjectiveValue { energy, penalized },
        None => session.evaluate_batch(std::slice::from_ref(&best8))[0],
    };
    let mut polish = Greedy::new(best8, start_value);
    let phases = [Phase::KtCoordinate(k_max), Phase::KtMigration];
    polish.sweep(&mut session, opts.polish_sweeps, &phases, opts.kt_rank_top);

    let (trace, iterations_to_best) =
        search_trace(raw_trace, &polish.trace, polish.last_accept, result.iterations_to_best);
    Ok(CafqaKtResult {
        t_count: t_count_of(&polish.best_config),
        best_config: polish.best_config,
        energy: polish.best_value.energy,
        penalized: polish.best_value.penalized,
        feasible_evaluations: trace.len(),
        rejected_evaluations: 0,
        iterations_to_best,
        polish_evaluations: polish.trace.len(),
        trace,
        screened_classes: session.skipped_classes(),
        screened_moves: polish.screened_moves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_circuit::EfficientSu2;
    use cafqa_clifford::{CliffordTState, MAX_BRANCH_GATES};

    #[test]
    fn t_counting() {
        assert_eq!(t_count_of(&[0, 2, 4, 6]), 0);
        assert_eq!(t_count_of(&[1, 2, 3, 0]), 2);
        assert_eq!(widen_clifford_config(&[0, 1, 2, 3]), vec![0, 2, 4, 6]);
    }

    #[test]
    fn genome_space_is_feasible_by_construction() {
        let (d, k_max) = (5, 2);
        let space = kt_search_space(d, k_max);
        assert_eq!(space.cardinalities, vec![4, 4, 4, 4, 4, 11, 11]);
        // A deterministic sweep over genomes: decode never exceeds the
        // budget, whatever the insertion dimensions say.
        for s in 0..300usize {
            let genome: Vec<usize> = space
                .cardinalities
                .iter()
                .enumerate()
                .map(|(i, &card)| (s.wrapping_mul(2654435761).wrapping_add(i * 40503)) % card)
                .collect();
            let config = decode_genome(&genome, d);
            assert!(t_count_of(&config) <= k_max, "{genome:?} -> {config:?}");
            assert!(config.iter().all(|&k| k < 8));
        }
        // Encode ∘ decode is the identity on feasible configurations.
        for config in [vec![0, 2, 4, 6, 0], vec![1, 0, 0, 0, 7], vec![3, 6, 1, 0, 2]] {
            let genome = encode_seed(&config, k_max);
            assert_eq!(genome.len(), d + k_max);
            assert_eq!(decode_genome(&genome, d), config);
        }
    }

    #[test]
    fn infeasible_inputs_are_structured_errors() {
        let h: PauliOp = "Z".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts = CafqaOptions::quick();
        // The old implementation panicked post-search on infeasible
        // incumbents; now over-budget seeds fail up front, structured.
        let err = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[vec![1, 1]], &opts).unwrap_err();
        assert_eq!(err, CafqaError::SeedInfeasible { seed: 0, t_count: 2, k_max: 1 });
        let err =
            run_cafqa_kt(&ansatz, &h, Vec::new(), MAX_BRANCH_GATES + 1, &[], &opts).unwrap_err();
        assert_eq!(
            err,
            CafqaError::BudgetTooLarge { k_max: MAX_BRANCH_GATES + 1, max: MAX_BRANCH_GATES }
        );
        assert!(err.to_string().contains("branch-engine limit"));
    }

    #[test]
    fn non_compilable_ansatz_is_a_structured_error() {
        struct Scaled;
        impl Ansatz for Scaled {
            fn num_qubits(&self) -> usize {
                1
            }
            fn num_parameters(&self) -> usize {
                1
            }
            fn bind(&self, params: &[f64]) -> cafqa_circuit::Circuit {
                // Arithmetic destroys the compile-probe sentinel; grid
                // points still land on multiples of π/2 or π/4.
                let mut c = cafqa_circuit::Circuit::new(1);
                c.ry(0, 2.0 * params[0]);
                c
            }
        }
        let h: PauliOp = "Z".parse().unwrap();
        let opts = CafqaOptions { warmup: 4, iterations: 4, ..Default::default() };
        let err = run_cafqa_kt(&Scaled, &h, Vec::new(), 1, &[], &opts).unwrap_err();
        assert_eq!(err, CafqaError::NotCompilable);
        assert!(err.to_string().contains("Clifford+T template"));
        // A zero budget still delegates to the Clifford search, whose
        // non-compiled path re-prepares every candidate.
        let clifford = run_cafqa_kt(&Scaled, &h, Vec::new(), 0, &[], &opts).unwrap();
        assert_eq!(clifford.energy, -1.0);
    }

    #[test]
    fn kt_beats_clifford_on_non_clifford_ground_state() {
        // H = cos(π/4) Z + sin(π/4) X has ground state requiring a π/4
        // rotation; Clifford-only caps out at −cos(π/4) ≈ −0.707 while one
        // T-like rotation reaches −1.
        let h: PauliOp = "-0.70710678*Z - 0.70710678*X".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts = CafqaOptions { warmup: 20, iterations: 60, ..Default::default() };
        let clifford_best = {
            // Exhaust the 16 Clifford configs on the dense oracle.
            let mut best = f64::INFINITY;
            for a in 0..4 {
                for b in 0..4 {
                    let circuit = ansatz.bind_eighth(&[2 * a, 2 * b]);
                    let state = CliffordTState::from_circuit(&circuit).unwrap();
                    best = best.min(state.expectation(&h));
                }
            }
            best
        };
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[], &opts).unwrap();
        assert!(kt.t_count <= 1);
        assert!(kt.energy < clifford_best - 0.1, "kT {} vs Clifford {clifford_best}", kt.energy);
        assert!((kt.energy + 1.0).abs() < 0.05, "kT energy {}", kt.energy);
        assert_eq!(kt.rejected_evaluations, 0, "the feasible genome never rejects");
        assert_eq!(kt.feasible_evaluations, kt.trace.len());
        assert!(kt.polish_evaluations < kt.trace.len());
    }

    #[test]
    fn budget_zero_reduces_to_clifford() {
        let h: PauliOp = "Z".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts = CafqaOptions { warmup: 30, iterations: 40, ..Default::default() };
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 0, &[vec![0, 0]], &opts).unwrap();
        assert_eq!(kt.t_count, 0);
        assert!((kt.energy + 1.0).abs() < 1e-9); // Ry(π) flips to |1⟩, ⟨Z⟩ = −1.
    }

    #[test]
    fn budget_zero_is_bit_identical_to_the_clifford_search() {
        let h: PauliOp = "0.5*ZZ + 0.25*XI - 0.3*IZ".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 0);
        let opts =
            CafqaOptions { warmup: 20, iterations: 30, polish_sweeps: 2, ..Default::default() };
        let clifford = crate::runner::run_cafqa(&ansatz, &h, Vec::new(), &[], &opts);
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 0, &[], &opts).unwrap();
        assert_eq!(kt.best_config, widen_clifford_config(&clifford.best_config));
        assert_eq!(kt.energy.to_bits(), clifford.energy.to_bits());
        assert_eq!(kt.trace.len(), clifford.trace.len());
        for (a, b) in kt.trace.iter().zip(&clifford.trace) {
            assert_eq!(a.penalized.to_bits(), b.penalized.to_bits());
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        }
        assert_eq!(kt.feasible_evaluations, clifford.evaluations);
        assert_eq!(kt.iterations_to_best, clifford.iterations_to_best);
    }

    #[test]
    fn trace_is_bit_identical_at_any_worker_count() {
        let h: PauliOp = "-0.70710678*Z - 0.70710678*X".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts =
            CafqaOptions { warmup: 15, iterations: 25, polish_sweeps: 2, ..Default::default() };
        let runs: Vec<CafqaKtResult> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let engine = ExecEngine::new(workers);
                run_cafqa_kt_on(&engine, &ansatz, &h, Vec::new(), 1, &[], &opts).unwrap()
            })
            .collect();
        let reference = &runs[0];
        for run in &runs[1..] {
            assert_eq!(run.best_config, reference.best_config);
            assert_eq!(run.energy.to_bits(), reference.energy.to_bits());
            assert_eq!(run.iterations_to_best, reference.iterations_to_best);
            assert_eq!(run.trace.len(), reference.trace.len());
            for (a, b) in run.trace.iter().zip(&reference.trace) {
                assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                assert_eq!(a.penalized.to_bits(), b.penalized.to_bits());
            }
        }
    }

    #[test]
    fn screening_counters_are_zero_at_the_defaults() {
        let h: PauliOp = "-0.70710678*Z - 0.70710678*X".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts = CafqaOptions { warmup: 10, iterations: 15, ..Default::default() };
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[], &opts).unwrap();
        assert_eq!(kt.screened_classes, 0);
        assert_eq!(kt.screened_moves, 0);
    }

    #[test]
    fn rank_top_prunes_polish_moves_and_counts_them() {
        let h: PauliOp = "0.5*ZZ + 0.25*XI - 0.3*IZ + 0.1*YY".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 0);
        let base =
            CafqaOptions { warmup: 15, iterations: 20, polish_sweeps: 2, ..Default::default() };
        let full = run_cafqa_kt(&ansatz, &h, Vec::new(), 2, &[], &base).unwrap();
        let ranked_opts = CafqaOptions { kt_rank_top: 2, ..base };
        let ranked = run_cafqa_kt(&ansatz, &h, Vec::new(), 2, &[], &ranked_opts).unwrap();
        // Coordinate batches have up to 7 variants; rank_top = 2 must
        // have pruned some, and every pruned move is one the trace never
        // paid for.
        assert!(ranked.screened_moves > 0, "no moves pruned");
        assert!(
            ranked.polish_evaluations < full.polish_evaluations,
            "ranked polish {} vs full {}",
            ranked.polish_evaluations,
            full.polish_evaluations
        );
        // The greedy fold still only ever improves on its BO incumbent,
        // and the BO phase itself (rank-agnostic) is unchanged.
        assert!(ranked.penalized <= full.trace[full.iterations_to_best - 1].penalized + 1e-9);
        assert_eq!(ranked.rejected_evaluations, 0);
        assert_eq!(ranked.screened_classes, 0, "ranking alone skips no classes");
    }

    #[test]
    fn screened_search_reports_skips_and_stays_deterministic() {
        // Mixed coefficient weights so a mid-sized tolerance screens the
        // light term's classes but not the heavy ones'.
        let h: PauliOp = "0.6*ZZ + 0.4*XX + 0.001*YY + 0.0005*XY".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 0);
        let opts = CafqaOptions {
            warmup: 15,
            iterations: 20,
            polish_sweeps: 1,
            screen_tolerance: 1e-3,
            ..Default::default()
        };
        let runs: Vec<CafqaKtResult> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let engine = ExecEngine::new(workers);
                run_cafqa_kt_on(&engine, &ansatz, &h, Vec::new(), 2, &[], &opts).unwrap()
            })
            .collect();
        assert!(runs[0].screened_classes > 0, "tolerance 1e-3 never fired");
        for run in &runs[1..] {
            assert_eq!(run.screened_classes, runs[0].screened_classes);
            assert_eq!(run.best_config, runs[0].best_config);
            assert_eq!(run.energy.to_bits(), runs[0].energy.to_bits());
            assert_eq!(run.trace.len(), runs[0].trace.len());
            for (a, b) in run.trace.iter().zip(&runs[0].trace) {
                assert_eq!(a.penalized.to_bits(), b.penalized.to_bits());
            }
        }
    }

    #[test]
    fn search_runs_beyond_the_dense_qubit_cap() {
        // 26 qubits: the dense branch backend cannot even represent a
        // candidate, but the tableau ensemble searches and polishes to
        // the exact single-qubit optimum.
        let n = 26;
        let ansatz = EfficientSu2::new(n, 0);
        let h = PauliOp::from_terms(
            n,
            [(
                cafqa_linalg::Complex64::ONE,
                cafqa_pauli::PauliString::single(n, 0, cafqa_pauli::Pauli::Z),
            )],
        );
        let opts =
            CafqaOptions { warmup: 8, iterations: 8, polish_sweeps: 1, ..Default::default() };
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[], &opts).unwrap();
        assert_eq!(kt.best_config.len(), ansatz.num_parameters());
        assert!(kt.t_count <= 1);
        // ⟨Z₀⟩ = cos(θ_ry) on the no-entangler ansatz: the coordinate
        // polish reaches the exact minimum.
        assert!((kt.energy + 1.0).abs() < 1e-9, "energy {}", kt.energy);
    }
}
