//! The CAFQA driver: discrete Bayesian search over the Clifford space of
//! a hardware-efficient ansatz (the paper's red box, Fig. 4).
//!
//! The runner owns the execution engine for the whole search: warm-up,
//! acquisition batches, and the polish sweeps all evaluate through one
//! persistent worker pool ([`ExecEngine`]), and the BO layer's surrogate
//! scoring shards over the same pool via the
//! [`cafqa_bayesopt::Executor`] seam. Results are bit-identical at any
//! worker count, including 1.

use std::sync::Arc;
use std::time::Instant;

use cafqa_bayesopt::{
    minimize_suspendable_with, BatchStatus, BoOptions, BoResult, ForestOptions, RandomForest,
    SearchSpace,
};
use cafqa_chem::MolecularProblem;
use cafqa_circuit::{Ansatz, Circuit, EfficientSu2};
use cafqa_pauli::PauliOp;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::ExecEngine;
use crate::ising::{try_ising_fast_path, IsingFastPath};
use crate::objective::{CliffordObjective, ObjectiveValue, Penalty, PolishSession};
use crate::polish::{incumbent_or_origin, search_trace, Greedy, Neighborhood, Phase, PolishMove};
use crate::problem::{AngleGrid, CafqaError, CafqaProblem};

/// Configuration for a CAFQA run.
///
/// # Polish determinism and screening
///
/// Two knobs govern the discrete polish endgame that follows the BO
/// phase, and this section is the single source of truth for their
/// interaction (the refit-cadence counterpart lives on
/// [`BoOptions`](cafqa_bayesopt::BoOptions#determinism-and-refit-cadence)):
///
/// - [`polish_sweeps`](Self::polish_sweeps): how many greedy
///   coordinate-descent sweeps to run (each tries the 3 alternative
///   angles of every parameter); any nonzero value also enables the
///   subsequent pair-polish sweeps (correlated two-angle moves).
/// - [`polish_screen_top`](Self::polish_screen_top): pair screening.
///   `0` (the default) sweeps the full pair list — exhaustive on ≤ 24
///   parameters, ansatz-local beyond — exactly as the classic polish
///   did. A positive value keeps only that many pairs, ranked by a
///   random-forest surrogate refit on the search history (each pair is
///   scored by the forest's predicted minimum over its 16 joint moves,
///   see [`RandomForest::predict_group_min_on`]); the screened list is
///   always a subset of the full list, swept in the same order.
///
/// The determinism contract, in decreasing strictness:
///
/// 1. Polish evaluations replay template ops incrementally from the
///    changed slot onward through the prefix-checkpoint cache shared
///    with the kT tier ([`PolishSession`], a
///    [`PrefixCache`](crate::PrefixCache)); the prepared state is the
///    same integer gate sequence as a full re-preparation, so every
///    energy — and therefore the whole trace — is **bit-identical to
///    the classic full-re-preparation polish, at any worker count**,
///    including 1. Every move phase (Clifford coordinate and pair, kT
///    coordinate and migration) runs through one acceptance fold that
///    replays the serial greedy chain in batch order — skipping moves
///    onto the running incumbent, accepting improvements beyond
///    `1e-12` — so tie-breaks keep the first minimiser exactly as a
///    serial `min_by` sweep would.
/// 2. `polish_screen_top = 0` therefore reproduces the frozen
///    pre-incremental polish trace bit for bit (asserted in
///    `crates/core/tests/polish_equivalence.rs` and in the
///    `polish_incremental` bench gate).
/// 3. A *binding* screen (`0 < polish_screen_top <` pair-list length)
///    sweeps fewer pairs — a different-but-still-deterministic trace
///    given [`seed`](Self::seed); the greedy fold only ever accepts
///    improvements, so the final energy can never exceed the BO
///    incumbent's.
///
/// An empty BO incumbent (every value NaN, or an empty budget) polishes
/// from the all-zero configuration, in both tiers.
///
/// # Chunking and worker tiers
///
/// How an evaluation parallelises is a pure function of the problem
/// size, never of the host — this section is the single source of truth
/// for the three thresholds involved:
///
/// - **Term chunking** (`crates/core/src/objective.rs`): Hamiltonians
///   with fewer than `CHUNKED_TERM_THRESHOLD = 4096` terms sum serially
///   in term order. At or above it, the term list splits into a *fixed*
///   number of contiguous chunks — 8 for the standard tier, widening to
///   `TERM_CHUNKS_WIDE = 32` at `WIDE_TERM_THRESHOLD = 65_536` terms
///   (the Cr2-surrogate scale, 76k–149k terms) so a single candidate
///   can occupy more of the pool. Chunk partial sums always fold in
///   chunk order, so the chunk count — not the worker count — fixes the
///   floating-point association: energies are bit-identical at any
///   worker count *within* a tier, and the tier is decided by the term
///   count alone.
/// - **Worker count** (`crates/core/src/engine.rs`): the process-global
///   [`ExecEngine`] sizes itself to the available cores (capped at 16),
///   overridable with the `CAFQA_WORKERS` environment variable. Because
///   of the fixed chunk associations above, `CAFQA_WORKERS` is a pure
///   throughput knob — it never changes any reported energy.
/// - **Within-candidate vs across-candidate sharding**: batches of
///   candidates shard across the pool one candidate per task; a single
///   big-Hamiltonian candidate additionally term-shards its chunk list
///   from inside the pool. Both reassemble results in submission order
///   before any fold, preserving the serial trace exactly.
///
/// # Screening and tolerance
///
/// Two knobs govern the Clifford+T (kT) tier's quadratic-Clifford
/// screening, and this section is the single source of truth for them.
/// Both only affect [`run_cafqa_kt`](crate::run_cafqa_kt) searches with
/// `k_max > 0`; the Clifford-only search never reads them.
///
/// - [`screen_tolerance`](Self::screen_tolerance): per-term class
///   screening of the `O(4^t)` branch-pair sum. Every XOR class `c` of
///   a term with coefficient `w` carries a cached magnitude bound
///   `Π_{j∈c} |sin θ_j|` (`2^{-ν(c)/2}` for T angles, with `ν` the
///   overlap rank — the quadratic Clifford expansion's stabilizer
///   cross-term decay, arXiv 2011.09927); classes with
///   `|w| · bound(c) ≤ screen_tolerance` are skipped. The discarded
///   contribution per evaluation is rigorously below the sum of the
///   skipped `|w| · bound(c)` masses, and the skipped-class total is
///   reported as [`CafqaKtResult::screened_classes`](crate::CafqaKtResult::screened_classes).
///   `0.0` (the default) runs the frozen exact path **bit for bit** —
///   not just within tolerance (asserted in
///   `crates/bench/tests/kt_screening.rs` and the `kt_screened_vs_exact`
///   bench gate).
/// - [`kt_rank_top`](Self::kt_rank_top): move *ranking* in the kT
///   polish. A positive value scores each candidate batch with a coarse
///   bound-truncated evaluation (classes of overlap rank `ν ≤ 1` only,
///   `O((1+t)·2^t)` per term instead of `O(4^t)`) and evaluates only the
///   `kt_rank_top` best-looking moves exactly, mirroring
///   [`polish_screen_top`](Self::polish_screen_top)'s surrogate screen;
///   pruned moves are counted in
///   [`CafqaKtResult::screened_moves`](crate::CafqaKtResult::screened_moves)
///   and never enter the trace. `0` (the default) evaluates every move,
///   bit-for-bit the legacy sweep.
///
/// The determinism contract carries over unchanged: for any fixed
/// `(screen_tolerance, kt_rank_top)` the trace — and both counters —
/// are identical at any worker count; a binding screen or rank is a
/// different-but-still-deterministic search whose greedy polish still
/// only ever improves on its BO incumbent.
///
/// # Problem-structure routing
///
/// [`ising_fast_path`](Self::ising_fast_path) governs the structured
/// fast path in front of the full search (module
/// [`ising`](crate::ising), after arXiv 2312.01036): when the
/// Hamiltonian classifies as Ising-class — every term weight ≤ 2 and
/// every qubit column single-axis, i.e. diagonal after a per-qubit
/// single-Clifford basis rotation — the optimal Clifford point lies in
/// the `2^n` product-eigenstate subspace, and [`run_cafqa_on`] solves
/// the reduced binary quadratic objective instead of searching `4^d`.
///
/// - [`IsingFastPath::Auto`] (the default) routes exactly the instances
///   that can take the fast path end to end: classified structure, no
///   penalties, and an ansatz with an
///   [`eigenstate_config`](cafqa_circuit::Ansatz::eigenstate_config)
///   lift. **Everything else runs the full pipeline bit-for-bit
///   unchanged** — the classifier reads the term set and routes before
///   any search state exists (asserted in
///   `crates/core/tests/ising_routing.rs`).
/// - [`IsingFastPath::Off`] disables routing entirely; use it to
///   measure the unrouted baseline or pin a legacy BO trace on an
///   Ising-class instance.
/// - [`IsingFastPath::Force`] rejects instead of falling back — for
///   services that know their workload is Ising-class and want
///   misclassification loud rather than 100× slower. The fallible entry
///   points ([`run_cafqa_resumable_on`], and
///   [`run_cafqa_kt_on`](crate::run_cafqa_kt_on) at `k_max = 0`) return
///   [`CafqaError::NotIsingClass`]; [`run_cafqa`] and [`run_cafqa_on`]
///   panic with that error's message.
///
/// On routed instances the result is an ordinary [`CafqaResult`]: the
/// reduced-space winner and every provided seed are evaluated through
/// the ordinary tableau objective (one engine batch, first minimiser
/// wins), so the reported energy is the simulator's, the
/// never-worse-than-seed guarantee holds, and the fast-path energy is
/// ≤ the full search's on every instance the solver handles exactly
/// (≤ [`ising::EXACT_SOLVE_CAP`](crate::ising::EXACT_SOLVE_CAP)
/// qubits; larger instances run a deterministic seeded multi-start
/// descent, asserted ≤ the BO route in the `ising_fast_path_vs_bo`
/// bench).
#[derive(Debug, Clone)]
pub struct CafqaOptions {
    /// Random warm-up evaluations (the paper uses 1000 for H2O).
    pub warmup: usize,
    /// Surrogate-guided iterations after warm-up.
    pub iterations: usize,
    /// Electron-count penalty weight (0 disables).
    pub number_penalty: f64,
    /// Sz penalty weight (0 disables).
    pub sz_penalty: f64,
    /// S² penalty weight toward the sector's `s(s+1)` (0 disables).
    pub s2_penalty: f64,
    /// Seed the Hartree-Fock configuration (guarantees CAFQA ≥ HF).
    pub seed_hf: bool,
    /// RNG seed.
    pub seed: u64,
    /// Early-stopping patience in iterations (0 disables).
    pub patience: usize,
    /// Coordinate-descent polish sweeps after the BO phase (0 disables).
    /// Each sweep tries every alternative angle for every parameter and
    /// keeps improvements; this is the greedy endgame of the discrete
    /// search and costs `3 · #params` evaluations per sweep.
    pub polish_sweeps: usize,
    /// Candidates proposed (and evaluated as one batch) per surrogate
    /// refit in the BO phase — forwarded to
    /// [`BoOptions::proposals_per_refit`]. `1` reproduces the classic
    /// one-candidate-per-refit loop exactly.
    pub proposals_per_refit: usize,
    /// Surrogate refit window, forwarded to
    /// [`cafqa_bayesopt::ForestOptions::window`]: each refit trains on
    /// only this many recent evaluations (plus the incumbent), so refit
    /// cost stops growing with the search length — the Cr2-scale knob.
    /// `0` (the default) keeps the classic full-history refits,
    /// bit-for-bit. See the determinism notes on
    /// [`BoOptions`](cafqa_bayesopt::BoOptions#determinism-and-refit-cadence).
    pub forest_window: usize,
    /// Pair-polish screening: sweep only the `polish_screen_top` most
    /// promising pairs (forest-ranked on the search history) instead of
    /// the full pair list. `0` (the default) keeps the exhaustive legacy
    /// sweep, bit-for-bit. See the [polish determinism and
    /// screening](Self#polish-determinism-and-screening) notes.
    pub polish_screen_top: usize,
    /// Quadratic-Clifford class screening of the kT tier's branch-pair
    /// sums: skip XOR classes whose coefficient-weighted bound cannot
    /// move the objective past this tolerance. `0.0` (the default) keeps
    /// the exact legacy `pair_sum` path, bit-for-bit. See the [screening
    /// and tolerance](Self#screening-and-tolerance) notes.
    pub screen_tolerance: f64,
    /// kT polish move ranking: evaluate only this many bound-ranked
    /// moves per candidate batch exactly. `0` (the default) evaluates
    /// every move, bit-for-bit. See the [screening and
    /// tolerance](Self#screening-and-tolerance) notes.
    pub kt_rank_top: usize,
    /// Structured fast-path routing for Ising-class Hamiltonians:
    /// [`Auto`](IsingFastPath::Auto) (the default) routes classified
    /// instances through the reduced-space solver and everything else
    /// through the full search bit-for-bit unchanged;
    /// [`Off`](IsingFastPath::Off) never routes;
    /// [`Force`](IsingFastPath::Force) rejects unroutable instances.
    /// See the [problem-structure
    /// routing](Self#problem-structure-routing) notes.
    pub ising_fast_path: IsingFastPath,
}

impl Default for CafqaOptions {
    fn default() -> Self {
        CafqaOptions {
            warmup: 200,
            iterations: 400,
            number_penalty: 1.0,
            sz_penalty: 0.0,
            s2_penalty: 0.0,
            seed_hf: true,
            seed: 0xCAF9A,
            patience: 0,
            polish_sweeps: 6,
            proposals_per_refit: BoOptions::default().proposals_per_refit,
            forest_window: 0,
            polish_screen_top: 0,
            screen_tolerance: 0.0,
            kt_rank_top: 0,
            ising_fast_path: IsingFastPath::default(),
        }
    }
}

impl CafqaOptions {
    /// A small-budget preset for quick runs and tests.
    pub fn quick() -> Self {
        CafqaOptions { warmup: 60, iterations: 120, ..Default::default() }
    }

    /// The BO-phase options both search tiers run with.
    pub(crate) fn bo_options(&self) -> BoOptions {
        BoOptions {
            warmup: self.warmup,
            iterations: self.iterations,
            seed: self.seed,
            patience: self.patience,
            proposals_per_refit: self.proposals_per_refit,
            forest: ForestOptions { window: self.forest_window, ..Default::default() },
            ..Default::default()
        }
    }
}

/// The outcome of a CAFQA search.
#[derive(Debug, Clone)]
pub struct CafqaResult {
    /// Best discrete configuration (indices into the four Clifford angles).
    pub best_config: Vec<usize>,
    /// Raw Hamiltonian expectation of the best configuration — the CAFQA
    /// initialization energy reported in all paper figures.
    pub energy: f64,
    /// Penalized objective value of the best configuration.
    pub penalized: f64,
    /// Full search trace: `(raw energy, penalized, best penalized so far)`.
    pub trace: Vec<SearchPoint>,
    /// 1-based evaluation index that first reached the final best
    /// (Fig. 15's metric).
    pub iterations_to_best: usize,
    /// Total evaluations performed.
    pub evaluations: usize,
    /// Evaluations spent in the polish endgame (the tail of `trace`).
    pub polish_evaluations: usize,
    /// Wall-clock seconds spent in the warm-up + BO phase — phase-level
    /// profiling metadata (Fig. 12 reports it); carries no physics and
    /// is excluded from every bit-identity contract.
    pub bo_seconds: f64,
    /// Wall-clock seconds spent in the polish endgame — phase-level
    /// profiling metadata (Fig. 12 reports it); carries no physics and
    /// is excluded from every bit-identity contract.
    pub polish_seconds: f64,
    /// Polish seeks that had to rewind (target before the standing
    /// prefix) and how many of those restored a layer checkpoint instead
    /// of rebuilding from `|0…0⟩`, as `(backward_seeks,
    /// stack_restores)`. Profiling metadata like the phase timers: the
    /// restored state replays the same integer gate sequence either way,
    /// so these counters are excluded from every bit-identity contract.
    pub polish_seek_stats: (u64, u64),
}

/// One evaluation in the search trace.
#[derive(Debug, Clone, Copy)]
pub struct SearchPoint {
    /// Raw `⟨H⟩`.
    pub energy: f64,
    /// Penalized objective.
    pub penalized: f64,
    /// Best penalized value so far.
    pub best_so_far: f64,
}

impl CafqaResult {
    /// The initial continuous angles for post-CAFQA VQE tuning
    /// (paper §3 step 9: the Clifford parameters become the start point).
    pub fn initial_angles(&self) -> Vec<f64> {
        self.best_config.iter().map(|&k| k as f64 * std::f64::consts::FRAC_PI_2).collect()
    }

    /// The best-so-far raw energy after each evaluation (for Fig. 7-style
    /// convergence plots).
    pub fn best_energy_trace(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        let mut best_energy = f64::INFINITY;
        self.trace
            .iter()
            .map(|p| {
                if p.penalized < best {
                    best = p.penalized;
                    best_energy = p.energy;
                }
                best_energy
            })
            .collect()
    }
}

/// A serialized mid-search state of the BO phase: every *completed*
/// evaluation, in fold order, as `(configuration, raw energy, penalized)`.
///
/// This is all the state a resume needs. The BO loop's internal state —
/// RNG cursor, candidate pools, surrogate refits, incumbent — is a pure
/// function of (seed, the objective values returned so far), so
/// [`run_cafqa_resumable_on`] *replays* the recorded values through the
/// loop instead of serializing the loop: the expensive tableau
/// evaluations are skipped, the cheap acquisition bookkeeping is
/// recomputed, and the post-resume continuation is bit-identical to the
/// uninterrupted run (asserted in `crates/core/tests/resume_equivalence.rs`).
///
/// Checkpoints are whole-batch: a suspension discards the in-flight
/// batch unevaluated (warm-up plus seeds is one batch, then one batch
/// per surrogate refit), so `history` is always a batch-aligned prefix
/// of the uninterrupted evaluation sequence.
#[derive(Debug, Clone, Default)]
pub struct SearchCheckpoint {
    /// The [`job_fingerprint`](crate::fingerprint::job_fingerprint) of
    /// the job this checkpoint belongs to; resuming under a different
    /// fingerprint is a [`CafqaError::FingerprintMismatch`]. `0` skips
    /// the check (for callers managing identity themselves).
    pub fingerprint: u64,
    /// Completed evaluations `(config, energy, penalized)` in fold order.
    pub history: Vec<(Vec<usize>, f64, f64)>,
}

/// Progress snapshot handed to the control callback of
/// [`run_cafqa_resumable_on`] before each live (non-replayed) batch.
#[derive(Debug, Clone, Copy)]
pub struct RunProgress {
    /// Completed BO evaluations so far, replayed and live.
    pub evaluations: usize,
    /// Live batches completed in *this* call (replayed batches and the
    /// batch the callback is being consulted about are not counted).
    pub live_batches: usize,
}

/// Decision of a [`run_cafqa_resumable_on`] control callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Evaluate the next batch.
    Continue,
    /// Stop *before* evaluating the next batch and return a
    /// [`SearchCheckpoint`] capturing every completed evaluation.
    Suspend,
}

/// How a resumable run ended.
#[derive(Debug, Clone)]
pub enum RunStatus {
    /// The search (BO phase and polish endgame) ran to completion.
    Complete(CafqaResult),
    /// The control callback suspended the BO phase; pass the checkpoint
    /// back as `resume` to continue bit-identically.
    Suspended(SearchCheckpoint),
}

/// Runs the CAFQA discrete search for an arbitrary Hamiltonian/ansatz
/// pair with optional penalties and seed configurations, on the
/// process-global execution engine.
///
/// # Panics
///
/// Panics with the [`CafqaError`]'s message when the inputs fail
/// [`CafqaProblem::new`] on the Clifford grid; [`run_cafqa_resumable_on`]
/// returns the same error instead.
pub fn run_cafqa(
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> CafqaResult {
    run_cafqa_on(ExecEngine::global(), ansatz, hamiltonian, penalties, seeds, opts)
}

/// [`run_cafqa`] on an explicit [`ExecEngine`]: every parallel step of
/// the search — warm-up, acquisition batches, surrogate scoring, polish
/// sweeps — dispatches through this one engine, and the result is
/// bit-identical at any worker count (including a serial engine).
///
/// # Panics
///
/// As for [`run_cafqa`].
pub fn run_cafqa_on(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> CafqaResult {
    run_to_completion(engine, ansatz, hamiltonian, penalties, seeds, opts)
        .unwrap_or_else(|err| panic!("{err}"))
}

/// [`run_cafqa_resumable_on`] with no checkpoint and no suspension: the
/// fallible form of [`run_cafqa_on`].
pub(crate) fn run_to_completion(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> Result<CafqaResult, CafqaError> {
    let mut control = |_| RunControl::Continue;
    match run_cafqa_resumable_on(
        engine,
        ansatz,
        hamiltonian,
        penalties,
        seeds,
        opts,
        None,
        &mut control,
    )? {
        RunStatus::Complete(result) => Ok(result),
        RunStatus::Suspended(_) => unreachable!("an always-Continue control cannot suspend"),
    }
}

/// [`run_cafqa_on`] with cooperative suspension and checkpoint/resume —
/// the serving layer's entry point (`cafqa-serve` slices jobs through
/// it).
///
/// `control` is consulted **before every live BO batch** (a batch is the
/// whole warm-up-plus-seeds set, then one per surrogate refit);
/// returning [`RunControl::Suspend`] discards the proposed batch
/// unevaluated and returns [`RunStatus::Suspended`] with a
/// [`SearchCheckpoint`] of every completed evaluation. Passing that
/// checkpoint back as `resume` replays the recorded objective values
/// through the BO loop — skipping the expensive tableau evaluations but
/// reproducing RNG cursor, surrogate refits and incumbent exactly — so
/// the continuation, and therefore the final [`CafqaResult`] trace, is
/// **bit-identical to the uninterrupted run at any worker count**
/// (`crates/core/tests/resume_equivalence.rs`). Suspension granularity
/// notes:
///
/// - The polish endgame is not suspendable: once the BO phase
///   completes, polish runs to completion in the same call (it is a
///   bounded tail — `O(sweeps · params)` evaluations — where the BO
///   phase is the unbounded bulk).
/// - Instances routed through the Ising fast path complete in one
///   reduced-space solve plus one evaluation batch; `control` is never
///   consulted and no checkpoint can exist for them.
/// - The wall-clock fields of the result (`bo_seconds`,
///   `polish_seconds`) are whatever the completing call measured — they
///   are profiling metadata, excluded from every bit-identity contract.
///
/// `resume.fingerprint` (when nonzero) must match the job's
/// [`job_fingerprint`](crate::fingerprint::job_fingerprint); replayed
/// proposals are additionally checked against the recorded
/// configurations, so a checkpoint from a different job or seed stream
/// fails with a structured error instead of silently corrupting the
/// search.
///
/// # Errors
///
/// First the inputs are validated on the Clifford grid: any
/// [`CafqaProblem::new`] failure ([`CafqaError::QubitMismatch`],
/// [`CafqaError::BadSeed`], or [`CafqaError::NotIsingClass`] under
/// [`IsingFastPath::Force`]) is returned before any search state exists.
/// Then the checkpoint: [`CafqaError::FingerprintMismatch`] when its
/// fingerprint differs from the job's, [`CafqaError::HistoryDiverged`]
/// when replay leaves its recorded history.
#[allow(clippy::too_many_arguments)]
pub fn run_cafqa_resumable_on(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
    resume: Option<&SearchCheckpoint>,
    control: &mut dyn FnMut(RunProgress) -> RunControl,
) -> Result<RunStatus, CafqaError> {
    let problem =
        CafqaProblem::new(ansatz, hamiltonian, penalties, seeds, AngleGrid::Clifford, opts)?;
    if let Some(checkpoint) = resume {
        if checkpoint.fingerprint != 0 {
            let expected = crate::fingerprint::job_fingerprint(
                ansatz,
                hamiltonian,
                &problem.penalties,
                seeds,
                opts,
            );
            if checkpoint.fingerprint != expected {
                return Err(CafqaError::FingerprintMismatch {
                    expected,
                    found: checkpoint.fingerprint,
                });
            }
        }
    }
    // Problem-structure routing: Ising-class instances collapse to the
    // reduced-space solve (see the routing notes on `CafqaOptions`);
    // everything else continues below, bit-for-bit as if the hook did
    // not exist.
    if let Some(result) = try_ising_fast_path(engine, &problem) {
        return Ok(RunStatus::Complete(result));
    }
    let mut objective = CliffordObjective::new(ansatz, hamiltonian).with_engine(engine.clone());
    for p in problem.penalties {
        objective = objective.with_penalty(p);
    }
    let space = SearchSpace::uniform(objective.num_parameters(), 4);
    // The BO layer minimizes the penalized value; raw energies are
    // recovered per configuration afterwards from the recorded configs.
    let mut raw_trace: Vec<(f64, f64)> = Vec::new();
    let bo_clock = Instant::now();
    let replay: &[(Vec<usize>, f64, f64)] = resume.map_or(&[], |c| &c.history);
    // Shared closure state: the replay cursor, the completed-evaluation
    // log (the next checkpoint), live-batch count, and the first replay
    // divergence observed (surfaced as a structured error after the loop
    // unwinds via Suspend — the closure itself cannot return errors).
    let mut cursor = 0usize;
    let mut completed: Vec<(Vec<usize>, f64, f64)> = Vec::with_capacity(replay.len());
    let mut live_batches = 0usize;
    let mut diverged: Option<usize> = None;
    let (result, finished): (BoResult, bool) = minimize_suspendable_with(
        &space,
        |batch: &[Vec<usize>]| {
            // Serve the replay prefix of this batch from the checkpoint.
            // Checkpoints are whole-batch (a suspension discards the
            // in-flight batch), so for a checkpoint of this job the
            // cursor lands exactly on batch boundaries — the straddle
            // handling below is defensive, not load-bearing.
            let served = batch.len().min(replay.len() - cursor);
            for (offset, config) in batch[..served].iter().enumerate() {
                if replay[cursor + offset].0 != *config {
                    diverged = Some(cursor + offset);
                    return BatchStatus::Suspend;
                }
            }
            let live = &batch[served..];
            if !live.is_empty() {
                // Live work ahead: this is the suspension point.
                let progress = RunProgress { evaluations: completed.len(), live_batches };
                if control(progress) == RunControl::Suspend {
                    return BatchStatus::Suspend;
                }
            }
            let mut values = Vec::with_capacity(batch.len());
            for (config, energy, penalized) in &replay[cursor..cursor + served] {
                completed.push((config.clone(), *energy, *penalized));
                raw_trace.push((*energy, *penalized));
                values.push(*penalized);
            }
            cursor += served;
            if !live.is_empty() {
                // One engine-sharded evaluation for the whole live part
                // (the entire warm-up phase arrives as a single batch);
                // the trace is folded in batch order, identical to
                // per-candidate calls.
                for (config, v) in live.iter().zip(objective.evaluate_batch(live)) {
                    completed.push((config.clone(), v.energy, v.penalized));
                    raw_trace.push((v.energy, v.penalized));
                    values.push(v.penalized);
                }
                live_batches += 1;
            }
            BatchStatus::Values(values)
        },
        seeds,
        &opts.bo_options(),
        engine,
    );
    if let Some(index) = diverged {
        return Err(CafqaError::HistoryDiverged { index });
    }
    if !finished {
        let fingerprint = resume.map_or(0, |c| c.fingerprint);
        return Ok(RunStatus::Suspended(SearchCheckpoint { fingerprint, history: completed }));
    }
    // Polish endgame: incremental coordinate and pair sweeps (see
    // `polish_on`), with the screened variant fed the BO history.
    let history: Vec<(Vec<usize>, f64)> = if opts.polish_screen_top > 0 && opts.polish_sweeps > 0 {
        result.history.iter().map(|e| (e.config.clone(), e.value)).collect()
    } else {
        Vec::new()
    };
    let bo_seconds = bo_clock.elapsed().as_secs_f64();
    let polish_clock = Instant::now();
    let start = incumbent_or_origin(result.best_config, objective.num_parameters());
    let outcome = polish_on(engine, &objective, &start, opts, &history);
    let polish_seconds = polish_clock.elapsed().as_secs_f64();
    let (trace, iterations_to_best) =
        search_trace(raw_trace, &outcome.trace, outcome.last_accept, result.iterations_to_best);
    Ok(RunStatus::Complete(CafqaResult {
        best_config: outcome.best_config,
        energy: outcome.best_value.energy,
        penalized: outcome.best_value.penalized,
        evaluations: trace.len(),
        iterations_to_best,
        trace,
        polish_evaluations: outcome.trace.len(),
        bo_seconds,
        polish_seconds,
        polish_seek_stats: outcome.seek_stats,
    }))
}

/// The pair list of the pair-polish phase, one definition shared by the
/// production sweep, the frozen reference and the screening tests: small
/// registers (`d <= 24`) try every pair; wide ones only pairs that are
/// local in the ansatz layout (same qubit, adjacent qubit, or same qubit
/// across layers — including the α/β spin-pair distance `nq/2` of the
/// blocked spin-orbital ordering, where pairing correlations live),
/// keeping the sweep linear in the parameter count.
pub fn polish_pair_list(d: usize, nq: usize) -> Vec<(usize, usize)> {
    if d <= 24 {
        return (0..d).flat_map(|i| ((i + 1)..d).map(move |j| (i, j))).collect();
    }
    let offsets = [1, 2, nq / 2, nq / 2 + 1, nq.saturating_sub(1), nq, nq + 1, 2 * nq];
    let mut out = Vec::new();
    for i in 0..d {
        for &off in &offsets {
            if off > 0 && i + off < d {
                out.push((i, i + off));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The outcome of a standalone polish run ([`polish_on`]).
#[derive(Debug, Clone)]
pub struct PolishOutcome {
    /// The polished configuration.
    pub best_config: Vec<usize>,
    /// Its objective value.
    pub best_value: ObjectiveValue,
    /// `(raw energy, penalized)` per polish evaluation, in fold order —
    /// the exact tail [`run_cafqa_on`] appends to the search trace.
    pub trace: Vec<(f64, f64)>,
    /// 1-based index into `trace` of the final accepted improvement
    /// (`None` when polish never improved on the start configuration).
    pub last_accept: Option<usize>,
    /// The pair list actually swept — the full [`polish_pair_list`] at
    /// `polish_screen_top = 0`, the forest-screened subset otherwise
    /// (empty when `polish_sweeps` is 0).
    pub pairs: Vec<(usize, usize)>,
    /// `(backward_seeks, stack_restores)` from the incremental session's
    /// layered checkpoint stack ([`PolishSession::seek_stats`]) —
    /// `(0, 0)` on the full-re-preparation fallback. Profiling metadata,
    /// excluded from every bit-identity contract.
    pub seek_stats: (u64, u64),
}

/// The polish endgame as a standalone phase: greedy coordinate-descent
/// sweeps followed by (optionally surrogate-screened) pair sweeps,
/// starting from `start`. This is what [`run_cafqa_on`] runs after the
/// BO phase; it is public so benchmarks and experiment drivers can time
/// and A/B the endgame in isolation.
///
/// The sweeps run on the greedy polish shared with the kT tier.
/// Compiled objectives evaluate every neighbor incrementally
/// ([`PolishSession`]: prefix checkpoint + suffix replay from the
/// changed slot); non-compiled ansätze fall back to full re-preparation
/// through [`CliffordObjective::evaluate_batch`]. Both produce
/// bit-identical traces — see the [polish determinism and
/// screening](CafqaOptions#polish-determinism-and-screening) notes.
///
/// `history` is the `(configuration, penalized value)` search history
/// the screening forest trains on; it is only read when
/// [`CafqaOptions::polish_screen_top`] is binding, and an empty history
/// disables screening (the full pair list is swept).
///
/// Engine use mirrors the rest of the stack: move batches shard over
/// the objective's attached engine, big-Hamiltonian neighbors
/// term-shard from inside the pool, and the screening forest scores
/// pair groups over `engine` — callers normally attach the same engine
/// to the objective ([`run_cafqa_on`] does).
pub fn polish_on(
    engine: &ExecEngine,
    objective: &CliffordObjective<'_>,
    start: &[usize],
    opts: &CafqaOptions,
    history: &[(Vec<usize>, f64)],
) -> PolishOutcome {
    let mut greedy = Greedy::new(start.to_vec(), objective.evaluate(start));
    // The incremental session (compiled ansätze) or the full
    // re-preparation fallback — semantically identical either way.
    let mut session = objective.polish_session(start.to_vec());
    let mut full = objective;
    let nb: &mut dyn Neighborhood = match &mut session {
        Some(session) => session,
        None => &mut full,
    };
    greedy.sweep(nb, opts.polish_sweeps, &[Phase::CliffordCoordinate], 0);
    // Pair polish: correlated two-angle moves escape the
    // single-coordinate local minima that trap e.g. LiH at stretched
    // geometries (and the HF seed on wide registers).
    let mut pairs = Vec::new();
    if opts.polish_sweeps > 0 {
        let d = start.len();
        let full_pairs = polish_pair_list(d, objective.num_qubits());
        pairs = screened_pairs(engine, full_pairs, &greedy.best_config, opts, history);
        let sweeps = if d <= 24 { 3 } else { 2 };
        greedy.sweep(nb, sweeps, &[Phase::CliffordPair(&pairs)], 0);
    }
    let seek_stats = session.as_ref().map_or((0, 0), PolishSession::seek_stats);
    let Greedy { best_config, best_value, trace, last_accept, .. } = greedy;
    PolishOutcome { best_config, best_value, trace, last_accept, pairs, seek_stats }
}

/// Full re-preparation through [`CliffordObjective::evaluate_batch`]: the
/// polish evaluator of ansätze that did not compile.
impl Neighborhood for &CliffordObjective<'_> {
    fn evaluate(&mut self, base: &[usize], moves: &[PolishMove]) -> Vec<ObjectiveValue> {
        let mut candidates = vec![base.to_vec(); moves.len()];
        for (candidate, mv) in candidates.iter_mut().zip(moves) {
            mv.iter().for_each(|&(slot, value)| candidate[slot] = value);
        }
        self.evaluate_batch(&candidates)
    }

    fn rank(&mut self, base: &[usize], moves: &[PolishMove]) -> Vec<f64> {
        self.evaluate(base, moves).iter().map(|v| v.penalized).collect()
    }
}

/// Applies [`CafqaOptions::polish_screen_top`] to the full pair list:
/// fits a forest on the search history (deterministically seeded from
/// [`CafqaOptions::seed`]), scores each pair by the predicted minimum
/// over its 16 joint moves around `base`, and keeps the `top` best —
/// **in original pair-list order**, so the screened sweep is a plain
/// subset of the exhaustive one. Non-binding configurations (`top` of 0,
/// `top >=` the list length, or an empty history) return the full list
/// untouched.
fn screened_pairs(
    engine: &ExecEngine,
    full: Vec<(usize, usize)>,
    base: &[usize],
    opts: &CafqaOptions,
    history: &[(Vec<usize>, f64)],
) -> Vec<(usize, usize)> {
    let top = opts.polish_screen_top;
    if top == 0 || top >= full.len() || history.is_empty() {
        return full;
    }
    let xs: Vec<Vec<usize>> = history.iter().map(|(config, _)| config.clone()).collect();
    let ys: Vec<f64> = history.iter().map(|&(_, value)| value).collect();
    let cardinalities = vec![4usize; base.len()];
    // A seed distinct from the BO stream: screening is a separate,
    // deterministic phase.
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5C_4EE4);
    let forest_opts = ForestOptions { window: opts.forest_window, ..Default::default() };
    let forest = Arc::new(RandomForest::fit(&xs, &ys, &cardinalities, &forest_opts, &mut rng));
    let groups: Vec<Vec<Vec<usize>>> = full
        .iter()
        .map(|&(i, j)| {
            (0..16)
                .map(|code| {
                    let mut config = base.to_vec();
                    config[i] = code / 4;
                    config[j] = code % 4;
                    config
                })
                .collect()
        })
        .collect();
    let scores = forest.predict_group_min_on(&groups, engine);
    let mut ranked: Vec<usize> = (0..full.len()).collect();
    // Stable sort: equal scores keep pair-list order, so the selection is
    // deterministic and host-independent.
    ranked.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut keep: Vec<usize> = ranked.into_iter().take(top).collect();
    keep.sort_unstable();
    keep.into_iter().map(|k| full[k]).collect()
}

/// A molecular CAFQA run bundled with its ansatz (the common case).
pub struct MolecularCafqa {
    /// The hardware-efficient ansatz (paper §6: SU2, one linear
    /// entangling layer).
    pub ansatz: EfficientSu2,
    problem: MolecularProblem,
}

impl MolecularCafqa {
    /// Sets up the paper's configuration for a molecular problem:
    /// `EfficientSU2(reps = 1)` on the tapered register.
    pub fn new(problem: MolecularProblem) -> Self {
        let ansatz = EfficientSu2::new(problem.n_qubits, 1);
        MolecularCafqa { ansatz, problem }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &MolecularProblem {
        &self.problem
    }

    /// The HF seed configuration for this problem.
    pub fn hf_config(&self) -> Vec<usize> {
        self.ansatz.basis_state_config(self.problem.hf_bits)
    }

    /// Runs the search with electron-count (and optional Sz) penalties
    /// targeting the problem's sector, on the process-global engine.
    pub fn run(&self, opts: &CafqaOptions) -> CafqaResult {
        self.run_on(ExecEngine::global(), opts)
    }

    /// [`Self::run`] on an explicit engine — the entry point for
    /// experiment drivers that own one engine for a whole sweep (e.g.
    /// the Cr2-surrogate figure), so warm-up, acquisition, polish *and*
    /// the intra-candidate term sharding of its 34-qubit evaluations all
    /// share a single pool.
    pub fn run_on(&self, engine: &ExecEngine, opts: &CafqaOptions) -> CafqaResult {
        let mut penalties = Vec::new();
        if opts.number_penalty > 0.0 {
            penalties.push(Penalty::new(
                "electron count",
                &self.problem.number_op,
                self.problem.n_electrons() as f64,
                opts.number_penalty,
            ));
        }
        if opts.sz_penalty > 0.0 {
            let target = 0.5 * (self.problem.n_alpha as f64 - self.problem.n_beta as f64);
            penalties.push(Penalty::new("sz", &self.problem.sz_op, target, opts.sz_penalty));
        }
        if opts.s2_penalty > 0.0 {
            let s = 0.5 * (self.problem.n_alpha as f64 - self.problem.n_beta as f64);
            penalties.push(Penalty::new(
                "s-squared",
                &self.problem.s_squared_op,
                s * (s + 1.0),
                opts.s2_penalty,
            ));
        }
        let seeds: Vec<Vec<usize>> = if opts.seed_hf { vec![self.hf_config()] } else { Vec::new() };
        run_cafqa_on(engine, &self.ansatz, &self.problem.hamiltonian, penalties, &seeds, opts)
    }

    /// Binds the best configuration into a Clifford circuit.
    pub fn circuit(&self, result: &CafqaResult) -> Circuit {
        self.ansatz.bind_clifford(&result.best_config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_chem::{ChemPipeline, MoleculeKind, ScfKind};

    #[test]
    fn pair_list_is_exhaustive_small_and_local_wide() {
        // d ≤ 24: all C(d, 2) ordered pairs.
        let small = polish_pair_list(6, 3);
        assert_eq!(small.len(), 15);
        assert!(small.iter().all(|&(i, j)| i < j && j < 6));
        // d > 24: sorted, deduplicated, local offsets only.
        let wide = polish_pair_list(48, 12);
        assert!(wide.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(wide.iter().all(|&(i, j)| i < j && j < 48));
        let offsets = [1usize, 2, 6, 7, 11, 12, 13, 24];
        assert!(wide.iter().all(|&(i, j)| offsets.contains(&(j - i))));
        assert!(wide.len() < 48 * 8 + 1, "linear in d, not quadratic");
    }

    #[test]
    fn hf_seed_guarantees_cafqa_never_worse_than_hf() {
        let pipe = ChemPipeline::build(MoleculeKind::H2, 2.2, &ScfKind::Rhf).unwrap();
        let (na, nb) = pipe.default_sector();
        let problem = pipe.problem(na, nb, true).unwrap();
        let runner = MolecularCafqa::new(problem);
        let result = runner.run(&CafqaOptions::quick());
        let hf = runner.problem().hf_energy;
        assert!(result.energy <= hf + 1e-9, "CAFQA {} must not exceed HF {hf}", result.energy);
    }

    #[test]
    fn h2_stretched_recovers_most_correlation_energy() {
        // Paper Fig. 8: at stretched geometries CAFQA recovers nearly all
        // correlation energy that HF misses.
        let pipe = ChemPipeline::build(MoleculeKind::H2, 2.5, &ScfKind::Rhf).unwrap();
        let problem = pipe.problem(1, 1, true).unwrap();
        let exact = problem.exact_energy.unwrap();
        let hf = problem.hf_energy;
        let runner = MolecularCafqa::new(problem);
        let result =
            runner.run(&CafqaOptions { warmup: 120, iterations: 260, ..Default::default() });
        let recovered = (hf - result.energy) / (hf - exact);
        assert!(
            recovered > 0.9,
            "recovered only {:.1}% (CAFQA {} HF {hf} exact {exact})",
            recovered * 100.0,
            result.energy
        );
    }

    #[test]
    fn hf_config_reproduces_hf_energy() {
        let pipe = ChemPipeline::build(MoleculeKind::LiH, 1.6, &ScfKind::Rhf).unwrap();
        let (na, nb) = pipe.default_sector();
        let problem = pipe.problem(na, nb, false).unwrap();
        let runner = MolecularCafqa::new(problem);
        let objective = CliffordObjective::new(&runner.ansatz, &runner.problem().hamiltonian);
        let v = objective.evaluate(&runner.hf_config());
        assert!(
            (v.energy - runner.problem().hf_energy).abs() < 1e-9,
            "{} vs {}",
            v.energy,
            runner.problem().hf_energy
        );
    }

    #[test]
    fn trace_is_recorded_and_monotone() {
        let pipe = ChemPipeline::build(MoleculeKind::H2, 0.74, &ScfKind::Rhf).unwrap();
        let problem = pipe.problem(1, 1, false).unwrap();
        let runner = MolecularCafqa::new(problem);
        let opts = CafqaOptions { warmup: 30, iterations: 40, ..Default::default() };
        let result = runner.run(&opts);
        assert_eq!(result.evaluations, result.trace.len());
        for w in result.trace.windows(2) {
            assert!(w[1].best_so_far <= w[0].best_so_far + 1e-15);
        }
        assert!(result.iterations_to_best >= 1);
    }
}
