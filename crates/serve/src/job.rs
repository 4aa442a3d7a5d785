//! Job API types: submissions, statuses, outcomes, and the structured
//! errors that replace every panic on the serving path.

use cafqa_circuit::EfficientSu2;
use cafqa_core::{AngleGrid, CafqaError, CafqaOptions, CafqaProblem, CafqaResult, Penalty};
use cafqa_pauli::PauliOp;

/// Opaque handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A sector penalty in submission form: the raw operator plus its
/// target eigenvalue and weight, exactly the arguments of
/// [`Penalty::new`] (the squared shifted operator is formed at job
/// start, not by the submitter).
#[derive(Debug, Clone)]
pub struct PenaltySpec {
    /// Human-readable label ("electron count", "sz", …).
    pub label: String,
    /// The constrained operator `O`.
    pub op: PauliOp,
    /// The target eigenvalue of `O` in the wanted sector.
    pub target: f64,
    /// Penalty weight.
    pub weight: f64,
}

impl PenaltySpec {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, op: PauliOp, target: f64, weight: f64) -> Self {
        PenaltySpec { label: label.into(), op, target, weight }
    }

    /// Builds the runner-side [`Penalty`].
    pub(crate) fn build(&self) -> Penalty {
        Penalty::new(self.label.clone(), &self.op, self.target, self.weight)
    }
}

/// A complete CAFQA job submission. The server owns everything it runs
/// (the ansatz is the concrete [`EfficientSu2`] so specs are `Send` and
/// hashable), and every field participates in the job's content
/// fingerprint — see
/// [`cafqa_core::fingerprint`](cafqa_core::fingerprint) for exactly
/// which [`CafqaOptions`] fields count.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The hardware-efficient ansatz to search.
    pub ansatz: EfficientSu2,
    /// The Hamiltonian to minimize.
    pub hamiltonian: PauliOp,
    /// Sector penalties (empty for unconstrained problems).
    pub penalties: Vec<PenaltySpec>,
    /// Seed configurations (e.g. the HF state). Each must have exactly
    /// `ansatz.num_parameters()` entries in `0..4` (checked at admission
    /// by [`CafqaProblem::new`]).
    pub seeds: Vec<Vec<usize>>,
    /// Search budget and determinism knobs.
    pub opts: CafqaOptions,
}

impl JobSpec {
    /// A spec with no penalties and no seeds.
    pub fn new(ansatz: EfficientSu2, hamiltonian: PauliOp, opts: CafqaOptions) -> Self {
        JobSpec { ansatz, hamiltonian, penalties: Vec::new(), seeds: Vec::new(), opts }
    }

    /// Builds the runner-side penalty list.
    pub(crate) fn build_penalties(&self) -> Vec<Penalty> {
        self.penalties.iter().map(PenaltySpec::build).collect()
    }

    /// Admission: the core problem contract ([`CafqaProblem::new`] on
    /// the Clifford grid — the same check, and the same error, as
    /// [`run_cafqa_resumable_on`](cafqa_core::run_cafqa_resumable_on)),
    /// then the server's own policy of rejecting non-finite inputs,
    /// which could only yield a NaN or infinite energy.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        CafqaProblem::new(
            &self.ansatz,
            &self.hamiltonian,
            self.build_penalties(),
            &self.seeds,
            AngleGrid::Clifford,
            &self.opts,
        )
        .map_err(ServeError::Invalid)?;
        let finite = |op: &PauliOp| op.iter().all(|(_, c)| c.re.is_finite() && c.im.is_finite());
        if !finite(&self.hamiltonian) {
            return Err(ServeError::NonFinite { what: "hamiltonian coefficient" });
        }
        for p in &self.penalties {
            if !finite(&p.op) {
                return Err(ServeError::NonFinite { what: "penalty operator coefficient" });
            }
            if !(p.target.is_finite() && p.weight.is_finite()) {
                return Err(ServeError::NonFinite { what: "penalty target or weight" });
            }
        }
        Ok(())
    }
}

/// Where a job's result came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disposition {
    /// Computed from scratch (no cache involvement).
    Fresh,
    /// Returned from the content-addressed cache without recompute.
    CacheHit,
    /// Computed, but warm-started: the incumbent of the nearest cached
    /// same-family job (same term masks, coefficients at this L2
    /// distance) was prepended to the seed list.
    WarmStarted {
        /// L2 distance between the two canonical coefficient vectors.
        distance: f64,
    },
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for its first scheduler slice.
    Queued,
    /// Currently running a slice on the engine.
    Running,
    /// Between slices, checkpointed; will be rescheduled round-robin.
    Suspended,
    /// Finished; the outcome is available.
    Completed,
    /// Cancelled before completion.
    Cancelled,
    /// Rejected by the runner mid-flight (does not happen for specs
    /// that passed validation; kept for API totality).
    Failed,
}

impl JobStatus {
    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Completed | JobStatus::Cancelled | JobStatus::Failed)
    }
}

/// A completed job's result plus its provenance.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job this outcome belongs to.
    pub id: JobId,
    /// The search result — bit-identical to a fresh
    /// [`run_cafqa_on`](cafqa_core::run_cafqa_on) with the same
    /// effective inputs ([`seeds_used`](Self::seeds_used)).
    pub result: CafqaResult,
    /// Cache hit, warm start, or fresh compute.
    pub disposition: Disposition,
    /// The *effective* seed list the search ran with: the submitted
    /// seeds, preceded by the warm-start incumbent when one was
    /// injected. Part of the job's content fingerprint, so equal
    /// effective inputs ⇒ bit-identical results.
    pub seeds_used: Vec<Vec<usize>>,
}

/// Structured rejection/failure codes of the serving API — the
/// panic-free contract: no submission, however malformed or oversized,
/// reaches an `assert!` in the search stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue is at capacity; resubmit after a completion.
    QueueFull {
        /// The configured in-flight capacity.
        capacity: usize,
    },
    /// The spec fails the core problem contract — exactly the error
    /// [`run_cafqa_resumable_on`](cafqa_core::run_cafqa_resumable_on)
    /// returns for the same inputs.
    Invalid(CafqaError),
    /// A coefficient, penalty target or penalty weight is NaN or
    /// infinite (the search could only report a non-finite energy).
    NonFinite {
        /// Which input is not finite.
        what: &'static str,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// No job with this id was ever submitted.
    UnknownJob(JobId),
    /// The job was cancelled before completing.
    Cancelled(JobId),
    /// The runner rejected the job mid-flight.
    JobFailed {
        /// The failing job.
        id: JobId,
        /// The runner's error message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "job queue at capacity ({capacity} in flight)")
            }
            ServeError::Invalid(err) => write!(f, "invalid problem: {err}"),
            ServeError::NonFinite { what } => write!(f, "{what} is not finite"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::UnknownJob(id) => write!(f, "unknown {id}"),
            ServeError::Cancelled(id) => write!(f, "{id} was cancelled"),
            ServeError::JobFailed { id, message } => write!(f, "{id} failed: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}
