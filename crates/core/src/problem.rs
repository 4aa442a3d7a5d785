//! The validated search problem: one input contract for every CAFQA
//! search entry point, behind one error type.
//!
//! A search takes four inputs — an ansatz, a Hamiltonian, sector
//! penalties (paper §3 step 5) and seed configurations (e.g. the HF
//! seed) — over an angle grid: the four Clifford angles, or the eight
//! eighth-turns of CAFQA+kT (§8) under a T budget. [`CafqaProblem::new`]
//! is the only way to build a [`CafqaProblem`], and it makes every
//! structural check exactly once, in a fixed order, returning the first
//! failure as a [`CafqaError`]:
//!
//! 1. the Hamiltonian and every penalty operator act on
//!    `ansatz.num_qubits()` qubits ([`CafqaError::QubitMismatch`]);
//! 2. on the Clifford+T grid, `k_max ≤` [`MAX_BRANCH_GATES`]
//!    ([`CafqaError::BudgetTooLarge`]);
//! 3. every seed has `ansatz.num_parameters()` entries, each `< 4` on
//!    the Clifford grid or `< 8` on the Clifford+T grid (at any `k_max`,
//!    including 0: kT seeds are 8-ary) ([`CafqaError::BadSeed`]), and
//!    uses at most `k_max` non-Clifford rotations
//!    ([`CafqaError::SeedInfeasible`]);
//! 4. on the Clifford grid with [`IsingFastPath::Force`], the instance
//!    routes: no penalties, an Ising-class Hamiltonian and an eigenstate
//!    lift ([`CafqaError::NotIsingClass`]).
//!
//! Code holding a `&CafqaProblem` relies on these and repeats none of
//! them. Non-finite coefficients are *not* rejected here: a NaN input
//! yields a NaN energy, and rejecting such jobs is a serving-layer
//! admission policy (`cafqa-serve`), not a search precondition.

use cafqa_circuit::Ansatz;
use cafqa_clifford::MAX_BRANCH_GATES;
use cafqa_pauli::PauliOp;

use crate::ising::{ising_route, IsingFastPath};
use crate::kt::t_count_of;
use crate::objective::Penalty;
use crate::runner::CafqaOptions;

/// The discrete angle grid a search runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AngleGrid {
    /// Four Clifford angles `k·π/2` per parameter (indices `0..4`).
    Clifford,
    /// Eight angles `k·π/4` per parameter (indices `0..8`), at most
    /// `k_max` of them odd (non-Clifford) — the CAFQA+kT grid.
    CliffordT {
        /// The T budget.
        k_max: usize,
    },
}

/// Why a search problem is invalid, or why a search could not run — the
/// one error type of every fallible search entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CafqaError {
    /// An operator acts on a different register than the ansatz.
    QubitMismatch {
        /// Which operator (`"hamiltonian"` / `"penalty operator"`).
        what: &'static str,
        /// The ansatz register width.
        ansatz: usize,
        /// The operator's width.
        found: usize,
    },
    /// `k_max` exceeds the stabilizer-rank engine's branch budget
    /// ([`MAX_BRANCH_GATES`]); such a search could sample configurations
    /// no backend can evaluate.
    BudgetTooLarge {
        /// The requested T budget.
        k_max: usize,
        /// The largest supported budget.
        max: usize,
    },
    /// A seed configuration has the wrong length or an entry outside the
    /// grid.
    BadSeed {
        /// Index into the `seeds` slice.
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A seed configuration uses more non-Clifford rotations than
    /// `k_max` allows. Widen the budget, or re-seed with
    /// [`widen_clifford_config`](crate::widen_clifford_config) variants
    /// that respect it.
    SeedInfeasible {
        /// Index of the offending seed in the `seeds` slice.
        seed: usize,
        /// Its non-Clifford rotation count.
        t_count: usize,
        /// The budget it violates.
        k_max: usize,
    },
    /// [`IsingFastPath::Force`] was requested for an instance that
    /// cannot take the fast path.
    NotIsingClass {
        /// Why the instance cannot route.
        reason: String,
    },
    /// The ansatz does not compile to a Clifford+T template, so no
    /// branch-ensemble evaluator exists for `k_max > 0` (a zero budget
    /// still delegates to the Clifford search).
    NotCompilable,
    /// A resume checkpoint was recorded for a different job fingerprint.
    FingerprintMismatch {
        /// The submitted job's fingerprint.
        expected: u64,
        /// The checkpoint's recorded fingerprint.
        found: u64,
    },
    /// Replay proposed a different configuration than the checkpoint
    /// recorded at this history index — the checkpoint does not belong
    /// to this (job, seed) stream.
    HistoryDiverged {
        /// First diverging index into
        /// [`SearchCheckpoint::history`](crate::SearchCheckpoint::history).
        index: usize,
    },
    /// An Ising form has more spins than the solver can represent
    /// ([`IsingForm::solve`](crate::IsingForm::solve)).
    TooLarge {
        /// The instance's spin count.
        n: usize,
        /// The hard cap ([`SOLVE_CAP`](crate::ising::SOLVE_CAP)).
        cap: usize,
    },
}

/// The CAFQA+kT entry points' error, kept under its earlier name.
pub type KtError = CafqaError;

/// The resumable entry point's error, kept under its earlier name.
pub type ResumeError = CafqaError;

/// The Ising solver's error, kept under its earlier name.
pub type IsingError = CafqaError;

impl std::fmt::Display for CafqaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CafqaError::QubitMismatch { what, ansatz, found } => {
                write!(f, "{what} acts on {found} qubits, the ansatz on {ansatz}")
            }
            CafqaError::BudgetTooLarge { k_max, max } => {
                write!(f, "T budget k_max = {k_max} exceeds the branch-engine limit of {max}")
            }
            CafqaError::BadSeed { index, reason } => write!(f, "seed {index} {reason}"),
            CafqaError::SeedInfeasible { seed, t_count, k_max } => write!(
                f,
                "seed {seed} uses {t_count} non-Clifford rotations, over the budget k_max = {k_max}"
            ),
            CafqaError::NotIsingClass { reason } => {
                write!(f, "ising_fast_path = Force, but {reason}")
            }
            CafqaError::NotCompilable => {
                write!(f, "the ansatz does not compile to a Clifford+T template")
            }
            CafqaError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match job {expected:#018x}"
            ),
            CafqaError::HistoryDiverged { index } => {
                write!(f, "replayed proposal diverged from checkpoint history at index {index}")
            }
            CafqaError::TooLarge { n, cap } => {
                write!(f, "Ising instance has {n} spins; the solver caps at {cap}")
            }
        }
    }
}

impl std::error::Error for CafqaError {}

/// A search problem that passed every structural check (see the module
/// docs for the list): the input every search entry point runs on.
pub struct CafqaProblem<'a> {
    pub(crate) ansatz: &'a dyn Ansatz,
    pub(crate) hamiltonian: &'a PauliOp,
    pub(crate) penalties: Vec<Penalty>,
    pub(crate) seeds: &'a [Vec<usize>],
    /// The Ising fast path's lifted winner, when the instance routes
    /// (Clifford grid, routing not [`IsingFastPath::Off`]).
    pub(crate) ising_lift: Option<Vec<usize>>,
}

impl<'a> CafqaProblem<'a> {
    /// Validates a search problem over `grid`. `opts` is read for the
    /// Ising routing policy and the solver seed only.
    ///
    /// # Errors
    ///
    /// The first failing check, in the module-level order.
    pub fn new(
        ansatz: &'a dyn Ansatz,
        hamiltonian: &'a PauliOp,
        penalties: Vec<Penalty>,
        seeds: &'a [Vec<usize>],
        grid: AngleGrid,
        opts: &CafqaOptions,
    ) -> Result<Self, CafqaError> {
        let nq = ansatz.num_qubits();
        let operators = std::iter::once(("hamiltonian", hamiltonian))
            .chain(penalties.iter().map(|p| ("penalty operator", p.squared_op())));
        for (what, op) in operators {
            if op.num_qubits() != nq {
                return Err(CafqaError::QubitMismatch { what, ansatz: nq, found: op.num_qubits() });
            }
        }
        let (angles, name, k_max) = match grid {
            AngleGrid::Clifford => (4, "Clifford", None),
            AngleGrid::CliffordT { k_max } if k_max > MAX_BRANCH_GATES => {
                return Err(CafqaError::BudgetTooLarge { k_max, max: MAX_BRANCH_GATES });
            }
            AngleGrid::CliffordT { k_max } => (8, "Clifford+T", Some(k_max)),
        };
        let d = ansatz.num_parameters();
        for (index, seed) in seeds.iter().enumerate() {
            let bad = |reason| Err(CafqaError::BadSeed { index, reason });
            if seed.len() != d {
                return bad(format!("has {} entries, the ansatz has {d} parameters", seed.len()));
            }
            if let Some(&v) = seed.iter().find(|&&v| v >= angles) {
                return bad(format!("entry {v} out of the {name} angle range 0..{angles}"));
            }
            if let Some(k_max) = k_max {
                let t_count = t_count_of(seed);
                if t_count > k_max {
                    return Err(CafqaError::SeedInfeasible { seed: index, t_count, k_max });
                }
            }
        }
        let ising_lift = match (grid, opts.ising_fast_path) {
            (AngleGrid::CliffordT { .. }, _) | (_, IsingFastPath::Off) => None,
            (_, IsingFastPath::Auto) => ising_route(ansatz, hamiltonian, &penalties, opts).ok(),
            (_, IsingFastPath::Force) => Some(
                ising_route(ansatz, hamiltonian, &penalties, opts)
                    .map_err(|reason| CafqaError::NotIsingClass { reason })?,
            ),
        };
        Ok(CafqaProblem { ansatz, hamiltonian, penalties, seeds, ising_lift })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_circuit::EfficientSu2;

    fn check(
        ansatz: &EfficientSu2,
        h: &str,
        penalties: Vec<Penalty>,
        seeds: &[Vec<usize>],
        opts: &CafqaOptions,
    ) -> Result<(), CafqaError> {
        let h: PauliOp = h.parse().unwrap();
        CafqaProblem::new(ansatz, &h, penalties, seeds, AngleGrid::Clifford, opts).map(|_| ())
    }

    #[test]
    fn validation_rejects_each_malformation_structurally() {
        let ansatz = EfficientSu2::new(3, 1);
        let (h, quick) = ("1.0*ZZI", CafqaOptions::quick());
        assert_eq!(check(&ansatz, h, vec![], &[], &quick), Ok(()));
        // Register mismatch.
        assert_eq!(
            check(&ansatz, "1.0*ZZ", vec![], &[], &quick),
            Err(CafqaError::QubitMismatch { what: "hamiltonian", ansatz: 3, found: 2 })
        );
        // Penalty register mismatch.
        let wide = Penalty::new("n", &"1.0*ZIII".parse().unwrap(), 1.0, 1.0);
        assert!(matches!(
            check(&ansatz, h, vec![wide], &[], &quick),
            Err(CafqaError::QubitMismatch { what: "penalty operator", .. })
        ));
        // Wrong seed length and out-of-range seed entry.
        assert!(matches!(
            check(&ansatz, h, vec![], &[vec![0; 3]], &quick),
            Err(CafqaError::BadSeed { index: 0, .. })
        ));
        assert!(matches!(
            check(&ansatz, h, vec![], &[vec![0; 12], vec![4; 12]], &quick),
            Err(CafqaError::BadSeed { index: 1, .. })
        ));
        let force = CafqaOptions { ising_fast_path: IsingFastPath::Force, ..quick };
        // Force on a non-Ising instance rejects instead of panicking.
        let err = check(&ansatz, "0.5*XII + 0.5*ZII", vec![], &[], &force).unwrap_err();
        assert!(matches!(err, CafqaError::NotIsingClass { .. }), "{err:?}");
        assert!(err.to_string().contains("not Ising-class"), "{err}");
        // Force on a penalized instance rejects too.
        let n = Penalty::new("n", &"1.0*ZII".parse().unwrap(), 1.0, 1.0);
        assert!(matches!(
            check(&ansatz, h, vec![n], &[], &force),
            Err(CafqaError::NotIsingClass { .. })
        ));
        // Force on a routable instance is accepted.
        assert_eq!(check(&ansatz, h, vec![], &[], &force), Ok(()));
    }
}
