//! Every search entry point validates its inputs through one
//! constructor, `CafqaProblem::new`, and reports a failure as one
//! structured `CafqaError` — never a panic deep in the stack, and never
//! a silent run on malformed inputs. The entry points without an error
//! channel (`run_cafqa`, `run_cafqa_on`) panic with the same message.

use cafqa_circuit::EfficientSu2;
use cafqa_clifford::MAX_BRANCH_GATES;
use cafqa_core::{
    run_cafqa_kt_on, run_cafqa_on, run_cafqa_resumable_on, AngleGrid, CafqaError, CafqaOptions,
    CafqaProblem, ExecEngine, IsingFastPath, Penalty, RunControl, RunStatus,
};
use cafqa_pauli::PauliOp;

fn opts() -> CafqaOptions {
    CafqaOptions {
        warmup: 4,
        iterations: 4,
        polish_sweeps: 1,
        ising_fast_path: IsingFastPath::Off,
        ..Default::default()
    }
}

fn resumable(
    ansatz: &EfficientSu2,
    h: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> Result<RunStatus, CafqaError> {
    let engine = ExecEngine::serial();
    let mut control = |_| RunControl::Continue;
    run_cafqa_resumable_on(&engine, ansatz, h, penalties, seeds, opts, None, &mut control)
}

fn kt(
    ansatz: &EfficientSu2,
    h: &PauliOp,
    k_max: usize,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> Result<f64, CafqaError> {
    run_cafqa_kt_on(&ExecEngine::serial(), ansatz, h, Vec::new(), k_max, seeds, opts)
        .map(|r| r.energy)
}

fn check(
    ansatz: &EfficientSu2,
    h: &str,
    seeds: &[Vec<usize>],
    grid: AngleGrid,
    opts: &CafqaOptions,
) -> Result<(), CafqaError> {
    let h: PauliOp = h.parse().unwrap();
    CafqaProblem::new(ansatz, &h, Vec::new(), seeds, grid, opts).map(|_| ())
}

#[test]
fn checks_run_in_the_documented_order() {
    let ansatz = EfficientSu2::new(2, 0);
    let (h, clifford) = ("1.0*XZ + 1.0*ZZ", AngleGrid::Clifford);
    let force = CafqaOptions { ising_fast_path: IsingFastPath::Force, ..Default::default() };
    let over = AngleGrid::CliffordT { k_max: MAX_BRANCH_GATES + 1 };
    // Register before budget, budget before seeds, seeds before routing.
    assert!(matches!(
        check(&ansatz, "1.0*Z", &[vec![9]], over, &force),
        Err(CafqaError::QubitMismatch { .. })
    ));
    assert_eq!(
        check(&ansatz, h, &[vec![9]], over, &force),
        Err(CafqaError::BudgetTooLarge { k_max: MAX_BRANCH_GATES + 1, max: MAX_BRANCH_GATES })
    );
    assert!(matches!(
        check(&ansatz, h, &[vec![0; 4], vec![4; 4]], clifford, &force),
        Err(CafqaError::BadSeed { index: 1, .. })
    ));
    assert!(matches!(
        check(&ansatz, h, &[], clifford, &force),
        Err(CafqaError::NotIsingClass { .. })
    ));
}

#[test]
fn clifford_t_seeds_are_eight_ary_at_every_budget() {
    let ansatz = EfficientSu2::new(1, 0);
    let opts = CafqaOptions::default();
    let kt = |k_max| AngleGrid::CliffordT { k_max };
    // Even 8-ary entries are Clifford: valid at k_max = 0.
    assert_eq!(check(&ansatz, "1.0*Z", &[vec![6, 4]], kt(0), &opts), Ok(()));
    assert!(matches!(
        check(&ansatz, "1.0*Z", &[vec![8, 0]], kt(0), &opts),
        Err(CafqaError::BadSeed { index: 0, .. })
    ));
    assert_eq!(
        check(&ansatz, "1.0*Z", &[vec![0, 0], vec![1, 1]], kt(1), &opts),
        Err(CafqaError::SeedInfeasible { seed: 1, t_count: 2, k_max: 1 })
    );
    // Force is a Clifford-grid check: the kT grid never routes.
    let force = CafqaOptions { ising_fast_path: IsingFastPath::Force, ..opts };
    assert_eq!(check(&ansatz, "1.0*Z + 1.0*X", &[], kt(1), &force), Ok(()));
}

#[test]
fn register_mismatch_is_an_error_in_every_tier() {
    let ansatz = EfficientSu2::new(2, 1);
    let h: PauliOp = "0.5*XXX".parse().unwrap();
    let mismatch = CafqaError::QubitMismatch { what: "hamiltonian", ansatz: 2, found: 3 };
    assert_eq!(kt(&ansatz, &h, 1, &[], &opts()).unwrap_err(), mismatch);
    assert_eq!(kt(&ansatz, &h, 0, &[], &opts()).unwrap_err(), mismatch);
    assert_eq!(resumable(&ansatz, &h, vec![], &[], &opts()).unwrap_err(), mismatch);
    let penalty = Penalty::new("n", &h, 1.0, 1.0);
    let good: PauliOp = "0.5*XX".parse().unwrap();
    assert!(matches!(
        resumable(&ansatz, &good, vec![penalty], &[], &opts()),
        Err(CafqaError::QubitMismatch { what: "penalty operator", ansatz: 2, found: 3 })
    ));
}

#[test]
fn short_seeds_are_errors_not_panics() {
    let ansatz = EfficientSu2::new(2, 1);
    let h: PauliOp = "0.5*XX + 0.25*ZI".parse().unwrap();
    let seeds = [vec![0, 1, 2]];
    for result in [
        resumable(&ansatz, &h, vec![], &seeds, &opts()).map(|_| ()),
        kt(&ansatz, &h, 1, &seeds, &opts()).map(|_| ()),
        kt(&ansatz, &h, 0, &seeds, &opts()).map(|_| ()),
    ] {
        let err = result.unwrap_err();
        assert!(matches!(err, CafqaError::BadSeed { index: 0, .. }), "{err:?}");
        assert!(err.to_string().contains("has 3 entries, the ansatz has 8 parameters"), "{err}");
    }
}

#[test]
fn out_of_range_seeds_are_errors_on_each_grid() {
    let ansatz = EfficientSu2::new(2, 1);
    let h: PauliOp = "0.5*XX + 0.25*ZI".parse().unwrap();
    let sevens = [vec![7; 8]];
    let err = resumable(&ansatz, &h, vec![], &sevens, &opts()).unwrap_err();
    assert!(matches!(err, CafqaError::BadSeed { index: 0, .. }), "{err:?}");
    assert!(err.to_string().contains("out of the Clifford angle range 0..4"), "{err}");
    // On the Clifford+T grid 7 is in range (one T each) but over budget;
    // 8 is out of range at every budget, including 0.
    assert_eq!(
        kt(&ansatz, &h, 2, &sevens, &opts()).unwrap_err(),
        CafqaError::SeedInfeasible { seed: 0, t_count: 8, k_max: 2 }
    );
    for k_max in [0, 2] {
        let err = kt(&ansatz, &h, k_max, &[vec![0; 8], vec![8; 8]], &opts()).unwrap_err();
        assert!(matches!(err, CafqaError::BadSeed { index: 1, .. }), "{err:?}");
    }
}

#[test]
fn force_on_non_ising_input_is_an_error_from_the_fallible_entry_points() {
    let ansatz = EfficientSu2::new(2, 1);
    let h: PauliOp = "0.5*XX + 0.25*ZZ".parse().unwrap();
    let force = CafqaOptions { ising_fast_path: IsingFastPath::Force, ..opts() };
    for err in [
        resumable(&ansatz, &h, vec![], &[], &force).map(|_| ()).unwrap_err(),
        kt(&ansatz, &h, 0, &[], &force).map(|_| ()).unwrap_err(),
    ] {
        assert!(matches!(err, CafqaError::NotIsingClass { .. }), "{err:?}");
        assert!(err.to_string().contains("not Ising-class"), "{err}");
    }
    // The kT grid never routes, so Force does not apply above k_max = 0.
    assert!(kt(&ansatz, &h, 1, &[], &force).is_ok());
}

#[test]
fn valid_seeds_still_run() {
    let ansatz = EfficientSu2::new(2, 1);
    let h: PauliOp = "0.5*XX + 0.25*ZI".parse().unwrap();
    let seeds = [vec![3; 8]];
    assert!(matches!(resumable(&ansatz, &h, vec![], &seeds, &opts()), Ok(RunStatus::Complete(_))));
    assert!(kt(&ansatz, &h, 0, &[vec![6; 8]], &opts()).is_ok());
    assert!(kt(&ansatz, &h, 2, &[vec![6, 1, 0, 0, 0, 0, 0, 7]], &opts()).is_ok());
}

#[test]
#[should_panic(expected = "seed 0 entry 7 out of the Clifford angle range 0..4")]
fn run_cafqa_on_panics_with_the_error_message() {
    let ansatz = EfficientSu2::new(2, 1);
    let h: PauliOp = "0.5*XX + 0.25*ZI".parse().unwrap();
    run_cafqa_on(&ExecEngine::serial(), &ansatz, &h, vec![], &[vec![7; 8]], &opts());
}
