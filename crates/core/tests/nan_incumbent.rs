//! A Hamiltonian with a NaN coefficient makes every BO value NaN, so the
//! BO phase ends without an incumbent. Both tiers must then polish from
//! the all-zero configuration and return: handing the empty incumbent to
//! the polish panics (`config length mismatch`).

use cafqa_circuit::EfficientSu2;
use cafqa_core::{run_cafqa, run_cafqa_kt, CafqaOptions, IsingFastPath};
use cafqa_pauli::PauliOp;

#[test]
fn nan_coefficient_polishes_from_the_origin_in_both_tiers() {
    let h: PauliOp = "NaN*XX + 0.5*ZI".parse().unwrap();
    let ansatz = EfficientSu2::new(2, 1);
    let opts = CafqaOptions {
        warmup: 8,
        iterations: 8,
        polish_sweeps: 1,
        ising_fast_path: IsingFastPath::Off,
        ..Default::default()
    };
    let clifford = run_cafqa(&ansatz, &h, Vec::new(), &[], &opts);
    assert_eq!(clifford.best_config, vec![0; 8], "nothing beats a NaN incumbent");
    assert!(clifford.energy.is_nan());
    assert_eq!(clifford.evaluations, clifford.trace.len());
    let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[], &opts).expect("kT returns Ok");
    assert_eq!(kt.best_config, vec![0; 8]);
    assert!(kt.energy.is_nan());
}
