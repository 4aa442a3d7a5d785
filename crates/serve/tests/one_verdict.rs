//! One verdict: the server admits a spec through the same validator the
//! search runs, so every structurally malformed spec rejects at
//! `submit` with `ServeError::Invalid(e)`, where `e` is exactly the
//! error `run_cafqa_resumable_on` returns for the same inputs.

use cafqa_circuit::EfficientSu2;
use cafqa_core::{
    run_cafqa_resumable_on, CafqaOptions, ExecEngine, IsingFastPath, Penalty, RunControl,
};
use cafqa_pauli::PauliOp;
use cafqa_serve::{CafqaServer, JobSpec, PenaltySpec, ServeError, ServeOptions};

fn op(s: &str) -> PauliOp {
    s.parse().unwrap()
}

fn malformed_specs() -> Vec<(&'static str, JobSpec)> {
    let opts = CafqaOptions { warmup: 4, iterations: 4, polish_sweeps: 1, ..Default::default() };
    let force = CafqaOptions { ising_fast_path: IsingFastPath::Force, ..opts.clone() };
    let ansatz = EfficientSu2::new(2, 1);
    let good = JobSpec::new(ansatz.clone(), op("0.5*XX + 0.25*ZI"), opts.clone());
    let with = |edit: &dyn Fn(&mut JobSpec)| {
        let mut spec = good.clone();
        edit(&mut spec);
        spec
    };
    vec![
        ("wide hamiltonian", JobSpec::new(ansatz.clone(), op("0.5*XXX"), opts.clone())),
        ("narrow hamiltonian", JobSpec::new(ansatz.clone(), op("0.5*X"), opts)),
        (
            "wide penalty",
            with(&|s| s.penalties.push(PenaltySpec::new("n", op("1.0*ZZZ"), 1.0, 1.0))),
        ),
        ("short seed", with(&|s| s.seeds.push(vec![0, 1, 2]))),
        ("long seed", with(&|s| s.seeds.push(vec![0; 9]))),
        ("all-7 seed", with(&|s| s.seeds.push(vec![7; 8]))),
        ("second seed out of range", with(&|s| s.seeds.extend([vec![0; 8], vec![4; 8]]))),
        ("force on non-Ising", JobSpec::new(ansatz, op("0.5*XX + 0.25*ZZ"), force.clone())),
        (
            "force with penalty",
            with(&|s| {
                s.hamiltonian = op("0.5*ZZ");
                s.opts = force.clone();
                s.penalties.push(PenaltySpec::new("n", op("1.0*ZI"), 1.0, 1.0));
            }),
        ),
    ]
}

#[test]
fn serve_and_core_return_the_same_error_for_every_malformed_spec() {
    let engine = ExecEngine::serial();
    let mut server = CafqaServer::start(engine.clone(), ServeOptions::default());
    for (case, spec) in malformed_specs() {
        let penalties: Vec<Penalty> = spec
            .penalties
            .iter()
            .map(|p| Penalty::new(p.label.clone(), &p.op, p.target, p.weight))
            .collect();
        let core = run_cafqa_resumable_on(
            &engine,
            &spec.ansatz,
            &spec.hamiltonian,
            penalties,
            &spec.seeds,
            &spec.opts,
            None,
            &mut |_| RunControl::Continue,
        )
        .err()
        .unwrap_or_else(|| panic!("{case}: core accepted a malformed spec"));
        assert_eq!(server.submit(spec).unwrap_err(), ServeError::Invalid(core), "{case}");
    }
    assert_eq!(server.stats().rejected, malformed_specs().len() as u64);
    server.shutdown();
}
