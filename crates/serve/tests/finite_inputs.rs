//! Non-finite inputs reject at the door with a structured error, and the
//! server keeps serving. Admitted, such a job could only report a NaN or
//! infinite energy.

use cafqa_circuit::EfficientSu2;
use cafqa_core::{CafqaOptions, ExecEngine};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};
use cafqa_serve::{CafqaServer, JobSpec, PenaltySpec, ServeError, ServeOptions};

fn op(terms: &[(f64, &str)]) -> PauliOp {
    let mut h = PauliOp::zero(2);
    for &(w, s) in terms {
        h.add_term(Complex64::from(w), s.parse::<PauliString>().unwrap());
    }
    h
}

fn spec(coefficient: f64) -> JobSpec {
    let opts = CafqaOptions { warmup: 16, iterations: 16, polish_sweeps: 1, ..Default::default() };
    JobSpec::new(EfficientSu2::new(2, 1), op(&[(coefficient, "XX"), (0.5, "ZI")]), opts)
}

#[test]
fn non_finite_submissions_reject_and_the_server_keeps_serving() {
    let mut server = CafqaServer::start(ExecEngine::serial(), ServeOptions::default());
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(
            server.submit(spec(bad)).unwrap_err(),
            ServeError::NonFinite { what: "hamiltonian coefficient" },
            "coefficient {bad}"
        );
        let penalty = |target, weight| PenaltySpec::new("n", op(&[(1.0, "ZZ")]), target, weight);
        for (target, weight) in [(bad, 1.0), (0.0, bad)] {
            let mut job = spec(1.0);
            job.penalties.push(penalty(target, weight));
            assert_eq!(
                server.submit(job).unwrap_err(),
                ServeError::NonFinite { what: "penalty target or weight" }
            );
        }
        let mut job = spec(1.0);
        job.penalties.push(PenaltySpec::new("n", op(&[(bad, "ZZ")]), 0.0, 1.0));
        assert_eq!(
            server.submit(job).unwrap_err(),
            ServeError::NonFinite { what: "penalty operator coefficient" }
        );
    }
    let id = server.submit(spec(1.0)).expect("a finite job is admitted");
    let outcome = server.wait(id).expect("the scheduler survived the rejections");
    assert!(outcome.result.energy.is_finite(), "energy {}", outcome.result.energy);
    server.shutdown();
}
