//! A seeded, bounded fuzz sweep over submissions: every generated
//! `JobSpec` must either reject at `submit` with a structured
//! `ServeError`, or complete with a finite energy — no panic, no hang,
//! no NaN or infinite result — and the server must still serve a valid
//! job afterwards.
//!
//! The generator covers register widths 1..=64, coefficient classes
//! (NaN, ±inf, 0, subnormal, ±1e300, ordinary), empty and duplicate term
//! sets, penalties, wrong-length and out-of-range seeds, every Ising
//! routing policy, and degenerate budgets (`warmup = 0`,
//! `iterations = 0`, `polish_sweeps = 0`, `forest_window = 1`). Budgets
//! are capped per case so the sweep stays within a few seconds.

use cafqa_circuit::{Ansatz, EfficientSu2};
use cafqa_core::{CafqaOptions, ExecEngine, IsingFastPath};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};
use cafqa_serve::{CafqaServer, JobSpec, PenaltySpec, ServeError, ServeOptions};

/// splitmix64: a self-contained, seeded stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn coefficient(&mut self) -> f64 {
        match self.below(16) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => 5e-324,
            5 => 1e300,
            6 => -1e300,
            _ => (self.next() % 2001) as f64 / 1000.0 - 1.0,
        }
    }

    /// A random Pauli string on `n` qubits; mostly low weight (so some
    /// operators are Ising-class), sometimes dense.
    fn string(&mut self, n: usize) -> PauliString {
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        if self.chance(30) {
            return PauliString::from_masks(n, self.next() & mask, self.next() & mask);
        }
        let mut z = 0u64;
        let mut x = 0u64;
        for _ in 0..1 + self.below(2) {
            let q = self.below(n);
            z |= 1 << q;
            if self.chance(20) {
                x |= 1 << q;
            }
        }
        PauliString::from_masks(n, x, z)
    }

    /// Empty, ordinary, or duplicate-heavy term sets.
    fn operator(&mut self, n: usize) -> PauliOp {
        let mut op = PauliOp::zero(n);
        let terms = self.below(6);
        let mut last = None;
        for _ in 0..terms {
            let string = match last {
                Some(s) if self.chance(30) => s,
                _ => self.string(n),
            };
            op.add_term(Complex64::from(self.coefficient()), string);
            last = Some(string);
        }
        op
    }

    /// A seed of the right or wrong length, in or out of range.
    fn seed(&mut self, d: usize) -> Vec<usize> {
        let len = match self.below(8) {
            0 => self.below(d + 2),
            _ => d,
        };
        let range = if self.chance(15) { 9 } else { 4 };
        (0..len).map(|_| self.below(range)).collect()
    }
}

fn random_spec(rng: &mut Stream) -> JobSpec {
    let n = 1 + rng.below(64);
    // Wide registers run one rotation layer and no polish: the sweep is
    // about admission and degenerate budgets, not search quality.
    let small = n <= 6;
    let ansatz = EfficientSu2::new(n, if small { rng.below(2) } else { 0 });
    let width = |rng: &mut Stream| match rng.below(12) {
        0 if n > 1 => n - 1,
        1 if n < 64 => n + 1,
        _ => n,
    };
    let hamiltonian = {
        let w = width(rng);
        rng.operator(w)
    };
    let mut spec = JobSpec::new(ansatz, hamiltonian, CafqaOptions::default());
    if rng.chance(25) {
        let w = width(rng);
        let op = rng.operator(w);
        let target = if rng.chance(80) { rng.below(3) as f64 } else { rng.coefficient() };
        let weight = if rng.chance(80) { 0.5 } else { rng.coefficient() };
        spec.penalties.push(PenaltySpec::new("fuzz", op, target, weight));
    }
    let d = spec.ansatz.num_parameters();
    for _ in 0..rng.below(3) {
        let seed = rng.seed(d);
        spec.seeds.push(seed);
    }
    spec.opts = CafqaOptions {
        warmup: rng.below(9),
        iterations: rng.below(9),
        polish_sweeps: if small { rng.below(2) } else { 0 },
        forest_window: [0, 1, 3][rng.below(3)],
        proposals_per_refit: 1 + rng.below(2),
        ising_fast_path: [IsingFastPath::Auto, IsingFastPath::Off, IsingFastPath::Force]
            [rng.below(3)],
        seed: rng.next(),
        ..CafqaOptions::default()
    };
    spec
}

#[test]
fn every_submission_rejects_structurally_or_completes_finite() {
    let mut server = CafqaServer::start(ExecEngine::serial(), ServeOptions::default());
    let mut rng = Stream(0xF022_5EED);
    let (mut rejected, mut completed) = (0, 0);
    for case in 0..1000 {
        let spec = random_spec(&mut rng);
        let what = format!(
            "case {case}: {} qubits, {} terms, {} penalties, seeds {:?}, opts {:?}",
            spec.ansatz.num_qubits(),
            spec.hamiltonian.num_terms(),
            spec.penalties.len(),
            spec.seeds.iter().map(Vec::len).collect::<Vec<_>>(),
            spec.opts
        );
        match server.submit(spec) {
            Err(ServeError::Invalid(_) | ServeError::NonFinite { .. }) => rejected += 1,
            Err(other) => panic!("{what}: unexpected rejection {other:?}"),
            Ok(id) => {
                let outcome = server.wait(id).unwrap_or_else(|e| panic!("{what}: {e}"));
                let energy = outcome.result.energy;
                assert!(energy.is_finite(), "{what}: energy {energy}");
                completed += 1;
            }
        }
    }
    assert!(rejected > 250 && completed > 250, "{rejected} rejected, {completed} completed");
    let ham: PauliOp = "0.5*ZZ + 0.25*XX".parse().unwrap();
    let opts = CafqaOptions { warmup: 8, iterations: 8, ..Default::default() };
    let id = server.submit(JobSpec::new(EfficientSu2::new(2, 1), ham, opts)).unwrap();
    assert!(server.wait(id).expect("the server survived the sweep").result.energy.is_finite());
    server.shutdown();
}
