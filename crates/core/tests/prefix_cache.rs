//! Property suite for the generic prefix-checkpoint cache
//! ([`cafqa_core::PrefixCache`]), instantiated for both search tiers:
//! stabilizer tableaus (the Clifford [`PolishSession`]) and branch
//! ensembles (the Clifford+T [`KtPolishSession`], configurations up to
//! `t = 3`).
//!
//! Seeded random sequences of forward advances, backward rewinds, move
//! batches and accepts drive the cache with its checkpoint stack on and
//! off. After every step the prepared state must be bit-identical to a
//! fresh `run_compiled` of the patched configuration, and both stack
//! settings must produce bit-identical values.

use cafqa_circuit::{Ansatz, CompiledAnsatz, EfficientSu2};
use cafqa_clifford::{BranchEnsemble, Tableau};
use cafqa_core::{
    kt_session, t_count_of, CliffordObjective, ExecEngine, PolishMove, PrefixCache, TierKernel,
};
use cafqa_pauli::PauliOp;

const STEPS: usize = 60;
const SEQUENCES: u64 = 6;
const T_MAX: usize = 3;

/// splitmix64: a dependency-free seeded stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// One step of a cache-driving sequence.
enum Step {
    /// Prepare one neighbor (a forward advance or a backward rewind,
    /// depending on where the previous seek left the checkpoint).
    Prepare(PolishMove),
    /// Evaluate a batch of neighbors on one shared slot set.
    Batch(Vec<PolishMove>),
    /// Accept a move into the base.
    Accept(PolishMove),
}

/// A seeded sequence over `d` slots with angle indices in `0..arity`,
/// keeping every base and neighbor at most [`T_MAX`] odd (non-Clifford)
/// indices when `arity` is 8. Slots alternate between ascending runs
/// (forward advances) and jumps back to early slots (backward rewinds).
fn sequence(seed: u64, d: usize, arity: usize, start: &[usize]) -> Vec<Step> {
    let mut rng = Rng(seed);
    let mut base = start.to_vec();
    let mut slot = 0usize;
    let patch = |rng: &mut Rng, base: &[usize], slots: &[usize]| -> PolishMove {
        let mut config = base.to_vec();
        for &p in slots {
            loop {
                config[p] = rng.below(arity);
                if arity == 4 || t_count_of(&config) <= T_MAX {
                    break;
                }
            }
        }
        slots.iter().map(|&p| (p, config[p])).collect()
    };
    (0..STEPS)
        .map(|_| {
            slot = match rng.below(3) {
                0 => rng.below(d.min(4)), // rewind toward the front
                _ => (slot + 1 + rng.below(3)) % d,
            };
            match rng.below(4) {
                0 => {
                    let mv = patch(&mut rng, &base, &[slot]);
                    for &(p, v) in &mv {
                        base[p] = v;
                    }
                    Step::Accept(mv)
                }
                1 => {
                    let pair = [slot, (slot + 1 + rng.below(d - 1)) % d];
                    Step::Batch((0..5).map(|_| patch(&mut rng, &base, &pair)).collect())
                }
                _ => Step::Prepare(patch(&mut rng, &base, &[slot])),
            }
        })
        .collect()
}

/// Everything observable from one run, compared across stack settings.
#[derive(Debug, PartialEq)]
struct Observed {
    values: Vec<u64>,
    backward_seeks: u64,
}

/// Drives `cache` through `steps`, checking every prepared state against
/// `fresh` of the patched configuration, and returns what it observed
/// plus the stack-restore count.
fn drive<K: TierKernel>(
    mut cache: PrefixCache<K>,
    steps: &[Step],
    fresh: &dyn Fn(&[usize]) -> K::State,
) -> (Observed, u64)
where
    K::State: PartialEq + std::fmt::Debug,
{
    let mut values = Vec::new();
    let patched = |base: &[usize], mv: &[(usize, usize)]| {
        let mut config = base.to_vec();
        for &(p, v) in mv {
            config[p] = v;
        }
        config
    };
    for (index, step) in steps.iter().enumerate() {
        let probe = match step {
            Step::Prepare(mv) => mv.clone(),
            Step::Batch(moves) => {
                let batch = cache.evaluate_moves(moves);
                values
                    .extend(batch.iter().flat_map(|v| [v.energy.to_bits(), v.penalized.to_bits()]));
                moves[0].clone()
            }
            Step::Accept(mv) => {
                cache.accept(mv);
                // The base itself: a forward advance to the end of the
                // template from wherever the accept left the checkpoint.
                Vec::new()
            }
        };
        let expected = fresh(&patched(cache.base(), &probe));
        assert_eq!(cache.prepare(&probe), &expected, "step {index}");
    }
    let (backward_seeks, restores) = cache.seek_stats();
    (Observed { values, backward_seeks }, restores)
}

/// Runs every seeded sequence with the stack on and off and checks the
/// two settings agree; returns the summed (backward seeks, restores) of
/// the stack-on runs so callers can assert both seek kinds happened.
fn check_tier<K: TierKernel>(
    make: &dyn Fn(Vec<usize>) -> PrefixCache<K>,
    fresh: &dyn Fn(&[usize]) -> K::State,
    d: usize,
    arity: usize,
) -> (u64, u64)
where
    K::State: PartialEq + std::fmt::Debug,
{
    let (mut backward, mut restored) = (0, 0);
    for seed in 0..SEQUENCES {
        let start: Vec<usize> = (0..d).map(|p| if arity == 8 && p == 1 { 1 } else { 0 }).collect();
        let steps = sequence(seed, d, arity, &start);
        let (on, restores_on) = drive(make(start.clone()), &steps, fresh);
        let (off, restores_off) = drive(make(start).with_checkpoint_stack(false), &steps, fresh);
        assert_eq!(on, off, "seed {seed}: stack on and off must agree");
        assert_eq!(restores_off, 0, "seed {seed}: a disabled stack never restores");
        backward += on.backward_seeks;
        restored += restores_on;
    }
    (backward, restored)
}

fn hamiltonian() -> PauliOp {
    "0.5*XXII + 0.25*ZZZZ - 0.1*YIYI + 0.7*IZIZ - 0.3*XYZI + 0.2*IIXX".parse().unwrap()
}

#[test]
fn clifford_cache_matches_fresh_preparation_with_stack_on_and_off() {
    let ansatz = EfficientSu2::new(4, 2);
    let h = hamiltonian();
    let template = CompiledAnsatz::compile(&ansatz).expect("EfficientSu2 compiles");
    let objective = CliffordObjective::new(&ansatz, &h).with_engine(ExecEngine::new(2));
    let fresh = |config: &[usize]| {
        let mut state = Tableau::zero_state(4);
        state.run_compiled(&template, config);
        state
    };
    let make = |base: Vec<usize>| objective.polish_session(base).expect("compiled");
    let (backward, restored) = check_tier(&make, &fresh, ansatz.num_parameters(), 4);
    assert!(backward > 0 && restored > 0, "{backward} rewinds, {restored} restores");
}

#[test]
fn kt_cache_matches_fresh_preparation_with_stack_on_and_off() {
    let ansatz = EfficientSu2::new(4, 2);
    let h = hamiltonian();
    let template = CompiledAnsatz::compile_clifford_t(&ansatz).expect("EfficientSu2 compiles");
    let engine = ExecEngine::new(2);
    let fresh = |config: &[usize]| {
        let mut state = BranchEnsemble::zero_state(4);
        state.run_compiled(&template, config).expect("t <= 3 stays within the branch budget");
        state
    };
    let make = |base: Vec<usize>| {
        let mut session = kt_session(&engine, &ansatz, &h, &[], 0.0).expect("compiles");
        session.accept(&base.iter().copied().enumerate().collect::<Vec<_>>());
        session
    };
    let (backward, restored) = check_tier(&make, &fresh, ansatz.num_parameters(), 8);
    assert!(backward > 0 && restored > 0, "{backward} rewinds, {restored} restores");
}
