//! The greedy polish endgame shared by the Clifford and Clifford+T (kT)
//! searches: one prefix-checkpoint cache ([`PrefixCache`]), generic over
//! the simulator state, and one greedy sweep loop ([`Greedy`]) with one
//! acceptance fold.
//!
//! Each tier supplies only its value kernel ([`TierKernel`]): the
//! Clifford tier's term-sharded tableau sum, or the kT tier's
//! (optionally screened) branch-pair sum. Everything else — the base
//! configuration, the prefix checkpoint and its per-layer snapshot
//! stack, seeks, invalidation on accept, the seek counters and the
//! shard-over-engine skeleton — lives here once.

use std::ops::Range;
use std::sync::Arc;

use cafqa_circuit::CompiledAnsatz;
use cafqa_clifford::{BranchEnsemble, Tableau};

use crate::engine::ExecEngine;
use crate::kt::t_count_of;
use crate::objective::ObjectiveValue;
use crate::runner::SearchPoint;

/// One polish move: the `(slot, new angle index)` patches applied to the
/// session base to form a neighbor configuration — one entry for a
/// coordinate move, two for a pair move.
pub type PolishMove = Vec<(usize, usize)>;

/// The state seam of the prefix cache: a simulator state that can be
/// reset to `|0…0⟩`, replay a range of compiled-template ops, and be
/// restored from a snapshot in place. Implemented by the stabilizer
/// [`Tableau`] (Clifford tier) and the [`BranchEnsemble`] (kT tier,
/// whose checkpoints may hold open branch frames).
pub trait PrefixState: Clone + Send + Sync + 'static {
    /// Resets to `|0…0⟩` (`config` only sizes the template checks).
    fn reset(&mut self, template: &CompiledAnsatz, config: &[usize]);
    /// Replays template ops `ops` of `config` on the current state.
    fn apply_range(&mut self, template: &CompiledAnsatz, config: &[usize], ops: Range<usize>);
    /// Overwrites `self` with `src`, reusing its allocations.
    fn copy_from(&mut self, src: &Self);
}

impl PrefixState for Tableau {
    fn reset(&mut self, template: &CompiledAnsatz, config: &[usize]) {
        self.run_compiled_prefix(template, config, 0);
    }

    fn apply_range(&mut self, template: &CompiledAnsatz, config: &[usize], ops: Range<usize>) {
        Tableau::apply_range(self, template, config, ops.start, ops.end);
    }

    fn copy_from(&mut self, src: &Self) {
        Tableau::copy_from(self, src);
    }
}

impl PrefixState for BranchEnsemble {
    fn reset(&mut self, template: &CompiledAnsatz, config: &[usize]) {
        self.run_compiled_prefix(template, config, 0).expect("an empty prefix opens no branches");
    }

    fn apply_range(&mut self, template: &CompiledAnsatz, config: &[usize], ops: Range<usize>) {
        BranchEnsemble::apply_range(self, template, config, ops.start, ops.end)
            .expect("a feasible configuration stays within the branch budget");
    }

    fn copy_from(&mut self, src: &Self) {
        BranchEnsemble::copy_from(self, src);
    }
}

/// A search tier's value kernel over states the [`PrefixCache`]
/// prepared: the only per-tier part of the incremental polish engine.
pub trait TierKernel: Send + Sync + 'static {
    /// The simulator state the tier prepares.
    type State: PrefixState;
    /// Batch shards per pool worker once a batch dispatches.
    const SHARDS_PER_WORKER: usize;
    /// The compiled template every configuration runs through.
    fn template(&self) -> &CompiledAnsatz;
    /// Whether a batch of `len` evaluations is worth dispatching to the
    /// pool (checked before any engine is resolved, so small batches
    /// never force the process-global pool into existence).
    fn dispatches(&self, len: usize) -> bool;
    /// The objective on a prepared state. `engine`, when given, may
    /// shard the evaluation's own work from inside the pool; the value
    /// is bit-identical either way.
    fn value(
        self: &Arc<Self>,
        state: &Arc<Self::State>,
        engine: Option<&ExecEngine>,
    ) -> ObjectiveValue;
    /// A coarse penalized score that only orders moves before exact
    /// evaluation; it never enters a trace.
    fn rank(&self, state: &Self::State) -> f64;
}

/// A per-state kernel function the cache maps over prepared neighbors.
type KernelFn<K, T> = fn(&Arc<K>, &Arc<<K as TierKernel>::State>, Option<&ExecEngine>) -> T;

/// An incremental polish session: the prefix-checkpoint cache of one
/// search tier ([`PolishSession`](crate::PolishSession) for the Clifford
/// tier, [`KtPolishSession`](crate::KtPolishSession) for Clifford+T).
///
/// The cache owns the current *base* configuration and a prefix
/// checkpoint: a state holding template ops `0..prefix_end` of the base.
/// Evaluating a batch of moves seeks the checkpoint to the earliest op
/// any move affects (`CompiledAnsatz::first_op_of`), then each neighbor
/// restores the checkpoint and replays only the suffix — work
/// proportional to the suffix length instead of the whole circuit.
/// Forward sweeps (slots in increasing op order, the shape of every
/// polish phase) *advance* the checkpoint incrementally; a *backward*
/// seek restores the deepest still-valid entry of a per-layer snapshot
/// stack (one snapshot per `CompiledAnsatz::layer_starts` boundary,
/// taken as forward advances cross it) and replays only from that
/// boundary — falling back to a rebuild from `|0…0⟩` when no snapshot
/// dominates the target, which is always correct, merely slower.
/// Accepted moves invalidate exactly the snapshots past the earliest
/// changed op, so every surviving entry is a true prefix state of the
/// current base.
///
/// # Determinism
///
/// Prefix + suffix is the same integer gate sequence as a full
/// `run_compiled`, so the prepared state — and every value, through the
/// tier's fixed-association sums — is bit-identical to a full
/// re-preparation of the patched configuration, at any engine width and
/// with the checkpoint stack on or off. Batches shard over the engine
/// one whole neighbor per task and reassemble in submission order.
/// Asserted by `crates/core/tests/prefix_cache.rs`,
/// `crates/core/tests/polish_equivalence.rs`,
/// `crates/clifford/tests/incremental_equivalence.rs` and the neighbor
/// boundary cases in `crates/core/tests/term_sharding.rs`.
pub struct PrefixCache<K: TierKernel> {
    kernel: Arc<K>,
    /// `None` resolves to the global pool lazily, and only for batches
    /// the kernel dispatches.
    engine: Option<ExecEngine>,
    base: Vec<usize>,
    /// State after template ops `0..prefix_end` of `base`.
    prefix: Arc<K::State>,
    prefix_end: usize,
    scratch: Arc<K::State>,
    /// The template's layer boundaries, strictly increasing.
    layers: Vec<usize>,
    /// Per-boundary snapshots: `stack[i]` (when `Some`) holds the state
    /// after ops `0..layers[i]` of a configuration agreeing with `base`
    /// on every parameter whose first op is `< layers[i]` — a valid
    /// restore point for any seek target `>= layers[i]`.
    stack: Vec<Option<Arc<K::State>>>,
    /// The A/B seam: `false` makes backward seeks always rebuild from
    /// `|0…0⟩`, the pre-stack behavior.
    use_stack: bool,
    backward_seeks: u64,
    stack_restores: u64,
}

impl<K: TierKernel> PrefixCache<K> {
    /// A cache at `base`, starting from the `zero` state.
    ///
    /// # Panics
    ///
    /// Panics if `base` has the wrong length.
    pub(crate) fn new(
        kernel: Arc<K>,
        engine: Option<ExecEngine>,
        base: Vec<usize>,
        zero: K::State,
    ) -> Self {
        let template = kernel.template();
        assert_eq!(base.len(), template.num_parameters(), "base config length mismatch");
        let layers = template.layer_starts().to_vec();
        PrefixCache {
            stack: vec![None; layers.len()],
            layers,
            engine,
            prefix: Arc::new(zero.clone()),
            prefix_end: 0,
            scratch: Arc::new(zero),
            base,
            kernel,
            use_stack: true,
            backward_seeks: 0,
            stack_restores: 0,
        }
    }

    /// The tier kernel.
    pub(crate) fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The current base configuration.
    pub fn base(&self) -> &[usize] {
        &self.base
    }

    /// Disables (or re-enables) the layered checkpoint stack — the A/B
    /// seam for the backward-seek bench. With the stack off, backward
    /// seeks always rebuild the prefix from `|0…0⟩`; results are
    /// bit-identical either way, only the seek cost differs. Disabling
    /// drops any snapshots already taken.
    pub fn with_checkpoint_stack(mut self, enabled: bool) -> Self {
        self.use_stack = enabled;
        if !enabled {
            self.stack.fill(None);
        }
        self
    }

    /// `(backward_seeks, stack_restores)`: how many seeks moved the
    /// checkpoint backwards, and how many of those restored a layer
    /// snapshot instead of rebuilding the prefix from `|0…0⟩`.
    pub fn seek_stats(&self) -> (u64, u64) {
        (self.backward_seeks, self.stack_restores)
    }

    /// Moves the prefix checkpoint to exactly `start` ops: advancing
    /// applies the missing base ops on top of the current checkpoint;
    /// moving backwards restores the deepest valid snapshot at or below
    /// `start` (or rebuilds from `|0…0⟩`) and advances from there.
    fn seek(&mut self, start: usize) {
        if start == self.prefix_end {
            return;
        }
        let kernel = Arc::clone(&self.kernel);
        let template = kernel.template();
        if start < self.prefix_end {
            self.backward_seeks += 1;
            let restore = (0..self.layers.len())
                .rev()
                .find(|&i| self.use_stack && self.layers[i] <= start && self.stack[i].is_some());
            let prefix = Arc::make_mut(&mut self.prefix);
            match restore {
                Some(i) => {
                    prefix.copy_from(self.stack[i].as_ref().expect("found Some above"));
                    self.prefix_end = self.layers[i];
                    self.stack_restores += 1;
                }
                None => {
                    prefix.reset(template, &self.base);
                    self.prefix_end = 0;
                }
            }
        }
        // Advance segment by segment, snapshotting every layer boundary
        // crossed so later backward seeks have restore points.
        while self.prefix_end < start {
            let next = self
                .layers
                .iter()
                .position(|&b| self.use_stack && b > self.prefix_end && b <= start);
            let stop = next.map_or(start, |i| self.layers[i]);
            let prefix = Arc::make_mut(&mut self.prefix);
            prefix.apply_range(template, &self.base, self.prefix_end..stop);
            self.prefix_end = stop;
            if let Some(i) = next {
                match &mut self.stack[i] {
                    Some(ckpt) => Arc::make_mut(ckpt).copy_from(prefix),
                    slot => *slot = Some(Arc::new(prefix.clone())),
                }
            }
        }
    }

    /// Applies an accepted move to the session base. Checkpoints at or
    /// before the move's earliest affected op stay valid (the forward
    /// sweep case); a checkpoint past it is rewound — and every stack
    /// snapshot past it is dropped — so acceptance is always safe, in
    /// any order.
    pub fn accept(&mut self, mv: &[(usize, usize)]) {
        let mut first = usize::MAX;
        for &(slot, value) in mv {
            self.base[slot] = value;
            first = first.min(self.kernel.template().first_op_of(slot));
        }
        // A snapshot at boundary b is a prefix state of the new base iff
        // no changed parameter is read before b.
        for (slot, &boundary) in self.stack.iter_mut().zip(&self.layers) {
            if boundary > first {
                *slot = None;
            }
        }
        if first < self.prefix_end {
            self.seek(first);
        }
    }

    /// Moves the session base to `base` (an [`Self::accept`] of every
    /// differing slot).
    pub(crate) fn rebase(&mut self, base: &[usize]) {
        let mv: PolishMove =
            (0..base.len()).filter(|&p| base[p] != self.base[p]).map(|p| (p, base[p])).collect();
        self.accept(&mv);
    }

    /// Seeks the checkpoint to the earliest op any of `slots` reads and
    /// returns that op index.
    fn seek_for<'m>(&mut self, slots: impl Iterator<Item = &'m (usize, usize)>) -> usize {
        let template = self.kernel.template();
        let start = slots.map(|&(slot, _)| template.first_op_of(slot)).min();
        let start = start.unwrap_or(template.ops().len());
        self.seek(start);
        start
    }

    /// Prepares the neighbor `base ⊕ mv` through the checkpoint (seeking
    /// to the move's first op) and returns it — the incremental kernel's
    /// output, bit-identical to a fresh `run_compiled` of the patched
    /// configuration.
    pub fn prepare(&mut self, mv: &[(usize, usize)]) -> &K::State {
        let start = self.seek_for(mv.iter());
        let (kernel, prefix, base) = (&self.kernel, &self.prefix, &self.base);
        replay(kernel, prefix, &mut self.scratch, base, start, &[mv.to_vec()], None, |_, _, _| ());
        &self.scratch
    }

    /// Evaluates a batch of neighbor moves against the session base, in
    /// input order — bit-identical to evaluating each patched
    /// configuration from scratch. Small batches stay on the calling
    /// thread; batches the kernel dispatches shard moves across the
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if a move names a slot out of range or an angle index the
    /// template does not accept.
    pub fn evaluate_moves(&mut self, moves: &[PolishMove]) -> Vec<ObjectiveValue> {
        self.map_moves(moves, K::value)
    }

    /// The kernel's coarse rank scores for a batch of moves.
    pub(crate) fn rank_moves(&mut self, moves: &[PolishMove]) -> Vec<f64> {
        self.map_moves(moves, |kernel, state, _| kernel.rank(state))
    }

    /// The shard-over-engine skeleton: checkpoint + suffix replay per
    /// move, then `f` on the prepared state. Each move is processed
    /// wholly by one task and results reassemble in submission order, so
    /// chunking cannot change any result.
    fn map_moves<T: Send + 'static>(&mut self, moves: &[PolishMove], f: KernelFn<K, T>) -> Vec<T> {
        if moves.is_empty() {
            return Vec::new();
        }
        let start = self.seek_for(moves.iter().flatten());
        let pool = self
            .kernel
            .dispatches(moves.len())
            .then(|| self.engine.clone().unwrap_or_else(|| ExecEngine::global().clone()));
        let (kernel, prefix, base) = (&self.kernel, &self.prefix, &self.base);
        let scratch = &mut self.scratch;
        let Some(engine) = pool.filter(ExecEngine::is_pooled) else {
            return replay(kernel, prefix, scratch, base, start, moves, self.engine.as_ref(), f);
        };
        let shards = (engine.workers() * K::SHARDS_PER_WORKER).min(moves.len());
        let tasks: Vec<_> = moves
            .chunks(moves.len().div_ceil(shards))
            .map(|chunk| {
                let (kernel, prefix) = (Arc::clone(kernel), Arc::clone(prefix));
                let (base, chunk, engine) = (base.clone(), chunk.to_vec(), engine.clone());
                move || {
                    let mut scratch = Arc::clone(&prefix);
                    replay(&kernel, &prefix, &mut scratch, &base, start, &chunk, Some(&engine), f)
                }
            })
            .collect();
        engine.map(tasks).into_iter().flatten().collect()
    }
}

/// Checkpoint + suffix replay of every move in `moves`: restores
/// `prefix` into `scratch`, replays template ops `start..` of `base`
/// with the move patched in, and applies `f` to the prepared state. The
/// caller guarantees `prefix` holds ops `0..start` of a configuration
/// agreeing with every patched one on each slot read before `start`.
fn replay<K: TierKernel, T>(
    kernel: &Arc<K>,
    prefix: &Arc<K::State>,
    scratch: &mut Arc<K::State>,
    base: &[usize],
    start: usize,
    moves: &[PolishMove],
    engine: Option<&ExecEngine>,
    f: KernelFn<K, T>,
) -> Vec<T> {
    let template = kernel.template();
    let mut config = base.to_vec();
    let mut out = Vec::with_capacity(moves.len());
    for mv in moves {
        for &(slot, value) in mv {
            config[slot] = value;
        }
        // Unique between evaluations (kernels drop their clones before
        // returning; a worker's first call copies the shared prefix), so
        // this restores in place.
        let state = Arc::make_mut(scratch);
        state.copy_from(prefix);
        state.apply_range(template, &config, start..template.ops().len());
        for &(slot, _) in mv {
            config[slot] = base[slot];
        }
        out.push(f(kernel, scratch, engine));
    }
    out
}

/// What the greedy polish needs from an evaluator: values and coarse
/// rank scores of moves around its incumbent `base`. Implemented by
/// every [`PrefixCache`] and, for ansätze that do not compile, by the
/// full-re-preparation [`CliffordObjective`](crate::CliffordObjective).
pub(crate) trait Neighborhood {
    fn evaluate(&mut self, base: &[usize], moves: &[PolishMove]) -> Vec<ObjectiveValue>;
    fn rank(&mut self, base: &[usize], moves: &[PolishMove]) -> Vec<f64>;
}

impl<K: TierKernel> Neighborhood for PrefixCache<K> {
    fn evaluate(&mut self, base: &[usize], moves: &[PolishMove]) -> Vec<ObjectiveValue> {
        self.rebase(base);
        self.evaluate_moves(moves)
    }

    fn rank(&mut self, base: &[usize], moves: &[PolishMove]) -> Vec<f64> {
        self.rebase(base);
        self.rank_moves(moves)
    }
}

/// One move phase of the greedy polish.
#[derive(Clone, Copy)]
pub(crate) enum Phase<'a> {
    /// The alternative Clifford angles (`0..4`) of every parameter.
    CliffordCoordinate,
    /// All 16 joint Clifford angles of every listed pair.
    CliffordPair(&'a [(usize, usize)]),
    /// The alternative eighth-turns (`0..8`) of every parameter that keep
    /// at most this many non-Clifford rotations.
    KtCoordinate(usize),
    /// Relocations of each non-Clifford rotation to every Clifford
    /// parameter at constant T count (both removal × both insertion
    /// directions) — the joint move a coordinate sweep cannot make
    /// without leaving the budget or crossing a barrier.
    KtMigration,
}

/// The greedy polish: the incumbent plus the trace its one
/// acceptance fold appends.
#[derive(Debug, Clone)]
pub(crate) struct Greedy {
    pub(crate) best_config: Vec<usize>,
    pub(crate) best_value: ObjectiveValue,
    /// `(raw energy, penalized)` per evaluated move, in fold order.
    pub(crate) trace: Vec<(f64, f64)>,
    /// 1-based index into `trace` of the last accepted move.
    pub(crate) last_accept: Option<usize>,
    /// Moves the rank screen pruned before exact evaluation.
    pub(crate) screened_moves: u64,
}

impl Greedy {
    pub(crate) fn new(best_config: Vec<usize>, best_value: ObjectiveValue) -> Self {
        Greedy { best_config, best_value, trace: Vec::new(), last_accept: None, screened_moves: 0 }
    }

    /// Runs up to `sweeps` sweeps of `phases` in order, stopping after
    /// the first sweep that accepts nothing. With `rank_top > 0`, every
    /// batch larger than `rank_top` is first ordered by the coarse rank
    /// score and only its `rank_top` best moves are evaluated exactly.
    pub(crate) fn sweep(
        &mut self,
        nb: &mut dyn Neighborhood,
        sweeps: usize,
        phases: &[Phase<'_>],
        rank_top: usize,
    ) {
        for _sweep in 0..sweeps {
            let mut improved = false;
            for &phase in phases {
                improved |= self.phase(nb, phase, rank_top);
            }
            if !improved {
                break;
            }
        }
    }

    /// One pass of `phase`: one batch per coordinate, pair, or (T,
    /// target) relocation, each built around the incumbent of the moment.
    fn phase(&mut self, nb: &mut dyn Neighborhood, phase: Phase<'_>, rank_top: usize) -> bool {
        let d = self.best_config.len();
        let mut improved = false;
        match phase {
            Phase::CliffordCoordinate => {
                for i in 0..d {
                    let current = self.best_config[i];
                    let moves = (0..4).filter(|&v| v != current).map(|v| vec![(i, v)]).collect();
                    improved |= self.step(nb, moves, rank_top);
                }
            }
            Phase::CliffordPair(pairs) => {
                for &(i, j) in pairs {
                    let moves = (0..16).map(|code| vec![(i, code / 4), (j, code % 4)]).collect();
                    improved |= self.step(nb, moves, rank_top);
                }
            }
            Phase::KtCoordinate(k_max) => {
                for i in 0..d {
                    let current = self.best_config[i];
                    let t = t_count_of(&self.best_config);
                    let moves = (0..8)
                        .filter(|&v| v != current && t - current % 2 + v % 2 <= k_max)
                        .map(|v| vec![(i, v)])
                        .collect();
                    improved |= self.step(nb, moves, rank_top);
                }
            }
            Phase::KtMigration => {
                let odd: Vec<usize> = (0..d).filter(|&i| self.best_config[i] % 2 == 1).collect();
                for i in odd {
                    for j in 0..d {
                        if self.best_config[i] % 2 == 0 {
                            break; // this T already migrated away
                        }
                        if j == i || self.best_config[j] % 2 == 1 {
                            continue;
                        }
                        let (ti, tj) = (self.best_config[i], self.best_config[j]);
                        let moves = [1, 7]
                            .into_iter()
                            .flat_map(|di| {
                                [1, 7].map(|dj| vec![(i, (ti + di) % 8), (j, (tj + dj) % 8)])
                            })
                            .collect();
                        improved |= self.step(nb, moves, rank_top);
                    }
                }
            }
        }
        improved
    }

    /// Rank-screens, evaluates and folds one batch of moves. The stable
    /// sort breaks score ties on batch index, and survivors keep batch
    /// order, so the pruned set — and the trace — is deterministic.
    fn step(&mut self, nb: &mut dyn Neighborhood, moves: Vec<PolishMove>, rank_top: usize) -> bool {
        let moves = if rank_top > 0 && moves.len() > rank_top {
            let scores = nb.rank(&self.best_config, &moves);
            let mut order: Vec<usize> = (0..moves.len()).collect();
            order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
            let mut keep = order[..rank_top].to_vec();
            keep.sort_unstable();
            self.screened_moves += (moves.len() - rank_top) as u64;
            keep.into_iter().map(|k| moves[k].clone()).collect()
        } else {
            moves
        };
        let values = nb.evaluate(&self.best_config, &moves);
        self.fold(&moves, &values)
    }

    /// The one acceptance fold: walk `(move, value)` in batch order,
    /// skip any move that would leave the *running* incumbent unchanged,
    /// append every other value to the trace, and accept whenever the
    /// penalized value beats the running best by more than `1e-12`.
    /// Shards reassemble in submission order before the fold, so for
    /// exactly tied minima it keeps the first minimiser — the move a
    /// serial `min_by` sweep would pick — at any worker count.
    fn fold(&mut self, moves: &[PolishMove], values: &[ObjectiveValue]) -> bool {
        let mut improved = false;
        for (mv, value) in moves.iter().zip(values) {
            if mv.iter().all(|&(slot, v)| self.best_config[slot] == v) {
                continue;
            }
            self.trace.push((value.energy, value.penalized));
            if value.penalized < self.best_value.penalized - 1e-12 {
                for &(slot, v) in mv {
                    self.best_config[slot] = v;
                }
                self.best_value = *value;
                self.last_accept = Some(self.trace.len());
                improved = true;
            }
        }
        improved
    }
}

/// The search trace of a BO phase followed by its polish tail, with the
/// running best, and the 1-based index that first reached the final
/// best: the polish's last acceptance, else the BO phase's own.
pub(crate) fn search_trace(
    mut raw: Vec<(f64, f64)>,
    polish: &[(f64, f64)],
    last_accept: Option<usize>,
    bo_to_best: usize,
) -> (Vec<SearchPoint>, usize) {
    let to_best = last_accept.map_or(bo_to_best, |accept| raw.len() + accept);
    raw.extend_from_slice(polish);
    let mut best = f64::INFINITY;
    let trace = raw
        .into_iter()
        .map(|(energy, penalized)| {
            best = best.min(penalized);
            SearchPoint { energy, penalized, best_so_far: best }
        })
        .collect();
    (trace, to_best)
}

/// The polish start: the BO incumbent, or the all-zero configuration of
/// `len` entries when the BO phase produced none (an empty budget, or
/// every value NaN).
pub(crate) fn incumbent_or_origin(incumbent: Vec<usize>, len: usize) -> Vec<usize> {
    if incumbent.is_empty() {
        vec![0; len]
    } else {
        incumbent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Folds one batch of coordinate moves on slot 0 (values `1, 2, …`,
    /// never the incumbent's 0) and returns the batch index of the last
    /// acceptance.
    fn fold_batch(incumbent: f64, values: &[f64]) -> Option<usize> {
        let mut greedy = Greedy::new(vec![0], ObjectiveValue { energy: 0.0, penalized: incumbent });
        let moves: Vec<PolishMove> = (1..=values.len()).map(|v| vec![(0, v)]).collect();
        let batch: Vec<ObjectiveValue> =
            values.iter().map(|&v| ObjectiveValue { energy: v, penalized: v }).collect();
        greedy.fold(&moves, &batch);
        assert_eq!(greedy.trace.len(), values.len(), "coordinate moves are never skipped");
        greedy.last_accept.map(|accepted| accepted - 1)
    }

    /// The tie-break contract: the fold must keep the **first**
    /// minimiser under serial-fold order. Engine shards may compute the
    /// values in any order, but they are reassembled by submission index
    /// before the fold, so for exactly-tied minima it lands on the same
    /// index as `min_by` (which keeps the first of equal minima).
    #[test]
    fn fold_keeps_first_minimiser_like_min_by() {
        let cases: Vec<Vec<f64>> = vec![
            vec![2.0, 1.0, 1.0],           // exact tie: first wins
            vec![1.0, 1.0, 1.0],           // all tied
            vec![3.0, 2.0, 1.0],           // strictly improving chain
            vec![1.0, 2.0, 3.0],           // first is best
            vec![5.0, -1.0, 4.0, -1.0],    // tie across a worse gap
            vec![f64::INFINITY, 0.5, 0.5], // non-finite head
        ];
        for values in cases {
            let min_by =
                values.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
            assert_eq!(fold_batch(f64::INFINITY, &values), min_by, "{values:?}");
        }
    }

    #[test]
    fn fold_respects_incumbent_and_tolerance() {
        // Nothing beyond the 1e-12 tolerance below the incumbent: no
        // acceptance.
        assert_eq!(fold_batch(1.0, &[1.0, 1.0 - 1e-13]), None);
        // Within tolerance of the *running* best is not accepted: 3−ε
        // loses to the already-accepted 3.0 even though it is the batch
        // minimum — the chain semantics, not a global argmin.
        assert_eq!(fold_batch(10.0, &[5.0, 3.0, 3.0 - 1e-13]), Some(1));
        // Strictly past the tolerance is accepted.
        assert_eq!(fold_batch(10.0, &[5.0, 3.0, 3.0 - 1e-9]), Some(2));
        // Empty batch.
        assert_eq!(fold_batch(0.0, &[]), None);
        // A NaN incumbent accepts nothing.
        assert_eq!(fold_batch(f64::NAN, &[-1.0, -2.0]), None);
    }

    /// The pair phase's mid-batch skip: a joint move equal to the
    /// running incumbent is neither traced nor accepted, and the
    /// incumbent it is compared against shifts with each acceptance.
    #[test]
    fn fold_skips_moves_onto_the_running_incumbent() {
        let value = |v: f64| ObjectiveValue { energy: v, penalized: v };
        let mut greedy = Greedy::new(vec![0, 0], value(5.0));
        let moves: Vec<PolishMove> = vec![
            vec![(0, 0), (1, 0)],
            vec![(0, 1), (1, 1)],
            vec![(0, 1), (1, 1)],
            vec![(0, 0), (1, 0)],
        ];
        let values = [value(-9.0), value(4.0), value(-9.0), value(3.0)];
        assert!(greedy.fold(&moves, &values));
        // Moves 0 (the start) and 2 (the freshly accepted state) are
        // skipped; move 3 returns to the start at a better value.
        assert_eq!(greedy.trace, vec![(4.0, 4.0), (3.0, 3.0)]);
        assert_eq!(greedy.best_config, vec![0, 0]);
        assert_eq!(greedy.best_value, value(3.0));
        assert_eq!(greedy.last_accept, Some(2));
    }
}
