//! MaxCut workloads for CAFQA (the MaxCut1/MaxCut2 entries of Fig. 15).
//!
//! The paper notes CAFQA "is suited widely across variational algorithms
//! (e.g., QAOA)" and reports BO iteration counts for two MaxCut problems;
//! this module generates the Ising Hamiltonians those runs minimize.

use cafqa_linalg::Complex64;
use cafqa_pauli::{Pauli, PauliOp, PauliString};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An undirected weighted graph.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Number of vertices.
    pub n: usize,
    /// Edges as `(u, v, weight)` with `u < v`.
    pub edges: Vec<(usize, usize, f64)>,
}

impl Graph {
    /// A seeded Erdős–Rényi graph with unit weights.
    pub fn random(n: usize, edge_probability: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < edge_probability {
                    edges.push((u, v, 1.0));
                }
            }
        }
        Graph { n, edges }
    }

    /// A seeded ring (cycle) graph `0−1−…−(n−1)−0` with unit weights.
    /// Rings are bipartite for even `n` (max cut = n) and frustrated for
    /// odd `n` (max cut = n − 1) — the structured rows of the throughput
    /// bench and the fig15 extension.
    ///
    /// # Panics
    ///
    /// Panics below 3 vertices.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 vertices");
        let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|u| (u, u + 1, 1.0)).collect();
        edges.push((0, n - 1, 1.0));
        edges.sort_unstable_by_key(|e| (e.0, e.1));
        Graph { n, edges }
    }

    /// The complete graph `K_n` with unit weights — the densest (and for
    /// the Ising solver, highest-degree) instance class; its max cut is
    /// `⌊n/2⌋·⌈n/2⌉`.
    pub fn complete(n: usize) -> Self {
        let edges = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v, 1.0))).collect();
        Graph { n, edges }
    }

    /// A seeded Erdős–Rényi graph with uniform random weights in
    /// `[0.1, 1.0)` — same topology stream as [`Graph::random`] would
    /// draw, but every edge also consumes one weight draw, so the two
    /// generators are distinct deterministic families.
    pub fn random_weighted(n: usize, edge_probability: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < edge_probability {
                    edges.push((u, v, rng.gen_range(0.1..1.0)));
                }
            }
        }
        Graph { n, edges }
    }

    /// The cut value of a vertex bipartition given as a bitmask.
    pub fn cut_value(&self, assignment: u64) -> f64 {
        self.edges
            .iter()
            .filter(|&&(u, v, _)| ((assignment >> u) ^ (assignment >> v)) & 1 == 1)
            .map(|&(_, _, w)| w)
            .sum()
    }

    /// Exact maximum cut by exhaustive search over a Gray-code walk:
    /// step `k` moves exactly vertex `trailing_zeros(k)` across the
    /// partition, so each of the `2^n` assignments costs one O(degree)
    /// cut update instead of an O(|E|) rescan. The walk only *selects*
    /// the best assignment (`k ^ (k >> 1)` at step `k`); the returned
    /// value is [`cut_value`](Self::cut_value) of it, recomputed from
    /// scratch, so the 2^n-step accumulation drift never leaves this
    /// function and the result equals the plain enumeration
    /// ([`max_cut_exact_rescan`](Self::max_cut_exact_rescan), kept as
    /// the test oracle) bit for bit.
    ///
    /// # Panics
    ///
    /// Panics above 28 vertices (the rescan capped at 24; the
    /// incremental walk buys the extra headroom).
    pub fn max_cut_exact(&self) -> f64 {
        assert!(self.n <= 28, "exhaustive max-cut limited to 28 vertices");
        let mut adj = vec![Vec::new(); self.n];
        for &(u, v, w) in &self.edges {
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
        // side[v] ∈ {0, 1}; crossing edges flip in or out as one
        // endpoint moves: an edge whose endpoints agree gains w, one
        // whose endpoints differ loses it.
        let mut side = vec![0u8; self.n];
        let mut cut = 0.0f64;
        let mut best = 0.0f64;
        let mut best_bits = 0u64;
        for k in 1u64..(1u64 << self.n) {
            let q = k.trailing_zeros() as usize;
            for &(v, w) in &adj[q] {
                cut += if side[q] == side[v] { w } else { -w };
            }
            side[q] ^= 1;
            if cut > best {
                best = cut;
                best_bits = k ^ (k >> 1);
            }
        }
        self.cut_value(best_bits)
    }

    /// The pre-Gray-code exhaustive loop, one full `O(|E|)` rescan per
    /// assignment — quadratically slower, but with no incremental state
    /// at all, which makes it the oracle the fast walk is tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics above 24 vertices.
    pub fn max_cut_exact_rescan(&self) -> f64 {
        assert!(self.n <= 24, "exhaustive max-cut rescan limited to 24 vertices");
        (0..(1u64 << self.n)).map(|a| self.cut_value(a)).fold(f64::MIN, f64::max)
    }
}

/// The Ising MaxCut Hamiltonian `H = Σ_{(u,v)} w/2 (Z_u Z_v − 1)`:
/// minimizing `⟨H⟩` maximizes the cut, with `⟨H⟩ = −cut` on basis states.
pub fn maxcut_hamiltonian(graph: &Graph) -> PauliOp {
    let mut op = PauliOp::zero(graph.n);
    for &(u, v, w) in &graph.edges {
        let zz = PauliString::identity(graph.n).with_pauli(u, Pauli::Z).with_pauli(v, Pauli::Z);
        op.add_term(Complex64::from(w / 2.0), zz);
        op.add_term(Complex64::from(-w / 2.0), PauliString::identity(graph.n));
    }
    op
}

/// The two MaxCut instances used in the Fig. 15 reproduction.
pub fn paper_maxcut_instances() -> [(String, Graph); 2] {
    [
        ("MaxCut1".to_string(), Graph::random(8, 0.5, 17)),
        ("MaxCut2".to_string(), Graph::random(12, 0.35, 29)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::CliffordObjective;
    use crate::runner::{run_cafqa, CafqaOptions};
    use cafqa_circuit::EfficientSu2;

    #[test]
    fn hamiltonian_energy_equals_negative_cut() {
        let g = Graph::random(6, 0.6, 3);
        let h = maxcut_hamiltonian(&g);
        for assignment in [0u64, 0b101010, 0b111000, 0b010101] {
            let e = h.expectation_basis(assignment);
            assert!((e + g.cut_value(assignment)).abs() < 1e-12);
        }
    }

    #[test]
    fn cafqa_finds_max_cut_on_small_graph() {
        // MaxCut ground states are computational basis states, i.e.
        // stabilizer states — CAFQA can hit them exactly.
        let g = Graph::random(6, 0.5, 7);
        let best = g.max_cut_exact();
        let h = maxcut_hamiltonian(&g);
        let ansatz = EfficientSu2::new(6, 1);
        let opts = CafqaOptions { warmup: 300, iterations: 500, ..Default::default() };
        let result = run_cafqa(&ansatz, &h, vec![], &[], &opts);
        assert!(
            (result.energy + best).abs() < 1e-9,
            "CAFQA {} vs optimum {}",
            result.energy,
            -best
        );
    }

    #[test]
    fn clifford_objective_is_exact_on_basis_configs() {
        let g = Graph::random(5, 0.5, 11);
        let h = maxcut_hamiltonian(&g);
        let ansatz = EfficientSu2::new(5, 1);
        let objective = CliffordObjective::new(&ansatz, &h);
        // The basis-state config for assignment b evaluates to −cut(b).
        for b in [0b00000u64, 0b10101, 0b11011] {
            let cfg = ansatz.basis_state_config(b);
            let v = objective.evaluate(&cfg);
            assert!((v.energy + g.cut_value(b)).abs() < 1e-12);
        }
    }

    #[test]
    fn graph_generation_is_deterministic() {
        let a = Graph::random(10, 0.4, 5);
        let b = Graph::random(10, 0.4, 5);
        assert_eq!(a.edges, b.edges);
        let a = Graph::random_weighted(10, 0.4, 5);
        let b = Graph::random_weighted(10, 0.4, 5);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn gray_code_walk_matches_rescan_oracle() {
        for g in [
            Graph::random(9, 0.4, 13),
            Graph::random_weighted(9, 0.6, 21),
            Graph::ring(7),
            Graph::complete(6),
            Graph { n: 4, edges: Vec::new() },
        ] {
            let fast = g.max_cut_exact();
            let slow = g.max_cut_exact_rescan();
            assert!((fast - slow).abs() < 1e-9, "fast {fast} vs rescan {slow}");
        }
    }

    #[test]
    fn gray_code_walk_equals_rescan_bitwise_on_wide_graphs() {
        // 2^n accumulated updates drift by up to ~1e-10 here; only the
        // from-scratch recomputation at the winning assignment matches.
        for (n, seed) in [(18, 0), (18, 1), (18, 2), (18, 3), (20, 0), (20, 1)] {
            let g = Graph::random_weighted(n, 0.3, seed);
            let (fast, slow) = (g.max_cut_exact(), g.max_cut_exact_rescan());
            assert_eq!(fast.to_bits(), slow.to_bits(), "n {n} seed {seed}: {fast} vs {slow}");
        }
    }

    #[test]
    fn structured_generators_have_known_optima() {
        // Even rings are bipartite (cut = n), odd rings frustrated
        // (cut = n − 1); K_n cuts ⌊n/2⌋·⌈n/2⌉ edges.
        assert_eq!(Graph::ring(8).max_cut_exact(), 8.0);
        assert_eq!(Graph::ring(9).max_cut_exact(), 8.0);
        assert_eq!(Graph::complete(6).max_cut_exact(), 9.0);
        assert_eq!(Graph::complete(7).max_cut_exact(), 12.0);
        assert_eq!(Graph::ring(5).edges.len(), 5);
        assert_eq!(Graph::complete(5).edges.len(), 10);
    }

    #[test]
    fn weighted_generator_bounds_and_topology() {
        let g = Graph::random_weighted(12, 0.5, 99);
        assert!(!g.edges.is_empty());
        assert!(g.edges.iter().all(|&(u, v, w)| u < v && v < 12 && (0.1..1.0).contains(&w)));
    }
}
