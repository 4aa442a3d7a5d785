//! Chemistry set-up: geometry → integrals → SCF → active space →
//! qubit mapping → exact reference.
//!
//! The untraced path calls the public pipeline entry points
//! (`ChemPipeline::build` then `problem`) and times them as one span.
//! The traced path calls the same stages one public function at a time,
//! in the order `ChemPipeline::from_molecule` and `ChemPipeline::problem`
//! call them, so each stage gets its own span; the workloads check that
//! both paths lead to bit-identical energies.

use std::time::Instant;

use cafqa_chem::{
    active_space_integrals, compute_ao_integrals, fci_ground_state, hf_bitstring, number_operator,
    qubit_hamiltonian, rhf, s_squared_operator, select_active_space, sz_operator, taper_two_qubits,
    BasisSet, ChemPipeline, FciError, Mapping, MolecularProblem, MoleculeKind, ScfError, ScfKind,
    ScfOptions,
};

/// Accumulated chemistry spans of a traced pass.
#[derive(Debug, Default, Clone)]
pub struct ChemSplit {
    /// Basis construction plus AO integrals.
    pub integrals_s: f64,
    /// RHF, including the robust-preset retry.
    pub scf_s: f64,
    /// Active-space selection and the MO-basis spin integrals.
    pub active_space_s: f64,
    /// Qubit Hamiltonian, tapering, penalty operators and HF state.
    pub mapping_s: f64,
    /// FCI reference.
    pub exact_s: f64,
    /// Problems built.
    pub problems: u64,
    /// Hamiltonian terms over all problems.
    pub terms: u64,
    /// Problems whose SCF did not converge.
    pub unconverged: u64,
}

impl ChemSplit {
    /// Sum of the stage spans.
    pub fn total_s(&self) -> f64 {
        self.integrals_s + self.scf_s + self.active_space_s + self.mapping_s + self.exact_s
    }

    /// Writes the `chem.*` per-layer metrics.
    pub fn report(&self, report: &mut crate::Report) {
        report.layer("chem.integrals_s", self.integrals_s);
        report.layer("chem.scf_s", self.scf_s);
        report.layer("chem.active_space_s", self.active_space_s);
        report.layer("chem.mapping_s", self.mapping_s);
        report.layer("chem.exact_s", self.exact_s);
        report.layer("chem.terms", self.terms as f64 / self.problems.max(1) as f64);
        report.layer("chem.scf_unconverged", self.unconverged as f64);
    }
}

/// A ready-to-search problem and the time its set-up took.
pub struct Built {
    /// The qubit-side problem.
    pub problem: MolecularProblem,
    /// CPU seconds of the calling thread in `ChemPipeline::build` plus
    /// `problem()` (or the traced stages that replace them).
    pub setup_cpu_s: f64,
}

/// Builds the default-sector RHF problem through the public pipeline
/// entry points, or stage by stage into `split` when tracing.
pub fn build(
    kind: MoleculeKind,
    bond: f64,
    exact: bool,
    split: Option<&mut ChemSplit>,
) -> Result<Built, String> {
    let clock = crate::Stopwatch::start(crate::CpuClock::Thread);
    let problem = match split {
        None => {
            let pipe = ChemPipeline::build(kind, bond, &ScfKind::Rhf)
                .map_err(|e| format!("{} at {bond:.3} Å: {e}", kind.name()))?;
            let (na, nb) = pipe.default_sector();
            pipe.problem(na, nb, exact)
                .map_err(|e| format!("{} at {bond:.3} Å: {e}", kind.name()))?
        }
        Some(split) => staged(kind, bond, exact, split)?,
    };
    Ok(Built { problem, setup_cpu_s: clock.cpu_s() })
}

fn staged(
    kind: MoleculeKind,
    bond: f64,
    exact: bool,
    split: &mut ChemSplit,
) -> Result<MolecularProblem, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{} at {bond:.3} Å: {e}", kind.name());
    let molecule = kind.geometry(bond);

    let clock = Instant::now();
    let basis = BasisSet::sto3g(&molecule);
    let integrals = compute_ao_integrals(&molecule, &basis);
    split.integrals_s += clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let electrons = molecule.num_electrons();
    let scf = match rhf(&integrals, electrons, &ScfOptions::default()) {
        Ok(r) => Ok((r, true)),
        Err(ScfError::NotConverged(_)) => match rhf(&integrals, electrons, &ScfOptions::robust()) {
            Ok(r) => Ok((r, true)),
            Err(ScfError::NotConverged(r)) => Ok((*r, false)),
            Err(e) => Err(e),
        },
        Err(e) => Err(e),
    };
    split.scf_s += clock.elapsed().as_secs_f64();
    let (scf, converged) = scf.map_err(|e| fail(&e))?;

    let clock = Instant::now();
    let space = select_active_space(kind, &basis, &scf);
    let si = active_space_integrals(&integrals, &scf, &space);
    split.active_space_s += clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let (na, nb) = (si.n_alpha, si.n_beta);
    let nact = si.n;
    if 2 * nact > 64 {
        return Err(fail(&format!("{} qubits exceed the 64-qubit register", 2 * nact)));
    }
    let full = qubit_hamiltonian(&si, Mapping::Parity);
    let hamiltonian = taper_two_qubits(&full, na, nb);
    let number_op = taper_two_qubits(&number_operator(nact, Mapping::Parity), na, nb);
    let sz_op = taper_two_qubits(&sz_operator(nact, Mapping::Parity), na, nb);
    let s_squared_op = taper_two_qubits(&s_squared_operator(nact, Mapping::Parity), na, nb);
    let hf_bits = hf_bitstring(Mapping::Parity, nact, na, nb, true);
    let hf_energy = hamiltonian.expectation_basis(hf_bits);
    split.mapping_s += clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let exact_energy = if exact {
        match fci_ground_state(&si, na, nb) {
            Ok(r) => Some(r.energy),
            Err(FciError::TooLarge { .. }) => None,
            Err(e) => return Err(fail(&e)),
        }
    } else {
        None
    };
    split.exact_s += clock.elapsed().as_secs_f64();

    split.problems += 1;
    split.terms += hamiltonian.num_terms() as u64;
    split.unconverged += u64::from(!converged);
    Ok(MolecularProblem {
        n_qubits: 2 * nact - 2,
        hamiltonian,
        number_op,
        sz_op,
        s_squared_op,
        hf_bits,
        hf_energy,
        exact_energy,
        n_alpha: na,
        n_beta: nb,
        scf_energy: scf.energy,
        scf_converged: converged,
    })
}
