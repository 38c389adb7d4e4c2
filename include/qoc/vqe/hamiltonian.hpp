#pragma once
// Pauli-string Hamiltonians for Variational Quantum Eigensolver workloads.
//
// The paper (Sec. 1, Sec. 5) notes the parameter-shift + gradient-pruning
// machinery "can also be applied to other PQCs such as VQE"; this module
// plus qoc::vqe::VqeSolver demonstrates exactly that: the same shift rule
// computes dE/dtheta and the same pruner skips unreliable gradients.

#include <string>
#include <vector>

#include "qoc/exec/observable.hpp"
#include "qoc/linalg/matrix.hpp"
#include "qoc/sim/statevector.hpp"

namespace qoc::vqe {

/// One term c * P_1 (x) P_2 (x) ... (x) P_n, encoded as a string over
/// {I, X, Y, Z} with one character per qubit (index 0 first).
struct PauliTerm {
  std::string paulis;
  double coeff = 0.0;
};

class Hamiltonian {
 public:
  /// Throws std::invalid_argument unless 1 <= n_qubits <= 30 (the
  /// CompiledObservable range) and every term has n_qubits characters
  /// from {I, X, Y, Z} and a finite coefficient.
  Hamiltonian(int n_qubits, std::vector<PauliTerm> terms);

  int num_qubits() const { return n_qubits_; }
  const std::vector<PauliTerm>& terms() const { return terms_; }

  /// Exact <psi|H|psi>.
  double expectation(const sim::Statevector& psi) const;

  /// Exact <psi|P|psi> for one term's Pauli string (coeff excluded).
  double term_expectation(const sim::Statevector& psi,
                          const PauliTerm& term) const;

  /// Dense matrix representation, for exact diagonalisation. Throws
  /// std::invalid_argument above 10 qubits.
  linalg::Matrix to_matrix() const;

  /// Exact ground-state energy via the Jacobi eigensolver (to_matrix's
  /// 10-qubit limit applies).
  double exact_ground_energy() const;

  // ---- Model Hamiltonians --------------------------------------------------

  /// Molecular hydrogen in the 2-qubit reduced (Bravyi-Kitaev tapered)
  /// encoding at the equilibrium bond length, after O'Malley et al. (2016):
  /// H = g0 II + g1 ZI + g2 IZ + g3 ZZ + g4 XX + g5 YY.
  static Hamiltonian h2_minimal();

  /// Transverse-field Ising chain: -J sum Z_i Z_{i+1} - h sum X_i.
  static Hamiltonian transverse_ising(int n_qubits, double j, double h);

  /// Antiferromagnetic Heisenberg chain:
  /// J sum (X_i X_{i+1} + Y_i Y_{i+1} + Z_i Z_{i+1}).
  static Hamiltonian heisenberg(int n_qubits, double j);

 private:
  int n_qubits_;
  std::vector<PauliTerm> terms_;
};

/// Lower a Hamiltonian into the exec layer's commuting-grouped
/// measurement program (see exec::CompiledObservable): identity terms
/// fold into a constant, the rest pack into qubit-wise commuting groups
/// with one basis-change suffix each. This is what
/// Backend::expect_batch consumes; EnergyEstimator holds one.
exec::CompiledObservable compile_observable(const Hamiltonian& hamiltonian);

}  // namespace qoc::vqe
