#pragma once
// Density-matrix simulator: exact mixed-state evolution under gates and
// CPTP noise channels.
//
// It applies gates and Kraus channels one at a time, each operator K as
// K rho K^dagger: the reference the channel tests check physics against,
// and the state of the reference device (device_reference.hpp) that
// NoisyBackend's fused superoperator engine is checked against. Test
// support only; the library does not use it.
//
// Same bit convention as Statevector: qubit 0 is the most significant bit
// of a basis index. rho is stored row-major, dim x dim.

#include <vector>

#include "qoc/linalg/matrix.hpp"
#include "qoc/sim/statevector.hpp"

namespace qoc::sim {

class DensityMatrix {
 public:
  /// Initialises to |0...0><0...0|. n_qubits limited to 12 (4^12 entries).
  explicit DensityMatrix(int n_qubits);

  /// rho = |psi><psi|.
  static DensityMatrix from_statevector(const Statevector& psi);

  int num_qubits() const { return n_qubits_; }
  std::size_t dim() const { return dim_; }

  linalg::cplx element(std::size_t row, std::size_t col) const {
    return rho_[row * dim_ + col];
  }

  void reset();

  /// rho <- U rho U^dagger, U acting on the given qubits (k <= 3).
  void apply_unitary(const linalg::Matrix& u, const std::vector<int>& qubits);

  /// rho <- sum_i K_i rho K_i^dagger for a Kraus set on the given qubits.
  void apply_channel(const std::vector<linalg::Matrix>& kraus,
                     const std::vector<int>& qubits);

  // ---- Observables ----------------------------------------------------------
  double trace_real() const;
  /// Tr(rho^2) in [1/2^n, 1]; 1 iff pure.
  double purity() const;
  /// <Z_q> = sum over diagonal with parity sign.
  double expectation_z(int qubit) const;
  std::vector<double> expectation_z_all() const;
  /// Diagonal of rho (basis-state populations).
  std::vector<double> probabilities() const;

 private:
  /// rho <- M rho M^dagger for each operator M of `ops` on `qubits`, the
  /// results summed when `sum` (one operator replaces rho otherwise).
  /// Walks rho one group of 2^k rows at a time: the rows an operator on
  /// k qubits mixes.
  void conjugate(const std::vector<linalg::Matrix>& ops,
                 const std::vector<int>& qubits, bool sum);

  int n_qubits_;
  std::size_t dim_;
  std::vector<linalg::cplx> rho_;
};

}  // namespace qoc::sim
