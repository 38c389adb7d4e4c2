#pragma once
// Density-matrix simulator: exact mixed-state evolution under gates and
// CPTP noise channels.
//
// It applies gates and Kraus channels one at a time with gather/scatter
// loops: the reference the channel tests check physics against. The
// device backends hold their density matrices in a fused superoperator
// engine instead (qoc::backend, backend.cpp).
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
  /// Expand an operator on `qubits` to the full 2^n x 2^n matrix indexes
  /// lazily: we apply on the flattened rho via index arithmetic instead.
  void apply_one_side(const linalg::Matrix& m, const std::vector<int>& qubits,
                      bool left);

  int n_qubits_;
  std::size_t dim_;
  std::vector<linalg::cplx> rho_;
};

}  // namespace qoc::sim
