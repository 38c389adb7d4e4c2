#pragma once
// N-qubit statevector simulator.
//
// This is the substrate the paper calls "Classical-Train": amplitudes are
// held in a 2^n complex vector, gates are applied by in-place sparse
// updates, and measurement is simulated by sampling from |amplitude|^2
// (exactly the baseline described in Sec. 4.1 of the paper). The same
// engine also holds the device backends' density matrices (a 2n-qubit
// vector, see qoc::backend::NoisyBackend), which is why the gate methods
// take non-unitary matrices too (superoperators).
//
// Bit convention: qubit 0 is the MOST significant bit of the basis index.
// |q0 q1 ... q_{n-1}> corresponds to index (q0 << (n-1)) | ... | q_{n-1}.
//
// Gate applications dispatch through the vectorized, cache-blocked
// kernel layer in qoc/sim/kernels.hpp (scalar reference / portable
// blocked / AVX2 paths, bit-identical across modes); the methods here
// validate operands and compute strides.

#include <cstdint>
#include <vector>

#include "qoc/common/prng.hpp"
#include "qoc/linalg/matrix.hpp"

namespace qoc::sim {

using linalg::cplx;
using linalg::Matrix;

class Statevector {
 public:
  /// Initialises to |0...0>. Throws for n_qubits outside [1, 30].
  explicit Statevector(int n_qubits);

  int num_qubits() const { return n_qubits_; }
  std::size_t dim() const { return amps_.size(); }

  const std::vector<cplx>& amplitudes() const { return amps_; }
  /// Mutable amplitudes, for a pass no gate method expresses (the device
  /// engine's 2-qubit depolarizing pass over a vectorised density
  /// matrix).
  cplx* data() { return amps_.data(); }
  cplx amplitude(std::size_t basis_index) const { return amps_[basis_index]; }

  /// Reset to |0...0>.
  void reset();

  /// Set an arbitrary state (must have dim() entries); not normalised
  /// automatically -- call normalize() if needed.
  void set_amplitudes(std::vector<cplx> amps);

  // ---- Gate application --------------------------------------------------

  /// Apply a 2x2 matrix to `qubit`. Works for non-unitary matrices too.
  void apply_1q(const Matrix& m, int qubit);

  /// Same, from a row-major stack buffer m[4]; avoids the heap-backed
  /// Matrix on hot paths (compiled-plan execution).
  void apply_1q(const cplx* m, int qubit);

  /// Apply a 4x4 matrix to the ordered pair (qubit_a, qubit_b), where
  /// qubit_a indexes the higher bit of the 4x4 matrix.
  void apply_2q(const Matrix& m, int qubit_a, int qubit_b);

  /// Same, from a row-major stack buffer m[16].
  void apply_2q(const cplx* m, int qubit_a, int qubit_b);

  // Specialized kernels for structured gates. Each computes exactly the
  // arithmetic of the generic dense path with the known-zero terms
  // dropped, so results are bit-identical (up to the sign of zeros, which
  // cannot affect probabilities or expectation values).

  /// diag(d0, d1) on one qubit (RZ, phase, S/T family).
  void apply_diag_1q(cplx d0, cplx d1, int qubit);

  /// diag(d00, d01, d10, d11) on an ordered pair (RZZ, CP cores).
  void apply_diag_2q(cplx d00, cplx d01, cplx d10, cplx d11, int qubit_a,
                     int qubit_b);

  /// Controlled-X: swaps the target pair where the control bit is 1.
  void apply_cx(int control, int target);

  /// Controlled-Z: negates amplitudes where both bits are 1.
  void apply_cz(int qubit_a, int qubit_b);

  /// SWAP: exchanges the |01> and |10> amplitudes of the pair.
  void apply_swap(int qubit_a, int qubit_b);

  /// Apply a 2^k x 2^k matrix to an ordered list of k distinct qubits.
  /// qubits[0] is the highest bit of the matrix index. k <= 6.
  void apply_matrix(const Matrix& m, const std::vector<int>& qubits);

  /// Fast Pauli applications (avoid the generic matrix path).
  void apply_pauli_x(int qubit);
  void apply_pauli_y(int qubit);
  void apply_pauli_z(int qubit);

  // ---- Measurement & observables -----------------------------------------

  /// <Z_qubit> in [-1, 1], computed exactly from amplitudes.
  double expectation_z(int qubit) const;

  /// Exact <Z> for every qubit at once (single pass over amplitudes).
  std::vector<double> expectation_z_all() const;

  /// Probability of each basis state (|amp|^2).
  std::vector<double> probabilities() const;

  /// Probability that `qubit` reads 1.
  double probability_one(int qubit) const;

  /// Draw `shots` full-register samples from |amp|^2; returns basis-state
  /// indices in draw order. Inverse-CDF sampling through sim::ShotSampler:
  /// exactly one rng.uniform() per shot, in shot order. Throws
  /// std::invalid_argument for shots < 0 and std::domain_error when the
  /// probabilities sum to a non-finite total (e.g. a NaN amplitude).
  std::vector<std::uint64_t> sample(int shots, Prng& rng) const;

  /// Destructively measure one qubit in the Z basis: collapses the state
  /// and returns the outcome (0 or 1).
  int measure_qubit(int qubit, Prng& rng);

  // ---- Norm management ----------------------------------------------------
  double norm() const;          // sqrt(sum |amp|^2)
  double norm_squared() const;  // sum |amp|^2
  void normalize();             // divide by norm(); throws if norm ~ 0

  /// |<other|this>|^2; states must have matching dimension.
  double fidelity(const Statevector& other) const;

 private:
  int n_qubits_;
  std::vector<cplx> amps_;
};

}  // namespace qoc::sim
