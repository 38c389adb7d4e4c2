#pragma once
// Compiled Pauli-string observables: measure once per basis, not once
// per term.
//
// A VQE Hamiltonian is a sum of Pauli-string terms. Measuring it on a
// sampling backend naively costs one circuit execution per non-identity
// term (each term wants its own measurement basis). But qubit-wise
// commuting (QWC) terms -- terms whose single-qubit Paulis agree
// wherever both are non-identity -- share a basis: one basis-change
// suffix rotates every measured qubit into Z, and every term of the
// group is then a parity of the same sampled bitstrings.
//
// CompiledObservable does this classification ONCE, the same way
// exec::CompiledCircuit hoists structure-dependent circuit work:
//   * identity terms fold into an additive constant,
//   * the remaining terms are greedily packed into QWC groups,
//   * each group compiles to a basis-change suffix (H for X, Sdg+H for
//     Y, nothing for Z) plus per-term Z-parity bit masks.
//
// Backend::expect_batch(plan, observable, evals, threads) consumes this:
// one ansatz state per evaluation, one measured execution per group.
//
// The exact (non-sampling) path deliberately does NOT use the groups:
// expectation() replays the classic per-term loop (clone, apply Paulis,
// inner product) with identical arithmetic in identical order, so its
// results are bit-identical to vqe::Hamiltonian::expectation and to the
// pre-batching estimator.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qoc/sim/statevector.hpp"

namespace qoc::sim {
class BatchedStatevector;
}

namespace qoc::exec {

/// One Pauli-string observable term: a string over {I, X, Y, Z} with one
/// character per qubit (qubit 0 first), scaled by coeff. Mirrors
/// vqe::PauliTerm without making exec depend on the vqe layer.
struct ObservableTerm {
  std::string paulis;
  double coeff = 0.0;
};

class CompiledObservable {
 public:
  /// One basis-change element of a group's measurement suffix.
  struct BasisChange {
    std::int32_t qubit = -1;
    bool y = false;  // true: Sdg then H (Y basis); false: H (X basis)
  };

  /// One term measured inside a group.
  struct GroupTerm {
    std::uint64_t z_mask = 0;  // sample-bit mask of the non-I qubits
    double coeff = 0.0;
    std::size_t term_index = 0;  // index into terms()
  };

  /// A set of qubit-wise commuting terms sharing one measurement basis.
  struct Group {
    std::string basis;  // merged per-qubit basis ('I' where unmeasured)
    std::uint64_t measured_mask = 0;  // union of the member z_masks
    std::vector<BasisChange> suffix;
    std::vector<GroupTerm> terms;
  };

  /// Classify `terms` for an n_qubits-qubit register. Validates lengths
  /// and characters; throws std::invalid_argument on malformed input.
  static CompiledObservable compile(int n_qubits,
                                    std::span<const ObservableTerm> terms);

  int num_qubits() const { return n_qubits_; }
  const std::vector<ObservableTerm>& terms() const { return terms_; }

  /// Additive contribution of the all-identity terms.
  double constant() const { return constant_; }

  /// Commuting groups; one measured circuit execution each when
  /// sampling. Empty iff every term is identity.
  const std::vector<Group>& groups() const { return groups_; }

  /// Exact <psi|H|psi>. Per-term loop over ALL terms in their original
  /// order with the same kernels and accumulation order as
  /// vqe::Hamiltonian::expectation -- bit-identical results.
  double expectation(const sim::Statevector& psi) const;

  /// Exact <psi_l|H|psi_l> for every lane of a k-wide batched state at
  /// once: the same per-term loop as expectation(), but each term's
  /// Pauli product is applied once per LANE GROUP instead of once per
  /// lane. `out` must have psi.lanes() entries; lane L's accumulation
  /// order matches expectation() on lane L's state exactly.
  void expectation_lanes(const sim::BatchedStatevector& psi,
                         std::span<double> out) const;

  /// Apply group g's basis-change suffix to `psi` (rotates every
  /// measured qubit into the Z basis). Throws std::out_of_range for g >=
  /// groups().size(). A sampled readout then reads each member term as
  /// the mean parity of its z_mask over the rotated state's outcomes
  /// (sim::ShotSampler::parity_means).
  void apply_suffix(sim::Statevector& psi, std::size_t g) const;

  /// Sample-bit mask convention: qubit q contributes bit (n-1-q), the
  /// position Statevector::sample uses for basis-state indices.
  static std::uint64_t qubit_bit(int qubit, int n_qubits) {
    return std::uint64_t{1} << (n_qubits - 1 - qubit);
  }

 private:
  CompiledObservable() = default;

  int n_qubits_ = 0;
  double constant_ = 0.0;
  std::vector<ObservableTerm> terms_;
  std::vector<Group> groups_;
};

}  // namespace qoc::exec
