#include "qoc/exec/observable.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/gates.hpp"

namespace qoc::exec {

namespace {

bool qwc_compatible(const std::string& basis, const std::string& paulis) {
  for (std::size_t q = 0; q < basis.size(); ++q) {
    const char b = basis[q];
    const char p = paulis[q];
    if (b != 'I' && p != 'I' && b != p) return false;
  }
  return true;
}

// Basis-change entries hoisted to namespace scope so apply_suffix does
// not rebuild a heap Matrix per (evaluation, group) pair. Values are
// exactly the sim::gate_h() / sim::gate_sdg() matrix entries, and
// Statevector::apply_1q(const Matrix&) only copies entries to the stack
// before dispatching, so this is bit-identical to the Matrix path.
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);
const linalg::cplx kHEntries[4] = {kInvSqrt2, kInvSqrt2, kInvSqrt2,
                                   -kInvSqrt2};
const linalg::cplx kSdgEntries[4] = {1.0, 0.0, 0.0, -linalg::kI};

}  // namespace

CompiledObservable CompiledObservable::compile(
    int n_qubits, std::span<const ObservableTerm> terms) {
  if (n_qubits < 1 || n_qubits > 30)
    throw std::invalid_argument("CompiledObservable: n_qubits out of [1,30]");
  CompiledObservable obs;
  obs.n_qubits_ = n_qubits;
  obs.terms_.assign(terms.begin(), terms.end());

  for (std::size_t t = 0; t < obs.terms_.size(); ++t) {
    const auto& term = obs.terms_[t];
    if (static_cast<int>(term.paulis.size()) != n_qubits)
      throw std::invalid_argument(
          "CompiledObservable: term length must equal n_qubits");

    std::uint64_t z_mask = 0;
    for (int q = 0; q < n_qubits; ++q) {
      const char c = term.paulis[static_cast<std::size_t>(q)];
      if (c != 'I' && c != 'X' && c != 'Y' && c != 'Z')
        throw std::invalid_argument(
            std::string("CompiledObservable: bad Pauli '") + c + "'");
      if (c != 'I') z_mask |= qubit_bit(q, n_qubits);
    }
    if (z_mask == 0) {
      obs.constant_ += term.coeff;
      continue;
    }

    // Greedy qubit-wise-commuting packing: first compatible group wins.
    Group* home = nullptr;
    for (auto& g : obs.groups_)
      if (qwc_compatible(g.basis, term.paulis)) {
        home = &g;
        break;
      }
    if (home == nullptr) {
      obs.groups_.emplace_back();
      home = &obs.groups_.back();
      home->basis.assign(static_cast<std::size_t>(n_qubits), 'I');
    }
    for (int q = 0; q < n_qubits; ++q) {
      const char c = term.paulis[static_cast<std::size_t>(q)];
      if (c != 'I') home->basis[static_cast<std::size_t>(q)] = c;
    }
    home->measured_mask |= z_mask;
    home->terms.push_back({z_mask, term.coeff, t});
  }

  // Compile each group's merged basis into its measurement suffix.
  for (auto& g : obs.groups_) {
    for (int q = 0; q < n_qubits; ++q) {
      const char c = g.basis[static_cast<std::size_t>(q)];
      if (c == 'X') g.suffix.push_back({q, false});
      else if (c == 'Y') g.suffix.push_back({q, true});
    }
  }
  return obs;
}

double CompiledObservable::expectation(const sim::Statevector& psi) const {
  if (psi.num_qubits() != n_qubits_)
    throw std::invalid_argument("CompiledObservable: state size mismatch");
  // Mirrors vqe::Hamiltonian::expectation term by term (same kernels,
  // same accumulation order) so exact-mode results stay bit-identical to
  // the pre-batching per-term loop.
  double e = 0.0;
  for (const auto& term : terms_) {
    sim::Statevector scratch = psi;
    for (int q = 0; q < n_qubits_; ++q) {
      switch (term.paulis[static_cast<std::size_t>(q)]) {
        case 'X': scratch.apply_pauli_x(q); break;
        case 'Y': scratch.apply_pauli_y(q); break;
        case 'Z': scratch.apply_pauli_z(q); break;
        default: break;
      }
    }
    double acc = 0.0;
    const auto& a = psi.amplitudes();
    const auto& b = scratch.amplitudes();
    for (std::size_t i = 0; i < a.size(); ++i)
      acc += (std::conj(a[i]) * b[i]).real();
    e += term.coeff * acc;
  }
  return e;
}

void CompiledObservable::expectation_lanes(const sim::BatchedStatevector& psi,
                                           std::span<double> out) const {
  if (psi.num_qubits() != n_qubits_)
    throw std::invalid_argument("CompiledObservable: state size mismatch");
  const std::size_t k = psi.lanes();
  if (out.size() != k)
    throw std::invalid_argument("expectation_lanes: out size != lanes");
  for (std::size_t l = 0; l < k; ++l) out[l] = 0.0;
  for (const auto& term : terms_) {
    sim::BatchedStatevector scratch = psi;
    for (int q = 0; q < n_qubits_; ++q) {
      switch (term.paulis[static_cast<std::size_t>(q)]) {
        case 'X': scratch.apply_pauli_x(q); break;
        case 'Y': scratch.apply_pauli_y(q); break;
        case 'Z': scratch.apply_pauli_z(q); break;
        default: break;
      }
    }
    const auto& a = psi.amplitudes();
    const auto& b = scratch.amplitudes();
    const std::size_t dim = psi.dim();
    for (std::size_t l = 0; l < k; ++l) {
      double acc = 0.0;
      for (std::size_t i = 0; i < dim; ++i)
        acc += (std::conj(a[i * k + l]) * b[i * k + l]).real();
      out[l] += term.coeff * acc;
    }
  }
}

const CompiledObservable::Group& CompiledObservable::group(
    std::size_t g) const {
  if (g >= groups_.size())
    throw std::out_of_range("CompiledObservable: group index");
  return groups_[g];
}

void CompiledObservable::apply_suffix(sim::Statevector& psi,
                                      std::size_t g) const {
  for (const auto& bc : group(g).suffix) {
    if (bc.y) psi.apply_1q(kSdgEntries, bc.qubit);
    psi.apply_1q(kHEntries, bc.qubit);
  }
}

double CompiledObservable::group_energy_from_counts(
    const sim::ShotCounts& counts, std::size_t g) const {
  double e = 0.0;
  for (const auto& term : group(g).terms) {
    std::int64_t parity_sum = 0;
    for (std::size_t j = 0; j < counts.outcomes.size(); ++j) {
      const std::int64_t n = counts.counts[j];
      parity_sum +=
          (std::popcount(counts.outcomes[j] & term.z_mask) & 1) ? -n : n;
    }
    e += term.coeff * (static_cast<double>(parity_sum) / counts.shots);
  }
  return e;
}

}  // namespace qoc::exec
