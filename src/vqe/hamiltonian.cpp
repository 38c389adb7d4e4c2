#include "qoc/vqe/hamiltonian.hpp"

#include <cmath>
#include <stdexcept>

#include "qoc/linalg/eigen.hpp"
#include "qoc/sim/gates.hpp"

namespace qoc::vqe {

namespace {

int pauli_index(char c) {
  switch (c) {
    case 'I': return 0;
    case 'X': return 1;
    case 'Y': return 2;
    case 'Z': return 3;
    default:
      throw std::invalid_argument(std::string("Hamiltonian: bad Pauli '") +
                                  c + "'");
  }
}

}  // namespace

Hamiltonian::Hamiltonian(int n_qubits, std::vector<PauliTerm> terms)
    : n_qubits_(n_qubits), terms_(std::move(terms)) {
  if (n_qubits < 1 || n_qubits > 30)
    throw std::invalid_argument("Hamiltonian: n_qubits out of [1,30]");
  for (const auto& t : terms_) {
    if (static_cast<int>(t.paulis.size()) != n_qubits)
      throw std::invalid_argument(
          "Hamiltonian: term length must equal n_qubits");
    for (const char c : t.paulis) pauli_index(c);  // validates
    if (!std::isfinite(t.coeff))
      throw std::invalid_argument("Hamiltonian: coefficient is not finite");
  }
}

double Hamiltonian::term_expectation(const sim::Statevector& psi,
                                     const PauliTerm& term) const {
  if (psi.num_qubits() != n_qubits_)
    throw std::invalid_argument("Hamiltonian: state size mismatch");
  sim::Statevector scratch = psi;
  for (int q = 0; q < n_qubits_; ++q) {
    switch (term.paulis[static_cast<std::size_t>(q)]) {
      case 'X': scratch.apply_pauli_x(q); break;
      case 'Y': scratch.apply_pauli_y(q); break;
      case 'Z': scratch.apply_pauli_z(q); break;
      default: break;
    }
  }
  // <psi | P psi> is real for Hermitian P.
  double acc = 0.0;
  const auto& a = psi.amplitudes();
  const auto& b = scratch.amplitudes();
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += (std::conj(a[i]) * b[i]).real();
  return acc;
}

double Hamiltonian::expectation(const sim::Statevector& psi) const {
  double e = 0.0;
  for (const auto& t : terms_) e += t.coeff * term_expectation(psi, t);
  return e;
}

linalg::Matrix Hamiltonian::to_matrix() const {
  if (n_qubits_ > 10)
    throw std::invalid_argument("Hamiltonian::to_matrix: n_qubits > 10");
  const std::size_t dim = std::size_t{1} << n_qubits_;
  linalg::Matrix h(dim, dim);
  for (const auto& t : terms_) {
    std::vector<linalg::Matrix> factors;
    factors.reserve(static_cast<std::size_t>(n_qubits_));
    for (const char c : t.paulis)
      factors.push_back(sim::pauli(pauli_index(c)));
    h += linalg::kron_all(factors) * linalg::cplx{t.coeff, 0.0};
  }
  return h;
}

double Hamiltonian::exact_ground_energy() const {
  return linalg::hermitian_min_eigenvalue(to_matrix());
}

exec::CompiledObservable compile_observable(const Hamiltonian& hamiltonian) {
  std::vector<exec::ObservableTerm> terms;
  terms.reserve(hamiltonian.terms().size());
  for (const auto& t : hamiltonian.terms()) terms.push_back({t.paulis, t.coeff});
  return exec::CompiledObservable::compile(hamiltonian.num_qubits(), terms);
}

Hamiltonian Hamiltonian::h2_minimal() {
  // O'Malley et al., PRX 6, 031007 (2016), R = 0.75 Angstrom (tapered to
  // 2 qubits; energies in Hartree).
  return Hamiltonian(2, {{"II", -0.4804},
                         {"ZI", +0.3435},
                         {"IZ", -0.4347},
                         {"ZZ", +0.5716},
                         {"XX", +0.0910},
                         {"YY", +0.0910}});
}

Hamiltonian Hamiltonian::transverse_ising(int n_qubits, double j, double h) {
  std::vector<PauliTerm> terms;
  for (int q = 0; q + 1 < n_qubits; ++q) {
    std::string p(static_cast<std::size_t>(n_qubits), 'I');
    p[static_cast<std::size_t>(q)] = 'Z';
    p[static_cast<std::size_t>(q + 1)] = 'Z';
    terms.push_back({p, -j});
  }
  for (int q = 0; q < n_qubits; ++q) {
    std::string p(static_cast<std::size_t>(n_qubits), 'I');
    p[static_cast<std::size_t>(q)] = 'X';
    terms.push_back({p, -h});
  }
  return Hamiltonian(n_qubits, std::move(terms));
}

Hamiltonian Hamiltonian::heisenberg(int n_qubits, double j) {
  std::vector<PauliTerm> terms;
  for (int q = 0; q + 1 < n_qubits; ++q)
    for (const char pauli : {'X', 'Y', 'Z'}) {
      std::string p(static_cast<std::size_t>(n_qubits), 'I');
      p[static_cast<std::size_t>(q)] = pauli;
      p[static_cast<std::size_t>(q + 1)] = pauli;
      terms.push_back({p, j});
    }
  return Hamiltonian(n_qubits, std::move(terms));
}

}  // namespace qoc::vqe
