#include "qoc/sim/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qoc/sim/kernels.hpp"
#include "qoc/sim/sampler.hpp"

namespace qoc::sim {

namespace {
constexpr int kMaxQubits = 30;
}

Statevector::Statevector(int n_qubits) : n_qubits_(n_qubits) {
  if (n_qubits < 1 || n_qubits > kMaxQubits)
    throw std::invalid_argument("Statevector: n_qubits out of range [1,30]");
  amps_.assign(std::size_t{1} << n_qubits, cplx{0.0, 0.0});
  amps_[0] = 1.0;
}

void Statevector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[0] = 1.0;
}

void Statevector::set_amplitudes(std::vector<cplx> amps) {
  if (amps.size() != amps_.size())
    throw std::invalid_argument("Statevector::set_amplitudes: dim mismatch");
  amps_ = std::move(amps);
}

void Statevector::apply_1q(const Matrix& m, int qubit) {
  if (m.rows() != 2 || m.cols() != 2)
    throw std::invalid_argument("apply_1q: matrix must be 2x2");
  const cplx mm[4] = {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
  apply_1q(mm, qubit);
}

void Statevector::apply_1q(const cplx* m, int qubit) {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("apply_1q: qubit index");
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  kernels::apply_1q(amps_.data(), amps_.size(), stride, m);
}

void Statevector::apply_2q(const Matrix& m, int qubit_a, int qubit_b) {
  if (m.rows() != 4 || m.cols() != 4)
    throw std::invalid_argument("apply_2q: matrix must be 4x4");
  cplx mm[16];
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) mm[r * 4 + c] = m(r, c);
  apply_2q(mm, qubit_a, qubit_b);
}

void Statevector::apply_2q(const cplx* m, int qubit_a, int qubit_b) {
  if (qubit_a == qubit_b)
    throw std::invalid_argument("apply_2q: duplicate qubit");
  if (qubit_a < 0 || qubit_a >= n_qubits_ || qubit_b < 0 ||
      qubit_b >= n_qubits_)
    throw std::out_of_range("apply_2q: qubit index");

  const std::size_t sa = std::size_t{1} << (n_qubits_ - 1 - qubit_a);
  const std::size_t sb = std::size_t{1} << (n_qubits_ - 1 - qubit_b);
  kernels::apply_2q(amps_.data(), amps_.size(), sa, sb, m);
}

void Statevector::apply_diag_1q(cplx d0, cplx d1, int qubit) {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("apply_diag_1q: qubit index");
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  kernels::apply_diag_1q(amps_.data(), amps_.size(), stride, d0, d1);
}

void Statevector::apply_diag_2q(cplx d00, cplx d01, cplx d10, cplx d11,
                                int qubit_a, int qubit_b) {
  if (qubit_a == qubit_b)
    throw std::invalid_argument("apply_diag_2q: duplicate qubit");
  if (qubit_a < 0 || qubit_a >= n_qubits_ || qubit_b < 0 ||
      qubit_b >= n_qubits_)
    throw std::out_of_range("apply_diag_2q: qubit index");
  const std::size_t sa = std::size_t{1} << (n_qubits_ - 1 - qubit_a);
  const std::size_t sb = std::size_t{1} << (n_qubits_ - 1 - qubit_b);
  const cplx d[4] = {d00, d01, d10, d11};
  kernels::apply_diag_2q(amps_.data(), amps_.size(), sa, sb, d);
}

void Statevector::apply_cx(int control, int target) {
  if (control == target)
    throw std::invalid_argument("apply_cx: duplicate qubit");
  if (control < 0 || control >= n_qubits_ || target < 0 ||
      target >= n_qubits_)
    throw std::out_of_range("apply_cx: qubit index");
  const std::size_t sc = std::size_t{1} << (n_qubits_ - 1 - control);
  const std::size_t st = std::size_t{1} << (n_qubits_ - 1 - target);
  kernels::apply_cx(amps_.data(), amps_.size(), sc, st);
}

void Statevector::apply_cz(int qubit_a, int qubit_b) {
  if (qubit_a == qubit_b)
    throw std::invalid_argument("apply_cz: duplicate qubit");
  if (qubit_a < 0 || qubit_a >= n_qubits_ || qubit_b < 0 ||
      qubit_b >= n_qubits_)
    throw std::out_of_range("apply_cz: qubit index");
  const std::size_t sa = std::size_t{1} << (n_qubits_ - 1 - qubit_a);
  const std::size_t sb = std::size_t{1} << (n_qubits_ - 1 - qubit_b);
  kernels::apply_cz(amps_.data(), amps_.size(), sa, sb);
}

void Statevector::apply_swap(int qubit_a, int qubit_b) {
  if (qubit_a == qubit_b)
    throw std::invalid_argument("apply_swap: duplicate qubit");
  if (qubit_a < 0 || qubit_a >= n_qubits_ || qubit_b < 0 ||
      qubit_b >= n_qubits_)
    throw std::out_of_range("apply_swap: qubit index");
  const std::size_t sa = std::size_t{1} << (n_qubits_ - 1 - qubit_a);
  const std::size_t sb = std::size_t{1} << (n_qubits_ - 1 - qubit_b);
  kernels::apply_swap(amps_.data(), amps_.size(), sa, sb);
}

void Statevector::apply_matrix(const Matrix& m, const std::vector<int>& qubits) {
  const std::size_t k = qubits.size();
  if (k == 1) {
    apply_1q(m, qubits[0]);
    return;
  }
  if (k == 2) {
    apply_2q(m, qubits[0], qubits[1]);
    return;
  }
  if (k == 0 || k > 6)
    throw std::invalid_argument("apply_matrix: supports 1..6 qubits");
  const std::size_t sub = std::size_t{1} << k;
  if (m.rows() != sub || m.cols() != sub)
    throw std::invalid_argument("apply_matrix: matrix dim mismatch");
  for (std::size_t i = 0; i < k; ++i) {
    if (qubits[i] < 0 || qubits[i] >= n_qubits_)
      throw std::out_of_range("apply_matrix: qubit index");
    for (std::size_t j = i + 1; j < k; ++j)
      if (qubits[i] == qubits[j])
        throw std::invalid_argument("apply_matrix: duplicate qubit");
  }

  // Strides: qubits[0] is the highest bit of the sub-index.
  std::vector<std::size_t> stride(k);
  std::size_t mask = 0;
  for (std::size_t i = 0; i < k; ++i) {
    stride[i] = std::size_t{1} << (n_qubits_ - 1 - qubits[i]);
    mask |= stride[i];
  }

  std::vector<cplx> in(sub), out(sub);
  const std::size_t dim = amps_.size();
  for (std::size_t base = 0; base < dim; ++base) {
    if (base & mask) continue;
    for (std::size_t s = 0; s < sub; ++s) {
      std::size_t idx = base;
      for (std::size_t b = 0; b < k; ++b)
        if (s & (sub >> 1 >> b)) idx |= stride[b];
      in[s] = amps_[idx];
    }
    for (std::size_t r = 0; r < sub; ++r) {
      cplx acc{0.0, 0.0};
      for (std::size_t c = 0; c < sub; ++c) acc += m(r, c) * in[c];
      out[r] = acc;
    }
    for (std::size_t s = 0; s < sub; ++s) {
      std::size_t idx = base;
      for (std::size_t b = 0; b < k; ++b)
        if (s & (sub >> 1 >> b)) idx |= stride[b];
      amps_[idx] = out[s];
    }
  }
}

void Statevector::apply_pauli_x(int qubit) {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("apply_pauli_x: qubit index");
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  kernels::apply_pauli_x(amps_.data(), amps_.size(), stride);
}

void Statevector::apply_pauli_y(int qubit) {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("apply_pauli_y: qubit index");
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  kernels::apply_pauli_y(amps_.data(), amps_.size(), stride);
}

void Statevector::apply_pauli_z(int qubit) {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("apply_pauli_z: qubit index");
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  kernels::apply_pauli_z(amps_.data(), amps_.size(), stride);
}

double Statevector::expectation_z(int qubit) const {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("expectation_z: qubit index");
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  double acc = 0.0;
  const std::size_t dim = amps_.size();
  for (std::size_t i = 0; i < dim; ++i) {
    const double p = std::norm(amps_[i]);
    acc += (i & stride) ? -p : p;
  }
  return acc;
}

std::vector<double> Statevector::expectation_z_all() const {
  std::vector<double> out(n_qubits_, 0.0);
  const std::size_t dim = amps_.size();
  for (std::size_t i = 0; i < dim; ++i) {
    const double p = std::norm(amps_[i]);
    if (p == 0.0) continue;
    for (int q = 0; q < n_qubits_; ++q) {
      const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - q);
      out[q] += (i & stride) ? -p : p;
    }
  }
  return out;
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> p(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) p[i] = std::norm(amps_[i]);
  return p;
}

double Statevector::probability_one(int qubit) const {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("probability_one: qubit index");
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i)
    if (i & stride) acc += std::norm(amps_[i]);
  return acc;
}

std::vector<std::uint64_t> Statevector::sample(int shots, Prng& rng) const {
  std::vector<std::uint64_t> out;
  ShotSampler().sample(amps_.data(), amps_.size(), shots, rng, out);
  return out;
}

int Statevector::measure_qubit(int qubit, Prng& rng) {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("measure_qubit: qubit index");
  const double p1 = probability_one(qubit);
  const int outcome = rng.bernoulli(p1) ? 1 : 0;
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    const bool bit = (i & stride) != 0;
    if (bit != (outcome == 1)) amps_[i] = cplx{0.0, 0.0};
  }
  normalize();
  return outcome;
}

double Statevector::norm_squared() const {
  double s = 0.0;
  for (const auto& a : amps_) s += std::norm(a);
  return s;
}

double Statevector::norm() const { return std::sqrt(norm_squared()); }

void Statevector::normalize() {
  const double n = norm();
  if (n < 1e-300) throw std::runtime_error("Statevector::normalize: zero norm");
  const double inv = 1.0 / n;
  for (auto& a : amps_) a *= inv;
}

double Statevector::fidelity(const Statevector& other) const {
  if (other.dim() != dim())
    throw std::invalid_argument("fidelity: dim mismatch");
  cplx ip{0.0, 0.0};
  for (std::size_t i = 0; i < amps_.size(); ++i)
    ip += std::conj(other.amps_[i]) * amps_[i];
  return std::norm(ip);
}

}  // namespace qoc::sim
