#include "support/density_matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace qoc::sim {

using linalg::cplx;
using linalg::Matrix;

namespace {
constexpr int kMaxQubits = 12;
}

DensityMatrix::DensityMatrix(int n_qubits) : n_qubits_(n_qubits) {
  if (n_qubits < 1 || n_qubits > kMaxQubits)
    throw std::invalid_argument("DensityMatrix: n_qubits out of [1,12]");
  dim_ = std::size_t{1} << n_qubits;
  rho_.assign(dim_ * dim_, cplx{0.0, 0.0});
  rho_[0] = 1.0;
}

DensityMatrix DensityMatrix::from_statevector(const Statevector& psi) {
  DensityMatrix dm(psi.num_qubits());
  const auto& amps = psi.amplitudes();
  for (std::size_t r = 0; r < dm.dim_; ++r)
    for (std::size_t c = 0; c < dm.dim_; ++c)
      dm.rho_[r * dm.dim_ + c] = amps[r] * std::conj(amps[c]);
  return dm;
}

void DensityMatrix::reset() {
  std::fill(rho_.begin(), rho_.end(), cplx{0.0, 0.0});
  rho_[0] = 1.0;
}

void DensityMatrix::apply_one_side(const Matrix& m,
                                   const std::vector<int>& qubits,
                                   bool left) {
  const std::size_t k = qubits.size();
  const std::size_t sub = std::size_t{1} << k;
  if (m.rows() != sub || m.cols() != sub)
    throw std::invalid_argument("DensityMatrix: operator dim mismatch");
  for (std::size_t i = 0; i < k; ++i) {
    if (qubits[i] < 0 || qubits[i] >= n_qubits_)
      throw std::out_of_range("DensityMatrix: qubit index");
    for (std::size_t j = i + 1; j < k; ++j)
      if (qubits[i] == qubits[j])
        throw std::invalid_argument("DensityMatrix: duplicate qubit");
  }

  std::vector<std::size_t> stride(k);
  std::size_t mask = 0;
  for (std::size_t i = 0; i < k; ++i) {
    stride[i] = std::size_t{1} << (n_qubits_ - 1 - qubits[i]);
    mask |= stride[i];
  }

  // Left:  rho'[r, c] = sum_s M[r_sub, s] rho[r(s), c]   for every c.
  // Right: rho'[r, c] = sum_s rho[r, c(s)] conj(M[c_sub, s]) for every r.
  std::vector<cplx> in(sub), out(sub);
  const std::size_t fixed_count = dim_;  // iterate the untouched index fully
  for (std::size_t fixed = 0; fixed < fixed_count; ++fixed) {
    for (std::size_t base = 0; base < dim_; ++base) {
      if (base & mask) continue;
      // Gather the sub-vector along the varying index.
      for (std::size_t s = 0; s < sub; ++s) {
        std::size_t idx = base;
        for (std::size_t b = 0; b < k; ++b)
          if (s & (sub >> 1 >> b)) idx |= stride[b];
        in[s] = left ? rho_[idx * dim_ + fixed] : rho_[fixed * dim_ + idx];
      }
      for (std::size_t r = 0; r < sub; ++r) {
        cplx acc{0.0, 0.0};
        for (std::size_t s = 0; s < sub; ++s)
          acc += (left ? m(r, s) : std::conj(m(r, s))) * in[s];
        out[r] = acc;
      }
      for (std::size_t s = 0; s < sub; ++s) {
        std::size_t idx = base;
        for (std::size_t b = 0; b < k; ++b)
          if (s & (sub >> 1 >> b)) idx |= stride[b];
        if (left)
          rho_[idx * dim_ + fixed] = out[s];
        else
          rho_[fixed * dim_ + idx] = out[s];
      }
    }
  }
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  const std::vector<int>& qubits) {
  apply_one_side(u, qubits, /*left=*/true);
  apply_one_side(u, qubits, /*left=*/false);
}

void DensityMatrix::apply_channel(const std::vector<Matrix>& kraus,
                                  const std::vector<int>& qubits) {
  if (kraus.empty())
    throw std::invalid_argument("DensityMatrix: empty Kraus set");
  std::vector<cplx> acc(dim_ * dim_, cplx{0.0, 0.0});
  const std::vector<cplx> original = rho_;
  for (const auto& k : kraus) {
    rho_ = original;
    apply_one_side(k, qubits, /*left=*/true);
    apply_one_side(k, qubits, /*left=*/false);
    for (std::size_t i = 0; i < rho_.size(); ++i) acc[i] += rho_[i];
  }
  rho_ = std::move(acc);
}

double DensityMatrix::trace_real() const {
  double t = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) t += rho_[i * dim_ + i].real();
  return t;
}

double DensityMatrix::purity() const {
  // Tr(rho^2) = sum_{r,c} rho_{rc} rho_{cr} = sum |rho_{rc}|^2 (Hermitian).
  double p = 0.0;
  for (const auto& v : rho_) p += std::norm(v);
  return p;
}

double DensityMatrix::expectation_z(int qubit) const {
  if (qubit < 0 || qubit >= n_qubits_)
    throw std::out_of_range("DensityMatrix::expectation_z: qubit");
  const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - qubit);
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double p = rho_[i * dim_ + i].real();
    acc += (i & stride) ? -p : p;
  }
  return acc;
}

std::vector<double> DensityMatrix::expectation_z_all() const {
  std::vector<double> out(static_cast<std::size_t>(n_qubits_), 0.0);
  for (std::size_t i = 0; i < dim_; ++i) {
    const double p = rho_[i * dim_ + i].real();
    for (int q = 0; q < n_qubits_; ++q) {
      const std::size_t stride = std::size_t{1} << (n_qubits_ - 1 - q);
      out[static_cast<std::size_t>(q)] += (i & stride) ? -p : p;
    }
  }
  return out;
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> p(dim_);
  for (std::size_t i = 0; i < dim_; ++i) p[i] = rho_[i * dim_ + i].real();
  return p;
}

}  // namespace qoc::sim
