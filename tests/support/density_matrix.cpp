#include "support/density_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <span>
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

void DensityMatrix::conjugate(const std::vector<Matrix>& ops,
                              const std::vector<int>& qubits, bool sum) {
  const std::size_t k = qubits.size();
  const std::size_t sub = std::size_t{1} << k;
  for (const auto& m : ops)
    if (m.rows() != sub || m.cols() != sub)
      throw std::invalid_argument("DensityMatrix: operator dim mismatch");
  for (std::size_t i = 0; i < k; ++i) {
    if (qubits[i] < 0 || qubits[i] >= n_qubits_)
      throw std::out_of_range("DensityMatrix: qubit index");
    for (std::size_t j = i + 1; j < k; ++j)
      if (qubits[i] == qubits[j])
        throw std::invalid_argument("DensityMatrix: duplicate qubit");
  }

  // offset[s]: the index bits operator index s sets (qubits[0] is its
  // most significant bit); bases: every index with none of them set.
  std::vector<std::size_t> offset(sub, 0);
  std::size_t mask = 0;
  for (std::size_t b = 0; b < k; ++b) {
    const std::size_t bit = std::size_t{1} << (n_qubits_ - 1 - qubits[b]);
    mask |= bit;
    for (std::size_t s = 0; s < sub; ++s)
      if (s & (sub >> 1 >> b)) offset[s] |= bit;
  }
  std::vector<std::size_t> bases;
  for (std::size_t i = 0; i < dim_; ++i)
    if (!(i & mask)) bases.push_back(i);

  // Each operator's nonzero entries, row by row, with their conjugates
  // for the right side. An exact-zero entry would add a signed zero to a
  // sum that starts at +0, which changes no value, so it is skipped.
  struct Entry {
    std::size_t col;
    cplx value, conj;
  };
  std::vector<Entry> entries;
  std::vector<std::size_t> row_begin{0};  // row r of operator o: o*sub + r
  for (const auto& op : ops)
    for (std::size_t r = 0; r < sub; ++r) {
      for (std::size_t s = 0; s < sub; ++s)
        if (op(r, s) != cplx{0.0, 0.0})
          entries.push_back({s, op(r, s), std::conj(op(r, s))});
      row_begin.push_back(entries.size());
    }

  // The sub rows {row + offset[a]} of rho map only onto themselves: the
  // left side mixes them column by column, then the right side mixes
  // each one's columns {base + offset[c]} group by group. Every entry of
  // M B M^dagger is summed over s in order from zero, as std::complex
  // arithmetic would (mul_add spells out its product).
  const auto mul_add = [](cplx& acc, cplx m, cplx x) {
    acc = {acc.real() + (m.real() * x.real() - m.imag() * x.imag()),
           acc.imag() + (m.real() * x.imag() + m.imag() * x.real())};
  };
  std::vector<cplx> in(sub * dim_), half(sub * dim_), out(sub * dim_);
  std::vector<cplx> group(bases.size());
  for (const std::size_t row : bases) {
    for (std::size_t a = 0; a < sub; ++a)
      std::copy_n(&rho_[(row + offset[a]) * dim_], dim_, &in[a * dim_]);
    if (sum) std::fill(out.begin(), out.end(), cplx{0.0, 0.0});
    for (std::size_t o = 0; o < ops.size(); ++o) {
      const auto row_of = [&](std::size_t r) {
        return std::span(entries.data() + row_begin[o * sub + r],
                         entries.data() + row_begin[o * sub + r + 1]);
      };
      for (std::size_t a = 0; a < sub; ++a) {
        cplx* h = &half[a * dim_];
        std::fill(h, h + dim_, cplx{0.0, 0.0});
        for (const Entry& e : row_of(a)) {
          const cplx* x = &in[e.col * dim_];
          for (std::size_t col = 0; col < dim_; ++col)
            mul_add(h[col], e.value, x[col]);
        }
      }
      for (std::size_t a = 0; a < sub; ++a) {
        const cplx* h = &half[a * dim_];
        cplx* u = &out[a * dim_];
        for (std::size_t c = 0; c < sub; ++c) {
          std::fill(group.begin(), group.end(), cplx{0.0, 0.0});
          for (const Entry& e : row_of(c))
            for (std::size_t j = 0; j < bases.size(); ++j)
              mul_add(group[j], e.conj, h[bases[j] + offset[e.col]]);
          for (std::size_t j = 0; j < bases.size(); ++j) {
            cplx& target = u[bases[j] + offset[c]];
            target = sum ? target + group[j] : group[j];
          }
        }
      }
    }
    for (std::size_t a = 0; a < sub; ++a)
      std::copy_n(&out[a * dim_], dim_, &rho_[(row + offset[a]) * dim_]);
  }
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  const std::vector<int>& qubits) {
  conjugate({u}, qubits, /*sum=*/false);
}

void DensityMatrix::apply_channel(const std::vector<Matrix>& kraus,
                                  const std::vector<int>& qubits) {
  if (kraus.empty())
    throw std::invalid_argument("DensityMatrix: empty Kraus set");
  conjugate(kraus, qubits, /*sum=*/true);
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
