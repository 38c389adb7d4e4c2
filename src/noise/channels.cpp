#include "qoc/noise/channels.hpp"

#include <cmath>
#include <stdexcept>

#include "qoc/sim/gates.hpp"

namespace qoc::noise {

KrausChannel::KrausChannel(std::string name, std::vector<Matrix> kraus_ops)
    : name_(std::move(name)), kraus_(std::move(kraus_ops)) {
  if (kraus_.empty()) throw std::invalid_argument("KrausChannel: empty");
  const std::size_t dim = kraus_.front().rows();
  if (dim != 2 && dim != 4)
    throw std::invalid_argument("KrausChannel: only 1- and 2-qubit channels");
  for (const auto& k : kraus_)
    if (k.rows() != dim || k.cols() != dim)
      throw std::invalid_argument("KrausChannel: inconsistent Kraus dims");
  arity_ = dim == 2 ? 1 : 2;
}

bool KrausChannel::is_trace_preserving(double tol) const {
  const std::size_t dim = kraus_.front().rows();
  Matrix sum(dim, dim);
  for (const auto& k : kraus_) sum += k.adjoint() * k;
  return linalg::approx_equal(sum, Matrix::identity(dim), tol);
}

KrausChannel depolarizing_1q(double p) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("depolarizing_1q: p out of [0,1]");
  using namespace qoc::sim;
  std::vector<Matrix> ks;
  ks.push_back(gate_i() * linalg::cplx{std::sqrt(1.0 - 3.0 * p / 4.0), 0.0});
  for (int pa = 1; pa <= 3; ++pa)
    ks.push_back(pauli(pa) * linalg::cplx{std::sqrt(p / 4.0), 0.0});
  return KrausChannel("depolarizing_1q", std::move(ks));
}

KrausChannel depolarizing_2q(double p) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("depolarizing_2q: p out of [0,1]");
  using namespace qoc::sim;
  std::vector<Matrix> ks;
  ks.reserve(16);
  const double p_id = 1.0 - 15.0 * p / 16.0;
  ks.push_back(Matrix::identity(4) * linalg::cplx{std::sqrt(p_id), 0.0});
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b) {
      if (a == 0 && b == 0) continue;
      ks.push_back(linalg::kron(pauli(a), pauli(b)) *
                   linalg::cplx{std::sqrt(p / 16.0), 0.0});
    }
  return KrausChannel("depolarizing_2q", std::move(ks));
}

KrausChannel amplitude_damping(double gamma) {
  if (gamma < 0.0 || gamma > 1.0)
    throw std::invalid_argument("amplitude_damping: gamma out of [0,1]");
  Matrix k0{{1.0, 0.0}, {0.0, std::sqrt(1.0 - gamma)}};
  Matrix k1{{0.0, std::sqrt(gamma)}, {0.0, 0.0}};
  return KrausChannel("amplitude_damping", {k0, k1});
}

KrausChannel phase_damping(double lambda) {
  if (lambda < 0.0 || lambda > 1.0)
    throw std::invalid_argument("phase_damping: lambda out of [0,1]");
  // Phase-flip representation: with probability p = (1 - sqrt(1-lambda))/2
  // apply Z. Identical channel to the usual {diag(1, sqrt(1-lambda)),
  // diag(0, sqrt(lambda))} Kraus pair.
  const double p = 0.5 * (1.0 - std::sqrt(1.0 - lambda));
  Matrix k0{{std::sqrt(1.0 - p), 0.0}, {0.0, std::sqrt(1.0 - p)}};
  Matrix k1{{std::sqrt(p), 0.0}, {0.0, -std::sqrt(p)}};
  return KrausChannel("phase_damping", {k0, k1});
}

KrausChannel thermal_relaxation(double t1, double t2, double duration) {
  if (t1 <= 0.0 || t2 <= 0.0)
    throw std::invalid_argument("thermal_relaxation: T1/T2 must be positive");
  if (duration < 0.0)
    throw std::invalid_argument("thermal_relaxation: negative duration");
  // Physical constraint T2 <= 2 T1; clip rather than reject measured data.
  const double t2_eff = std::min(t2, 2.0 * t1);
  const double gamma = 1.0 - std::exp(-duration / t1);
  // Total phase coherence decay e^{-t/T2} = e^{-t/(2 T1)} * sqrt(1-lambda)
  // => pure dephasing part lambda = 1 - exp(-2 t (1/T2 - 1/(2 T1))).
  const double rate_phi = 1.0 / t2_eff - 1.0 / (2.0 * t1);
  const double lambda = 1.0 - std::exp(-2.0 * duration * std::max(0.0, rate_phi));

  // Compose amplitude damping (gamma) then phase damping (lambda). The
  // composition of the two channels is itself CPTP; build combined Kraus
  // set by multiplying the operator pairs.
  const KrausChannel ad = amplitude_damping(gamma);
  const KrausChannel pd = phase_damping(lambda);
  std::vector<Matrix> ks;
  for (const auto& kp : pd.kraus())
    for (const auto& ka : ad.kraus()) {
      Matrix prod = kp * ka;
      if (prod.frobenius_norm() > 1e-12) ks.push_back(std::move(prod));
    }
  return KrausChannel("thermal_relaxation", std::move(ks));
}

}  // namespace qoc::noise
