#include "qoc/noise/noise_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "qoc/sim/gates.hpp"

namespace qoc::noise {

using linalg::cplx;
using linalg::Matrix;

namespace {

Superop from_matrix(const Matrix& s) {
  Superop out;
  for (std::size_t i = 0; i < 16; ++i) out[i] = s(i >> 2, i & 3);
  return out;
}

Superop superop(const KrausChannel& channel) {
  Matrix s(4, 4);
  for (const auto& k : channel.kraus()) s += linalg::kron(k, k.conj());
  return from_matrix(s);
}

}  // namespace

Superop unitary_superop(const Matrix& u) {
  return from_matrix(linalg::kron(u, u.conj()));
}

Superop compose(const Superop& a, const Superop& b) {
  // Written out in real arithmetic on split re/im copies: the engine
  // calls this once per SX or X gate. std::complex's operator* carries
  // a NaN-recovery branch, and reading the interleaved pairs directly
  // compiled to stack round trips that ran 10x slower.
  double ar[16], ai[16], br[16], bi[16];
  for (std::size_t i = 0; i < 16; ++i) {
    ar[i] = a[i].real();
    ai[i] = a[i].imag();
    br[i] = b[i].real();
    bi[i] = b[i].imag();
  }
  Superop out;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      double re = 0.0, im = 0.0;
      for (std::size_t k = 0; k < 4; ++k) {
        re += ar[4 * i + k] * br[4 * k + j] - ai[4 * i + k] * bi[4 * k + j];
        im += ar[4 * i + k] * bi[4 * k + j] + ai[4 * i + k] * br[4 * k + j];
      }
      out[4 * i + j] = {re, im};
    }
  return out;
}

NoiseModel::NoiseModel(const DeviceModel& device, bool gate_noise,
                       bool relaxation, bool readout_error, double scale) {
  device.validate();
  if (!std::isfinite(scale) || scale < 0.0)
    throw std::invalid_argument(
        "NoiseModel: noise_scale must be finite and >= 0");
  const auto scaled = [scale](double p, const char* what) {
    if (p * scale > 1.0)
      throw std::invalid_argument(std::string("NoiseModel: ") + what +
                                  " x noise_scale exceeds 1");
    return p * scale;
  };
  const double p1 = scaled(device.err_1q, "err_1q");
  const double p2_scaled = scaled(device.err_2q, "err_2q");
  if (gate_noise) p2 = p2_scaled;
  const Superop depol_1q = superop(depolarizing_1q(gate_noise ? p1 : 0.0));
  const Superop sx_gate = compose(depol_1q, unitary_superop(sim::gate_sx()));
  const Superop x_gate = compose(depol_1q, unitary_superop(sim::gate_x()));
  for (const auto& cal : device.qubits) {
    const ReadoutError flips{
        scaled(cal.readout_err_0to1, "readout_err_0to1"),
        scaled(cal.readout_err_1to0, "readout_err_1to0")};
    if (readout_error) readout.push_back(flips);
    if (!relaxation) {
      sx.push_back(sx_gate);
      x.push_back(x_gate);
      continue;
    }
    const Superop relax_1q = superop(thermal_relaxation(
        cal.t1_s, cal.t2_s, device.gate_time_1q_s * scale));
    sx.push_back(compose(relax_1q, sx_gate));
    x.push_back(compose(relax_1q, x_gate));
    relax_2q.push_back(superop(thermal_relaxation(
        cal.t1_s, cal.t2_s, device.gate_time_2q_s * scale)));
  }
}

}  // namespace qoc::noise
