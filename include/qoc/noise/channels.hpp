#pragma once
// Quantum noise channels of the simulated device.
//
// Real-device noise is modelled the standard NISQ way:
//   * every gate carries a depolarizing error with the calibrated error
//     rate of that gate class on that device,
//   * idle periods accrue thermal relaxation (amplitude + phase damping
//     derived from T1/T2 and the gate duration), and
//   * measurement flips each readout bit with the calibrated probability.
//
// Channels are represented by their Kraus operators {K_i} with
// sum_i K_i^dagger K_i = I. noise::NoiseModel folds them into the
// superoperators the device engine applies.

#include <string>
#include <vector>

#include "qoc/linalg/matrix.hpp"

namespace qoc::noise {

using linalg::Matrix;

/// A CPTP channel on one or two qubits, given by Kraus operators.
class KrausChannel {
 public:
  KrausChannel() = default;
  KrausChannel(std::string name, std::vector<Matrix> kraus_ops);

  const std::string& name() const { return name_; }
  const std::vector<Matrix>& kraus() const { return kraus_; }
  int arity() const { return arity_; }
  bool empty() const { return kraus_.empty(); }

  /// Verifies sum K^dagger K == I within tol.
  bool is_trace_preserving(double tol = 1e-9) const;

 private:
  std::string name_;
  std::vector<Matrix> kraus_;
  int arity_ = 0;
};

/// Single-qubit depolarizing channel: with probability p the state is
/// replaced by the maximally mixed state; Kraus form applies X/Y/Z each
/// with probability p/4 (and I with 1 - 3p/4).
KrausChannel depolarizing_1q(double p);

/// Two-qubit depolarizing channel over the 15 non-identity Pauli pairs.
KrausChannel depolarizing_2q(double p);

/// Amplitude damping with decay probability gamma (T1 relaxation toward
/// |0>).
KrausChannel amplitude_damping(double gamma);

/// Pure phase damping with dephasing probability lambda.
KrausChannel phase_damping(double lambda);

/// Combined thermal relaxation for an idle/gate window of `duration`
/// seconds given T1, T2 (seconds). Composes amplitude damping
/// (gamma = 1 - exp(-t/T1)) and the extra pure dephasing needed to hit
/// T2 (requires T2 <= 2*T1; clipped otherwise).
KrausChannel thermal_relaxation(double t1, double t2, double duration);

/// Classical readout error: independently flips each measured bit.
struct ReadoutError {
  double prob_flip_0to1 = 0.0;  // P(read 1 | prepared 0)
  double prob_flip_1to0 = 0.0;  // P(read 0 | prepared 1)
};

}  // namespace qoc::noise
