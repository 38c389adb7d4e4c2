#pragma once
// A device's noise as the superoperators the device engine applies.
//
// The engine (qoc::backend, backend.cpp) holds a density matrix over m
// active qubits as a 2m-qubit vector: row qubit q is qubit q, column
// qubit q is qubit m + q (sim::DensityMatrix's layout). A 1-qubit
// channel then acts on the pair (q, m + q) as one 4x4 superoperator,
// and consecutive 1-qubit gates on a qubit multiply into one. NoiseModel
// builds every such 4x4 once per device backend, with the gate's
// depolarizing error and the qubit's relaxation folded in.

#include <array>
#include <vector>

#include "qoc/linalg/matrix.hpp"
#include "qoc/noise/channels.hpp"
#include "qoc/noise/device_model.hpp"

namespace qoc::noise {

/// A 1-qubit superoperator on the (row, column) bit pair of a vectorised
/// density matrix: entry [4 * i + j], i and j indexing 2 * row_bit +
/// column_bit. Kraus operators {K} give sum_K K (x) conj(K).
using Superop = std::array<linalg::cplx, 16>;

/// U (x) conj(U) of a 2x2 unitary.
Superop unitary_superop(const linalg::Matrix& u);

/// The superoperator of `a` after `b`: the matrix product a * b.
Superop compose(const Superop& a, const Superop& b);

/// A device backend's noise, built once at construction from the device
/// calibration and the noise options (scale multiplies every error
/// probability and gate duration). Every per-qubit table is indexed by
/// PHYSICAL qubit.
struct NoiseModel {
  /// Validates the device, then throws std::invalid_argument when
  /// `scale` is negative or not finite, or when err_1q, err_2q or any
  /// readout flip probability times `scale` exceeds 1.
  NoiseModel(const DeviceModel& device, bool gate_noise, bool relaxation,
             bool readout_error, double scale);

  /// Each qubit's SX and X gates: the gate, then the 1q depolarizing
  /// error (gate noise on), then the qubit's relaxation over a 1q gate
  /// window (relaxation on). RZ is a virtual frame change: no pulse, no
  /// error.
  std::vector<Superop> sx, x;
  /// Each qubit's relaxation over a 2q gate window, applied to both
  /// operands after a CX; empty when relaxation is off.
  std::vector<Superop> relax_2q;
  /// The 2q depolarizing probability applied after a CX: rho <- (1 - p2)
  /// rho + p2 Tr_ab(rho) (x) I/4. Zero when gate noise is off.
  double p2 = 0.0;
  /// Each qubit's readout flips; empty when readout error is off.
  std::vector<ReadoutError> readout;
};

}  // namespace qoc::noise
