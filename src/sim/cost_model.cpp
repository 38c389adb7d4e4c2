#include "qoc/sim/cost_model.hpp"

#include <cmath>

#include "qoc/sim/batched_statevector.hpp"

namespace qoc::sim {

namespace {
double pow2(int n) { return std::ldexp(1.0, n); }
}  // namespace

// ---- LaneCalibration -------------------------------------------------------

LaneCalibration LaneCalibration::flat(int max_wide_qubits,
                                      std::size_t lanes) {
  LaneCalibration cal;
  cal.width.fill(1);
  cal.width[0] = 0;  // index 0 unused
  for (int n = 1; n <= kMaxQubits && n <= max_wide_qubits; ++n)
    cal.width[n] = static_cast<std::uint8_t>(lanes);
  return cal;
}

std::string LaneCalibration::serialize() const {
  std::string out = "v1;";
  bool first = true;
  int n = 1;
  while (n <= kMaxQubits) {
    if (width[n] <= 1) {
      ++n;
      continue;
    }
    int hi = n;
    while (hi + 1 <= kMaxQubits && width[hi + 1] == width[n]) ++hi;
    if (!first) out += ',';
    first = false;
    out += std::to_string(n);
    if (hi != n) out += '-' + std::to_string(hi);
    out += ':' + std::to_string(width[n]);
    n = hi + 1;
  }
  return out;  // bare "v1;" means all-scalar
}

LaneCalibration lane_calibration() {
  return LaneCalibration::flat(kBatchedLaneMaxQubits, kBatchedLanes);
}

std::size_t batch_lane_width(int n_qubits, std::size_t batch_size,
                             int pinned_lanes) {
  if (pinned_lanes == 0 || pinned_lanes == 1) return 1;

  std::size_t k = 0;
  if (pinned_lanes > 1) {
    k = static_cast<std::size_t>(pinned_lanes);
    if (k % 2) --k;  // even lanes only
    if (k > BatchedStatevector::kMaxLanes) k = BatchedStatevector::kMaxLanes;
  } else if (n_qubits >= 1 && n_qubits <= LaneCalibration::kMaxQubits) {
    k = lane_calibration().width[static_cast<std::size_t>(n_qubits)];
  }

  // Ragged-tail compaction makes a part-filled group profitable once it
  // is at least half full, so a width no longer needs k full
  // evaluations -- half of them suffice.
  return (k >= 2 && 2 * batch_size >= k) ? k : 1;
}

LanePartition partition_lanes(int n_qubits, std::size_t batch_size,
                              int pinned_lanes) {
  LanePartition p;
  p.lanes = batch_lane_width(n_qubits, batch_size, pinned_lanes);
  if (p.lanes <= 1) {
    p.lanes = 1;
    return p;  // tail_start 0: the whole batch runs scalar
  }
  p.full_groups = batch_size / p.lanes;
  const std::size_t rem = batch_size % p.lanes;
  if (rem > 0 && 2 * rem >= p.lanes) {
    // Compact the tail into one padded group: its padding lanes repeat
    // the last real evaluation and cost lanes/speedup scalar-equivalents,
    // which beats `rem` scalar evaluations once the group is half full.
    p.padded_evals = rem;
    p.tail_start = batch_size;
  } else {
    p.tail_start = p.full_groups * p.lanes;
  }
  return p;
}

double classical_ops(int n_qubits, const ScalingWorkload& w) {
  // 2^1-dim gate update costs 2 MACs per amplitude pair -> 2 * 2^n;
  // 4x4 update costs 4 MACs per group of 4 amplitudes -> 4 * 2^n.
  const double per_circuit =
      (2.0 * w.n_rot_1q + 4.0 * w.n_rot_2q) * pow2(n_qubits);
  return per_circuit * w.n_circuits;
}

double classical_regs(int n_qubits) { return pow2(n_qubits); }

double classical_memory_gb(int n_qubits) {
  return classical_regs(n_qubits) * 16.0 / 1e9;
}

double classical_runtime_s(int n_qubits, const ScalingWorkload& w,
                           double macs_per_second) {
  return classical_ops(n_qubits, w) / macs_per_second;
}

double quantum_ops(int n_qubits, const ScalingWorkload& w) {
  // Routing overhead grows mildly with device size: assume a linear chain
  // in the worst case adds ~n/8 SWAPs (3 CX each) per two-qubit gate.
  const double routing_factor = 1.0 + n_qubits / 8.0 * 3.0 / 10.0;
  const double per_circuit = w.n_rot_1q + w.n_rot_2q * routing_factor;
  return per_circuit * w.n_circuits;
}

double quantum_regs(int n_qubits) { return n_qubits; }

double quantum_runtime_s(int n_qubits, const ScalingWorkload& w) {
  constexpr double t_1q = 35e-9;
  constexpr double t_2q = 300e-9;
  constexpr double t_readout = 5e-6;
  constexpr double t_reset = 250e-6;
  constexpr double t_job_overhead = 8.0;  // queue/compile per job
  const double routing_factor = 1.0 + n_qubits / 8.0 * 3.0 / 10.0;
  const double circuit_time = w.n_rot_1q * t_1q +
                              w.n_rot_2q * routing_factor * t_2q +
                              n_qubits * t_readout + t_reset;
  return circuit_time * w.shots * w.n_circuits + t_job_overhead;
}

double quantum_memory_gb(int n_qubits, const ScalingWorkload& w) {
  // Counts histogram: at most shots distinct bitstrings of n bits.
  const double bytes = static_cast<double>(w.shots) * (n_qubits / 8.0 + 8.0);
  return bytes * w.n_circuits / 1e9;
}

}  // namespace qoc::sim
