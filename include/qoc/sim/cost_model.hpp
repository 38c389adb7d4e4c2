#pragma once
// Analytic cost models behind Figure 2(a) and Figure 8 of the paper:
// classical statevector simulation costs grow as O(2^n) in both time and
// memory, while execution on a quantum device scales roughly linearly in
// the number of qubits (more qubits -> slightly deeper routed circuits and
// a constant per-shot readout cost).
//
// The classical numbers are derived from the simulator in this repository:
// a g-gate circuit on n qubits performs ~g * 2^n complex multiply-adds and
// holds 2^n complex amplitudes. The quantum numbers use a simple
// superconducting-device latency model (per-gate durations + readout +
// per-shot reset) matching the scale reported for IBM machines.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace qoc::sim {

// ---- Evaluation-major (k-wide) lane policy ---------------------------------
// StatevectorBackend's batch paths switch to the BatchedStatevector SoA
// layout when a compiled structure receives enough distinct bindings on
// a small register. The
// crossover is a cost-model call so the policy is testable and shared
// by every dispatch site.

/// Largest register the k-wide path runs on under the static lane
/// table. Above this the per-state working set (2^n amplitudes) leaves
/// L2 and the lane-interleaved layout loses to the within-state SIMD
/// kernels.
inline constexpr int kBatchedLaneMaxQubits = 14;

/// Default lane-group width: 8 states, one 64-byte cache line of doubles
/// per amplitude row component, matching the AVX2 register budget.
inline constexpr std::size_t kBatchedLanes = 8;

/// Where a lane table came from. lane_calibration() always reports
/// kDefault; the other enumerators name table sources that no longer
/// exist and stay only so code that spells out every value keeps
/// compiling.
enum class LaneCalibrationSource : int {
  kDefault = 0,  // the static table (flat n <= 14 -> 8 lanes)
  kMeasured = 1,
  kEnv = 2,
  kFile = 3,
  kPinned = 4,
};

/// Lane-width table: width[n] is the lane width the k-wide path uses
/// for an n-qubit register (1 = scalar, otherwise even and <=
/// BatchedStatevector::kMaxLanes).
struct LaneCalibration {
  static constexpr int kMaxQubits = 30;  // Statevector's own register cap

  /// width[n] for n in [1, kMaxQubits]; index 0 unused. Values are 1 or
  /// even in [2, 32].
  std::array<std::uint8_t, kMaxQubits + 1> width{};
  LaneCalibrationSource source = LaneCalibrationSource::kDefault;

  /// `lanes` wide for n <= max_wide_qubits, scalar above.
  static LaneCalibration flat(int max_wide_qubits, std::size_t lanes);

  /// Run-length form, e.g. "v1;1-14:8" (ascending, non-overlapping
  /// `lo-hi:k` / `n:k` tokens, ','-separated; n absent from every range
  /// means scalar; a bare "v1;" is all-scalar).
  std::string serialize() const;
};

/// The lane table batch_lane_width defers to: the static
/// flat(kBatchedLaneMaxQubits, kBatchedLanes) table ("v1;1-14:8"),
/// source kDefault. Per-lane results are bit-identical across lane
/// widths (the batched-kernel contract), so the table decides speed,
/// never results.
LaneCalibration lane_calibration();

/// Lane width for one batch dispatch: 1 means scalar per-evaluation
/// execution, k >= 2 means lane groups of k. `pinned_lanes` is the
/// per-backend options knob: -1 defers to the static table
/// (lane_calibration().width[n]), 0/1 force scalar, >= 2 pin the
/// width. Any requested width is clamped to even and <= 32. A width k
/// is kept only when 2 * batch_size >= k: with ragged-tail compaction a
/// part-filled group still beats the scalar path once it is at least
/// half full, so k no longer requires k full evaluations.
std::size_t batch_lane_width(int n_qubits, std::size_t batch_size,
                             int pinned_lanes = -1);

/// How one batch dispatch splits into lane groups. Produced by
/// partition_lanes and shared by every k-wide dispatch site so the
/// wide/padded/scalar split is decided (and tested) exactly once.
struct LanePartition {
  std::size_t lanes = 1;        // 1 = everything scalar
  std::size_t full_groups = 0;  // groups whose every lane is a real eval
  /// Real evaluations riding the padded final group (0 = no padded
  /// group). The group's remaining lanes repeat the last real
  /// evaluation and their results are discarded.
  std::size_t padded_evals = 0;
  /// First evaluation index NOT covered by lane groups; [tail_start,
  /// batch_size) runs the scalar path.
  std::size_t tail_start = 0;

  std::size_t groups() const { return full_groups + (padded_evals ? 1 : 0); }
};

/// Partition `batch_size` evaluations on an n-qubit register into
/// full-width lane groups, at most one padded group, and a scalar
/// tail. The tail [full_groups * lanes, batch_size) is compacted into a
/// padded group when it fills at least half the lanes (2 * tail >=
/// lanes) -- below that the padding's wasted lanes cost more than the
/// scalar path -- and otherwise runs scalar.
LanePartition partition_lanes(int n_qubits, std::size_t batch_size,
                              int pinned_lanes = -1);

/// Workload description used by the paper's scalability study: "50 circuits
/// of different #qubits with 16 rotation gates and 32 RZZ gates".
struct ScalingWorkload {
  int n_circuits = 50;
  int n_rot_1q = 16;   // single-qubit rotations per circuit
  int n_rot_2q = 32;   // RZZ gates per circuit
  int shots = 1024;
};

/// Theoretical operation count to simulate one circuit classically.
/// Each k-qubit gate on an n-qubit register costs 2^k * 2^n complex MACs.
double classical_ops(int n_qubits, const ScalingWorkload& w);

/// Theoretical number of complex registers (amplitudes) a classical
/// simulator must hold for an n-qubit state.
double classical_regs(int n_qubits);

/// Classical memory cost in gigabytes (16 bytes per complex double).
double classical_memory_gb(int n_qubits);

/// Estimated classical runtime in seconds for the workload, given a
/// sustained rate of complex MACs per second (default ~5e9, a single GPU /
/// vectorised CPU core scale, matching the paper's RTX 2080 Ti curve shape).
double classical_runtime_s(int n_qubits, const ScalingWorkload& w,
                           double macs_per_second = 5e9);

/// Quantum device ops: one physical gate is one "op" regardless of n.
double quantum_ops(int n_qubits, const ScalingWorkload& w);

/// Quantum "registers": the information lives in n physical qubits.
double quantum_regs(int n_qubits);

/// Estimated wall-clock for running the workload on a superconducting
/// device: (circuit duration + reset) * shots * circuits + per-job overhead.
/// Durations: 1q gate ~35ns, 2q gate ~300ns, readout ~5us, reset ~250us.
double quantum_runtime_s(int n_qubits, const ScalingWorkload& w);

/// Quantum memory cost in GB: classical control electronics bookkeeping
/// only (counts histogram), effectively negligible and linear in shots.
double quantum_memory_gb(int n_qubits, const ScalingWorkload& w);

}  // namespace qoc::sim
