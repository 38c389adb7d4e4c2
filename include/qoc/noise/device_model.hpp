#pragma once
// Calibration snapshots of the IBM superconducting devices the paper runs
// on: ibmq_jakarta, ibmq_manila, ibmq_santiago, ibmq_lima, plus
// ibmq_casablanca (Fig. 2c) and ibmq_toronto (Fig. 8 scalability study).
//
// The real machines are unavailable offline, so each DeviceModel carries
// representative calibration data from the 2021/22 era of those chips:
// coupling map, single-/two-qubit gate error rates, readout error, T1/T2
// and gate durations. The NoisyBackend turns these into depolarizing +
// thermal-relaxation trajectory noise. What the paper studies -- noisy
// parameter-shift gradients, whose error grows with gate count, SWAP
// routing and readout error -- depends on these rates and on the
// coupling map, both of which a snapshot carries; the exact day-to-day
// drift of the real chips it cannot reproduce.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace qoc::noise {

/// One edge of the device coupling map (undirected).
using CouplingEdge = std::pair<int, int>;

struct QubitCalibration {
  double t1_s = 100e-6;            // relaxation time
  double t2_s = 100e-6;            // dephasing time
  double readout_err_0to1 = 0.01;  // P(read 1 | state 0)
  double readout_err_1to0 = 0.02;  // P(read 0 | state 1)
};

struct DeviceModel {
  std::string name;
  int n_qubits = 0;
  std::vector<CouplingEdge> coupling;
  std::vector<QubitCalibration> qubits;

  double err_1q = 3e-4;          // average single-qubit gate error
  double err_2q = 1e-2;          // average CNOT error
  double gate_time_1q_s = 35e-9;
  double gate_time_2q_s = 300e-9;
  double readout_time_s = 5e-6;

  /// True if (a, b) or (b, a) is in the coupling map.
  bool connected(int a, int b) const;

  /// Adjacency list view of the coupling map.
  std::vector<std::vector<int>> adjacency() const;

  /// BFS shortest path between two physical qubits (inclusive of both
  /// endpoints); empty if disconnected.
  std::vector<int> shortest_path(int from, int to) const;

  /// Throws std::invalid_argument unless: n_qubits > 0 with one
  /// calibration per qubit; every coupling edge joins two distinct
  /// in-range qubits; every T1 and T2 is > 0; err_1q, err_2q and every
  /// readout flip probability lie in [0, 1]; and gate_time_1q_s,
  /// gate_time_2q_s and readout_time_s are finite and >= 0. Each check
  /// fails for NaN.
  void validate() const;

  // ---- Calibration snapshot factories ------------------------------------
  static DeviceModel ibmq_jakarta();     // 7 qubits, heavy-hex fragment
  static DeviceModel ibmq_manila();      // 5 qubits, line
  static DeviceModel ibmq_santiago();    // 5 qubits, line
  static DeviceModel ibmq_lima();        // 5 qubits, T shape
  static DeviceModel ibmq_casablanca();  // 7 qubits, heavy-hex fragment
  static DeviceModel ibmq_toronto();     // 27 qubits, heavy-hex

  /// Fictitious noise-free device with all-to-all coupling (for tests).
  static DeviceModel ideal(int n_qubits);

  /// Look up a device by name ("ibmq_jakarta", ...). Throws on unknown.
  static DeviceModel by_name(const std::string& name);

  /// Names of all bundled calibration snapshots.
  static std::vector<std::string> available();
};

}  // namespace qoc::noise
