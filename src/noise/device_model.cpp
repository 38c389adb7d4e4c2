#include "qoc/noise/device_model.hpp"

#include <cmath>
#include <deque>
#include <stdexcept>

namespace qoc::noise {

bool DeviceModel::connected(int a, int b) const {
  for (const auto& [x, y] : coupling)
    if ((x == a && y == b) || (x == b && y == a)) return true;
  return false;
}

std::vector<std::vector<int>> DeviceModel::adjacency() const {
  std::vector<std::vector<int>> adj(n_qubits);
  for (const auto& [a, b] : coupling) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  return adj;
}

std::vector<int> DeviceModel::shortest_path(int from, int to) const {
  if (from < 0 || from >= n_qubits || to < 0 || to >= n_qubits)
    throw std::out_of_range("DeviceModel::shortest_path: qubit index");
  if (from == to) return {from};
  const auto adj = adjacency();
  std::vector<int> prev(n_qubits, -1);
  std::deque<int> queue{from};
  prev[from] = from;
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    for (int nxt : adj[cur]) {
      if (prev[nxt] != -1) continue;
      prev[nxt] = cur;
      if (nxt == to) {
        std::vector<int> path{to};
        int walk = to;
        while (walk != from) {
          walk = prev[walk];
          path.push_back(walk);
        }
        return {path.rbegin(), path.rend()};
      }
      queue.push_back(nxt);
    }
  }
  return {};
}

void DeviceModel::validate() const {
  // Every range check is written so that NaN fails it.
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  const auto duration = [](double t) { return std::isfinite(t) && t >= 0.0; };
  if (n_qubits <= 0) throw std::invalid_argument("DeviceModel: n_qubits <= 0");
  if (static_cast<int>(qubits.size()) != n_qubits)
    throw std::invalid_argument("DeviceModel: calibration count mismatch");
  for (const auto& [a, b] : coupling) {
    if (a < 0 || a >= n_qubits || b < 0 || b >= n_qubits || a == b)
      throw std::invalid_argument("DeviceModel: bad coupling edge");
  }
  for (const auto& q : qubits) {
    if (!(q.t1_s > 0.0) || !(q.t2_s > 0.0))
      throw std::invalid_argument("DeviceModel: T1/T2 not > 0");
    if (!probability(q.readout_err_0to1) || !probability(q.readout_err_1to0))
      throw std::invalid_argument("DeviceModel: readout error out of [0, 1]");
  }
  if (!probability(err_1q) || !probability(err_2q))
    throw std::invalid_argument("DeviceModel: gate error out of [0, 1]");
  if (!duration(gate_time_1q_s) || !duration(gate_time_2q_s) ||
      !duration(readout_time_s))
    throw std::invalid_argument("DeviceModel: duration not finite and >= 0");
}

namespace {

DeviceModel make(const std::string& name, int n,
                 std::vector<CouplingEdge> coupling, double err_1q,
                 double err_2q, double t1_us, double t2_us, double ro_01,
                 double ro_10) {
  DeviceModel d;
  d.name = name;
  d.n_qubits = n;
  d.coupling = std::move(coupling);
  d.err_1q = err_1q;
  d.err_2q = err_2q;
  QubitCalibration cal;
  cal.t1_s = t1_us * 1e-6;
  cal.t2_s = t2_us * 1e-6;
  cal.readout_err_0to1 = ro_01;
  cal.readout_err_1to0 = ro_10;
  d.qubits.assign(n, cal);
  d.validate();
  return d;
}

}  // namespace

DeviceModel DeviceModel::ibmq_jakarta() {
  // 7-qubit heavy-hex fragment (Falcon r5.11H):
  //   0 - 1 - 2,  1 - 3,  3 - 5,  4 - 5 - 6
  return make("ibmq_jakarta", 7,
              {{0, 1}, {1, 2}, {1, 3}, {3, 5}, {4, 5}, {5, 6}},
              /*err_1q=*/2.4e-4, /*err_2q=*/7.8e-3,
              /*t1=*/120.0, /*t2=*/40.0, /*ro01=*/0.020, /*ro10=*/0.034);
}

DeviceModel DeviceModel::ibmq_manila() {
  // 5-qubit line (Falcon r5.11L): 0 - 1 - 2 - 3 - 4
  return make("ibmq_manila", 5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}},
              /*err_1q=*/2.0e-4, /*err_2q=*/6.9e-3,
              /*t1=*/140.0, /*t2=*/60.0, /*ro01=*/0.018, /*ro10=*/0.030);
}

DeviceModel DeviceModel::ibmq_santiago() {
  // 5-qubit line (Falcon r4L): 0 - 1 - 2 - 3 - 4
  return make("ibmq_santiago", 5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}},
              /*err_1q=*/1.9e-4, /*err_2q=*/6.3e-3,
              /*t1=*/160.0, /*t2=*/100.0, /*ro01=*/0.012, /*ro10=*/0.022);
}

DeviceModel DeviceModel::ibmq_lima() {
  // 5-qubit T shape (Falcon r4T): 0 - 1 - 2, 1 - 3, 3 - 4
  return make("ibmq_lima", 5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}},
              /*err_1q=*/3.1e-4, /*err_2q=*/9.6e-3,
              /*t1=*/100.0, /*t2=*/90.0, /*ro01=*/0.024, /*ro10=*/0.041);
}

DeviceModel DeviceModel::ibmq_casablanca() {
  // 7-qubit heavy-hex fragment, noisier calibration than jakarta
  // (Fig. 2c shows casablanca with larger relative gradient errors).
  return make("ibmq_casablanca", 7,
              {{0, 1}, {1, 2}, {1, 3}, {3, 5}, {4, 5}, {5, 6}},
              /*err_1q=*/3.8e-4, /*err_2q=*/1.35e-2,
              /*t1=*/90.0, /*t2=*/65.0, /*ro01=*/0.028, /*ro10=*/0.046);
}

DeviceModel DeviceModel::ibmq_toronto() {
  // 27-qubit heavy-hex (Falcon r4). Standard IBM 27Q coupling map.
  std::vector<CouplingEdge> edges = {
      {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},  {5, 8},
      {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12}, {11, 14},
      {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18}, {16, 19},
      {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23}, {22, 25},
      {23, 24}, {24, 25}, {25, 26}};
  return make("ibmq_toronto", 27, std::move(edges),
              /*err_1q=*/2.9e-4, /*err_2q=*/1.1e-2,
              /*t1=*/110.0, /*t2=*/80.0, /*ro01=*/0.022, /*ro10=*/0.038);
}

DeviceModel DeviceModel::ideal(int n_qubits) {
  DeviceModel d;
  d.name = "ideal";
  d.n_qubits = n_qubits;
  for (int a = 0; a < n_qubits; ++a)
    for (int b = a + 1; b < n_qubits; ++b) d.coupling.emplace_back(a, b);
  QubitCalibration cal;
  cal.t1_s = 1.0;  // effectively infinite on gate timescales
  cal.t2_s = 1.0;
  cal.readout_err_0to1 = 0.0;
  cal.readout_err_1to0 = 0.0;
  d.qubits.assign(n_qubits, cal);
  d.err_1q = 0.0;
  d.err_2q = 0.0;
  d.validate();
  return d;
}

DeviceModel DeviceModel::by_name(const std::string& name) {
  if (name == "ibmq_jakarta") return ibmq_jakarta();
  if (name == "ibmq_manila") return ibmq_manila();
  if (name == "ibmq_santiago") return ibmq_santiago();
  if (name == "ibmq_lima") return ibmq_lima();
  if (name == "ibmq_casablanca") return ibmq_casablanca();
  if (name == "ibmq_toronto") return ibmq_toronto();
  throw std::invalid_argument("DeviceModel::by_name: unknown device " + name);
}

std::vector<std::string> DeviceModel::available() {
  return {"ibmq_jakarta", "ibmq_manila",     "ibmq_santiago",
          "ibmq_lima",    "ibmq_casablanca", "ibmq_toronto"};
}

}  // namespace qoc::noise
