// Tests for noise channels (Kraus algebra) and device calibration
// models.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "qoc/common/prng.hpp"
#include "qoc/noise/channels.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/sim/density_matrix.hpp"
#include "qoc/sim/gates.hpp"

namespace {

using namespace qoc::noise;
using qoc::Prng;
using qoc::linalg::cplx;
using qoc::linalg::Matrix;
using qoc::sim::DensityMatrix;
using qoc::sim::Statevector;

// ---- Kraus completeness (CPTP) ---------------------------------------------

class ChannelCptpSweep
    : public ::testing::TestWithParam<std::pair<const char*, double>> {};

TEST_P(ChannelCptpSweep, TracePreserving) {
  const auto [name, p] = GetParam();
  KrausChannel ch;
  const std::string n = name;
  if (n == "depol1") ch = depolarizing_1q(p);
  else if (n == "depol2") ch = depolarizing_2q(p);
  else if (n == "ad") ch = amplitude_damping(p);
  else if (n == "pd") ch = phase_damping(p);
  else FAIL() << "unknown channel " << n;
  EXPECT_TRUE(ch.is_trace_preserving(1e-9)) << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Channels, ChannelCptpSweep,
    ::testing::Values(std::pair<const char*, double>{"depol1", 0.0},
                      std::pair<const char*, double>{"depol1", 0.01},
                      std::pair<const char*, double>{"depol1", 0.5},
                      std::pair<const char*, double>{"depol1", 1.0},
                      std::pair<const char*, double>{"depol2", 0.01},
                      std::pair<const char*, double>{"depol2", 0.3},
                      std::pair<const char*, double>{"ad", 0.0},
                      std::pair<const char*, double>{"ad", 0.25},
                      std::pair<const char*, double>{"ad", 1.0},
                      std::pair<const char*, double>{"pd", 0.1},
                      std::pair<const char*, double>{"pd", 0.9}));

TEST(ThermalRelaxation, IsTracePreservingForPhysicalParams) {
  for (const double t : {10e-9, 100e-9, 1e-6}) {
    const auto ch = thermal_relaxation(100e-6, 80e-6, t);
    EXPECT_TRUE(ch.is_trace_preserving(1e-9));
  }
}

TEST(ThermalRelaxation, ClipsT2AboveTwoT1) {
  // T2 > 2*T1 is unphysical; the channel should clip, not throw.
  const auto ch = thermal_relaxation(50e-6, 150e-6, 100e-9);
  EXPECT_TRUE(ch.is_trace_preserving(1e-9));
}

TEST(ThermalRelaxation, ZeroDurationIsIdentityChannel) {
  const auto ch = thermal_relaxation(100e-6, 80e-6, 0.0);
  Statevector sv(1);
  sv.apply_1q(qoc::sim::gate_h(), 0);
  const DensityMatrix before = DensityMatrix::from_statevector(sv);
  DensityMatrix rho = before;
  rho.apply_channel(ch.kraus(), {0});
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_NEAR(std::abs(rho.element(r, c) - before.element(r, c)), 0.0,
                  1e-12);
}

TEST(ChannelValidation, RejectsBadProbabilities) {
  EXPECT_THROW(depolarizing_1q(-0.1), std::invalid_argument);
  EXPECT_THROW(depolarizing_1q(1.1), std::invalid_argument);
  EXPECT_THROW(amplitude_damping(2.0), std::invalid_argument);
  EXPECT_THROW(thermal_relaxation(-1.0, 1.0, 1.0), std::invalid_argument);
}

TEST(ReadoutError, FlipRatesMatchCalibration) {
  ReadoutError ro{0.1, 0.3};
  Prng rng(5);
  const int trials = 50000;
  int flip0 = 0, flip1 = 0;
  for (int t = 0; t < trials; ++t) {
    if (ro.apply(0, rng) == 1) ++flip0;
    if (ro.apply(1, rng) == 0) ++flip1;
  }
  EXPECT_NEAR(static_cast<double>(flip0) / trials, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(flip1) / trials, 0.3, 0.01);
}

// ---- Device models -------------------------------------------------------------

TEST(DeviceModel, AllSnapshotsValidate) {
  for (const auto& name : DeviceModel::available()) {
    const auto d = DeviceModel::by_name(name);
    EXPECT_NO_THROW(d.validate()) << name;
    EXPECT_EQ(d.name, name);
  }
}

TEST(DeviceModel, UnknownNameThrows) {
  EXPECT_THROW(DeviceModel::by_name("ibmq_nowhere"), std::invalid_argument);
}

TEST(DeviceModel, ManilaIsALine) {
  const auto d = DeviceModel::ibmq_manila();
  EXPECT_EQ(d.n_qubits, 5);
  EXPECT_TRUE(d.connected(0, 1));
  EXPECT_TRUE(d.connected(1, 0));  // undirected
  EXPECT_FALSE(d.connected(0, 2));
  EXPECT_FALSE(d.connected(0, 4));
}

TEST(DeviceModel, ShortestPathOnLine) {
  const auto d = DeviceModel::ibmq_santiago();
  const auto path = d.shortest_path(0, 4);
  EXPECT_EQ(path, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DeviceModel, ShortestPathTrivialCases) {
  const auto d = DeviceModel::ibmq_lima();
  EXPECT_EQ(d.shortest_path(2, 2), (std::vector<int>{2}));
  const auto p = d.shortest_path(0, 4);  // 0-1-3-4 on the T
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), 4);
}

TEST(DeviceModel, TorontoIs27QubitsConnected) {
  const auto d = DeviceModel::ibmq_toronto();
  EXPECT_EQ(d.n_qubits, 27);
  // Every pair should be reachable.
  for (int q = 1; q < d.n_qubits; ++q)
    EXPECT_FALSE(d.shortest_path(0, q).empty()) << "qubit " << q;
}

TEST(DeviceModel, CasablancaIsNoisierThanSantiago) {
  // Fig. 2c: casablanca shows larger relative gradient errors.
  const auto casa = DeviceModel::ibmq_casablanca();
  const auto sant = DeviceModel::ibmq_santiago();
  EXPECT_GT(casa.err_2q, sant.err_2q);
  EXPECT_GT(casa.err_1q, sant.err_1q);
}

TEST(DeviceModel, IdealDeviceIsNoiseFreeAllToAll) {
  const auto d = DeviceModel::ideal(4);
  EXPECT_EQ(d.err_1q, 0.0);
  EXPECT_EQ(d.err_2q, 0.0);
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      if (a != b) EXPECT_TRUE(d.connected(a, b));
}

TEST(DeviceModel, ValidateRejectsNanAndOutOfRangeValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Field {
    const char* name;
    void (*set)(DeviceModel&, double);
    std::vector<double> bad;
  };
  // T1 and T2 must be > 0, probabilities lie in [0, 1], and durations
  // are finite and >= 0. NaN fails every check.
  const std::vector<Field> fields = {
      {"t1", [](DeviceModel& d, double v) { d.qubits[1].t1_s = v; },
       {nan, 0.0, -1e-6}},
      {"t2", [](DeviceModel& d, double v) { d.qubits[1].t2_s = v; },
       {nan, 0.0, -1e-6}},
      {"readout_err_0to1",
       [](DeviceModel& d, double v) { d.qubits[1].readout_err_0to1 = v; },
       {nan, -1e-9, 1.0 + 1e-9}},
      {"readout_err_1to0",
       [](DeviceModel& d, double v) { d.qubits[1].readout_err_1to0 = v; },
       {nan, -1e-9, 1.0 + 1e-9}},
      {"err_1q", [](DeviceModel& d, double v) { d.err_1q = v; },
       {nan, -1e-9, 1.0 + 1e-9}},
      {"err_2q", [](DeviceModel& d, double v) { d.err_2q = v; },
       {nan, -1e-9, 1.0 + 1e-9}},
      {"gate_time_1q_s", [](DeviceModel& d, double v) { d.gate_time_1q_s = v; },
       {nan, -1e-9, inf}},
      {"gate_time_2q_s", [](DeviceModel& d, double v) { d.gate_time_2q_s = v; },
       {nan, -1e-9, inf}},
      {"readout_time_s", [](DeviceModel& d, double v) { d.readout_time_s = v; },
       {nan, -1e-9, inf}},
  };
  for (const auto& f : fields)
    for (const double v : f.bad) {
      DeviceModel d = DeviceModel::ibmq_lima();
      f.set(d, v);
      EXPECT_THROW(d.validate(), std::invalid_argument)
          << f.name << " = " << v;
    }
  // The closed ends of every range are accepted, as is an infinite T1 or
  // T2 (no relaxation).
  DeviceModel edge = DeviceModel::ibmq_lima();
  edge.qubits[0] = {inf, inf, 0.0, 1.0};
  edge.qubits[1].readout_err_0to1 = 1.0;
  edge.qubits[1].readout_err_1to0 = 0.0;
  edge.err_1q = 0.0;
  edge.err_2q = 1.0;
  edge.gate_time_1q_s = 0.0;
  edge.gate_time_2q_s = 0.0;
  edge.readout_time_s = 0.0;
  EXPECT_NO_THROW(edge.validate());
}

TEST(DeviceModel, AdjacencyMatchesCoupling) {
  const auto d = DeviceModel::ibmq_jakarta();
  const auto adj = d.adjacency();
  // Qubit 1 is the hub: neighbours 0, 2, 3.
  EXPECT_EQ(adj[1].size(), 3u);
  EXPECT_EQ(adj[6].size(), 1u);
}

}  // namespace
