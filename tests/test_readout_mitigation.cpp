// Tests for readout-error mitigation: analytic inversion of the per-qubit
// confusion matrix, plus an end-to-end recovery test against the noisy
// backend's readout channel.

#include <gtest/gtest.h>

#include <cmath>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/noise/readout_mitigation.hpp"

namespace {

using namespace qoc;
using noise::DeviceModel;
using noise::ReadoutMitigator;

TEST(ReadoutMitigator, PerfectReadoutIsIdentity) {
  ReadoutMitigator m({0.0, 0.0}, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(m.mitigate_expectation_z(0, 0.37), 0.37);
  EXPECT_DOUBLE_EQ(m.mitigate_probability_one(1, 0.8), 0.8);
}

TEST(ReadoutMitigator, InvertsKnownBias) {
  // e01 = 0.1, e10 = 0.3; a true z produces
  // z_meas = (1 - 0.4) z + (0.3 - 0.1) = 0.6 z + 0.2.
  ReadoutMitigator m({0.1}, {0.3});
  for (const double z_true : {-0.9, -0.2, 0.0, 0.5, 1.0}) {
    const double z_meas = 0.6 * z_true + 0.2;
    EXPECT_NEAR(m.mitigate_expectation_z(0, z_meas), z_true, 1e-12);
  }
}

TEST(ReadoutMitigator, ClampsToPhysicalRange) {
  ReadoutMitigator m({0.05}, {0.05});
  EXPECT_DOUBLE_EQ(m.mitigate_expectation_z(0, 0.999), 1.0);
  EXPECT_DOUBLE_EQ(m.mitigate_expectation_z(0, -0.999), -1.0);
}

TEST(ReadoutMitigator, RejectsUnphysicalRates) {
  EXPECT_THROW(ReadoutMitigator({0.6}, {0.5}), std::invalid_argument);
  EXPECT_THROW(ReadoutMitigator({-0.1}, {0.0}), std::invalid_argument);
  EXPECT_THROW(ReadoutMitigator({}, {}), std::invalid_argument);
}

TEST(ReadoutMitigator, ProbabilityInversion) {
  ReadoutMitigator m({0.2}, {0.1});
  const double p1_true = 0.7;
  const double p1_meas = p1_true * (1 - 0.1) + (1 - p1_true) * 0.2;
  EXPECT_NEAR(m.mitigate_probability_one(0, p1_meas), p1_true, 1e-12);
}

TEST(ReadoutMitigator, RecoverExpectationThroughNoisyBackend) {
  // Run a readout-error-only backend; the mitigated expectation should be
  // much closer to the ideal than the raw measurement.
  const auto device = DeviceModel::ibmq_lima();
  backend::NoisyBackendOptions opt;
  opt.shots = 60000;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  opt.enable_readout_error = true;
  opt.seed = 12;
  backend::NoisyBackend qc(device, opt);

  circuit::Circuit c(2);
  c.ry(0, circuit::ParamRef::constant(0.9));  // ideal <Z0> = cos(0.9)
  const auto raw = qc.run(c, {}, {});

  ReadoutMitigator m(device);
  // Trivial layout: logical q -> physical q for this routed-free circuit.
  const auto fixed = m.mitigate_all(raw, {0, 1});
  const double ideal = std::cos(0.9);
  EXPECT_LT(std::abs(fixed[0] - ideal), std::abs(raw[0] - ideal));
  EXPECT_NEAR(fixed[0], ideal, 0.02);
  EXPECT_NEAR(fixed[1], 1.0, 0.02);
}

TEST(ReadoutMitigator, LayoutMismatchThrows) {
  ReadoutMitigator m({0.1, 0.1}, {0.1, 0.1});
  EXPECT_THROW(m.mitigate_all({0.5}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(m.mitigate_expectation_z(5, 0.0), std::out_of_range);
}

}  // namespace
