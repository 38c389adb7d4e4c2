// Tests for the density-matrix simulator and for NoisyBackend's exact
// readout (shots = 0), the distribution its sampled shots are drawn from.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/noise/channels.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/sim/gates.hpp"
#include "support/density_matrix.hpp"

namespace {

using namespace qoc;
using linalg::cplx;
using sim::DensityMatrix;
using sim::Statevector;

TEST(DensityMatrix, InitialStateIsGroundProjector) {
  DensityMatrix rho(2);
  EXPECT_NEAR(std::abs(rho.element(0, 0) - cplx{1, 0}), 0.0, 1e-15);
  EXPECT_NEAR(rho.trace_real(), 1.0, 1e-15);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-15);
}

TEST(DensityMatrix, RejectsOversizedRegisters) {
  EXPECT_THROW(DensityMatrix(13), std::invalid_argument);
  EXPECT_THROW(DensityMatrix(0), std::invalid_argument);
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStatevector) {
  Prng rng(1);
  Statevector sv(3);
  DensityMatrix rho(3);
  for (int g = 0; g < 15; ++g) {
    const int q = static_cast<int>(rng.uniform_int(3));
    const auto u1 = sim::gate_u3(rng.uniform(0, 3), rng.uniform(0, 3),
                                 rng.uniform(0, 3));
    sv.apply_1q(u1, q);
    rho.apply_unitary(u1, {q});
    const int q2 = (q + 1) % 3;
    const auto u2 = sim::gate_rzz(rng.uniform(-2, 2));
    sv.apply_2q(u2, q, q2);
    rho.apply_unitary(u2, {q, q2});
  }
  // Pure state stays pure; expectations agree.
  EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
  const auto z_sv = sv.expectation_z_all();
  const auto z_dm = rho.expectation_z_all();
  for (int q = 0; q < 3; ++q) EXPECT_NEAR(z_dm[q], z_sv[q], 1e-10);
  // Full matrix check against the outer product.
  const DensityMatrix outer = DensityMatrix::from_statevector(sv);
  for (std::size_t r = 0; r < rho.dim(); ++r)
    for (std::size_t c = 0; c < rho.dim(); ++c)
      EXPECT_NEAR(std::abs(rho.element(r, c) - outer.element(r, c)), 0.0,
                  1e-10);
}

TEST(DensityMatrix, DepolarizingDrivesTowardMaximallyMixed) {
  DensityMatrix rho(1);
  const auto ch = noise::depolarizing_1q(1.0);  // fully depolarizing
  rho.apply_channel(ch.kraus(), {0});
  EXPECT_NEAR(rho.element(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(rho.element(1, 1).real(), 0.5, 1e-12);
  EXPECT_NEAR(rho.purity(), 0.5, 1e-12);
}

TEST(DensityMatrix, ChannelsPreserveTrace) {
  Prng rng(2);
  DensityMatrix rho(2);
  rho.apply_unitary(sim::gate_h(), {0});
  rho.apply_unitary(sim::gate_cx(), {0, 1});
  for (const auto& ch :
       {noise::depolarizing_1q(0.1), noise::amplitude_damping(0.3),
        noise::phase_damping(0.2),
        noise::thermal_relaxation(100e-6, 80e-6, 300e-9)}) {
    rho.apply_channel(ch.kraus(), {0});
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10) << ch.name();
  }
  rho.apply_channel(noise::depolarizing_2q(0.05).kraus(), {0, 1});
  EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, PurityDecreasesUnderNoise) {
  DensityMatrix rho(2);
  rho.apply_unitary(sim::gate_h(), {0});
  const double p0 = rho.purity();
  rho.apply_channel(noise::depolarizing_1q(0.2).kraus(), {0});
  const double p1 = rho.purity();
  EXPECT_LT(p1, p0);
}

TEST(DensityMatrix, AmplitudeDampingAnalytic) {
  // |1><1| under amplitude damping gamma: population 1 -> 1 - gamma.
  DensityMatrix rho(1);
  rho.apply_unitary(sim::gate_x(), {0});
  rho.apply_channel(noise::amplitude_damping(0.3).kraus(), {0});
  EXPECT_NEAR(rho.element(1, 1).real(), 0.7, 1e-12);
  EXPECT_NEAR(rho.element(0, 0).real(), 0.3, 1e-12);
}

TEST(DensityMatrix, PhaseDampingKillsCoherences) {
  DensityMatrix rho(1);
  rho.apply_unitary(sim::gate_h(), {0});
  const double coh_before = std::abs(rho.element(0, 1));
  rho.apply_channel(noise::phase_damping(0.5).kraus(), {0});
  EXPECT_LT(std::abs(rho.element(0, 1)), coh_before);
  // Populations untouched.
  EXPECT_NEAR(rho.element(0, 0).real(), 0.5, 1e-12);
}

TEST(ExactReadout, MatchesSampledReadoutOnTaskCircuit) {
  // Both readouts share device model, transpilation and density-matrix
  // engine; shots > 0 only draws its shots from the distribution that
  // shots = 0 sums exactly.
  const auto device = noise::DeviceModel::ibmq_manila();
  circuit::Circuit c(4);
  circuit::add_rzz_ring_layer(c);
  circuit::add_ry_layer(c);
  std::vector<double> theta = {0.4, -0.9, 1.3, 0.2, 0.7, -0.5, 1.0, -1.2};

  backend::NoisyBackendOptions nopt;
  nopt.shots = 0;
  nopt.noise_scale = 3.0;
  backend::NoisyBackend exact(device, nopt);
  const auto z_exact = exact.run(c, theta, {});

  nopt.shots = 4096;
  nopt.seed = 5;
  backend::NoisyBackend sampled(device, nopt);
  const auto z_mc = sampled.run(c, theta, {});

  // A sampled <Z_q> is the mean of `shots` independent +-1 readings with
  // mean z, so its variance is (1 - z^2) / shots. k = 5: a correct
  // backend fails one qubit with probability 5.7e-7, the four with at
  // most 2.3e-6.
  for (std::size_t q = 0; q < 4; ++q) {
    const double sigma =
        std::sqrt((1.0 - z_exact[q] * z_exact[q]) / nopt.shots);
    EXPECT_NEAR(z_mc[q], z_exact[q], 5.0 * sigma) << "qubit " << q;
  }
}

TEST(ExactReadout, NoiseFreeMatchesStatevector) {
  backend::NoisyBackendOptions opt;
  opt.shots = 0;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  opt.enable_readout_error = false;
  backend::NoisyBackend dm(noise::DeviceModel::ibmq_lima(), opt);
  backend::StatevectorBackend sv(0);

  circuit::Circuit c(4);
  circuit::add_rzz_ring_layer(c);
  std::vector<double> theta = {0.3, 0.8, -0.5, 1.1};
  const auto a = dm.run(c, theta, {});
  const auto b = sv.run(c, theta, {});
  for (std::size_t q = 0; q < 4; ++q) EXPECT_NEAR(a[q], b[q], 1e-9);
}

TEST(ExactReadout, LimitsActiveQubitsNotDeviceSize) {
  // The density matrix spans the qubits a circuit touches, so a task
  // circuit runs on the 27-qubit ibmq_toronto; a circuit touching 13
  // qubits throws at execution, read out exactly or sampled.
  const auto model = qml::make_task_model("mnist4");
  const std::vector<double> theta(
      static_cast<std::size_t>(model.num_params()), 0.3);
  const std::vector<double> input(
      static_cast<std::size_t>(model.num_inputs()), 0.2);
  circuit::Circuit wide(13);
  for (int q = 0; q < 13; ++q) wide.h(q);
  for (const int shots : {0, 1024}) {
    SCOPED_TRACE("shots=" + std::to_string(shots));
    backend::NoisyBackendOptions opt;
    opt.shots = shots;
    backend::NoisyBackend toronto(noise::DeviceModel::ibmq_toronto(), opt);
    const auto z = toronto.run(model.plan(), theta, input);
    EXPECT_EQ(z.size(), 4u);
    for (const double v : z) EXPECT_TRUE(std::isfinite(v));
    EXPECT_THROW(toronto.run(wide, {}, {}), std::invalid_argument);
  }
}

}  // namespace
