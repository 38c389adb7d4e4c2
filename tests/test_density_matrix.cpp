// Tests for the density-matrix simulator and DensityMatrixBackend, the
// exact readout of the device engine that NoisyBackend samples.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/noise/channels.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/sim/density_matrix.hpp"
#include "qoc/sim/gates.hpp"

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

TEST(DensityMatrixBackend, MatchesNoisyBackendOnTaskCircuit) {
  // The two device backends share device model, transpilation and
  // density-matrix engine; NoisyBackend only draws its shots from the
  // distribution this backend sums exactly.
  const auto device = noise::DeviceModel::ibmq_manila();
  circuit::Circuit c(4);
  circuit::add_rzz_ring_layer(c);
  circuit::add_ry_layer(c);
  std::vector<double> theta = {0.4, -0.9, 1.3, 0.2, 0.7, -0.5, 1.0, -1.2};

  backend::DensityMatrixBackend::Options dopt;
  dopt.noise_scale = 3.0;
  backend::DensityMatrixBackend exact(device, dopt);
  const auto z_exact = exact.run(c, theta, {});

  backend::NoisyBackendOptions nopt;
  nopt.shots = 4096;
  nopt.noise_scale = 3.0;
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

TEST(DensityMatrixBackend, NoiseFreeMatchesStatevector) {
  backend::DensityMatrixBackend::Options opt;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  opt.enable_readout_error = false;
  backend::DensityMatrixBackend dm(noise::DeviceModel::ibmq_lima(), opt);
  backend::StatevectorBackend sv(0);

  circuit::Circuit c(4);
  circuit::add_rzz_ring_layer(c);
  std::vector<double> theta = {0.3, 0.8, -0.5, 1.1};
  const auto a = dm.run(c, theta, {});
  const auto b = sv.run(c, theta, {});
  for (std::size_t q = 0; q < 4; ++q) EXPECT_NEAR(a[q], b[q], 1e-9);
}

TEST(DensityMatrixBackend, LimitsActiveQubitsNotDeviceSize) {
  // The density matrix spans the qubits a circuit touches, so a task
  // circuit runs on the 27-qubit ibmq_toronto; a circuit touching 13
  // qubits throws at execution, on both device backends.
  const auto toronto = noise::DeviceModel::ibmq_toronto();
  backend::DensityMatrixBackend exact(toronto);
  backend::NoisyBackend sampled(toronto, {});
  const auto model = qml::make_task_model("mnist4");
  const std::vector<double> theta(
      static_cast<std::size_t>(model.num_params()), 0.3);
  const std::vector<double> input(
      static_cast<std::size_t>(model.num_inputs()), 0.2);
  for (backend::Backend* b : {static_cast<backend::Backend*>(&exact),
                              static_cast<backend::Backend*>(&sampled)}) {
    const auto z = b->run(model.plan(), theta, input);
    EXPECT_EQ(z.size(), 4u) << b->name();
    for (const double v : z) EXPECT_TRUE(std::isfinite(v)) << b->name();
  }

  circuit::Circuit wide(13);
  for (int q = 0; q < 13; ++q) wide.h(q);
  for (backend::Backend* b : {static_cast<backend::Backend*>(&exact),
                              static_cast<backend::Backend*>(&sampled)})
    EXPECT_THROW(b->run(wide, {}, {}), std::invalid_argument) << b->name();
}

TEST(DensityMatrixBackend, RejectsBadOptions) {
  backend::DensityMatrixBackend::Options opt;
  const auto lima = noise::DeviceModel::ibmq_lima();
  // A negative or non-finite scale, with relaxation on and off.
  for (const bool relaxation : {true, false}) {
    opt.enable_relaxation = relaxation;
    for (const double scale : {-1.0, std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
      opt.noise_scale = scale;
      EXPECT_THROW(backend::DensityMatrixBackend(lima, opt),
                   std::invalid_argument)
          << "scale=" << scale << " relaxation=" << relaxation;
    }
  }
  opt.enable_relaxation = true;
  // 40x makes a lima readout flip probability 1.64.
  opt.noise_scale = 40.0;
  EXPECT_THROW(backend::DensityMatrixBackend(lima, opt),
               std::invalid_argument);
  // Scaled gate errors above 1 on a device without readout error.
  noise::DeviceModel device = noise::DeviceModel::ideal(2);
  device.err_2q = 0.4;
  opt.noise_scale = 3.0;
  EXPECT_THROW(backend::DensityMatrixBackend(device, opt),
               std::invalid_argument);
  device.err_2q = 0.0;
  device.err_1q = 0.5;
  EXPECT_THROW(backend::DensityMatrixBackend(device, opt),
               std::invalid_argument);
  opt.noise_scale = 2.0;  // exactly 1 is a valid probability
  EXPECT_NO_THROW(backend::DensityMatrixBackend(device, opt));
  // A NaN calibration fails DeviceModel::validate.
  noise::DeviceModel nan_err = lima;
  nan_err.err_2q = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(backend::DensityMatrixBackend(nan_err, opt),
               std::invalid_argument);
  // The largest scale any caller uses keeps every catalog device that
  // fits the density matrix valid.
  opt.noise_scale = 5.0;
  for (const auto& name : noise::DeviceModel::available()) {
    const auto d = noise::DeviceModel::by_name(name);
    if (d.n_qubits <= 12)
      EXPECT_NO_THROW(backend::DensityMatrixBackend(d, opt)) << name;
  }
}

}  // namespace
