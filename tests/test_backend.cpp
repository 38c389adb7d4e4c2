// Tests for the execution backends: exact vs sampled statevector execution,
// noisy-device trajectory behaviour, inference counting, and failure
// injection (garbage configurations must be rejected).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/vqe/vqe.hpp"

namespace {

using namespace qoc::backend;
using qoc::Prng;
using qoc::circuit::Circuit;
using qoc::circuit::ParamRef;
using qoc::linalg::kPi;
using qoc::noise::DeviceModel;

Circuit ry_circuit(double /*unused*/ = 0.0) {
  Circuit c(2);
  c.ry(0, ParamRef::trainable(0));
  c.ry(1, ParamRef::trainable(1));
  return c;
}

TEST(StatevectorBackend, ExactExpectationMatchesAnalytic) {
  // <Z> after RY(t) on |0> is cos(t).
  StatevectorBackend backend(0);
  const Circuit c = ry_circuit();
  const std::vector<double> theta = {0.7, -1.3};
  const auto f = backend.run(c, theta, {});
  EXPECT_NEAR(f[0], std::cos(0.7), 1e-12);
  EXPECT_NEAR(f[1], std::cos(-1.3), 1e-12);
}

TEST(StatevectorBackend, ShotNoiseConvergesWithShots) {
  const Circuit c = ry_circuit();
  const std::vector<double> theta = {1.1, 0.4};
  StatevectorBackend exact(0);
  const auto f_exact = exact.run(c, theta, {});

  StatevectorBackend few(64, 1);
  StatevectorBackend many(16384, 1);
  double err_few = 0, err_many = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto ff = few.run(c, theta, {});
    const auto fm = many.run(c, theta, {});
    err_few += std::abs(ff[0] - f_exact[0]);
    err_many += std::abs(fm[0] - f_exact[0]);
  }
  EXPECT_LT(err_many, err_few);
}

TEST(StatevectorBackend, InferenceCounterIncrements) {
  StatevectorBackend backend(0);
  const Circuit c = ry_circuit();
  const std::vector<double> theta = {0.1, 0.2};
  EXPECT_EQ(backend.inference_count(), 0u);
  backend.run(c, theta, {});
  backend.run(c, theta, {});
  EXPECT_EQ(backend.inference_count(), 2u);
  backend.reset_inference_count();
  EXPECT_EQ(backend.inference_count(), 0u);
}

TEST(StatevectorBackend, RejectsNegativeShots) {
  EXPECT_THROW(StatevectorBackend(-1), std::invalid_argument);
}

TEST(NoisyBackend, NoiseFreeDeviceMatchesExactUpToShotNoise) {
  NoisyBackendOptions opt;
  opt.trajectories = 8;
  opt.shots = 65536;
  NoisyBackend noisy(DeviceModel::ideal(4), opt);
  StatevectorBackend exact(0);

  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const std::vector<double> theta = {0.3, -0.8, 1.2, 0.5, 0.9, -0.4, 0.2, 1.5};

  const auto f_exact = exact.run(c, theta, {});
  const auto f_noisy = noisy.run(c, theta, {});
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_NEAR(f_noisy[q], f_exact[q], 0.03) << "qubit " << q;
}

TEST(NoisyBackend, NoiseShrinksExpectationMagnitudes) {
  // Depolarizing noise pulls <Z> toward 0: a circuit preparing <Z> = 1
  // exactly should read slightly less than 1 on a noisy device.
  NoisyBackendOptions opt;
  opt.trajectories = 256;
  opt.shots = 8192;
  opt.noise_scale = 5.0;  // exaggerate for test stability
  NoisyBackend noisy(DeviceModel::ibmq_lima(), opt);

  Circuit c(4);
  // Identity-ish circuit with many CX pairs: state stays |0000>.
  for (int rep = 0; rep < 4; ++rep)
    for (int q = 0; q + 1 < 4; ++q) {
      c.cx(q, q + 1);
      c.cx(q, q + 1);
    }
  const auto f = noisy.run(c, {}, {});
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_LT(f[q], 0.95) << "qubit " << q;
    EXPECT_GT(f[q], 0.05) << "qubit " << q;
  }
}

TEST(NoisyBackend, NoisierDeviceDegradesMore) {
  auto make_run = [](const DeviceModel& device) {
    NoisyBackendOptions opt;
    opt.trajectories = 512;
    opt.shots = 8192;
    opt.noise_scale = 4.0;
    NoisyBackend backend(device, opt);
    Circuit c(4);
    for (int rep = 0; rep < 3; ++rep) {
      qoc::circuit::add_cz_chain_layer(c);
      qoc::circuit::add_cz_chain_layer(c);
    }
    const auto f = backend.run(c, {}, {});
    double sum = 0;
    for (double v : f) sum += v;
    return sum / static_cast<double>(f.size());
  };
  const double z_clean = make_run(DeviceModel::ibmq_santiago());
  const double z_noisy = make_run(DeviceModel::ibmq_casablanca());
  EXPECT_GT(z_clean, z_noisy);
}

TEST(NoisyBackend, ReadoutErrorAloneBiasesGroundState) {
  NoisyBackendOptions opt;
  opt.trajectories = 1;
  opt.shots = 40000;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  opt.enable_readout_error = true;
  NoisyBackend backend(DeviceModel::ibmq_lima(), opt);
  Circuit c(2);
  c.x(0);
  c.x(0);  // identity; state |00>
  const auto f = backend.run(c, {}, {});
  const auto& cal = backend.device().qubits[0];
  // <Z> = 1 - 2 * P(flip 0 -> 1).
  EXPECT_NEAR(f[0], 1.0 - 2.0 * cal.readout_err_0to1, 0.02);
}

TEST(NoisyBackend, DeterministicGivenSameSeedAndSerial) {
  auto build = [] {
    NoisyBackendOptions opt;
    opt.trajectories = 16;
    opt.shots = 256;
    opt.seed = 777;
    return NoisyBackend(DeviceModel::ibmq_manila(), opt);
  };
  NoisyBackend a = build();
  NoisyBackend b = build();
  Circuit c(3);
  qoc::circuit::add_cz_chain_layer(c);
  c.ry(0, ParamRef::constant(0.9));
  const auto fa = a.run(c, {}, {});
  const auto fb = b.run(c, {}, {});
  for (std::size_t q = 0; q < 3; ++q) EXPECT_DOUBLE_EQ(fa[q], fb[q]);
}

TEST(NoisyBackend, SuccessiveRunsDiffer) {
  NoisyBackendOptions opt;
  opt.trajectories = 4;
  opt.shots = 64;
  NoisyBackend backend(DeviceModel::ibmq_manila(), opt);
  Circuit c(2);
  c.ry(0, ParamRef::constant(1.2));
  const auto f1 = backend.run(c, {}, {});
  const auto f2 = backend.run(c, {}, {});
  // With 64 shots, exact equality across independent runs is vanishingly
  // unlikely; guards against accidentally reusing the RNG stream.
  EXPECT_NE(f1[0], f2[0]);
}

// One noisy execution with an explicit trajectory lane width; everything
// else (seed, device, circuit, bindings) held fixed so widths can be
// compared bitwise.
std::vector<double> run_noisy_lanes(int lanes, int trajectories, bool gate_noise,
                                    bool relaxation, bool readout) {
  NoisyBackendOptions opt;
  opt.trajectories = trajectories;
  opt.shots = 512;
  opt.seed = 0xFEEDFACEULL;
  opt.enable_gate_noise = gate_noise;
  opt.enable_relaxation = relaxation;
  opt.enable_readout_error = readout;
  opt.batch_lanes = lanes;
  NoisyBackend backend(DeviceModel::ibmq_manila(), opt);
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const std::vector<double> theta = {0.3, -0.8, 1.2, 0.5, 0.9, -0.4, 0.2, 1.5};
  return backend.run(c, theta, {});
}

TEST(NoisyBackend, KWideTrajectoriesBitIdenticalToScalar) {
  // The k-wide trajectory loop (gates lane-uniform, noise drawn per lane
  // from each trajectory's own stream) must reproduce the scalar loop
  // BITWISE -- including ragged trajectory counts: 16 = full groups,
  // 12 = full group + padded group, 5 = one padded group, 9 = full
  // group + scalar tail.
  for (const int traj : {16, 12, 5, 9}) {
    for (const bool relaxation : {true, false}) {
      const auto ref = run_noisy_lanes(1, traj, true, relaxation, true);
      const auto wide = run_noisy_lanes(8, traj, true, relaxation, true);
      ASSERT_EQ(ref.size(), wide.size());
      for (std::size_t q = 0; q < ref.size(); ++q)
        EXPECT_EQ(ref[q], wide[q])  // bitwise, not approximate
            << "traj=" << traj << " relaxation=" << relaxation << " q=" << q;
    }
  }
  // Width invariance: every lane width is the same trajectory sequence.
  const auto ref = run_noisy_lanes(1, 16, true, true, true);
  for (const int lanes : {2, 4}) {
    const auto wide = run_noisy_lanes(lanes, 16, true, true, true);
    for (std::size_t q = 0; q < ref.size(); ++q)
      EXPECT_EQ(ref[q], wide[q]) << "lanes=" << lanes << " q=" << q;
  }
  // Noise-free config: the walk draws nothing; only shot sampling does.
  const auto ref_clean = run_noisy_lanes(1, 12, false, false, false);
  const auto wide_clean = run_noisy_lanes(8, 12, false, false, false);
  for (std::size_t q = 0; q < ref_clean.size(); ++q)
    EXPECT_EQ(ref_clean[q], wide_clean[q]) << "q=" << q;
}

TEST(NoisyBackend, KWideBatchPinnedStreamsMatchScalar) {
  // run_batch over a noisy backend with pinned per-evaluation streams:
  // lane-grouped trajectories must not shift any evaluation's draws.
  auto build = [](int lanes) {
    NoisyBackendOptions opt;
    opt.trajectories = 12;
    opt.shots = 384;
    opt.seed = 0xFEEDFACEULL;
    opt.batch_lanes = lanes;
    return NoisyBackend(DeviceModel::ibmq_manila(), opt);
  };
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  std::vector<std::vector<double>> thetas;
  std::vector<qoc::exec::Evaluation> evals;
  for (int i = 0; i < 5; ++i) {
    std::vector<double> t(8);
    for (int j = 0; j < 8; ++j) t[j] = 0.2 * (i + 1) + 0.13 * j;
    thetas.push_back(std::move(t));
  }
  for (int i = 0; i < 5; ++i) {
    qoc::exec::Evaluation e;
    e.theta = thetas[static_cast<std::size_t>(i)];
    if (i % 2 == 0) e.rng_stream = 77u + static_cast<std::uint64_t>(i);
    evals.push_back(e);
  }
  NoisyBackend scalar = build(1);
  NoisyBackend wide = build(8);
  const auto ref = scalar.run_batch(plan, evals, 2);
  const auto got = wide.run_batch(plan, evals, 2);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    for (std::size_t q = 0; q < ref[i].size(); ++q)
      EXPECT_EQ(ref[i][q], got[i][q]) << "eval=" << i << " q=" << q;
}

TEST(NoisyBackend, KWideExpectBitIdenticalToScalar) {
  // expect_batch through the k-wide trajectory loop: basis-change
  // suffixes are applied lane-uniform through the routed final layout,
  // and readout flips consume each trajectory's stream in scalar order.
  auto build = [](int lanes, int trajectories) {
    NoisyBackendOptions opt;
    opt.trajectories = trajectories;
    opt.shots = 384;
    opt.seed = 0xFEEDFACEULL;
    opt.batch_lanes = lanes;
    return NoisyBackend(DeviceModel::ibmq_manila(), opt);
  };
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  std::vector<qoc::exec::ObservableTerm> terms;
  terms.push_back({"IIII", 0.5});
  for (int q = 0; q + 1 < 4; ++q)
    for (const char p : {'X', 'Y', 'Z'}) {
      std::string s(4, 'I');
      s[static_cast<std::size_t>(q)] = p;
      s[static_cast<std::size_t>(q) + 1] = p;
      terms.push_back({s, 0.8 + 0.05 * q});
    }
  const auto obs = qoc::exec::CompiledObservable::compile(4, terms);
  std::vector<std::vector<double>> thetas;
  std::vector<qoc::exec::Evaluation> evals;
  for (int i = 0; i < 3; ++i) {
    std::vector<double> t(8);
    for (int j = 0; j < 8; ++j) t[j] = 0.31 * (i + 1) - 0.07 * j;
    thetas.push_back(std::move(t));
  }
  for (int i = 0; i < 3; ++i) {
    qoc::exec::Evaluation e;
    e.theta = thetas[static_cast<std::size_t>(i)];
    if (i == 1) e.rng_stream = 99u;
    evals.push_back(e);
  }
  for (const int traj : {12, 5}) {
    NoisyBackend scalar = build(1, traj);
    NoisyBackend wide = build(8, traj);
    const auto ref = scalar.expect_batch(plan, obs, evals, 2);
    const auto got = wide.expect_batch(plan, obs, evals, 2);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(ref[i], got[i]) << "traj=" << traj << " eval=" << i;
  }
}

TEST(NoisyBackend, RejectsBadOptions) {
  NoisyBackendOptions opt;
  opt.trajectories = 0;
  EXPECT_THROW(NoisyBackend(DeviceModel::ibmq_lima(), opt),
               std::invalid_argument);
  opt.trajectories = 4;
  opt.shots = 0;
  EXPECT_THROW(NoisyBackend(DeviceModel::ibmq_lima(), opt),
               std::invalid_argument);
  opt.shots = 64;
  opt.noise_scale = -1.0;
  EXPECT_THROW(NoisyBackend(DeviceModel::ibmq_lima(), opt),
               std::invalid_argument);
  // A non-finite scale, with relaxation on and off.
  for (const bool relaxation : {true, false}) {
    opt.enable_relaxation = relaxation;
    for (const double scale : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
      opt.noise_scale = scale;
      EXPECT_THROW(NoisyBackend(DeviceModel::ibmq_lima(), opt),
                   std::invalid_argument)
          << "scale=" << scale << " relaxation=" << relaxation;
    }
  }
  opt.enable_relaxation = true;
  // 40x makes a lima readout flip probability 1.64.
  opt.noise_scale = 40.0;
  EXPECT_THROW(NoisyBackend(DeviceModel::ibmq_lima(), opt),
               std::invalid_argument);
  // Scaled gate errors above 1 on a device without readout error.
  DeviceModel device = DeviceModel::ideal(2);
  device.err_2q = 0.4;
  opt.noise_scale = 3.0;
  EXPECT_THROW(NoisyBackend(device, opt), std::invalid_argument);
  device.err_2q = 0.0;
  device.err_1q = 0.5;
  EXPECT_THROW(NoisyBackend(device, opt), std::invalid_argument);
  opt.noise_scale = 2.0;  // exactly 1 is a valid probability
  EXPECT_NO_THROW(NoisyBackend(device, opt));
  // A NaN calibration fails DeviceModel::validate.
  DeviceModel nan_readout = DeviceModel::ibmq_lima();
  nan_readout.qubits[1].readout_err_0to1 =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(NoisyBackend(nan_readout, opt), std::invalid_argument);
  // The largest scale any caller uses keeps every catalog device valid.
  opt.noise_scale = 5.0;
  for (const auto& name : DeviceModel::available())
    EXPECT_NO_THROW(NoisyBackend(DeviceModel::by_name(name), opt)) << name;
}

TEST(NoisyBackend, CircuitLargerThanDeviceThrows) {
  NoisyBackend backend(DeviceModel::ibmq_manila(), {});
  Circuit c(6);
  c.h(0);
  EXPECT_THROW(backend.run(c, {}, {}), std::invalid_argument);
}

TEST(NoisyBackend, DurationEstimatePositive) {
  NoisyBackend backend(DeviceModel::ibmq_santiago(), {});
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  std::vector<double> theta(4, 0.4);
  EXPECT_GT(backend.estimate_duration_s(c, theta, {}), 0.0);
}

// ---- The stream rule -------------------------------------------------------

// Every stochastic backend follows one stream rule: a fresh backend's
// k-th auto evaluation draws exactly the stream of an evaluation pinned
// to rng_stream = k. Two consecutive 11-evaluation batches cover the
// serial counter carrying across calls, an 8-wide lane group and a
// scalar tail.
class StreamRule : public ::testing::Test {
 protected:
  static constexpr std::size_t kBatch = 11;

  StreamRule()
      : ansatz_(qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 2)),
        plan_(qoc::exec::CompiledCircuit::compile(ansatz_)),
        thetas_(2 * kBatch) {
    Prng rng(31);
    for (auto& theta : thetas_) {
      theta.resize(static_cast<std::size_t>(ansatz_.num_trainable()));
      for (auto& t : theta) t = rng.uniform(-2.0, 2.0);
    }
  }

  /// Evaluations [first, first + kBatch), auto or pinned to their index.
  std::vector<qoc::exec::Evaluation> evals(std::size_t first,
                                           bool pinned) const {
    std::vector<qoc::exec::Evaluation> out;
    for (std::size_t k = first; k < first + kBatch; ++k) {
      qoc::exec::Evaluation e{thetas_[k], {}, qoc::exec::Evaluation::kNoShift,
                              0.0};
      if (pinned) e.rng_stream = k;
      out.push_back(e);
    }
    return out;
  }

  /// Runs both batches on a fresh `auto_backend` without pins and on a
  /// fresh `pinned_backend` with pins; the results must match bitwise.
  template <class RunBatch>
  void expect_auto_matches_pinned(RunBatch&& run_batch) const {
    for (std::size_t first = 0; first < thetas_.size(); first += kBatch) {
      const auto autos = run_batch(true, evals(first, false));
      const auto pins = run_batch(false, evals(first, true));
      ASSERT_EQ(autos.size(), pins.size());
      for (std::size_t k = 0; k < autos.size(); ++k)
        EXPECT_EQ(autos[k], pins[k]) << "evaluation " << first + k;
    }
  }

  Circuit ansatz_;
  qoc::exec::CompiledCircuit plan_;
  std::vector<std::vector<double>> thetas_;
};

TEST_F(StreamRule, SampledStatevectorRunBatch) {
  StatevectorBackend auto_backend(256, 5);
  StatevectorBackend pinned_backend(256, 5);
  expect_auto_matches_pinned(
      [&](bool is_auto, const std::vector<qoc::exec::Evaluation>& batch) {
        return (is_auto ? auto_backend : pinned_backend)
            .run_batch(plan_, batch, 2);
      });
}

TEST_F(StreamRule, SampledStatevectorExpectBatch) {
  const auto obs =
      qoc::vqe::compile_observable(qoc::vqe::Hamiltonian::heisenberg(3, 0.7));
  StatevectorBackend auto_backend(256, 5);
  StatevectorBackend pinned_backend(256, 5);
  expect_auto_matches_pinned(
      [&](bool is_auto, const std::vector<qoc::exec::Evaluation>& batch) {
        return (is_auto ? auto_backend : pinned_backend)
            .expect_batch(plan_, obs, batch, 2);
      });
}

TEST_F(StreamRule, NoisyRunBatch) {
  NoisyBackendOptions opt;
  opt.trajectories = 6;
  opt.shots = 96;
  opt.seed = 5;
  NoisyBackend auto_backend(DeviceModel::ibmq_manila(), opt);
  NoisyBackend pinned_backend(DeviceModel::ibmq_manila(), opt);
  expect_auto_matches_pinned(
      [&](bool is_auto, const std::vector<qoc::exec::Evaluation>& batch) {
        return (is_auto ? auto_backend : pinned_backend)
            .run_batch(plan_, batch, 2);
      });
}

// ---- expect_batch ----------------------------------------------------------

TEST(ExpectBatch, ExactStatevectorBitIdenticalToPerTermLoop) {
  const auto h = qoc::vqe::Hamiltonian::heisenberg(3, 0.7);
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 2);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);

  Prng rng(21);
  StatevectorBackend qc(0);
  std::vector<std::vector<double>> thetas(7);
  std::vector<qoc::exec::Evaluation> evals;
  for (auto& theta : thetas) {
    theta.resize(static_cast<std::size_t>(ansatz.num_trainable()));
    for (auto& t : theta) t = rng.uniform(-2.0, 2.0);
    evals.push_back({theta, {}, qoc::exec::Evaluation::kNoShift, 0.0});
  }
  const auto energies = qc.expect_batch(plan, obs, evals, 0);

  // Reference: prepare the state through the plan and run the classic
  // per-term loop. Results must match BITWISE (EXPECT_EQ on doubles).
  for (std::size_t k = 0; k < evals.size(); ++k) {
    std::vector<double> angles;
    plan.resolve_slots(thetas[k], {}, qoc::exec::Evaluation::kNoShift, 0.0,
                       angles);
    qoc::sim::Statevector psi(plan.num_qubits());
    plan.apply(psi, angles);
    EXPECT_EQ(energies[k], h.expectation(psi));
  }
  EXPECT_EQ(qc.inference_count(), evals.size());
}

TEST(ExpectBatch, SampledStatevectorConvergesToExact) {
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 2);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  Prng rng(22);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  const qoc::exec::Evaluation eval{theta, {},
                                   qoc::exec::Evaluation::kNoShift, 0.0};

  StatevectorBackend exact(0);
  const double e_exact =
      exact.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];

  StatevectorBackend sampled(40000, 99);
  const double e_sampled =
      sampled.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];
  EXPECT_NEAR(e_sampled, e_exact, 0.03);
  // One measured execution per commuting group.
  EXPECT_EQ(sampled.inference_count(), obs.groups().size());
}

TEST(ExpectBatch, DensityMatrixNoiseFreeMatchesExact) {
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  Prng rng(23);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  const qoc::exec::Evaluation eval{theta, {},
                                   qoc::exec::Evaluation::kNoShift, 0.0};

  StatevectorBackend sv(0);
  const double e_exact = sv.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];

  DensityMatrixBackend::Options opt;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  opt.enable_readout_error = false;
  DensityMatrixBackend dm(DeviceModel::ibmq_manila(), opt);
  const double e_dm = dm.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];
  EXPECT_NEAR(e_dm, e_exact, 1e-9);
}

TEST(ExpectBatch, NoisyTrajectoriesMatchDensityMatrixOracle) {
  // With noise enabled, trajectory estimates must converge to the exact
  // density-matrix result for the same device.
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  Prng rng(24);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  const qoc::exec::Evaluation eval{theta, {},
                                   qoc::exec::Evaluation::kNoShift, 0.0};

  DensityMatrixBackend dm(DeviceModel::ibmq_manila());
  const double e_dm = dm.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];

  NoisyBackendOptions opt;
  opt.trajectories = 256;
  opt.shots = 16384;
  NoisyBackend noisy(DeviceModel::ibmq_manila(), opt);
  const double e_traj =
      noisy.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];
  EXPECT_NEAR(e_traj, e_dm, 0.08);
}

TEST(ExpectBatch, QubitMismatchThrows) {
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  StatevectorBackend qc(0);
  EXPECT_THROW(qc.expect_batch(plan, obs, {}, 1), std::invalid_argument);
}

TEST(ExpectBatch, BackendsWithoutNativeStateAccessReject) {
  // The default execute_expect_batch cannot reconstruct joint Pauli
  // products from per-qubit <Z>, so it must refuse loudly.
  class MinimalBackend final : public Backend {
   public:
    std::string name() const override { return "minimal"; }

   protected:
    std::vector<std::vector<double>> execute_batch(
        const qoc::exec::CompiledCircuit& plan,
        std::span<const qoc::exec::Evaluation> evals, unsigned) override {
      return std::vector<std::vector<double>>(
          evals.size(),
          std::vector<double>(static_cast<std::size_t>(plan.num_qubits()),
                              0.0));
    }
  };
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  MinimalBackend qc;
  EXPECT_THROW(qc.expect_batch(plan, obs, {}, 1), std::logic_error);
}

}  // namespace
