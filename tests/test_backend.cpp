// Tests for the execution backends: exact vs sampled statevector execution,
// noisy-device behaviour, inference counting, and failure injection
// (garbage configurations and bindings must be rejected).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>

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

TEST(NoisyBackend, RejectsBadOptions) {
  const auto lima = DeviceModel::ibmq_lima();
  NoisyBackendOptions opt;
  opt.shots = -1;
  EXPECT_THROW(NoisyBackend(lima, opt), std::invalid_argument);
  // shots = 0 is the exact readout.
  opt.shots = 0;
  EXPECT_NO_THROW(NoisyBackend(lima, opt));
  for (const int shots : {0, 64}) {
    SCOPED_TRACE("shots=" + std::to_string(shots));
    opt = {};
    opt.shots = shots;
    // A negative or non-finite scale, with relaxation on and off.
    for (const bool relaxation : {true, false}) {
      opt.enable_relaxation = relaxation;
      for (const double scale : {-1.0, std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN()}) {
        opt.noise_scale = scale;
        EXPECT_THROW(NoisyBackend(lima, opt), std::invalid_argument)
            << "scale=" << scale << " relaxation=" << relaxation;
      }
    }
    opt.enable_relaxation = true;
    // 40x makes a lima readout flip probability 1.64.
    opt.noise_scale = 40.0;
    EXPECT_THROW(NoisyBackend(lima, opt), std::invalid_argument);
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
    DeviceModel nan_readout = lima;
    nan_readout.qubits[1].readout_err_0to1 =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(NoisyBackend(nan_readout, opt), std::invalid_argument);
    DeviceModel nan_err = lima;
    nan_err.err_2q = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(NoisyBackend(nan_err, opt), std::invalid_argument);
    // The largest scale any caller uses keeps every catalog device valid.
    opt.noise_scale = 5.0;
    for (const auto& name : DeviceModel::available())
      EXPECT_NO_THROW(NoisyBackend(DeviceModel::by_name(name), opt)) << name;
  }
}

// shots = 0 reads the device out exactly: a pure function of the
// bindings (so serve may cache and fold it), one inference per
// expect_batch evaluation, and replicas that keep the exact readout.
TEST(NoisyBackend, ExactReadoutAtZeroShots) {
  const auto obs =
      qoc::vqe::compile_observable(qoc::vqe::Hamiltonian::heisenberg(3, 0.7));
  const std::size_t groups = obs.groups().size();
  ASSERT_GT(groups, 1u);
  const Circuit ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  const std::vector<double> theta(
      static_cast<std::size_t>(ansatz.num_trainable()), 0.4);
  const std::vector<qoc::exec::Evaluation> evals(3, {theta, {}});

  NoisyBackendOptions opt;
  opt.shots = 0;
  NoisyBackend exact(DeviceModel::ibmq_manila(), opt);
  opt.shots = 64;
  NoisyBackend sampled(DeviceModel::ibmq_manila(), opt);
  EXPECT_TRUE(exact.deterministic());
  EXPECT_FALSE(sampled.deterministic());

  const auto e = exact.expect_batch(plan, obs, evals, 2);
  EXPECT_EQ(exact.inference_count(), evals.size());
  sampled.expect_batch(plan, obs, evals, 2);
  EXPECT_EQ(sampled.inference_count(), evals.size() * groups);
  // Every evaluation binds the same angles, so exact energies agree.
  EXPECT_EQ(e[0], e[1]);
  EXPECT_EQ(e[0], e[2]);

  const auto replica = exact.clone_replica();
  ASSERT_NE(replica, nullptr);
  EXPECT_TRUE(replica->deterministic());
  EXPECT_EQ(dynamic_cast<const NoisyBackend&>(*replica).options().shots, 0);
  EXPECT_EQ(replica->expect_batch(plan, obs, evals, 1), e);
  EXPECT_EQ(replica->run_batch(plan, evals, 1), exact.run_batch(plan, evals, 2));
}

// A call the device rejects before executing -- a program wider than
// the density matrix holds, or a circuit larger than the device -- must
// count no inference and reserve no stream serial, exact and sampled
// alike: the next auto evaluation still draws stream 0.
TEST(NoisyBackend, RejectedCallsCountNothingAndReserveNoStream) {
  const auto toronto = DeviceModel::ibmq_toronto();
  Circuit small(2);
  small.ry(0, ParamRef::trainable(0));
  small.cx(0, 1);
  small.ry(1, ParamRef::trainable(1));
  const auto small_plan = qoc::exec::CompiledCircuit::compile(small);
  const std::vector<double> theta = {0.7, -1.1};

  std::vector<Circuit> rejected;
  for (const int n : {13, 28}) {  // above 12 active qubits; above 27
    Circuit c(n);
    for (int q = 0; q < n; ++q) c.h(q);
    rejected.push_back(c);
  }
  for (const int shots : {256, 0}) {
    SCOPED_TRACE("shots=" + std::to_string(shots));
    NoisyBackendOptions opt;
    opt.shots = shots;
    opt.seed = 91;
    NoisyBackend backend(toronto, opt);
    for (const auto& c : rejected) {
      SCOPED_TRACE("qubits=" + std::to_string(c.num_qubits()));
      const auto plan = qoc::exec::CompiledCircuit::compile(c);
      const auto obs = qoc::exec::CompiledObservable::compile(
          c.num_qubits(),
          std::vector<qoc::exec::ObservableTerm>{
              {std::string(static_cast<std::size_t>(c.num_qubits()), 'Z'),
               1.0},
              {std::string(static_cast<std::size_t>(c.num_qubits()), 'X'),
               0.5}});
      const std::vector<qoc::exec::Evaluation> evals(4, {{}, {}});
      EXPECT_THROW(backend.run(c, {}, {}), std::invalid_argument);
      EXPECT_THROW(backend.run_batch(plan, evals, 2), std::invalid_argument);
      EXPECT_THROW(backend.expect_batch(plan, obs, evals, 2),
                   std::invalid_argument);
      EXPECT_EQ(backend.inference_count(), 0u);
    }
    qoc::exec::Evaluation pinned{theta, {}};
    pinned.rng_stream = 0;
    const auto want =
        NoisyBackend(toronto, opt).run_batch(small_plan, std::span(&pinned, 1));
    EXPECT_EQ(backend.run(small_plan, theta, {}), want[0]);
    EXPECT_EQ(backend.inference_count(), 1u);
  }
}

TEST(NoisyBackend, CircuitLargerThanDeviceThrows) {
  NoisyBackend backend(DeviceModel::ibmq_manila(), {});
  Circuit c(6);
  c.h(0);
  EXPECT_THROW(backend.run(c, {}, {}), std::invalid_argument);
}

// ---- Non-finite bindings -----------------------------------------------------

// A NaN or infinite theta, input or shift has no defined outcome: every
// backend's run, run_batch and expect_batch must throw
// std::invalid_argument before anything executes or counts, exact and
// sampled alike (the sampled ones used to throw std::domain_error from
// the sampler, the exact ones to return NaN).
TEST(NonFiniteBindings, EveryBackendRejectsBeforeExecuting) {
  Circuit c(2);
  c.ry(0, ParamRef::input(0));
  c.ry(1, ParamRef::trainable(0));
  c.cx(0, 1);
  c.rz(1, ParamRef::trainable(1));
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  const auto obs =
      qoc::vqe::compile_observable(qoc::vqe::Hamiltonian::h2_minimal());
  NoisyBackendOptions noisy_opt;
  noisy_opt.shots = 256;
  std::vector<std::unique_ptr<Backend>> backends;
  backends.push_back(std::make_unique<StatevectorBackend>(0));
  backends.push_back(std::make_unique<StatevectorBackend>(256, 1));
  backends.push_back(
      std::make_unique<NoisyBackend>(DeviceModel::ibmq_manila(), noisy_opt));
  noisy_opt.shots = 0;
  backends.push_back(
      std::make_unique<NoisyBackend>(DeviceModel::ibmq_manila(), noisy_opt));

  const std::vector<double> theta = {0.4, -0.7}, input = {0.9};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()})
    for (const int where : {0, 1, 2}) {  // theta, input, shift
      std::vector<double> t = theta, x = input;
      qoc::exec::Evaluation e{t, x};
      if (where == 0) t[1] = bad;
      if (where == 1) x[0] = bad;
      if (where == 2) {
        e.shift_op = 1;
        e.shift = bad;
      }
      const qoc::exec::Evaluation good{theta, input};
      const std::vector<qoc::exec::Evaluation> batch = {good, e};
      for (auto& b : backends) {
        SCOPED_TRACE(b->name() + (b->deterministic() ? " exact" : "") +
                     " bad=" + std::to_string(bad) +
                     " where=" + std::to_string(where));
        if (where != 2) {
          EXPECT_THROW(b->run(c, t, x), std::invalid_argument);
          EXPECT_THROW(b->run(plan, t, x), std::invalid_argument);
        }
        EXPECT_THROW(b->run_batch(plan, batch, 2), std::invalid_argument);
        EXPECT_THROW(b->expect_batch(plan, obs, batch, 2),
                     std::invalid_argument);
        EXPECT_EQ(b->inference_count(), 0u);
      }
    }
  // The good binding alone still runs everywhere.
  for (auto& b : backends) {
    const qoc::exec::Evaluation good{theta, input};
    const auto z = b->run_batch(plan, std::span(&good, 1), 1);
    for (const double v : z[0]) EXPECT_TRUE(std::isfinite(v)) << b->name();
    EXPECT_TRUE(std::isfinite(
        b->expect_batch(plan, obs, std::span(&good, 1), 1)[0]))
        << b->name();
  }
}

// ---- Bindings the plan cannot run -------------------------------------------

// A theta or input shorter than the plan needs, or a shift on an op out
// of range or without an angle, has no defined outcome either: the one
// binding check rejects it with std::invalid_argument before anything
// counts or reserves a stream, on the statevector and on the device,
// exact and sampled alike. So the next auto evaluation still draws
// stream 0.
TEST(BindingCheck, RejectedCallsCountNothingAndReserveNoStream) {
  Circuit c(2);
  c.ry(0, ParamRef::trainable(0));
  c.cx(0, 1);
  c.ry(1, ParamRef::trainable(1));
  c.rx(0, ParamRef::input(0));
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  const auto obs =
      qoc::vqe::compile_observable(qoc::vqe::Hamiltonian::h2_minimal());
  const std::vector<double> theta = {0.4, -0.7}, input = {0.9};
  const std::vector<double> short_theta = {0.4};

  std::vector<std::pair<std::string, qoc::exec::Evaluation>> rejected = {
      {"short theta", {short_theta, input}}, {"short input", {theta, {}}}};
  for (const std::size_t op : {c.num_ops(), c.num_ops() + 7, std::size_t{1}}) {
    qoc::exec::Evaluation e{theta, input};
    e.shift_op = op;  // past the end, or the unparameterised CX
    e.shift = 0.5;
    rejected.emplace_back("shift_op=" + std::to_string(op), e);
  }

  for (const int shots : {0, 256}) {
    const auto make = [&](int kind) -> std::unique_ptr<Backend> {
      if (kind == 0)
        return std::make_unique<StatevectorBackend>(
            StatevectorBackendOptions{shots, 0x5EED});
      NoisyBackendOptions opt;
      opt.shots = shots;
      opt.seed = 0x5EED;
      return std::make_unique<NoisyBackend>(DeviceModel::ibmq_manila(), opt);
    };
    for (const int kind : {0, 1}) {
      const auto backend = make(kind);
      SCOPED_TRACE(backend->name() + " shots=" + std::to_string(shots));
      for (const auto& [what, bad] : rejected) {
        SCOPED_TRACE(what);
        const qoc::exec::Evaluation good{theta, input};
        const std::vector<qoc::exec::Evaluation> batch = {good, bad, good,
                                                          good};
        if (bad.shift_op == qoc::exec::Evaluation::kNoShift)
          EXPECT_THROW(backend->run(plan, bad.theta, bad.input),
                       std::invalid_argument);
        EXPECT_THROW(backend->run_batch(plan, batch, 2),
                     std::invalid_argument);
        EXPECT_THROW(backend->expect_batch(plan, obs, batch, 2),
                     std::invalid_argument);
        EXPECT_EQ(backend->inference_count(), 0u);
      }
      qoc::exec::Evaluation pinned{theta, input};
      pinned.rng_stream = 0;
      const auto one = std::span(&pinned, 1);
      EXPECT_EQ(backend->run(plan, theta, input),
                make(kind)->run_batch(plan, one)[0]);
      EXPECT_EQ(backend->inference_count(), 1u);
    }
  }
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

TEST(ExpectBatch, ExactReadoutNoiseFreeMatchesStatevector) {
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

  NoisyBackendOptions opt;
  opt.shots = 0;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  opt.enable_readout_error = false;
  NoisyBackend dm(DeviceModel::ibmq_manila(), opt);
  const double e_dm = dm.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];
  EXPECT_NEAR(e_dm, e_exact, 1e-9);
}

TEST(ExpectBatch, NoisyBackendMatchesExactReadout) {
  // With noise enabled, sampled energies must agree with the exact
  // readout of the same device up to shot noise.
  const auto h = qoc::vqe::Hamiltonian::h2_minimal();
  const auto obs = qoc::vqe::compile_observable(h);
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(2, 1);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  Prng rng(24);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  const qoc::exec::Evaluation eval{theta, {},
                                   qoc::exec::Evaluation::kNoShift, 0.0};

  NoisyBackendOptions opt;
  opt.shots = 0;
  NoisyBackend dm(DeviceModel::ibmq_manila(), opt);
  const double e_dm = dm.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];

  opt.shots = 16384;
  NoisyBackend noisy(DeviceModel::ibmq_manila(), opt);
  const double e_noisy =
      noisy.expect_batch(plan, obs, std::span(&eval, 1), 1)[0];
  // Group g contributes the mean of `shots` independent single-shot
  // values v = sum_i c_i (-1)^parity_i, each within [-S_g, S_g] for
  // S_g = sum_i |c_i|, so Var(v) <= S_g^2 (Popoviciu) and the energy's
  // standard deviation is at most sqrt(sum_g S_g^2 / shots). k = 5: a
  // correct backend fails with probability below 5.7e-7.
  double variance = 0.0;
  for (const auto& group : obs.groups()) {
    double range = 0.0;
    for (const auto& term : group.terms) range += std::abs(term.coeff);
    variance += range * range / opt.shots;
  }
  EXPECT_NEAR(e_noisy, e_dm, 5.0 * std::sqrt(variance));
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
