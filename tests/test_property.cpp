// Cross-cutting property tests: every bundled device model must accept
// every task circuit through the full transpile + execute path, and the
// training engine must fail loudly (not silently corrupt) when a backend
// misbehaves.

#include <gtest/gtest.h>

#include <cmath>

#include "qoc/backend/backend.hpp"
#include "qoc/common/parallel.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/data/images.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/training_engine.hpp"
#include "qoc/transpile/transpile.hpp"

namespace {

using namespace qoc;

// ---- Device x task sweep -----------------------------------------------------

struct DeviceTaskCase {
  const char* device;
  const char* task;
};

class DeviceTaskSweep : public ::testing::TestWithParam<DeviceTaskCase> {};

TEST_P(DeviceTaskSweep, TranspilesToCoupledBasisOps) {
  const auto [device_name, task_name] = GetParam();
  const auto device = noise::DeviceModel::by_name(device_name);
  const qml::QnnModel model = qml::make_task_model(task_name);
  if (model.circuit().num_qubits() > device.n_qubits) GTEST_SKIP();

  Prng rng(1);
  const auto theta = model.init_params(rng);
  std::vector<double> input(static_cast<std::size_t>(model.num_inputs()),
                            0.7);
  const auto t = transpile::transpile(model.circuit(), theta, input, device);

  for (const auto& op : t.ops) {
    // Basis gates only.
    EXPECT_TRUE(op.kind == circuit::GateKind::Rz ||
                op.kind == circuit::GateKind::Sx ||
                op.kind == circuit::GateKind::X ||
                op.kind == circuit::GateKind::Cx)
        << circuit::gate_name(op.kind);
    // Two-qubit gates must respect the coupling map.
    if (op.qubits.size() == 2)
      EXPECT_TRUE(device.connected(op.qubits[0], op.qubits[1]))
          << device_name << " " << op.qubits[0] << "-" << op.qubits[1];
  }
  // Layout is a valid permutation slice.
  std::vector<bool> seen(static_cast<std::size_t>(device.n_qubits), false);
  for (const int p : t.final_layout) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, device.n_qubits);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
}

TEST_P(DeviceTaskSweep, NoisyExecutionProducesBoundedExpectations) {
  const auto [device_name, task_name] = GetParam();
  const auto device = noise::DeviceModel::by_name(device_name);
  const qml::QnnModel model = qml::make_task_model(task_name);
  if (model.circuit().num_qubits() > device.n_qubits) GTEST_SKIP();

  backend::NoisyBackendOptions opt;
  opt.shots = 64;
  backend::NoisyBackend qc(device, opt);
  Prng rng(2);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(
      static_cast<std::size_t>(model.num_inputs()), 0.4);
  const auto f = qc.run(model.circuit(), theta, input);
  ASSERT_EQ(f.size(), static_cast<std::size_t>(model.circuit().num_qubits()));
  for (const double v : f) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDevicesAllTasks, DeviceTaskSweep,
    ::testing::Values(DeviceTaskCase{"ibmq_jakarta", "mnist4"},
                      DeviceTaskCase{"ibmq_jakarta", "mnist2"},
                      DeviceTaskCase{"ibmq_manila", "fashion4"},
                      DeviceTaskCase{"ibmq_santiago", "fashion2"},
                      DeviceTaskCase{"ibmq_lima", "vowel4"},
                      DeviceTaskCase{"ibmq_casablanca", "mnist4"},
                      DeviceTaskCase{"ibmq_manila", "vowel4"},
                      DeviceTaskCase{"ibmq_lima", "mnist2"},
                      DeviceTaskCase{"ibmq_toronto", "mnist4"},
                      DeviceTaskCase{"ibmq_toronto", "vowel4"}));

// ---- Failure injection ---------------------------------------------------------

/// A backend that returns garbage (NaN) expectation values after a given
/// number of healthy runs -- modelling a device whose calibration went
/// stale mid-session.
class FlakyBackend final : public backend::Backend {
 public:
  FlakyBackend(int healthy_runs) : healthy_runs_(healthy_runs) {}
  std::string name() const override { return "flaky"; }

 protected:
  std::vector<std::vector<double>> execute_batch(
      const exec::CompiledCircuit& plan,
      std::span<const exec::Evaluation> evals, unsigned threads) override {
    if (static_cast<int>(inference_count()) > healthy_runs_)
      return std::vector<std::vector<double>>(
          evals.size(),
          std::vector<double>(static_cast<std::size_t>(plan.num_qubits()),
                              std::nan("")));
    return healthy_.run_batch(plan, evals, threads);
  }

 private:
  int healthy_runs_;
  backend::StatevectorBackend healthy_{0};
};

TEST(FailureInjection, NanExpectationsSurfaceInLossNotCrash) {
  const qml::QnnModel model = qml::make_mnist2_model();
  data::SyntheticImages gen(data::SyntheticImages::Style::Digits, 2, 3);
  const data::Dataset train = gen.make_dataset(8);

  FlakyBackend flaky(/*healthy_runs=*/5);
  train::TrainingConfig cfg;
  cfg.steps = 2;
  cfg.batch_size = 2;
  cfg.eval_every = 0;
  cfg.seed = 4;
  train::TrainingEngine engine(model, flaky, flaky, train, train, cfg);
  // NaN gradients must propagate to the parameters (observable failure),
  // never crash or silently clamp: the next execution with those
  // parameters is rejected with a typed error before it runs.
  EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(FailureInjection, ThrowingBackendPropagates) {
  class ThrowingBackend final : public backend::Backend {
   public:
    std::string name() const override { return "throwing"; }

   protected:
    std::vector<std::vector<double>> execute_batch(
        const exec::CompiledCircuit&, std::span<const exec::Evaluation>,
        unsigned) override {
      throw std::runtime_error("device offline");
    }
  };

  const qml::QnnModel model = qml::make_mnist2_model();
  data::SyntheticImages gen(data::SyntheticImages::Style::Digits, 2, 5);
  const data::Dataset train = gen.make_dataset(4);
  ThrowingBackend bad;
  train::TrainingConfig cfg;
  cfg.steps = 1;
  cfg.batch_size = 2;
  cfg.eval_every = 0;
  train::TrainingEngine engine(model, bad, bad, train, train, cfg);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(FailureInjection, ThrowingBackendPropagatesAcrossThreads) {
  // Exceptions raised inside parallel_for workers must be rethrown on the
  // caller thread: the backend fails from inside every chunk of its own
  // fan-out, at the thread count the engine passes down.
  class ThrowingBackend final : public backend::Backend {
   public:
    std::string name() const override { return "throwing"; }

   protected:
    std::vector<std::vector<double>> execute_batch(
        const exec::CompiledCircuit&, std::span<const exec::Evaluation> evals,
        unsigned threads) override {
      parallel_for_chunked(
          0, evals.size(),
          [](std::size_t, std::size_t) {
            throw std::runtime_error("device offline");
          },
          threads);
      return {};
    }
  };
  const qml::QnnModel model = qml::make_mnist2_model();
  data::SyntheticImages gen(data::SyntheticImages::Style::Digits, 2, 5);
  const data::Dataset train = gen.make_dataset(8);
  ThrowingBackend bad;
  train::TrainingConfig cfg;
  cfg.steps = 1;
  cfg.batch_size = 8;
  cfg.eval_every = 0;
  cfg.threads = 0;
  train::TrainingEngine engine(model, bad, bad, train, train, cfg);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

}  // namespace
