// Tests for parameter checkpointing and the parallel evaluation paths.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "qoc/backend/backend.hpp"
#include "qoc/common/parallel.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/data/images.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/checkpoint.hpp"
#include "qoc/train/param_shift.hpp"

namespace {

using namespace qoc;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Checkpoint, ThetaRoundTripsExactly) {
  const std::string path = temp_path("qoc_theta_test.txt");
  Prng rng(1);
  std::vector<double> theta(37);
  for (auto& t : theta) t = rng.normal() * 1e3;
  train::save_theta(path, theta);
  const auto loaded = train::load_theta(path);
  ASSERT_EQ(loaded.size(), theta.size());
  for (std::size_t i = 0; i < theta.size(); ++i)
    EXPECT_EQ(loaded[i], theta[i]) << i;  // bit-exact round trip
  std::remove(path.c_str());
}

TEST(Checkpoint, EmptyThetaRoundTrips) {
  const std::string path = temp_path("qoc_theta_empty.txt");
  train::save_theta(path, {});
  EXPECT_TRUE(train::load_theta(path).empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_THROW(train::load_theta("/nonexistent/dir/theta.txt"),
               std::runtime_error);
  const std::string path = temp_path("qoc_theta_bad.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not-a-checkpoint\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(train::load_theta(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsTruncated) {
  const std::string path = temp_path("qoc_theta_trunc.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("qoc-theta v1 5\n1.0\n2.0\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(train::load_theta(path), std::runtime_error);
  std::remove(path.c_str());
}

// A count no file could hold must fail as a format error, not as a
// multi-terabyte allocation.
TEST(Checkpoint, LoadRejectsCountTheFileCannotHold) {
  const std::string path = temp_path("qoc_theta_huge.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("qoc-theta v1 1099511627776\n0.5\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(train::load_theta(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsTrailingData) {
  const std::string path = temp_path("qoc_theta_trailing.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("qoc-theta v1 1\n0.7\ngarbage\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(train::load_theta(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, HistoryCsvHasHeaderAndRows) {
  const std::string path = temp_path("qoc_history.csv");
  std::vector<train::TrainingRecord> hist(2);
  hist[0] = {1, 100, 0.9, 0.5, 0.3};
  hist[1] = {2, 200, 0.7, 0.6, 0.25};
  train::save_history_csv(path, hist);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "step,inferences,train_loss,val_accuracy,learning_rate");
  int rows = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 2);
  std::remove(path.c_str());
}

// ---- Parallel path equivalence ------------------------------------------------

TEST(ParallelPaths, BatchGradientThreadCountInvariantOnExactBackend) {
  const qml::QnnModel model = qml::make_mnist2_model();
  backend::StatevectorBackend backend(0);
  Prng rng(2);
  const auto theta = model.init_params(rng);
  data::Dataset d;
  for (int i = 0; i < 6; ++i) {
    std::vector<double> x(16);
    for (auto& v : x) v = rng.uniform(0, 3);
    d.push(x, i % 2);
  }
  const std::vector<std::size_t> batch = {0, 1, 2, 3, 4, 5};

  train::ParameterShiftEngine seq(backend, model);
  const auto g1 = seq.batch_gradient(theta, d, batch);

  train::ParameterShiftEngine par(backend, model);
  par.set_threads(0);
  const auto g4 = par.batch_gradient(theta, d, batch);

  ASSERT_EQ(g1.grad.size(), g4.grad.size());
  for (std::size_t i = 0; i < g1.grad.size(); ++i)
    EXPECT_DOUBLE_EQ(g1.grad[i], g4.grad[i]) << i;
  EXPECT_DOUBLE_EQ(g1.loss, g4.loss);
  EXPECT_EQ(g1.inferences, g4.inferences);
}

TEST(ParallelPaths, AccuracyThreadCountInvariantOnExactBackend) {
  const qml::QnnModel model = qml::make_mnist4_model();
  backend::StatevectorBackend backend(0);
  Prng rng(3);
  const auto theta = model.init_params(rng);
  data::SyntheticImages gen(data::SyntheticImages::Style::Digits, 4, 5);
  const data::Dataset d = gen.make_dataset(40);
  const double a1 = model.accuracy(backend, theta, d, 1);
  const double a0 = model.accuracy(backend, theta, d, 0);
  EXPECT_DOUBLE_EQ(a1, a0);
}

TEST(ParallelPaths, NoisyBackendToleratesConcurrentRuns) {
  // Smoke test: concurrent run() calls must not crash or corrupt counters.
  backend::NoisyBackendOptions opt;
  opt.trajectories = 4;
  opt.shots = 64;
  backend::NoisyBackend qc(noise::DeviceModel::ibmq_manila(), opt);
  const qml::QnnModel model = qml::make_mnist2_model();
  Prng rng(4);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  qoc::parallel_for(0, 32, [&](std::size_t) {
    const auto f = qc.run(model.circuit(), theta, input);
    ASSERT_EQ(f.size(), 4u);
  });
  EXPECT_EQ(qc.inference_count(), 32u);
}

}  // namespace
