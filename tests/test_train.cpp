// Tests for optimizers, the cosine scheduler and the gradient pruner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "qoc/common/prng.hpp"
#include "qoc/train/optimizer.hpp"
#include "qoc/train/pruner.hpp"
#include "qoc/train/training_engine.hpp"

namespace {

using namespace qoc::train;
using qoc::Prng;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Optimizers -----------------------------------------------------------------

TEST(Sgd, StepIsLrTimesGrad) {
  Sgd opt(0.1);
  std::vector<double> theta = {1.0, 2.0};
  const std::vector<double> grad = {0.5, -1.0};
  opt.step(theta, grad);
  EXPECT_NEAR(theta[0], 0.95, 1e-12);
  EXPECT_NEAR(theta[1], 2.10, 1e-12);
}

TEST(Momentum, AcceleratesAlongConsistentGradient) {
  Momentum opt(0.1, 0.8);
  std::vector<double> theta = {0.0};
  const std::vector<double> grad = {1.0};
  opt.step(theta, grad);
  const double first_step = -theta[0];
  const double before = theta[0];
  opt.step(theta, grad);
  const double second_step = before - theta[0];
  EXPECT_NEAR(first_step, 0.1, 1e-12);
  EXPECT_NEAR(second_step, 0.1 * (1.0 + 0.8), 1e-12);
}

TEST(Adam, MatchesReferenceFirstTwoSteps) {
  // Hand-computed Adam with lr=0.1, betas=(0.9, 0.999), eps=1e-8, g=1.
  Adam opt(0.1);
  std::vector<double> theta = {0.0};
  const std::vector<double> grad = {1.0};
  opt.step(theta, grad);
  // Step 1: m_hat = 1, v_hat = 1 -> theta -= 0.1 * 1/(1 + 1e-8).
  EXPECT_NEAR(theta[0], -0.1, 1e-6);
  opt.step(theta, grad);
  EXPECT_NEAR(theta[0], -0.2, 1e-5);  // bias-corrected unit step again
}

TEST(Adam, AdaptsToGradientScale) {
  // Two parameters with gradients of very different magnitude should move
  // by approximately the same (lr-sized) amount.
  Adam opt(0.05);
  std::vector<double> theta = {0.0, 0.0};
  const std::vector<double> grad = {10.0, 0.01};
  opt.step(theta, grad);
  EXPECT_NEAR(theta[0], -0.05, 1e-6);
  EXPECT_NEAR(theta[1], -0.05, 1e-4);
}

TEST(Optimizers, MaskFreezesParameters) {
  for (const auto kind :
       {OptimizerKind::Sgd, OptimizerKind::Momentum, OptimizerKind::Adam}) {
    auto opt = make_optimizer(kind, 0.1);
    std::vector<double> theta = {1.0, 1.0};
    const std::vector<double> grad = {1.0, 1.0};
    const std::vector<bool> mask = {true, false};
    opt->step(theta, grad, &mask);
    EXPECT_LT(theta[0], 1.0) << optimizer_name(kind);
    EXPECT_EQ(theta[1], 1.0) << optimizer_name(kind);
  }
}

TEST(Adam, FrozenStateDoesNotDecayDuringMask) {
  // A parameter masked out for several steps should behave, once
  // unmasked, as if those steps never happened ("temporarily frozen").
  Adam a(0.1), b(0.1);
  std::vector<double> theta_a = {0.0}, theta_b = {0.0};
  const std::vector<double> grad = {1.0};
  const std::vector<bool> frozen = {false};
  // a: 3 frozen steps then 1 active; b: 1 active step only.
  for (int i = 0; i < 3; ++i) a.step(theta_a, grad, &frozen);
  a.step(theta_a, grad);
  b.step(theta_b, grad);
  EXPECT_NEAR(theta_a[0], theta_b[0], 1e-12);
}

TEST(Optimizers, SizeMismatchThrows) {
  Sgd opt(0.1);
  std::vector<double> theta = {1.0, 2.0};
  EXPECT_THROW(opt.step(theta, std::vector<double>{1.0}),
               std::invalid_argument);
  const std::vector<double> grad = {1.0, 1.0};
  const std::vector<bool> mask = {true};
  EXPECT_THROW(opt.step(theta, grad, &mask), std::invalid_argument);
}

TEST(CosineScheduler, EndpointsAndMonotoneDecay) {
  CosineScheduler sched(0.3, 0.03, 100);
  EXPECT_NEAR(sched.at(0), 0.3, 1e-12);
  EXPECT_NEAR(sched.at(100), 0.03, 1e-12);
  EXPECT_NEAR(sched.at(50), (0.3 + 0.03) / 2.0, 1e-12);
  for (int t = 1; t <= 100; ++t) EXPECT_LE(sched.at(t), sched.at(t - 1) + 1e-12);
}

TEST(CosineScheduler, ClampsOutOfRangeSteps) {
  CosineScheduler sched(0.3, 0.03, 10);
  EXPECT_NEAR(sched.at(-5), 0.3, 1e-12);
  EXPECT_NEAR(sched.at(50), 0.03, 1e-12);
}

// ---- Weighted sampling -------------------------------------------------------------

TEST(WeightedSampling, ReturnsKDistinctIndices) {
  Prng rng(1);
  const std::vector<double> w = {1, 2, 3, 4, 5, 6};
  const auto picked = weighted_sample_without_replacement(w, 4, rng);
  EXPECT_EQ(picked.size(), 4u);
  std::set<std::size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(WeightedSampling, HeavyWeightsPickedMoreOften) {
  Prng rng(2);
  const std::vector<double> w = {1.0, 1.0, 8.0, 1.0};
  std::vector<int> counts(4, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t)
    for (const auto i : weighted_sample_without_replacement(w, 1, rng))
      ++counts[i];
  EXPECT_NEAR(static_cast<double>(counts[2]) / trials, 8.0 / 11.0, 0.02);
}

TEST(WeightedSampling, ZeroWeightsOnlyUsedWhenNecessary) {
  Prng rng(3);
  const std::vector<double> w = {0.0, 5.0, 0.0, 5.0};
  for (int t = 0; t < 200; ++t) {
    const auto picked = weighted_sample_without_replacement(w, 2, rng);
    for (const auto i : picked) EXPECT_TRUE(i == 1 || i == 3);
  }
  // Asking for 3 must include one zero-weight item.
  const auto picked = weighted_sample_without_replacement(w, 3, rng);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(WeightedSampling, RejectsBadInputs) {
  Prng rng(4);
  const std::vector<double> w = {1.0, -2.0};
  EXPECT_THROW(weighted_sample_without_replacement(w, 1, rng),
               std::invalid_argument);
  const std::vector<double> ok = {1.0};
  EXPECT_THROW(weighted_sample_without_replacement(ok, 2, rng),
               std::invalid_argument);
}

// ---- Pruner --------------------------------------------------------------------------

TEST(PrunerConfig, SavingsFractionFormula) {
  PrunerConfig cfg;
  cfg.accumulation_window = 1;
  cfg.pruning_window = 2;
  cfg.ratio = 0.5;
  // r * wp / (wa + wp) = 0.5 * 2/3.
  EXPECT_NEAR(cfg.savings_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(PrunerConfig, Validation) {
  PrunerConfig cfg;
  cfg.accumulation_window = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = PrunerConfig{};
  cfg.ratio = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // NaN compares false both ways, so a range check written as "out of
  // range" would let it through to sample_mask's size_t cast.
  for (const double r : {kNaN, kInf, -kInf}) {
    cfg.ratio = r;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << r;
  }
  for (const double r : {0.0, 1.0}) {
    cfg.ratio = r;
    EXPECT_NO_THROW(cfg.validate()) << r;
  }
}

TEST(TrainingConfig, ValidationRejectsNonFiniteLearningRates) {
  for (const double lr : {kNaN, kInf, -kInf, 0.0, -0.1}) {
    TrainingConfig cfg;
    cfg.lr_start = lr;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << lr;
  }
  for (const double lr : {kNaN, kInf, -kInf, -0.1}) {
    TrainingConfig cfg;
    cfg.lr_end = lr;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << lr;
  }
  TrainingConfig cfg;
  cfg.lr_end = 0.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.use_pruning = true;
  cfg.pruner.ratio = kNaN;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Pruner, PhaseScheduleFollowsWindows) {
  PrunerConfig cfg;
  cfg.accumulation_window = 2;
  cfg.pruning_window = 3;
  GradientPruner pruner(10, cfg, 5);
  // Stage: A A P P P | A A P P P ...
  for (int stage = 0; stage < 3; ++stage) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(pruner.in_accumulation_phase());
      const auto mask = pruner.next_mask();
      EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 10);
      pruner.observe(std::vector<double>(10, 1.0));
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(pruner.in_accumulation_phase());
      const auto mask = pruner.next_mask();
      EXPECT_LT(std::count(mask.begin(), mask.end(), true), 10);
      pruner.observe(std::vector<double>(10, 1.0));
    }
  }
}

TEST(Pruner, MaskSizeMatchesKeepFraction) {
  PrunerConfig cfg;
  cfg.accumulation_window = 1;
  cfg.pruning_window = 1;
  cfg.ratio = 0.3;
  GradientPruner pruner(10, cfg, 6);
  pruner.next_mask();
  pruner.observe(std::vector<double>(10, 1.0));
  const auto mask = pruner.next_mask();
  EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 7);  // ceil(0.7*10)
}

TEST(Pruner, AccumulatorSumsMagnitudesAndResetsPerStage) {
  PrunerConfig cfg;
  cfg.accumulation_window = 2;
  cfg.pruning_window = 1;
  GradientPruner pruner(3, cfg, 7);
  pruner.next_mask();
  pruner.observe(std::vector<double>{1.0, -2.0, 0.5});
  pruner.next_mask();
  pruner.observe(std::vector<double>{-1.0, 1.0, 0.25});
  const auto& m = pruner.accumulated_magnitude();
  EXPECT_NEAR(m[0], 2.0, 1e-12);
  EXPECT_NEAR(m[1], 3.0, 1e-12);
  EXPECT_NEAR(m[2], 0.75, 1e-12);
  pruner.next_mask();  // pruning step
  pruner.observe(std::vector<double>{9.0, 9.0, 9.0});  // must NOT accumulate
  EXPECT_NEAR(pruner.accumulated_magnitude()[0], 2.0, 1e-12);
  pruner.next_mask();  // new stage -> reset
  EXPECT_NEAR(pruner.accumulated_magnitude()[0], 0.0, 1e-12);
}

TEST(Pruner, ProbabilisticFavoursLargeAccumulatedGradients) {
  PrunerConfig cfg;
  cfg.accumulation_window = 1;
  cfg.pruning_window = 1;
  cfg.ratio = 0.5;
  int kept_large = 0, kept_small = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    GradientPruner pruner(4, cfg, 1000 + t);
    pruner.next_mask();
    pruner.observe(std::vector<double>{10.0, 10.0, 0.1, 0.1});
    const auto mask = pruner.next_mask();
    if (mask[0]) ++kept_large;
    if (mask[2]) ++kept_small;
  }
  EXPECT_GT(kept_large, kept_small * 3);
}

TEST(Pruner, DeterministicKeepsTopK) {
  PrunerConfig cfg;
  cfg.accumulation_window = 1;
  cfg.pruning_window = 1;
  cfg.ratio = 0.5;
  cfg.deterministic = true;
  GradientPruner pruner(4, cfg, 8);
  pruner.next_mask();
  pruner.observe(std::vector<double>{0.1, 5.0, 0.2, 4.0});
  const auto mask = pruner.next_mask();
  EXPECT_FALSE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_FALSE(mask[2]);
  EXPECT_TRUE(mask[3]);
}

TEST(Pruner, RatioOneFreezesEverything) {
  PrunerConfig cfg;
  cfg.accumulation_window = 1;
  cfg.pruning_window = 1;
  cfg.ratio = 1.0;
  GradientPruner pruner(5, cfg, 9);
  pruner.next_mask();
  pruner.observe(std::vector<double>(5, 1.0));
  const auto mask = pruner.next_mask();
  EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 0);
}

TEST(Pruner, ZeroPruningWindowNeverPrunes) {
  PrunerConfig cfg;
  cfg.pruning_window = 0;
  GradientPruner pruner(5, cfg, 10);
  for (int i = 0; i < 20; ++i) {
    const auto mask = pruner.next_mask();
    EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 5);
    pruner.observe(std::vector<double>(5, 1.0));
  }
}

TEST(Pruner, ObserveSizeMismatchThrows) {
  GradientPruner pruner(5, PrunerConfig{}, 11);
  pruner.next_mask();
  EXPECT_THROW(pruner.observe(std::vector<double>(3, 1.0)),
               std::invalid_argument);
}

// ---- Parameterized ratio sweep ------------------------------------------------------

class PrunerRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(PrunerRatioSweep, KeepCountMatchesCeil) {
  const double r = GetParam();
  PrunerConfig cfg;
  cfg.accumulation_window = 1;
  cfg.pruning_window = 1;
  cfg.ratio = r;
  const int n = 24;
  GradientPruner pruner(n, cfg, 12);
  pruner.next_mask();
  pruner.observe(std::vector<double>(n, 1.0));
  const auto mask = pruner.next_mask();
  const auto kept = std::count(mask.begin(), mask.end(), true);
  EXPECT_EQ(kept, static_cast<long>(std::ceil((1.0 - r) * n)));
}

INSTANTIATE_TEST_SUITE_P(Ratios, PrunerRatioSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0));

}  // namespace
