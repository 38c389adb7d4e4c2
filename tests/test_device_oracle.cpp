// NoisyBackend's shot counts, pooled over pinned streams, against its
// exact readout's probabilities with a chi-square test per count, at a
// stated family-wise false-failure rate; and two injected biases that the
// same threshold must catch. The exact readout itself is checked against
// a Kraus-channel reference device in test_device_reference.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/qml/qnn.hpp"
#include "support/device_reference.hpp"

namespace {

using namespace qoc::backend;
using qoc::circuit::Circuit;
using qoc::noise::DeviceModel;
using qoc::reference::Bindings;

// Counts come out of the public API exactly: a sampled <Z_q> is
// (shots - 2 * ones_q) / shots and an expect term's mean (shots - 2 *
// odd) / shots, with shots a power of two. Per device and task, one
// binding runs N times on pinned streams (independent draws of the same
// distribution) at the benches' noise x2.5. Each logical qubit's pooled
// ones count, and the pooled odd-parity count of Z on all four qubits
// from expect_batch, is a Binomial(N * shots, p) whose p the exact
// readout gives. Each count yields a Pearson
// statistic (k - T p)^2 / (T p (1 - p)), chi-square with 1 degree of
// freedom for a correct backend. The family is Bonferroni-corrected:
// every statistic must stay under the chi-square quantile at
// kFamilyAlpha / (number of statistics), so a correct backend fails the
// sweep with probability at most kFamilyAlpha under any fixed seeds.

constexpr int kOracleShots = 1024;
constexpr int kOracleEvals = 64;
constexpr double kOracleScale = 2.5;
constexpr double kFamilyAlpha = 1e-4;

/// The value a chi-square (1 dof) statistic exceeds with probability
/// `alpha`: z^2 where P(|Z| > z) = erfc(z / sqrt 2) = alpha.
double chi2_1_quantile(double alpha) {
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (std::erfc(mid / std::sqrt(2.0)) > alpha ? lo : hi) = mid;
  }
  return lo * lo;
}

double pearson(std::int64_t k, std::int64_t trials, double p) {
  const double t = static_cast<double>(trials);
  const double d = static_cast<double>(k) - t * p;
  return d * d / (t * p * (1.0 - p));
}

/// Shots that read -1 behind a sampled mean; asserts the mean is
/// exactly (shots - 2 * minus) / shots.
std::int64_t minus_count(double mean) {
  const auto minus =
      std::llround((1.0 - mean) * static_cast<double>(kOracleShots) / 2.0);
  EXPECT_EQ(mean, static_cast<double>(kOracleShots - 2 * minus) /
                      static_cast<double>(kOracleShots));
  return minus;
}

struct OracleCell {
  std::string label;
  std::vector<double> stats;  // one per logical qubit, then the parity
};

/// The oracle statistics of one device and task: NoisyBackend on
/// `sampled_device` with `opt`, against the exact readout of `device`
/// with every noise source on.
OracleCell oracle_cell(const DeviceModel& device,
                       const DeviceModel& sampled_device,
                       const NoisyBackendOptions& opt, const char* task,
                       std::uint64_t streams) {
  const Circuit c = qoc::qml::make_task_model(task).circuit();
  const int n = c.num_qubits();
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  const auto parity = qoc::exec::CompiledObservable::compile(
      n, std::vector<qoc::exec::ObservableTerm>{{std::string(n, 'Z'), 1.0}});
  const Bindings b(c, 1, 0x0AC1E5ULL + streams);
  std::vector<qoc::exec::Evaluation> evals(kOracleEvals, b.evals[0]);
  for (std::size_t k = 0; k < evals.size(); ++k)
    evals[k].rng_stream = streams + k;

  NoisyBackendOptions exact_opt;
  exact_opt.shots = 0;
  exact_opt.noise_scale = kOracleScale;
  NoisyBackend exact(device, exact_opt);
  const auto z_exact = exact.run_batch(plan, std::span(b.evals), 1)[0];
  const double parity_exact =
      exact.expect_batch(plan, parity, std::span(b.evals), 1)[0];

  NoisyBackend sampled(sampled_device, opt);
  const auto z = sampled.run_batch(plan, evals, 2);
  const auto e = sampled.expect_batch(plan, parity, evals, 2);

  const std::int64_t trials =
      static_cast<std::int64_t>(kOracleEvals) * kOracleShots;
  OracleCell cell{device.name + " " + task, {}};
  for (int q = 0; q < n; ++q) {
    std::int64_t ones = 0;
    for (const auto& zk : z) ones += minus_count(zk[static_cast<std::size_t>(q)]);
    cell.stats.push_back(
        pearson(ones, trials, (1.0 - z_exact[static_cast<std::size_t>(q)]) / 2.0));
  }
  std::int64_t odd = 0;
  for (const double ek : e) odd += minus_count(ek);
  cell.stats.push_back(pearson(odd, trials, (1.0 - parity_exact) / 2.0));
  return cell;
}

/// The whole sweep: every oracle device x task. `inject` may change
/// the sampled side (its device model and options) to plant a bias.
template <class Inject>
std::vector<OracleCell> oracle_sweep(Inject&& inject) {
  std::vector<OracleCell> cells;
  std::uint64_t streams = 1000;
  for (const auto& d : qoc::reference::sweep_devices())
    for (const char* task : qoc::reference::kTasks) {
      DeviceModel sampled_device = d;
      NoisyBackendOptions opt;
      opt.shots = kOracleShots;
      opt.seed = 0x0AC1EULL;
      opt.noise_scale = kOracleScale;
      inject(sampled_device, opt);
      cells.push_back(oracle_cell(d, sampled_device, opt, task, streams));
      streams += kOracleEvals;
    }
  return cells;
}

double family_threshold(const std::vector<OracleCell>& cells) {
  std::size_t tests = 0;
  for (const auto& c : cells) tests += c.stats.size();
  return chi2_1_quantile(kFamilyAlpha / static_cast<double>(tests));
}

double max_stat(const OracleCell& c) {
  return *std::max_element(c.stats.begin(), c.stats.end());
}

TEST(DeviceOracle, NoisyBackendCountsFitExactDistribution) {
  const auto cells = oracle_sweep([](DeviceModel&, NoisyBackendOptions&) {});
  const double threshold = family_threshold(cells);
  for (const auto& c : cells)
    for (std::size_t i = 0; i < c.stats.size(); ++i)
      EXPECT_LE(c.stats[i], threshold) << c.label << " count " << i;
}

/// The cells whose bias the ROADMAP measured (noise x2.5: MNIST-4 and
/// Fashion-4 on jakarta and manila); each must fail on its own.
bool measured_cell(const std::string& label) {
  for (const char* d : {"ibmq_jakarta ", "ibmq_manila "})
    for (const char* t : {"mnist4", "fashion4"})
      if (label == std::string(d) + t) return true;
  return false;
}

void expect_bias_detected(const std::vector<OracleCell>& cells) {
  const double threshold = family_threshold(cells);
  std::size_t failing = 0;
  for (const auto& c : cells) {
    const bool fails = max_stat(c) > threshold;
    failing += fails;
    if (measured_cell(c.label))
      EXPECT_TRUE(fails) << c.label << " max statistic " << max_stat(c)
                         << " threshold " << threshold;
  }
  EXPECT_GT(failing, 0u);
}

TEST(DeviceOracle, DetectsSwappedReadoutFlips) {
  expect_bias_detected(
      oracle_sweep([](DeviceModel& d, NoisyBackendOptions&) {
        for (auto& q : d.qubits)
          std::swap(q.readout_err_0to1, q.readout_err_1to0);
      }));
}

TEST(DeviceOracle, DetectsDroppedRelaxation) {
  expect_bias_detected(
      oracle_sweep([](DeviceModel&, NoisyBackendOptions& opt) {
        opt.enable_relaxation = false;
      }));
}

}  // namespace
