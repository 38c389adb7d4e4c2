// The device backends against fixed oracles.
//
//  * ExactPins: NoisyBackend's exact readout (shots = 0) on every
//    catalog device with <= 12 qubits (and a device with per-qubit calibration
//    and a routed gap) x the five task models x four noise
//    configurations x two noise scales, pinned to 1e-12 against values
//    recorded from the Kraus-channel density-matrix walk that preceded
//    the fused superoperator engine.
//  * DeviceOracle: NoisyBackend's shot counts, pooled over pinned
//    streams, against its exact readout's probabilities with a
//    chi-square test per count, at a stated family-wise false-failure
//    rate; and two injected biases that the same threshold must catch.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/vqe/vqe.hpp"

namespace {

using namespace qoc::backend;
using qoc::Prng;
using qoc::circuit::Circuit;
using qoc::noise::DeviceModel;

/// ibmq_lima rewired to the coupling 0-3, 3-1, 1-2, 2-4, with its own T1,
/// T2 and readout flips on every qubit (test_sampling.cpp's gap device):
/// a circuit on it can leave an idle physical qubit between its active
/// ones, so a noise or readout lookup by compact index instead of by
/// physical index changes results.
DeviceModel gap_device() {
  DeviceModel d = DeviceModel::ibmq_lima();
  d.name = "gap_lima";
  d.coupling = {{0, 3}, {3, 1}, {1, 2}, {2, 4}};
  for (std::size_t q = 0; q < d.qubits.size(); ++q) {
    const double s = static_cast<double>(q);
    d.qubits[q] = {(60.0 + 20.0 * s) * 1e-6, (45.0 + 10.0 * s) * 1e-6,
                   0.01 + 0.015 * s, 0.02 + 0.02 * s};
  }
  d.validate();
  return d;
}

/// Every catalog device a density matrix can hold, then the gap device.
std::vector<DeviceModel> oracle_devices() {
  std::vector<DeviceModel> out;
  for (const auto& name : DeviceModel::available()) {
    DeviceModel d = DeviceModel::by_name(name);
    if (d.n_qubits <= 12) out.push_back(std::move(d));
  }
  out.push_back(gap_device());
  return out;
}

const char* const kTasks[] = {"mnist4", "mnist2", "fashion4", "fashion2",
                              "vowel4"};

/// The gap device's own circuits (test_sampling.cpp's gap_circuits):
/// RY.CX(0,1).RY, whose CX routes through an idle physical qubit, and a
/// 3-qubit circuit whose logical qubit 2 has no gate but is measured.
std::vector<Circuit> gap_circuits() {
  using qoc::circuit::ParamRef;
  Circuit routed(2);
  qoc::circuit::add_ry_layer(routed);
  routed.cx(0, 1);
  qoc::circuit::add_ry_layer(routed);
  Circuit measured_idle(3);
  for (const int q : {0, 1})
    measured_idle.ry(q, ParamRef::trainable(measured_idle.new_trainable()));
  measured_idle.cx(1, 0);
  for (const int q : {0, 1})
    measured_idle.ry(q, ParamRef::trainable(measured_idle.new_trainable()));
  return {routed, measured_idle};
}

struct NoiseConfig {
  const char* name;
  bool gate, relaxation, readout;
};

const NoiseConfig kNoiseConfigs[] = {{"all", true, true, true},
                                     {"gate", true, false, false},
                                     {"relaxation", false, true, false},
                                     {"readout", false, false, true}};

/// `count` bindings of a circuit: theta and inputs uniform in [-pi, pi),
/// from one fixed stream, so a binding depends only on the circuit's
/// parameter and input counts.
struct Bindings {
  std::vector<std::vector<double>> theta, input;
  std::vector<qoc::exec::Evaluation> evals;

  Bindings(const Circuit& c, std::size_t count, std::uint64_t seed) {
    Prng rng(seed);
    const double pi = std::acos(-1.0);
    theta.assign(count,
                 std::vector<double>(static_cast<std::size_t>(
                     c.num_trainable())));
    input.assign(count,
                 std::vector<double>(static_cast<std::size_t>(c.num_inputs())));
    for (std::size_t k = 0; k < count; ++k) {
      for (auto& t : theta[k]) t = rng.uniform(-pi, pi);
      for (auto& x : input[k]) x = rng.uniform(-pi, pi);
    }
    for (std::size_t k = 0; k < count; ++k)
      evals.push_back({theta[k], input[k]});
  }
};

/// The exact readout on one (device, circuit, noise, scale) case, two
/// bindings: binding 0's <Z_q> for every logical qubit and its
/// expect_batch energy of a Heisenberg observable (X and Y suffix
/// groups), then binding 1's.
std::vector<double> exact_case(const DeviceModel& device, const Circuit& c,
                               const NoiseConfig& noise, double scale) {
  NoisyBackendOptions opt;
  opt.shots = 0;
  opt.enable_gate_noise = noise.gate;
  opt.enable_relaxation = noise.relaxation;
  opt.enable_readout_error = noise.readout;
  opt.noise_scale = scale;
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  const Bindings b(c, 2, 0xE1AC7ULL);
  const auto z = NoisyBackend(device, opt).run_batch(plan, b.evals, 1);
  const auto e = NoisyBackend(device, opt).expect_batch(
      plan,
      qoc::vqe::compile_observable(
          qoc::vqe::Hamiltonian::heisenberg(c.num_qubits(), 0.7)),
      b.evals, 1);
  std::vector<double> out;
  for (std::size_t k = 0; k < b.evals.size(); ++k) {
    out.insert(out.end(), z[k].begin(), z[k].end());
    out.push_back(e[k]);
  }
  return out;
}

struct ExactCase {
  std::string label;
  std::size_t first = 0, count = 0;  // its values in the pin table
};

/// Every exact case in table order, its values appended to `values`.
std::vector<ExactCase> exact_sweep(std::vector<double>& values) {
  std::vector<ExactCase> cases;
  const auto run = [&](const DeviceModel& d, const Circuit& c,
                       const std::string& circuit_name) {
    for (const auto& noise : kNoiseConfigs)
      for (const double scale : {1.0, 2.5}) {
        const auto v = exact_case(d, c, noise, scale);
        cases.push_back({d.name + " " + circuit_name + " noise=" + noise.name +
                             " scale=" + std::to_string(scale),
                         values.size(), v.size()});
        values.insert(values.end(), v.begin(), v.end());
      }
  };
  for (const auto& d : oracle_devices())
    for (const char* task : kTasks)
      run(d, qoc::qml::make_task_model(task).circuit(), task);
  const auto gap = gap_circuits();
  for (std::size_t i = 0; i < gap.size(); ++i)
    run(gap_device(), gap[i], "gap_circuit_" + std::to_string(i));
  return cases;
}

const std::vector<std::uint64_t> kExactPins = {
#include "golden/device_exact_pins.inc"
};

TEST(ExactPins, ExactReadoutMatchesRecordedValues) {
  std::vector<double> got;
  const auto cases = exact_sweep(got);
  if (kExactPins.size() != got.size()) {
    // An empty table is the recording mode: print one to paste into
    // tests/golden/device_exact_pins.inc.
    for (std::size_t i = 0; i < got.size(); ++i)
      std::printf("0x%016llxULL,%s",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(got[i])),
                  i % 3 == 2 ? "\n" : " ");
    std::printf("\n");
    FAIL() << "pin table holds " << kExactPins.size() << " values, the sweep "
           << got.size();
  }
  for (const auto& c : cases)
    for (std::size_t i = c.first; i < c.first + c.count; ++i)
      EXPECT_NEAR(got[i], std::bit_cast<double>(kExactPins[i]), 1e-12)
          << c.label << " value " << i - c.first;
}

// ---- Statistical oracle ------------------------------------------------------
//
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
  for (const auto& d : oracle_devices())
    for (const char* task : kTasks) {
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
