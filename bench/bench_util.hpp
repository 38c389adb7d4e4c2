#pragma once
// Shared harness for the paper-reproduction benchmarks: task registry
// (model + data + device per Sec. 4.1), training-protocol runners for
// Classical-Train / QC-Train / QC-Train-PGP, and table printing helpers.
//
// Environment knobs:
//   QOC_BENCH_STEPS  override the per-run optimizer step count
//   QOC_BENCH_FAST   if set (non-empty), quarter-scale everything

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/data/images.hpp"
#include "qoc/data/vowel.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/obs/metrics.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/training_engine.hpp"

namespace qoc::benchutil {

/// Splices the process-wide metrics registry into an already-written
/// BENCH_<name>.json (as a top-level "qoc_metrics" object before the
/// closing brace), so counters accumulated across the bench run --
/// cache hit rates, batch/flush mix, latency histograms -- travel with
/// the perf lines in the CI artifact.
inline void embed_metrics_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  const auto pos = doc.find_last_of('}');
  if (pos == std::string::npos) return;
  std::ofstream out(path, std::ios::trunc);
  out << doc.substr(0, pos) << ",\n  \"qoc_metrics\": "
      << obs::Registry::global().json_dump() << "\n"
      << doc.substr(pos);
}

/// main() body for google-benchmark binaries that understand `--json`:
/// strips the flag from argv and, when present, appends
/// --benchmark_out=BENCH_<name>.json --benchmark_out_format=json so CI
/// can upload machine-readable results next to the console table.
/// Explicit --benchmark_out flags still win (later flags override).
inline int run_benchmarks_with_json(int argc, char** argv, const char* name) {
  std::vector<char*> args;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json")
      json = true;
    else
      args.push_back(argv[i]);
  }
  std::string out_flag =
      std::string("--benchmark_out=BENCH_") + name + ".json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (json) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  args.push_back(nullptr);  // argv[argc] == nullptr, like main's argv
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (json) embed_metrics_json(std::string("BENCH_") + name + ".json");
  return 0;
}

#define QOC_BENCHMARK_JSON_MAIN(name)                                   \
  int main(int argc, char** argv) {                                     \
    return qoc::benchutil::run_benchmarks_with_json(argc, argv, name);  \
  }

struct Task {
  std::string name;          // "MNIST-4", ...
  std::string model_key;     // make_task_model key
  std::string device;        // paper's device for this task
  data::Dataset train;
  data::Dataset val;
  double pgp_ratio = 0.5;    // paper: 0.7 for Fashion-4, 0.5 otherwise
};

inline bool fast_mode() {
  const char* f = std::getenv("QOC_BENCH_FAST");
  return f != nullptr && f[0] != '\0';
}

inline int default_steps(int normal) {
  if (const char* s = std::getenv("QOC_BENCH_STEPS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fast_mode() ? std::max(4, normal / 4) : normal;
}

/// Number of random seeds to average noisy-protocol results over
/// (QOC_BENCH_SEEDS overrides; 1 in fast mode).
inline int default_seeds(int normal = 2) {
  if (const char* s = std::getenv("QOC_BENCH_SEEDS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fast_mode() ? 1 : normal;
}

/// The five paper tasks with their paper-assigned devices (Sec. 4.2).
inline std::vector<Task> paper_tasks() {
  std::vector<Task> tasks;
  {
    auto td = data::make_mnist4();
    tasks.push_back({"MNIST-4", "mnist4", "ibmq_jakarta",
                     std::move(td.train), std::move(td.val), 0.5});
  }
  {
    auto td = data::make_mnist2();
    tasks.push_back({"MNIST-2", "mnist2", "ibmq_jakarta",
                     std::move(td.train), std::move(td.val), 0.5});
  }
  {
    auto td = data::make_fashion4();
    tasks.push_back({"Fashion-4", "fashion4", "ibmq_manila",
                     std::move(td.train), std::move(td.val), 0.7});
  }
  {
    auto td = data::make_fashion2();
    tasks.push_back({"Fashion-2", "fashion2", "ibmq_santiago",
                     std::move(td.train), std::move(td.val), 0.5});
  }
  {
    auto vt = data::make_vowel4();
    tasks.push_back({"Vowel-4", "vowel4", "ibmq_lima",
                     std::move(vt.train), std::move(vt.val), 0.5});
  }
  return tasks;
}

/// Subset of the tasks by name (benches that only need image tasks).
inline std::vector<Task> paper_tasks(const std::vector<std::string>& names) {
  std::vector<Task> all = paper_tasks();
  std::vector<Task> out;
  for (const auto& n : names)
    for (auto& t : all)
      if (t.name == n) out.push_back(std::move(t));
  return out;
}

inline backend::NoisyBackendOptions default_noisy_options(std::uint64_t seed) {
  backend::NoisyBackendOptions opt;
  opt.shots = 1024;  // paper: "we set all the circuits to run 1024 shots"
  opt.seed = seed;
  // Calibrated error rates alone understate real-device damage (coherent
  // errors, crosstalk and drift are not in the depolarizing model), so the
  // benches scale them up to land in the paper's degradation regime.
  opt.noise_scale = 2.5;
  return opt;
}

inline train::TrainingConfig default_config(int steps, std::uint64_t seed) {
  train::TrainingConfig cfg;
  cfg.steps = steps;
  cfg.batch_size = 6;
  cfg.optimizer = train::OptimizerKind::Adam;
  cfg.lr_start = 0.3;
  cfg.lr_end = 0.03;
  cfg.eval_every = 0;  // benches evaluate explicitly where needed
  cfg.max_eval_examples = 50;
  cfg.seed = seed;
  cfg.threads = 0;  // benches use every core; see TrainingConfig::threads
  return cfg;
}

/// Accuracy of trained parameters on `val`, measured on `eval_backend`,
/// optionally subsampled.
inline double eval_accuracy(const qml::QnnModel& model,
                            backend::Backend& eval_backend,
                            const std::vector<double>& theta,
                            const data::Dataset& val,
                            std::size_t max_examples, std::uint64_t seed) {
  if (max_examples > 0 && val.size() > max_examples) {
    Prng rng(seed);
    const data::Dataset sub = val.sample(max_examples, rng);
    return model.accuracy(eval_backend, theta, sub, /*threads=*/0);
  }
  return model.accuracy(eval_backend, theta, val, /*threads=*/0);
}

struct ProtocolResult {
  std::vector<double> theta;
  std::uint64_t train_inferences = 0;
};

/// Classical-Train: Alg. 1 on a noise-free statevector backend.
inline ProtocolResult train_classical(const Task& task, int steps,
                                      std::uint64_t seed) {
  const qml::QnnModel model = qml::make_task_model(task.model_key);
  backend::StatevectorBackend backend(0);
  auto cfg = default_config(steps, seed);
  train::TrainingEngine engine(model, backend, backend, task.train, task.val,
                               cfg);
  auto res = engine.run();
  return {std::move(res.theta), res.total_inferences};
}

/// QC-Train / QC-Train-PGP: Alg. 1 with gradients evaluated on the task's
/// noisy device model.
///
/// The paper compares protocols at an equal *inference* budget ("the
/// accuracy is collected after finishing a certain number of circuit
/// runs", Sec. 4.2): PGP's skipped gradient evaluations buy it extra
/// optimizer steps within the same budget, so when `use_pgp` is set the
/// step count is scaled up by 1/(1 - savings_fraction).
inline ProtocolResult train_on_chip(const Task& task, int steps,
                                    std::uint64_t seed, bool use_pgp,
                                    bool deterministic_pruning = false) {
  const qml::QnnModel model = qml::make_task_model(task.model_key);
  backend::NoisyBackend qc(noise::DeviceModel::by_name(task.device),
                           default_noisy_options(seed));
  auto cfg = default_config(steps, seed);
  cfg.use_pruning = use_pgp;
  cfg.pruner.accumulation_window = 1;
  cfg.pruner.pruning_window = 2;
  cfg.pruner.ratio = task.pgp_ratio;
  cfg.pruner.deterministic = deterministic_pruning;
  if (use_pgp) {
    const double savings = cfg.pruner.savings_fraction();
    cfg.steps = static_cast<int>(std::lround(steps / (1.0 - savings)));
  }
  train::TrainingEngine engine(model, qc, qc, task.train, task.val, cfg);
  auto res = engine.run();
  return {std::move(res.theta), res.total_inferences};
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace qoc::benchutil
