// Command-line driver for the QOC training pipeline: pick a task, a
// protocol and hyper-parameters without recompiling. Mirrors how the
// paper's experiments are launched from TorchQuantum scripts.
//
// Usage:
//   train_cli [--task mnist2|mnist4|fashion2|fashion4|vowel4]
//             [--protocol classical|qc|pgp] [--steps N] [--batch N]
//             [--optimizer sgd|momentum|adam] [--ratio R] [--wa N] [--wp N]
//             [--shots N] [--noise-scale X] [--seed N] [--threads N]
//             [--save-theta FILE] [--save-history FILE]
//
// Example:
//   ./build/examples/train_cli --task fashion2 --protocol pgp --steps 30

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "qoc/backend/backend.hpp"
#include "qoc/data/images.hpp"
#include "qoc/data/vowel.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/checkpoint.hpp"
#include "qoc/train/training_engine.hpp"

namespace {

struct Args {
  std::string task = "mnist2";
  std::string protocol = "pgp";
  int steps = 30;
  std::size_t batch = 6;
  std::string optimizer = "adam";
  double ratio = 0.5;
  int wa = 1;
  int wp = 2;
  int shots = 1024;
  double noise_scale = 2.5;
  std::uint64_t seed = 42;
  unsigned threads = 0;
  std::string save_theta;
  std::string save_history;
};

[[noreturn]] void usage_and_exit(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: train_cli [--task mnist2|mnist4|fashion2|fashion4|vowel4]\n"
      "                 [--protocol classical|qc|pgp] [--steps N]\n"
      "                 [--batch N] [--optimizer sgd|momentum|adam]\n"
      "                 [--ratio R] [--wa N] [--wp N] [--shots N]\n"
      "                 [--noise-scale X] [--seed N] [--threads N]\n"
      "                 [--save-theta FILE] [--save-history FILE]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--task") a.task = next();
    else if (flag == "--protocol") a.protocol = next();
    else if (flag == "--steps") a.steps = std::atoi(next());
    else if (flag == "--batch") a.batch = static_cast<std::size_t>(std::atoi(next()));
    else if (flag == "--optimizer") a.optimizer = next();
    else if (flag == "--ratio") a.ratio = std::atof(next());
    else if (flag == "--wa") a.wa = std::atoi(next());
    else if (flag == "--wp") a.wp = std::atoi(next());
    else if (flag == "--shots") a.shots = std::atoi(next());
    else if (flag == "--noise-scale") a.noise_scale = std::atof(next());
    else if (flag == "--seed") a.seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (flag == "--threads") a.threads = static_cast<unsigned>(std::atoi(next()));
    else if (flag == "--save-theta") a.save_theta = next();
    else if (flag == "--save-history") a.save_history = next();
    else if (flag == "--help" || flag == "-h") usage_and_exit(nullptr);
    else usage_and_exit(("unknown flag " + flag).c_str());
  }
  return a;
}

struct TaskBundle {
  qoc::data::Dataset train, val;
  std::string device;
};

TaskBundle load_task(const std::string& task) {
  using namespace qoc::data;
  if (task == "mnist2") {
    auto td = make_mnist2();
    return {std::move(td.train), std::move(td.val), "ibmq_jakarta"};
  }
  if (task == "mnist4") {
    auto td = make_mnist4();
    return {std::move(td.train), std::move(td.val), "ibmq_jakarta"};
  }
  if (task == "fashion2") {
    auto td = make_fashion2();
    return {std::move(td.train), std::move(td.val), "ibmq_santiago"};
  }
  if (task == "fashion4") {
    auto td = make_fashion4();
    return {std::move(td.train), std::move(td.val), "ibmq_manila"};
  }
  if (task == "vowel4") {
    auto vt = make_vowel4();
    return {std::move(vt.train), std::move(vt.val), "ibmq_lima"};
  }
  usage_and_exit(("unknown task " + task).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qoc;
  const Args args = parse_args(argc, argv);

  const qml::QnnModel model = qml::make_task_model(args.task);
  TaskBundle bundle = load_task(args.task);
  std::printf("task %s: %zu train / %zu val, model with %d params, "
              "device %s\n",
              args.task.c_str(), bundle.train.size(), bundle.val.size(),
              model.num_params(), bundle.device.c_str());

  // Backend per protocol.
  std::unique_ptr<backend::Backend> be;
  if (args.protocol == "classical") {
    be = std::make_unique<backend::StatevectorBackend>(0);
  } else if (args.protocol == "qc" || args.protocol == "pgp") {
    backend::NoisyBackendOptions opt;
    opt.shots = args.shots;
    opt.noise_scale = args.noise_scale;
    opt.seed = args.seed ^ 0xBACCULL;
    be = std::make_unique<backend::NoisyBackend>(
        noise::DeviceModel::by_name(bundle.device), opt);
  } else {
    usage_and_exit(("unknown protocol " + args.protocol).c_str());
  }

  train::TrainingConfig cfg;
  cfg.steps = args.steps;
  cfg.batch_size = args.batch;
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  cfg.eval_every = std::max(1, args.steps / 6);
  cfg.max_eval_examples = 50;
  if (args.optimizer == "sgd") cfg.optimizer = train::OptimizerKind::Sgd;
  else if (args.optimizer == "momentum") cfg.optimizer = train::OptimizerKind::Momentum;
  else if (args.optimizer == "adam") cfg.optimizer = train::OptimizerKind::Adam;
  else usage_and_exit(("unknown optimizer " + args.optimizer).c_str());
  if (args.protocol == "pgp") {
    cfg.use_pruning = true;
    cfg.pruner.ratio = args.ratio;
    cfg.pruner.accumulation_window = args.wa;
    cfg.pruner.pruning_window = args.wp;
    std::printf("PGP: r=%.2f wa=%d wp=%d -> %.0f%% gradient evals saved\n",
                args.ratio, args.wa, args.wp,
                cfg.pruner.savings_fraction() * 100.0);
  }

  train::TrainingEngine engine(model, *be, *be, bundle.train, bundle.val,
                               cfg);
  engine.set_step_callback([](const train::TrainingRecord& rec) {
    std::printf("  step %3d | inferences %8llu | loss %.4f | acc %.3f\n",
                rec.step, static_cast<unsigned long long>(rec.inferences),
                rec.train_loss, rec.val_accuracy);
  });
  const auto result = engine.run();

  std::printf("final accuracy %.3f (best %.3f), %llu inferences\n",
              result.final_val_accuracy, result.best_val_accuracy,
              static_cast<unsigned long long>(result.total_inferences));

  if (!args.save_theta.empty()) {
    train::save_theta(args.save_theta, result.theta);
    std::printf("saved parameters to %s\n", args.save_theta.c_str());
  }
  if (!args.save_history.empty()) {
    train::save_history_csv(args.save_history, result.history);
    std::printf("saved history to %s\n", args.save_history.c_str());
  }
  return 0;
}
