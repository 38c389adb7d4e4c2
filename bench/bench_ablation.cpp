// Ablation benches for three modelling choices of this reproduction
// (beyond the paper's own ablations in Fig. 7):
//
//  (1) noise-component ablation: how much each modelled noise source
//      (gate depolarizing / thermal relaxation / readout) contributes to
//      the on-device accuracy drop of a classically-trained model;
//  (2) shot-budget ablation: parameter-shift gradient fidelity vs number
//      of measurement shots (the sqrt(shots) SNR law that interacts with
//      pruning);
//  (3) routing ablation: transpiled CX/SWAP cost of each task circuit on
//      each device topology -- why ring layers hurt more on line devices.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "qoc/train/param_shift.hpp"
#include "qoc/transpile/transpile.hpp"

namespace {

using namespace qoc;
using namespace qoc::benchutil;

void noise_component_ablation() {
  std::printf("--- (1) noise-component ablation (MNIST-4 / jakarta) "
              "---\n");
  auto tasks = paper_tasks({"MNIST-4"});
  const Task& task = tasks.front();
  const qml::QnnModel model = qml::make_task_model(task.model_key);

  // Train once, noise-free.
  const auto trained = train_classical(task, default_steps(40), 42);

  struct Setting {
    const char* name;
    bool gate, relax, readout;
  };
  const Setting settings[] = {
      {"noise-free (reference)", false, false, false},
      {"gate depolarizing only", true, false, false},
      {"thermal relaxation only", false, true, false},
      {"readout error only", false, false, true},
      {"all sources", true, true, true},
  };
  std::printf("%-28s %10s\n", "noise sources enabled", "val_acc");
  for (const auto& s : settings) {
    auto opt = default_noisy_options(404);
    opt.enable_gate_noise = s.gate;
    opt.enable_relaxation = s.relax;
    opt.enable_readout_error = s.readout;
    backend::NoisyBackend qc(noise::DeviceModel::by_name(task.device), opt);
    const double acc =
        eval_accuracy(model, qc, trained.theta, task.val, 100, 5);
    std::printf("%-28s %10.3f\n", s.name, acc);
  }
  std::printf("\n");
}

void shot_budget_ablation() {
  std::printf("--- (2) gradient error vs shot budget (MNIST-2 encoder "
              "circuit) ---\n");
  const qml::QnnModel model = qml::make_task_model("mnist2");
  backend::StatevectorBackend exact_backend(0);
  train::ParameterShiftEngine exact_engine(exact_backend, model);
  Prng rng(6);
  const auto theta = model.init_params(rng);
  std::vector<double> input(16);
  for (auto& x : input) x = rng.uniform(0, 3.1416);
  const auto jac_exact = exact_engine.jacobian(theta, input);

  std::printf("%10s %22s\n", "shots", "mean_abs_grad_error");
  for (const int shots : {64, 256, 1024, 4096, 16384}) {
    backend::StatevectorBackend sampled(shots, 777);
    train::ParameterShiftEngine engine(sampled, model);
    const auto jac = engine.jacobian(theta, input);
    double err = 0.0;
    int count = 0;
    for (std::size_t q = 0; q < jac.size(); ++q)
      for (std::size_t i = 0; i < jac[q].size(); ++i) {
        err += std::abs(jac[q][i] - jac_exact[q][i]);
        ++count;
      }
    std::printf("%10d %22.5f\n", shots, err / count);
  }
  std::printf("(expected: error ~ 1/sqrt(shots))\n\n");
}

void routing_ablation() {
  std::printf("--- (3) transpiled cost of each task circuit per device "
              "---\n");
  std::printf("%-12s %-16s %8s %8s %8s %8s\n", "task", "device", "CX",
              "SWAPs", "depth", "est_success");
  auto tasks = paper_tasks();
  for (const auto& task : tasks) {
    const qml::QnnModel model = qml::make_task_model(task.model_key);
    Prng rng(7);
    const auto theta = model.init_params(rng);
    const std::vector<double> input(
        static_cast<std::size_t>(model.num_inputs()), 0.5);
    for (const auto& dev_name :
         {std::string("ibmq_manila"), task.device,
          std::string("ibmq_jakarta")}) {
      const auto device = noise::DeviceModel::by_name(dev_name);
      const auto t =
          transpile::transpile(model.circuit(), theta, input, device);
      const auto stats = transpile::compute_stats(t.ops, device.n_qubits);
      std::printf("%-12s %-16s %8zu %8zu %8zu %11.3f\n", task.name.c_str(),
                  dev_name.c_str(), stats.n_cx, t.n_swaps_inserted,
                  stats.depth,
                  transpile::estimated_success_probability(t, device));
    }
  }
  std::printf("(line devices pay SWAP overhead for ring layers; richer "
              "coupling maps route cheaper)\n");
}

}  // namespace

int main() {
  std::printf("=== Design-choice ablations ===\n\n");
  noise_component_ablation();
  shot_budget_ablation();
  routing_ablation();
  return 0;
}
