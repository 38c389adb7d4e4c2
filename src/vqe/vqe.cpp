#include "qoc/vqe/vqe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/train/param_shift.hpp"

namespace qoc::vqe {

EnergyEstimator::EnergyEstimator(Hamiltonian hamiltonian,
                                 EstimatorOptions options)
    : EnergyEstimator(std::move(hamiltonian),
                      std::make_shared<backend::StatevectorBackend>(
                          options.shots, options.seed)) {}

EnergyEstimator::EnergyEstimator(Hamiltonian hamiltonian,
                                 std::shared_ptr<backend::Backend> backend)
    : hamiltonian_(std::move(hamiltonian)),
      observable_(compile_observable(hamiltonian_)),
      backend_(std::move(backend)) {
  if (!backend_)
    throw std::invalid_argument("EnergyEstimator: backend is null");
}

double EnergyEstimator::energy(const circuit::Circuit& ansatz,
                               std::span<const double> theta) {
  const exec::Evaluation eval{theta, {}, exec::Evaluation::kNoShift, 0.0};
  return energies(ansatz, std::span<const exec::Evaluation>(&eval, 1), 1)[0];
}

std::vector<double> EnergyEstimator::energies(
    const circuit::Circuit& ansatz, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  return backend_->expect_batch(*backend_->plan_cached(ansatz), observable_,
                                evals, threads);
}

VqeSolver::VqeSolver(EnergyEstimator estimator, circuit::Circuit ansatz,
                     VqeConfig config)
    : estimator_(std::move(estimator)), ansatz_(std::move(ansatz)),
      config_(config) {
  if (config_.steps < 1) throw std::invalid_argument("VqeSolver: steps < 1");
  if (ansatz_.num_trainable() < 1)
    throw std::invalid_argument("VqeSolver: ansatz has no parameters");
  train::check_shift_rule(ansatz_, "VqeSolver");
  if (config_.use_pruning) config_.pruner.validate();
}

std::vector<double> VqeSolver::gradient(std::span<const double> theta,
                                        const std::vector<bool>& mask) {
  const int n = ansatz_.num_trainable();

  // The whole sweep -- every +-pi/2 pair of every active parameter
  // occurrence -- submitted as ONE batch against the estimator's
  // compiled ansatz: shifts are slot offsets, nothing is re-lowered, and
  // the evaluations fan over the shared thread pool.
  const auto shifts = train::shift_list(ansatz_, &mask);
  std::vector<exec::Evaluation> evals;
  evals.reserve(2 * shifts.size());
  train::append_shift_pairs(evals, shifts, theta, {});
  const auto e = estimator_.energies(ansatz_, evals, config_.threads);

  std::vector<double> grad(static_cast<std::size_t>(n), 0.0);
  for (std::size_t s = 0; s < shifts.size(); ++s)
    grad[static_cast<std::size_t>(shifts[s].param)] +=
        0.5 * (e[2 * s] - e[2 * s + 1]);
  return grad;
}

VqeResult VqeSolver::run(std::vector<double> theta_init) {
  Prng rng(config_.seed);
  const int n = ansatz_.num_trainable();
  std::vector<double> theta = std::move(theta_init);
  if (theta.empty()) {
    theta.resize(static_cast<std::size_t>(n));
    for (auto& t : theta) t = rng.uniform(-0.5, 0.5);
  }
  if (static_cast<int>(theta.size()) != n)
    throw std::invalid_argument("VqeSolver::run: theta size mismatch");
  for (const double t : theta)
    if (!std::isfinite(t))
      throw std::invalid_argument("VqeSolver::run: theta is not finite");

  auto optimizer = train::make_optimizer(config_.optimizer, config_.lr_start);
  train::CosineScheduler scheduler(config_.lr_start, config_.lr_end,
                                   config_.steps);
  train::PrunerConfig pcfg = config_.pruner;
  if (!config_.use_pruning) {
    pcfg = train::PrunerConfig{};
    pcfg.pruning_window = 0;
  }
  train::GradientPruner pruner(n, pcfg, rng());

  VqeResult result;
  result.best_energy = std::numeric_limits<double>::infinity();
  for (int step = 1; step <= config_.steps; ++step) {
    optimizer->set_learning_rate(scheduler.at(step - 1));
    const auto mask = pruner.next_mask();
    const auto grad = gradient(theta, mask);
    pruner.observe(grad);
    optimizer->step(theta, grad, &mask);

    VqeRecord rec;
    rec.step = step;
    rec.energy = estimator_.energy(ansatz_, theta);
    rec.executions = estimator_.executions();
    result.best_energy = std::min(result.best_energy, rec.energy);
    result.history.push_back(rec);
  }
  result.energy = result.history.back().energy;
  result.theta = std::move(theta);
  result.total_executions = estimator_.executions();
  return result;
}

circuit::Circuit VqeSolver::hardware_efficient_ansatz(int n_qubits,
                                                      int depth) {
  circuit::Circuit c(n_qubits);
  for (int d = 0; d < depth; ++d) {
    circuit::add_ry_layer(c);
    circuit::add_rz_layer(c);
    circuit::add_cz_chain_layer(c);
  }
  circuit::add_ry_layer(c);  // final rotation layer
  return c;
}

}  // namespace qoc::vqe
