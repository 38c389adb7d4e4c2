#include "qoc/vqe/vqe.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qoc/circuit/layers.hpp"
#include "qoc/common/parallel.hpp"
#include "qoc/train/param_shift.hpp"

namespace qoc::vqe {

EnergyEstimator::EnergyEstimator(Hamiltonian hamiltonian,
                                 EstimatorOptions options)
    : hamiltonian_(std::move(hamiltonian)), options_(options),
      rng_(options.seed), observable_(compile_observable(hamiltonian_)) {
  if (options_.shots < 0)
    throw std::invalid_argument("EnergyEstimator: shots < 0");
  if (options_.gate_noise < 0.0 || options_.gate_noise > 1.0)
    throw std::invalid_argument("EnergyEstimator: gate_noise out of [0,1]");
}

void EnergyEstimator::ensure_compiled(const circuit::Circuit& ansatz) {
  if (ansatz.num_qubits() != hamiltonian_.num_qubits())
    throw std::invalid_argument("EnergyEstimator: qubit count mismatch");
  if (plan_ && plan_->structure_hash() == exec::structure_hash(ansatz) &&
      exec::structure_equal(ansatz, plan_->source()))
    return;
  plan_ = exec::CompiledCircuit::compile(ansatz);
}

/// Chunk-level scratch: one set of buffers per worker chunk instead of
/// per evaluation (matches the backends' execute_batch pattern).
struct EnergyEstimator::Scratch {
  explicit Scratch(int n_qubits) : psi(n_qubits), meas(n_qubits) {}
  std::vector<double> angles;
  sim::Statevector psi;   // prepared ansatz state
  sim::Statevector meas;  // per-group measurement copy
  sim::ShotSampler sampler;
};

void EnergyEstimator::prepare_noisy(std::span<const double> angles, Prng& rng,
                                    sim::Statevector& sv) const {
  const circuit::Circuit& src = plan_->source();
  sv.reset();
  for (std::size_t i = 0; i < src.num_ops(); ++i) {
    const auto& op = src.op(i);
    sv.apply_matrix(circuit::gate_matrix(op.kind, angles[i]), op.qubits);
    // One depolarizing event per touched qubit per gate.
    for (const int q : op.qubits) {
      const double u = rng.uniform();
      if (u < 0.75 * options_.gate_noise) {
        const int which = static_cast<int>(u / (0.25 * options_.gate_noise));
        if (which == 0) sv.apply_pauli_x(q);
        else if (which == 1) sv.apply_pauli_y(q);
        else sv.apply_pauli_z(q);
      }
    }
  }
}

double EnergyEstimator::energy_one(const exec::Evaluation& e, Prng& rng,
                                   Scratch& scratch) const {
  const bool noisy = options_.gate_noise > 0.0;

  if (!noisy && options_.shots == 0) {
    // Exact path: one compiled state preparation, all terms analytic.
    // CompiledObservable::expectation replays Hamiltonian::expectation's
    // per-term loop bit-for-bit.
    plan_->resolve_slots(e.theta, e.input, e.shift_op, e.shift,
                         scratch.angles);
    scratch.psi.reset();
    plan_->apply(scratch.psi, scratch.angles);
    return observable_.expectation(scratch.psi);
  }

  // Measured path: one execution per commuting group (distinct
  // measurement basis). Noise-free states are prepared once and copied
  // per group; with gate noise every group execution prepares a fresh
  // stochastic state, exactly as a hardware pipeline would.
  double total = observable_.constant();
  if (noisy) {
    plan_->resolve_source_angles(e.theta, e.input, e.shift_op, e.shift,
                                 scratch.angles);
  } else {
    plan_->resolve_slots(e.theta, e.input, e.shift_op, e.shift,
                         scratch.angles);
    scratch.psi.reset();
    plan_->apply(scratch.psi, scratch.angles);
  }

  for (std::size_t g = 0; g < observable_.groups().size(); ++g) {
    // All-Z groups have no suffix, so the shared noise-free state can be
    // measured directly instead of paying an O(2^n) copy.
    const sim::Statevector* meas = &scratch.psi;
    if (noisy) {
      prepare_noisy(scratch.angles, rng, scratch.meas);
      observable_.apply_suffix(scratch.meas, g);
      meas = &scratch.meas;
    } else if (!observable_.groups()[g].suffix.empty()) {
      scratch.meas = scratch.psi;
      observable_.apply_suffix(scratch.meas, g);
      meas = &scratch.meas;
    }
    if (options_.shots == 0) {
      // Noise without shot sampling: exact Z-product expectations.
      total += observable_.group_energy_exact(*meas, g);
    } else {
      total += observable_.group_energy_from_counts(
          meas->sample_counts(options_.shots, rng, scratch.sampler), g);
    }
  }
  return total;
}

double EnergyEstimator::energy(const circuit::Circuit& ansatz,
                               std::span<const double> theta) {
  const exec::Evaluation eval{theta, {}, exec::Evaluation::kNoShift, 0.0};
  return energies(ansatz, std::span<const exec::Evaluation>(&eval, 1), 1)[0];
}

std::vector<double> EnergyEstimator::energies(
    const circuit::Circuit& ansatz, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  ensure_compiled(ansatz);

  // Per-evaluation PRNG streams, assigned in submission order exactly as
  // a sequential loop of energy() calls would draw them; each evaluation
  // then consumes its stream sequentially, so results are deterministic
  // and thread-count invariant.
  std::vector<Prng> rngs;
  rngs.reserve(evals.size());
  for (std::size_t k = 0; k < evals.size(); ++k) rngs.push_back(rng_.split());

  std::vector<double> results(evals.size());
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        Scratch scratch(plan_->num_qubits());
        for (std::size_t k = lo; k < hi; ++k)
          results[k] = energy_one(evals[k], rngs[k], scratch);
      },
      threads);

  const bool exact = options_.shots == 0 && options_.gate_noise == 0.0;
  const std::uint64_t per_eval =
      exact ? 1 : static_cast<std::uint64_t>(observable_.groups().size());
  executions_ += per_eval * evals.size();
  return results;
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
  // compiled ansatz: shifts are slot offsets (bit-identical to the old
  // with_op_offset circuit copies), nothing is re-lowered, and the
  // evaluations fan over the shared thread pool.
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
