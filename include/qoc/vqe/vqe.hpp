#pragma once
// Variational Quantum Eigensolver with the QOC training machinery:
// in-situ parameter-shift energy gradients and probabilistic gradient
// pruning, demonstrating the paper's claim that the techniques apply
// beyond QNNs.
//
// The energy estimator mimics a hardware measurement pipeline: the
// ansatz state is sampled with a finite shot budget, one measured
// execution per qubit-wise-commuting group of Pauli terms (term
// expectation = average parity of the relevant bits after the group's
// basis change), with optional per-gate depolarizing noise -- or, with
// shots = 0, exact expectations for noise-free experiments.
//
// Bind once, run many: the estimator compiles the ansatz into an
// exec::CompiledCircuit and the Hamiltonian into an
// exec::CompiledObservable the first time it sees each structure, and
// whole energy / parameter-shift sweeps are submitted as one energies()
// batch fanned over the shared thread pool. Exact noise-free results
// are bit-identical to the pre-batching per-term path.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "qoc/circuit/circuit.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/exec/observable.hpp"
#include "qoc/train/optimizer.hpp"
#include "qoc/train/pruner.hpp"
#include "qoc/vqe/hamiltonian.hpp"

namespace qoc::vqe {

struct EstimatorOptions {
  int shots = 0;            // 0 = exact expectation values
  double gate_noise = 0.0;  // depolarizing probability injected per gate
  std::uint64_t seed = 0xE57ULL;
};

/// Evaluates <H> for a bound ansatz. Each energy() call counts the number
/// of circuit executions consumed (one per measurement basis -- i.e. per
/// commuting group -- when sampling or noisy; one when exact).
class EnergyEstimator {
 public:
  EnergyEstimator(Hamiltonian hamiltonian, EstimatorOptions options = {});

  const Hamiltonian& hamiltonian() const { return hamiltonian_; }

  /// Energy of ansatz(theta)|0>.
  double energy(const circuit::Circuit& ansatz,
                std::span<const double> theta);

  /// Batched energies: one result per evaluation of the compiled ansatz
  /// ((theta, input) binding plus optional single-op parameter shift,
  /// exactly as Backend::run_batch consumes them). Evaluations fan over
  /// up to `threads` workers of the shared pool (0 = one per hardware
  /// core). Per-evaluation PRNG streams are assigned in submission
  /// order and consumed sequentially inside each evaluation, so results
  /// are deterministic and independent of the thread count.
  std::vector<double> energies(const circuit::Circuit& ansatz,
                               std::span<const exec::Evaluation> evals,
                               unsigned threads = 1);

  /// Circuit executions consumed so far (the VQE analogue of Fig. 6's
  /// #inference axis).
  std::uint64_t executions() const { return executions_; }

 private:
  /// Per-worker-chunk scratch (angle buffers, statevectors, sampler), hoisted
  /// out of the per-evaluation loop; defined in vqe.cpp.
  struct Scratch;

  /// Compile-or-reuse the plan for this ansatz structure.
  void ensure_compiled(const circuit::Circuit& ansatz);

  /// <H> for one evaluation; draws (noise events, then shot samples)
  /// come sequentially from `rng` only.
  double energy_one(const exec::Evaluation& e, Prng& rng,
                    Scratch& scratch) const;

  /// Noisy state preparation into `sv` (reset first): uncompiled walk of
  /// the source circuit with one depolarizing event per touched qubit
  /// per gate (the pre-plan arithmetic, kept so noise applies per source
  /// gate).
  void prepare_noisy(std::span<const double> angles, Prng& rng,
                     sim::Statevector& sv) const;

  Hamiltonian hamiltonian_;
  EstimatorOptions options_;
  Prng rng_;
  std::uint64_t executions_ = 0;
  std::optional<exec::CompiledCircuit> plan_;  // current ansatz structure
  exec::CompiledObservable observable_;
};

struct VqeConfig {
  int steps = 60;
  double lr_start = 0.2;
  double lr_end = 0.02;
  train::OptimizerKind optimizer = train::OptimizerKind::Adam;
  bool use_pruning = false;
  train::PrunerConfig pruner;
  std::uint64_t seed = 1;
  /// Worker threads for the batched energy sweeps the solver submits
  /// (every gradient is one EnergyEstimator::energies call): 1 =
  /// sequential, 0 = one worker per hardware core, n = at most n
  /// workers of the shared qoc::common::ThreadPool. Inherits the
  /// Backend::run_batch / expect_batch determinism contract —
  /// per-evaluation PRNG streams are assigned in submission order, so
  /// a VQE trajectory is bit-reproducible for every value of
  /// `threads`, and changing `threads` changes wall-clock only.
  unsigned threads = 1;
};

struct VqeRecord {
  int step = 0;
  double energy = 0.0;
  std::uint64_t executions = 0;
};

struct VqeResult {
  double energy = 0.0;                // final energy
  double best_energy = 0.0;           // lowest seen
  std::vector<double> theta;
  std::vector<VqeRecord> history;     // one record per step
  std::uint64_t total_executions = 0;
};

/// Gradient-descent VQE: dE/dtheta_i by the +-pi/2 parameter-shift rule
/// applied to the energy estimator, masked by the gradient pruner.
class VqeSolver {
 public:
  VqeSolver(EnergyEstimator estimator, circuit::Circuit ansatz,
            VqeConfig config);

  VqeResult run(std::vector<double> theta_init = {});

  /// Standard hardware-efficient ansatz: layers of RY+RZ on every qubit
  /// followed by a CZ entangling chain; `depth` repetitions.
  static circuit::Circuit hardware_efficient_ansatz(int n_qubits, int depth);

 private:
  std::vector<double> gradient(std::span<const double> theta,
                               const std::vector<bool>& mask);

  EnergyEstimator estimator_;
  circuit::Circuit ansatz_;
  VqeConfig config_;
};

}  // namespace qoc::vqe
