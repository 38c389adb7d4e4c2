#pragma once
// Variational Quantum Eigensolver with the QOC training machinery:
// in-situ parameter-shift energy gradients and probabilistic gradient
// pruning, demonstrating the paper's claim that the techniques apply
// beyond QNNs.
//
// Energies are measured on a backend::Backend, the same execution
// surface QNN training uses: EnergyEstimator compiles the Hamiltonian
// into an exec::CompiledObservable once and submits every energy /
// parameter-shift sweep as one Backend::expect_batch call against the
// backend's cached plan of the ansatz. The backend decides how <H> is
// measured: StatevectorBackend exactly (shots = 0) or with one sampled
// execution per qubit-wise-commuting group of Pauli terms, NoisyBackend
// as sampled shots of a device model, DensityMatrixBackend as the exact
// noisy oracle of that device. Exact statevector energies are
// bit-identical to the per-term vqe::Hamiltonian::expectation loop.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/exec/observable.hpp"
#include "qoc/train/optimizer.hpp"
#include "qoc/train/pruner.hpp"
#include "qoc/vqe/hamiltonian.hpp"

namespace qoc::vqe {

/// Configuration of the estimator's own StatevectorBackend.
struct EstimatorOptions {
  int shots = 0;  // 0 = exact expectation values
  std::uint64_t seed = 0xE57ULL;
};

/// Evaluates <H> for a bound ansatz on a backend. Each call consumes the
/// backend's inferences under Backend::expect_batch's accounting: one
/// per commuting group per evaluation when sampling, one per evaluation
/// when a single execution yields every term.
class EnergyEstimator {
 public:
  /// Measures on a StatevectorBackend(options.shots, options.seed).
  EnergyEstimator(Hamiltonian hamiltonian, EstimatorOptions options = {});

  /// Measures on `backend`, e.g. a NoisyBackend or DensityMatrixBackend
  /// over a catalog device. Copies of the estimator share it. Throws
  /// std::invalid_argument when `backend` is null.
  EnergyEstimator(Hamiltonian hamiltonian,
                  std::shared_ptr<backend::Backend> backend);

  const Hamiltonian& hamiltonian() const { return hamiltonian_; }

  /// Energy of ansatz(theta)|0>.
  double energy(const circuit::Circuit& ansatz,
                std::span<const double> theta);

  /// Batched energies: one result per evaluation of the ansatz ((theta,
  /// input) binding plus optional single-op parameter shift), computed
  /// by Backend::expect_batch over up to `threads` workers of the shared
  /// pool (0 = one per hardware core). Its determinism contract applies:
  /// results are bit-identical for every thread count.
  std::vector<double> energies(const circuit::Circuit& ansatz,
                               std::span<const exec::Evaluation> evals,
                               unsigned threads = 1);

  /// The backend's Backend::inference_count: circuit executions consumed
  /// so far (the VQE analogue of Fig. 6's #inference axis), including
  /// any other work submitted to a shared backend.
  std::uint64_t executions() const { return backend_->inference_count(); }

 private:
  Hamiltonian hamiltonian_;
  exec::CompiledObservable observable_;
  std::shared_ptr<backend::Backend> backend_;
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
  /// (every gradient is one EnergyEstimator::energies call, so one
  /// Backend::expect_batch): 1 = sequential, 0 = one worker per
  /// hardware core, n = at most n workers of the shared
  /// qoc::common::ThreadPool. expect_batch's determinism contract makes
  /// a VQE trajectory bit-reproducible for every value of `threads`, so
  /// changing `threads` changes wall-clock only.
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
