// VQE extension example: ground-state energy of molecular hydrogen with
// the QOC machinery -- parameter-shift energy gradients and probabilistic
// gradient pruning -- demonstrating the paper's remark that the techniques
// "can also be applied to other PQCs such as VQE".
//
// The H2 Hamiltonian is the standard 2-qubit tapered encoding; the exact
// ground energy is computed by dense diagonalisation for reference.
//
// Build & run:   ./build/vqe_h2

#include <cstdio>
#include <memory>

#include "qoc/backend/backend.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/vqe/vqe.hpp"

int main() {
  using namespace qoc;
  using namespace qoc::vqe;

  std::printf("QOC VQE: H2 ground state with parameter shift + pruning\n");
  std::printf("=======================================================\n\n");

  const Hamiltonian h2 = Hamiltonian::h2_minimal();
  const double exact = h2.exact_ground_energy();
  std::printf("H2 (2-qubit tapered) exact ground energy: %.6f Ha\n\n", exact);

  const circuit::Circuit ansatz =
      VqeSolver::hardware_efficient_ansatz(2, /*depth=*/2);
  std::printf("ansatz: hardware-efficient, %d parameters, %zu gates\n\n",
              ansatz.num_trainable(), ansatz.num_ops());

  // Run 1: exact estimator, no pruning.
  {
    VqeConfig cfg;
    cfg.steps = 60;
    cfg.seed = 3;
    VqeSolver solver(EnergyEstimator(h2), ansatz, cfg);
    const VqeResult res = solver.run();
    std::printf("exact estimator, no pruning : E = %.6f "
                "(error %.2e, %llu executions)\n",
                res.energy, res.energy - exact,
                static_cast<unsigned long long>(res.total_executions));
  }

  // Run 2: the on-chip setting -- PGP with 512 shots per measured group
  // on the simulated ibmq_santiago. Its noise lifts every energy above
  // the ideal ground state, so the reference is the same solve on the
  // device read out exactly (shots = 0: the density matrix's own
  // distribution, no shot noise).
  {
    const noise::DeviceModel device = noise::DeviceModel::ibmq_santiago();
    backend::NoisyBackendOptions opt;
    opt.shots = 512;
    opt.seed = 17;
    VqeConfig cfg;
    cfg.steps = 60;
    cfg.seed = 3;
    cfg.use_pruning = true;
    cfg.pruner.accumulation_window = 1;
    cfg.pruner.pruning_window = 2;
    cfg.pruner.ratio = 0.5;
    VqeSolver solver(
        EnergyEstimator(h2,
                        std::make_shared<backend::NoisyBackend>(device, opt)),
        ansatz, cfg);
    const VqeResult res = solver.run();
    backend::NoisyBackendOptions exact_opt = opt;
    exact_opt.shots = 0;
    VqeSolver oracle(
        EnergyEstimator(
            h2, std::make_shared<backend::NoisyBackend>(device, exact_opt)),
        ansatz, cfg);
    const VqeResult ref = oracle.run();
    std::printf("%s, 512 shots + PGP: E = %.6f "
                "(error %.2e, %llu executions)\n",
                device.name.c_str(), res.best_energy, res.best_energy - exact,
                static_cast<unsigned long long>(res.total_executions));
    std::printf("  density-matrix solve on the same device: E = %.6f "
                "(error %.2e)\n",
                ref.best_energy, ref.best_energy - exact);
  }

  // Bonus: transverse-field Ising chain on 4 qubits.
  {
    const Hamiltonian ising = Hamiltonian::transverse_ising(4, 1.0, 0.7);
    const double ising_exact = ising.exact_ground_energy();
    VqeConfig cfg;
    cfg.steps = 80;
    cfg.seed = 5;
    VqeSolver solver(EnergyEstimator(ising),
                     VqeSolver::hardware_efficient_ansatz(4, 3), cfg);
    const VqeResult res = solver.run();
    std::printf("\n4-qubit TFIM (J=1, h=0.7)   : E = %.6f vs exact %.6f "
                "(error %.2e)\n",
                res.best_energy, ising_exact, res.best_energy - ising_exact);
  }
  return 0;
}
