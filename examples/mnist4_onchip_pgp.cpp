// On-chip training of the MNIST-4 QNN on a simulated ibmq_jakarta device
// with probabilistic gradient pruning -- the paper's headline workflow
// (QC-Train-PGP, Sec. 4).
//
// Every gradient is obtained by running +-pi/2-shifted circuits on the
// noisy backend; the pruner skips unreliable small-magnitude gradients
// using the accumulated-magnitude distribution (w_a=1, w_p=2, r=0.5).
//
// Build & run:   ./build/examples/mnist4_onchip_pgp   (takes ~1 min)

#include <cstdio>

#include "qoc/backend/backend.hpp"
#include "qoc/data/images.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/training_engine.hpp"
#include "qoc/transpile/transpile.hpp"

int main() {
  using namespace qoc;

  std::printf("QOC on-chip training: MNIST-4 on ibmq_jakarta with PGP\n");
  std::printf("======================================================\n\n");

  // Task data: 4-class synthetic MNIST stand-in, 100 train / 300 val
  // (paper split). Validation is subsampled during training for speed.
  const data::TaskData td = data::make_mnist4();
  const qml::QnnModel model = qml::make_mnist4_model();

  // Device: ibmq_jakarta calibration snapshot driving depolarizing +
  // thermal-relaxation + readout noise.
  const auto device = noise::DeviceModel::ibmq_jakarta();
  backend::NoisyBackendOptions opt;
  opt.shots = 256;
  opt.seed = 2022;
  backend::NoisyBackend qc(device, opt);

  // Show what the device actually runs: the transpiled circuit.
  {
    std::vector<double> theta(static_cast<std::size_t>(model.num_params()),
                              0.1);
    std::vector<double> input(16, 0.5);
    const auto t =
        transpile::transpile(model.circuit(), theta, input, device);
    const auto stats = transpile::compute_stats(t.ops, device.n_qubits);
    std::printf("device %s: transpiled to %zu CX + %zu SX + %zu RZ "
                "(%zu SWAPs inserted, depth %zu)\n",
                device.name.c_str(), stats.n_cx, stats.n_sx, stats.n_rz,
                t.n_swaps_inserted, stats.depth);
    std::printf("estimated circuit success probability: %.3f\n\n",
                transpile::estimated_success_probability(t, device));
  }

  train::TrainingConfig cfg;
  cfg.steps = 30;
  cfg.batch_size = 6;
  cfg.optimizer = train::OptimizerKind::Adam;
  cfg.eval_every = 6;
  cfg.max_eval_examples = 50;  // subsample the 300-example validation set
  cfg.seed = 11;

  // The paper's PGP setting: w_a = 1, w_p = 2, r = 0.5.
  cfg.use_pruning = true;
  cfg.pruner.accumulation_window = 1;
  cfg.pruner.pruning_window = 2;
  cfg.pruner.ratio = 0.5;
  std::printf("PGP saves %.0f%% of gradient evaluations "
              "(r*wp/(wa+wp))\n\n",
              cfg.pruner.savings_fraction() * 100.0);

  train::TrainingEngine engine(model, qc, qc, td.train, td.val, cfg);
  engine.set_step_callback([](const train::TrainingRecord& rec) {
    std::printf("  step %3d | inferences %7llu | loss %.4f | "
                "real-QC val acc %.3f\n",
                rec.step, static_cast<unsigned long long>(rec.inferences),
                rec.train_loss, rec.val_accuracy);
  });

  std::printf("QC-Train-PGP on %s:\n", device.name.c_str());
  const auto result = engine.run();

  std::printf("\nfinal on-chip validation accuracy: %.3f\n",
              result.final_val_accuracy);
  std::printf("best on-chip validation accuracy : %.3f\n",
              result.best_val_accuracy);
  std::printf("total circuit runs on the device : %llu\n",
              static_cast<unsigned long long>(result.total_inferences));
  return 0;
}
