// Vowel-4 pipeline end to end: synthetic formant-style features -> our PCA
// down to the 10 most significant dimensions -> 10-angle rotation encoding
// -> 2x (RZZ + RXX ring) QNN, trained on a simulated ibmq_lima (the device
// the paper uses for Vowel-4).
//
// Build & run:   ./build/examples/vowel_pca_train

#include <cstdio>

#include "qoc/backend/backend.hpp"
#include "qoc/data/vowel.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/training_engine.hpp"

int main() {
  using namespace qoc;

  std::printf("QOC Vowel-4: PCA preprocessing + on-chip training on "
              "ibmq_lima\n");
  std::printf("============================================================"
              "\n\n");

  // Data: Gaussian formant-style clusters in 20-D, PCA'd to 10 dims fitted
  // on the training split only (make_vowel4 reproduces the paper split:
  // 100 train / 300 validation).
  const data::VowelTask task = data::make_vowel4();
  std::printf("vowel data: %zu train / %zu val, %zu PCA components\n",
              task.train.size(), task.val.size(), task.train.feature_dim());

  // Show the PCA spectrum on the raw training pool for context.
  {
    data::SyntheticVowel gen(4, 23);
    const data::Dataset raw = gen.make_raw(100);
    const data::Pca pca(raw.features, 10);
    std::printf("explained variance (top 10): ");
    for (double v : pca.explained_variance()) std::printf("%.2f ", v);
    std::printf("\n\n");
  }

  const qml::QnnModel model = qml::make_vowel4_model();
  std::printf("model: %d params, %zu ops (vowel encoder: 4RY+4RZ+2RX)\n\n",
              model.num_params(), model.circuit().num_ops());

  backend::NoisyBackendOptions opt;
  opt.shots = 256;
  opt.seed = 5;
  backend::NoisyBackend qc(noise::DeviceModel::ibmq_lima(), opt);

  train::TrainingConfig cfg;
  cfg.steps = 30;
  cfg.batch_size = 6;
  cfg.eval_every = 6;
  cfg.max_eval_examples = 50;
  cfg.seed = 3;
  cfg.use_pruning = true;
  cfg.pruner.ratio = 0.5;
  cfg.pruner.pruning_window = 2;

  train::TrainingEngine engine(model, qc, qc, task.train, task.val, cfg);
  engine.set_step_callback([](const train::TrainingRecord& rec) {
    std::printf("  step %3d | inferences %7llu | loss %.4f | val acc %.3f\n",
                rec.step, static_cast<unsigned long long>(rec.inferences),
                rec.train_loss, rec.val_accuracy);
  });
  const auto result = engine.run();

  std::printf("\nfinal on-chip validation accuracy: %.3f "
              "(4-class chance = 0.25)\n",
              result.final_val_accuracy);
  return 0;
}
