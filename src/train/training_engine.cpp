#include "qoc/train/training_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qoc::train {

void TrainingConfig::validate() const {
  if (steps < 1) throw std::invalid_argument("TrainingConfig: steps < 1");
  if (batch_size == 0)
    throw std::invalid_argument("TrainingConfig: batch_size == 0");
  if (!std::isfinite(lr_start) || !std::isfinite(lr_end) || lr_start <= 0.0 ||
      lr_end < 0.0)
    throw std::invalid_argument("TrainingConfig: bad learning rates");
  if (eval_every < 0)
    throw std::invalid_argument("TrainingConfig: eval_every < 0");
  if (use_pruning) pruner.validate();
}

TrainingEngine::TrainingEngine(const qml::QnnModel& model,
                               backend::Backend& train_backend,
                               backend::Backend& eval_backend,
                               const data::Dataset& train,
                               const data::Dataset& val,
                               TrainingConfig config)
    : model_(model), train_backend_(train_backend),
      eval_backend_(eval_backend), train_(train), val_(val),
      config_(config) {
  config_.validate();
  train_.validate();
  val_.validate();
  if (train_.feature_dim() != static_cast<std::size_t>(model_.num_inputs()))
    throw std::invalid_argument(
        "TrainingEngine: dataset feature dim does not match model inputs");
}

double TrainingEngine::evaluate(std::span<const double> theta, Prng& rng) {
  const data::Dataset* eval_set = &val_;
  data::Dataset subsampled;
  if (config_.max_eval_examples > 0 &&
      val_.size() > config_.max_eval_examples) {
    subsampled = val_.sample(config_.max_eval_examples, rng);
    eval_set = &subsampled;
  }
  return model_.accuracy(eval_backend_, theta, *eval_set, config_.threads);
}

TrainingResult TrainingEngine::run(std::vector<double> theta_init) {
  Prng rng(config_.seed);
  std::vector<double> theta = theta_init.empty()
                                  ? model_.init_params(rng)
                                  : std::move(theta_init);
  if (static_cast<int>(theta.size()) != model_.num_params())
    throw std::invalid_argument("TrainingEngine::run: theta size mismatch");

  ParameterShiftEngine shift_engine(train_backend_, model_);
  shift_engine.set_threads(config_.threads);
  auto optimizer = make_optimizer(config_.optimizer, config_.lr_start);
  CosineScheduler scheduler(config_.lr_start, config_.lr_end, config_.steps);
  data::BatchSampler sampler(train_, config_.batch_size, rng());

  // Pruning disabled == one infinite accumulation phase.
  PrunerConfig pcfg = config_.pruner;
  if (!config_.use_pruning) {
    pcfg = PrunerConfig{};
    pcfg.pruning_window = 0;
    pcfg.ratio = 0.0;
  }
  GradientPruner pruner(model_.num_params(), pcfg, rng());

  TrainingResult result;
  Prng eval_rng(rng());

  for (int step = 1; step <= config_.steps; ++step) {
    optimizer->set_learning_rate(scheduler.at(step - 1));

    const auto batch = sampler.next();
    const auto mask = pruner.next_mask();

    const BatchGradient bg =
        shift_engine.batch_gradient(theta, train_, batch, &mask);
    pruner.observe(bg.grad);
    optimizer->step(theta, bg.grad, &mask);

    const bool eval_now =
        (config_.eval_every > 0 && step % config_.eval_every == 0) ||
        step == config_.steps;
    if (eval_now) {
      TrainingRecord rec;
      rec.step = step;
      rec.inferences = train_backend_.inference_count();
      rec.train_loss = bg.loss;
      rec.val_accuracy = evaluate(theta, eval_rng);
      rec.learning_rate = optimizer->learning_rate();
      result.best_val_accuracy =
          std::max(result.best_val_accuracy, rec.val_accuracy);
      if (step_callback_) step_callback_(rec);
      result.history.push_back(rec);
    }
  }

  result.theta = std::move(theta);
  result.final_val_accuracy =
      result.history.empty() ? 0.0 : result.history.back().val_accuracy;
  result.total_inferences = train_backend_.inference_count();
  return result;
}

}  // namespace qoc::train
