// pgp_train: QC-Train-PGP from the paper (Sec. 4) -- the MNIST-4 QNN
// trained on a simulated ibmq_jakarta with probabilistic gradient
// pruning, gradients and validation both measured on the noisy device.
//
// Nearly all of its time is noisy trajectories (backend/noise/sim k-wide
// lanes plus the transpile caches), and PGP makes its batches ragged
// (438/222/222 evaluations per step). It never touches serve or vqe.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "e2e.hpp"
#include "qoc/backend/backend.hpp"
#include "qoc/data/images.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/training_engine.hpp"

namespace e2e {
namespace {

using namespace qoc;

constexpr int kSteps = 100;
constexpr int kWarmupSteps = 5;
constexpr int kEvalEvery = 10;
constexpr std::size_t kBatch = 6;
constexpr std::size_t kMaxEval = 50;

backend::NoisyBackendOptions noisy_options(std::uint64_t seed,
                                           bool noise = true, int lanes = -1) {
  backend::NoisyBackendOptions o;
  o.trajectories = 8;
  o.shots = 1024;
  o.seed = seed;
  o.noise_scale = 2.5;
  o.enable_gate_noise = noise;
  o.enable_relaxation = noise;
  o.enable_readout_error = noise;
  o.batch_lanes = lanes;
  return o;
}

train::TrainingConfig training_config(int steps, std::uint64_t seed,
                                      unsigned threads) {
  train::TrainingConfig cfg;
  cfg.steps = steps;
  cfg.batch_size = kBatch;
  cfg.optimizer = train::OptimizerKind::Adam;
  cfg.lr_start = 0.3;
  cfg.lr_end = 0.03;
  cfg.seed = seed;
  cfg.use_pruning = true;
  cfg.pruner.accumulation_window = 1;
  cfg.pruner.pruning_window = 2;
  cfg.pruner.ratio = 0.5;
  cfg.eval_every = kEvalEvery;
  cfg.max_eval_examples = kMaxEval;
  cfg.threads = threads;
  return cfg;
}

struct Task {
  data::TaskData data;
  qml::QnnModel model;
  noise::DeviceModel device;
};

struct Seeds {
  std::uint64_t data, train, backend;
  explicit Seeds(std::uint64_t s)
      : data(derive_seed(s, 1)), train(derive_seed(s, 2)),
        backend(derive_seed(s, 3)) {}
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_result(const train::TrainingResult& a,
                 const train::TrainingResult& b) {
  if (a.theta.size() != b.theta.size() || a.history.size() != b.history.size() ||
      a.total_inferences != b.total_inferences)
    return false;
  for (std::size_t i = 0; i < a.theta.size(); ++i)
    if (!same_bits(a.theta[i], b.theta[i])) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    if (x.step != y.step || x.inferences != y.inferences ||
        !same_bits(x.train_loss, y.train_loss) ||
        !same_bits(x.val_accuracy, y.val_accuracy) ||
        !same_bits(x.learning_rate, y.learning_rate))
      return false;
  }
  return true;
}

/// The pruner's schedule: stage position 0..w_a-1 evaluates every
/// parameter, the remaining w_p steps of a stage ceil((1 - r) n).
bool accumulation_step(const train::PrunerConfig& p, int step) {
  return (step - 1) % (p.accumulation_window + p.pruning_window) <
         p.accumulation_window;
}

std::uint64_t pruning_keep(const train::PrunerConfig& p, int n) {
  return static_cast<std::uint64_t>(std::ceil((1.0 - p.ratio) * n));
}

/// Circuit executions a PGP run must consume, from the schedule alone:
/// each example costs one unshifted run plus a +-pi/2 pair per active
/// parameter occurrence, and every validation pass one run per
/// validation example.
std::uint64_t expected_inferences(const train::TrainingConfig& cfg,
                                  const qml::QnnModel& model,
                                  std::size_t val_size) {
  const int n = model.num_params();
  const auto occ = model.circuit().ops_for_param(0).size();
  const std::uint64_t eval_cost = std::min(cfg.max_eval_examples, val_size);
  std::uint64_t total = 0;
  for (int step = 1; step <= cfg.steps; ++step) {
    const std::uint64_t active = accumulation_step(cfg.pruner, step)
                                     ? static_cast<std::uint64_t>(n)
                                     : pruning_keep(cfg.pruner, n);
    total += cfg.batch_size * (1 + 2 * occ * active);
    if (step % cfg.eval_every == 0 || step == cfg.steps) total += eval_cost;
  }
  return total;
}

bool uniform_occurrences(const qml::QnnModel& model) {
  const auto occ = model.circuit().ops_for_param(0).size();
  for (int i = 1; i < model.num_params(); ++i)
    if (model.circuit().ops_for_param(i).size() != occ) return false;
  return true;
}

/// Result of the traced loop plus what it observed per step.
struct Composed {
  train::TrainingResult result;
  std::uint64_t grad_inferences = 0;
  std::uint64_t param_steps = 0;   // steps x parameters
  std::uint64_t active_steps = 0;  // evaluated (step, parameter) pairs
};

/// TrainingEngine::run rebuilt from its public pieces in library order,
/// with a span around each layer call. Must reproduce the engine
/// bitwise (checked by the caller). Appends each step's wall time,
/// validation included, to `step_ms` when given.
Composed composed_train(const Task& task, backend::Backend& qc,
                        const train::TrainingConfig& cfg,
                        std::vector<double>* step_ms = nullptr) {
  const auto& model = task.model;
  Prng rng(cfg.seed);
  std::vector<double> theta = model.init_params(rng);
  train::ParameterShiftEngine shift(qc, model);
  shift.set_threads(cfg.threads);
  auto optimizer = train::make_optimizer(cfg.optimizer, cfg.lr_start);
  train::CosineScheduler scheduler(cfg.lr_start, cfg.lr_end, cfg.steps);
  data::BatchSampler sampler(task.data.train, cfg.batch_size, rng());
  train::GradientPruner pruner(model.num_params(), cfg.pruner, rng());
  Prng eval_rng(rng());

  Composed out;
  for (int step = 1; step <= cfg.steps; ++step) {
    QOC_TRACE_SPAN("bench", "step");
    const auto t_step = Clock::now();
    optimizer->set_learning_rate(scheduler.at(step - 1));
    std::vector<std::size_t> batch;
    {
      QOC_TRACE_SPAN("train", "sample");
      batch = sampler.next();
    }
    std::vector<bool> mask;
    {
      QOC_TRACE_SPAN("train", "pruner");
      mask = pruner.next_mask();
    }
    train::BatchGradient bg;
    {
      QOC_TRACE_SPAN("train", "batch_gradient");
      bg = shift.batch_gradient(theta, task.data.train, batch, &mask);
    }
    {
      QOC_TRACE_SPAN("train", "pruner");
      pruner.observe(bg.grad);
    }
    {
      QOC_TRACE_SPAN("train", "optimizer");
      optimizer->step(theta, bg.grad, &mask);
    }
    out.grad_inferences += bg.inferences;
    out.param_steps += mask.size();
    for (const bool m : mask) out.active_steps += m ? 1 : 0;

    if ((cfg.eval_every > 0 && step % cfg.eval_every == 0) ||
        step == cfg.steps) {
      QOC_TRACE_SPAN("qml", "accuracy");
      train::TrainingRecord rec;
      rec.step = step;
      rec.inferences = qc.inference_count();
      rec.train_loss = bg.loss;
      const data::Dataset* eval_set = &task.data.val;
      data::Dataset sub;
      if (cfg.max_eval_examples > 0 &&
          task.data.val.size() > cfg.max_eval_examples) {
        sub = task.data.val.sample(cfg.max_eval_examples, eval_rng);
        eval_set = &sub;
      }
      rec.val_accuracy = model.accuracy(qc, theta, *eval_set, cfg.threads);
      rec.learning_rate = optimizer->learning_rate();
      out.result.best_val_accuracy =
          std::max(out.result.best_val_accuracy, rec.val_accuracy);
      out.result.history.push_back(rec);
    }
    if (step_ms) step_ms->push_back(seconds_since(t_step) * 1e3);
  }
  out.result.theta = std::move(theta);
  out.result.final_val_accuracy = out.result.history.back().val_accuracy;
  out.result.total_inferences = qc.inference_count();
  return out;
}

int scaled_steps(const Options& opt, int full) {
  // The traced run is about a quarter of the untraced run's work; both
  // shrink with --seconds below 20 s and in smoke mode.
  if (opt.smoke) return kEvalEvery;
  const double f = std::min(1.0, opt.seconds / 20.0);
  return std::max(kEvalEvery, static_cast<int>(full * f) / kEvalEvery * kEvalEvery);
}

void run_untraced(const Options& opt, const Task& task, const Seeds& seeds,
                  Report& r) {
  const int steps = opt.smoke ? kEvalEvery : kSteps;
  const auto cfg = training_config(steps, seeds.train, opt.threads);
  const std::uint64_t expected =
      expected_inferences(cfg, task.model, task.data.val.size());

  // The engine reports progress only after validation passes. Engine
  // repetitions give throughput; untraced runs of the composed loop,
  // equal to them bitwise, give each step's latency. The two alternate,
  // composed first, so a run holds at least two of each. Every
  // repetition gets a fresh backend with the same seeds.
  std::vector<train::TrainingResult> results, composed;
  std::vector<double> evals_per_s, steps_per_s, step_ms;
  const auto t_start = Clock::now();
  for (int rep = 0;; ++rep) {
    backend::NoisyBackend qc(task.device, noisy_options(seeds.backend));
    const auto t0 = Clock::now();
    if (rep % 2 == 0) {
      composed.push_back(composed_train(task, qc, cfg, &step_ms).result);
    } else {
      train::TrainingEngine engine(task.model, qc, qc, task.data.train,
                                   task.data.val, cfg);
      auto res = engine.run();
      const double dt = seconds_since(t0);
      evals_per_s.push_back(static_cast<double>(res.total_inferences) / dt);
      steps_per_s.push_back(steps / dt);
      results.push_back(std::move(res));
    }
    const double dt = seconds_since(t0);
    if (results.size() >= 2 && seconds_since(t_start) + dt > opt.seconds) break;
  }

  r.attempted = (results.size() + composed.size()) * static_cast<std::uint64_t>(steps);
  bool identical = true, composed_match = true;
  for (const auto& res : results) identical &= same_result(res, results.front());
  for (const auto& res : composed) composed_match &= same_result(res, results.front());
  r.check("pgp_train.repetitions_bitwise_identical", identical);
  r.check("pgp_train.composed_loop_matches_engine", composed_match);
  r.check("pgp_train.uniform_param_occurrences", uniform_occurrences(task.model));
  r.check("pgp_train.inferences_reconcile",
          results.front().total_inferences == expected);
  const double acc = results.front().final_val_accuracy;
  r.check("pgp_train.val_acc_in_range", acc >= 0.0 && acc <= 1.0);

  r.metric("evals_per_s", median(evals_per_s), "evals/s", evals_per_s.size());
  r.metric("ops_per_s", median(steps_per_s), "ops/s", steps_per_s.size());
  r.metric("latency_ms_p50", quantile(step_ms, 0.5), "ms", step_ms.size());
  r.extra("latency_ms_p90", quantile(step_ms, 0.9));
  r.extra("val_acc", acc);
  r.extra("repetitions", static_cast<double>(results.size()));
  r.extra("composed_repetitions", static_cast<double>(composed.size()));
}

void run_traced(const Options& opt, const Task& task, const Seeds& seeds,
                Report& r) {
  const int steps = scaled_steps(opt, kSteps);
  const auto cfg = training_config(steps, seeds.train, opt.threads);

  // Untraced reference: the engine itself.
  train::TrainingResult ref;
  double untraced_eps = 0.0;
  {
    backend::NoisyBackend qc(task.device, noisy_options(seeds.backend));
    train::TrainingEngine engine(task.model, qc, qc, task.data.train,
                                 task.data.val, cfg);
    const auto t0 = Clock::now();
    ref = engine.run();
    untraced_eps = static_cast<double>(ref.total_inferences) / seconds_since(t0);
  }

  // Traced: the same loop composed from the public pieces.
  backend::NoisyBackend qc(task.device, noisy_options(seeds.backend));
  const auto before = CounterSnapshot::take();
  trace_begin(1 << 18);
  const auto t0 = Clock::now();
  const Composed c = composed_train(task, qc, cfg);
  const double traced_s = seconds_since(t0);
  const Trace t = trace_end();
  const auto after = CounterSnapshot::take();

  r.attempted = static_cast<std::uint64_t>(steps);
  r.check("pgp_train.composed_loop_matches_engine", same_result(c.result, ref));
  // Every pruning step freezes n - ceil((1 - r) n) parameters; over
  // whole stages that is r * w_p / (w_a + w_p) = 1/3 of the work.
  const int n = task.model.num_params();
  std::uint64_t frozen = 0;
  for (int step = 1; step <= steps; ++step)
    if (!accumulation_step(cfg.pruner, step))
      frozen += static_cast<std::uint64_t>(n) - pruning_keep(cfg.pruner, n);
  r.check("pgp_train.pruned_frac_matches_schedule",
          c.param_steps - c.active_steps == frozen);
  r.check("pgp_train.inferences_reconcile",
          c.result.total_inferences ==
              expected_inferences(cfg, task.model, task.data.val.size()));

  const double step_sum = t.dur_sum_us("bench", "step");
  const auto step_us = t.durations_us("bench", "step");
  r.layer("train.step_ms_p50", quantile(step_us, 0.5) / 1e3, "ms", step_us.size());
  r.layer("train.step_ms_p95", quantile(step_us, 0.95) / 1e3, "ms", step_us.size());
  const double grad_self = t.self_sum_us("train", "batch_gradient");
  r.layer("train.grad_self_ms", grad_self / steps / 1e3, "ms", step_us.size());
  r.layer("train.grad_self_pct", 100.0 * ratio(grad_self, step_sum), "%",
          step_us.size());
  const double pruner = t.dur_sum_us("train", "pruner");
  const double optim = t.dur_sum_us("train", "optimizer");
  r.layer("train.pruner_us", pruner / steps, "us", step_us.size());
  r.layer("train.pruner_pct", 100.0 * ratio(pruner, step_sum), "%", step_us.size());
  r.layer("train.optimizer_us", optim / steps, "us", step_us.size());
  r.layer("train.optimizer_pct", 100.0 * ratio(optim, step_sum), "%",
          step_us.size());
  r.layer("train.evals_per_step",
          static_cast<double>(c.grad_inferences) / steps, "count", step_us.size());
  r.layer("train.pruned_frac",
          1.0 - ratio(static_cast<double>(c.active_steps),
                      static_cast<double>(c.param_steps)),
          "ratio", step_us.size());
  r.layer("train.val_acc", ref.final_val_accuracy, "ratio", 1);

  const auto eval_us = t.durations_us("qml", "accuracy");
  r.layer("qml.eval_ms", quantile(eval_us, 0.5) / 1e3, "ms", eval_us.size());
  r.layer("qml.eval_pct", 100.0 * ratio(t.dur_sum_us("qml", "accuracy"), step_sum),
          "%", eval_us.size());

  const auto rb = t.durations_us("backend", "run_batch");
  double evals = 0.0;
  for (const auto& s : t.spans)
    if (s.cat == "backend" && s.name == "run_batch") evals += static_cast<double>(s.arg);
  r.layer("backend.run_batch_ms_p50", quantile(rb, 0.5) / 1e3, "ms", rb.size());
  r.layer("backend.evals_per_call", ratio(evals, static_cast<double>(rb.size())),
          "count", rb.size());
  r.layer("backend.busy_frac", ratio(t.dur_sum_us("backend", "run_batch"), step_sum),
          "ratio", rb.size());

  const double th = static_cast<double>(after.delta(before, "qoc_transpile_cache_hits_total"));
  const double tm = static_cast<double>(after.delta(before, "qoc_transpile_cache_misses_total"));
  const double ph = static_cast<double>(after.delta(before, "qoc_pattern_cache_hits_total"));
  const double pm = static_cast<double>(after.delta(before, "qoc_pattern_cache_misses_total"));
  r.layer("transpile.cache_hit_ratio", ratio(th, th + tm), "ratio",
          static_cast<std::size_t>(th + tm));
  r.layer("transpile.pattern_hit_ratio", ratio(ph, ph + pm), "ratio",
          static_cast<std::size_t>(ph + pm));
  report_lane_counters(r, before, after);

  r.layer("obs.coverage_pct",
          100.0 * (1.0 - ratio(t.self_sum_us("bench", "step"), step_sum)), "%",
          step_us.size());
  r.layer("obs.dropped_events", static_cast<double>(t.dropped_events), "count", 1);
  const double traced_eps = static_cast<double>(c.result.total_inferences) / traced_s;
  r.layer("obs.trace_overhead_pct", 100.0 * (untraced_eps - traced_eps) / untraced_eps,
          "%", 2);
  report_layer_shares(r, t);

  // Counterfactuals on one full (unpruned) gradient batch, timed from
  // outside: noise disabled, and the k-wide trajectory lanes disabled.
  const int reps = opt.smoke ? 1 : 5;
  backend::NoisyBackend on(task.device, noisy_options(seeds.backend));
  backend::NoisyBackend off(task.device, noisy_options(seeds.backend, false));
  backend::NoisyBackend scalar_lanes(task.device,
                                     noisy_options(seeds.backend, true, 1));
  std::vector<std::size_t> batch(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) batch[i] = i;
  auto grad_ms = [&](backend::Backend& b) {
    train::ParameterShiftEngine pse(b, task.model);
    pse.set_threads(opt.threads);
    pse.batch_gradient(c.result.theta, task.data.train, batch);  // warm caches
    return median_ms(reps, [&] {
      pse.batch_gradient(c.result.theta, task.data.train, batch);
    });
  };
  const double t_on = grad_ms(on);
  const double t_off = grad_ms(off);
  const double t_scalar = grad_ms(scalar_lanes);
  r.layer("noise.share", 1.0 - t_off / t_on, "ratio", static_cast<std::size_t>(reps));
  r.layer("sim.lane_speedup", t_scalar / t_on, "x", static_cast<std::size_t>(reps));
}

}  // namespace

Report run_pgp_train(const Options& opt) {
  Report r;
  const Seeds seeds(opt.seed);
  std::unique_ptr<Task> task;
  // Set-up: synthetic MNIST-4 data, the model's compiled plan, the
  // device model, and a short warm-up run that resolves process-wide
  // lazy state (thread pool, lane calibration).
  std::vector<double> data_s;
  SetupTimer setup(opt.smoke || opt.trace ? 1 : 5, [&] {
    task.reset();
    const auto t0 = Clock::now();
    auto data = data::make_mnist4(seeds.data);
    data_s.push_back(seconds_since(t0));
    task = std::make_unique<Task>(Task{std::move(data), qml::make_mnist4_model(),
                                       noise::DeviceModel::ibmq_jakarta()});
    backend::NoisyBackend qc(task->device, noisy_options(seeds.backend));
    train::TrainingEngine warm(task->model, qc, qc, task->data.train,
                               task->data.val,
                               training_config(kWarmupSteps, seeds.train,
                                               opt.threads));
    warm.run();
  });

  if (opt.trace) {
    run_traced(opt, *task, seeds, r);
  } else {
    run_untraced(opt, *task, seeds, r);
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    r.metric("setup_s", setup.finish(), "s", setup.count());
    r.extra("setup_data_s", median(data_s));
  }
  return r;
}

}  // namespace e2e
