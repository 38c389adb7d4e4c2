// vqe_solve: VQE with parameter-shift gradients and PGP on the 8-qubit
// antiferromagnetic Heisenberg chain (J = 1), depth-3 hardware-efficient
// ansatz (56 parameters), 1024 shots per commuting group.
//
// It runs vqe's own estimator -- scalar statevector plus sampling, in
// many small (112-evaluation) batches per step -- so thread-pool
// dispatch and sampling dominate, and it bypasses backend, transpile,
// noise, serve and the k-wide lanes: the "no change" control for
// backend-side optimisations. n = 8 because exact_ground_energy() takes
// about 1.2 s at n = 8 and about 104 s at n = 10.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "e2e.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/vqe/hamiltonian.hpp"
#include "qoc/vqe/vqe.hpp"

namespace e2e {
namespace {

using namespace qoc;

constexpr int kQubits = 8;
constexpr int kDepth = 3;
constexpr int kSteps = 500;
constexpr int kWarmupSteps = 20;
constexpr int kShots = 1024;
constexpr double kHalfPi = 1.5707963267948966;
/// Exact ground energy of Hamiltonian::heisenberg(8, 1.0) (open chain);
/// --smoke recomputes it with exact_ground_energy().
constexpr double kE0 = -13.499730394751726;

vqe::VqeConfig vqe_config(int steps, std::uint64_t seed, unsigned threads) {
  vqe::VqeConfig cfg;
  cfg.steps = steps;
  cfg.use_pruning = true;
  cfg.pruner.accumulation_window = 1;
  cfg.pruner.pruning_window = 2;
  cfg.pruner.ratio = 0.5;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

vqe::EstimatorOptions estimator_options(std::uint64_t seed, int shots = kShots) {
  vqe::EstimatorOptions o;
  o.shots = shots;
  o.seed = seed;
  return o;
}

struct Problem {
  vqe::Hamiltonian hamiltonian = vqe::Hamiltonian::heisenberg(kQubits, 1.0);
  circuit::Circuit ansatz = vqe::VqeSolver::hardware_efficient_ansatz(kQubits, kDepth);
  std::size_t groups = vqe::compile_observable(hamiltonian).groups().size();
};

struct Seeds {
  std::uint64_t solver, estimator;
  explicit Seeds(std::uint64_t s)
      : solver(derive_seed(s, 11)), estimator(derive_seed(s, 12)) {}
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_result(const vqe::VqeResult& a, const vqe::VqeResult& b) {
  if (a.theta.size() != b.theta.size() || a.history.size() != b.history.size() ||
      a.total_executions != b.total_executions || !same_bits(a.energy, b.energy))
    return false;
  for (std::size_t i = 0; i < a.theta.size(); ++i)
    if (!same_bits(a.theta[i], b.theta[i])) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i)
    if (a.history[i].step != b.history[i].step ||
        a.history[i].executions != b.history[i].executions ||
        !same_bits(a.history[i].energy, b.history[i].energy))
      return false;
  return true;
}

/// Executions a PGP solve must consume: per step one measured execution
/// per commuting group for each +-pi/2 evaluation of every active
/// parameter occurrence, plus one energy() estimate.
std::uint64_t expected_executions(const Problem& p, int steps) {
  const auto n = static_cast<std::uint64_t>(p.ansatz.num_trainable());
  const std::uint64_t keep = (n + 1) / 2;  // ceil((1 - 0.5) n)
  std::uint64_t total = 0;
  for (int step = 1; step <= steps; ++step) {
    const std::uint64_t active = (step - 1) % 3 == 0 ? n : keep;
    total += p.groups * (2 * active + 1);
  }
  return total;
}

/// The full +-pi/2 sweep over every active parameter occurrence, in
/// VqeSolver's order.
std::vector<exec::Evaluation> sweep(const circuit::Circuit& ansatz,
                                    std::span<const double> theta,
                                    const std::vector<bool>& mask,
                                    std::vector<std::pair<int, std::size_t>>& shifts) {
  shifts.clear();
  for (int i = 0; i < ansatz.num_trainable(); ++i) {
    if (!mask[static_cast<std::size_t>(i)]) continue;
    for (const std::size_t op : ansatz.ops_for_param(i)) shifts.emplace_back(i, op);
  }
  std::vector<exec::Evaluation> evals;
  evals.reserve(2 * shifts.size());
  for (const auto& [i, op] : shifts) {
    evals.push_back({theta, {}, op, kHalfPi});
    evals.push_back({theta, {}, op, -kHalfPi});
  }
  return evals;
}

struct Composed {
  vqe::VqeResult result;
  std::uint64_t param_steps = 0;
  std::uint64_t active_steps = 0;
};

/// VqeSolver::run rebuilt from the public pieces in library order, with
/// a span around each layer call. Must reproduce the solver bitwise.
/// Appends each step's wall time to `step_ms` when given.
Composed composed_vqe(const Problem& p, const vqe::VqeConfig& cfg,
                      std::uint64_t estimator_seed,
                      std::vector<double>* step_ms = nullptr) {
  vqe::EnergyEstimator estimator(p.hamiltonian, estimator_options(estimator_seed));
  Prng rng(cfg.seed);
  const int n = p.ansatz.num_trainable();
  std::vector<double> theta(static_cast<std::size_t>(n));
  for (auto& t : theta) t = rng.uniform(-0.5, 0.5);
  auto optimizer = train::make_optimizer(cfg.optimizer, cfg.lr_start);
  train::CosineScheduler scheduler(cfg.lr_start, cfg.lr_end, cfg.steps);
  train::GradientPruner pruner(n, cfg.pruner, rng());

  Composed out;
  out.result.best_energy = std::numeric_limits<double>::infinity();
  std::vector<std::pair<int, std::size_t>> shifts;
  for (int step = 1; step <= cfg.steps; ++step) {
    QOC_TRACE_SPAN("bench", "step");
    const auto t_step = Clock::now();
    optimizer->set_learning_rate(scheduler.at(step - 1));
    std::vector<bool> mask;
    {
      QOC_TRACE_SPAN("train", "pruner");
      mask = pruner.next_mask();
    }
    std::vector<double> grad(static_cast<std::size_t>(n), 0.0);
    {
      QOC_TRACE_SPAN("vqe", "energies");
      const auto evals = sweep(p.ansatz, theta, mask, shifts);
      const auto e = estimator.energies(p.ansatz, evals, cfg.threads);
      for (std::size_t s = 0; s < shifts.size(); ++s)
        grad[static_cast<std::size_t>(shifts[s].first)] +=
            0.5 * (e[2 * s] - e[2 * s + 1]);
    }
    {
      QOC_TRACE_SPAN("train", "pruner");
      pruner.observe(grad);
    }
    {
      QOC_TRACE_SPAN("train", "optimizer");
      optimizer->step(theta, grad, &mask);
    }
    vqe::VqeRecord rec;
    {
      QOC_TRACE_SPAN("vqe", "energy");
      rec.energy = estimator.energy(p.ansatz, theta);
    }
    rec.step = step;
    rec.executions = estimator.executions();
    out.result.best_energy = std::min(out.result.best_energy, rec.energy);
    out.result.history.push_back(rec);
    out.param_steps += mask.size();
    for (const bool m : mask) out.active_steps += m ? 1 : 0;
    if (step_ms) step_ms->push_back(seconds_since(t_step) * 1e3);
  }
  out.result.energy = out.result.history.back().energy;
  out.result.theta = std::move(theta);
  out.result.total_executions = estimator.executions();
  return out;
}

vqe::VqeResult solve(const Problem& p, int steps, const Seeds& seeds,
                     unsigned threads) {
  vqe::VqeSolver solver(
      vqe::EnergyEstimator(p.hamiltonian, estimator_options(seeds.estimator)),
      p.ansatz, vqe_config(steps, seeds.solver, threads));
  return solver.run();
}

void run_untraced(const Options& opt, const Problem& p, const Seeds& seeds,
                  Report& r) {
  const int steps = opt.smoke ? 25 : kSteps;
  const auto cfg = vqe_config(steps, seeds.solver, opt.threads);
  // VqeSolver::run exposes no step boundary. Solver repetitions give
  // throughput; untraced runs of the composed loop, equal to them
  // bitwise, give each step's latency. The two alternate, composed
  // first, so a run holds at least two of each.
  std::vector<vqe::VqeResult> results, composed;
  std::vector<double> evals_per_s, steps_per_s, step_ms;
  const auto t_start = Clock::now();
  for (int rep = 0;; ++rep) {
    const auto t0 = Clock::now();
    if (rep % 2 == 0) {
      composed.push_back(composed_vqe(p, cfg, seeds.estimator, &step_ms).result);
    } else {
      auto res = solve(p, steps, seeds, opt.threads);
      const double dt = seconds_since(t0);
      evals_per_s.push_back(static_cast<double>(res.total_executions) / dt);
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
  const auto& first = results.front();
  r.check("vqe_solve.repetitions_bitwise_identical", identical);
  r.check("vqe_solve.composed_loop_matches_solver", composed_match);
  r.check("vqe_solve.executions_reconcile",
          first.total_executions == expected_executions(p, steps));
  // The energy must descend, and sampling noise (1024 shots per group)
  // cannot put a 21-term estimate far below the exact ground energy.
  r.check("vqe_solve.energy_descends",
          first.energy < first.history.front().energy && first.energy > kE0 - 1.0);

  r.metric("evals_per_s", median(evals_per_s), "evals/s", evals_per_s.size());
  r.metric("ops_per_s", median(steps_per_s), "ops/s", steps_per_s.size());
  r.metric("latency_ms_p50", quantile(step_ms, 0.5), "ms", step_ms.size());
  r.extra("latency_ms_p90", quantile(step_ms, 0.9));
  r.extra("energy_gap", first.energy - kE0);
  r.extra("repetitions", static_cast<double>(results.size()));
  r.extra("composed_repetitions", static_cast<double>(composed.size()));
}

void run_traced(const Options& opt, const Problem& p, const Seeds& seeds,
                Report& r) {
  const int steps =
      opt.smoke ? 25 : std::max(25, static_cast<int>(kSteps * std::min(1.0, opt.seconds / 20.0)));
  const auto cfg = vqe_config(steps, seeds.solver, opt.threads);

  const auto t_ref = Clock::now();
  const vqe::VqeResult ref = solve(p, steps, seeds, opt.threads);
  const double untraced_eps = static_cast<double>(ref.total_executions) /
                              seconds_since(t_ref);

  trace_begin(1 << 18);
  const auto t0 = Clock::now();
  const Composed c = composed_vqe(p, cfg, seeds.estimator);
  const double traced_s = seconds_since(t0);
  const Trace t = trace_end();

  r.attempted = static_cast<std::uint64_t>(steps);
  r.check("vqe_solve.composed_loop_matches_solver", same_result(c.result, ref));
  r.check("vqe_solve.executions_reconcile",
          c.result.total_executions == expected_executions(p, steps));

  const double step_sum = t.dur_sum_us("bench", "step");
  const auto step_us = t.durations_us("bench", "step");
  const auto sweep_us = t.durations_us("vqe", "energies");
  const auto energy_us = t.durations_us("vqe", "energy");
  r.layer("vqe.step_ms_p50", quantile(step_us, 0.5) / 1e3, "ms", step_us.size());
  r.layer("vqe.step_ms_p95", quantile(step_us, 0.95) / 1e3, "ms", step_us.size());
  r.layer("vqe.sweep_ms_p50", quantile(sweep_us, 0.5) / 1e3, "ms", sweep_us.size());
  r.layer("vqe.energy_ms_p50", quantile(energy_us, 0.5) / 1e3, "ms", energy_us.size());
  r.layer("vqe.sweep_pct", 100.0 * ratio(t.dur_sum_us("vqe", "energies"), step_sum),
          "%", sweep_us.size());
  r.layer("vqe.energy_pct", 100.0 * ratio(t.dur_sum_us("vqe", "energy"), step_sum),
          "%", energy_us.size());
  r.layer("vqe.exec_per_step",
          static_cast<double>(c.result.total_executions) / steps, "count",
          step_us.size());
  r.layer("vqe.energy_gap", ref.energy - kE0, "J", 1);

  const double pruner = t.dur_sum_us("train", "pruner");
  const double optim = t.dur_sum_us("train", "optimizer");
  r.layer("train.pruner_us", pruner / steps, "us", step_us.size());
  r.layer("train.pruner_pct", 100.0 * ratio(pruner, step_sum), "%", step_us.size());
  r.layer("train.optimizer_us", optim / steps, "us", step_us.size());
  r.layer("train.optimizer_pct", 100.0 * ratio(optim, step_sum), "%",
          step_us.size());
  r.layer("train.pruned_frac",
          1.0 - ratio(static_cast<double>(c.active_steps),
                      static_cast<double>(c.param_steps)),
          "ratio", step_us.size());

  r.layer("obs.coverage_pct",
          100.0 * (1.0 - ratio(t.self_sum_us("bench", "step"), step_sum)), "%",
          step_us.size());
  r.layer("obs.dropped_events", static_cast<double>(t.dropped_events), "count", 1);
  const double traced_eps = static_cast<double>(c.result.total_executions) / traced_s;
  r.layer("obs.trace_overhead_pct", 100.0 * (untraced_eps - traced_eps) / untraced_eps,
          "%", 2);
  report_layer_shares(r, t);

  // Counterfactual: the same full gradient sweep with exact expectations
  // (shots = 0) instead of 1024-shot sampling per group.
  const int reps = opt.smoke ? 1 : 5;
  std::vector<bool> all(static_cast<std::size_t>(p.ansatz.num_trainable()), true);
  std::vector<std::pair<int, std::size_t>> shifts;
  const auto evals = sweep(p.ansatz, c.result.theta, all, shifts);
  vqe::EnergyEstimator sampled(p.hamiltonian, estimator_options(seeds.estimator));
  vqe::EnergyEstimator exact(p.hamiltonian, estimator_options(seeds.estimator, 0));
  sampled.energies(p.ansatz, evals, opt.threads);
  exact.energies(p.ansatz, evals, opt.threads);
  const double t_sampled =
      median_ms(reps, [&] { sampled.energies(p.ansatz, evals, opt.threads); });
  const double t_exact =
      median_ms(reps, [&] { exact.energies(p.ansatz, evals, opt.threads); });
  r.layer("vqe.sampling_share", 1.0 - t_exact / t_sampled, "ratio",
          static_cast<std::size_t>(reps));
}

}  // namespace

Report run_vqe_solve(const Options& opt) {
  Report r;
  const Seeds seeds(opt.seed);
  std::unique_ptr<Problem> problem;
  // Set-up: the Hamiltonian and its commuting groups, the ansatz, and a
  // short warm-up solve.
  SetupTimer setup(opt.smoke || opt.trace ? 1 : 5, [&] {
    problem.reset();
    problem = std::make_unique<Problem>();
    solve(*problem, kWarmupSteps, seeds, opt.threads);
  });

  if (opt.smoke) {
    const double e0 = problem->hamiltonian.exact_ground_energy();
    r.check("vqe_solve.embedded_e0_matches_exact", std::abs(e0 - kE0) < 1e-9);
    r.extra("e0_recomputed", e0);
  }
  if (opt.trace) {
    run_traced(opt, *problem, seeds, r);
  } else {
    run_untraced(opt, *problem, seeds, r);
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    r.metric("setup_s", setup.finish(), "s", setup.count());
  }
  return r;
}

}  // namespace e2e
