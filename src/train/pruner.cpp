#include "qoc/train/pruner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace qoc::train {

void PrunerConfig::validate() const {
  if (accumulation_window < 1)
    throw std::invalid_argument("PrunerConfig: accumulation_window < 1");
  if (pruning_window < 0)
    throw std::invalid_argument("PrunerConfig: pruning_window < 0");
  // Written as "inside the range" so that NaN fails too.
  if (!(ratio >= 0.0 && ratio <= 1.0))
    throw std::invalid_argument("PrunerConfig: ratio out of [0,1]");
}

double PrunerConfig::savings_fraction() const {
  return ratio * pruning_window /
         static_cast<double>(accumulation_window + pruning_window);
}

GradientPruner::GradientPruner(int n_params, PrunerConfig config,
                               std::uint64_t seed)
    : n_params_(n_params), config_(config), rng_(seed),
      accum_(static_cast<std::size_t>(n_params), 0.0) {
  if (n_params < 1) throw std::invalid_argument("GradientPruner: n_params");
  config_.validate();
}

bool GradientPruner::in_accumulation_phase() const {
  const int stage_len = config_.accumulation_window + config_.pruning_window;
  // A full stage boundary wraps to position 0 (accumulation) on the next
  // next_mask() call; report the phase of the step about to be taken.
  const int pos = stage_pos_ >= stage_len ? 0 : stage_pos_;
  return pos < config_.accumulation_window;
}

std::vector<bool> GradientPruner::next_mask() {
  const int stage_len = config_.accumulation_window + config_.pruning_window;
  if (stage_pos_ >= stage_len) {
    // New stage: reset the accumulator (Alg. 1: "Initialize gradient
    // magnitude accumulator M <- 0").
    stage_pos_ = 0;
    std::fill(accum_.begin(), accum_.end(), 0.0);
  }

  std::vector<bool> mask;
  if (in_accumulation_phase()) {
    mask.assign(static_cast<std::size_t>(n_params_), true);
    last_was_accum_ = true;
  } else {
    mask = sample_mask();
    last_was_accum_ = false;
  }
  ++stage_pos_;
  ++step_;
  return mask;
}

std::vector<bool> GradientPruner::sample_mask() {
  const auto n = static_cast<std::size_t>(n_params_);
  const std::size_t keep = static_cast<std::size_t>(
      std::ceil((1.0 - config_.ratio) * n_params_));
  std::vector<bool> mask(n, false);
  if (keep == 0) return mask;
  if (keep >= n) {
    mask.assign(n, true);
    return mask;
  }

  if (config_.deterministic) {
    // Table 2 baseline: keep the top-k by accumulated magnitude.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(keep),
                      order.end(), [this](std::size_t a, std::size_t b) {
                        return accum_[a] > accum_[b];
                      });
    for (std::size_t i = 0; i < keep; ++i) mask[order[i]] = true;
    return mask;
  }

  const auto picked =
      weighted_sample_without_replacement(accum_, keep, rng_);
  for (std::size_t idx : picked) mask[idx] = true;
  return mask;
}

void GradientPruner::observe(std::span<const double> grad) {
  if (static_cast<int>(grad.size()) != n_params_)
    throw std::invalid_argument("GradientPruner::observe: size mismatch");
  if (!last_was_accum_) return;  // pruning-phase gradients are not recorded
  for (std::size_t i = 0; i < grad.size(); ++i)
    accum_[i] += std::abs(grad[i]);
}

std::vector<std::size_t> weighted_sample_without_replacement(
    std::span<const double> weights, std::size_t k, Prng& rng) {
  const std::size_t n = weights.size();
  if (k > n)
    throw std::invalid_argument(
        "weighted_sample_without_replacement: k > n");
  for (const double w : weights)
    if (w < 0.0 || !std::isfinite(w))
      throw std::invalid_argument(
          "weighted_sample_without_replacement: bad weight");

  // Efraimidis-Spirakis: key_i = -Exp(1)/w_i (log-space variant of
  // u^{1/w}); take the k largest keys. Zero weights get -inf keys and a
  // uniform tiebreak, so they are only used when positive weights run out.
  struct Keyed {
    double key;
    double tiebreak;
    std::size_t idx;
  };
  std::vector<Keyed> keyed(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = std::max(rng.uniform(), 1e-300);
    const double key = weights[i] > 0.0
                           ? std::log(u) / weights[i]
                           : -std::numeric_limits<double>::infinity();
    keyed[i] = {key, rng.uniform(), i};
  }
  std::partial_sort(keyed.begin(),
                    keyed.begin() + static_cast<std::ptrdiff_t>(k),
                    keyed.end(), [](const Keyed& a, const Keyed& b) {
                      if (a.key != b.key) return a.key > b.key;
                      return a.tiebreak > b.tiebreak;
                    });
  std::vector<std::size_t> out(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = keyed[i].idx;
  return out;
}

}  // namespace qoc::train
