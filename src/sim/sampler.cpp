// Shot sampler. Deliberately compiled with the DEFAULT flags, like
// statevector.cpp (not the kernel TUs' -ffp-contract=off): the CDF's
// std::norm sums must round exactly like the lower_bound reference in
// tests/test_sampling.cpp, whose recorded pins depend on them.

#include "qoc/sim/sampler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace qoc::sim {

template <class Weight>
void ShotSampler::build(std::size_t dim, int shots, Weight&& weight) {
  if (shots < 0) throw std::invalid_argument("sample: shots < 0");
  if (dim == 0) throw std::invalid_argument("sample: empty distribution");
  cdf_.resize(dim);
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += weight(i);
    cdf_[i] = acc;
  }
  total_ = acc;
  if (!std::isfinite(total_))
    throw std::domain_error("sample: probability total is not finite");

  const std::size_t m =
      std::min(dim, std::bit_ceil(static_cast<std::size_t>(shots)));
  buckets_ = static_cast<double>(m);
  const double inv_m = 1.0 / buckets_;
  guide_.resize(m);
  // Thresholds rise with b, so one forward pass finds every
  // lower_bound; cdf_.back() == total_ >= each threshold ends the scans.
  std::size_t i = 0;
  for (std::size_t b = 0; b < m; ++b) {
    const double threshold = (static_cast<double>(b) * inv_m) * total_;
    while (cdf_[i] < threshold) ++i;
    guide_[b] = static_cast<std::uint32_t>(i);
  }
}

inline std::size_t ShotSampler::draw(Prng& rng) const {
  const double r = rng.uniform();
  const double u = r * total_;
  std::size_t i = guide_[static_cast<std::size_t>(r * buckets_)];
  while (cdf_[i] < u) ++i;
  return i;
}

void ShotSampler::sample(const linalg::cplx* amps, std::size_t dim,
                         std::size_t stride, int shots, Prng& rng,
                         std::vector<std::uint64_t>& out) {
  build(dim, shots, [=](std::size_t i) { return std::norm(amps[i * stride]); });
  out.resize(static_cast<std::size_t>(shots));
  for (auto& o : out) o = draw(rng);
}

const ShotCounts& ShotSampler::count(const linalg::cplx* amps,
                                     std::size_t dim, std::size_t stride,
                                     int shots, Prng& rng) {
  build(dim, shots, [=](std::size_t i) { return std::norm(amps[i * stride]); });
  return fold(dim, shots, rng);
}

const ShotCounts& ShotSampler::count(const double* probs, std::size_t dim,
                                     int shots, Prng& rng) {
  build(dim, shots, [=](std::size_t i) { return probs[i]; });
  return fold(dim, shots, rng);
}

const ShotCounts& ShotSampler::fold(std::size_t dim, int shots, Prng& rng) {
  tally_.resize(dim);
  // Reserve the most distinct outcomes a call can see, so a reused
  // sampler never reallocates on a varying count (allocations of
  // varying size fragmented the pool workers' malloc arenas).
  const std::size_t max_distinct =
      std::min(dim, static_cast<std::size_t>(shots));
  auto& outcomes = counts_.outcomes;
  outcomes.clear();
  outcomes.reserve(max_distinct);
  counts_.counts.reserve(max_distinct);
  for (int s = 0; s < shots; ++s) {
    const std::size_t i = draw(rng);
    if (tally_[i]++ == 0) outcomes.push_back(i);
  }
  counts_.counts.resize(outcomes.size());
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    counts_.counts[j] = tally_[outcomes[j]];
    tally_[outcomes[j]] = 0;
  }
  counts_.shots = shots;
  return counts_;
}

}  // namespace qoc::sim
