#pragma once
// The one shot sampler behind every finite-shot measurement
// (Statevector::sample, and the readout of both backends through
// parity_means).
//
// Measuring a register `shots` times draws basis indices from the Born
// distribution |amp_i|^2, or from an explicit probability vector p_i.
// The reference is inverse-CDF sampling: the running sum cdf[i] =
// w_0 + ... + w_i of the weights (w_i = |amp_i|^2 or p_i) in index
// order, then per shot r = rng.uniform() and the first i with cdf[i] >=
// r * total (std::lower_bound). ShotSampler returns exactly those indices and
// consumes exactly one rng.uniform() per shot in shot order, so every
// outcome and the stream state after the call are bit-identical to the
// reference. Instead of a binary search per shot, whose branches
// mispredict at every level, it uses a guide table (indexed search,
// Chen & Asau 1974):
//
//   * m = min(dim, bit_ceil(shots)) buckets, a power of two;
//   * guide[b] = lower_bound(cdf, (b / m) * total), built in one merged
//     pass over the CDF;
//   * a draw r starts at guide[floor(r * m)] and scans forward while
//     cdf[i] < r * total. b / m <= r holds exactly (m is a power of
//     two) and rounding is monotone, so the start never passes the
//     answer; cdf.back() == total >= r * total stops the scan at the
//     reference's index, whose cap at dim - 1 a finite total never
//     reaches.
//
// Work is O(dim + m + shots * (1 + dim / m)). src/README.md ("Shot
// sampling") gives the measurements behind the size rule.
//
// The counts form folds the same draws into distinct outcomes plus
// multiplicities, and parity_means folds those into the +-1 means a
// readout reports: each runs once per distinct outcome, with exact
// integer sums that equal the per-shot +-1.0 accumulation bit for bit.

#include <cstdint>
#include <span>
#include <vector>

#include "qoc/common/prng.hpp"
#include "qoc/linalg/matrix.hpp"

namespace qoc::sim {

/// Distinct outcomes of one batch of shots and how often each was drawn.
struct ShotCounts {
  std::vector<std::uint64_t> outcomes;  // distinct, in first-draw order
  std::vector<std::uint32_t> counts;    // counts[j]: draws of outcomes[j]
  int shots = 0;                        // sum of counts
};

class ShotSampler {
 public:
  /// `shots` draws from |amps[i]|^2, i in [0, dim), into `out` in draw
  /// order. Throws std::invalid_argument for shots < 0 and
  /// std::domain_error when the probabilities sum to a non-finite total.
  void sample(const linalg::cplx* amps, std::size_t dim, int shots,
              Prng& rng, std::vector<std::uint64_t>& out);

  /// The same draws over the weights probs[i], i in [0, dim), folded
  /// into counts: every entry must be >= 0, so the CDF is monotone. The
  /// result lives in this sampler and stays valid until its next call;
  /// keeping one sampler per worker chunk makes the hot path
  /// allocation-free. Same errors as sample().
  const ShotCounts& count(const double* probs, std::size_t dim, int shots,
                          Prng& rng);

  /// The readout: out[i] <- the mean of (-1)^popcount(s & masks[i]) over
  /// outcomes s in [0, dim). At shots == 0 it is summed exactly under
  /// probs, in index order, and `rng` is not read (it may be null).
  /// Otherwise it is the mean over `shots` draws from probs on *rng
  /// (count()'s draws and errors), folded as counts: the +-count sums
  /// are exact integers, so each mean is bitwise the per-shot +-1.0 fold
  /// divided by `shots`. `out` must hold masks.size() entries.
  void parity_means(const double* probs, std::size_t dim,
                    std::span<const std::uint64_t> masks, int shots,
                    Prng* rng, std::span<double> out);

 private:
  /// Builds the CDF of weight(0), ..., weight(dim - 1) and its guide
  /// table.
  template <class Weight>
  void build(std::size_t dim, int shots, Weight&& weight);
  std::size_t draw(Prng& rng) const;

  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  double total_ = 0.0;
  double buckets_ = 1.0;  // m, as the double the draw scales by
  // Per-outcome tallies for count(): dim entries, all zero between calls.
  std::vector<std::uint32_t> tally_;
  ShotCounts counts_;
};

}  // namespace qoc::sim
