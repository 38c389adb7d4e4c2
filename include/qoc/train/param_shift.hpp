#pragma once
// In-situ gradient computation via the parameter-shift rule (Sec. 3.1-3.2).
//
// For every gate U(theta_i) = exp(-i/2 theta_i H) with H's eigenvalues
// +-1, the exact derivative of the circuit function is
//     df/dtheta_i = 1/2 * ( f(theta_i + pi/2) - f(theta_i - pi/2) ),
// evaluated by running the *shifted* circuit on the backend twice. If a
// trainable parameter appears in several gates, each occurrence is shifted
// separately and the contributions are summed (end of Sec. 3.1).
//
// The engine composes three parts exactly as Alg. 1 / Fig. 4 describe:
//   1. Jacobian df/dtheta via parameter shift (on the quantum backend),
//   2. downstream gradients dL/df via classical softmax/CE backprop,
//   3. final gradient dL/dtheta = (df/dtheta)^T dL/df.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/data/dataset.hpp"
#include "qoc/qml/qnn.hpp"

namespace qoc::train {

/// Throws std::invalid_argument, prefixed with `who`, unless every gate
/// carrying a trainable parameter of `c` satisfies the +-1-eigenvalue
/// parameter-shift rule.
void check_shift_rule(const circuit::Circuit& c, const std::string& who);

/// One parameter occurrence a sweep shifts: trainable parameter `param`
/// as used by source op `op`.
struct ShiftTerm {
  int param = 0;
  std::size_t op = 0;
};

/// Every occurrence of every trainable parameter of `c` whose mask entry
/// is set (all of them when `mask` is null), grouped by parameter in
/// ascending order, ops ascending within a parameter: the terms of one
/// parameter-shift sweep.
std::vector<ShiftTerm> shift_list(const circuit::Circuit& c,
                                  const std::vector<bool>* mask = nullptr);

/// Append, for every term in order, the evaluation of (theta, input) with
/// the term's op shifted by +pi/2 and then by -pi/2 (Eq. 2's pair).
void append_shift_pairs(std::vector<exec::Evaluation>& evals,
                        std::span<const ShiftTerm> shifts,
                        std::span<const double> theta,
                        std::span<const double> input);

/// Gradient of a mini-batch loss, plus bookkeeping.
struct BatchGradient {
  std::vector<double> grad;       // dL/dtheta (mean over the batch)
  double loss = 0.0;              // mean cross-entropy over the batch
  std::uint64_t inferences = 0;   // circuit runs consumed
};

class ParameterShiftEngine {
 public:
  /// Binds to the model's pre-compiled execution plan (QnnModel::plan):
  /// every gradient evaluation submits shifted evaluations of that one
  /// plan as a backend batch instead of materialising shifted circuits.
  ParameterShiftEngine(backend::Backend& backend, const qml::QnnModel& model);

  /// Fan the evaluation batches of jacobian/batch_gradient/batch_loss
  /// across worker threads. 1 (default) = sequential; 0 = one thread per
  /// hardware core. Per-evaluation RNG streams are assigned in submission
  /// order by the backends, so results no longer depend on the thread
  /// count; gradients are combined in batch order either way.
  void set_threads(unsigned threads) { threads_ = threads; }
  unsigned threads() const { return threads_; }

  /// Jacobian df/dtheta for a single example: result[q][i] is the
  /// derivative of qubit q's expectation value w.r.t. theta_i.
  /// 2 circuit runs per (parameter occurrence).
  std::vector<std::vector<double>> jacobian(std::span<const double> theta,
                                            std::span<const double> input);

  /// Mean loss gradient over a mini-batch (rows of `dataset` selected by
  /// `batch`). If `mask` is non-null, gradients are only evaluated for
  /// parameters with mask[i] == true; the rest are returned as 0 and cost
  /// no circuit runs (the savings term r*wp/(wa+wp) of Sec. 3.3).
  BatchGradient batch_gradient(std::span<const double> theta,
                               const data::Dataset& dataset,
                               std::span<const std::size_t> batch,
                               const std::vector<bool>* mask = nullptr);

  /// Loss (no gradient) on a mini-batch: one run per example.
  double batch_loss(std::span<const double> theta,
                    const data::Dataset& dataset,
                    std::span<const std::size_t> batch);

  backend::Backend& backend() { return backend_; }
  const qml::QnnModel& model() const { return model_; }

 private:
  backend::Backend& backend_;
  const qml::QnnModel& model_;
  unsigned threads_ = 1;
};

}  // namespace qoc::train
