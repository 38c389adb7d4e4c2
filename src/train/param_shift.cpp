#include "qoc/train/param_shift.hpp"

#include <stdexcept>

#include "qoc/autodiff/loss.hpp"

namespace qoc::train {

namespace {
constexpr double kHalfPi = 1.5707963267948966;
}

void check_shift_rule(const circuit::Circuit& c, const std::string& who) {
  for (const auto& op : c.ops())
    if (op.param.source == circuit::ParamRef::Source::Trainable &&
        !circuit::gate_supports_parameter_shift(op.kind))
      throw std::invalid_argument(
          who + ": gate '" + circuit::gate_name(op.kind) +
          "' does not satisfy the +-1-eigenvalue parameter-shift rule");
}

std::vector<ShiftTerm> shift_list(const circuit::Circuit& c,
                                  const std::vector<bool>* mask) {
  const int n = c.num_trainable();
  if (mask && static_cast<int>(mask->size()) != n)
    throw std::invalid_argument("shift_list: mask size mismatch");
  std::vector<ShiftTerm> shifts;
  for (int i = 0; i < n; ++i) {
    if (mask && !(*mask)[static_cast<std::size_t>(i)]) continue;
    for (const std::size_t op : c.ops_for_param(i)) shifts.push_back({i, op});
  }
  return shifts;
}

void append_shift_pairs(std::vector<exec::Evaluation>& evals,
                        std::span<const ShiftTerm> shifts,
                        std::span<const double> theta,
                        std::span<const double> input) {
  for (const auto& s : shifts) {
    evals.push_back({theta, input, s.op, kHalfPi});
    evals.push_back({theta, input, s.op, -kHalfPi});
  }
}

ParameterShiftEngine::ParameterShiftEngine(backend::Backend& backend,
                                           const qml::QnnModel& model)
    : backend_(backend), model_(model) {
  check_shift_rule(model_.circuit(), "ParameterShiftEngine");
}

std::vector<std::vector<double>> ParameterShiftEngine::jacobian(
    std::span<const double> theta, std::span<const double> input) {
  const int n_qubits = model_.circuit().num_qubits();
  const int n_params = model_.num_params();

  // Eq. 2 for every parameter occurrence, submitted as ONE batch against
  // the model's compiled plan: +-pi/2 shifts are slot offsets, so no
  // circuit is copied and no structure is re-lowered.
  const auto shifts = shift_list(model_.circuit());
  std::vector<exec::Evaluation> evals;
  evals.reserve(2 * shifts.size());
  append_shift_pairs(evals, shifts, theta, input);
  const auto f = backend_.run_batch(model_.plan(), evals, threads_);

  std::vector<std::vector<double>> jac(
      static_cast<std::size_t>(n_qubits),
      std::vector<double>(static_cast<std::size_t>(n_params), 0.0));
  for (std::size_t s = 0; s < shifts.size(); ++s) {
    const auto i = static_cast<std::size_t>(shifts[s].param);
    const auto& f_plus = f[2 * s];
    const auto& f_minus = f[2 * s + 1];
    for (int q = 0; q < n_qubits; ++q)
      jac[static_cast<std::size_t>(q)][i] +=
          0.5 * (f_plus[static_cast<std::size_t>(q)] -
                 f_minus[static_cast<std::size_t>(q)]);
  }
  return jac;
}

BatchGradient ParameterShiftEngine::batch_gradient(
    std::span<const double> theta, const data::Dataset& dataset,
    std::span<const std::size_t> batch, const std::vector<bool>* mask) {
  const int n_params = model_.num_params();
  if (batch.empty())
    throw std::invalid_argument("batch_gradient: empty batch");

  BatchGradient out;
  out.grad.assign(static_cast<std::size_t>(n_params), 0.0);
  const std::uint64_t inf_before = backend_.inference_count();

  for (const std::size_t idx : batch)
    if (idx >= dataset.size())
      throw std::out_of_range("batch_gradient: batch index");

  // One batched submission for the whole step: per example, the
  // unshifted run (loss + dL/df) followed by the +-pi/2 pair of every
  // active parameter occurrence, all against the model's compiled plan.
  // The backend fans evaluations over threads; results come back indexed,
  // so the combination below is fixed in batch order and the final
  // gradient is thread-count invariant.
  const auto shifts = shift_list(model_.circuit(), mask);
  const std::size_t per_example = 1 + 2 * shifts.size();
  std::vector<exec::Evaluation> evals;
  evals.reserve(batch.size() * per_example);
  for (const std::size_t idx : batch) {
    const auto& x = dataset.features[idx];
    evals.push_back({theta, x, exec::Evaluation::kNoShift, 0.0});
    append_shift_pairs(evals, shifts, theta, x);
  }
  const auto f = backend_.run_batch(model_.plan(), evals, threads_);

  const std::size_t n_qubits =
      static_cast<std::size_t>(model_.circuit().num_qubits());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t base = k * per_example;
    const int y = dataset.labels[batch[k]];

    // Loss + downstream gradients dL/df from the unshifted run (Fig. 4,
    // right).
    const auto logits = model_.head().forward(f[base]);
    out.loss += autodiff::cross_entropy(logits, y);
    const auto grad_logits = autodiff::cross_entropy_grad(logits, y);
    const auto grad_f = model_.head().backward(grad_logits);

    // Upstream Jacobian via parameter shift (Fig. 4, left), then the dot
    // product dL/dtheta_i = sum_q dL/df_q * df_q/dtheta_i. Occurrences of
    // one parameter are contiguous in the shift list.
    std::size_t pos = base + 1;
    std::size_t s = 0;
    while (s < shifts.size()) {
      const int i = shifts[s].param;
      std::vector<double> dfi(n_qubits, 0.0);
      while (s < shifts.size() && shifts[s].param == i) {
        const auto& f_plus = f[pos];
        const auto& f_minus = f[pos + 1];
        pos += 2;
        ++s;
        for (std::size_t q = 0; q < n_qubits; ++q)
          dfi[q] += 0.5 * (f_plus[q] - f_minus[q]);
      }
      double dot = 0.0;
      for (std::size_t q = 0; q < n_qubits; ++q) dot += grad_f[q] * dfi[q];
      out.grad[static_cast<std::size_t>(i)] += dot;
    }
  }
  const double inv = 1.0 / static_cast<double>(batch.size());
  for (auto& g : out.grad) g *= inv;
  out.loss *= inv;
  out.inferences = backend_.inference_count() - inf_before;
  return out;
}

double ParameterShiftEngine::batch_loss(std::span<const double> theta,
                                        const data::Dataset& dataset,
                                        std::span<const std::size_t> batch) {
  if (batch.empty()) throw std::invalid_argument("batch_loss: empty batch");
  for (const std::size_t idx : batch)
    if (idx >= dataset.size())
      throw std::out_of_range("batch_loss: batch index");
  std::vector<exec::Evaluation> evals(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    evals[k].theta = theta;
    evals[k].input = dataset.features[batch[k]];
  }
  const auto f = backend_.run_batch(model_.plan(), evals, threads_);
  double loss = 0.0;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const auto logits = model_.head().forward(f[k]);
    loss += autodiff::cross_entropy(logits, dataset.labels[batch[k]]);
  }
  return loss / static_cast<double>(batch.size());
}

}  // namespace qoc::train
