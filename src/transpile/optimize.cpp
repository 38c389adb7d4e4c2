#include "qoc/transpile/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qoc::transpile {

using circuit::GateKind;

bool rz_angle_is_zero(double a) {
  const double two_pi = 2.0 * linalg::kPi;
  double m = std::fmod(a, two_pi);
  if (m < 0) m += two_pi;
  return m < 1e-12 || two_pi - m < 1e-12;
}

std::vector<BoundOp> merge_rz(std::vector<BoundOp> ops) {
  // ops[0, kept) is the merged stream so far; it is compacted in place.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    BoundOp& op = ops[i];
    if (op.kind == GateKind::Rz) {
      // Merge only if the preceding op on this qubit's timeline is also
      // RZ: scan back while intervening ops do not touch this qubit.
      const int q = op.qubits[0];
      bool merged = false;
      for (std::size_t j = kept; j-- > 0;) {
        const auto& qs = ops[j].qubits;
        if (std::find(qs.begin(), qs.end(), q) == qs.end()) continue;
        if (ops[j].kind == GateKind::Rz) {
          ops[j].angle += op.angle;
          merged = true;
        }
        break;
      }
      if (merged) continue;
    }
    if (kept != i) ops[kept] = std::move(op);
    ++kept;
  }
  ops.resize(kept);
  // Drop zero rotations.
  std::erase_if(ops, [](const BoundOp& op) {
    return op.kind == GateKind::Rz && rz_angle_is_zero(op.angle);
  });
  return ops;
}

std::vector<BoundOp> cancel_cx(std::vector<BoundOp> ops) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != GateKind::Cx) continue;
      const int control = ops[i].qubits[0];
      const int target = ops[i].qubits[1];
      // Scan forward for the partner CX; RZ on the control commutes.
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        const auto& next = ops[j];
        if (next.kind == GateKind::Cx && next.qubits[0] == control &&
            next.qubits[1] == target) {
          ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
          ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
          changed = true;
          break;
        }
        // RZ on the control commutes with CX (both diagonal on control).
        if (next.kind == GateKind::Rz && next.qubits[0] == control) continue;
        // Anything else touching either qubit blocks cancellation.
        bool blocks = false;
        for (const int q : next.qubits)
          if (q == control || q == target) blocks = true;
        if (blocks) break;
      }
      if (changed) break;
    }
  }
  return ops;
}

std::vector<BoundOp> optimize(std::vector<BoundOp> ops) {
  for (;;) {
    const std::size_t before = ops.size();
    ops = cancel_cx(merge_rz(std::move(ops)));
    if (ops.size() >= before) return ops;
  }
}

}  // namespace qoc::transpile
