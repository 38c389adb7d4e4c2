#pragma once
// The shifted circuit of Eq. 2 as a circuit copy: what an Evaluation's
// (shift_op, shift) pair stands for, spelled out so tests can check the
// slot-offset path against it.

#include <cstddef>
#include <stdexcept>

#include "qoc/circuit/circuit.hpp"

namespace qoc::train {

/// Copy of `c` with op `op_index`'s angle offset by `delta` (structure
/// unchanged, no ancilla). Throws std::out_of_range for an op index past
/// the end and std::invalid_argument for an op without an angle.
inline circuit::Circuit with_op_offset(const circuit::Circuit& c,
                                       std::size_t op_index, double delta) {
  if (op_index >= c.num_ops())
    throw std::out_of_range("with_op_offset: op index");
  circuit::Circuit out(c.num_qubits());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    const auto& op = c.op(i);
    circuit::ParamRef p = op.param;
    if (i == op_index) {
      if (!circuit::gate_is_parameterised(op.kind))
        throw std::invalid_argument("with_op_offset: op not parameterised");
      p.value += delta;
    }
    out.add(op.kind, op.qubits, p);
  }
  return out;
}

}  // namespace qoc::train
