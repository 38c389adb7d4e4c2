#include "qoc/exec/compiled_circuit.hpp"

#include <bit>
#include <stdexcept>

#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/gates.hpp"

namespace qoc::exec {

using circuit::GateKind;
using circuit::ParamRef;
using linalg::cplx;
using linalg::kI;
using linalg::Matrix;

namespace {

bool is_diag_2q_kind(GateKind k) {
  return k == GateKind::Rzz || k == GateKind::Crz || k == GateKind::Cp;
}

/// 2x2 entries of an angle-dependent 1q gate, row-major. Mirrors the
/// exact arithmetic of sim::gate_rx/ry/rz/p so compiled execution stays
/// bit-identical to the Matrix-building path.
void rot1q_entries(GateKind kind, double angle, cplx out[4]) {
  switch (kind) {
    case GateKind::Rx: {
      const double c = std::cos(angle / 2.0);
      const double s = std::sin(angle / 2.0);
      out[0] = c;
      out[1] = -kI * s;
      out[2] = -kI * s;
      out[3] = c;
      return;
    }
    case GateKind::Ry: {
      const double c = std::cos(angle / 2.0);
      const double s = std::sin(angle / 2.0);
      out[0] = c;
      out[1] = -s;
      out[2] = s;
      out[3] = c;
      return;
    }
    case GateKind::Rz: {
      out[0] = std::exp(-kI * (angle / 2.0));
      out[1] = 0.0;
      out[2] = 0.0;
      out[3] = std::exp(kI * (angle / 2.0));
      return;
    }
    case GateKind::Phase: {
      out[0] = 1.0;
      out[1] = 0.0;
      out[2] = 0.0;
      out[3] = std::exp(kI * angle);
      return;
    }
    default:
      throw std::logic_error("rot1q_entries: not a 1q rotation");
  }
}

/// 4x4 entries of an angle-dependent 2q gate, row-major. Mirrors the
/// exact arithmetic of sim::two_qubit_rotation / sim::controlled on the
/// stack, so no heap Matrix is built per evaluation.
void rot2q_entries(GateKind kind, double angle, cplx out[16]) {
  switch (kind) {
    case GateKind::Rxx:
    case GateKind::Ryy:
    case GateKind::Rzz:
    case GateKind::Rzx: {
      // exp(-i angle/2 P) = cos(angle/2) I - i sin(angle/2) P. The Pauli
      // products have exact entries in {0, +-1, +-i}, so replaying
      // I*c - P*(i*s) entry-wise reproduces the Matrix path bit-for-bit.
      static constexpr cplx kZero{0.0, 0.0};
      static constexpr cplx kOne{1.0, 0.0};
      static constexpr cplx kMinusOne{-1.0, 0.0};
      const double c = std::cos(angle / 2.0);
      const double s = std::sin(angle / 2.0);
      const cplx cc{c, 0.0};
      const cplx is = kI * s;
      cplx p[16] = {};
      switch (kind) {
        case GateKind::Rzz:
          p[0] = kOne;
          p[5] = kMinusOne;
          p[10] = kMinusOne;
          p[15] = kOne;
          break;
        case GateKind::Rxx:
          p[3] = kOne;
          p[6] = kOne;
          p[9] = kOne;
          p[12] = kOne;
          break;
        case GateKind::Ryy:
          // kron(Y, Y): (-i)(-i) = -1, (-i)(i) = 1, (i)(-i) = 1,
          // (i)(i) = -1 -- all exact.
          p[3] = kMinusOne;
          p[6] = kOne;
          p[9] = kOne;
          p[12] = kMinusOne;
          break;
        default:  // Rzx: kron(Z, X)
          p[1] = kOne;
          p[4] = kOne;
          p[11] = kMinusOne;
          p[14] = kMinusOne;
          break;
      }
      for (int e = 0; e < 16; ++e) {
        const cplx ident = (e % 5 == 0) ? kOne : kZero;
        out[e] = ident * cc - p[e] * is;
      }
      return;
    }
    case GateKind::Crx:
    case GateKind::Cry:
    case GateKind::Crz:
    case GateKind::Cp: {
      GateKind base = GateKind::Rx;
      if (kind == GateKind::Cry) base = GateKind::Ry;
      if (kind == GateKind::Crz) base = GateKind::Rz;
      if (kind == GateKind::Cp) base = GateKind::Phase;
      cplx u[4];
      rot1q_entries(base, angle, u);
      for (int e = 0; e < 16; ++e) out[e] = cplx{0.0, 0.0};
      out[0] = 1.0;
      out[5] = 1.0;
      out[10] = u[0];
      out[11] = u[1];
      out[14] = u[2];
      out[15] = u[3];
      return;
    }
    default:
      throw std::logic_error("rot2q_entries: not a 2q rotation");
  }
}

/// Diagonal of an angle-dependent diagonal 2q gate (Rzz/Crz/Cp),
/// computing exactly the four entries the Matrix path would produce.
void rot2q_diag_entries(GateKind kind, double angle, cplx out[4]) {
  if (kind == GateKind::Rzz) {
    // diag(I*c - ZZ*(i s)) with ZZ diag = (1, -1, -1, 1).
    const double c = std::cos(angle / 2.0);
    const double s = std::sin(angle / 2.0);
    const cplx cc{c, 0.0};
    const cplx is = kI * s;
    out[0] = cc - is;
    out[1] = cc - cplx{-1.0, 0.0} * is;
    out[2] = out[1];
    out[3] = out[0];
    return;
  }
  // Controlled diagonal: identity block + the base rotation's diagonal.
  cplx u[4];
  rot1q_entries(kind == GateKind::Crz ? GateKind::Rz : GateKind::Phase, angle,
                u);
  out[0] = 1.0;
  out[1] = 1.0;
  out[2] = u[0];
  out[3] = u[3];
}

}  // namespace

std::uint64_t structure_hash(const circuit::Circuit& c) {
  // FNV-1a over the structural fields, allocation-free.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  mix(static_cast<std::uint64_t>(c.num_qubits()));
  mix(static_cast<std::uint64_t>(c.num_trainable()));
  mix(static_cast<std::uint64_t>(c.num_inputs()));
  for (const auto& op : c.ops()) {
    mix(static_cast<std::uint64_t>(op.kind));
    for (const int q : op.qubits) mix(static_cast<std::uint64_t>(q) + 1);
    mix(static_cast<std::uint64_t>(op.param.source));
    mix(static_cast<std::uint64_t>(op.param.index) + 1);
    mix(std::bit_cast<std::uint64_t>(op.param.scale));
    mix(std::bit_cast<std::uint64_t>(op.param.value));
  }
  return h;
}

bool structure_equal(const circuit::Circuit& a, const circuit::Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.num_ops() != b.num_ops() ||
      a.num_trainable() != b.num_trainable() ||
      a.num_inputs() != b.num_inputs())
    return false;
  for (std::size_t i = 0; i < a.num_ops(); ++i) {
    const auto& x = a.op(i);
    const auto& y = b.op(i);
    if (x.kind != y.kind || x.qubits != y.qubits ||
        x.param.source != y.param.source || x.param.index != y.param.index ||
        std::bit_cast<std::uint64_t>(x.param.scale) !=
            std::bit_cast<std::uint64_t>(y.param.scale) ||
        std::bit_cast<std::uint64_t>(x.param.value) !=
            std::bit_cast<std::uint64_t>(y.param.value))
      return false;
  }
  return true;
}

CompiledCircuit CompiledCircuit::compile(const circuit::Circuit& c) {
  CompiledCircuit plan;
  plan.source_ = c;
  plan.slot_of_src_op_.assign(c.num_ops(), -1);
  plan.hash_ = exec::structure_hash(c);

  // ---- Lower to the flat op stream ----------------------------------------
  auto cached_matrix = [&plan](GateKind kind) -> std::int32_t {
    for (std::size_t i = 0; i < plan.matrices_.size(); ++i) {
      // Fixed-gate matrices are keyed by kind via a parallel scan; the
      // cache is tiny (a handful of distinct fixed gates per circuit).
      if (plan.matrix_kinds_[i] == kind) return static_cast<std::int32_t>(i);
    }
    plan.matrices_.push_back(circuit::gate_matrix(kind));
    plan.matrix_kinds_.push_back(kind);
    return static_cast<std::int32_t>(plan.matrices_.size() - 1);
  };

  plan.ops_.reserve(c.num_ops());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    const auto& op = c.op(i);
    CompiledOp out;
    out.kind = op.kind;
    out.q0 = op.qubits.empty() ? -1 : op.qubits[0];
    out.q1 = op.qubits.size() > 1 ? op.qubits[1] : -1;

    if (circuit::gate_is_parameterised(op.kind)) {
      out.slot = static_cast<std::int32_t>(plan.slots_.size());
      plan.slot_of_src_op_[i] = out.slot;
      plan.slots_.push_back({op.param, static_cast<std::uint32_t>(i)});
      out.code =
          circuit::gate_arity(op.kind) == 1 ? OpCode::Rot1q : OpCode::Rot2q;
      plan.ops_.push_back(std::move(out));
      continue;
    }

    switch (op.kind) {
      case GateKind::I:
        continue;  // exact identity; elide
      case GateKind::X: out.code = OpCode::PauliX; break;
      case GateKind::Y: out.code = OpCode::PauliY; break;
      case GateKind::Z: out.code = OpCode::PauliZ; break;
      case GateKind::Cx: out.code = OpCode::Cx; break;
      case GateKind::Cz: out.code = OpCode::Cz; break;
      case GateKind::Swap: out.code = OpCode::Swap; break;
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
        out.code = OpCode::Diag1q;
        out.matrix = cached_matrix(op.kind);
        break;
      case GateKind::H:
      case GateKind::Sx:
        out.code = OpCode::Fixed1q;
        out.matrix = cached_matrix(op.kind);
        break;
      case GateKind::Ccx:
        out.code = OpCode::FixedK;
        out.matrix = cached_matrix(op.kind);
        out.qubits = op.qubits;
        break;
      default:
        // Any other fixed gate: cache its matrix, dispatch by arity.
        out.matrix = cached_matrix(op.kind);
        out.code = circuit::gate_arity(op.kind) == 1 ? OpCode::Fixed1q
                                                     : OpCode::Fixed2q;
        break;
    }
    plan.ops_.push_back(std::move(out));
  }
  return plan;
}

void CompiledCircuit::resolve_slots(std::span<const double> theta,
                                    std::span<const double> input,
                                    std::size_t shift_op, double shift,
                                    std::vector<double>& out) const {
  if (shift_op != Evaluation::kNoShift) {
    if (shift_op >= source_.num_ops())
      throw std::out_of_range("resolve_slots: shift op index");
    if (slot_of_src_op_[shift_op] < 0)
      throw std::invalid_argument("resolve_slots: shift op not parameterised");
  }
  out.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ParamRef ref = slots_[i].ref;
    if (slots_[i].src_op == shift_op) ref.value += shift;
    out[i] = circuit::resolve_angle(ref, theta, input);
  }
}

void CompiledCircuit::resolve_source_angles(std::span<const double> theta,
                                            std::span<const double> input,
                                            std::size_t shift_op, double shift,
                                            std::vector<double>& out) const {
  if (shift_op != Evaluation::kNoShift) {
    if (shift_op >= source_.num_ops())
      throw std::out_of_range("resolve_source_angles: shift op index");
    if (!circuit::gate_is_parameterised(source_.op(shift_op).kind))
      throw std::invalid_argument(
          "resolve_source_angles: shift op not parameterised");
  }
  out.resize(source_.num_ops());
  for (std::size_t i = 0; i < source_.num_ops(); ++i) {
    ParamRef ref = source_.op(i).param;
    if (i == shift_op) ref.value += shift;
    out[i] = circuit::resolve_angle(ref, theta, input);
  }
}

void CompiledCircuit::apply(sim::Statevector& sv,
                            std::span<const double> slot_angles) const {
  for (const auto& op : ops_) {
    switch (op.code) {
      case OpCode::PauliX:
        sv.apply_pauli_x(op.q0);
        break;
      case OpCode::PauliY:
        sv.apply_pauli_y(op.q0);
        break;
      case OpCode::PauliZ:
        sv.apply_pauli_z(op.q0);
        break;
      case OpCode::Cx:
        sv.apply_cx(op.q0, op.q1);
        break;
      case OpCode::Cz:
        sv.apply_cz(op.q0, op.q1);
        break;
      case OpCode::Swap:
        sv.apply_swap(op.q0, op.q1);
        break;
      case OpCode::Diag1q: {
        const Matrix& m = matrices_[static_cast<std::size_t>(op.matrix)];
        sv.apply_diag_1q(m(0, 0), m(1, 1), op.q0);
        break;
      }
      case OpCode::Fixed1q:
        sv.apply_1q(matrices_[static_cast<std::size_t>(op.matrix)], op.q0);
        break;
      case OpCode::Fixed2q:
        sv.apply_2q(matrices_[static_cast<std::size_t>(op.matrix)], op.q0,
                    op.q1);
        break;
      case OpCode::FixedK:
        sv.apply_matrix(matrices_[static_cast<std::size_t>(op.matrix)],
                        op.qubits);
        break;
      case OpCode::Rot1q: {
        const double angle = slot_angles[static_cast<std::size_t>(op.slot)];
        if (op.kind == GateKind::Rz || op.kind == GateKind::Phase) {
          cplx m[4];
          rot1q_entries(op.kind, angle, m);
          sv.apply_diag_1q(m[0], m[3], op.q0);
        } else {
          cplx m[4];
          rot1q_entries(op.kind, angle, m);
          sv.apply_1q(m, op.q0);
        }
        break;
      }
      case OpCode::Rot2q: {
        const double angle = slot_angles[static_cast<std::size_t>(op.slot)];
        if (is_diag_2q_kind(op.kind)) {
          cplx d[4];
          rot2q_diag_entries(op.kind, angle, d);
          sv.apply_diag_2q(d[0], d[1], d[2], d[3], op.q0, op.q1);
        } else {
          cplx m[16];
          rot2q_entries(op.kind, angle, m);
          sv.apply_2q(m, op.q0, op.q1);
        }
        break;
      }
    }
  }
}

void CompiledCircuit::resolve_slots_lanes(std::span<const Evaluation> evals,
                                          std::vector<double>& out) const {
  const std::size_t k = evals.size();
  for (const auto& e : evals) {
    if (e.shift_op != Evaluation::kNoShift) {
      if (e.shift_op >= source_.num_ops())
        throw std::out_of_range("resolve_slots_lanes: shift op index");
      if (slot_of_src_op_[e.shift_op] < 0)
        throw std::invalid_argument(
            "resolve_slots_lanes: shift op not parameterised");
    }
  }
  out.resize(slots_.size() * k);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    for (std::size_t l = 0; l < k; ++l) {
      const Evaluation& e = evals[l];
      ParamRef ref = slots_[i].ref;
      if (slots_[i].src_op == e.shift_op) ref.value += e.shift;
      out[i * k + l] = circuit::resolve_angle(ref, e.theta, e.input);
    }
  }
}

namespace {

/// Ops fusable into one diagonal pass: everything whose batched arm is a
/// per-lane complex *multiply* (PauliZ / Cz negate instead, so folding
/// them into a product chain would perturb signed zeros).
bool is_mult_diag_op(const CompiledOp& op) {
  switch (op.code) {
    case OpCode::Diag1q:
      return true;
    case OpCode::Rot1q:
      return op.kind == GateKind::Rz || op.kind == GateKind::Phase;
    case OpCode::Rot2q:
      return is_diag_2q_kind(op.kind);
    default:
      return false;
  }
}

// Ops the batched path lowers to a dense per-lane 2x2 (candidates for
// the fused pair passes; see BatchedStatevector::apply_1q_pair_run_lanes).
bool is_dense_1q_op(const CompiledOp& op) {
  switch (op.code) {
    case OpCode::Fixed1q:
      return true;
    case OpCode::Rot1q:
      return !(op.kind == GateKind::Rz || op.kind == GateKind::Phase);
    default:
      return false;
  }
}

}  // namespace

void CompiledCircuit::apply_batched(sim::BatchedStatevector& sv,
                                    std::span<const double> slot_angles) const {
  const std::size_t k = sv.lanes();
  // Entry-major per-lane scratch; 16 entries covers the dense 2q case.
  // buf2 holds the second matrix of a fused dense pair.
  std::vector<cplx> buf(16 * k);
  std::vector<cplx> buf2(4 * k);
  const auto angle_at = [&](std::int32_t slot, std::size_t lane) {
    return slot_angles[static_cast<std::size_t>(slot) * k + lane];
  };

  // Lower one dense 1q op (see is_dense_1q_op) to its entry-major
  // per-lane matrix. Entry construction is byte-for-byte the switch arms
  // below, so routing an op through the fused pair pass cannot perturb
  // its lane matrices.
  const auto build_dense_1q = [&](const CompiledOp& op, cplx* out) {
    switch (op.code) {
      case OpCode::Fixed1q: {
        const Matrix& m = matrices_[static_cast<std::size_t>(op.matrix)];
        for (std::size_t l = 0; l < k; ++l) {
          out[0 * k + l] = m(0, 0);
          out[1 * k + l] = m(0, 1);
          out[2 * k + l] = m(1, 0);
          out[3 * k + l] = m(1, 1);
        }
        break;
      }
      default: {  // Rot1q
        cplx m[4];
        for (std::size_t l = 0; l < k; ++l) {
          rot1q_entries(op.kind, angle_at(op.slot, l), m);
          for (int e = 0; e < 4; ++e)
            out[static_cast<std::size_t>(e) * k + l] = m[e];
        }
        break;
      }
    }
  };

  // Scratch for fused diagonal runs: entry buffers (4 entries x k per op)
  // plus the op descriptors handed to the kernel.
  std::vector<cplx> diag_buf;
  std::vector<sim::BatchedStatevector::DiagRunOp> diag_run;
  // Scratch for dense pair runs (8 entries x k per pair).
  std::vector<cplx> pair_buf;
  std::vector<sim::BatchedStatevector::Pair1qOp> pair_run;
  // Lower ops_[begin, end) -- all multiplicative diagonals -- into the
  // entry buffers one fused pass consumes. Entry construction per op is
  // byte-for-byte the switch arms below; only the number of sweeps over
  // the state changes.
  const auto build_diag_run = [&](std::size_t begin, std::size_t end) {
    const std::size_t len = end - begin;
    diag_buf.resize(len * 4 * k);
    diag_run.resize(len);
    for (std::size_t r = 0; r < len; ++r) {
      const CompiledOp& op = ops_[begin + r];
      cplx* d = diag_buf.data() + r * 4 * k;
      auto& out = diag_run[r];
      out.d = d;
      out.qubit_a = op.q0;
      out.qubit_b = -1;
      switch (op.code) {
        case OpCode::Diag1q: {
          const Matrix& m = matrices_[static_cast<std::size_t>(op.matrix)];
          std::fill_n(d, k, m(0, 0));
          std::fill_n(d + k, k, m(1, 1));
          break;
        }
        case OpCode::Rot1q: {
          cplx m[4];
          for (std::size_t l = 0; l < k; ++l) {
            rot1q_entries(op.kind, angle_at(op.slot, l), m);
            d[l] = m[0];
            d[k + l] = m[3];
          }
          break;
        }
        default: {  // Rot2q, diagonal kind
          out.qubit_b = op.q1;
          cplx e[4];
          for (std::size_t l = 0; l < k; ++l) {
            rot2q_diag_entries(op.kind, angle_at(op.slot, l), e);
            for (int j = 0; j < 4; ++j)
              d[static_cast<std::size_t>(j) * k + l] = e[j];
          }
          break;
        }
      }
    }
  };

  for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
    const auto& op = ops_[oi];
    if (is_mult_diag_op(op)) {
      std::size_t end = oi + 1;
      while (end < ops_.size() && is_mult_diag_op(ops_[end])) ++end;
      if (end - oi >= 2) {
        build_diag_run(oi, end);
        // When the run butts into a dense pair (an entangling ring
        // followed by the next rotation layer), fuse the run into the
        // pair's pass -- one sweep fewer per ring, bit-identical.
        if (end + 1 < ops_.size() && is_dense_1q_op(ops_[end]) &&
            is_dense_1q_op(ops_[end + 1]) && ops_[end].q0 != ops_[end + 1].q0) {
          build_dense_1q(ops_[end], buf.data());
          build_dense_1q(ops_[end + 1], buf2.data());
          sv.apply_diag_run_then_1q_pair_lanes(diag_run.data(), end - oi,
                                               buf.data(), ops_[end].q0,
                                               buf2.data(), ops_[end + 1].q0);
          oi = end + 1;
          continue;
        }
        sv.apply_diag_run_lanes(diag_run.data(), end - oi);
        oi = end - 1;
        continue;
      }
    }
    if (is_dense_1q_op(op) && oi + 1 < ops_.size()) {
      // Fuse adjacent dense 1q gates on distinct qubits into pair
      // passes (a rotation layer pairs up completely; the greedy
      // adjacent pairing is bit-identical to gate-at-a-time), and hand
      // the whole run of pairs to the tiled driver so the small-stride
      // tail of a layer is cache-blocked into one sweep. Wider
      // register-level fusion (16-row quad blocks) was measured
      // slower -- the block-local vector array spills and the
      // scattered 16-row gather cost more than the saved pass.
      std::size_t np = 0;
      std::size_t j = oi;
      while (j + 1 < ops_.size() && is_dense_1q_op(ops_[j]) &&
             is_dense_1q_op(ops_[j + 1]) && ops_[j + 1].q0 != ops_[j].q0) {
        ++np;
        j += 2;
      }
      if (np >= 1) {
        pair_buf.resize(np * 8 * k);
        pair_run.resize(np);
        for (std::size_t p = 0; p < np; ++p) {
          const auto& a = ops_[oi + 2 * p];
          const auto& b = ops_[oi + 2 * p + 1];
          cplx* ma = pair_buf.data() + p * 8 * k;
          cplx* mb = ma + 4 * k;
          build_dense_1q(a, ma);
          build_dense_1q(b, mb);
          pair_run[p] = {ma, a.q0, mb, b.q0};
        }
        sv.apply_1q_pair_run_lanes(pair_run.data(), np);
        oi += 2 * np - 1;
        continue;
      }
    }
    switch (op.code) {
      case OpCode::PauliX:
        sv.apply_pauli_x(op.q0);
        break;
      case OpCode::PauliY:
        sv.apply_pauli_y(op.q0);
        break;
      case OpCode::PauliZ:
        sv.apply_pauli_z(op.q0);
        break;
      case OpCode::Cx:
        sv.apply_cx(op.q0, op.q1);
        break;
      case OpCode::Cz:
        sv.apply_cz(op.q0, op.q1);
        break;
      case OpCode::Swap:
        sv.apply_swap(op.q0, op.q1);
        break;
      case OpCode::Diag1q: {
        const Matrix& m = matrices_[static_cast<std::size_t>(op.matrix)];
        sv.apply_diag_1q(m(0, 0), m(1, 1), op.q0);
        break;
      }
      case OpCode::Fixed1q:
        sv.apply_1q(matrices_[static_cast<std::size_t>(op.matrix)], op.q0);
        break;
      case OpCode::Fixed2q:
        sv.apply_2q(matrices_[static_cast<std::size_t>(op.matrix)], op.q0,
                    op.q1);
        break;
      case OpCode::FixedK:
        sv.apply_matrix(matrices_[static_cast<std::size_t>(op.matrix)],
                        op.qubits);
        break;
      case OpCode::Rot1q: {
        cplx m[4];
        if (op.kind == GateKind::Rz || op.kind == GateKind::Phase) {
          for (std::size_t l = 0; l < k; ++l) {
            rot1q_entries(op.kind, angle_at(op.slot, l), m);
            buf[l] = m[0];
            buf[k + l] = m[3];
          }
          sv.apply_diag_1q_lanes(buf.data(), op.q0);
        } else {
          build_dense_1q(op, buf.data());
          sv.apply_1q_lanes(buf.data(), op.q0);
        }
        break;
      }
      case OpCode::Rot2q: {
        if (is_diag_2q_kind(op.kind)) {
          cplx d[4];
          for (std::size_t l = 0; l < k; ++l) {
            rot2q_diag_entries(op.kind, angle_at(op.slot, l), d);
            for (int e = 0; e < 4; ++e) buf[static_cast<std::size_t>(e) * k + l] = d[e];
          }
          sv.apply_diag_2q_lanes(buf.data(), op.q0, op.q1);
        } else {
          cplx m[16];
          for (std::size_t l = 0; l < k; ++l) {
            rot2q_entries(op.kind, angle_at(op.slot, l), m);
            for (int e = 0; e < 16; ++e) buf[static_cast<std::size_t>(e) * k + l] = m[e];
          }
          sv.apply_2q_lanes(buf.data(), op.q0, op.q1);
        }
        break;
      }
    }
  }
}

std::vector<double> CompiledCircuit::expectations(
    std::span<const double> theta, std::span<const double> input,
    std::size_t shift_op, double shift) const {
  std::vector<double> angles;
  resolve_slots(theta, input, shift_op, shift, angles);
  sim::Statevector sv(num_qubits());
  apply(sv, angles);
  return sv.expectation_z_all();
}

}  // namespace qoc::exec
