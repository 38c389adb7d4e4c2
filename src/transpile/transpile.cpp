#include "qoc/transpile/transpile.hpp"

#include "qoc/transpile/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "qoc/sim/gates.hpp"

namespace qoc::transpile {

using circuit::GateKind;
using linalg::cplx;
using linalg::kPi;
using linalg::Matrix;

std::vector<BoundOp> bind_circuit(const circuit::Circuit& c,
                                  std::span<const double> theta,
                                  std::span<const double> input) {
  std::vector<BoundOp> out;
  out.reserve(c.num_ops());
  for (const auto& op : c.ops()) {
    out.push_back(BoundOp{op.kind, op.qubits,
                          circuit::resolve_angle(op.param, theta, input)});
  }
  return out;
}

EulerZYZ zyz_decompose(const Matrix& u) {
  if (u.rows() != 2 || u.cols() != 2)
    throw std::invalid_argument("zyz_decompose: matrix must be 2x2");
  // Normalise to SU(2): divide by sqrt(det).
  const cplx det = u(0, 0) * u(1, 1) - u(0, 1) * u(1, 0);
  const double det_abs = std::abs(det);
  if (det_abs < 1e-12)
    throw std::invalid_argument("zyz_decompose: singular matrix");
  const cplx sqrt_det = std::sqrt(det);
  const cplx a = u(0, 0) / sqrt_det;
  const cplx c = u(1, 0) / sqrt_det;

  EulerZYZ e;
  e.phase = std::arg(sqrt_det);
  const double ca = std::abs(a);
  const double cc = std::abs(c);
  e.theta = 2.0 * std::atan2(cc, ca);

  // a = e^{-i(phi+lambda)/2} cos(theta/2); c = e^{i(phi-lambda)/2} sin(..).
  if (cc < 1e-12) {
    // Diagonal: only phi + lambda is determined; put it all in lambda.
    e.phi = 0.0;
    e.lambda = -2.0 * std::arg(a);
  } else if (ca < 1e-12) {
    // Anti-diagonal: only phi - lambda is determined.
    e.phi = 2.0 * std::arg(c);
    e.lambda = 0.0;
  } else {
    const double arg_a = std::arg(a);
    const double arg_c = std::arg(c);
    e.phi = arg_c - arg_a;
    e.lambda = -arg_a - arg_c;
  }
  return e;
}

namespace {

// The zero test shared with merge_rz (see optimize.hpp).
bool angle_is_zero(double a) { return rz_angle_is_zero(a); }

void emit_rz(std::vector<BoundOp>& out, int q, double angle) {
  if (!angle_is_zero(angle)) out.push_back({GateKind::Rz, {q}, angle});
}

void emit_sx(std::vector<BoundOp>& out, int q) {
  out.push_back({GateKind::Sx, {q}, 0.0});
}

/// Emit RZ(lambda+pi) SX RZ(pi-theta) SX RZ(phi): the ZXZXZ realisation of
/// Rz(phi) Ry(theta) Rz(lambda), verified against gate matrices in tests.
void emit_zxzxz(std::vector<BoundOp>& out, int q, const EulerZYZ& e) {
  if (angle_is_zero(e.theta)) {
    // Pure Z rotation; a single virtual RZ.
    emit_rz(out, q, e.phi + e.lambda);
    return;
  }
  emit_rz(out, q, e.lambda + kPi);
  emit_sx(out, q);
  emit_rz(out, q, kPi - e.theta);
  emit_sx(out, q);
  emit_rz(out, q, e.phi);
}

/// H is fixed, so its decomposition is computed once per process. CZ,
/// RXX, RZX, CRX and the Toffoli network all lower through it.
void emit_h(std::vector<BoundOp>& out, int q) {
  static const EulerZYZ kH = zyz_decompose(circuit::gate_matrix(GateKind::H));
  emit_zxzxz(out, q, kH);
}

void lower_1q(std::vector<BoundOp>& out, GateKind kind, int q, double angle) {
  switch (kind) {
    case GateKind::I:
      return;
    case GateKind::H:
      emit_h(out, q);
      return;
    case GateKind::X:
      out.push_back({GateKind::X, {q}, 0.0});
      return;
    case GateKind::Sx:
      emit_sx(out, q);
      return;
    case GateKind::Rz:
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::Phase: {
      // All diagonal gates are virtual RZ up to global phase.
      switch (kind) {
        case GateKind::Z: angle = kPi; break;
        case GateKind::S: angle = kPi / 2.0; break;
        case GateKind::Sdg: angle = -kPi / 2.0; break;
        case GateKind::T: angle = kPi / 4.0; break;
        case GateKind::Tdg: angle = -kPi / 4.0; break;
        default: break;  // Rz / Phase keep the bound angle
      }
      emit_rz(out, q, angle);
      return;
    }
    default: {
      // Generic path: take the unitary, ZYZ-decompose, emit ZXZXZ.
      const Matrix u = circuit::gate_matrix(kind, angle);
      emit_zxzxz(out, q, zyz_decompose(u));
      return;
    }
  }
}

void emit_cx(std::vector<BoundOp>& out, int control, int target) {
  out.push_back({GateKind::Cx, {control, target}, 0.0});
}

/// CX a b ; RZ(angle) b ; CX a b == RZZ(angle) on (a, b).
void emit_rzz_core(std::vector<BoundOp>& out, int a, int b, double angle) {
  emit_cx(out, a, b);
  emit_rz(out, b, angle);
  emit_cx(out, a, b);
}

void lower_2q(std::vector<BoundOp>& out, GateKind kind, int a, int b,
              double angle) {
  switch (kind) {
    case GateKind::Cx:
      emit_cx(out, a, b);
      return;
    case GateKind::Cz:
      // CZ = (I x H) CX (I x H)
      emit_h(out, b);
      emit_cx(out, a, b);
      emit_h(out, b);
      return;
    case GateKind::Swap:
      emit_cx(out, a, b);
      emit_cx(out, b, a);
      emit_cx(out, a, b);
      return;
    case GateKind::Rzz:
      emit_rzz_core(out, a, b, angle);
      return;
    case GateKind::Rxx:
      // XX = (H x H) ZZ (H x H)
      emit_h(out, a);
      emit_h(out, b);
      emit_rzz_core(out, a, b, angle);
      emit_h(out, a);
      emit_h(out, b);
      return;
    case GateKind::Ryy:
      // YY = (S x S) XX (Sdg x Sdg), and conjugation is applied outside-in:
      // RYY(t) = (Sdg x Sdg)? -- emitted as Sdg, H sandwich; verified in
      // tests: RYY(t) = (S H x S H)? Use Rx basis change instead:
      // Y = Rx(pi/2) Z Rx(-pi/2)  =>  RYY = (Rx(pi/2) x Rx(pi/2)) RZZ (...)
      lower_1q(out, GateKind::Rx, a, kPi / 2.0);
      lower_1q(out, GateKind::Rx, b, kPi / 2.0);
      emit_rzz_core(out, a, b, angle);
      lower_1q(out, GateKind::Rx, a, -kPi / 2.0);
      lower_1q(out, GateKind::Rx, b, -kPi / 2.0);
      return;
    case GateKind::Rzx:
      // ZX = (I x H) ZZ (I x H)
      emit_h(out, b);
      emit_rzz_core(out, a, b, angle);
      emit_h(out, b);
      return;
    case GateKind::Crz:
      // CRZ(t) = RZ(t/2) target ; CX ; RZ(-t/2) target ; CX.
      emit_rz(out, b, angle / 2.0);
      emit_cx(out, a, b);
      emit_rz(out, b, -angle / 2.0);
      emit_cx(out, a, b);
      return;
    case GateKind::Crx:
      // CRX = (I x H) CRZ (I x H).
      emit_h(out, b);
      lower_2q(out, GateKind::Crz, a, b, angle);
      emit_h(out, b);
      return;
    case GateKind::Cry:
      // CRY(t) = RY(t/2) ; CX ; RY(-t/2) ; CX  (ABC decomposition).
      lower_1q(out, GateKind::Ry, b, angle / 2.0);
      emit_cx(out, a, b);
      lower_1q(out, GateKind::Ry, b, -angle / 2.0);
      emit_cx(out, a, b);
      return;
    case GateKind::Cp:
      // CP(l) = RZ(l/2) c ; RZ(l/2) t ; CX ; RZ(-l/2) t ; CX (up to phase).
      emit_rz(out, a, angle / 2.0);
      emit_rz(out, b, angle / 2.0);
      emit_cx(out, a, b);
      emit_rz(out, b, -angle / 2.0);
      emit_cx(out, a, b);
      return;
    default:
      throw std::logic_error("lower_2q: unhandled kind " +
                             circuit::gate_name(kind));
  }
}

/// Lowers one 1- or 2-qubit op onto the end of `out`.
void lower_op(std::vector<BoundOp>& out, GateKind kind,
              const std::vector<int>& qubits, double angle) {
  if (circuit::gate_arity(kind) == 1)
    lower_1q(out, kind, qubits[0], angle);
  else
    lower_2q(out, kind, qubits[0], qubits[1], angle);
}

}  // namespace

std::vector<BoundOp> decompose_multiqubit(const std::vector<BoundOp>& ops) {
  std::vector<BoundOp> out;
  out.reserve(ops.size());
  for (const auto& op : ops) {
    if (op.kind != GateKind::Ccx) {
      out.push_back(op);
      continue;
    }
    const int a = op.qubits[0];
    const int b = op.qubits[1];
    const int c = op.qubits[2];
    // Textbook Toffoli network (Nielsen & Chuang fig. 4.9).
    out.push_back({GateKind::H, {c}, 0.0});
    out.push_back({GateKind::Cx, {b, c}, 0.0});
    out.push_back({GateKind::Tdg, {c}, 0.0});
    out.push_back({GateKind::Cx, {a, c}, 0.0});
    out.push_back({GateKind::T, {c}, 0.0});
    out.push_back({GateKind::Cx, {b, c}, 0.0});
    out.push_back({GateKind::Tdg, {c}, 0.0});
    out.push_back({GateKind::Cx, {a, c}, 0.0});
    out.push_back({GateKind::T, {b}, 0.0});
    out.push_back({GateKind::T, {c}, 0.0});
    out.push_back({GateKind::H, {c}, 0.0});
    out.push_back({GateKind::Cx, {a, b}, 0.0});
    out.push_back({GateKind::T, {a}, 0.0});
    out.push_back({GateKind::Tdg, {b}, 0.0});
    out.push_back({GateKind::Cx, {a, b}, 0.0});
  }
  return out;
}

std::vector<BoundOp> lower_to_basis(const std::vector<BoundOp>& ops) {
  std::vector<BoundOp> out;
  out.reserve(ops.size() * 3);
  for (const auto& op : ops) lower_op(out, op.kind, op.qubits, op.angle);
  return out;
}

RoutingResult route(const std::vector<BoundOp>& ops, int n_logical,
                    const noise::DeviceModel& device) {
  if (n_logical > device.n_qubits)
    throw std::invalid_argument("route: circuit larger than device");

  // layout[l] = physical position of logical qubit l.
  std::vector<int> layout(n_logical);
  std::iota(layout.begin(), layout.end(), 0);

  RoutingResult result;
  result.ops.reserve(ops.size());

  // inverse map: phys2log[p] = logical qubit at physical p (-1 if free).
  std::vector<int> phys2log(device.n_qubits, -1);
  for (int l = 0; l < n_logical; ++l) phys2log[layout[l]] = l;

  auto swap_physical = [&](int pa, int pb) {
    result.ops.push_back({GateKind::Swap, {pa, pb}, 0.0});
    ++result.n_swaps_inserted;
    const int la = phys2log[pa];
    const int lb = phys2log[pb];
    phys2log[pa] = lb;
    phys2log[pb] = la;
    if (la >= 0) layout[la] = pb;
    if (lb >= 0) layout[lb] = pa;
  };

  for (const auto& op : ops) {
    if (circuit::gate_arity(op.kind) > 2)
      throw std::invalid_argument(
          "route: run decompose_multiqubit before routing");
    if (circuit::gate_arity(op.kind) == 1) {
      result.ops.push_back({op.kind, {layout[op.qubits[0]]}, op.angle});
      continue;
    }
    int pa = layout[op.qubits[0]];
    int pb = layout[op.qubits[1]];
    if (!device.connected(pa, pb)) {
      const auto path = device.shortest_path(pa, pb);
      if (path.empty())
        throw std::runtime_error("route: disconnected coupling map");
      // Walk qubit A along the path until adjacent to B.
      for (std::size_t i = 0; i + 2 < path.size(); ++i)
        swap_physical(path[i], path[i + 1]);
      pa = layout[op.qubits[0]];
      pb = layout[op.qubits[1]];
    }
    result.ops.push_back({op.kind, {pa, pb}, op.angle});
  }
  result.final_layout = std::move(layout);
  return result;
}

TranspileStats compute_stats(const std::vector<BoundOp>& ops, int n_qubits) {
  TranspileStats s;
  std::vector<std::size_t> frontier(static_cast<std::size_t>(n_qubits), 0);
  for (const auto& op : ops) {
    switch (op.kind) {
      case GateKind::Rz: ++s.n_rz; break;
      case GateKind::Sx: ++s.n_sx; break;
      case GateKind::X: ++s.n_x; break;
      case GateKind::Cx: ++s.n_cx; break;
      default: ++s.n_other; break;
    }
    // Depth ignores virtual RZ (zero duration on hardware).
    if (op.kind == GateKind::Rz) continue;
    std::size_t t = 0;
    for (int q : op.qubits) t = std::max(t, frontier[q]);
    ++t;
    for (int q : op.qubits) frontier[q] = t;
  }
  if (!frontier.empty())
    s.depth = *std::max_element(frontier.begin(), frontier.end());
  return s;
}

Transpiled transpile(const circuit::Circuit& c, std::span<const double> theta,
                     std::span<const double> input,
                     const noise::DeviceModel& device) {
  const auto bound = decompose_multiqubit(bind_circuit(c, theta, input));
  auto routed = route(bound, c.num_qubits(), device);
  Transpiled t;
  t.ops = optimize(lower_to_basis(routed.ops));
  t.final_layout = std::move(routed.final_layout);
  t.n_swaps_inserted = routed.n_swaps_inserted;
  return t;
}

RoutedTemplate route_template(const circuit::Circuit& c,
                              const noise::DeviceModel& device) {
  // Run the normal decompose + route pipeline with each parameterised
  // op's angle field carrying its source-op index instead of a bound
  // value. Neither pass creates parameterised ops or reads angles, so the
  // tags survive routing verbatim.
  std::vector<BoundOp> tagged;
  tagged.reserve(c.num_ops());
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    const auto& op = c.op(i);
    const double tag = circuit::gate_is_parameterised(op.kind)
                           ? static_cast<double>(i)
                           : 0.0;
    tagged.push_back(BoundOp{op.kind, op.qubits, tag});
  }
  auto routed = route(decompose_multiqubit(tagged), c.num_qubits(), device);

  RoutedTemplate t;
  t.ops.reserve(routed.ops.size());
  for (auto& op : routed.ops) {
    RoutedTemplate::TOp top;
    top.kind = op.kind;
    top.qubits = std::move(op.qubits);
    if (circuit::gate_is_parameterised(op.kind))
      top.src = static_cast<std::int32_t>(op.angle);
    t.ops.push_back(std::move(top));
  }
  t.final_layout = std::move(routed.final_layout);
  t.n_swaps_inserted = routed.n_swaps_inserted;
  t.n_logical = c.num_qubits();
  return t;
}

Transpiled transpile_with_angles(const RoutedTemplate& t,
                                 std::span<const double> source_angles) {
  // Lowers straight from the template: the same ops lower_to_basis
  // would emit for the bound stream, without building it.
  std::vector<BoundOp> lowered;
  lowered.reserve(t.ops.size() * 3);
  for (const auto& op : t.ops)
    lower_op(lowered, op.kind, op.qubits,
             op.src >= 0 ? source_angles[static_cast<std::size_t>(op.src)]
                         : 0.0);
  Transpiled out;
  out.ops = optimize(std::move(lowered));
  out.final_layout = t.final_layout;
  out.n_swaps_inserted = t.n_swaps_inserted;
  return out;
}

double estimated_success_probability(const Transpiled& t,
                                     const noise::DeviceModel& device) {
  const TranspileStats stats = compute_stats(t.ops, device.n_qubits);
  double p = 1.0;
  for (std::size_t i = 0; i < stats.physical_1q(); ++i)
    p *= 1.0 - device.err_1q;
  for (std::size_t i = 0; i < stats.n_cx; ++i) p *= 1.0 - device.err_2q;
  for (int l : t.final_layout) {
    const auto& cal = device.qubits[static_cast<std::size_t>(l)];
    p *= 1.0 - 0.5 * (cal.readout_err_0to1 + cal.readout_err_1to0);
  }
  return p;
}

double estimated_duration_s(const Transpiled& t,
                            const noise::DeviceModel& device) {
  const TranspileStats stats = compute_stats(t.ops, device.n_qubits);
  return static_cast<double>(stats.physical_1q()) * device.gate_time_1q_s +
         static_cast<double>(stats.n_cx) * device.gate_time_2q_s +
         device.readout_time_s;
}

}  // namespace qoc::transpile
