// Traced lower+optimize pipeline and the zero-angle-pattern cache.
//
// The builder below mirrors transpile.cpp's lower_1q / lower_2q /
// emit_zxzxz and optimize.cpp's merge_rz / cancel_cx operation-for-
// operation: every emitted angle additionally records its recipe (Atom),
// and every binding-dependent branch records an event. Replay
// (LoweredPlan::substitute) re-executes the recorded arithmetic in the
// recorded order, so a clean replay is bit-identical to a fresh run by
// construction -- and any decision that resolves differently aborts the
// replay. Divergence between this file and the untraced pipeline is a
// bug; tests/test_transpile.cpp asserts bitwise equality against
// transpile() across random circuits, bindings and zero patterns.

#include "qoc/transpile/lowered_cache.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "qoc/obs/metrics.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/transpile/optimize.hpp"

namespace qoc::transpile {

using circuit::GateKind;
using linalg::kPi;

namespace {

constexpr std::size_t kPatternCacheCap = 64;

/// The recorded decisions replay the same canonical predicate the
/// lowering and merge passes use (optimize.hpp).
bool angle_is_zero(double a) { return rz_angle_is_zero(a); }

enum ZSlot : std::uint8_t {
  kZTheta = 0,        // e.theta (decision only)
  kZLambdaPlusPi,     // e.lambda + pi
  kZPiMinusTheta,     // pi - e.theta
  kZPhi,              // e.phi
  kZPhiPlusLambda,    // e.phi + e.lambda (degenerate single-RZ branch)
};

double zyz_slot_value(const EulerZYZ& e, std::uint8_t slot) {
  switch (slot) {
    case kZTheta: return e.theta;
    case kZLambdaPlusPi: return e.lambda + kPi;
    case kZPiMinusTheta: return kPi - e.theta;
    case kZPhi: return e.phi;
    default: return e.phi + e.lambda;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace builder
// ---------------------------------------------------------------------------

struct LoweredPlanBuilder {
  using Atom = LoweredPlan::Atom;
  using Event = LoweredPlan::Event;

  /// Working op during lowering/optimization; `id` indexes plan.atoms_
  /// (-1 for angle-free ops).
  struct WOp {
    GateKind kind = GateKind::I;
    std::vector<int> qubits;
    double angle = 0.0;
    std::int32_t id = -1;
  };

  LoweredPlan& plan;
  std::vector<WOp> stream;

  explicit LoweredPlanBuilder(LoweredPlan& p) : plan(p) {}

  std::int32_t new_id(Atom atom) {
    plan.atoms_.push_back(atom);
    return static_cast<std::int32_t>(plan.atoms_.size() - 1);
  }

  static Atom const_atom(double v) {
    Atom a;
    a.kind = Atom::Kind::Const;
    a.value = v;
    return a;
  }

  static Atom affine_atom(std::int32_t src, double scale) {
    Atom a;
    a.kind = Atom::Kind::Affine;
    a.src = src;
    a.scale = scale;
    return a;
  }

  static Atom zyz_atom(std::int32_t zyz, std::uint8_t slot) {
    Atom a;
    a.kind = Atom::Kind::Zyz;
    a.zyz = zyz;
    a.slot = slot;
    return a;
  }

  void record_test(std::int32_t id, bool expected) {
    Event ev;
    ev.kind = Event::Kind::ZeroTest;
    ev.dst = id;
    ev.expected = expected;
    plan.events_.push_back(ev);
  }

  void record_merge(std::int32_t dst, std::int32_t src) {
    Event ev;
    ev.kind = Event::Kind::MergeAdd;
    ev.dst = dst;
    ev.src = src;
    plan.events_.push_back(ev);
  }

  // ---- Lowering (mirrors transpile.cpp) -----------------------------------

  void push_op(GateKind kind, std::vector<int> qubits, double angle = 0.0,
               std::int32_t id = -1) {
    WOp op;
    op.kind = kind;
    op.qubits = std::move(qubits);
    op.angle = angle;
    op.id = id;
    stream.push_back(std::move(op));
  }

  void emit_rz(int q, double value, Atom atom) {
    const std::int32_t id = new_id(atom);
    const bool zero = angle_is_zero(value);
    record_test(id, zero);
    if (!zero) push_op(GateKind::Rz, {q}, value, id);
  }

  void emit_sx(int q) { push_op(GateKind::Sx, {q}); }

  void emit_cx(int a, int b) { push_op(GateKind::Cx, {a, b}); }

  void emit_zxzxz(int q, const EulerZYZ& e, std::int32_t zyz) {
    auto slot_atom = [&](std::uint8_t slot) {
      return zyz >= 0 ? zyz_atom(zyz, slot)
                      : const_atom(zyz_slot_value(e, slot));
    };
    const bool theta_zero = angle_is_zero(e.theta);
    record_test(new_id(slot_atom(kZTheta)), theta_zero);
    if (theta_zero) {
      emit_rz(q, e.phi + e.lambda, slot_atom(kZPhiPlusLambda));
      return;
    }
    emit_rz(q, e.lambda + kPi, slot_atom(kZLambdaPlusPi));
    emit_sx(q);
    emit_rz(q, kPi - e.theta, slot_atom(kZPiMinusTheta));
    emit_sx(q);
    emit_rz(q, e.phi, slot_atom(kZPhi));
  }

  /// `src` / `scale`: how `angle` derives from the source binding
  /// (src < 0: constant for every binding).
  void lower_1q(GateKind kind, int q, double angle, std::int32_t src,
                double scale) {
    switch (kind) {
      case GateKind::I:
        return;
      case GateKind::X:
        push_op(GateKind::X, {q});
        return;
      case GateKind::Sx:
        emit_sx(q);
        return;
      case GateKind::Rz:
      case GateKind::Z:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::Phase: {
        double a = angle;
        Atom atom = src >= 0 ? affine_atom(src, scale) : const_atom(angle);
        switch (kind) {
          case GateKind::Z: a = kPi; atom = const_atom(a); break;
          case GateKind::S: a = kPi / 2.0; atom = const_atom(a); break;
          case GateKind::Sdg: a = -kPi / 2.0; atom = const_atom(a); break;
          case GateKind::T: a = kPi / 4.0; atom = const_atom(a); break;
          case GateKind::Tdg: a = -kPi / 4.0; atom = const_atom(a); break;
          default: break;  // Rz / Phase keep the bound angle
        }
        emit_rz(q, a, atom);
        return;
      }
      default: {
        // Generic path: ZYZ-decompose the unitary, emit ZXZXZ. For
        // binding-dependent gates (Rx/Ry families) the decomposition is
        // re-run per binding from a ZyzSpec; fixed gates (H, Y) trace
        // to constants, hoisting their decomposition out of the
        // per-evaluation path entirely.
        const linalg::Matrix u = circuit::gate_matrix(kind, angle);
        const EulerZYZ e = zyz_decompose(u);
        std::int32_t zyz = -1;
        if (src >= 0) {
          LoweredPlan::ZyzSpec spec;
          spec.src = src;
          spec.scale = scale;
          spec.kind = kind;
          plan.zyzs_.push_back(spec);
          zyz = static_cast<std::int32_t>(plan.zyzs_.size() - 1);
        }
        emit_zxzxz(q, e, zyz);
        return;
      }
    }
  }

  void emit_h(int q) { lower_1q(GateKind::H, q, 0.0, -1, 1.0); }

  void emit_rzz_core(int a, int b, double angle, std::int32_t src,
                     double scale) {
    emit_cx(a, b);
    emit_rz(b, angle, src >= 0 ? affine_atom(src, scale) : const_atom(angle));
    emit_cx(a, b);
  }

  void lower_2q(GateKind kind, int a, int b, double angle, std::int32_t src) {
    switch (kind) {
      case GateKind::Cx:
        emit_cx(a, b);
        return;
      case GateKind::Cz:
        emit_h(b);
        emit_cx(a, b);
        emit_h(b);
        return;
      case GateKind::Swap:
        emit_cx(a, b);
        emit_cx(b, a);
        emit_cx(a, b);
        return;
      case GateKind::Rzz:
        emit_rzz_core(a, b, angle, src, 1.0);
        return;
      case GateKind::Rxx:
        emit_h(a);
        emit_h(b);
        emit_rzz_core(a, b, angle, src, 1.0);
        emit_h(a);
        emit_h(b);
        return;
      case GateKind::Ryy:
        lower_1q(GateKind::Rx, a, kPi / 2.0, -1, 1.0);
        lower_1q(GateKind::Rx, b, kPi / 2.0, -1, 1.0);
        emit_rzz_core(a, b, angle, src, 1.0);
        lower_1q(GateKind::Rx, a, -kPi / 2.0, -1, 1.0);
        lower_1q(GateKind::Rx, b, -kPi / 2.0, -1, 1.0);
        return;
      case GateKind::Rzx:
        emit_h(b);
        emit_rzz_core(a, b, angle, src, 1.0);
        emit_h(b);
        return;
      case GateKind::Crz:
        emit_rz(b, angle / 2.0,
                src >= 0 ? affine_atom(src, 0.5) : const_atom(angle / 2.0));
        emit_cx(a, b);
        emit_rz(b, -angle / 2.0,
                src >= 0 ? affine_atom(src, -0.5)
                         : const_atom(-angle / 2.0));
        emit_cx(a, b);
        return;
      case GateKind::Crx:
        emit_h(b);
        lower_2q(GateKind::Crz, a, b, angle, src);
        emit_h(b);
        return;
      case GateKind::Cry:
        lower_1q(GateKind::Ry, b, angle / 2.0, src, 0.5);
        emit_cx(a, b);
        lower_1q(GateKind::Ry, b, -angle / 2.0, src, -0.5);
        emit_cx(a, b);
        return;
      case GateKind::Cp:
        emit_rz(a, angle / 2.0,
                src >= 0 ? affine_atom(src, 0.5) : const_atom(angle / 2.0));
        emit_rz(b, angle / 2.0,
                src >= 0 ? affine_atom(src, 0.5) : const_atom(angle / 2.0));
        emit_cx(a, b);
        emit_rz(b, -angle / 2.0,
                src >= 0 ? affine_atom(src, -0.5)
                         : const_atom(-angle / 2.0));
        emit_cx(a, b);
        return;
      default:
        throw std::logic_error("LoweredPlanBuilder: unhandled 2q kind " +
                               circuit::gate_name(kind));
    }
  }

  // ---- Optimization (mirrors optimize.cpp) --------------------------------

  void merge_rz_pass() {
    std::vector<WOp> out;
    out.reserve(stream.size());
    for (auto& op : stream) {
      if (op.kind == GateKind::Rz && !out.empty()) {
        const int q = op.qubits[0];
        bool merged = false;
        for (auto it = out.rbegin(); it != out.rend(); ++it) {
          bool touches = false;
          for (const int oq : it->qubits)
            if (oq == q) touches = true;
          if (!touches) continue;
          if (it->kind == GateKind::Rz) {
            it->angle += op.angle;
            record_merge(it->id, op.id);
            merged = true;
          }
          break;
        }
        if (merged) continue;
      }
      out.push_back(std::move(op));
    }
    std::vector<WOp> cleaned;
    cleaned.reserve(out.size());
    for (auto& op : out) {
      if (op.kind == GateKind::Rz) {
        const bool zero = angle_is_zero(op.angle);
        record_test(op.id, zero);
        if (zero) continue;
      }
      cleaned.push_back(std::move(op));
    }
    stream = std::move(cleaned);
  }

  void cancel_cx_pass() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].kind != GateKind::Cx) continue;
        const int control = stream[i].qubits[0];
        const int target = stream[i].qubits[1];
        for (std::size_t j = i + 1; j < stream.size(); ++j) {
          const auto& next = stream[j];
          if (next.kind == GateKind::Cx && next.qubits[0] == control &&
              next.qubits[1] == target) {
            stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(j));
            stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(i));
            changed = true;
            break;
          }
          if (next.kind == GateKind::Rz && next.qubits[0] == control)
            continue;
          bool blocks = false;
          for (const int q : next.qubits)
            if (q == control || q == target) blocks = true;
          if (blocks) break;
        }
        if (changed) break;
      }
    }
  }

  void optimize() {
    for (;;) {
      const std::size_t before = stream.size();
      merge_rz_pass();
      cancel_cx_pass();
      if (stream.size() >= before) return;
    }
  }
};

// ---------------------------------------------------------------------------
// LoweredPlan
// ---------------------------------------------------------------------------

LoweredPlan::LoweredPlan(const RoutedTemplate& t,
                         std::span<const double> source_angles,
                         int n_qubits,
                         std::vector<BoundOp>* bound_out) {
  LoweredPlanBuilder b(*this);
  for (const auto& op : t.ops) {
    const double angle =
        op.src >= 0 ? source_angles[static_cast<std::size_t>(op.src)] : 0.0;
    if (circuit::gate_arity(op.kind) == 1)
      b.lower_1q(op.kind, op.qubits[0], angle, op.src, 1.0);
    else
      b.lower_2q(op.kind, op.qubits[0], op.qubits[1], angle, op.src);
  }
  b.optimize();

  ops_.reserve(b.stream.size());
  std::vector<BoundOp> bound;
  bound.reserve(b.stream.size());
  for (auto& op : b.stream) {
    bound.push_back(BoundOp{op.kind, op.qubits, op.angle});
    TOp top;
    top.kind = op.kind;
    top.qubits = std::move(op.qubits);
    top.id = op.id;
    ops_.push_back(std::move(top));
  }
  stats_ = compute_stats(bound, n_qubits);
  // The stream just built IS this binding's result; hand it to the
  // caller so a cache miss does not pay a redundant replay.
  if (bound_out != nullptr) *bound_out = std::move(bound);
}

bool LoweredPlan::substitute(std::span<const double> source_angles,
                             std::vector<BoundOp>& out) const {
  // Re-run the recorded ZYZ decompositions for this binding (one per
  // parameterised Rx/Ry-family gate instance; the fixed-gate
  // decompositions traced to constants and cost nothing here).
  std::vector<EulerZYZ> es(zyzs_.size());
  for (std::size_t i = 0; i < zyzs_.size(); ++i) {
    const auto& z = zyzs_[i];
    const double in =
        z.scale * source_angles[static_cast<std::size_t>(z.src)];
    es[i] = zyz_decompose(circuit::gate_matrix(z.kind, in));
  }

  std::vector<double> vals(atoms_.size());
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    const Atom& a = atoms_[i];
    switch (a.kind) {
      case Atom::Kind::Const:
        vals[i] = a.value;
        break;
      case Atom::Kind::Affine:
        vals[i] = a.scale * source_angles[static_cast<std::size_t>(a.src)];
        break;
      case Atom::Kind::Zyz:
        vals[i] = zyz_slot_value(es[static_cast<std::size_t>(a.zyz)], a.slot);
        break;
    }
  }

  for (const Event& ev : events_) {
    if (ev.kind == Event::Kind::MergeAdd) {
      vals[static_cast<std::size_t>(ev.dst)] +=
          vals[static_cast<std::size_t>(ev.src)];
    } else if (angle_is_zero(vals[static_cast<std::size_t>(ev.dst)]) !=
               ev.expected) {
      return false;  // structure decision flipped: caller re-traces
    }
  }

  out.clear();
  out.reserve(ops_.size());
  for (const TOp& top : ops_)
    out.push_back(BoundOp{
        top.kind, top.qubits,
        top.id >= 0 ? vals[static_cast<std::size_t>(top.id)] : 0.0});
  return true;
}

// ---------------------------------------------------------------------------
// RoutedProgram
// ---------------------------------------------------------------------------

Transpiled RoutedProgram::transpile(
    std::span<const double> source_angles) const {
  // Packed zero-angle bitmask of the binding: the cache key. Angle-free
  // source ops resolve to 0.0 and contribute a constant bit.
  std::string key((source_angles.size() + 7) / 8, '\0');
  for (std::size_t i = 0; i < source_angles.size(); ++i)
    if (angle_is_zero(source_angles[i]))
      key[i / 8] = static_cast<char>(key[i / 8] | (1 << (i % 8)));

  std::shared_ptr<const LoweredPlan> plan;
  {
    const common::MutexLock lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) plan = it->second;
  }

  Transpiled out;
  out.final_layout = tmpl_.final_layout;
  out.n_swaps_inserted = tmpl_.n_swaps_inserted;
  if (plan != nullptr && plan->substitute(source_angles, out.ops)) {
    QOC_METRIC_COUNTER_ADD("qoc_pattern_cache_hits_total", 1);
    out.stats = plan->stats();
    return out;
  }
  // Plain miss and replay-failed decision flip both count as misses:
  // either way this binding pays a fresh lowering trace.
  QOC_METRIC_COUNTER_ADD("qoc_pattern_cache_misses_total", 1);

  // Miss, or a decision flipped within the pattern (e.g. merged
  // rotations cancelling for this binding only): trace fresh, taking
  // the bound stream straight from the trace. Insert-or-overwrite: a
  // cached plan that failed replay was traced from a structurally
  // atypical binding (the flip case above), and keeping it would make
  // every future evaluation of this pattern pay failed replay + fresh
  // trace forever.
  auto fresh = std::make_shared<const LoweredPlan>(
      tmpl_, source_angles, n_qubits_, &out.ops);
  out.stats = fresh->stats();
  {
    const common::MutexLock lock(mutex_);
    if (cache_.size() >= kPatternCacheCap) cache_.clear();
    cache_[std::move(key)] = std::move(fresh);
  }
  return out;
}

std::size_t RoutedProgram::cached_patterns() const {
  const common::MutexLock lock(mutex_);
  return cache_.size();
}

}  // namespace qoc::transpile
