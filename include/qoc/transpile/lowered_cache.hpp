#pragma once
// Zero-angle-pattern cache for lowered+optimized op streams.
//
// transpile_with_angles() re-runs lower_to_basis + optimize for every
// binding of a routed template, although the *structure* of the result
// (which ops exist, which RZ rotations survive, which CX pairs cancel)
// almost always depends on the binding only through which source angles
// are zero (mod 2pi) -- the exact pattern gradient pruning produces when
// it freezes parameters at 0. RoutedProgram therefore caches, per
// zero-angle pattern, a LoweredPlan: the final optimized op stream plus
// a *replayable trace* of how it was derived --
//
//   * one recipe ("atom") per emitted angle: a constant, an affine
//     function scale * source_angle, or a slot of the ZYZ decomposition
//     of one source rotation, and
//   * the ordered event log of the optimize passes: every RZ-merge
//     accumulation and every angle-is-zero structure decision, with the
//     decision's outcome at trace time.
//
// Binding a cached plan replays the log with the new angle values. The
// replay performs the identical IEEE arithmetic in the identical order
// as a fresh lower+optimize run, so if every recorded decision resolves
// the same way the substituted stream is bit-identical to the fresh
// one -- and if ANY decision flips (e.g. two merged rotations cancel for
// this binding only), the replay reports a mismatch and the caller
// falls back to a fresh trace. A served stream is therefore always
// bitwise equal to what the uncached pipeline would have produced,
// regardless of which binding populated the cache (asserted against
// transpile() in tests/test_transpile.cpp).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "qoc/common/mutex.hpp"
#include "qoc/common/thread_annotations.hpp"
#include "qoc/transpile/transpile.hpp"

namespace qoc::transpile {

/// The traced result of lower_to_basis + optimize for one binding of a
/// routed template. Immutable after construction; replay is const and
/// thread-safe.
class LoweredPlan {
 public:
  /// Run the traced pipeline for `source_angles` over the template.
  /// `bound_out`, when non-null, receives the final bound op stream of
  /// this binding (what substitute() would reproduce), sparing a miss
  /// the redundant replay.
  LoweredPlan(const RoutedTemplate& t, std::span<const double> source_angles,
              int n_qubits, std::vector<BoundOp>* bound_out = nullptr);

  /// Re-bind the traced stream with new angle values. Returns false (and
  /// leaves `out` unspecified) if any recorded structure decision
  /// resolves differently for these angles; on true, `out` is the exact
  /// stream a fresh lower+optimize would produce.
  bool substitute(std::span<const double> source_angles,
                  std::vector<BoundOp>& out) const;

  const TranspileStats& stats() const { return stats_; }

 private:
  /// One derived-angle recipe.
  struct Atom {
    enum class Kind : std::uint8_t { Const, Affine, Zyz };
    Kind kind = Kind::Const;
    double value = 0.0;      // Const
    std::int32_t src = -1;   // Affine: source-op index
    double scale = 1.0;      // Affine: angle = scale * source_angle
    std::int32_t zyz = -1;   // Zyz: index into zyzs_
    std::uint8_t slot = 0;   // Zyz: ZSlot
  };

  /// One ZYZ decomposition shared by a gate instance's emitted angles.
  struct ZyzSpec {
    std::int32_t src = -1;
    double scale = 1.0;
    circuit::GateKind kind = circuit::GateKind::I;
  };

  /// Optimize-pass event, in execution order.
  struct Event {
    enum class Kind : std::uint8_t { MergeAdd, ZeroTest };
    Kind kind = Kind::ZeroTest;
    std::int32_t dst = -1;  // angle id
    std::int32_t src = -1;  // MergeAdd: angle id accumulated into dst
    bool expected = false;  // ZeroTest: outcome at trace time
  };

  /// Final-stream op; `id` indexes the replay value table (-1: angle 0).
  struct TOp {
    circuit::GateKind kind = circuit::GateKind::I;
    std::vector<int> qubits;
    std::int32_t id = -1;
  };

  friend struct LoweredPlanBuilder;

  std::vector<TOp> ops_;
  std::vector<Atom> atoms_;    // angle id -> primary recipe
  std::vector<ZyzSpec> zyzs_;
  std::vector<Event> events_;
  TranspileStats stats_;
};

/// A routed template plus its per-zero-pattern lowered-stream cache:
/// the unit TranspileCache stores per circuit structure. `n_qubits` is
/// the size of the register the template's qubit indices address: the
/// device's, or the active qubits TranspileCache relabels it onto.
class RoutedProgram {
 public:
  RoutedProgram(RoutedTemplate tmpl, int n_qubits)
      : tmpl_(std::move(tmpl)), n_qubits_(n_qubits) {}

  const RoutedTemplate& tmpl() const { return tmpl_; }

  /// Finish the pipeline for one binding, reusing the cached lowered
  /// stream for this binding's zero-angle pattern when its trace
  /// replays cleanly. Bit-identical to transpile_with_angles() on the
  /// same template and binding. Thread-safe.
  Transpiled transpile(std::span<const double> source_angles) const
      QOC_EXCLUDES(mutex_);

  /// Cached zero-angle patterns (test/diagnostic hook).
  std::size_t cached_patterns() const QOC_EXCLUDES(mutex_);

 private:
  RoutedTemplate tmpl_;
  int n_qubits_ = 0;
  mutable common::Mutex mutex_;
  /// Keyed by the packed zero-angle bitmask of the source angles;
  /// cleared wholesale at a fixed cap (unbounded pattern families, e.g.
  /// randomized structured sparsity, cannot leak).
  mutable std::unordered_map<std::string,
                             std::shared_ptr<const LoweredPlan>>
      cache_ QOC_GUARDED_BY(mutex_);
};

}  // namespace qoc::transpile
