#pragma once
// Compiled execution plans: bind once, run many.
//
// Every high-frequency consumer of a circuit -- param-shift Jacobians,
// masked batch gradients, noisy-device inference -- executes the SAME
// circuit structure over and over with different parameter bindings. The
// generic path re-resolves every ParamRef, re-allocates every gate matrix
// and re-dispatches through the dense apply_matrix kernel on each run.
//
// CompiledCircuit lowers a circuit::Circuit ONCE into a flat op stream:
//   * every fixed gate's matrix is built a single time and cached
//     (dense, or as diagonal entries for the Z/S/T family),
//   * structured gates (CX, CZ, SWAP, Paulis, diagonals) dispatch to the
//     specialized sim::Statevector kernels instead of the dense path,
//   * every angle-bearing gate gets a *parameter slot* whose value is
//     resolved from (theta, input) in one pass per evaluation.
//
// Executing a plan in exact mode is bit-identical to the uncompiled path:
// the specialized kernels perform the same arithmetic with known-zero
// terms dropped, which can only change the sign of zeros (invisible to
// probabilities and expectation values).
//
// A plan is one lowering of one source circuit, so its identity is the
// source's structure: every per-structure cache (Backend::plan_cached,
// the transpiling backends' routed templates, the serve registry)
// probes with structure_hash and confirms each hit with
// structure_equal, so an entry is reused exactly when the circuit
// structure is unchanged.

#include <cstdint>
#include <span>
#include <vector>

#include "qoc/circuit/circuit.hpp"
#include "qoc/linalg/matrix.hpp"
#include "qoc/sim/statevector.hpp"

namespace qoc::sim {
class BatchedStatevector;
}

namespace qoc::exec {

/// Kernel selector for one op of the flat stream.
enum class OpCode : std::uint8_t {
  PauliX,   // specialized Pauli kernels
  PauliY,
  PauliZ,
  Cx,       // permutation kernels
  Cz,
  Swap,
  Diag1q,   // cached diagonal 2x2 (Z/S/Sdg/T/Tdg)
  Fixed1q,  // cached dense 2x2 (H, SX)
  Fixed2q,  // cached dense 4x4
  FixedK,   // cached 2^k x 2^k, k >= 3 (CCX)
  Rot1q,    // angle-dependent 1q gate, built per evaluation from a slot
  Rot2q,    // angle-dependent 2q gate
};

struct CompiledOp {
  OpCode code;
  circuit::GateKind kind = circuit::GateKind::I;
  std::int32_t q0 = -1;      // first operand
  std::int32_t q1 = -1;      // second operand (2q ops)
  std::int32_t slot = -1;    // angle slot (Rot1q / Rot2q)
  std::int32_t matrix = -1;  // index into the fixed-matrix cache
  std::vector<int> qubits;   // operand list for FixedK only
};

/// How one angle slot resolves at bind time.
struct AngleSlot {
  circuit::ParamRef ref;
  std::uint32_t src_op = 0;  // index of the op in the source circuit
};

/// One circuit execution request for Backend::run_batch. `shift_op`
/// optionally offsets the angle of a single source-circuit op by `shift`
/// (the +-pi/2 of the parameter-shift rule) without rebuilding anything.
///
/// `rng_stream` is the stream id a *stochastic* backend draws this
/// evaluation from, through backend::stream_prng(seed, id). The default
/// (kAutoStream) takes the evaluation's serial instead: the backend
/// reserves one serial per evaluation of each batch from its counter,
/// in submission order, so a fresh backend's k-th auto evaluation draws
/// exactly what an evaluation pinned to stream k draws. An explicit
/// stream makes the evaluation's random draws a pure function of
/// (backend seed, stream id) -- independent of batch composition and
/// position -- which is what lets the qoc::serve coalescer regroup jobs
/// from many clients into arbitrary batches without changing any job's
/// outcome. Exact backends ignore it. Callers that mix explicit streams
/// with auto evaluations against the same backend should draw explicit
/// ids from a space disjoint from small integers (serve sets the top
/// bit) so they cannot collide with the backend's serials.
struct Evaluation {
  static constexpr std::size_t kNoShift = static_cast<std::size_t>(-1);
  static constexpr std::uint64_t kAutoStream = static_cast<std::uint64_t>(-1);

  std::span<const double> theta;
  std::span<const double> input;
  std::size_t shift_op = kNoShift;
  double shift = 0.0;
  std::uint64_t rng_stream = kAutoStream;
};

/// Streaming hash of a circuit's structural identity -- gate kinds,
/// operand qubits and full parameter bindings -- with no allocation, so
/// caches can probe without compiling. Equal structures hash equally;
/// collisions must be resolved with structure_equal.
std::uint64_t structure_hash(const circuit::Circuit& c);

/// Exact structural equality (field-wise; doubles compared bitwise).
/// Two structurally equal circuits execute identically for every
/// (theta, input).
bool structure_equal(const circuit::Circuit& a, const circuit::Circuit& b);

class CompiledCircuit {
 public:
  /// Lower `c` into a plan. The circuit is copied into the plan, so the
  /// plan owns everything it needs for its lifetime.
  static CompiledCircuit compile(const circuit::Circuit& c);

  int num_qubits() const { return source_.num_qubits(); }
  int num_trainable() const { return source_.num_trainable(); }
  int num_inputs() const { return source_.num_inputs(); }
  const circuit::Circuit& source() const { return source_; }

  const std::vector<CompiledOp>& ops() const { return ops_; }
  std::size_t num_slots() const { return slots_.size(); }
  const std::vector<AngleSlot>& slots() const { return slots_; }

  /// exec::structure_hash of source(), computed once at compile time.
  std::uint64_t structure_hash() const { return hash_; }

  /// Resolve every angle slot against (theta, input); `out` is resized to
  /// num_slots(). A shift on source op `shift_op` is folded into the
  /// affected slot exactly as train::with_op_offset would (delta added to
  /// the ParamRef offset before resolution, so results are bit-identical).
  void resolve_slots(std::span<const double> theta,
                     std::span<const double> input, std::size_t shift_op,
                     double shift, std::vector<double>& out) const;

  /// Resolve the angle of every *source* op (0.0 for angle-free ops);
  /// matches transpile::bind_circuit bit-for-bit. Used by transpiling
  /// backends together with transpile::RoutedTemplate.
  void resolve_source_angles(std::span<const double> theta,
                             std::span<const double> input,
                             std::size_t shift_op, double shift,
                             std::vector<double>& out) const;

  /// Execute the op stream against `sv` using slot angles from
  /// resolve_slots. The statevector must have num_qubits() qubits.
  void apply(sim::Statevector& sv, std::span<const double> slot_angles) const;

  /// Resolve every angle slot for a whole lane group at once:
  /// out[slot * evals.size() + lane] (the entry-major layout the batched
  /// kernels consume). Per-evaluation shift handling is identical to
  /// resolve_slots, so each lane's angles are bit-identical to a scalar
  /// resolve of that evaluation.
  void resolve_slots_lanes(std::span<const Evaluation> evals,
                           std::vector<double>& out) const;

  /// Execute the op stream against a k-lane batched state with angles
  /// from resolve_slots_lanes. Parameter-dependent matrices are built
  /// once per op per lane group (k entry-major 2x2/4x4 builds amortized
  /// over 2^n rows of kernel work); lane L's arithmetic matches apply()
  /// on evaluation L bit-for-bit.
  void apply_batched(sim::BatchedStatevector& sv,
                     std::span<const double> slot_angles) const;

  /// Convenience: resolve + apply on a fresh |0..0> state and return
  /// <Z_q> for every qubit.
  std::vector<double> expectations(std::span<const double> theta,
                                   std::span<const double> input,
                                   std::size_t shift_op = Evaluation::kNoShift,
                                   double shift = 0.0) const;

 private:
  CompiledCircuit() : source_(1) {}

  circuit::Circuit source_;
  std::vector<CompiledOp> ops_;
  std::vector<AngleSlot> slots_;
  std::vector<std::int32_t> slot_of_src_op_;  // -1 for angle-free ops
  std::vector<linalg::Matrix> matrices_;      // fixed-gate cache
  std::vector<circuit::GateKind> matrix_kinds_;  // cache key
  std::uint64_t hash_ = 0;
};

}  // namespace qoc::exec
