#pragma once
// Circuit lowering pipeline modelling what Qiskit does between the paper's
// TrainingEngine and the physical device:
//
//   bind   -- resolve every ParamRef against concrete (theta, input)
//             vectors, producing a list of BoundOps (angles are numbers).
//             Parameter-shift training submits *bound* circuits, so the
//             whole transpile path operates post-binding, like the real
//             flow (create -> validate -> queue -> run, Sec. 3.2).
//   route  -- place logical qubits on physical ones and insert SWAPs so
//             every two-qubit gate acts on a coupled pair.
//   lower  -- rewrite everything into the IBM basis {RZ, SX, X, CX}
//             (RZ is a virtual, error-free frame change on hardware).
//
// The lowered gate counts drive the NoisyBackend's error injection, which
// is how device topology influences training noise -- e.g. a ring RZZ
// layer routed onto a line device (manila/santiago) costs extra SWAPs and
// therefore extra CX noise, just like on the real chips.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qoc/circuit/circuit.hpp"
#include "qoc/noise/device_model.hpp"

namespace qoc::transpile {

/// A gate whose angle has been resolved to a concrete value.
struct BoundOp {
  circuit::GateKind kind = circuit::GateKind::I;
  std::vector<int> qubits;
  double angle = 0.0;
};

/// Resolve all ParamRefs. Output has one BoundOp per circuit op, in order.
std::vector<BoundOp> bind_circuit(const circuit::Circuit& c,
                                  std::span<const double> theta,
                                  std::span<const double> input);

/// ZYZ Euler decomposition of a single-qubit unitary:
/// U = e^{i phase} Rz(phi) Ry(theta) Rz(lambda).
struct EulerZYZ {
  double theta = 0.0;
  double phi = 0.0;
  double lambda = 0.0;
  double phase = 0.0;
};
EulerZYZ zyz_decompose(const linalg::Matrix& u);

/// Rewrite any 3-qubit gates (Toffoli) into 1- and 2-qubit gates (the
/// textbook 6-CX + T/Tdg/H network); run BEFORE routing, which only
/// understands 1- and 2-qubit operations.
std::vector<BoundOp> decompose_multiqubit(const std::vector<BoundOp>& ops);

/// Rewrite ops into the basis {RZ, SX, X, CX} (global phases dropped).
///   RZZ(t) a b  ->  CX a b ; RZ(t) b ; CX a b
///   RXX / RYY / RZX: basis-change conjugations of RZZ
///   CZ          ->  H-conjugated CX;  SWAP -> 3 CX
///   any 1q gate ->  RZ SX RZ SX RZ via ZYZ angles (ZXZXZ identity)
/// RZ gates with angle ~ 0 (mod 2 pi) are elided.
std::vector<BoundOp> lower_to_basis(const std::vector<BoundOp>& ops);

/// Result of placing + routing a circuit onto a device.
struct RoutingResult {
  std::vector<BoundOp> ops;        // over physical qubit indices
  std::vector<int> final_layout;   // logical l sits on physical final_layout[l]
  std::size_t n_swaps_inserted = 0;
};

/// Greedy shortest-path router. Uses the trivial initial layout
/// (logical i -> physical i); before each non-adjacent two-qubit gate it
/// SWAPs one operand along a BFS shortest path until the pair is coupled.
/// Throws if the device has fewer qubits than the circuit.
RoutingResult route(const std::vector<BoundOp>& ops, int n_logical,
                    const noise::DeviceModel& device);

/// Gate counts and depth of a lowered stream, for reports and the
/// success-probability and duration estimates below.
struct TranspileStats {
  std::size_t n_rz = 0;        // virtual, error-free
  std::size_t n_sx = 0;
  std::size_t n_x = 0;
  std::size_t n_cx = 0;
  std::size_t n_other = 0;
  std::size_t depth = 0;

  std::size_t physical_1q() const { return n_sx + n_x + n_other; }
  std::size_t total() const { return n_rz + n_sx + n_x + n_cx + n_other; }
};
TranspileStats compute_stats(const std::vector<BoundOp>& ops, int n_qubits);

/// Full pipeline output. compute_stats(ops, device.n_qubits) gives its
/// gate counts and depth.
struct Transpiled {
  std::vector<BoundOp> ops;   // routed + lowered, physical indices
  std::vector<int> final_layout;
  std::size_t n_swaps_inserted = 0;
};

/// bind -> route -> lower, against a device model.
Transpiled transpile(const circuit::Circuit& c, std::span<const double> theta,
                     std::span<const double> input,
                     const noise::DeviceModel& device);

/// The angle-independent prefix of the pipeline (decompose + route),
/// computed once per circuit *structure*. Placement and SWAP insertion
/// depend only on gate arities and operand qubits, never on angles, so a
/// template can be reused across every binding of the same circuit --
/// including the parameter-shifted variants of a training step.
struct RoutedTemplate {
  struct TOp {
    circuit::GateKind kind = circuit::GateKind::I;
    std::vector<int> qubits;  // physical indices
    /// Index of the source-circuit op supplying this op's angle, or -1
    /// for angle-free ops (fixed gates, inserted SWAPs, CCX expansion).
    std::int32_t src = -1;
  };
  std::vector<TOp> ops;
  std::vector<int> final_layout;
  std::size_t n_swaps_inserted = 0;
  int n_logical = 0;
};

/// Decompose + route `c` against `device` without binding angles.
RoutedTemplate route_template(const circuit::Circuit& c,
                              const noise::DeviceModel& device);

/// Finish the pipeline for one binding: substitute per-source-op angles
/// (from exec::CompiledCircuit::resolve_source_angles or equivalent),
/// lower to the device basis and optimize. Produces output bit-identical
/// to transpile() on the same circuit and binding. This is
/// NoisyBackend's one per-binding lowering; a template relabelled onto
/// a subset of the device's qubits (see backend::TranspileCache) lowers
/// the same way.
Transpiled transpile_with_angles(const RoutedTemplate& t,
                                 std::span<const double> source_angles);

/// Estimated success probability of the transpiled circuit: the product
/// of (1 - err) over all physical gates plus readout. A coarse fidelity
/// proxy used in reports.
double estimated_success_probability(const Transpiled& t,
                                     const noise::DeviceModel& device);

/// Estimated execution duration of one shot (seconds).
double estimated_duration_s(const Transpiled& t,
                            const noise::DeviceModel& device);

}  // namespace qoc::transpile
