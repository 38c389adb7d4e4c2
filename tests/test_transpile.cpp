// Tests for the transpile pipeline: binding, basis lowering (verified by
// unitary equivalence up to global phase), routing, and gate statistics.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/statevector.hpp"
#include "qoc/transpile/transpile.hpp"

namespace {

using namespace qoc::transpile;
using qoc::Prng;
using qoc::circuit::Circuit;
using qoc::circuit::GateKind;
using qoc::circuit::ParamRef;
using qoc::linalg::cplx;
using qoc::linalg::equal_up_to_global_phase;
using qoc::linalg::kPi;
using qoc::linalg::Matrix;
using qoc::noise::DeviceModel;

/// Apply a BoundOp list to a fresh statevector register of n qubits and
/// return the full unitary by columns (small n only).
Matrix ops_unitary(const std::vector<BoundOp>& ops, int n) {
  const std::size_t dim = std::size_t{1} << n;
  Matrix u(dim, dim);
  for (std::size_t col = 0; col < dim; ++col) {
    qoc::sim::Statevector sv(n);
    std::vector<cplx> amps(dim, cplx{0, 0});
    amps[col] = 1.0;
    sv.set_amplitudes(amps);
    for (const auto& op : ops)
      sv.apply_matrix(qoc::circuit::gate_matrix(op.kind, op.angle), op.qubits);
    for (std::size_t row = 0; row < dim; ++row) u(row, col) = sv.amplitude(row);
  }
  return u;
}

TEST(Bind, ResolvesAllAngleSources) {
  Circuit c(2);
  c.rx(0, ParamRef::trainable(0));
  c.ry(1, ParamRef::input(0, 2.0));
  c.rz(0, ParamRef::constant(0.25));
  c.cx(0, 1);
  const std::vector<double> theta = {1.5};
  const std::vector<double> input = {0.3};
  const auto bound = bind_circuit(c, theta, input);
  ASSERT_EQ(bound.size(), 4u);
  EXPECT_DOUBLE_EQ(bound[0].angle, 1.5);
  EXPECT_DOUBLE_EQ(bound[1].angle, 0.6);
  EXPECT_DOUBLE_EQ(bound[2].angle, 0.25);
}

// ---- ZYZ decomposition ---------------------------------------------------------

TEST(Zyz, ReconstructsRandomUnitaries) {
  Prng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Matrix u = qoc::sim::gate_u3(rng.uniform(0, kPi),
                                       rng.uniform(-kPi, kPi),
                                       rng.uniform(-kPi, kPi));
    const EulerZYZ e = zyz_decompose(u);
    const Matrix rebuilt = qoc::sim::gate_rz(e.phi) * qoc::sim::gate_ry(e.theta) *
                           qoc::sim::gate_rz(e.lambda);
    EXPECT_TRUE(equal_up_to_global_phase(rebuilt, u, 1e-9)) << i;
  }
}

TEST(Zyz, HandlesDiagonalAndAntiDiagonal) {
  const EulerZYZ ez = zyz_decompose(qoc::sim::gate_rz(0.7));
  EXPECT_NEAR(ez.theta, 0.0, 1e-12);
  const EulerZYZ ex = zyz_decompose(qoc::sim::gate_x());
  EXPECT_NEAR(ex.theta, kPi, 1e-9);
}

TEST(Zyz, RejectsWrongShapes) {
  EXPECT_THROW(zyz_decompose(Matrix(3, 3)), std::invalid_argument);
}

// ---- Basis lowering: unitary equivalence ---------------------------------------

class LoweringEquivalence1q : public ::testing::TestWithParam<GateKind> {};

TEST_P(LoweringEquivalence1q, PreservesUnitaryUpToPhase) {
  const GateKind kind = GetParam();
  Prng rng(2);
  const double angle = rng.uniform(-3, 3);
  const std::vector<BoundOp> original = {{kind, {0}, angle}};
  const auto lowered = lower_to_basis(original);
  // Everything must be in the basis.
  for (const auto& op : lowered)
    EXPECT_TRUE(op.kind == GateKind::Rz || op.kind == GateKind::Sx ||
                op.kind == GateKind::X || op.kind == GateKind::Cx);
  EXPECT_TRUE(equal_up_to_global_phase(ops_unitary(lowered, 1),
                                       ops_unitary(original, 1), 1e-9))
      << qoc::circuit::gate_name(kind);
}

INSTANTIATE_TEST_SUITE_P(Gates1q, LoweringEquivalence1q,
                         ::testing::Values(GateKind::H, GateKind::X,
                                           GateKind::Y, GateKind::Z,
                                           GateKind::S, GateKind::Sdg,
                                           GateKind::T, GateKind::Tdg,
                                           GateKind::Sx, GateKind::Rx,
                                           GateKind::Ry, GateKind::Rz,
                                           GateKind::Phase));

class LoweringEquivalence2q : public ::testing::TestWithParam<GateKind> {};

TEST_P(LoweringEquivalence2q, PreservesUnitaryUpToPhase) {
  const GateKind kind = GetParam();
  Prng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const double angle = rng.uniform(-3, 3);
    const std::vector<BoundOp> original = {{kind, {0, 1}, angle}};
    const auto lowered = lower_to_basis(original);
    EXPECT_TRUE(equal_up_to_global_phase(ops_unitary(lowered, 2),
                                         ops_unitary(original, 2), 1e-9))
        << qoc::circuit::gate_name(kind) << " angle=" << angle;
  }
}

INSTANTIATE_TEST_SUITE_P(Gates2q, LoweringEquivalence2q,
                         ::testing::Values(GateKind::Cx, GateKind::Cz,
                                           GateKind::Swap, GateKind::Rzz,
                                           GateKind::Rxx, GateKind::Ryy,
                                           GateKind::Rzx));

TEST(Lowering, WholeTaskCircuitEquivalent) {
  // The Fashion-4 ansatz (encoder + 3x RZZ+RY) lowered end-to-end.
  Circuit c(4);
  qoc::circuit::add_image_encoder_16(c);
  for (int b = 0; b < 3; ++b) {
    qoc::circuit::add_rzz_ring_layer(c);
    qoc::circuit::add_ry_layer(c);
  }
  Prng rng(4);
  std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-kPi, kPi);
  std::vector<double> input(16);
  for (auto& x : input) x = rng.uniform(0, kPi);

  const auto bound = bind_circuit(c, theta, input);
  const auto lowered = lower_to_basis(bound);
  EXPECT_TRUE(equal_up_to_global_phase(ops_unitary(lowered, 4),
                                       ops_unitary(bound, 4), 1e-8));
}

TEST(Lowering, ElidesZeroAngleRz) {
  const std::vector<BoundOp> ops = {{GateKind::Rz, {0}, 0.0}};
  EXPECT_TRUE(lower_to_basis(ops).empty());
}

TEST(Lowering, RzzCostsExactlyTwoCx) {
  const std::vector<BoundOp> ops = {{GateKind::Rzz, {0, 1}, 0.5}};
  const auto lowered = lower_to_basis(ops);
  const auto stats = compute_stats(lowered, 2);
  EXPECT_EQ(stats.n_cx, 2u);
}

// ---- Routing ------------------------------------------------------------------

TEST(Routing, AdjacentGatesPassThrough) {
  const auto device = DeviceModel::ibmq_manila();
  const std::vector<BoundOp> ops = {{GateKind::Cx, {0, 1}, 0.0},
                                    {GateKind::Cx, {1, 2}, 0.0}};
  const auto result = route(ops, 4, device);
  EXPECT_EQ(result.n_swaps_inserted, 0u);
  EXPECT_EQ(result.ops.size(), 2u);
}

TEST(Routing, InsertsSwapsForFarPairs) {
  const auto device = DeviceModel::ibmq_manila();  // line 0-1-2-3-4
  const std::vector<BoundOp> ops = {{GateKind::Cx, {0, 3}, 0.0}};
  const auto result = route(ops, 4, device);
  EXPECT_GE(result.n_swaps_inserted, 1u);
  // All emitted 2q ops must be on coupled pairs.
  for (const auto& op : result.ops)
    if (op.qubits.size() == 2)
      EXPECT_TRUE(device.connected(op.qubits[0], op.qubits[1]));
}

TEST(Routing, SemanticsPreservedUnderPermutation) {
  // Routed circuit must equal the original up to the final layout
  // permutation of qubits.
  const auto device = DeviceModel::ibmq_manila();
  Prng rng(5);
  std::vector<BoundOp> ops;
  for (int g = 0; g < 6; ++g) {
    const int a = static_cast<int>(rng.uniform_int(4));
    int b = static_cast<int>(rng.uniform_int(4));
    while (b == a) b = static_cast<int>(rng.uniform_int(4));
    ops.push_back({GateKind::Rzz, {a, b}, rng.uniform(-2, 2)});
    ops.push_back({GateKind::Ry, {a}, rng.uniform(-2, 2)});
  }
  const auto result = route(ops, 4, device);

  // Simulate original on 5 qubits (logical i = physical i initially).
  qoc::sim::Statevector orig(5), routed(5);
  for (const auto& op : ops)
    orig.apply_matrix(qoc::circuit::gate_matrix(op.kind, op.angle), op.qubits);
  for (const auto& op : result.ops)
    routed.apply_matrix(qoc::circuit::gate_matrix(op.kind, op.angle),
                        op.qubits);

  // Compare <Z> of each logical qubit: logical l sits at final_layout[l].
  for (int l = 0; l < 4; ++l)
    EXPECT_NEAR(orig.expectation_z(l),
                routed.expectation_z(result.final_layout[l]), 1e-9)
        << "logical " << l;
}

TEST(Routing, ThrowsWhenCircuitLargerThanDevice) {
  const auto device = DeviceModel::ibmq_manila();
  EXPECT_THROW(route({}, 6, device), std::invalid_argument);
}

// ---- Full pipeline + stats ------------------------------------------------------

TEST(FullTranspile, TaskCircuitOnManila) {
  Circuit c(4);
  qoc::circuit::add_image_encoder_16(c);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  Prng rng(6);
  std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()), 0.5);
  std::vector<double> input(16, 1.0);

  const auto device = DeviceModel::ibmq_manila();
  const auto t = transpile(c, theta, input, device);
  // Ring on a line needs at least one SWAP for the (3,0) closure.
  EXPECT_GE(t.n_swaps_inserted, 1u);
  const auto stats = compute_stats(t.ops, device.n_qubits);
  EXPECT_GT(stats.n_cx, 8u);  // 4 RZZ x 2 CX + 3 CX per SWAP
  EXPECT_GT(stats.n_rz, 0u);
  EXPECT_GT(stats.depth, 0u);
}

TEST(FullTranspile, SuccessProbabilityInUnitInterval) {
  Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  std::vector<double> theta(4, 0.3);
  const auto device = DeviceModel::ibmq_lima();
  const auto t = transpile(c, theta, {}, device);
  const double p = estimated_success_probability(t, device);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(FullTranspile, DurationPositiveAndScalesWithDepth) {
  Circuit small(4), big(4);
  qoc::circuit::add_rzz_ring_layer(small);
  for (int i = 0; i < 5; ++i) qoc::circuit::add_rzz_ring_layer(big);
  std::vector<double> ts(4, 0.3), tb(20, 0.3);
  const auto device = DeviceModel::ibmq_santiago();
  const auto a = transpile(small, ts, {}, device);
  const auto b = transpile(big, tb, {}, device);
  EXPECT_GT(estimated_duration_s(a, device), 0.0);
  EXPECT_GT(estimated_duration_s(b, device), estimated_duration_s(a, device));
}

// ---- Template lowering: transpile_with_angles vs the full pipeline -------

/// Bitwise equality of two transpiled streams (ops, layout, SWAP count).
void expect_transpiled_equal(const Transpiled& a, const Transpiled& b) {
  EXPECT_EQ(a.final_layout, b.final_layout);
  EXPECT_EQ(a.n_swaps_inserted, b.n_swaps_inserted);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << "op " << i;
    EXPECT_EQ(a.ops[i].qubits, b.ops[i].qubits) << "op " << i;
    EXPECT_EQ(a.ops[i].angle, b.ops[i].angle) << "op " << i;
  }
}

/// Source angles exactly as the template path receives them.
std::vector<double> source_angles_of(const Circuit& c,
                                     const std::vector<double>& theta) {
  std::vector<double> out;
  for (const auto& bop : bind_circuit(c, theta, {})) out.push_back(bop.angle);
  return out;
}

/// Representative mix: every lowering recipe class (affine RZ family,
/// ZYZ rotations incl. scaled Cry, fixed-gate conjugations, routed
/// SWAPs from the non-adjacent pair on a line device).
Circuit lowering_mix_circuit() {
  Circuit c(4);
  c.h(0);
  c.rx(1, ParamRef::trainable(0));
  c.ry(2, ParamRef::trainable(1));
  c.rz(3, ParamRef::trainable(2));
  c.rzz(0, 1, ParamRef::trainable(3));
  c.cry(1, 2, ParamRef::trainable(4));
  c.crz(2, 3, ParamRef::trainable(5));
  c.cp(0, 3, ParamRef::trainable(6));  // non-adjacent on manila: SWAPs
  c.cz(1, 3);
  c.swap(0, 2);
  c.ryy(2, 3, ParamRef::trainable(7));
  return c;
}

TEST(TemplateLowering, BitIdenticalToFullPipelineAcrossBindings) {
  const Circuit c = lowering_mix_circuit();
  const auto device = DeviceModel::ibmq_manila();
  const auto tmpl = route_template(c, device);

  Prng rng(77);
  std::vector<std::vector<double>> bindings;
  for (int k = 0; k < 4; ++k) {
    std::vector<double> theta(8);
    for (auto& v : theta) v = rng.uniform(-3, 3);
    // Prune a few parameters to exercise distinct zero patterns.
    if (k >= 1) theta[1] = 0.0;
    if (k >= 2) theta[3] = theta[6] = 0.0;
    bindings.push_back(std::move(theta));
  }
  // Revisit every binding with shifted values on the same template: it
  // holds no per-binding state, so every lowering matches the full
  // pipeline bit-for-bit.
  for (int round = 0; round < 2; ++round) {
    for (auto theta : bindings) {
      for (auto& v : theta)
        if (v != 0.0) v += 0.1 * round;
      const auto expected = transpile(c, theta, {}, device);
      const auto got =
          transpile_with_angles(tmpl, source_angles_of(c, theta));
      expect_transpiled_equal(got, expected);
    }
  }
}

TEST(TemplateLowering, BindingDependentStructureMatchesFullPipeline) {
  // rz(theta0) and an adjacent constant rz(-0.7) merge; for theta0 = 0.7
  // the merged rotation is zero and the pair (plus the then-cancellable
  // CX pair around it) vanishes structurally. A binding with the SAME
  // zero-angle pattern but a different value keeps that structure, and
  // both must lower from one template exactly as the full pipeline does.
  Circuit c(2);
  c.rz(0, ParamRef::trainable(0));
  c.rz(0, ParamRef::constant(-0.7));
  c.cx(0, 1);
  c.ry(1, ParamRef::trainable(1));
  const auto device = DeviceModel::ibmq_manila();
  const auto tmpl = route_template(c, device);

  const std::vector<double> cancelling = {0.7, 0.4};
  const std::vector<double> generic = {0.5, 0.4};  // same zero pattern
  for (const auto* theta : {&cancelling, &generic}) {
    const auto expected = transpile(c, *theta, {}, device);
    const auto got =
        transpile_with_angles(tmpl, source_angles_of(c, *theta));
    expect_transpiled_equal(got, expected);
  }
  // The two bindings disagree on the merged-RZ structure.
  const auto a = transpile(c, cancelling, {}, device);
  const auto b = transpile(c, generic, {}, device);
  EXPECT_NE(a.ops.size(), b.ops.size());
}

TEST(TemplateLowering, MatchesFullPipelineOnTaskScaleCircuit) {
  // A full hardware-efficient stack through routing with SWAP insertion:
  // transpile_with_angles vs full transpile, bitwise identical per
  // binding.
  Circuit c(4);
  qoc::circuit::add_ry_layer(c);
  qoc::circuit::add_rz_layer(c);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const auto device = DeviceModel::ibmq_santiago();
  const auto tmpl = route_template(c, device);

  Prng rng(5);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()));
    for (auto& v : theta) v = rng.uniform(-3, 3);
    const auto angles = source_angles_of(c, theta);
    const auto full = transpile(c, theta, {}, device);
    const auto via_template = transpile_with_angles(tmpl, angles);
    expect_transpiled_equal(via_template, full);
  }
}

// ---- LoweringPins: lowered streams pinned across commits -------------------

/// 64-bit FNV-1a over lowered streams: every op's kind, qubits and angle
/// bit pattern, then final_layout and n_swaps_inserted.
class LoweringDigest {
 public:
  void add(const Transpiled& t) {
    for (const auto& op : t.ops) {
      word(static_cast<std::uint64_t>(op.kind));
      for (const int q : op.qubits) word(static_cast<std::uint64_t>(q));
      word(std::bit_cast<std::uint64_t>(op.angle));
    }
    for (const int q : t.final_layout) word(static_cast<std::uint64_t>(q));
    word(t.n_swaps_inserted);
  }
  std::uint64_t value() const { return h_; }

 private:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Toffoli networks around trainable rotations; on the line and T-shaped
/// devices the second CCX's operands need SWAPs.
Circuit toffoli_circuit() {
  Circuit c(4);
  c.h(0);
  c.ry(1, ParamRef::trainable(0));
  c.ccx(0, 1, 2);
  c.rx(3, ParamRef::trainable(1));
  c.ccx(1, 3, 0);
  c.crx(2, 3, ParamRef::trainable(2));
  c.rz(2, ParamRef::trainable(3));
  return c;
}

/// One binding as a backend receives it: unshifted parameters plus an
/// optional parameter shift on one source op.
struct PinBinding {
  std::vector<double> theta;
  std::vector<double> input;
  std::size_t shift_op = qoc::exec::Evaluation::kNoShift;
  double shift = 0.0;
};

/// Eight seeded bindings: five random, binding 0 shifted by +pi/2 and by
/// -pi/2 on its second parameter, and binding 1 with every other
/// parameter pruned to zero.
std::vector<PinBinding> pin_bindings(const Circuit& c, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<PinBinding> out;
  for (int k = 0; k < 5; ++k) {
    PinBinding b;
    b.theta.resize(static_cast<std::size_t>(c.num_trainable()));
    for (auto& v : b.theta) v = rng.uniform(-kPi, kPi);
    b.input.resize(static_cast<std::size_t>(c.num_inputs()));
    for (auto& x : b.input) x = rng.uniform(0, kPi);
    out.push_back(std::move(b));
  }
  std::size_t op = 0;
  while (c.op(op).param.source != ParamRef::Source::Trainable ||
         c.op(op).param.index != 1)
    ++op;
  for (const double shift : {kPi / 2.0, -kPi / 2.0}) {
    PinBinding b = out[0];
    b.shift_op = op;
    b.shift = shift;
    out.push_back(std::move(b));
  }
  PinBinding pruned = out[1];
  for (std::size_t j = 0; j < pruned.theta.size(); j += 2)
    pruned.theta[j] = 0.0;
  out.push_back(std::move(pruned));
  return out;
}

struct LoweringPin {
  const char* circuit;
  const char* device;
  std::uint64_t full;   // transpile()
  std::uint64_t templ;  // transpile_with_angles() on route_template()
};

// A change that moves any of these digests alters the stream a device
// executes, so it must say so and re-record them. MNIST-2 and Fashion-2
// share one circuit, and qubits 0-3 are coupled alike on lima and
// jakarta, so those rows repeat.
constexpr LoweringPin kLoweringPins[] = {
    {"mnist2", "ibmq_manila",
     0x14a55ea5d0bd04aaULL, 0x14a55ea5d0bd04aaULL},
    {"mnist2", "ibmq_lima",
     0xd7a92b361590b72eULL, 0xd7a92b361590b72eULL},
    {"mnist2", "ibmq_jakarta",
     0xd7a92b361590b72eULL, 0xd7a92b361590b72eULL},
    {"fashion2", "ibmq_manila",
     0x14a55ea5d0bd04aaULL, 0x14a55ea5d0bd04aaULL},
    {"fashion2", "ibmq_lima",
     0xd7a92b361590b72eULL, 0xd7a92b361590b72eULL},
    {"fashion2", "ibmq_jakarta",
     0xd7a92b361590b72eULL, 0xd7a92b361590b72eULL},
    {"mnist4", "ibmq_manila",
     0xb1670d8e4399f353ULL, 0xb1670d8e4399f353ULL},
    {"mnist4", "ibmq_lima",
     0x3c0ab07265bfb431ULL, 0x3c0ab07265bfb431ULL},
    {"mnist4", "ibmq_jakarta",
     0x3c0ab07265bfb431ULL, 0x3c0ab07265bfb431ULL},
    {"fashion4", "ibmq_manila",
     0x2b8b6e434f6cf39cULL, 0x2b8b6e434f6cf39cULL},
    {"fashion4", "ibmq_lima",
     0xef9c6278a2914f64ULL, 0xef9c6278a2914f64ULL},
    {"fashion4", "ibmq_jakarta",
     0xef9c6278a2914f64ULL, 0xef9c6278a2914f64ULL},
    {"vowel4", "ibmq_manila",
     0xb544d9abead76cccULL, 0xb544d9abead76cccULL},
    {"vowel4", "ibmq_lima",
     0x756fa69876ac5540ULL, 0x756fa69876ac5540ULL},
    {"vowel4", "ibmq_jakarta",
     0x756fa69876ac5540ULL, 0x756fa69876ac5540ULL},
    {"lowering_mix", "ibmq_manila",
     0xb0b03943736b2168ULL, 0xb0b03943736b2168ULL},
    {"lowering_mix", "ibmq_lima",
     0x0e417f03c96ee833ULL, 0x0e417f03c96ee833ULL},
    {"lowering_mix", "ibmq_jakarta",
     0x0e417f03c96ee833ULL, 0x0e417f03c96ee833ULL},
    {"toffoli", "ibmq_manila",
     0xbbf04a585fedbba1ULL, 0xbbf04a585fedbba1ULL},
    {"toffoli", "ibmq_lima",
     0x1f4d67ae4650ceb9ULL, 0x1f4d67ae4650ceb9ULL},
    {"toffoli", "ibmq_jakarta",
     0x1f4d67ae4650ceb9ULL, 0x1f4d67ae4650ceb9ULL},
};

TEST(LoweringPins, StreamsMatchRecordedDigests) {
  std::vector<std::pair<std::string, Circuit>> circuits;
  for (const char* task :
       {"mnist2", "fashion2", "mnist4", "fashion4", "vowel4"})
    circuits.emplace_back(task, qoc::qml::make_task_model(task).circuit());
  circuits.emplace_back("lowering_mix", lowering_mix_circuit());
  circuits.emplace_back("toffoli", toffoli_circuit());

  std::size_t checked = 0;
  for (const auto& [name, c] : circuits) {
    const auto plan = qoc::exec::CompiledCircuit::compile(c);
    const auto bindings = pin_bindings(c, 2026);
    for (const char* device_name :
         {"ibmq_manila", "ibmq_lima", "ibmq_jakarta"}) {
      const auto device = DeviceModel::by_name(device_name);
      const auto tmpl = route_template(c, device);
      LoweringDigest full;
      LoweringDigest templ;
      std::vector<double> angles;
      for (const auto& b : bindings) {
        std::vector<double> theta = b.theta;
        if (b.shift_op != qoc::exec::Evaluation::kNoShift)
          theta[static_cast<std::size_t>(c.op(b.shift_op).param.index)] +=
              b.shift;
        full.add(transpile(c, theta, b.input, device));
        plan.resolve_source_angles(b.theta, b.input, b.shift_op, b.shift,
                                   angles);
        templ.add(transpile_with_angles(tmpl, angles));
      }
      const LoweringPin* pin = nullptr;
      for (const auto& p : kLoweringPins)
        if (name == p.circuit && std::string(device_name) == p.device)
          pin = &p;
      char line[160];
      std::snprintf(line, sizeof line,
                    "{\"%s\", \"%s\", 0x%016llxULL, 0x%016llxULL},",
                    name.c_str(), device_name,
                    static_cast<unsigned long long>(full.value()),
                    static_cast<unsigned long long>(templ.value()));
      if (pin == nullptr) {
        ADD_FAILURE() << "no pin recorded; measured " << line;
        continue;
      }
      EXPECT_EQ(full.value(), pin->full) << "measured " << line;
      EXPECT_EQ(templ.value(), pin->templ) << "measured " << line;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kLoweringPins));
}

TEST(Stats, CountsByKind) {
  const std::vector<BoundOp> ops = {{GateKind::Rz, {0}, 1.0},
                                    {GateKind::Sx, {0}, 0.0},
                                    {GateKind::Sx, {1}, 0.0},
                                    {GateKind::Cx, {0, 1}, 0.0},
                                    {GateKind::X, {1}, 0.0}};
  const auto s = compute_stats(ops, 2);
  EXPECT_EQ(s.n_rz, 1u);
  EXPECT_EQ(s.n_sx, 2u);
  EXPECT_EQ(s.n_x, 1u);
  EXPECT_EQ(s.n_cx, 1u);
  EXPECT_EQ(s.physical_1q(), 3u);
  // Depth ignores the virtual RZ: sx(0), then cx, then x -> depth 3.
  EXPECT_EQ(s.depth, 3u);
}

}  // namespace
