// Tests for the extended gate set: controlled rotations (CRX/CRY/CRZ/CP)
// and the Toffoli gate, including transpiler lowering equivalence and the
// parameter-shift support policy.

#include <gtest/gtest.h>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/statevector.hpp"
#include "qoc/train/param_shift.hpp"
#include "qoc/transpile/transpile.hpp"

namespace {

using namespace qoc;
using circuit::Circuit;
using circuit::GateKind;
using circuit::ParamRef;
using linalg::cplx;
using linalg::equal_up_to_global_phase;
using linalg::is_unitary;
using linalg::Matrix;
using transpile::BoundOp;

Matrix ops_unitary(const std::vector<BoundOp>& ops, int n) {
  const std::size_t dim = std::size_t{1} << n;
  Matrix u(dim, dim);
  for (std::size_t col = 0; col < dim; ++col) {
    sim::Statevector sv(n);
    std::vector<cplx> amps(dim, cplx{0, 0});
    amps[col] = 1.0;
    sv.set_amplitudes(amps);
    for (const auto& op : ops)
      sv.apply_matrix(circuit::gate_matrix(op.kind, op.angle), op.qubits);
    for (std::size_t row = 0; row < dim; ++row) u(row, col) = sv.amplitude(row);
  }
  return u;
}

TEST(ControlledGates, MatricesAreUnitary) {
  Prng rng(1);
  for (int i = 0; i < 10; ++i) {
    const double t = rng.uniform(-4, 4);
    EXPECT_TRUE(is_unitary(sim::gate_crx(t)));
    EXPECT_TRUE(is_unitary(sim::gate_cry(t)));
    EXPECT_TRUE(is_unitary(sim::gate_crz(t)));
    EXPECT_TRUE(is_unitary(sim::gate_cp(t)));
  }
  EXPECT_TRUE(is_unitary(sim::gate_ccx()));
}

TEST(ControlledGates, ControlOffActsAsIdentity) {
  // Control qubit |0>: target untouched.
  sim::Statevector sv(2);
  sv.apply_1q(sim::gate_ry(0.7), 1);  // some target state
  const auto before = sv.amplitudes();
  sv.apply_2q(sim::gate_crx(1.3), 0, 1);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(sv.amplitudes()[i] - before[i]), 0.0, 1e-12);
}

TEST(ControlledGates, ControlOnAppliesRotation) {
  sim::Statevector a(2), b(2);
  a.apply_1q(sim::gate_x(), 0);  // control = 1
  a.apply_2q(sim::gate_cry(0.9), 0, 1);
  b.apply_1q(sim::gate_x(), 0);
  b.apply_1q(sim::gate_ry(0.9), 1);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]), 0.0, 1e-12);
}

TEST(Toffoli, TruthTable) {
  // CCX flips the target iff both controls are 1.
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b)
      for (int c = 0; c < 2; ++c) {
        sim::Statevector sv(3);
        if (a) sv.apply_pauli_x(0);
        if (b) sv.apply_pauli_x(1);
        if (c) sv.apply_pauli_x(2);
        sv.apply_matrix(sim::gate_ccx(), {0, 1, 2});
        const int expect_c = (a && b) ? 1 - c : c;
        const std::size_t idx = static_cast<std::size_t>((a << 2) | (b << 1) |
                                                          expect_c);
        EXPECT_NEAR(std::abs(sv.amplitude(idx)), 1.0, 1e-12)
            << a << b << c;
      }
}

TEST(Toffoli, DecompositionMatchesUnitary) {
  const std::vector<BoundOp> original = {{GateKind::Ccx, {0, 1, 2}, 0.0}};
  const auto decomposed = transpile::decompose_multiqubit(original);
  EXPECT_GT(decomposed.size(), 10u);
  for (const auto& op : decomposed)
    EXPECT_LE(circuit::gate_arity(op.kind), 2);
  EXPECT_TRUE(equal_up_to_global_phase(ops_unitary(decomposed, 3),
                                       ops_unitary(original, 3), 1e-9));
}

class ControlledLowering : public ::testing::TestWithParam<GateKind> {};

TEST_P(ControlledLowering, PreservesUnitaryUpToPhase) {
  const GateKind kind = GetParam();
  Prng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const double angle = rng.uniform(-3, 3);
    const std::vector<BoundOp> original = {{kind, {0, 1}, angle}};
    const auto lowered = transpile::lower_to_basis(original);
    EXPECT_TRUE(equal_up_to_global_phase(ops_unitary(lowered, 2),
                                         ops_unitary(original, 2), 1e-9))
        << circuit::gate_name(kind) << " angle=" << angle;
  }
}

INSTANTIATE_TEST_SUITE_P(CtrlRotations, ControlledLowering,
                         ::testing::Values(GateKind::Crx, GateKind::Cry,
                                           GateKind::Crz, GateKind::Cp));

TEST(ControlledGates, FullTranspilePipelineWithToffoli) {
  Circuit c(4);
  c.h(0);
  c.ccx(0, 1, 2);
  c.crz(2, 3, ParamRef::constant(0.7));
  const auto device = noise::DeviceModel::ibmq_manila();
  const auto t = transpile::transpile(c, {}, {}, device);
  EXPECT_GT(transpile::compute_stats(t.ops, device.n_qubits).n_cx, 5u);
  // Pipeline output contains only basis gates.
  for (const auto& op : t.ops)
    EXPECT_TRUE(op.kind == GateKind::Rz || op.kind == GateKind::Sx ||
                op.kind == GateKind::X || op.kind == GateKind::Cx);
}

TEST(ControlledGates, ParameterShiftRejectsControlledRotations) {
  // Generators have eigenvalues {0, +-1}: the simple +-pi/2 rule is wrong,
  // so the engine must refuse rather than silently produce bad gradients.
  EXPECT_FALSE(circuit::gate_supports_parameter_shift(GateKind::Crx));
  EXPECT_FALSE(circuit::gate_supports_parameter_shift(GateKind::Crz));
  Circuit c(2);
  c.crx(0, 1, ParamRef::trainable(0));
  qml::QnnModel model("ctrl", std::move(c),
                      autodiff::MeasurementHead::identity(2));
  backend::StatevectorBackend backend(0);
  EXPECT_THROW(train::ParameterShiftEngine(backend, model),
               std::invalid_argument);
}

TEST(ControlledGates, CircuitBuilderValidatesToffoliQubits) {
  Circuit c(3);
  EXPECT_THROW(c.ccx(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(c.ccx(0, 1, 3), std::out_of_range);
  EXPECT_NO_THROW(c.ccx(0, 1, 2));
  EXPECT_EQ(c.depth(), 1u);
}

TEST(ControlledGates, NoisyBackendRunsToffoliCircuits) {
  backend::NoisyBackendOptions opt;
  opt.shots = 1024;
  backend::NoisyBackend qc(noise::DeviceModel::ibmq_jakarta(), opt);
  Circuit c(3);
  c.x(0);
  c.x(1);
  c.ccx(0, 1, 2);  // all-ones input: target flips
  const auto z = qc.run(c, {}, {});
  EXPECT_LT(z[2], -0.5);  // target near |1>
}

}  // namespace
