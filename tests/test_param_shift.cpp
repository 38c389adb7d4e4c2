// The central correctness tests of the reproduction: the parameter-shift
// rule (Eq. 2 / Eq. 5) must produce the EXACT analytic gradient on a
// noise-free backend -- not an approximation. Verified against central
// finite differences with tight tolerances, across every supported gate
// family, on random circuits, including shared-parameter circuits.

#include <gtest/gtest.h>

#include <cmath>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/param_shift.hpp"
#include "support/with_op_offset.hpp"

namespace {

using namespace qoc::train;
using qoc::Prng;
using qoc::backend::StatevectorBackend;
using qoc::circuit::Circuit;
using qoc::circuit::GateKind;
using qoc::circuit::ParamRef;
using qoc::linalg::kPi;

/// Finite-difference df/dtheta_i of per-qubit expectations (central, h).
std::vector<double> fd_gradient(qoc::backend::Backend& backend,
                                const Circuit& c, std::vector<double> theta,
                                std::span<const double> input, int i,
                                double h = 1e-5) {
  theta[static_cast<std::size_t>(i)] += h;
  const auto fp = backend.run(c, theta, input);
  theta[static_cast<std::size_t>(i)] -= 2 * h;
  const auto fm = backend.run(c, theta, input);
  std::vector<double> g(fp.size());
  for (std::size_t q = 0; q < fp.size(); ++q)
    g[q] = (fp[q] - fm[q]) / (2 * h);
  return g;
}

TEST(WithOpOffset, ShiftsOnlyThatOp) {
  Circuit c(2);
  c.rx(0, ParamRef::trainable(0));
  c.ry(1, ParamRef::trainable(0));
  const Circuit shifted = with_op_offset(c, 0, kPi / 2);
  EXPECT_DOUBLE_EQ(shifted.op(0).param.value, kPi / 2);
  EXPECT_DOUBLE_EQ(shifted.op(1).param.value, 0.0);
  EXPECT_EQ(shifted.op(0).param.index, 0);
}

TEST(WithOpOffset, RejectsFixedGatesAndBadIndex) {
  Circuit c(2);
  c.h(0);
  EXPECT_THROW(with_op_offset(c, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(with_op_offset(c, 5, 1.0), std::out_of_range);
}

TEST(ParamShift, AnalyticGradientOfSingleRyGate) {
  // f(t) = <Z> after RY(t)|0> = cos(t); df/dt = -sin(t).
  Circuit c(1);
  c.ry(0, ParamRef::trainable(0));
  qoc::qml::QnnModel model("tiny", std::move(c),
                           qoc::autodiff::MeasurementHead::identity(1));
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);
  for (const double t : {-2.1, -0.5, 0.0, 0.3, 1.57, 2.9}) {
    const std::vector<double> theta = {t};
    const auto jac = engine.jacobian(theta, {});
    EXPECT_NEAR(jac[0][0], -std::sin(t), 1e-12) << "t=" << t;
  }
}

class GateFamilyShift : public ::testing::TestWithParam<GateKind> {};

TEST_P(GateFamilyShift, ExactForEverySupportedGateFamily) {
  const GateKind kind = GetParam();
  Prng rng(1);
  Circuit c(2);
  // Sandwich the parameterised gate between fixed rotations so the
  // gradient is generic (not at a symmetry point).
  c.ry(0, ParamRef::constant(0.7));
  c.ry(1, ParamRef::constant(-1.1));
  if (qoc::circuit::gate_arity(kind) == 1)
    c.add(kind, {0}, ParamRef::trainable(0));
  else
    c.add(kind, {0, 1}, ParamRef::trainable(0));
  c.rx(0, ParamRef::constant(0.4));

  qoc::qml::QnnModel model("g", std::move(c),
                           qoc::autodiff::MeasurementHead::identity(2));
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);

  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<double> theta = {rng.uniform(-3, 3)};
    const auto jac = engine.jacobian(theta, {});
    const auto fd = fd_gradient(backend, model.circuit(), theta, {}, 0);
    for (std::size_t q = 0; q < 2; ++q)
      EXPECT_NEAR(jac[q][0], fd[q], 1e-8)
          << qoc::circuit::gate_name(kind) << " qubit " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, GateFamilyShift,
                         ::testing::Values(GateKind::Rx, GateKind::Ry,
                                           GateKind::Rz, GateKind::Rxx,
                                           GateKind::Ryy, GateKind::Rzz,
                                           GateKind::Rzx));

TEST(ParamShift, RejectsUnsupportedGates) {
  Circuit c(1);
  c.phase(0, ParamRef::trainable(0));  // generator eigenvalues {0,1}
  qoc::qml::QnnModel model("p", std::move(c),
                           qoc::autodiff::MeasurementHead::identity(1));
  StatevectorBackend backend(0);
  EXPECT_THROW(ParameterShiftEngine(backend, model), std::invalid_argument);
}

TEST(ParamShift, SharedParameterSumsPerGateContributions) {
  // theta[0] appears in two gates; parameter-shift must sum both shifts
  // (end of Sec. 3.1) and equal the total derivative.
  Circuit c(2);
  c.rx(0, ParamRef::trainable(0));
  c.ry(1, ParamRef::trainable(0));
  c.rzz(0, 1, ParamRef::trainable(1));
  qoc::qml::QnnModel model("shared", std::move(c),
                           qoc::autodiff::MeasurementHead::identity(2));
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);

  Prng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> theta = {rng.uniform(-3, 3), rng.uniform(-3, 3)};
    const auto jac = engine.jacobian(theta, {});
    for (int i = 0; i < 2; ++i) {
      const auto fd = fd_gradient(backend, model.circuit(), theta, {}, i);
      for (std::size_t q = 0; q < 2; ++q)
        EXPECT_NEAR(jac[q][static_cast<std::size_t>(i)], fd[q], 1e-8);
    }
  }
}

TEST(ParamShift, FullTaskCircuitJacobianMatchesFiniteDifference) {
  const qoc::qml::QnnModel model = qoc::qml::make_vowel4_model();
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);
  Prng rng(3);
  const auto theta = model.init_params(rng);
  std::vector<double> input(10);
  for (auto& x : input) x = rng.uniform(-1.5, 1.5);

  const auto jac = engine.jacobian(theta, input);
  for (int i = 0; i < model.num_params(); i += 3) {  // sample every 3rd
    const auto fd =
        fd_gradient(backend, model.circuit(), theta, input, i);
    for (std::size_t q = 0; q < 4; ++q)
      EXPECT_NEAR(jac[q][static_cast<std::size_t>(i)], fd[q], 1e-7)
          << "param " << i;
  }
}

TEST(BatchGradient, MatchesLossFiniteDifference) {
  const qoc::qml::QnnModel model = qoc::qml::make_mnist2_model();
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);
  Prng rng(4);
  const auto theta = model.init_params(rng);

  qoc::data::Dataset d;
  for (int i = 0; i < 4; ++i) {
    std::vector<double> x(16);
    for (auto& v : x) v = rng.uniform(0, kPi);
    d.push(x, i % 2);
  }
  const std::vector<std::size_t> batch = {0, 1, 2, 3};
  const auto bg = engine.batch_gradient(theta, d, batch);

  const double h = 1e-5;
  for (int i = 0; i < model.num_params(); ++i) {
    auto tp = theta, tm = theta;
    tp[static_cast<std::size_t>(i)] += h;
    tm[static_cast<std::size_t>(i)] -= h;
    const double lp = engine.batch_loss(tp, d, batch);
    const double lm = engine.batch_loss(tm, d, batch);
    EXPECT_NEAR(bg.grad[static_cast<std::size_t>(i)], (lp - lm) / (2 * h),
                1e-6)
        << "param " << i;
  }
}

TEST(BatchGradient, MaskSkipsEvaluationAndZeroesGradient) {
  const qoc::qml::QnnModel model = qoc::qml::make_mnist2_model();
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);
  Prng rng(5);
  const auto theta = model.init_params(rng);
  qoc::data::Dataset d;
  std::vector<double> x(16, 0.4);
  d.push(x, 0);
  const std::vector<std::size_t> batch = {0};

  std::vector<bool> mask(8, false);
  mask[2] = true;
  mask[5] = true;

  backend.reset_inference_count();
  const auto bg = engine.batch_gradient(theta, d, batch, &mask);
  // 1 unshifted run + 2 per unmasked param occurrence (each param in 1 gate).
  EXPECT_EQ(bg.inferences, 1u + 2u * 2u);
  for (std::size_t i = 0; i < 8; ++i) {
    if (mask[i])
      EXPECT_NE(bg.grad[i], 0.0);
    else
      EXPECT_EQ(bg.grad[i], 0.0);
  }
}

TEST(BatchGradient, InferenceCountFullGradient) {
  const qoc::qml::QnnModel model = qoc::qml::make_mnist2_model();  // 8 params
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);
  Prng rng(6);
  const auto theta = model.init_params(rng);
  qoc::data::Dataset d;
  std::vector<double> x(16, 0.4);
  d.push(x, 0);
  d.push(x, 1);
  const std::vector<std::size_t> batch = {0, 1};
  const auto bg = engine.batch_gradient(theta, d, batch);
  // Per example: 1 + 2 * 8 = 17 runs; batch of 2 -> 34.
  EXPECT_EQ(bg.inferences, 34u);
}

TEST(BatchGradient, ValidatesInputs) {
  const qoc::qml::QnnModel model = qoc::qml::make_mnist2_model();
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);
  Prng rng(7);
  const auto theta = model.init_params(rng);
  qoc::data::Dataset d;
  d.push(std::vector<double>(16, 0.1), 0);

  const std::vector<std::size_t> empty = {};
  EXPECT_THROW(engine.batch_gradient(theta, d, empty), std::invalid_argument);
  const std::vector<std::size_t> oob = {5};
  EXPECT_THROW(engine.batch_gradient(theta, d, oob), std::out_of_range);
  std::vector<bool> bad_mask(3, true);
  const std::vector<std::size_t> batch = {0};
  EXPECT_THROW(engine.batch_gradient(theta, d, batch, &bad_mask),
               std::invalid_argument);
}

TEST(ParamShift, ShiftIsExactWhereFiniteDifferenceDegrades) {
  // With a large "h" the parameter-shift rule stays exact while naive
  // finite differences with the same step are badly wrong -- Eq. 2 is not
  // a numerical approximation.
  Circuit c(1);
  c.ry(0, ParamRef::trainable(0));
  qoc::qml::QnnModel model("tiny", std::move(c),
                           qoc::autodiff::MeasurementHead::identity(1));
  StatevectorBackend backend(0);
  ParameterShiftEngine engine(backend, model);
  const double t = 0.9;
  const std::vector<double> theta = {t};
  const auto jac = engine.jacobian(theta, {});
  EXPECT_NEAR(jac[0][0], -std::sin(t), 1e-12);
  // Coarse central difference with h = pi/2 (same evaluations the shift
  // rule uses, but interpreted as a difference quotient) is off by a
  // factor ~ 2/pi * ... -- i.e. NOT exact.
  const auto fd = fd_gradient(backend, model.circuit(), theta, {}, 0,
                              kPi / 2);
  EXPECT_GT(std::abs(fd[0] - (-std::sin(t))), 0.1);
}

}  // namespace
