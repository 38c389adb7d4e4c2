// Tests for the compiled-execution-plan layer (qoc::exec) and the batched
// backend API:
//   * compiled-vs-uncompiled parity on random circuits (exact amplitudes,
//     bitwise, including single-op parameter shifts),
//   * 1q fusion parity (tolerance-level, since fusion re-associates
//     floating point),
//   * run_batch vs looped run() equivalence for all three backends,
//   * transpile-template parity and cache invalidation on structure
//     change,
//   * ParameterShiftEngine::batch_gradient parity against a reference
//     implementation of the pre-plan algorithm (bitwise in exact mode),
//   * the specialized statevector kernels against the generic dense path.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qoc/autodiff/loss.hpp"
#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/common/parallel.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/noise/device_model.hpp"
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

constexpr double kHalfPi = 1.5707963267948966;

// ---- Helpers ---------------------------------------------------------------

/// Random circuit over a representative mix of gate kinds and parameter
/// sources. Pulls trainable / input indices from small pools so several
/// gates share a parameter (the multi-occurrence case of Sec. 3.1).
Circuit random_circuit(int n_qubits, int n_ops, Prng& rng) {
  static const GateKind kinds[] = {
      GateKind::X,   GateKind::Y,    GateKind::Z,   GateKind::H,
      GateKind::S,   GateKind::Sdg,  GateKind::T,   GateKind::Tdg,
      GateKind::Sx,  GateKind::Rx,   GateKind::Ry,  GateKind::Rz,
      GateKind::Phase, GateKind::Cx, GateKind::Cz,  GateKind::Swap,
      GateKind::Rxx, GateKind::Ryy,  GateKind::Rzz, GateKind::Rzx,
      GateKind::Crx, GateKind::Cry,  GateKind::Crz, GateKind::Cp,
      GateKind::Ccx};
  const int n_trainable = 3;
  const int n_inputs = 2;
  Circuit c(n_qubits);
  for (int i = 0; i < n_ops; ++i) {
    const GateKind kind =
        kinds[rng.uniform_int(sizeof(kinds) / sizeof(kinds[0]))];
    const int arity = circuit::gate_arity(kind);
    if (arity > n_qubits) {
      --i;
      continue;
    }
    std::vector<int> qubits;
    while (static_cast<int>(qubits.size()) < arity) {
      const int q = static_cast<int>(rng.uniform_int(n_qubits));
      bool dup = false;
      for (const int existing : qubits) dup |= existing == q;
      if (!dup) qubits.push_back(q);
    }
    ParamRef p = ParamRef::none();
    if (circuit::gate_is_parameterised(kind)) {
      switch (rng.uniform_int(3)) {
        case 0:
          p = ParamRef::constant(rng.uniform(-3.0, 3.0));
          break;
        case 1:
          p = ParamRef::trainable(static_cast<int>(
              rng.uniform_int(n_trainable)));
          break;
        default:
          p = ParamRef::input(static_cast<int>(rng.uniform_int(n_inputs)),
                              rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0));
          break;
      }
    }
    c.add(kind, qubits, p);
  }
  // Make sure the declared widths cover the pools even if no gate drew
  // the last index.
  while (c.num_trainable() < n_trainable) c.new_trainable();
  if (c.num_inputs() < n_inputs)
    c.rx(0, ParamRef::input(n_inputs - 1, 0.0, 0.0));
  return c;
}

std::vector<double> random_vector(std::size_t n, Prng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-3.0, 3.0);
  return v;
}

/// The pre-plan execution path, verbatim: resolve each ParamRef, build
/// each gate matrix, apply through the generic dense kernel.
sim::Statevector reference_statevector(const Circuit& c,
                                       std::span<const double> theta,
                                       std::span<const double> input) {
  sim::Statevector sv(c.num_qubits());
  for (const auto& op : c.ops()) {
    const double angle = circuit::resolve_angle(op.param, theta, input);
    sv.apply_matrix(circuit::gate_matrix(op.kind, angle), op.qubits);
  }
  return sv;
}

// ---- Compiled-vs-uncompiled parity -----------------------------------------

TEST(CompiledCircuit, ExactAmplitudeParityOnRandomCircuits) {
  Prng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(4));
    const Circuit c = random_circuit(n, 24, rng);
    const auto theta = random_vector(c.num_trainable(), rng);
    const auto input = random_vector(c.num_inputs(), rng);

    const auto ref = reference_statevector(c, theta, input);

    const auto plan = exec::CompiledCircuit::compile(c);
    std::vector<double> angles;
    plan.resolve_slots(theta, input, exec::Evaluation::kNoShift, 0.0, angles);
    sim::Statevector sv(n);
    plan.apply(sv, angles);

    ASSERT_EQ(ref.dim(), sv.dim());
    for (std::size_t i = 0; i < ref.dim(); ++i) {
      // EXPECT_EQ: bit-identical up to the sign of zeros (+0 == -0).
      EXPECT_EQ(ref.amplitude(i).real(), sv.amplitude(i).real())
          << "trial " << trial << " amp " << i;
      EXPECT_EQ(ref.amplitude(i).imag(), sv.amplitude(i).imag())
          << "trial " << trial << " amp " << i;
    }
  }
}

TEST(CompiledCircuit, ShiftedEvaluationMatchesWithOpOffsetBitwise) {
  Prng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    const Circuit c = random_circuit(3, 20, rng);
    const auto theta = random_vector(c.num_trainable(), rng);
    const auto input = random_vector(c.num_inputs(), rng);
    const auto plan = exec::CompiledCircuit::compile(c);

    for (std::size_t op_idx = 0; op_idx < c.num_ops(); ++op_idx) {
      if (!circuit::gate_is_parameterised(c.op(op_idx).kind)) continue;
      const auto shifted = train::with_op_offset(c, op_idx, kHalfPi);
      const auto ref = reference_statevector(shifted, theta, input)
                           .expectation_z_all();
      const auto got = plan.expectations(theta, input, op_idx, kHalfPi);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t q = 0; q < ref.size(); ++q) EXPECT_EQ(ref[q], got[q]);
    }
  }
}

TEST(CompiledCircuit, StructureIdentityTracksStructureAndBindings) {
  Prng rng(14);
  const Circuit a = random_circuit(3, 15, rng);
  const auto plan_a = exec::CompiledCircuit::compile(a);
  const auto plan_a2 = exec::CompiledCircuit::compile(a);
  EXPECT_TRUE(exec::structure_equal(plan_a.source(), plan_a2.source()));
  EXPECT_EQ(plan_a.structure_hash(), plan_a2.structure_hash());
  EXPECT_EQ(plan_a.structure_hash(), exec::structure_hash(a));

  // A single-op constant offset (what with_op_offset produces) is a
  // different structure: caches must not serve the unshifted entry.
  bool shifted_one = false;
  for (std::size_t i = 0; i < a.num_ops(); ++i) {
    if (!circuit::gate_is_parameterised(a.op(i).kind)) continue;
    const auto shifted = train::with_op_offset(a, i, kHalfPi);
    EXPECT_FALSE(exec::structure_equal(a, shifted));
    EXPECT_NE(plan_a.structure_hash(),
              exec::CompiledCircuit::compile(shifted).structure_hash());
    shifted_one = true;
    break;
  }
  EXPECT_TRUE(shifted_one);

  const Circuit b = random_circuit(3, 16, rng);
  EXPECT_FALSE(exec::structure_equal(a, b));
  EXPECT_NE(plan_a.structure_hash(),
            exec::CompiledCircuit::compile(b).structure_hash());
}

// ---- run_batch vs looped run() ---------------------------------------------

std::vector<exec::Evaluation> plain_evals(std::span<const double> theta,
                                          const std::vector<double>& input,
                                          std::size_t n) {
  std::vector<exec::Evaluation> evals(n);
  for (auto& e : evals) {
    e.theta = theta;
    e.input = input;
  }
  return evals;
}

TEST(RunBatch, MatchesLoopedRunExactStatevector) {
  Prng rng(21);
  const Circuit c = random_circuit(4, 25, rng);
  const auto theta = random_vector(c.num_trainable(), rng);
  const auto input = random_vector(c.num_inputs(), rng);
  const auto plan = exec::CompiledCircuit::compile(c);

  backend::StatevectorBackend backend(0);
  const auto evals = plain_evals(theta, input, 5);
  const auto batched = backend.run_batch(plan, evals, 2);
  for (const auto& result : batched) {
    const auto looped = backend.run(c, theta, input);
    ASSERT_EQ(looped.size(), result.size());
    for (std::size_t q = 0; q < looped.size(); ++q)
      EXPECT_EQ(looped[q], result[q]);
  }
  // 5 batched + 5 looped runs above.
  EXPECT_EQ(backend.inference_count(), 10u);
}

TEST(RunBatch, MatchesLoopedRunSampledStatevector) {
  Prng rng(22);
  const Circuit c = random_circuit(4, 20, rng);
  const auto theta = random_vector(c.num_trainable(), rng);
  const auto input = random_vector(c.num_inputs(), rng);
  const auto plan = exec::CompiledCircuit::compile(c);

  backend::StatevectorBackend a(256, 777);
  backend::StatevectorBackend b(256, 777);
  std::vector<std::vector<double>> looped;
  for (int k = 0; k < 6; ++k) looped.push_back(a.run(c, theta, input));
  const auto batched = b.run_batch(plan, plain_evals(theta, input, 6), 3);
  ASSERT_EQ(looped.size(), batched.size());
  for (std::size_t k = 0; k < looped.size(); ++k)
    for (std::size_t q = 0; q < looped[k].size(); ++q)
      EXPECT_EQ(looped[k][q], batched[k][q]);
}

TEST(RunBatch, MatchesLoopedRunDensityMatrix) {
  Prng rng(23);
  const qml::QnnModel model = qml::make_fashion4_model();
  const auto theta = model.init_params(rng);
  const std::vector<double> input = random_vector(16, rng);

  backend::DensityMatrixBackend a(noise::DeviceModel::ibmq_manila());
  backend::DensityMatrixBackend b(noise::DeviceModel::ibmq_manila());
  const auto looped = a.run(model.circuit(), theta, input);
  const auto batched =
      b.run_batch(model.plan(), plain_evals(theta, input, 3), 2);
  for (const auto& result : batched)
    for (std::size_t q = 0; q < looped.size(); ++q)
      EXPECT_EQ(looped[q], result[q]);
}

TEST(RunBatch, MatchesLoopedRunNoisyBackend) {
  Prng rng(24);
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto theta = model.init_params(rng);
  const std::vector<double> input = random_vector(16, rng);

  backend::NoisyBackendOptions opt;
  opt.shots = 128;
  backend::NoisyBackend a(noise::DeviceModel::ibmq_santiago(), opt);
  backend::NoisyBackend b(noise::DeviceModel::ibmq_santiago(), opt);

  std::vector<std::vector<double>> looped;
  for (int k = 0; k < 4; ++k) looped.push_back(a.run(model.circuit(), theta,
                                                     input));
  const auto batched =
      b.run_batch(model.plan(), plain_evals(theta, input, 4), 2);
  ASSERT_EQ(looped.size(), batched.size());
  for (std::size_t k = 0; k < looped.size(); ++k)
    for (std::size_t q = 0; q < looped[k].size(); ++q)
      EXPECT_EQ(looped[k][q], batched[k][q]);
}

// ---- Transpile template ----------------------------------------------------

TEST(TranspileTemplate, MatchesFullTranspile) {
  Prng rng(31);
  const auto device = noise::DeviceModel::ibmq_manila();
  for (int trial = 0; trial < 10; ++trial) {
    const Circuit c = random_circuit(4, 25, rng);
    const auto theta = random_vector(c.num_trainable(), rng);
    const auto input = random_vector(c.num_inputs(), rng);

    const auto full = transpile::transpile(c, theta, input, device);

    const auto tmpl = transpile::route_template(c, device);
    const auto plan = exec::CompiledCircuit::compile(c);
    std::vector<double> angles;
    plan.resolve_source_angles(theta, input, exec::Evaluation::kNoShift, 0.0,
                               angles);
    const auto cached = transpile::transpile_with_angles(tmpl, angles, device);

    ASSERT_EQ(full.ops.size(), cached.ops.size());
    for (std::size_t i = 0; i < full.ops.size(); ++i) {
      EXPECT_EQ(full.ops[i].kind, cached.ops[i].kind);
      EXPECT_EQ(full.ops[i].qubits, cached.ops[i].qubits);
      EXPECT_EQ(full.ops[i].angle, cached.ops[i].angle);
    }
    EXPECT_EQ(full.final_layout, cached.final_layout);
    EXPECT_EQ(full.n_swaps_inserted, cached.n_swaps_inserted);
    EXPECT_EQ(full.stats.total(), cached.stats.total());
    EXPECT_EQ(full.stats.depth, cached.stats.depth);
  }
}

TEST(TranspileTemplate, CacheInvalidatedOnStructureChange) {
  // Feed one backend two different circuit structures back to back; the
  // second result must match what a fresh backend computes, i.e. the
  // first structure's cached routing must not leak into the second.
  Prng rng(32);
  const qml::QnnModel model_a = qml::make_fashion4_model();
  const qml::QnnModel model_b = qml::make_mnist4_model();
  const auto theta_a = model_a.init_params(rng);
  const auto theta_b = model_b.init_params(rng);
  const std::vector<double> input = random_vector(16, rng);

  backend::DensityMatrixBackend warm(noise::DeviceModel::ibmq_manila());
  const auto a_result = warm.run(model_a.circuit(), theta_a, input);
  const auto b_after_a = warm.run(model_b.circuit(), theta_b, input);

  backend::DensityMatrixBackend fresh(noise::DeviceModel::ibmq_manila());
  const auto b_fresh = fresh.run(model_b.circuit(), theta_b, input);

  ASSERT_EQ(b_after_a.size(), b_fresh.size());
  for (std::size_t q = 0; q < b_fresh.size(); ++q)
    EXPECT_EQ(b_after_a[q], b_fresh[q]);

  // Sanity: the two structures genuinely differ.
  EXPECT_FALSE(
      exec::structure_equal(model_a.plan().source(), model_b.plan().source()));
}

// ---- ParameterShiftEngine parity -------------------------------------------

/// The pre-plan batch_gradient algorithm, verbatim: shifted circuit
/// copies executed one by one through run().
train::BatchGradient reference_batch_gradient(
    backend::Backend& backend, const qml::QnnModel& model,
    std::span<const double> theta, const data::Dataset& dataset,
    std::span<const std::size_t> batch, const std::vector<bool>* mask) {
  const int n_params = model.num_params();
  train::BatchGradient out;
  out.grad.assign(static_cast<std::size_t>(n_params), 0.0);
  const std::uint64_t inf_before = backend.inference_count();
  std::vector<double> losses(batch.size(), 0.0);
  std::vector<std::vector<double>> grads(
      batch.size(),
      std::vector<double>(static_cast<std::size_t>(n_params), 0.0));
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t idx = batch[k];
    const auto& x = dataset.features[idx];
    const int y = dataset.labels[idx];
    const auto expvals = backend.run(model.circuit(), theta, x);
    const auto logits = model.head().forward(expvals);
    losses[k] = autodiff::cross_entropy(logits, y);
    const auto grad_logits = autodiff::cross_entropy_grad(logits, y);
    const auto grad_f = model.head().backward(grad_logits);
    for (int i = 0; i < n_params; ++i) {
      if (mask && !(*mask)[static_cast<std::size_t>(i)]) continue;
      std::vector<double> dfi(
          static_cast<std::size_t>(model.circuit().num_qubits()), 0.0);
      for (const std::size_t op_idx : model.circuit().ops_for_param(i)) {
        const auto plus = train::with_op_offset(model.circuit(), op_idx,
                                                kHalfPi);
        const auto minus = train::with_op_offset(model.circuit(), op_idx,
                                                 -kHalfPi);
        const auto f_plus = backend.run(plus, theta, x);
        const auto f_minus = backend.run(minus, theta, x);
        for (std::size_t q = 0; q < dfi.size(); ++q)
          dfi[q] += 0.5 * (f_plus[q] - f_minus[q]);
      }
      double dot = 0.0;
      for (std::size_t q = 0; q < dfi.size(); ++q) dot += grad_f[q] * dfi[q];
      grads[k][static_cast<std::size_t>(i)] = dot;
    }
  }
  for (std::size_t k = 0; k < batch.size(); ++k) {
    out.loss += losses[k];
    for (std::size_t i = 0; i < out.grad.size(); ++i)
      out.grad[i] += grads[k][i];
  }
  const double inv = 1.0 / static_cast<double>(batch.size());
  for (auto& g : out.grad) g *= inv;
  out.loss *= inv;
  out.inferences = backend.inference_count() - inf_before;
  return out;
}

data::Dataset tiny_dataset(int n_examples, int feature_dim, int n_classes,
                           Prng& rng) {
  data::Dataset d;
  for (int i = 0; i < n_examples; ++i) {
    std::vector<double> x(static_cast<std::size_t>(feature_dim));
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    d.features.push_back(std::move(x));
    d.labels.push_back(static_cast<int>(rng.uniform_int(n_classes)));
  }
  return d;
}

TEST(ParameterShiftParity, BatchGradientBitIdenticalExactMode) {
  Prng rng(41);
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto theta = model.init_params(rng);
  const auto dataset = tiny_dataset(6, model.num_inputs(),
                                    model.num_classes(), rng);
  const std::vector<std::size_t> batch = {0, 2, 3, 5};

  backend::StatevectorBackend ref_backend(0);
  const auto ref = reference_batch_gradient(ref_backend, model, theta,
                                            dataset, batch, nullptr);

  for (const unsigned threads : {1u, 4u}) {
    backend::StatevectorBackend backend(0);
    train::ParameterShiftEngine engine(backend, model);
    engine.set_threads(threads);
    const auto got = engine.batch_gradient(theta, dataset, batch);

    EXPECT_EQ(ref.loss, got.loss) << "threads=" << threads;
    EXPECT_EQ(ref.inferences, got.inferences) << "threads=" << threads;
    ASSERT_EQ(ref.grad.size(), got.grad.size());
    for (std::size_t i = 0; i < ref.grad.size(); ++i)
      EXPECT_EQ(ref.grad[i], got.grad[i])
          << "threads=" << threads << " param " << i;
  }
}

TEST(ParameterShiftParity, MaskedBatchGradientBitIdentical) {
  Prng rng(42);
  const qml::QnnModel model = qml::make_vowel4_model();
  const auto theta = model.init_params(rng);
  const auto dataset = tiny_dataset(4, model.num_inputs(),
                                    model.num_classes(), rng);
  const std::vector<std::size_t> batch = {0, 1, 3};
  std::vector<bool> mask(static_cast<std::size_t>(model.num_params()));
  for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = i % 3 != 1;

  backend::StatevectorBackend ref_backend(0);
  const auto ref = reference_batch_gradient(ref_backend, model, theta,
                                            dataset, batch, &mask);

  backend::StatevectorBackend backend(0);
  train::ParameterShiftEngine engine(backend, model);
  const auto got = engine.batch_gradient(theta, dataset, batch, &mask);

  EXPECT_EQ(ref.loss, got.loss);
  EXPECT_EQ(ref.inferences, got.inferences);
  for (std::size_t i = 0; i < ref.grad.size(); ++i)
    EXPECT_EQ(ref.grad[i], got.grad[i]) << "param " << i;
}

TEST(ParameterShiftParity, JacobianThreadCountInvariant) {
  Prng rng(43);
  const qml::QnnModel model = qml::make_fashion4_model();
  const auto theta = model.init_params(rng);
  const std::vector<double> input = random_vector(16, rng);

  backend::StatevectorBackend b1(0), b2(0);
  train::ParameterShiftEngine e1(b1, model), e2(b2, model);
  e1.set_threads(1);
  e2.set_threads(0);
  const auto j1 = e1.jacobian(theta, input);
  const auto j2 = e2.jacobian(theta, input);
  ASSERT_EQ(j1.size(), j2.size());
  for (std::size_t q = 0; q < j1.size(); ++q)
    for (std::size_t i = 0; i < j1[q].size(); ++i)
      EXPECT_EQ(j1[q][i], j2[q][i]);
}

// ---- Specialized statevector kernels ---------------------------------------

sim::Statevector random_state(int n, Prng& rng) {
  sim::Statevector sv(n);
  std::vector<cplx> amps(sv.dim());
  for (auto& a : amps) a = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  sv.set_amplitudes(std::move(amps));
  sv.normalize();
  return sv;
}

TEST(StatevectorKernels, SpecializedMatchGenericDensePath) {
  Prng rng(51);
  const int n = 4;
  for (int trial = 0; trial < 10; ++trial) {
    const int a = static_cast<int>(rng.uniform_int(n));
    int b = static_cast<int>(rng.uniform_int(n));
    while (b == a) b = static_cast<int>(rng.uniform_int(n));
    const auto base = random_state(n, rng);

    auto check = [&](auto&& specialized, const linalg::Matrix& m,
                     const std::vector<int>& qubits) {
      sim::Statevector got = base;
      specialized(got);
      sim::Statevector ref = base;
      ref.apply_matrix(m, qubits);
      for (std::size_t i = 0; i < ref.dim(); ++i) {
        EXPECT_EQ(ref.amplitude(i).real(), got.amplitude(i).real());
        EXPECT_EQ(ref.amplitude(i).imag(), got.amplitude(i).imag());
      }
    };

    check([&](sim::Statevector& sv) { sv.apply_cx(a, b); }, sim::gate_cx(),
          {a, b});
    check([&](sim::Statevector& sv) { sv.apply_cz(a, b); }, sim::gate_cz(),
          {a, b});
    check([&](sim::Statevector& sv) { sv.apply_swap(a, b); },
          sim::gate_swap(), {a, b});

    const double angle = rng.uniform(-3.0, 3.0);
    const auto rz = sim::gate_rz(angle);
    check([&](sim::Statevector& sv) {
      sv.apply_diag_1q(rz(0, 0), rz(1, 1), a);
    }, rz, {a});

    const auto rzz = sim::gate_rzz(angle);
    check([&](sim::Statevector& sv) {
      sv.apply_diag_2q(rzz(0, 0), rzz(1, 1), rzz(2, 2), rzz(3, 3), a, b);
    }, rzz, {a, b});
  }
}

// ---- parallel_for template --------------------------------------------------

TEST(ParallelFor, TemplateCallableAndExceptions) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; }, 4);
  for (const int h : hits) EXPECT_EQ(h, 1);

  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   },
                   4),
      std::runtime_error);
}

}  // namespace
