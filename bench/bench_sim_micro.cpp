// Google-benchmark micro-benchmarks for the hot paths of the stack:
// statevector gate application, noisy device execution, transpilation,
// and a full parameter-shift gradient step.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/data/images.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/kernels.hpp"
#include "qoc/sim/statevector.hpp"
#include "qoc/train/param_shift.hpp"
#include "qoc/transpile/transpile.hpp"

namespace {

using namespace qoc;

/// Cycles a 1q gate over every qubit so all stride regimes (contiguous
/// low-qubit pairs through dim/2-strided high qubits) are averaged in.
void apply_1q_cycle(benchmark::State& state, sim::kernels::KernelMode mode) {
  const int n = static_cast<int>(state.range(0));
  sim::kernels::set_kernel_mode(mode);
  sim::Statevector sv(n);
  const auto g = sim::gate_ry(0.7);
  int q = 0;
  for (auto _ : state) {
    sv.apply_1q(g, q);
    q = (q + 1) % n;
  }
  sim::kernels::set_kernel_mode(sim::kernels::KernelMode::Auto);
  state.SetItemsProcessed(state.iterations() << n);
  state.SetLabel(mode == sim::kernels::KernelMode::Scalar
                     ? "scalar"
                     : sim::kernels::simd_backend());
}

void BM_Apply1q(benchmark::State& state) {
  apply_1q_cycle(state, sim::kernels::KernelMode::Auto);
}
BENCHMARK(BM_Apply1q)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

/// The pre-SIMD reference loops on the same cycle; the n >= 16 lines are
/// the kernel-regression guard (Auto must stay well ahead of Scalar).
void BM_Apply1qScalar(benchmark::State& state) {
  apply_1q_cycle(state, sim::kernels::KernelMode::Scalar);
}
BENCHMARK(BM_Apply1qScalar)->Arg(16)->Arg(20);

/// Observability overhead on a kernel-scale inner loop: the same 1q
/// cycle with one QOC_TRACE_SPAN per gate, tracer disabled (arg 1 = 0,
/// cost of the enabled-flag check) vs enabled (arg 1 = 1, two clock
/// reads + one ring write per span). The production instrumentation
/// spans batches, not gates; this line is the worst-case per-event
/// bound quoted in the docs. QOC_OBS=0 builds compile the span away.
void BM_Apply1qSpanOverhead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool traced = state.range(1) != 0;
  if (traced)
    obs::Tracer::instance().start(1 << 16);
  else
    obs::Tracer::instance().stop();
  sim::Statevector sv(n);
  const auto g = sim::gate_ry(0.7);
  int q = 0;
  for (auto _ : state) {
    QOC_TRACE_SPAN("bench", "apply_1q");
    sv.apply_1q(g, q);
    q = (q + 1) % n;
  }
  if (traced) {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().clear();
  }
  state.SetItemsProcessed(state.iterations() << n);
  state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_Apply1qSpanOverhead)->Args({12, 0})->Args({12, 1});

void apply_2q_cycle(benchmark::State& state, sim::kernels::KernelMode mode) {
  const int n = static_cast<int>(state.range(0));
  sim::kernels::set_kernel_mode(mode);
  sim::Statevector sv(n);
  const auto g = sim::gate_rzz(0.7);
  int q = 0;
  for (auto _ : state) {
    sv.apply_2q(g, q, (q + 1) % n);
    q = (q + 1) % n;
  }
  sim::kernels::set_kernel_mode(sim::kernels::KernelMode::Auto);
  state.SetItemsProcessed(state.iterations() << n);
  state.SetLabel(mode == sim::kernels::KernelMode::Scalar
                     ? "scalar"
                     : sim::kernels::simd_backend());
}

void BM_Apply2q(benchmark::State& state) {
  apply_2q_cycle(state, sim::kernels::KernelMode::Auto);
}
BENCHMARK(BM_Apply2q)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_Apply2qScalar(benchmark::State& state) {
  apply_2q_cycle(state, sim::kernels::KernelMode::Scalar);
}
BENCHMARK(BM_Apply2qScalar)->Arg(16)->Arg(20);

/// Full compiled-plan execution of a hardware-efficient layer stack at
/// n >= 16: the end-to-end statevector run line the blocked/SIMD kernels
/// are meant to move (ry/rz rotations, cz chain, rzz ring).
void statevector_run_large(benchmark::State& state,
                           sim::kernels::KernelMode mode) {
  const int n = static_cast<int>(state.range(0));
  circuit::Circuit c(n);
  int t = 0;
  for (int layer = 0; layer < 2; ++layer) {
    for (int q = 0; q < n; ++q)
      c.add(circuit::GateKind::Ry, {q}, circuit::ParamRef::trainable(t++));
    for (int q = 0; q + 1 < n; ++q) c.add(circuit::GateKind::Cz, {q, q + 1});
    for (int q = 0; q + 1 < n; q += 2)
      c.add(circuit::GateKind::Rzz, {q, q + 1},
            circuit::ParamRef::trainable(t++));
  }
  const auto plan = exec::CompiledCircuit::compile(c);
  Prng rng(9);
  std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()));
  for (auto& v : theta) v = rng.uniform(-1, 1);
  std::vector<double> angles;
  sim::kernels::set_kernel_mode(mode);
  sim::Statevector sv(n);
  for (auto _ : state) {
    plan.resolve_slots(theta, {}, exec::Evaluation::kNoShift, 0.0, angles);
    sv.reset();
    plan.apply(sv, angles);
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  sim::kernels::set_kernel_mode(sim::kernels::KernelMode::Auto);
  state.SetLabel(mode == sim::kernels::KernelMode::Scalar
                     ? "scalar"
                     : sim::kernels::simd_backend());
}

void BM_StatevectorRunLargeN(benchmark::State& state) {
  statevector_run_large(state, sim::kernels::KernelMode::Auto);
}
BENCHMARK(BM_StatevectorRunLargeN)->Arg(16)->Arg(18)->Arg(20);

void BM_StatevectorRunLargeNScalar(benchmark::State& state) {
  statevector_run_large(state, sim::kernels::KernelMode::Scalar);
}
BENCHMARK(BM_StatevectorRunLargeNScalar)->Arg(16)->Arg(18)->Arg(20);

void BM_ExpectationZAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Prng rng(1);
  sim::Statevector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_1q(sim::gate_ry(rng.uniform(0, 3)), q);
  for (auto _ : state) benchmark::DoNotOptimize(sv.expectation_z_all());
}
BENCHMARK(BM_ExpectationZAll)->Arg(4)->Arg(10)->Arg(16);

void BM_Sample1024Shots(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Prng rng(2);
  sim::Statevector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_1q(sim::gate_h(), q);
  for (auto _ : state) benchmark::DoNotOptimize(sv.sample(1024, rng));
}
BENCHMARK(BM_Sample1024Shots)->Arg(4)->Arg(10)->Arg(16);

// The uniform superposition above is std::lower_bound's worst case
// (every search level a coin flip). A product of small RY rotations
// peaks the mass near |0...0>, so most draws share one search path.
// With the guide table sized min(dim, bit_ceil(shots)), n = 4 and 10
// sit on the dim <= shots side and n = 16 on the dim > shots side.
void BM_Sample1024ShotsPeaked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Prng rng(2);
  sim::Statevector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_1q(sim::gate_ry(0.4), q);
  for (auto _ : state) benchmark::DoNotOptimize(sv.sample(1024, rng));
}
BENCHMARK(BM_Sample1024ShotsPeaked)->Arg(4)->Arg(10)->Arg(16);

// Counts form of BM_Sample1024Shots, reusing one sampler the way the
// estimator's and the statevector backend's per-chunk scratch does.
void BM_SampleCounts1024Shots(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Prng rng(2);
  sim::Statevector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_1q(sim::gate_h(), q);
  sim::ShotSampler sampler;
  for (auto _ : state) {
    const auto& counts = sv.sample_counts(1024, rng, sampler);
    benchmark::DoNotOptimize(counts.outcomes.data());
  }
}
BENCHMARK(BM_SampleCounts1024Shots)->Arg(4)->Arg(10)->Arg(16);

void BM_TranspileTaskCircuit(benchmark::State& state) {
  const qml::QnnModel model = qml::make_fashion4_model();
  Prng rng(3);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  const auto device = noise::DeviceModel::ibmq_manila();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        transpile::transpile(model.circuit(), theta, input, device));
}
BENCHMARK(BM_TranspileTaskCircuit);

void BM_NoisyBackendRun(benchmark::State& state) {
  const qml::QnnModel model = qml::make_mnist2_model();
  Prng rng(4);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  backend::NoisyBackendOptions opt;
  opt.shots = 256;
  backend::NoisyBackend qc(noise::DeviceModel::ibmq_santiago(), opt);
  for (auto _ : state)
    benchmark::DoNotOptimize(qc.run(model.circuit(), theta, input));
}
BENCHMARK(BM_NoisyBackendRun);

void BM_ParameterShiftJacobian(benchmark::State& state) {
  const qml::QnnModel model = qml::make_mnist2_model();
  backend::StatevectorBackend backend(0);
  train::ParameterShiftEngine engine(backend, model);
  Prng rng(5);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.jacobian(theta, input));
}
BENCHMARK(BM_ParameterShiftJacobian);

void BM_ParameterShiftJacobianPooled(benchmark::State& state) {
  // Same Jacobian fanned over the persistent thread pool (0 = one worker
  // per hardware core). Before the pool, this configuration spawned and
  // joined fresh std::threads on every ~tens-of-microseconds batch.
  const qml::QnnModel model = qml::make_mnist2_model();
  backend::StatevectorBackend backend(0);
  train::ParameterShiftEngine engine(backend, model);
  engine.set_threads(0);
  Prng rng(5);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.jacobian(theta, input));
}
BENCHMARK(BM_ParameterShiftJacobianPooled);

// ---- Compiled execution plans ----------------------------------------------
// The bind-once-run-many engine vs the generic per-run path, on the same
// circuit and bindings.

void BM_StatevectorRunUncompiled(benchmark::State& state) {
  // The pre-plan hot path: resolve every ParamRef, build every gate
  // matrix, apply through the generic dense kernel.
  const qml::QnnModel model = qml::make_fashion4_model();
  Prng rng(6);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  const auto& c = model.circuit();
  for (auto _ : state) {
    sim::Statevector sv(c.num_qubits());
    for (const auto& op : c.ops()) {
      const double angle = circuit::resolve_angle(op.param, theta, input);
      sv.apply_matrix(circuit::gate_matrix(op.kind, angle), op.qubits);
    }
    benchmark::DoNotOptimize(sv.expectation_z_all());
  }
}
BENCHMARK(BM_StatevectorRunUncompiled);

void BM_StatevectorRunCompiled(benchmark::State& state) {
  const qml::QnnModel model = qml::make_fashion4_model();
  Prng rng(6);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  const auto& plan = model.plan();
  std::vector<double> angles;
  for (auto _ : state) {
    plan.resolve_slots(theta, input, exec::Evaluation::kNoShift, 0.0, angles);
    sim::Statevector sv(plan.num_qubits());
    plan.apply(sv, angles);
    benchmark::DoNotOptimize(sv.expectation_z_all());
  }
}
BENCHMARK(BM_StatevectorRunCompiled);

void BM_RunBatchExact(benchmark::State& state) {
  // One batched submission of `range(0)` evaluations on all cores.
  const qml::QnnModel model = qml::make_fashion4_model();
  Prng rng(7);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  backend::StatevectorBackend backend(0);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<exec::Evaluation> evals(n);
  for (auto& e : evals) {
    e.theta = theta;
    e.input = input;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(backend.run_batch(model.plan(), evals, 0));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RunBatchExact)->Arg(16)->Arg(64)->Arg(256);

/// The layered ring ansatz the evaluation-major benchmarks share: one
/// RY column, then two RZZ-ring + RY columns, all trainable.
circuit::Circuit layered_ring_ansatz(int n) {
  circuit::Circuit c(n);
  for (int q = 0; q < n; ++q) c.ry(q, circuit::ParamRef::trainable(q));
  for (int l = 0; l < 2; ++l) {
    for (int q = 0; q < n; ++q)
      c.rzz(q, (q + 1) % n, circuit::ParamRef::trainable((q + l) % n));
    for (int q = 0; q < n; ++q)
      c.ry(q, circuit::ParamRef::trainable((q + l + 1) % n));
  }
  return c;
}

/// Distinct per-evaluation bindings for layered_ring_ansatz(n);
/// `thetas` owns the angle storage the evaluations point into.
std::vector<exec::Evaluation> distinct_bindings(
    int n, std::size_t batch, std::vector<std::vector<double>>& thetas) {
  thetas.assign(batch, {});
  std::vector<exec::Evaluation> evals(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    thetas[i].resize(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
      thetas[i][static_cast<std::size_t>(q)] =
          0.01 * static_cast<double>(i) + 0.1 * q;
    evals[i].theta = thetas[i];
  }
  return evals;
}

void BM_RunBatchDistinctBindings(benchmark::State& state) {
  // The evaluation-major acceptance line: 256 DISTINCT bindings of one
  // compiled structure, scalar per-evaluation execution (lanes:1) vs
  // the k-wide SoA lane path (lanes:-1, the static table's width 8 up
  // to n = 14). Same layered ansatz on range(0) qubits; the ratio at
  // equal n is the lane-path speedup. tools/check_bench_ratio.py
  // asserts the n=10 ratio from the JSON output in CI.
  const int n = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  const auto plan = exec::CompiledCircuit::compile(layered_ring_ansatz(n));
  constexpr std::size_t kBatch = 256;
  std::vector<std::vector<double>> thetas;
  const auto evals = distinct_bindings(n, kBatch, thetas);
  backend::StatevectorBackend backend(backend::StatevectorBackendOptions{
      .shots = 0, .seed = 1, .batch_lanes = lanes});
  for (auto _ : state)
    benchmark::DoNotOptimize(backend.run_batch(plan, evals, 0));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatch));
  state.SetLabel(lanes == 1 ? "scalar" : "k-wide(auto)");
}
BENCHMARK(BM_RunBatchDistinctBindings)
    ->Args({10, 1})
    ->Args({10, -1})
    ->Args({14, 1})
    ->Args({14, -1});

void BM_RunBatchRaggedTail(benchmark::State& state) {
  // Ragged-tail compaction: per-binding cost of a batch whose size is
  // NOT a lane-width multiple. At k=8 pinned, 132 bindings run 16 full
  // groups plus one half-real padded group (vs 128 = 16 full groups);
  // the items/s lines should agree within ~10% -- before compaction
  // the 4-binding tail fell back to the scalar path and dominated.
  const int n = 10;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const auto plan = exec::CompiledCircuit::compile(layered_ring_ansatz(n));
  std::vector<std::vector<double>> thetas;
  const auto evals = distinct_bindings(n, batch, thetas);
  backend::StatevectorBackend backend(backend::StatevectorBackendOptions{
      .shots = 0, .seed = 1, .batch_lanes = 8});
  for (auto _ : state)
    benchmark::DoNotOptimize(backend.run_batch(plan, evals, 0));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
  state.SetLabel(batch % 8 == 0 ? "aligned" : "ragged");
}
BENCHMARK(BM_RunBatchRaggedTail)->Arg(128)->Arg(132);

void BM_TranspileWithTemplate(benchmark::State& state) {
  // Cached routing vs BM_TranspileTaskCircuit's full pipeline: this is
  // the per-binding lowering NoisyBackend and DensityMatrixBackend run
  // for every evaluation.
  const qml::QnnModel model = qml::make_fashion4_model();
  Prng rng(3);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  const auto device = noise::DeviceModel::ibmq_manila();
  const auto tmpl = transpile::route_template(model.circuit(), device);
  std::vector<double> angles;
  for (auto _ : state) {
    model.plan().resolve_source_angles(theta, input,
                                       exec::Evaluation::kNoShift, 0.0,
                                       angles);
    benchmark::DoNotOptimize(
        transpile::transpile_with_angles(tmpl, angles, device));
  }
}
BENCHMARK(BM_TranspileWithTemplate);

void BM_NoisyBackendRunBatch(benchmark::State& state) {
  const qml::QnnModel model = qml::make_mnist2_model();
  Prng rng(4);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.5);
  backend::NoisyBackendOptions opt;
  opt.shots = 256;
  backend::NoisyBackend qc(noise::DeviceModel::ibmq_santiago(), opt);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<exec::Evaluation> evals(n);
  for (auto& e : evals) {
    e.theta = theta;
    e.input = input;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(qc.run_batch(model.plan(), evals, 0));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_NoisyBackendRunBatch)->Arg(8)->Arg(32);

void BM_ImagePipeline(benchmark::State& state) {
  data::SyntheticImages gen(data::SyntheticImages::Style::Fashion, 4, 6);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto img = gen.generate(static_cast<int>(i % 4), i);
    benchmark::DoNotOptimize(data::image_to_features(img));
    ++i;
  }
}
BENCHMARK(BM_ImagePipeline);

}  // namespace

QOC_BENCHMARK_JSON_MAIN("sim_micro")
