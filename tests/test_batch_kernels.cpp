// Tests for the evaluation-major (k-wide) batch execution path: the
// lane-grouped run_batch / expect_batch results must be BITWISE identical
// to the scalar per-evaluation path (the oracle), including the non-
// multiple tail, mixed zero-angle bindings, and sampled mode (which runs
// scalar at every lane setting) with pinned RNG streams. Every parity
// case runs under both the AVX2 kernels (KernelMode::Auto, on a CPU that
// has AVX2) and the portable ones (KernelMode::Blocked), the only lane
// path on a CPU without AVX2. Also unit-tests the lane-width policy
// (StatevectorBackendOptions pin, static-table crossover).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/cost_model.hpp"
#include "qoc/sim/kernels.hpp"

namespace {

using namespace qoc::backend;
using qoc::circuit::Circuit;
using qoc::circuit::GateKind;
using qoc::circuit::ParamRef;
using qoc::exec::CompiledCircuit;
using qoc::exec::Evaluation;
using qoc::sim::batch_lane_width;
using qoc::sim::kernels::KernelMode;

constexpr std::uint64_t kSeed = 0xBADC0FFEEULL;

// A structurally rich circuit on n qubits: fixed gates (structured and
// dense), diagonal and dense rotations, controlled rotations, a fused
// 1q run and -- for n >= 3 -- a Ccx, so every apply_batched dispatch arm
// executes. Uses n trainable angles plus 2 encoder inputs.
Circuit dense_circuit(int n) {
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.h(q);
  for (int q = 0; q < n; ++q) c.ry(q, ParamRef::trainable(q));
  for (int q = 0; q + 1 < n; q += 2) c.cx(q, q + 1);
  c.rx(0, ParamRef::input(0, 0.5, 0.1));
  c.rz(n - 1, ParamRef::trainable(0));
  c.phase(0, ParamRef::trainable((n > 1) ? 1 : 0));
  // Fixed s/t extend the diagonal run the rz/phase rotations above open;
  // sx is a cached dense 1q gate.
  c.s(0);
  c.t(0);
  c.sx(0);
  c.x(0);
  c.y(n - 1);
  c.z(0);
  if (n >= 2) {
    c.rzz(0, n - 1, ParamRef::trainable(0));
    c.rxx(0, 1, ParamRef::trainable(n - 1));
    c.crx(0, 1, ParamRef::trainable(0));
    c.cp(1, 0, ParamRef::input(1, 1.0, 0.0));
    c.cz(0, 1);
    c.swap(0, n - 1);
  }
  if (n >= 3) {
    c.ryy(1, 2, ParamRef::trainable(2));
    c.rzx(2, 0, ParamRef::trainable(1));
    c.ccx(0, 1, 2);
  }
  return c;
}

// Batch of `count` evaluations with distinct bindings. Every 5th binding
// is all-zero (the mixed zero-angle case), every 7th carries a parameter
// shift, and -- when `pin_streams` -- every 3rd pins its RNG stream.
struct EvalSet {
  std::vector<std::vector<double>> thetas;
  std::vector<std::vector<double>> inputs;
  std::vector<Evaluation> evals;
};

EvalSet make_evals(int n, std::size_t count, bool pin_streams = false) {
  EvalSet s;
  s.thetas.resize(count);
  s.inputs.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    s.thetas[i].resize(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
      s.thetas[i][static_cast<std::size_t>(q)] =
          (i % 5 == 0) ? 0.0 : 0.3 * static_cast<double>(i + 1) + 0.11 * q;
    s.inputs[i] = {0.25 * static_cast<double>(i), -0.4};
  }
  for (std::size_t i = 0; i < count; ++i) {
    Evaluation e;
    e.theta = s.thetas[i];
    e.input = s.inputs[i];
    if (i % 7 == 3) {
      e.shift_op = static_cast<std::size_t>(n);  // first ry op
      e.shift = 1.5707963267948966;
    }
    if (pin_streams && i % 3 == 0)
      e.rng_stream = (std::uint64_t{1} << 63) | i;
    s.evals.push_back(e);
  }
  return s;
}

StatevectorBackend scalar_backend(int shots = 0) {
  return StatevectorBackend(StatevectorBackendOptions{
      .shots = shots, .seed = kSeed, .batch_lanes = 1});
}

StatevectorBackend wide_backend(int shots = 0, int lanes = -1) {
  return StatevectorBackend(StatevectorBackendOptions{
      .shots = shots, .seed = kSeed, .batch_lanes = lanes});
}

// ---- Policy unit tests -----------------------------------------------------

TEST(BatchLanePolicy, CostModelCrossover) {
  // Under the static table: full width across the supported range,
  // scalar beyond it.
  EXPECT_EQ(batch_lane_width(10, 64), qoc::sim::kBatchedLanes);
  EXPECT_EQ(batch_lane_width(13, 64), qoc::sim::kBatchedLanes);
  EXPECT_EQ(batch_lane_width(qoc::sim::kBatchedLaneMaxQubits, 64),
            qoc::sim::kBatchedLanes);
  EXPECT_EQ(batch_lane_width(qoc::sim::kBatchedLaneMaxQubits + 1, 64), 1u);
  // Tail compaction makes a half-full group profitable, so a width no
  // longer needs k full evaluations: k/2 suffice, one fewer does not.
  EXPECT_EQ(batch_lane_width(10, qoc::sim::kBatchedLanes - 1),
            qoc::sim::kBatchedLanes);
  EXPECT_EQ(batch_lane_width(10, qoc::sim::kBatchedLanes / 2),
            qoc::sim::kBatchedLanes);
  EXPECT_EQ(batch_lane_width(10, qoc::sim::kBatchedLanes / 2 - 1), 1u);
  EXPECT_EQ(batch_lane_width(qoc::sim::kBatchedLaneMaxQubits, 3), 1u);
}

TEST(BatchLanePolicy, OptionsPin) {
  EXPECT_EQ(batch_lane_width(20, 64, 8), 8u);   // pin beats the cost model
  EXPECT_EQ(batch_lane_width(10, 64, 0), 1u);   // kill switch
  EXPECT_EQ(batch_lane_width(10, 64, 1), 1u);
  EXPECT_EQ(batch_lane_width(10, 64, 4), 4u);
  EXPECT_EQ(batch_lane_width(10, 3, 4), 4u);    // half-full batch: compacted
  EXPECT_EQ(batch_lane_width(10, 1, 4), 1u);    // below half: scalar
  EXPECT_EQ(batch_lane_width(10, 64, 7), 6u);   // odd pins clamp down
  EXPECT_EQ(batch_lane_width(10, 64, 40), 32u); // kMaxLanes cap
}

TEST(BatchLanePolicy, PartitionLanes) {
  using qoc::sim::partition_lanes;
  // 260 @ 8: 32 full groups + a 4-eval tail compacted into one padded
  // group (exactly half full) -> 33 groups, nothing scalar.
  auto p = partition_lanes(10, 260, 8);
  EXPECT_EQ(p.lanes, 8u);
  EXPECT_EQ(p.full_groups, 32u);
  EXPECT_EQ(p.padded_evals, 4u);
  EXPECT_EQ(p.groups(), 33u);
  EXPECT_EQ(p.tail_start, 260u);

  // 9 @ 8: a 1-eval tail is below half -> scalar tail, no padded group.
  p = partition_lanes(10, 9, 8);
  EXPECT_EQ(p.full_groups, 1u);
  EXPECT_EQ(p.padded_evals, 0u);
  EXPECT_EQ(p.groups(), 1u);
  EXPECT_EQ(p.tail_start, 8u);

  // 5 @ 8: no full group, but the batch fills >= half the lanes ->
  // one padded group covers everything.
  p = partition_lanes(10, 5, 8);
  EXPECT_EQ(p.lanes, 8u);
  EXPECT_EQ(p.full_groups, 0u);
  EXPECT_EQ(p.padded_evals, 5u);
  EXPECT_EQ(p.groups(), 1u);
  EXPECT_EQ(p.tail_start, 5u);

  // 3 @ 8: below half -> batch_lane_width degrades to scalar outright.
  p = partition_lanes(10, 3, 8);
  EXPECT_EQ(p.lanes, 1u);
  EXPECT_EQ(p.groups(), 0u);
  EXPECT_EQ(p.tail_start, 0u);

  // Beyond the static table's range everything is scalar.
  p = partition_lanes(qoc::sim::kBatchedLaneMaxQubits + 1, 64);
  EXPECT_EQ(p.lanes, 1u);
  EXPECT_EQ(p.tail_start, 0u);
}

// ---- Lane table tests ------------------------------------------------------

TEST(LaneCalibration, StaticTableIsTheDefault) {
  const auto cal = qoc::sim::lane_calibration();
  EXPECT_EQ(cal.serialize(), "v1;1-14:8");
  EXPECT_EQ(cal.source, qoc::sim::LaneCalibrationSource::kDefault);
}

TEST(LaneCalibration, Serialize) {
  using qoc::sim::LaneCalibration;
  LaneCalibration cal;
  cal.width.fill(1);
  cal.width[0] = 0;
  for (int n = 1; n <= 8; ++n) cal.width[n] = 8;
  for (int n = 9; n <= 12; ++n) cal.width[n] = 4;
  cal.width[14] = 2;
  EXPECT_EQ(cal.serialize(), "v1;1-8:8,9-12:4,14:2");
  // All-scalar serializes to the bare header.
  EXPECT_EQ(LaneCalibration::flat(0, 8).serialize(), "v1;");
}

TEST(BatchedStatevectorShape, ValidatesConstruction) {
  using qoc::sim::BatchedStatevector;
  EXPECT_THROW(BatchedStatevector(0, 8), std::invalid_argument);
  EXPECT_THROW(BatchedStatevector(31, 8), std::invalid_argument);
  EXPECT_THROW(BatchedStatevector(4, 0), std::invalid_argument);
  EXPECT_THROW(BatchedStatevector(4, 1), std::invalid_argument);
  EXPECT_THROW(BatchedStatevector(4, 3), std::invalid_argument);  // odd
  EXPECT_THROW(BatchedStatevector(4, 34), std::invalid_argument);
  BatchedStatevector sv(3, 4);
  EXPECT_EQ(sv.num_qubits(), 3);
  EXPECT_EQ(sv.lanes(), 4u);
  EXPECT_EQ(sv.dim(), 8u);
}

// ---- Bitwise parity: run_batch ---------------------------------------------

// Runs each case under GetParam()'s kernel mode and restores Auto.
class BatchKernelParity : public ::testing::TestWithParam<KernelMode> {
 protected:
  void SetUp() override { qoc::sim::kernels::set_kernel_mode(GetParam()); }
  void TearDown() override {
    qoc::sim::kernels::set_kernel_mode(KernelMode::Auto);
  }
};

INSTANTIATE_TEST_SUITE_P(
    KernelModes, BatchKernelParity,
    ::testing::Values(KernelMode::Auto, KernelMode::Blocked),
    [](const ::testing::TestParamInfo<KernelMode>& info) {
      return std::string(info.param == KernelMode::Auto ? "Auto" : "Blocked");
    });

void expect_run_batch_parity(int n, std::size_t count, int shots,
                             bool pin_streams, unsigned threads) {
  const Circuit c = dense_circuit(n);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const EvalSet s = make_evals(n, count, pin_streams);

  StatevectorBackend oracle = scalar_backend(shots);
  StatevectorBackend wide = wide_backend(shots);
  const auto ref = oracle.run_batch(plan, s.evals, threads);
  const auto got = wide.run_batch(plan, s.evals, threads);

  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].size(), got[i].size());
    for (std::size_t q = 0; q < ref[i].size(); ++q)
      EXPECT_EQ(ref[i][q], got[i][q])  // bitwise, not approximate
          << "n=" << n << " eval=" << i << " qubit=" << q;
  }
}

TEST_P(BatchKernelParity, RunBatchExactSmall) {
  expect_run_batch_parity(/*n=*/2, /*count=*/19, /*shots=*/0, false, 1);
}

TEST_P(BatchKernelParity, RunBatchExactMedium) {
  expect_run_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/0, false, 2);
}

TEST_P(BatchKernelParity, RunBatchExactCrossoverEdge) {
  // n = 14 is the largest register the cost model routes to lanes.
  expect_run_batch_parity(/*n=*/14, /*count=*/9, /*shots=*/0, false, 2);
}

TEST_P(BatchKernelParity, RunBatchTailOnlyBatch) {
  // Batch smaller than a lane group: everything takes the scalar tail,
  // and both backends must agree trivially (guards the partition math).
  expect_run_batch_parity(/*n=*/8, /*count=*/5, /*shots=*/0, false, 1);
}

// The serving-workload shape: rotation layers alternating with rzz
// entangling rings. Each ring (a fused diagonal run) butts into the
// next layer's first dense pair, so this pins the fused
// diag-run -> 1q-pair pass; the first layer on |0...0> also exercises
// the all-zero-block skip in the dense kernels. `rot` is the layers'
// gate: RY pairs take the real butterflies, RX pairs the complex ones.
Circuit layered_circuit(int n, GateKind rot) {
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.add(rot, {q}, ParamRef::trainable(q));
  for (int rep = 0; rep < 2; ++rep) {
    for (int q = 0; q < n; ++q)
      c.rzz(q, (q + 1) % n, ParamRef::trainable((q + rep) % n));
    for (int q = 0; q < n; ++q)
      c.add(rot, {q}, ParamRef::trainable((q + rep + 1) % n));
  }
  return c;
}

TEST_P(BatchKernelParity, RunBatchLayeredRingFusion) {
  // Odd n leaves an unpaired layer tail: at n = 5 each ring fuses into
  // the next layer's first pair, leaving a lone pair and a lone dense
  // gate. At n = 14 each layer's first pair streams the buffer and the
  // rest run tiled (kPairTileBytes).
  for (const GateKind rot : {GateKind::Ry, GateKind::Rx}) {
    for (const int n : {2, 5, 8, 14}) {
      const CompiledCircuit plan =
          CompiledCircuit::compile(layered_circuit(n, rot));
      const EvalSet s = make_evals(n, n == 14 ? 9 : 19);
      StatevectorBackend oracle = scalar_backend();
      StatevectorBackend wide = wide_backend();
      const auto ref = oracle.run_batch(plan, s.evals, 1);
      const auto got = wide.run_batch(plan, s.evals, 1);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i].size(), got[i].size());
        for (std::size_t q = 0; q < ref[i].size(); ++q)
          EXPECT_EQ(ref[i][q], got[i][q])  // bitwise, not approximate
              << (rot == GateKind::Rx ? "rx" : "ry") << " n=" << n
              << " eval=" << i << " qubit=" << q;
      }
    }
  }
}

TEST_P(BatchKernelParity, RunBatchRaggedTailCompaction) {
  // Partition shapes around the padded final group: tail exactly half
  // full, tail above half, a batch smaller than one group, and a tail
  // below half (which must fall back to the scalar loop). Results must
  // be bitwise identical to the scalar oracle in every shape.
  struct Shape {
    int lanes;
    std::size_t count;
  };
  const Shape shapes[] = {{8, 132}, {8, 12}, {8, 5}, {8, 9}, {4, 10}, {2, 7}};
  const Circuit c = dense_circuit(6);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  for (const auto& shape : shapes) {
    const EvalSet s = make_evals(6, shape.count);
    StatevectorBackend oracle = scalar_backend();
    StatevectorBackend wide = wide_backend(0, shape.lanes);
    const auto ref = oracle.run_batch(plan, s.evals, 1);
    for (const unsigned threads : {1u, 3u}) {
      const auto got = wide.run_batch(plan, s.evals, threads);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        for (std::size_t q = 0; q < ref[i].size(); ++q)
          EXPECT_EQ(ref[i][q], got[i][q])
              << "lanes=" << shape.lanes << " count=" << shape.count
              << " threads=" << threads << " eval=" << i;
    }
  }
}

TEST_P(BatchKernelParity, RunBatchRaggedTailSampled) {
  // Sampled mode runs the scalar path whatever the lane pin, so a pin
  // whose exact batches would pad a group must not move any
  // evaluation's stream. Mixed pinned and auto streams.
  const Circuit c = dense_circuit(6);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  for (const std::size_t count : {12u, 5u}) {
    const EvalSet s = make_evals(6, count, /*pin_streams=*/true);
    StatevectorBackend oracle = scalar_backend(128);
    StatevectorBackend wide = wide_backend(128, 8);
    const auto ref = oracle.run_batch(plan, s.evals, 2);
    const auto got = wide.run_batch(plan, s.evals, 2);
    for (std::size_t i = 0; i < ref.size(); ++i)
      for (std::size_t q = 0; q < ref[i].size(); ++q)
        EXPECT_EQ(ref[i][q], got[i][q]) << "count=" << count << " i=" << i;
  }
}

qoc::exec::CompiledObservable chain_observable(int n);  // defined below

TEST_P(BatchKernelParity, ExpectBatchRaggedTail) {
  const Circuit c = dense_circuit(6);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const auto obs = chain_observable(6);
  for (const int shots : {0, 128}) {
    for (const std::size_t count : {12u, 5u}) {
      const EvalSet s = make_evals(6, count, /*pin_streams=*/shots > 0);
      StatevectorBackend oracle = scalar_backend(shots);
      StatevectorBackend wide = wide_backend(shots, 8);
      const auto ref = oracle.expect_batch(plan, obs, s.evals, 2);
      const auto got = wide.expect_batch(plan, obs, s.evals, 2);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ref[i], got[i])
            << "shots=" << shots << " count=" << count << " i=" << i;
    }
  }
}

TEST_P(BatchKernelParity, RunBatchSampledAutoStreams) {
  // Sampled mode: stream assignment is submission-order, so the lane
  // policy must not change which stream an evaluation consumes.
  expect_run_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/256, false, 1);
  expect_run_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/256, false, 4);
}

TEST_P(BatchKernelParity, RunBatchSampledPinnedStreams) {
  expect_run_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/128, true, 2);
}

TEST_P(BatchKernelParity, PinnedWidthsAgreeWithScalar) {
  const Circuit c = dense_circuit(6);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const EvalSet s = make_evals(6, 13);
  StatevectorBackend oracle = scalar_backend();
  const auto ref = oracle.run_batch(plan, s.evals);
  for (int lanes : {2, 4, 8}) {
    StatevectorBackend wide = wide_backend(0, lanes);
    const auto got = wide.run_batch(plan, s.evals);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      for (std::size_t q = 0; q < ref[i].size(); ++q)
        EXPECT_EQ(ref[i][q], got[i][q]) << "lanes=" << lanes << " i=" << i;
  }
}

// ---- Bitwise parity: expect_batch ------------------------------------------

// Heisenberg-style chain built directly from raw terms (the Hamiltonian
// factory caps at 10 qubits; the crossover test needs 14).
qoc::exec::CompiledObservable chain_observable(int n) {
  std::vector<qoc::exec::ObservableTerm> terms;
  terms.push_back({std::string(static_cast<std::size_t>(n), 'I'), 0.25});
  for (int q = 0; q + 1 < n; ++q) {
    for (char p : {'X', 'Y', 'Z'}) {
      std::string s(static_cast<std::size_t>(n), 'I');
      s[static_cast<std::size_t>(q)] = p;
      s[static_cast<std::size_t>(q) + 1] = p;
      terms.push_back({s, 0.9 + 0.01 * q});
    }
  }
  return qoc::exec::CompiledObservable::compile(n, terms);
}

void expect_expect_batch_parity(int n, std::size_t count, int shots,
                                unsigned threads) {
  const Circuit c = dense_circuit(n);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const auto obs = chain_observable(n);
  const EvalSet s = make_evals(n, count, /*pin_streams=*/shots > 0);

  StatevectorBackend oracle = scalar_backend(shots);
  StatevectorBackend wide = wide_backend(shots);
  const auto ref = oracle.expect_batch(plan, obs, s.evals, threads);
  const auto got = wide.expect_batch(plan, obs, s.evals, threads);

  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref[i], got[i]) << "n=" << n << " eval=" << i;
}

TEST_P(BatchKernelParity, ExpectBatchExact) {
  expect_expect_batch_parity(/*n=*/2, /*count=*/19, /*shots=*/0, 1);
  expect_expect_batch_parity(/*n=*/8, /*count=*/19, /*shots=*/0, 2);
}

TEST_P(BatchKernelParity, ExpectBatchExactCrossoverEdge) {
  expect_expect_batch_parity(/*n=*/14, /*count=*/9, /*shots=*/0, 2);
}

TEST_P(BatchKernelParity, ExpectBatchSampled) {
  // Sampled energies: one measurement per commuting group; the
  // per-evaluation stream must see the exact draw sequence of the scalar
  // path (groups outer, shots inner) whatever the lane policy.
  expect_expect_batch_parity(/*n=*/6, /*count=*/19, /*shots=*/128, 1);
  expect_expect_batch_parity(/*n=*/6, /*count=*/19, /*shots=*/128, 4);
}

TEST_P(BatchKernelParity, RunThenRunBatchSampledSerialStateMatches) {
  // Interleaving: a backend that already served single runs must still
  // assign batch streams exactly like the scalar backend would.
  const Circuit c = dense_circuit(4);
  const CompiledCircuit plan = CompiledCircuit::compile(c);
  const EvalSet s = make_evals(4, 17);

  StatevectorBackend oracle = scalar_backend(64);
  StatevectorBackend wide = wide_backend(64);
  (void)oracle.run(plan, s.thetas[0], s.inputs[0]);
  (void)wide.run(plan, s.thetas[0], s.inputs[0]);
  const auto ref = oracle.run_batch(plan, s.evals);
  const auto got = wide.run_batch(plan, s.evals);
  for (std::size_t i = 0; i < ref.size(); ++i)
    for (std::size_t q = 0; q < ref[i].size(); ++q)
      EXPECT_EQ(ref[i][q], got[i][q]);
}

}  // namespace
