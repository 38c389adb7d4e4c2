// NoisyBackend's exact readout (shots = 0) against the Kraus-channel
// reference device (support/device_reference.hpp), within 1e-12:
//
//  * the five task models on the devices the paper trains them on, under
//    each noise source alone and all together, at the benches' noise
//    x2.5;
//  * the gap device's two circuits, at noise x1 and x2.5;
//  * seeded random circuits on at most 5 active qubits, reaching what the
//    tasks do not: X gates, the RXX, RZX, CRX and Toffoli lowerings, a
//    measured qubit with no gate, and X- and Y-basis expect_batch groups.
//
// The reference itself is checked against the ideal statevector with
// every noise source off. test_device_reference_heavy runs the full sweep
// and wider circuits.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "qoc/backend/backend.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/transpile/transpile.hpp"
#include "support/device_reference.hpp"

namespace {

using namespace qoc::reference;
using qoc::Prng;
using qoc::circuit::Circuit;
using qoc::circuit::GateKind;
using qoc::noise::DeviceModel;

constexpr std::uint64_t kBindingSeed = 0xE1AC7ULL;

TEST(DeviceReference, NoiseFreeReferenceIsTheIdealCircuit) {
  // Lowering, routing, compaction and readout of the reference against
  // StatevectorBackend, which shares none of them.
  qoc::backend::StatevectorBackend ideal;
  Prng rng(0x1DEA1ULL);
  const NoiseConfig off{"off", false, false, false};
  for (int i = 0; i < 6; ++i) {
    const DeviceModel device =
        i % 2 ? gap_device() : DeviceModel::ibmq_jakarta();
    const Circuit c = random_circuit(2 + i % 4, 14, i % 3 == 0, rng);
    const auto observable = random_observable(c.num_qubits(), rng);
    const Bindings b(c, 2, kBindingSeed);
    const ReferenceDevice ref(device, exact_options(off, 1.0));
    const auto plan = qoc::exec::CompiledCircuit::compile(c);
    const auto z = ideal.run_batch(plan, b.evals);
    const auto energies = ideal.expect_batch(plan, observable, b.evals);
    for (std::size_t k = 0; k < b.evals.size(); ++k) {
      const Evolved e = ref.evolve(c, b.theta[k], b.input[k]);
      const auto got = ref.z_all(e);
      ASSERT_EQ(got.size(), z[k].size());
      for (std::size_t l = 0; l < got.size(); ++l)
        EXPECT_NEAR(got[l], z[k][l], kTolerance)
            << "circuit " << i << " binding " << k << " <Z_" << l << ">";
      EXPECT_NEAR(ref.energy(e, observable), energies[k], kTolerance)
          << "circuit " << i << " binding " << k << " energy";
    }
  }
}

TEST(DeviceReference, PaperTasksOnTheirDevices) {
  const std::pair<const char*, DeviceModel> cases[] = {
      {"mnist4", DeviceModel::ibmq_jakarta()},
      {"mnist2", DeviceModel::ibmq_jakarta()},
      {"fashion4", DeviceModel::ibmq_manila()},
      {"fashion2", DeviceModel::ibmq_santiago()},
      {"vowel4", DeviceModel::ibmq_lima()}};
  for (const auto& [task, device] : cases) {
    const Circuit c = qoc::qml::make_task_model(task).circuit();
    const Bindings b(c, 2, kBindingSeed);
    for (const auto& noise : kNoiseConfigs)
      expect_engine_matches(device, exact_options(noise, 2.5), c,
                            heisenberg(c), b,
                            device.name + " " + task + " noise=" + noise.name);
  }
}

TEST(DeviceReference, GapCircuits) {
  const DeviceModel device = gap_device();
  const auto circuits = gap_circuits();
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const Bindings b(circuits[i], 2, kBindingSeed);
    for (const auto& noise : kNoiseConfigs)
      for (const double scale : {1.0, 2.5})
        expect_engine_matches(device, exact_options(noise, scale), circuits[i],
                              heisenberg(circuits[i]), b,
                              "gap_circuit_" + std::to_string(i) +
                                  " noise=" + noise.name +
                                  " scale=" + std::to_string(scale));
  }
}

TEST(DeviceReference, RandomCircuitsOnFiveQubitDevices) {
  const DeviceModel devices[] = {DeviceModel::ibmq_lima(),
                                 DeviceModel::ibmq_manila(),
                                 DeviceModel::ibmq_santiago(), gap_device()};
  Prng rng(0x5EEDC1ULL);
  std::set<GateKind> kinds;
  std::size_t lowered_x = 0;
  bool idle_measured = false, x_group = false, y_group = false;
  for (int i = 0; i < 16; ++i) {
    const DeviceModel& device = devices[i % 4];
    const int n = 2 + i % 4;
    const bool idle_last = i % 3 == 1;
    const Circuit c = random_circuit(n, 16, idle_last, rng);
    const auto observable = random_observable(n, rng);
    const NoiseConfig& noise = kNoiseConfigs[(i / 4) % 4];
    const double scale = i % 2 ? 2.5 : 1.0;
    const Bindings b(c, 2, kBindingSeed + i);
    for (const auto& op : c.ops()) kinds.insert(op.kind);
    for (const auto& op :
         qoc::transpile::transpile(c, b.theta[0], b.input[0], device).ops)
      lowered_x += op.kind == GateKind::X;
    for (const auto& group : observable.groups())
      for (const auto& bc : group.suffix) (bc.y ? y_group : x_group) = true;
    idle_measured = idle_measured || idle_last;
    expect_engine_matches(device, exact_options(noise, scale), c, observable,
                          b,
                          "random circuit " + std::to_string(i) + " on " +
                              device.name + " n=" + std::to_string(n) +
                              " noise=" + noise.name +
                              " scale=" + std::to_string(scale));
  }
  // What the set exists to reach: X ops in the lowered streams, the
  // RXX, RZX, CRX and Toffoli lowerings, a measured idle qubit, and X-
  // and Y-basis groups.
  EXPECT_GT(lowered_x, 0u);
  for (const GateKind k :
       {GateKind::Rxx, GateKind::Rzx, GateKind::Crx, GateKind::Ccx})
    EXPECT_TRUE(kinds.count(k)) << qoc::circuit::gate_name(k);
  EXPECT_TRUE(idle_measured);
  EXPECT_TRUE(x_group);
  EXPECT_TRUE(y_group);
}

}  // namespace
