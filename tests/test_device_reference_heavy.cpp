// The long half of the device reference check (ctest label `heavy`):
// NoisyBackend's exact readout against the Kraus-channel reference device
// (support/device_reference.hpp), within 1e-12,
//
//  * on the full sweep: every catalog device with <= 12 qubits and the
//    gap device x the five task models x four noise configurations x
//    noise x1 and x2.5, then the gap device's two circuits; per case,
//    each of two bindings' <Z_q> and Heisenberg energy;
//  * on seeded random circuits that span 6 to 8 active qubits of the
//    27-qubit ibmq_toronto, kept short: an 8-qubit density walk costs
//    up to 0.2 s per binding in Release once routing adds tens of CX.
//
// test_device_reference holds the subset every build runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "qoc/qml/qnn.hpp"
#include "support/device_reference.hpp"

namespace {

using namespace qoc::reference;
using qoc::Prng;
using qoc::circuit::Circuit;
using qoc::noise::DeviceModel;

constexpr std::uint64_t kBindingSeed = 0xE1AC7ULL;

void sweep_case(const DeviceModel& device, const Circuit& c,
                const std::string& circuit_name) {
  const Bindings b(c, 2, kBindingSeed);
  for (const auto& noise : kNoiseConfigs)
    for (const double scale : {1.0, 2.5})
      expect_engine_matches(device, exact_options(noise, scale), c,
                            heisenberg(c), b,
                            device.name + " " + circuit_name + " noise=" +
                                noise.name + " scale=" + std::to_string(scale));
}

TEST(DeviceReferenceSweep, EveryDeviceTaskNoiseAndScale) {
  for (const auto& device : sweep_devices())
    for (const char* task : kTasks)
      sweep_case(device, qoc::qml::make_task_model(task).circuit(), task);
  const auto gap = gap_circuits();
  for (std::size_t i = 0; i < gap.size(); ++i)
    sweep_case(gap_device(), gap[i], "gap_circuit_" + std::to_string(i));
}

TEST(DeviceReferenceToronto, RandomCircuitsOnSixToEightActiveQubits) {
  const DeviceModel toronto = DeviceModel::ibmq_toronto();
  Prng rng(0x7020A7ULL);
  for (int i = 0; i < 4; ++i) {
    const int n = 6 + i % 3;
    const Circuit c = random_circuit(n, 8, i % 2 == 1, rng);
    const NoiseConfig& noise = kNoiseConfigs[i % 4];
    const std::string label = "toronto random circuit " + std::to_string(i) +
                              " n=" + std::to_string(n) +
                              " noise=" + noise.name;
    const std::size_t active = expect_engine_matches(
        toronto, exact_options(noise, 2.5), c, random_observable(n, rng),
        Bindings(c, 2, kBindingSeed + i), label);
    EXPECT_GE(active, 6u) << label;
    EXPECT_LE(active, 8u) << label;
  }
}

}  // namespace
