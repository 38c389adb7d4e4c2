#pragma once
// A reference device for NoisyBackend's exact readout (shots = 0), and
// the cases the device tests sweep.
//
// ReferenceDevice is the Kraus-channel density walk the fused
// superoperator engine (backend.cpp) replaced, kept as a live check of
// that engine. It shares no code with the engine past the lowering
// pipeline and the channel constructors:
//  * it lowers each binding with transpile::transpile and compacts the
//    lowered stream onto the qubits it touches plus its final layout,
//    numbered in increasing physical order;
//  * it builds its Kraus channels from the DeviceModel and the noise
//    options: the depolarizing error of each gate class, each physical
//    qubit's thermal relaxation over a 1q and a 2q gate window, and its
//    readout flips, every rate and duration times noise_scale;
//  * on a sim::DensityMatrix it applies each lowered op's gate, then,
//    unless the op is an RZ (a frame change: no pulse, no error), the
//    op's depolarizing error and each operand's relaxation, in operand
//    order;
//  * it reads out through each measured qubit's readout confusion, after
//    each commuting group's ideal basis change for an energy.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/exec/observable.hpp"
#include "qoc/noise/channels.hpp"
#include "qoc/noise/device_model.hpp"
#include "support/density_matrix.hpp"

namespace qoc::reference {

/// One binding's noisy state over the active qubits of its lowered
/// stream.
struct Evolved {
  sim::DensityMatrix rho;
  std::vector<int> layout;    // logical qubit l is rho's qubit layout[l]
  std::vector<int> physical;  // rho's qubit a is physical qubit physical[a]
};

class ReferenceDevice {
 public:
  /// The device with `opt`'s noise switches and noise_scale; its shots
  /// and seed play no part.
  ReferenceDevice(noise::DeviceModel device,
                  const backend::NoisyBackendOptions& opt);

  /// The noisy state of `c` bound to (theta, input).
  Evolved evolve(const circuit::Circuit& c, std::span<const double> theta,
                 std::span<const double> input) const;

  /// <Z_l> of every logical qubit l, read out through its confusion.
  std::vector<double> z_all(const Evolved& e) const;

  /// <H>: each commuting group's distribution after its basis change,
  /// every term the mean of its qubits' parity as read out.
  double energy(const Evolved& e,
                const exec::CompiledObservable& observable) const;

 private:
  /// The mean read on physical qubit `phys` of a qubit whose true +-1
  /// value has mean z.
  double read_out(int phys, double z) const;

  noise::DeviceModel device_;
  bool gate_noise_;
  noise::KrausChannel depol_1q_, depol_2q_;
  /// Per physical qubit; empty when relaxation is off.
  std::vector<noise::KrausChannel> relax_1q_, relax_2q_;
  /// Per physical qubit; empty when readout error is off.
  std::vector<noise::ReadoutError> readout_;
};

/// NoisyBackend at shots = 0 and the reference agree within this.
inline constexpr double kTolerance = 1e-12;

/// `count` bindings of a circuit: theta and inputs uniform in [-pi, pi)
/// from one stream seeded with `seed`, so a binding depends only on the
/// circuit's parameter and input counts.
struct Bindings {
  std::vector<std::vector<double>> theta, input;
  std::vector<exec::Evaluation> evals;

  Bindings(const circuit::Circuit& c, std::size_t count, std::uint64_t seed);
};

/// Checks NoisyBackend on `device` with `opt` (shots forced to 0)
/// against the reference on each binding of `b`: every run_batch <Z_l>
/// and the expect_batch energy of `observable` agree within kTolerance.
/// A failure names `label`, the binding and the value. Returns the most
/// active qubits a binding's state spans.
std::size_t expect_engine_matches(const noise::DeviceModel& device,
                           backend::NoisyBackendOptions opt,
                           const circuit::Circuit& c,
                           const exec::CompiledObservable& observable,
                           const Bindings& b, const std::string& label);

// ---- The swept cases --------------------------------------------------------

/// ibmq_lima rewired to the coupling 0-3, 3-1, 1-2, 2-4, with its own T1,
/// T2 and readout flips on every qubit: a circuit on it can leave an idle
/// physical qubit between its active ones, so a noise or readout lookup
/// by compact index instead of by physical index changes results.
noise::DeviceModel gap_device();

/// Every catalog device a density matrix can hold, then the gap device.
std::vector<noise::DeviceModel> sweep_devices();

inline const char* const kTasks[] = {"mnist4", "mnist2", "fashion4",
                                     "fashion2", "vowel4"};

/// The gap device's own circuits: RY.CX(0,1).RY, whose CX routes through
/// an idle physical qubit, and a 3-qubit circuit whose logical qubit 2
/// has no gate but is measured.
std::vector<circuit::Circuit> gap_circuits();

struct NoiseConfig {
  const char* name;
  bool gate, relaxation, readout;
};

inline const NoiseConfig kNoiseConfigs[] = {{"all", true, true, true},
                                            {"gate", true, false, false},
                                            {"relaxation", false, true, false},
                                            {"readout", false, false, true}};

/// Exact-readout options with `noise`'s sources on and noise_scale
/// `scale`.
backend::NoisyBackendOptions exact_options(const NoiseConfig& noise,
                                           double scale);

/// The Heisenberg chain on all of `c`'s qubits (XX, YY and ZZ groups).
exec::CompiledObservable heisenberg(const circuit::Circuit& c);

/// A random circuit over `n` logical qubits, `gates` gates long, drawn
/// from every gate kind with a lowering recipe (X, the RXX, RZX and CRX
/// lowerings and the Toffoli network among them), its angles from theta,
/// input and constants. With `idle_last`, logical qubit n - 1 gets no
/// gate but is still measured.
circuit::Circuit random_circuit(int n, int gates, bool idle_last, Prng& rng);

/// A random Pauli observable on `n` qubits that holds an X-basis group,
/// a Y-basis group and a mixed one besides random terms.
exec::CompiledObservable random_observable(int n, Prng& rng);

}  // namespace qoc::reference
