#include "support/device_reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <iterator>
#include <utility>

#include "qoc/circuit/layers.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/transpile/transpile.hpp"
#include "qoc/vqe/hamiltonian.hpp"

namespace qoc::reference {

using circuit::Circuit;
using circuit::GateKind;
using circuit::ParamRef;
using noise::DeviceModel;

ReferenceDevice::ReferenceDevice(DeviceModel device,
                                 const backend::NoisyBackendOptions& opt)
    : device_(std::move(device)),
      gate_noise_(opt.enable_gate_noise),
      depol_1q_(noise::depolarizing_1q(device_.err_1q * opt.noise_scale)),
      depol_2q_(noise::depolarizing_2q(device_.err_2q * opt.noise_scale)) {
  const double s = opt.noise_scale;
  for (const auto& cal : device_.qubits) {
    if (opt.enable_relaxation) {
      relax_1q_.push_back(noise::thermal_relaxation(
          cal.t1_s, cal.t2_s, device_.gate_time_1q_s * s));
      relax_2q_.push_back(noise::thermal_relaxation(
          cal.t1_s, cal.t2_s, device_.gate_time_2q_s * s));
    }
    if (opt.enable_readout_error)
      readout_.push_back({cal.readout_err_0to1 * s, cal.readout_err_1to0 * s});
  }
}

Evolved ReferenceDevice::evolve(const Circuit& c,
                                std::span<const double> theta,
                                std::span<const double> input) const {
  const transpile::Transpiled t =
      transpile::transpile(c, theta, input, device_);
  // Active qubit index of each physical qubit, -1 when idle.
  std::vector<int> index(static_cast<std::size_t>(device_.n_qubits), -1);
  for (const auto& op : t.ops)
    for (const int q : op.qubits) index[static_cast<std::size_t>(q)] = 0;
  for (const int q : t.final_layout) index[static_cast<std::size_t>(q)] = 0;
  std::vector<int> physical;
  for (int p = 0; p < device_.n_qubits; ++p)
    if (index[static_cast<std::size_t>(p)] == 0) {
      index[static_cast<std::size_t>(p)] = static_cast<int>(physical.size());
      physical.push_back(p);
    }
  const auto active = [&](int q) { return index[static_cast<std::size_t>(q)]; };

  Evolved e{sim::DensityMatrix(static_cast<int>(physical.size())), {},
            std::move(physical)};
  for (const int q : t.final_layout) e.layout.push_back(active(q));
  for (const auto& op : t.ops) {
    std::vector<int> qubits;
    for (const int q : op.qubits) qubits.push_back(active(q));
    e.rho.apply_unitary(circuit::gate_matrix(op.kind, op.angle), qubits);
    if (op.kind == GateKind::Rz) continue;
    const bool one = qubits.size() == 1;
    if (gate_noise_)
      e.rho.apply_channel((one ? depol_1q_ : depol_2q_).kraus(), qubits);
    if (relax_1q_.empty()) continue;
    for (std::size_t i = 0; i < qubits.size(); ++i)
      e.rho.apply_channel(
          (one ? relax_1q_ : relax_2q_)[static_cast<std::size_t>(op.qubits[i])]
              .kraus(),
          {qubits[i]});
  }
  return e;
}

double ReferenceDevice::read_out(int phys, double z) const {
  if (readout_.empty()) return z;
  const auto& [e01, e10] = readout_[static_cast<std::size_t>(phys)];
  return (1.0 - e01 - e10) * z + (e10 - e01);
}

std::vector<double> ReferenceDevice::z_all(const Evolved& e) const {
  const auto z = e.rho.expectation_z_all();
  std::vector<double> out;
  for (const int a : e.layout)
    out.push_back(read_out(e.physical[static_cast<std::size_t>(a)],
                           z[static_cast<std::size_t>(a)]));
  return out;
}

double ReferenceDevice::energy(
    const Evolved& e, const exec::CompiledObservable& observable) const {
  const int n = observable.num_qubits();
  const int m = e.rho.num_qubits();
  double energy = observable.constant();
  for (const auto& group : observable.groups()) {
    sim::DensityMatrix meas = e.rho;
    for (const auto& bc : group.suffix) {
      const int a = e.layout[static_cast<std::size_t>(bc.qubit)];
      if (bc.y) meas.apply_unitary(sim::gate_sdg(), {a});
      meas.apply_unitary(sim::gate_h(), {a});
    }
    const std::vector<double> probs = meas.probabilities();
    for (const auto& term : group.terms) {
      // With independent readout flips, a term's mean is, per outcome,
      // the product of each of its qubits' read-out parity.
      double acc = 0.0;
      for (std::size_t s = 0; s < probs.size(); ++s) {
        double f = probs[s];
        for (int q = 0; q < n; ++q) {
          if (!(term.z_mask & exec::CompiledObservable::qubit_bit(q, n)))
            continue;
          const int a = e.layout[static_cast<std::size_t>(q)];
          const bool one = (s >> (m - 1 - a)) & 1U;
          f *= read_out(e.physical[static_cast<std::size_t>(a)],
                        one ? -1.0 : 1.0);
        }
        acc += f;
      }
      energy += term.coeff * acc;
    }
  }
  return energy;
}

Bindings::Bindings(const Circuit& c, std::size_t count, std::uint64_t seed) {
  Prng rng(seed);
  const double pi = std::acos(-1.0);
  const auto size = [](int n) { return static_cast<std::size_t>(n); };
  theta.assign(count, std::vector<double>(size(c.num_trainable())));
  input.assign(count, std::vector<double>(size(c.num_inputs())));
  for (std::size_t k = 0; k < count; ++k) {
    for (auto& t : theta[k]) t = rng.uniform(-pi, pi);
    for (auto& x : input[k]) x = rng.uniform(-pi, pi);
  }
  for (std::size_t k = 0; k < count; ++k) evals.push_back({theta[k], input[k]});
}

std::size_t expect_engine_matches(const DeviceModel& device,
                                  backend::NoisyBackendOptions opt,
                                  const Circuit& c,
                                  const exec::CompiledObservable& observable,
                                  const Bindings& b,
                                  const std::string& label) {
  opt.shots = 0;
  const auto plan = exec::CompiledCircuit::compile(c);
  backend::NoisyBackend engine(device, opt);
  const auto z = engine.run_batch(plan, b.evals);
  const auto energies = engine.expect_batch(plan, observable, b.evals);
  const ReferenceDevice ref(device, opt);
  std::size_t active = 0;
  for (std::size_t k = 0; k < b.evals.size(); ++k) {
    const Evolved e = ref.evolve(c, b.theta[k], b.input[k]);
    active = std::max(active, e.physical.size());
    const auto want = ref.z_all(e);
    EXPECT_EQ(z[k].size(), want.size()) << label;
    for (std::size_t l = 0; l < std::min(want.size(), z[k].size()); ++l)
      EXPECT_NEAR(z[k][l], want[l], kTolerance)
          << label << " binding " << k << " <Z_" << l << ">";
    EXPECT_NEAR(energies[k], ref.energy(e, observable), kTolerance)
        << label << " binding " << k << " energy";
  }
  return active;
}

// ---- The swept cases --------------------------------------------------------

DeviceModel gap_device() {
  DeviceModel d = DeviceModel::ibmq_lima();
  d.name = "gap_lima";
  d.coupling = {{0, 3}, {3, 1}, {1, 2}, {2, 4}};
  for (std::size_t q = 0; q < d.qubits.size(); ++q) {
    const double s = static_cast<double>(q);
    d.qubits[q] = {(60.0 + 20.0 * s) * 1e-6, (45.0 + 10.0 * s) * 1e-6,
                   0.01 + 0.015 * s, 0.02 + 0.02 * s};
  }
  d.validate();
  return d;
}

std::vector<DeviceModel> sweep_devices() {
  std::vector<DeviceModel> out;
  for (const auto& name : DeviceModel::available()) {
    DeviceModel d = DeviceModel::by_name(name);
    if (d.n_qubits <= 12) out.push_back(std::move(d));
  }
  out.push_back(gap_device());
  return out;
}

std::vector<Circuit> gap_circuits() {
  Circuit routed(2);
  circuit::add_ry_layer(routed);
  routed.cx(0, 1);
  circuit::add_ry_layer(routed);
  Circuit measured_idle(3);
  for (const int q : {0, 1})
    measured_idle.ry(q, ParamRef::trainable(measured_idle.new_trainable()));
  measured_idle.cx(1, 0);
  for (const int q : {0, 1})
    measured_idle.ry(q, ParamRef::trainable(measured_idle.new_trainable()));
  return {routed, measured_idle};
}

backend::NoisyBackendOptions exact_options(const NoiseConfig& noise,
                                           double scale) {
  backend::NoisyBackendOptions opt;
  opt.shots = 0;
  opt.enable_gate_noise = noise.gate;
  opt.enable_relaxation = noise.relaxation;
  opt.enable_readout_error = noise.readout;
  opt.noise_scale = scale;
  return opt;
}

exec::CompiledObservable heisenberg(const Circuit& c) {
  return vqe::compile_observable(
      vqe::Hamiltonian::heisenberg(c.num_qubits(), 0.7));
}

Circuit random_circuit(int n, int gates, bool idle_last, Prng& rng) {
  static constexpr GateKind kKinds[] = {
      GateKind::X,   GateKind::Y,   GateKind::Z,     GateKind::H,
      GateKind::S,   GateKind::Sdg, GateKind::T,     GateKind::Tdg,
      GateKind::Sx,  GateKind::Rx,  GateKind::Ry,    GateKind::Rz,
      GateKind::Phase, GateKind::Cx, GateKind::Cz,   GateKind::Swap,
      GateKind::Rxx, GateKind::Ryy, GateKind::Rzz,   GateKind::Rzx,
      GateKind::Crx, GateKind::Cry, GateKind::Crz,   GateKind::Cp,
      GateKind::Ccx};
  const double pi = std::acos(-1.0);
  const int live = idle_last ? n - 1 : n;
  Circuit c(n);
  int inputs = 0;
  while (static_cast<int>(c.num_ops()) < gates) {
    const GateKind kind = kKinds[rng.uniform_int(std::size(kKinds))];
    const int arity = circuit::gate_arity(kind);
    if (arity > live) continue;
    std::vector<int> qubits;
    while (static_cast<int>(qubits.size()) < arity) {
      const int q = static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(live)));
      if (std::find(qubits.begin(), qubits.end(), q) == qubits.end())
        qubits.push_back(q);
    }
    ParamRef p = ParamRef::none();
    if (circuit::gate_is_parameterised(kind)) {
      const auto source = rng.uniform_int(3);
      if (source == 0)
        p = ParamRef::trainable(c.new_trainable());
      else if (source == 1)
        p = ParamRef::input(inputs++, rng.uniform(0.5, 1.5),
                            rng.uniform(-1.0, 1.0));
      else
        p = ParamRef::constant(rng.uniform(-pi, pi));
    }
    c.add(kind, std::move(qubits), p);
  }
  return c;
}

exec::CompiledObservable random_observable(int n, Prng& rng) {
  std::vector<exec::ObservableTerm> terms;
  const auto add = [&](std::string paulis) {
    terms.push_back({std::move(paulis), rng.uniform(-1.0, 1.0)});
  };
  const auto on = [n](char pauli, std::initializer_list<int> qubits) {
    std::string p(static_cast<std::size_t>(n), 'I');
    for (const int q : qubits) p[static_cast<std::size_t>(q)] = pauli;
    return p;
  };
  add(on('X', {0, n - 1}));
  add(on('Y', {0, 1}));
  add(std::string(static_cast<std::size_t>(n), 'Z'));
  std::string mixed;
  for (int q = 0; q < n; ++q) mixed += "XYZ"[q % 3];
  add(mixed);
  for (int t = 0; t < 4; ++t) {
    std::string p(static_cast<std::size_t>(n), 'I');
    for (auto& ch : p) ch = "IXYZ"[rng.uniform_int(4)];
    add(p);
  }
  return exec::CompiledObservable::compile(n, terms);
}

}  // namespace qoc::reference
