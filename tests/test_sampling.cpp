// Shot sampling: the guide-table sim::ShotSampler against the
// std::lower_bound sampler it replaced, its counts form and the count
// folds against the per-shot folds they replaced, and cross-commit pins
// of sampled estimator and backend results and of the device backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/sampler.hpp"
#include "qoc/vqe/vqe.hpp"

namespace {

using namespace qoc::backend;
using qoc::Prng;
using qoc::linalg::cplx;
using qoc::noise::DeviceModel;
using qoc::sim::BatchedStatevector;
using qoc::sim::ShotCounts;
using qoc::sim::ShotSampler;
using qoc::sim::Statevector;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// ---- References: the lower_bound sampler and the per-shot folds -------------

/// Inverse-CDF sampling with one std::lower_bound per shot over
/// |amps[i * stride]|^2: the sampler Statevector and BatchedStatevector
/// each carried before sim::ShotSampler.
std::vector<std::uint64_t> reference_sample(const cplx* amps, std::size_t dim,
                                            std::size_t stride, int shots,
                                            Prng& rng) {
  std::vector<double> cdf(dim);
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += std::norm(amps[i * stride]);
    cdf[i] = acc;
  }
  const double total = acc;
  std::vector<std::uint64_t> out;
  for (int s = 0; s < shots; ++s) {
    const double u = rng.uniform() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    out.push_back(static_cast<std::uint64_t>(std::min<std::ptrdiff_t>(
        it - cdf.begin(), static_cast<std::ptrdiff_t>(dim) - 1)));
  }
  return out;
}

std::vector<std::uint64_t> reference_sample(const Statevector& sv, int shots,
                                            Prng& rng) {
  return reference_sample(sv.amplitudes().data(), sv.dim(), 1, shots, rng);
}

/// Per-shot <Z_q> fold (StatevectorBackend's sampled run_batch fold).
std::vector<double> reference_z(const std::vector<std::uint64_t>& samples,
                                int n_qubits, int shots) {
  std::vector<double> acc(static_cast<std::size_t>(n_qubits), 0.0);
  for (const auto s : samples)
    for (int q = 0; q < n_qubits; ++q)
      acc[static_cast<std::size_t>(q)] +=
          ((s >> (n_qubits - 1 - q)) & 1ULL) ? -1.0 : 1.0;
  for (auto& v : acc) v /= static_cast<double>(shots);
  return acc;
}

/// Per-shot parity fold of one commuting group.
double reference_group_energy(const qoc::exec::CompiledObservable& obs,
                              const std::vector<std::uint64_t>& samples,
                              std::size_t g, int shots) {
  double e = 0.0;
  for (const auto& term : obs.groups()[g].terms) {
    double parity_sum = 0.0;
    for (const auto s : samples)
      parity_sum += (std::popcount(s & term.z_mask) & 1) ? -1.0 : 1.0;
    e += term.coeff * (parity_sum / shots);
  }
  return e;
}

/// Asserts that ShotSampler's per-shot and counts forms draw exactly the
/// reference's outcomes and leave the stream where the reference does.
void expect_matches_reference(const cplx* amps, std::size_t dim,
                              std::size_t stride, int shots,
                              std::uint64_t seed, const std::string& label) {
  SCOPED_TRACE(label + " shots=" + std::to_string(shots));
  Prng ref_rng(seed), rng(seed), count_rng(seed);
  const auto ref = reference_sample(amps, dim, stride, shots, ref_rng);

  ShotSampler sampler;
  std::vector<std::uint64_t> got;
  sampler.sample(amps, dim, stride, shots, rng, got);
  EXPECT_EQ(got, ref);

  const ShotCounts& counts =
      sampler.count(amps, dim, stride, shots, count_rng);
  std::map<std::uint64_t, std::uint32_t> want;
  for (const auto o : ref) ++want[o];
  std::map<std::uint64_t, std::uint32_t> have;
  ASSERT_EQ(counts.outcomes.size(), counts.counts.size());
  for (std::size_t j = 0; j < counts.outcomes.size(); ++j) {
    EXPECT_GT(counts.counts[j], 0u);
    EXPECT_TRUE(have.emplace(counts.outcomes[j], counts.counts[j]).second)
        << "duplicate outcome " << counts.outcomes[j];
  }
  EXPECT_EQ(have, want);
  EXPECT_EQ(counts.shots, shots);

  const std::uint64_t next = ref_rng();
  EXPECT_EQ(rng(), next);
  EXPECT_EQ(count_rng(), next);
}

void expect_matches_reference(const std::vector<cplx>& amps, int shots,
                              std::uint64_t seed, const std::string& label) {
  expect_matches_reference(amps.data(), amps.size(), 1, shots, seed, label);
}

constexpr int kShotCounts[] = {0, 1, 1023, 1024, 1025};

// ---- The sampler against the reference ------------------------------------

TEST(ShotSampler, MatchesLowerBoundOnRandomStates) {
  // n = 1..12 at 1024 shots puts dim on both sides of the guide-size
  // rule min(dim, bit_ceil(shots)).
  Prng rng(101);
  for (int n = 1; n <= 12; ++n) {
    std::vector<cplx> amps(std::size_t{1} << n);
    for (auto& a : amps) a = {rng.normal(), rng.normal()};
    // Unnormalized on purpose: the sampler scales by the CDF total.
    for (const int shots : kShotCounts)
      expect_matches_reference(amps, shots, 7000 + n, "n=" + std::to_string(n));
  }
}

TEST(ShotSampler, MatchesLowerBoundOnPeakedStates) {
  Prng rng(102);
  for (const int n : {1, 3, 8, 11, 12}) {
    const std::size_t dim = std::size_t{1} << n;
    const auto random_amp = [&] { return cplx{rng.normal(), rng.normal()}; };
    std::vector<std::pair<std::string, std::vector<cplx>>> states;

    std::vector<cplx> first(dim, 0.0), last(dim, 0.0);
    first.front() = 1.0;
    last.back() = {0.0, 1.0};
    states.emplace_back("first", first);
    states.emplace_back("last", last);

    // Long zero-probability runs at the start and at the end.
    std::vector<cplx> zero_head(dim, 0.0), zero_tail(dim, 0.0);
    for (std::size_t i = dim - dim / 8 - 1; i < dim; ++i)
      zero_head[i] = random_amp();
    for (std::size_t i = 0; i <= dim / 8; ++i) zero_tail[i] = random_amp();
    states.emplace_back("zero_head", zero_head);
    states.emplace_back("zero_tail", zero_tail);

    // Two point masses with a zero run between them.
    std::vector<cplx> ends(dim, 0.0);
    ends.front() = 0.6;
    ends.back() = 0.8;
    states.emplace_back("ends", ends);

    // Subnormal probabilities: all of them, and scattered among normal
    // ones.
    std::vector<cplx> tiny(dim), mixed(dim);
    for (auto& a : tiny) a = 1e-160 * random_amp();
    for (std::size_t i = 0; i < dim; ++i)
      mixed[i] = (i % 3 == 1) ? random_amp() : 1e-161 * random_amp();
    states.emplace_back("subnormal", tiny);
    states.emplace_back("mixed_subnormal", mixed);

    for (const auto& [name, amps] : states)
      for (const int shots : kShotCounts)
        expect_matches_reference(amps, shots, 8000 + n,
                                 name + " n=" + std::to_string(n));
  }
}

TEST(ShotSampler, EveryBatchedLaneMatchesReference) {
  for (const int n : {2, 6, 11}) {
    constexpr std::size_t kLanes = 8;
    BatchedStatevector bsv(n, kLanes);
    Prng rng(103);
    std::vector<cplx> m(4 * kLanes);
    for (int layer = 0; layer < 2; ++layer) {
      for (int q = 0; q < n; ++q) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          const auto g = qoc::sim::gate_u3(rng.uniform(0, 3), rng.uniform(0, 3),
                                           rng.uniform(0, 3));
          for (std::size_t e = 0; e < 4; ++e)
            m[e * kLanes + l] = g(e / 2, e % 2);
        }
        bsv.apply_1q_lanes(m.data(), q);
      }
      for (int q = 0; q + 1 < n; ++q) bsv.apply_cx(q, q + 1);
    }
    for (std::size_t l = 0; l < kLanes; ++l)
      for (const int shots : kShotCounts) {
        const std::string label =
            "n=" + std::to_string(n) + " lane=" + std::to_string(l);
        expect_matches_reference(bsv.amplitudes().data() + l, bsv.dim(),
                                 kLanes, shots, 9000 + l, label);
        // The lane entry points read the same strided view.
        Prng ref_rng(9000 + l), rng(9000 + l), count_rng(9000 + l);
        ShotSampler sampler;
        const auto ref = reference_sample(bsv.amplitudes().data() + l,
                                          bsv.dim(), kLanes, shots, ref_rng);
        EXPECT_EQ(bsv.sample(l, shots, rng), ref) << label;
        EXPECT_EQ(bsv.sample_counts(l, shots, count_rng, sampler).shots, shots);
        const std::uint64_t next = ref_rng();
        EXPECT_EQ(rng(), next) << label;
        EXPECT_EQ(count_rng(), next) << label;
      }
  }
}

TEST(ShotSampler, ProbabilityEntryDrawsLikeAmplitudeEntry) {
  // The device backends' entry point: the same CDF over p_i = |amp_i|^2
  // must draw the amplitude path's outcomes and leave the stream where
  // it does.
  Prng state_rng(12);
  Statevector sv(6);
  std::vector<cplx> amps(sv.dim());
  for (auto& a : amps) a = {state_rng.normal(), state_rng.normal()};
  sv.set_amplitudes(amps);
  std::vector<double> probs(amps.size());
  for (std::size_t i = 0; i < amps.size(); ++i) probs[i] = std::norm(amps[i]);
  for (const int shots : {0, 1, 1023, 1024}) {
    Prng a(7), b(7);
    ShotSampler amp_sampler, prob_sampler;
    const ShotCounts& want = amp_sampler.count(amps.data(), amps.size(), 1,
                                               shots, a);
    const ShotCounts& got = prob_sampler.count(probs.data(), probs.size(),
                                               shots, b);
    EXPECT_EQ(got.outcomes, want.outcomes) << "shots=" << shots;
    EXPECT_EQ(got.counts, want.counts) << "shots=" << shots;
    EXPECT_EQ(a(), b()) << "shots=" << shots;
  }
}

TEST(ShotSampler, ReusedAcrossSizesKeepsCountsClean) {
  // One sampler per worker chunk sees states of any size in any order;
  // its tallies must come back zeroed after every call.
  ShotSampler sampler;
  Prng rng(104);
  for (const int n : {10, 3, 7, 3, 12, 1}) {
    std::vector<cplx> amps(std::size_t{1} << n);
    for (auto& a : amps) a = {rng.normal(), rng.normal()};
    Prng a(500 + n), b(500 + n);
    const auto ref = reference_sample(amps.data(), amps.size(), 1, 777, a);
    const ShotCounts& c = sampler.count(amps.data(), amps.size(), 1, 777, b);
    std::map<std::uint64_t, std::uint32_t> want, have;
    for (const auto o : ref) ++want[o];
    for (std::size_t j = 0; j < c.outcomes.size(); ++j)
      have[c.outcomes[j]] += c.counts[j];
    EXPECT_EQ(have, want) << "n=" << n;
  }
}

// ---- Count folds against the per-shot folds -------------------------------

Statevector random_state(int n, std::uint64_t seed) {
  Statevector sv(n);
  Prng rng(seed);
  for (int layer = 0; layer < 3; ++layer) {
    for (int q = 0; q < n; ++q)
      sv.apply_1q(qoc::sim::gate_u3(rng.uniform(0, 3), rng.uniform(0, 3),
                                    rng.uniform(0, 3)),
                  q);
    for (int q = 0; q + 1 < n; ++q) sv.apply_cx(q, q + 1);
  }
  return sv;
}

TEST(CountFolds, GroupEnergyMatchesPerShotFoldBitwise) {
  const std::pair<const char*, qoc::vqe::Hamiltonian> cases[] = {
      {"heisenberg5", qoc::vqe::Hamiltonian::heisenberg(5, 0.7)},
      {"h2", qoc::vqe::Hamiltonian::h2_minimal()},
      {"ising4", qoc::vqe::Hamiltonian::transverse_ising(4, 1.1, 0.45)}};
  ShotSampler sampler;
  for (const auto& [name, h] : cases) {
    const auto obs = qoc::vqe::compile_observable(h);
    const Statevector psi = random_state(h.num_qubits(), 11);
    for (std::size_t g = 0; g < obs.groups().size(); ++g)
      for (const int shots : {1, 1000, 1024, 4097}) {
        Statevector meas = psi;
        obs.apply_suffix(meas, g);
        Prng a(40 + g), b(40 + g);
        const double want = reference_group_energy(
            obs, reference_sample(meas, shots, a), g, shots);
        const double got = obs.group_energy_from_counts(
            meas.sample_counts(shots, b, sampler), g);
        EXPECT_EQ(bits(got), bits(want))
            << name << " group=" << g << " shots=" << shots;
      }
  }
}

/// Ten bindings of a 3-qubit ansatz: at lanes = 8 one full lane group
/// plus a compacted tail, at lanes = 1 the scalar path only.
struct BackendCase {
  BackendCase()
      : ansatz(qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 2)),
        plan(qoc::exec::CompiledCircuit::compile(ansatz)) {
    Prng rng(77);
    thetas.assign(10, std::vector<double>(
                          static_cast<std::size_t>(ansatz.num_trainable())));
    for (auto& theta : thetas)
      for (auto& t : theta) t = rng.uniform(-2.0, 2.0);
    for (std::size_t k = 0; k < thetas.size(); ++k) {
      qoc::exec::Evaluation e{thetas[k], {}, qoc::exec::Evaluation::kNoShift,
                              0.0};
      e.rng_stream = 3 * k + 1;
      evals.push_back(e);
    }
  }

  Statevector prepared(std::size_t k) const {
    std::vector<double> angles;
    plan.resolve_slots(thetas[k], {}, qoc::exec::Evaluation::kNoShift, 0.0,
                       angles);
    Statevector sv(plan.num_qubits());
    plan.apply(sv, angles);
    return sv;
  }

  qoc::circuit::Circuit ansatz;
  qoc::exec::CompiledCircuit plan;
  std::vector<std::vector<double>> thetas;
  std::vector<qoc::exec::Evaluation> evals;
};

TEST(CountFolds, BackendZFoldMatchesPerShotFoldBitwise) {
  const BackendCase c;
  constexpr std::uint64_t kSeed = 0xC0C0;
  for (const int shots : {1, 999, 1024})
    for (const int lanes : {1, 8}) {
      StatevectorBackend backend(
          StatevectorBackendOptions{shots, kSeed, lanes});
      const auto got = backend.run_batch(c.plan, c.evals, 2);
      for (std::size_t k = 0; k < c.evals.size(); ++k) {
        Prng rng = stream_prng(kSeed, c.evals[k].rng_stream);
        const auto want = reference_z(
            reference_sample(c.prepared(k), shots, rng), 3, shots);
        ASSERT_EQ(got[k].size(), want.size());
        for (std::size_t q = 0; q < want.size(); ++q)
          EXPECT_EQ(bits(got[k][q]), bits(want[q]))
              << "shots=" << shots << " lanes=" << lanes << " eval=" << k
              << " q=" << q;
      }
    }
}

TEST(CountFolds, BackendExpectMatchesPerShotFoldBitwise) {
  const BackendCase c;
  constexpr std::uint64_t kSeed = 0xC0C1;
  const auto obs =
      qoc::vqe::compile_observable(qoc::vqe::Hamiltonian::heisenberg(3, 0.7));
  for (const int shots : {1, 999, 1024})
    for (const int lanes : {1, 8}) {
      StatevectorBackend backend(
          StatevectorBackendOptions{shots, kSeed, lanes});
      const auto got = backend.expect_batch(c.plan, obs, c.evals, 2);
      for (std::size_t k = 0; k < c.evals.size(); ++k) {
        Prng rng = stream_prng(kSeed, c.evals[k].rng_stream);
        const Statevector psi = c.prepared(k);
        double want = obs.constant();
        for (std::size_t g = 0; g < obs.groups().size(); ++g) {
          Statevector meas = psi;
          obs.apply_suffix(meas, g);
          want += reference_group_energy(
              obs, reference_sample(meas, shots, rng), g, shots);
        }
        EXPECT_EQ(bits(got[k]), bits(want))
            << "shots=" << shots << " lanes=" << lanes << " eval=" << k;
      }
    }
}

// ---- Cross-commit pins ------------------------------------------------------
//
// Sampled results recorded as IEEE bit patterns from the lower_bound
// sampler and the per-shot folds, and device-backend results recorded
// from the fused density-matrix engine (NoisyBackend's draws and
// DensityMatrixBackend's low bits moved when it replaced the noise
// trajectories; test_device_oracle.cpp pins the exact values across
// that change). The bitwise determinism tests compare two runs of one
// build; these compare against fixed values, so a change that moves any
// sampled outcome, stream draw, superoperator or fold fails here.

std::vector<qoc::exec::Evaluation> pin_evals(
    std::vector<std::vector<double>>& thetas, std::size_t count,
    int n_params) {
  Prng rng(41);
  thetas.assign(count, std::vector<double>(static_cast<std::size_t>(n_params)));
  for (auto& theta : thetas)
    for (auto& t : theta) t = rng.uniform(-2.0, 2.0);
  std::vector<qoc::exec::Evaluation> evals;
  for (const auto& theta : thetas)
    evals.push_back({theta, {}, qoc::exec::Evaluation::kNoShift, 0.0});
  return evals;
}

/// EnergyEstimator energies of three bindings, Heisenberg-4, 1024 shots,
/// drawn from its StatevectorBackend's stream_prng streams.
std::vector<double> estimator_pins() {
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(4, 2);
  qoc::vqe::EstimatorOptions opt;
  opt.shots = 1024;
  opt.seed = 0x5A3DULL;
  qoc::vqe::EnergyEstimator est(qoc::vqe::Hamiltonian::heisenberg(4, 0.7),
                                opt);
  std::vector<std::vector<double>> thetas;
  const auto evals = pin_evals(thetas, 3, ansatz.num_trainable());
  return est.energies(ansatz, evals, 1);
}

/// Sampled StatevectorBackend, ten bindings (an 8-wide lane group plus
/// its tail at lanes = 8): run_batch <Z_q> picks, then expect_batch
/// energies of a Heisenberg-3 observable (X and Y suffix groups).
std::vector<double> statevector_pins(int lanes) {
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 2);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  std::vector<std::vector<double>> thetas;
  const auto evals = pin_evals(thetas, 10, ansatz.num_trainable());
  StatevectorBackendOptions opt;
  opt.shots = 1024;
  opt.seed = 0xB17ULL;
  opt.batch_lanes = lanes;
  StatevectorBackend run_backend(opt);
  const auto z = run_backend.run_batch(plan, evals, 2);
  StatevectorBackend expect_backend(opt);
  const auto e = expect_backend.expect_batch(
      plan,
      qoc::vqe::compile_observable(qoc::vqe::Hamiltonian::heisenberg(3, 0.7)),
      evals, 2);
  return {z[0][0], z[5][1], z[9][2], e[0], e[5], e[9]};
}

/// NoisyBackend on ibmq_manila: run_batch <Z_q> picks, then expect_batch
/// energies, three bindings each.
std::vector<double> noisy_pins() {
  const auto ansatz = qoc::vqe::VqeSolver::hardware_efficient_ansatz(3, 2);
  const auto plan = qoc::exec::CompiledCircuit::compile(ansatz);
  std::vector<std::vector<double>> thetas;
  const auto evals = pin_evals(thetas, 3, ansatz.num_trainable());
  NoisyBackendOptions opt;
  opt.shots = 256;
  opt.seed = 0x9015EULL;
  NoisyBackend run_backend(DeviceModel::ibmq_manila(), opt);
  const auto z = run_backend.run_batch(plan, evals, 2);
  NoisyBackend expect_backend(DeviceModel::ibmq_manila(), opt);
  const auto e = expect_backend.expect_batch(
      plan,
      qoc::vqe::compile_observable(qoc::vqe::Hamiltonian::heisenberg(3, 0.7)),
      evals, 2);
  return {z[0][0], z[1][1], z[2][2], e[0], e[1], e[2]};
}

void expect_pins(const std::vector<double>& got,
                 const std::vector<std::uint64_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(bits(got[i]), want[i])
        << "pin " << i << " got " << got[i] << " (0x" << std::hex
        << bits(got[i]) << ")";
}

TEST(SampledPins, EnergyEstimator) {
  expect_pins(estimator_pins(),
              {0x3fb719999999999cULL, 0xbfa6666666666672ULL,
               0x3f90ccccccccccc8ULL});
}

TEST(SampledPins, StatevectorBackendAtLaneWidths1And8) {
  const std::vector<std::uint64_t> want = {
      0xbfd1c00000000000ULL, 0x3fba000000000000ULL, 0x3fdd400000000000ULL,
      0x3feb41999999999aULL, 0x3fe1fb3333333333ULL, 0xbfe0300000000000ULL};
  for (const int lanes : {1, 8}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    expect_pins(statevector_pins(lanes), want);
  }
}

TEST(SampledPins, NoisyBackend) {
  expect_pins(noisy_pins(),
              {0xbfd1000000000000ULL, 0x3fde000000000000ULL,
               0xbfd6000000000000ULL, 0x3feef99999999998ULL,
               0xbfe4ffffffffffffULL, 0x3fd7733333333333ULL});
}

/// A device backend on ibmq_manila, three bindings of an RZZ ring plus an
/// RY layer on 4 qubits (the ring's closing edge is routed through SWAPs,
/// and each lowered RZZ core is a CX.RZ.CX triple): run_batch <Z_q>
/// picks, then expect_batch energies of a Heisenberg-4 observable (X and
/// Y suffix groups). `make` returns a fresh backend for each call.
template <class Make>
std::vector<double> device_pins(Make make) {
  qoc::circuit::Circuit c(4);
  qoc::circuit::add_rzz_ring_layer(c);
  qoc::circuit::add_ry_layer(c);
  const auto plan = qoc::exec::CompiledCircuit::compile(c);
  std::vector<std::vector<double>> thetas;
  const auto evals = pin_evals(thetas, 3, c.num_trainable());
  const auto z = make().run_batch(plan, evals, 2);
  const auto e = make().expect_batch(
      plan,
      qoc::vqe::compile_observable(qoc::vqe::Hamiltonian::heisenberg(4, 0.7)),
      evals, 2);
  return {z[0][0], z[1][1], z[2][2], z[2][3], e[0], e[1], e[2]};
}

TEST(SampledPins, DensityMatrixBackend) {
  DensityMatrixBackend::Options opt;
  opt.noise_scale = 3.0;
  expect_pins(device_pins([&] {
                return DensityMatrixBackend(DeviceModel::ibmq_manila(), opt);
              }),
              {0x3fe915aaa38fbf9eULL, 0x3fe78b504ce9cdabULL, 0x3fdce10ab3e9fd43ULL,
               0x3fe08e2769a9aac5ULL, 0x3fe6f94f74d359b2ULL, 0x3fee7d4c99c09474ULL,
               0x3fcc8bc22c38c598ULL});
}

TEST(SampledPins, NoisyBackendWithoutGateNoiseOrRelaxation) {
  // Readout flips only: every gate is noiseless.
  NoisyBackendOptions opt;
  opt.shots = 256;
  opt.seed = 0xDE71CEULL;
  opt.enable_gate_noise = false;
  opt.enable_relaxation = false;
  expect_pins(device_pins([&] {
                return NoisyBackend(DeviceModel::ibmq_manila(), opt);
              }),
              {0x3febc00000000000ULL, 0x3fec400000000000ULL, 0x3fe4000000000000ULL,
               0x3fe5400000000000ULL, 0x3fee733333333333ULL, 0x3ffa566666666668ULL,
               0x3fdeccccccccccccULL});
}

// ---- Gap-device pins -------------------------------------------------------
//
// Every catalog device gives all its qubits one calibration, and every
// task circuit on it touches a prefix of the physical qubits, where an
// active-qubit index equals the physical one. So the pins above cannot
// tell a noise or readout lookup by compact index from one by physical
// index. These run on ibmq_lima rewired to the coupling 0-3, 3-1, 1-2,
// 2-4, with its own T1, T2 and readout flips on every qubit:
//  - RY.CX(0,1).RY: the CX routes through physical 3, so physical 2
//    sits idle between the active qubits {0, 1, 3};
//  - a 3-qubit circuit whose logical qubit 2 has no gate but is
//    measured.
// Re-recorded from the fused density-matrix engine; ExactPins in
// test_device_oracle.cpp hold this device's exact values from before it.

DeviceModel gap_device() {
  DeviceModel d = DeviceModel::ibmq_lima();
  d.coupling = {{0, 3}, {3, 1}, {1, 2}, {2, 4}};
  for (std::size_t q = 0; q < d.qubits.size(); ++q) {
    const double s = static_cast<double>(q);
    d.qubits[q] = {(60.0 + 20.0 * s) * 1e-6, (45.0 + 10.0 * s) * 1e-6,
                   0.01 + 0.015 * s, 0.02 + 0.02 * s};
  }
  d.validate();
  return d;
}

std::vector<qoc::circuit::Circuit> gap_circuits() {
  using qoc::circuit::ParamRef;
  qoc::circuit::Circuit routed(2);
  qoc::circuit::add_ry_layer(routed);
  routed.cx(0, 1);
  qoc::circuit::add_ry_layer(routed);
  qoc::circuit::Circuit measured_idle(3);
  for (const int q : {0, 1})
    measured_idle.ry(q, ParamRef::trainable(measured_idle.new_trainable()));
  measured_idle.cx(1, 0);
  for (const int q : {0, 1})
    measured_idle.ry(q, ParamRef::trainable(measured_idle.new_trainable()));
  return {routed, measured_idle};
}

/// Both gap circuits, two bindings each: every run_batch <Z_q>, then the
/// expect_batch energies of a Heisenberg observable on all the circuit's
/// qubits (X and Y suffix groups). `make` returns a fresh backend for
/// each call.
template <class Make>
std::vector<double> gap_pins(Make make) {
  std::vector<double> out;
  for (const auto& c : gap_circuits()) {
    const auto plan = qoc::exec::CompiledCircuit::compile(c);
    std::vector<std::vector<double>> thetas;
    const auto evals = pin_evals(thetas, 2, c.num_trainable());
    for (const auto& z : make().run_batch(plan, evals, 2))
      out.insert(out.end(), z.begin(), z.end());
    const auto e = make().expect_batch(
        plan,
        qoc::vqe::compile_observable(
            qoc::vqe::Hamiltonian::heisenberg(c.num_qubits(), 0.7)),
        evals, 2);
    out.insert(out.end(), e.begin(), e.end());
  }
  return out;
}

TEST(SampledPins, GapDeviceNoisyBackend) {
  NoisyBackendOptions opt;
  opt.shots = 256;
  opt.seed = 0x6A9DEULL;
  opt.noise_scale = 2.0;
  expect_pins(gap_pins([&] { return NoisyBackend(gap_device(), opt); }),
              {0x3fe4c00000000000ULL, 0x3fe5800000000000ULL, 0x3fcd000000000000ULL,
               0x3feb400000000000ULL, 0x3fda999999999999ULL, 0x3fd559999999999aULL,
               0xbfcf000000000000ULL, 0x3fd9000000000000ULL, 0x3febc00000000000ULL,
               0x3fde800000000000ULL, 0x3fcc000000000000ULL, 0x3fe9800000000000ULL,
               0x3fd9e66666666666ULL, 0x3fe1d9999999999aULL});
}

TEST(SampledPins, GapDeviceDensityMatrixBackend) {
  DensityMatrixBackend::Options opt;
  opt.noise_scale = 2.0;
  expect_pins(
      gap_pins([&] { return DensityMatrixBackend(gap_device(), opt); }),
      {0x3fe518722f4f5f68ULL, 0x3fe465546a6291caULL, 0x3fd1b8671719faa1ULL,
       0x3feaedee93ee176bULL, 0x3fd8486a2e4734adULL, 0x3fd05d95d2f05d52ULL,
       0xbfd184fdb290f512ULL, 0x3fd9f318cb7b5571ULL, 0x3feae147ae147adfULL,
       0x3fe12d81c3c1043aULL, 0x3fc8575485956d47ULL, 0x3feae147ae147ae2ULL,
       0x3fd9e43298f4750cULL, 0x3fe31cb6f43d21d6ULL});
}

}  // namespace
