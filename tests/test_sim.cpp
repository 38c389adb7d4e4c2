// Unit + property tests for the statevector simulator and gate library.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "qoc/common/prng.hpp"
#include "qoc/linalg/matrix.hpp"
#include "qoc/sim/cost_model.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/sampler.hpp"
#include "qoc/sim/statevector.hpp"

namespace {

using qoc::Prng;
using qoc::linalg::approx_equal;
using qoc::linalg::cplx;
using qoc::linalg::equal_up_to_global_phase;
using qoc::linalg::is_unitary;
using qoc::linalg::kPi;
using qoc::linalg::kron;
using qoc::linalg::kron_all;
using qoc::linalg::Matrix;
using namespace qoc::sim;

// ---- Gate matrices -----------------------------------------------------------

TEST(Gates, AllFixedGatesAreUnitary) {
  for (const Matrix& g : {gate_i(), gate_x(), gate_y(), gate_z(), gate_h(),
                          gate_s(), gate_sdg(), gate_t(), gate_tdg(),
                          gate_sx(), gate_cx(), gate_cz(), gate_swap()})
    EXPECT_TRUE(is_unitary(g));
}

TEST(Gates, RotationsAreUnitaryForRandomAngles) {
  Prng rng(1);
  for (int i = 0; i < 20; ++i) {
    const double t = rng.uniform(-6.0, 6.0);
    EXPECT_TRUE(is_unitary(gate_rx(t)));
    EXPECT_TRUE(is_unitary(gate_ry(t)));
    EXPECT_TRUE(is_unitary(gate_rz(t)));
    EXPECT_TRUE(is_unitary(gate_rxx(t)));
    EXPECT_TRUE(is_unitary(gate_ryy(t)));
    EXPECT_TRUE(is_unitary(gate_rzz(t)));
    EXPECT_TRUE(is_unitary(gate_rzx(t)));
  }
}

TEST(Gates, RxAtPiIsPauliXUpToPhase) {
  EXPECT_TRUE(equal_up_to_global_phase(gate_rx(kPi), gate_x()));
}

TEST(Gates, RyAtPiIsPauliYUpToPhase) {
  EXPECT_TRUE(equal_up_to_global_phase(gate_ry(kPi), gate_y()));
}

TEST(Gates, RzAtPiIsPauliZUpToPhase) {
  EXPECT_TRUE(equal_up_to_global_phase(gate_rz(kPi), gate_z()));
}

TEST(Gates, SxSquaredIsX) {
  EXPECT_TRUE(approx_equal(gate_sx() * gate_sx(), gate_x(), 1e-12));
}

TEST(Gates, SSquaredIsZ) {
  EXPECT_TRUE(approx_equal(gate_s() * gate_s(), gate_z(), 1e-12));
}

TEST(Gates, TSquaredIsS) {
  EXPECT_TRUE(approx_equal(gate_t() * gate_t(), gate_s(), 1e-12));
}

TEST(Gates, HadamardDiagonalizesX) {
  EXPECT_TRUE(approx_equal(gate_h() * gate_x() * gate_h(), gate_z(), 1e-12));
}

TEST(Gates, RotationGroupProperty) {
  // R(a) R(b) == R(a + b) for each rotation family.
  Prng rng(2);
  for (int i = 0; i < 10; ++i) {
    const double a = rng.uniform(-3.0, 3.0);
    const double b = rng.uniform(-3.0, 3.0);
    EXPECT_TRUE(approx_equal(gate_rx(a) * gate_rx(b), gate_rx(a + b), 1e-10));
    EXPECT_TRUE(approx_equal(gate_rzz(a) * gate_rzz(b), gate_rzz(a + b), 1e-10));
  }
}

TEST(Gates, RzzIsDiagonalWithCorrectPhases) {
  const double t = 0.8;
  const Matrix m = gate_rzz(t);
  const cplx minus = std::exp(cplx{0, -t / 2});
  const cplx plus = std::exp(cplx{0, t / 2});
  EXPECT_NEAR(std::abs(m(0, 0) - minus), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(m(1, 1) - plus), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(m(2, 2) - plus), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(m(3, 3) - minus), 0.0, 1e-12);
}

TEST(Gates, PauliIndexing) {
  EXPECT_TRUE(approx_equal(pauli(0), gate_i(), 0.0));
  EXPECT_TRUE(approx_equal(pauli(1), gate_x(), 0.0));
  EXPECT_TRUE(approx_equal(pauli(2), gate_y(), 0.0));
  EXPECT_TRUE(approx_equal(pauli(3), gate_z(), 0.0));
  EXPECT_THROW(pauli(4), std::invalid_argument);
}

// ---- Statevector basics --------------------------------------------------------

TEST(Statevector, InitializesToGroundState) {
  Statevector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{1, 0}), 0.0, 1e-15);
  for (std::size_t i = 1; i < 8; ++i)
    EXPECT_NEAR(std::abs(sv.amplitude(i)), 0.0, 1e-15);
}

TEST(Statevector, RejectsBadQubitCounts) {
  EXPECT_THROW(Statevector(0), std::invalid_argument);
  EXPECT_THROW(Statevector(31), std::invalid_argument);
}

TEST(Statevector, XFlipsQubitZeroMsbConvention) {
  Statevector sv(2);
  sv.apply_1q(gate_x(), 0);
  // Qubit 0 is the MSB: |10> = index 2.
  EXPECT_NEAR(std::abs(sv.amplitude(2) - cplx{1, 0}), 0.0, 1e-14);
}

TEST(Statevector, XFlipsLastQubitLsb) {
  Statevector sv(2);
  sv.apply_1q(gate_x(), 1);
  EXPECT_NEAR(std::abs(sv.amplitude(1) - cplx{1, 0}), 0.0, 1e-14);
}

TEST(Statevector, HadamardCreatesUniformSuperposition) {
  Statevector sv(1);
  sv.apply_1q(gate_h(), 0);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(1)), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(sv.expectation_z(0), 0.0, 1e-12);
}

TEST(Statevector, BellStateViaHAndCx) {
  Statevector sv(2);
  sv.apply_1q(gate_h(), 0);
  sv.apply_2q(gate_cx(), 0, 1);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(3)), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(2)), 0.0, 1e-12);
}

TEST(Statevector, NormPreservedByRandomCircuit) {
  Prng rng(3);
  Statevector sv(4);
  for (int g = 0; g < 50; ++g) {
    const int q = static_cast<int>(rng.uniform_int(4));
    sv.apply_1q(gate_ry(rng.uniform(-3, 3)), q);
    const int q2 = (q + 1 + static_cast<int>(rng.uniform_int(3))) % 4;
    sv.apply_2q(gate_rzz(rng.uniform(-3, 3)), q, q2);
  }
  EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

// Property: applying a gate through apply_matrix equals multiplying by the
// full kron-expanded unitary.
TEST(Statevector, Apply1qMatchesKronExpansion) {
  Prng rng(4);
  const int n = 3;
  for (int target = 0; target < n; ++target) {
    Statevector sv(n);
    // Prepare a random state.
    std::vector<cplx> amps(8);
    double norm = 0;
    for (auto& a : amps) {
      a = cplx{rng.normal(), rng.normal()};
      norm += std::norm(a);
    }
    for (auto& a : amps) a /= std::sqrt(norm);
    sv.set_amplitudes(amps);

    const Matrix g = gate_u3(rng.uniform(0, 3), rng.uniform(0, 3),
                             rng.uniform(0, 3));
    Statevector sv2 = sv;
    sv2.apply_1q(g, target);

    std::vector<Matrix> factors(n, gate_i());
    factors[target] = g;
    const Matrix full = kron_all(factors);
    const auto expect = full.apply(amps);
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_NEAR(std::abs(sv2.amplitude(i) - expect[i]), 0.0, 1e-10);
  }
}

TEST(Statevector, Apply2qAdjacentMatchesKronExpansion) {
  Prng rng(5);
  const int n = 3;
  std::vector<cplx> amps(8);
  double norm = 0;
  for (auto& a : amps) {
    a = cplx{rng.normal(), rng.normal()};
    norm += std::norm(a);
  }
  for (auto& a : amps) a /= std::sqrt(norm);

  // Gate on (0, 1): kron(G, I).
  const Matrix g = gate_rzx(0.7);
  Statevector sv(n);
  sv.set_amplitudes(amps);
  sv.apply_2q(g, 0, 1);
  const auto expect = kron(g, gate_i()).apply(amps);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(std::abs(sv.amplitude(i) - expect[i]), 0.0, 1e-10);
}

TEST(Statevector, Apply2qReversedQubitOrderIsSwapConjugated) {
  // Applying CX with (control=1, target=0) equals SWAP CX SWAP on (0,1).
  std::vector<cplx> amps = {{0.5, 0}, {0.5, 0}, {0.5, 0}, {0.5, 0}};
  Statevector a(2), b(2);
  a.set_amplitudes(amps);
  b.set_amplitudes(amps);
  a.apply_2q(gate_cx(), 1, 0);
  b.apply_2q(gate_swap(), 0, 1);
  b.apply_2q(gate_cx(), 0, 1);
  b.apply_2q(gate_swap(), 0, 1);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, 1e-12);
}

TEST(Statevector, PauliFastPathsMatchMatrices) {
  Prng rng(6);
  for (int q = 0; q < 3; ++q) {
    std::vector<cplx> amps(8);
    double norm = 0;
    for (auto& a : amps) {
      a = cplx{rng.normal(), rng.normal()};
      norm += std::norm(a);
    }
    for (auto& a : amps) a /= std::sqrt(norm);

    for (int p = 1; p <= 3; ++p) {
      Statevector fast(3), slow(3);
      fast.set_amplitudes(amps);
      slow.set_amplitudes(amps);
      if (p == 1) fast.apply_pauli_x(q);
      if (p == 2) fast.apply_pauli_y(q);
      if (p == 3) fast.apply_pauli_z(q);
      slow.apply_1q(pauli(p), q);
      for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(std::abs(fast.amplitude(i) - slow.amplitude(i)), 0.0,
                    1e-12);
    }
  }
}

TEST(Statevector, ExpectationZAllMatchesPerQubit) {
  Prng rng(7);
  Statevector sv(4);
  for (int g = 0; g < 30; ++g)
    sv.apply_1q(gate_ry(rng.uniform(-3, 3)),
                static_cast<int>(rng.uniform_int(4)));
  const auto all = sv.expectation_z_all();
  for (int q = 0; q < 4; ++q)
    EXPECT_NEAR(all[q], sv.expectation_z(q), 1e-12);
}

TEST(Statevector, ExpectationBoundsRespected) {
  Prng rng(8);
  Statevector sv(3);
  for (int g = 0; g < 40; ++g)
    sv.apply_1q(gate_u3(rng.uniform(0, 3), rng.uniform(0, 3),
                        rng.uniform(0, 3)),
                static_cast<int>(rng.uniform_int(3)));
  for (int q = 0; q < 3; ++q) {
    const double e = sv.expectation_z(q);
    EXPECT_LE(e, 1.0 + 1e-12);
    EXPECT_GE(e, -1.0 - 1e-12);
  }
}

TEST(Statevector, ProbabilitiesSumToOne) {
  Prng rng(9);
  Statevector sv(4);
  for (int g = 0; g < 30; ++g)
    sv.apply_1q(gate_ry(rng.uniform(-3, 3)),
                static_cast<int>(rng.uniform_int(4)));
  const auto p = sv.probabilities();
  double total = 0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Statevector, SamplingConvergesToBornProbabilities) {
  Prng rng(10);
  Statevector sv(2);
  sv.apply_1q(gate_ry(1.1), 0);
  sv.apply_1q(gate_ry(2.3), 1);
  const auto p = sv.probabilities();
  const int shots = 40000;
  const auto samples = sv.sample(shots, rng);
  std::vector<int> counts(4, 0);
  for (auto s : samples) ++counts[s];
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(static_cast<double>(counts[i]) / shots, p[i], 0.02);
}

TEST(Statevector, SampleRejectsNegativeShots) {
  Statevector sv(3);
  Prng rng(13);
  EXPECT_THROW(sv.sample(-1, rng), std::invalid_argument);
  // The readout entry over the same state's probabilities.
  const auto probs = sv.probabilities();
  const std::uint64_t mask = 1;
  double mean = 0.0;
  EXPECT_THROW(ShotSampler().parity_means(probs.data(), probs.size(),
                                          {&mask, 1}, -1, &rng, {&mean, 1}),
               std::invalid_argument);
}

TEST(Statevector, SampleRejectsNonFiniteProbabilities) {
  // set_amplitudes accepts any values; the sampler must not turn a NaN
  // or infinite total into outcome 0 for every shot.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Prng rng(14);
  for (const cplx bad : {cplx{nan, 0.0}, cplx{0.0, inf}}) {
    Statevector sv(2);
    sv.set_amplitudes({0.5, bad, 0.5, 0.5});
    EXPECT_THROW(sv.sample(8, rng), std::domain_error);
    EXPECT_THROW(sv.sample(0, rng), std::domain_error);
    const auto probs = sv.probabilities();
    const std::uint64_t mask = 1;
    double mean = 0.0;
    EXPECT_THROW(ShotSampler().parity_means(probs.data(), probs.size(),
                                            {&mask, 1}, 8, &rng, {&mean, 1}),
                 std::domain_error);
  }
}

TEST(Statevector, MeasureQubitCollapsesState) {
  Prng rng(11);
  Statevector sv(2);
  sv.apply_1q(gate_h(), 0);
  sv.apply_2q(gate_cx(), 0, 1);  // Bell state
  const int m0 = sv.measure_qubit(0, rng);
  // After measuring qubit 0, qubit 1 must agree (perfect correlation).
  EXPECT_NEAR(sv.probability_one(1), static_cast<double>(m0), 1e-12);
}

TEST(Statevector, PauliAndMeasurementRejectQubitsOutOfRange) {
  // Qubit -1 would stride over the whole buffer and n would shift by a
  // negative count; both must throw before touching an amplitude.
  Prng rng(13);
  Statevector sv(3);
  for (const int q : {-1, 3}) {
    EXPECT_THROW(sv.apply_pauli_x(q), std::out_of_range) << q;
    EXPECT_THROW(sv.apply_pauli_y(q), std::out_of_range) << q;
    EXPECT_THROW(sv.apply_pauli_z(q), std::out_of_range) << q;
    EXPECT_THROW(sv.probability_one(q), std::out_of_range) << q;
    EXPECT_THROW(sv.measure_qubit(q, rng), std::out_of_range) << q;
  }
  EXPECT_EQ(sv.amplitude(0), cplx(1.0, 0.0));
}

TEST(Statevector, FidelityOfIdenticalStatesIsOne) {
  Prng rng(12);
  Statevector sv(3);
  for (int g = 0; g < 10; ++g)
    sv.apply_1q(gate_rx(rng.uniform(-3, 3)),
                static_cast<int>(rng.uniform_int(3)));
  EXPECT_NEAR(sv.fidelity(sv), 1.0, 1e-12);
}

TEST(Statevector, FidelityOrthogonalStatesIsZero) {
  Statevector a(1), b(1);
  b.apply_1q(gate_x(), 0);
  EXPECT_NEAR(a.fidelity(b), 0.0, 1e-15);
}

TEST(Statevector, ResetReturnsToGround) {
  Statevector sv(2);
  sv.apply_1q(gate_h(), 0);
  sv.reset();
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{1, 0}), 0.0, 1e-15);
}

TEST(Statevector, NonUnitaryKrausBranchThenRenormalize) {
  Statevector sv(1);
  sv.apply_1q(gate_h(), 0);
  // Amplitude damping K0 with gamma = 0.5.
  const Matrix k0{{1.0, 0.0}, {0.0, std::sqrt(0.5)}};
  sv.apply_1q(k0, 0);
  EXPECT_LT(sv.norm(), 1.0);
  sv.normalize();
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

// ---- Parameterized sweep: gate application on multiple qubit counts -------

class StatevectorSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(StatevectorSizeSweep, RandomCircuitPreservesNorm) {
  const int n = GetParam();
  Prng rng(100 + n);
  Statevector sv(n);
  for (int g = 0; g < 30; ++g) {
    const int q = static_cast<int>(rng.uniform_int(n));
    sv.apply_1q(gate_u3(rng.uniform(0, 3), rng.uniform(0, 3),
                        rng.uniform(0, 3)),
                q);
    if (n >= 2) {
      const int q2 = (q + 1) % n;
      sv.apply_2q(gate_rxx(rng.uniform(-2, 2)), q, q2);
    }
  }
  EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

TEST_P(StatevectorSizeSweep, GhzStateHasCorrectCorrelations) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  Statevector sv(n);
  sv.apply_1q(gate_h(), 0);
  for (int q = 1; q < n; ++q) sv.apply_2q(gate_cx(), q - 1, q);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0 / std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(std::abs(sv.amplitude(sv.dim() - 1)), 1.0 / std::sqrt(2.0),
              1e-10);
  for (int q = 0; q < n; ++q) EXPECT_NEAR(sv.expectation_z(q), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StatevectorSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8));

// ---- Cost model -------------------------------------------------------------

TEST(CostModel, ClassicalCostsGrowExponentially) {
  const ScalingWorkload w;
  EXPECT_NEAR(classical_ops(11, w) / classical_ops(10, w), 2.0, 1e-9);
  EXPECT_NEAR(classical_regs(20) / classical_regs(10), 1024.0, 1e-6);
}

TEST(CostModel, QuantumCostsGrowSubExponentially) {
  const ScalingWorkload w;
  // Doubling qubits should much less than double quantum op counts' growth
  // rate compared to classical.
  const double q_ratio = quantum_ops(40, w) / quantum_ops(20, w);
  const double c_ratio = classical_ops(40, w) / classical_ops(20, w);
  EXPECT_LT(q_ratio, 4.0);
  EXPECT_GT(c_ratio, 1e5);
}

TEST(CostModel, CrossoverExistsNear27Qubits) {
  // The paper observes quantum advantage past ~27 qubits on this workload.
  const ScalingWorkload w;
  EXPECT_LT(classical_runtime_s(10, w), quantum_runtime_s(10, w));
  EXPECT_GT(classical_runtime_s(38, w), quantum_runtime_s(38, w));
}

TEST(CostModel, QuantumMemoryNegligible) {
  const ScalingWorkload w;
  EXPECT_GT(classical_memory_gb(34), 100.0);
  EXPECT_LT(quantum_memory_gb(34, w), 0.1);
}

}  // namespace
