// Bitwise parity tests for the blocked/SIMD statevector kernels against
// the scalar reference (KernelMode::Scalar), at the sizes the blocked
// paths are built for (n = 16, 18, 20). The kernel contract
// (qoc/sim/kernels.hpp) promises identical IEEE arithmetic in every
// mode, so comparisons are EXPECT_EQ on raw doubles (+0 == -0, the only
// divergence structured kernels may introduce).
//
// Also pins the diag-2q kernel against the CX.RZ.CX sequence it equals:
// each amplitude receives exactly one multiplication by the same
// diagonal entry on both paths, so the two must match bit-for-bit in
// every kernel mode.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "qoc/common/prng.hpp"
#include "qoc/sim/kernels.hpp"
#include "qoc/sim/statevector.hpp"

namespace {

using namespace qoc;
using linalg::cplx;
using sim::kernels::KernelMode;

/// Deterministic pseudo-random state of n qubits (not normalised; the
/// kernels are linear, so normalisation is irrelevant to parity).
std::vector<cplx> random_state(int n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<cplx> amps(std::size_t{1} << n);
  for (auto& a : amps) a = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return amps;
}

void expect_bitwise_equal(const std::vector<cplx>& a,
                          const std::vector<cplx>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << "re mismatch at index " << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << "im mismatch at index " << i;
  }
}

/// Applies `gates` to a copy of `init` under `mode` and returns the
/// resulting statevector amplitudes.
template <typename Fn>
std::vector<cplx> run_mode(KernelMode mode, const std::vector<cplx>& init,
                           int n, Fn&& gates) {
  sim::kernels::set_kernel_mode(mode);
  sim::Statevector sv(n);
  sv.set_amplitudes(init);
  gates(sv);
  sim::kernels::set_kernel_mode(KernelMode::Auto);
  return sv.amplitudes();
}

/// Asserts Blocked and Auto results are bit-identical to Scalar.
template <typename Fn>
void expect_mode_parity(int n, std::uint64_t seed, Fn&& gates) {
  const auto init = random_state(n, seed);
  const auto ref = run_mode(KernelMode::Scalar, init, n, gates);
  const auto blocked = run_mode(KernelMode::Blocked, init, n, gates);
  expect_bitwise_equal(ref, blocked);
  const auto automatic = run_mode(KernelMode::Auto, init, n, gates);
  expect_bitwise_equal(ref, automatic);
}

class KernelParity : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(LargeN, KernelParity,
                         ::testing::Values(16, 18, 20));

TEST_P(KernelParity, Apply1qAllStrideRegimes) {
  const int n = GetParam();
  const cplx m[4] = {cplx{0.83, 0.12}, cplx{-0.41, 0.27}, cplx{0.41, 0.27},
                     cplx{0.83, -0.12}};
  // Highest-stride, mid, stride-2 and stride-1 qubits.
  expect_mode_parity(n, 11, [&](sim::Statevector& sv) {
    for (const int q : {0, n / 2, n - 2, n - 1}) sv.apply_1q(m, q);
  });
}

TEST_P(KernelParity, Apply2qAllStrideRegimes) {
  const int n = GetParam();
  cplx m[16];
  Prng rng(7);
  for (auto& e : m) e = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  // (high, high), (high, low), both orientations of the stride-1 qubit,
  // and an adjacent low pair.
  expect_mode_parity(n, 12, [&](sim::Statevector& sv) {
    sv.apply_2q(m, 0, 1);
    sv.apply_2q(m, 2, n - 1);
    sv.apply_2q(m, n - 1, 3);
    sv.apply_2q(m, n - 2, n - 1);
    sv.apply_2q(m, n - 1, n - 2);
  });
}

TEST_P(KernelParity, DiagonalKernels) {
  const int n = GetParam();
  const cplx d0{0.96, -0.28}, d1{0.96, 0.28};
  expect_mode_parity(n, 13, [&](sim::Statevector& sv) {
    sv.apply_diag_1q(d0, d1, 0);
    sv.apply_diag_1q(d0, d1, n - 1);
    sv.apply_diag_2q(d0, d1, d1, d0, 1, n - 1);
    sv.apply_diag_2q(d0, d1, d1, d0, n - 1, 1);
    sv.apply_diag_2q(d0, d1, d1, d0, 2, 3);
    sv.apply_diag_2q(d0, d1, d1, d0, n - 2, n - 1);
  });
}

TEST_P(KernelParity, PermutationAndPauliKernels) {
  const int n = GetParam();
  expect_mode_parity(n, 14, [&](sim::Statevector& sv) {
    sv.apply_cx(0, n - 1);
    sv.apply_cx(n - 1, 0);
    sv.apply_cx(1, 2);
    sv.apply_cz(0, n - 1);
    sv.apply_cz(2, 3);
    sv.apply_swap(0, n - 1);
    sv.apply_swap(n - 2, n - 1);
    sv.apply_pauli_x(0);
    sv.apply_pauli_x(n - 1);
    sv.apply_pauli_y(0);
    sv.apply_pauli_y(n - 1);
    sv.apply_pauli_z(0);
    sv.apply_pauli_z(n - 1);
  });
}

TEST_P(KernelParity, FusedCxRzCxMatchesSequence) {
  // CX a b; RZ(t) b; CX a b is the diagonal (d0, d1, d1, d0) over
  // (a, b): the diag-2q kernel must equal the three-gate sequence. Both
  // paths multiply each amplitude by exactly the same entry once, in
  // every kernel mode.
  const int n = GetParam();
  const double t = 0.7853981633974483;
  const cplx d0 = std::exp(cplx{0.0, -t / 2.0});
  const cplx d1 = std::exp(cplx{0.0, t / 2.0});
  for (const auto [a, b] : {std::pair{0, n - 1}, std::pair{n - 1, 0},
                            std::pair{1, 2}, std::pair{n - 2, n - 1}}) {
    const auto init = random_state(n, 15);
    for (const KernelMode mode :
         {KernelMode::Scalar, KernelMode::Blocked, KernelMode::Auto}) {
      const auto fused = run_mode(mode, init, n, [&](sim::Statevector& sv) {
        sv.apply_diag_2q(d0, d1, d1, d0, a, b);
      });
      const auto seq = run_mode(mode, init, n, [&](sim::Statevector& sv) {
        sv.apply_cx(a, b);
        sv.apply_diag_1q(d0, d1, b);
        sv.apply_cx(a, b);
      });
      expect_bitwise_equal(fused, seq);
    }
  }
}

TEST(Kernels, SmallStatesStayCorrect) {
  // The blocked paths must also be exact on tiny states (n = 1, 2), where
  // every stride regime degenerates.
  for (const int n : {1, 2, 3}) {
    const cplx m[4] = {cplx{0.6, 0.0}, cplx{0.8, 0.0}, cplx{-0.8, 0.0},
                       cplx{0.6, 0.0}};
    expect_mode_parity(n, 20 + static_cast<std::uint64_t>(n),
                       [&](sim::Statevector& sv) {
                         for (int q = 0; q < n; ++q) sv.apply_1q(m, q);
                         if (n >= 2) {
                           sv.apply_cx(0, 1);
                           sv.apply_cz(0, 1);
                           sv.apply_swap(0, 1);
                           sv.apply_diag_2q(cplx{0.0, 1.0}, cplx{1.0, 0.0},
                                            cplx{1.0, 0.0}, cplx{0.0, -1.0},
                                            0, 1);
                         }
                       });
  }
}

TEST(Kernels, SimdBackendReported) {
  // Informational: the dispatcher must report a backend name, and Auto
  // mode must fall back cleanly (already exercised above) when it is
  // "portable".
  const char* backend = sim::kernels::simd_backend();
  ASSERT_NE(backend, nullptr);
  ::testing::Test::RecordProperty("simd_backend", backend);
}

}  // namespace
