// Statevector kernel dispatch: scalar reference loops (the parity oracle)
// and the portable blocked implementations. This TU and kernels_avx2.cpp
// are compiled with -ffp-contract=off so every mode performs literally
// the same IEEE operations (see the contract in kernels.hpp).

#include "qoc/sim/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace qoc::sim::kernels {

namespace {

std::atomic<KernelMode> g_mode{KernelMode::Auto};

/// The active SIMD table: compiled in AND supported by this CPU.
const detail::SimdVTable* active_simd() {
  static const detail::SimdVTable* table = [] {
    const detail::SimdVTable* t = detail::avx2_vtable();
#if defined(__x86_64__) || defined(__i386__)
    if (t != nullptr && __builtin_cpu_supports("avx2")) return t;
#endif
    return static_cast<const detail::SimdVTable*>(nullptr);
  }();
  return table;
}

enum class Path { Scalar, Blocked, Simd };

Path resolve_path() {
  switch (g_mode.load(std::memory_order_relaxed)) {
    case KernelMode::Scalar:
      return Path::Scalar;
    case KernelMode::Blocked:
      return Path::Blocked;
    case KernelMode::Simd:
    case KernelMode::Auto:
      return active_simd() ? Path::Simd : Path::Blocked;
  }
  return Path::Blocked;
}

// ---- Scalar reference ------------------------------------------------------
// These are the pre-SIMD Statevector loops, verbatim. They define the
// arithmetic every other path must reproduce bit-for-bit.

void scalar_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                     const cplx* m) {
  const cplx m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      const std::size_t i0 = base + off;
      const std::size_t i1 = i0 + stride;
      const cplx a0 = amps[i0];
      const cplx a1 = amps[i1];
      amps[i0] = m00 * a0 + m01 * a1;
      amps[i1] = m10 * a0 + m11 * a1;
    }
  }
}

void scalar_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                     std::size_t sb, const cplx* m) {
  const std::size_t mask = sa | sb;
  for (std::size_t i = 0; i < dim; ++i) {
    if (i & mask) continue;  // visit each group once, via its 00 member
    const std::size_t i00 = i;
    const std::size_t i01 = i | sb;
    const std::size_t i10 = i | sa;
    const std::size_t i11 = i | sa | sb;
    const cplx a00 = amps[i00], a01 = amps[i01], a10 = amps[i10],
               a11 = amps[i11];
    amps[i00] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
    amps[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
    amps[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
    amps[i11] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
  }
}

void scalar_apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride,
                          cplx d0, cplx d1) {
  for (std::size_t i = 0; i < dim; ++i)
    amps[i] = ((i & stride) ? d1 : d0) * amps[i];
}

void scalar_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                          std::size_t sb, const cplx* d) {
  for (std::size_t i = 0; i < dim; ++i) {
    const std::size_t idx = (((i & sa) ? 2u : 0u) | ((i & sb) ? 1u : 0u));
    amps[i] = d[idx] * amps[i];
  }
}

void scalar_apply_cx(cplx* amps, std::size_t dim, std::size_t sc,
                     std::size_t st) {
  for (std::size_t i = 0; i < dim; ++i)
    if ((i & sc) && !(i & st)) std::swap(amps[i], amps[i | st]);
}

void scalar_apply_cz(cplx* amps, std::size_t dim, std::size_t sa,
                     std::size_t sb) {
  const std::size_t both = sa | sb;
  for (std::size_t i = 0; i < dim; ++i)
    if ((i & both) == both) amps[i] = -amps[i];
}

void scalar_apply_swap(cplx* amps, std::size_t dim, std::size_t sa,
                       std::size_t sb) {
  for (std::size_t i = 0; i < dim; ++i)
    if ((i & sa) && !(i & sb)) std::swap(amps[i], amps[(i ^ sa) | sb]);
}

void scalar_apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride) {
  for (std::size_t base = 0; base < dim; base += 2 * stride)
    for (std::size_t off = 0; off < stride; ++off)
      std::swap(amps[base + off], amps[base + off + stride]);
}

void scalar_apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride) {
  const cplx i{0.0, 1.0};
  for (std::size_t base = 0; base < dim; base += 2 * stride)
    for (std::size_t off = 0; off < stride; ++off) {
      const std::size_t i0 = base + off;
      const std::size_t i1 = i0 + stride;
      const cplx a0 = amps[i0];
      const cplx a1 = amps[i1];
      amps[i0] = -i * a1;
      amps[i1] = i * a0;
    }
}

void scalar_apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride) {
  for (std::size_t base = stride; base < dim; base += 2 * stride)
    for (std::size_t off = 0; off < stride; ++off)
      amps[base + off] = -amps[base + off];
}

// ---- Portable blocked ------------------------------------------------------
// Group enumeration by nested base blocks: the inner index runs over the
// bits below the smallest operand stride, so every memory access is a
// contiguous run and the skip-mask branch of the scalar 2q/diag/cz loops
// disappears. Per-element arithmetic is written with the exact same
// complex expressions as the scalar reference.

void blocked_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                      std::size_t sb, const cplx* m) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; ++i) {
        const std::size_t i01 = i + sb;
        const std::size_t i10 = i + sa;
        const std::size_t i11 = i + sa + sb;
        const cplx a00 = amps[i], a01 = amps[i01], a10 = amps[i10],
                   a11 = amps[i11];
        amps[i] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
        amps[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
        amps[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
        amps[i11] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
      }
    }
  }
}

void blocked_apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride,
                           cplx d0, cplx d1) {
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; ++i) amps[i] = d0 * amps[i];
    for (std::size_t i = base + stride; i < base + 2 * stride; ++i)
      amps[i] = d1 * amps[i];
  }
}

void blocked_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                           std::size_t sb, const cplx* d) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; ++i) amps[i] = d[0] * amps[i];
      for (std::size_t i = b1 + sb; i < b1 + sb + s1; ++i)
        amps[i] = d[1] * amps[i];
      for (std::size_t i = b1 + sa; i < b1 + sa + s1; ++i)
        amps[i] = d[2] * amps[i];
      for (std::size_t i = b1 + sa + sb; i < b1 + sa + sb + s1; ++i)
        amps[i] = d[3] * amps[i];
    }
  }
}

void blocked_apply_cx(cplx* amps, std::size_t dim, std::size_t sc,
                      std::size_t st) {
  const std::size_t s1 = std::min(sc, st);
  const std::size_t s2 = std::max(sc, st);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2)
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1)
      std::swap_ranges(amps + b1 + sc, amps + b1 + sc + s1,
                       amps + b1 + sc + st);
}

void blocked_apply_cz(cplx* amps, std::size_t dim, std::size_t sa,
                      std::size_t sb) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2)
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1)
      for (std::size_t i = b1 + sa + sb; i < b1 + sa + sb + s1; ++i)
        amps[i] = -amps[i];
}

void blocked_apply_swap(cplx* amps, std::size_t dim, std::size_t sa,
                        std::size_t sb) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2)
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1)
      std::swap_ranges(amps + b1 + sa, amps + b1 + sa + s1, amps + b1 + sb);
}

void blocked_apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride) {
  for (std::size_t base = 0; base < dim; base += 2 * stride)
    std::swap_ranges(amps + base, amps + base + stride, amps + base + stride);
}

void blocked_apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride) {
  for (std::size_t base = stride; base < dim; base += 2 * stride)
    for (std::size_t i = base; i < base + stride; ++i) amps[i] = -amps[i];
}

// ---- Portable batched (evaluation-major) -----------------------------------
// Row enumeration is the blocked form above with every row index scaled
// by k; the inner lane loop is the scalar reference expression per lane,
// so lane L is bit-identical to running the scalar kernel on state L.
// The lane loop is over contiguous memory and auto-vectorizes; the AVX2
// TU provides hand-tuned forms for the arithmetic-heavy kernels.

void portable_batched_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                               std::size_t k, const cplx* m) {
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      cplx* p0 = amps + (base + off) * k;
      cplx* p1 = p0 + stride * k;
      for (std::size_t l = 0; l < k; ++l) {
        const cplx a0 = p0[l];
        const cplx a1 = p1[l];
        p0[l] = m[0 * k + l] * a0 + m[1 * k + l] * a1;
        p1[l] = m[2 * k + l] * a0 + m[3 * k + l] * a1;
      }
    }
  }
}

void portable_batched_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                               std::size_t sb, std::size_t k, const cplx* m) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; ++i) {
        cplx* p00 = amps + i * k;
        cplx* p01 = amps + (i + sb) * k;
        cplx* p10 = amps + (i + sa) * k;
        cplx* p11 = amps + (i + sa + sb) * k;
        for (std::size_t l = 0; l < k; ++l) {
          const cplx a00 = p00[l], a01 = p01[l], a10 = p10[l], a11 = p11[l];
          p00[l] = m[0 * k + l] * a00 + m[1 * k + l] * a01 +
                   m[2 * k + l] * a10 + m[3 * k + l] * a11;
          p01[l] = m[4 * k + l] * a00 + m[5 * k + l] * a01 +
                   m[6 * k + l] * a10 + m[7 * k + l] * a11;
          p10[l] = m[8 * k + l] * a00 + m[9 * k + l] * a01 +
                   m[10 * k + l] * a10 + m[11 * k + l] * a11;
          p11[l] = m[12 * k + l] * a00 + m[13 * k + l] * a01 +
                   m[14 * k + l] * a10 + m[15 * k + l] * a11;
        }
      }
    }
  }
}

void portable_batched_apply_diag_1q(cplx* amps, std::size_t dim,
                                    std::size_t stride, std::size_t k,
                                    const cplx* d) {
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; ++i) {
      cplx* p = amps + i * k;
      for (std::size_t l = 0; l < k; ++l) p[l] = d[l] * p[l];
    }
    for (std::size_t i = base + stride; i < base + 2 * stride; ++i) {
      cplx* p = amps + i * k;
      for (std::size_t l = 0; l < k; ++l) p[l] = d[k + l] * p[l];
    }
  }
}

void portable_batched_apply_diag_2q(cplx* amps, std::size_t dim,
                                    std::size_t sa, std::size_t sb,
                                    std::size_t k, const cplx* d) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; ++i) {
        cplx* p = amps + i * k;
        for (std::size_t l = 0; l < k; ++l) p[l] = d[l] * p[l];
      }
      for (std::size_t i = b1 + sb; i < b1 + sb + s1; ++i) {
        cplx* p = amps + i * k;
        for (std::size_t l = 0; l < k; ++l) p[l] = d[k + l] * p[l];
      }
      for (std::size_t i = b1 + sa; i < b1 + sa + s1; ++i) {
        cplx* p = amps + i * k;
        for (std::size_t l = 0; l < k; ++l) p[l] = d[2 * k + l] * p[l];
      }
      for (std::size_t i = b1 + sa + sb; i < b1 + sa + sb + s1; ++i) {
        cplx* p = amps + i * k;
        for (std::size_t l = 0; l < k; ++l) p[l] = d[3 * k + l] * p[l];
      }
    }
  }
}

void portable_batched_apply_diag_run(cplx* amps, std::size_t dim,
                                     const BatchedDiagOp* ops,
                                     std::size_t count, std::size_t k) {
  // Row-sequential: every op's entry index depends only on the row, so
  // each amplitude chains its whole product without touching memory
  // between ops. Operand order (d * a) matches the standalone portable
  // diag kernels, keeping the chain bit-identical to separate passes.
  std::size_t eoff[kMaxDiagRun];
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t r = 0; r < count; ++r) {
      const BatchedDiagOp& op = ops[r];
      std::size_t e = (i & op.sa) ? 1 : 0;
      if (op.sb != 0) e = 2 * e + ((i & op.sb) ? 1 : 0);
      eoff[r] = e * k;
    }
    cplx* p = amps + i * k;
    for (std::size_t l = 0; l < k; ++l) {
      cplx a = p[l];
      for (std::size_t r = 0; r < count; ++r) a = ops[r].d[eoff[r] + l] * a;
      p[l] = a;
    }
  }
}

void portable_batched_apply_cx(cplx* amps, std::size_t dim, std::size_t sc,
                               std::size_t st, std::size_t k) {
  const std::size_t s1 = std::min(sc, st);
  const std::size_t s2 = std::max(sc, st);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2)
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1)
      std::swap_ranges(amps + (b1 + sc) * k, amps + (b1 + sc + s1) * k,
                       amps + (b1 + sc + st) * k);
}

void portable_batched_apply_cz(cplx* amps, std::size_t dim, std::size_t sa,
                               std::size_t sb, std::size_t k) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2)
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1)
      for (std::size_t i = (b1 + sa + sb) * k; i < (b1 + sa + sb + s1) * k;
           ++i)
        amps[i] = -amps[i];
}

void portable_batched_apply_swap(cplx* amps, std::size_t dim, std::size_t sa,
                                 std::size_t sb, std::size_t k) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2)
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1)
      std::swap_ranges(amps + (b1 + sa) * k, amps + (b1 + sa + s1) * k,
                       amps + (b1 + sb) * k);
}

void portable_batched_apply_pauli_x(cplx* amps, std::size_t dim,
                                    std::size_t stride, std::size_t k) {
  for (std::size_t base = 0; base < dim; base += 2 * stride)
    std::swap_ranges(amps + base * k, amps + (base + stride) * k,
                     amps + (base + stride) * k);
}

void portable_batched_apply_pauli_y(cplx* amps, std::size_t dim,
                                    std::size_t stride, std::size_t k) {
  const cplx i{0.0, 1.0};
  for (std::size_t base = 0; base < dim; base += 2 * stride)
    for (std::size_t off = 0; off < stride; ++off) {
      cplx* p0 = amps + (base + off) * k;
      cplx* p1 = p0 + stride * k;
      for (std::size_t l = 0; l < k; ++l) {
        const cplx a0 = p0[l];
        const cplx a1 = p1[l];
        p0[l] = -i * a1;
        p1[l] = i * a0;
      }
    }
}

void portable_batched_apply_pauli_z(cplx* amps, std::size_t dim,
                                    std::size_t stride, std::size_t k) {
  for (std::size_t base = stride; base < dim; base += 2 * stride)
    for (std::size_t i = base * k; i < (base + stride) * k; ++i)
      amps[i] = -amps[i];
}

/// Batched dispatch: the AVX2 forms need an even lane count (two complex
/// lanes per register); otherwise -- and for Scalar/Blocked modes, where
/// the portable loop already IS the per-lane scalar reference -- the
/// portable form runs.
bool use_batched_simd(std::size_t k) {
  return resolve_path() == Path::Simd && (k % 2) == 0;
}

}  // namespace

void set_kernel_mode(KernelMode mode) {
  g_mode.store(mode, std::memory_order_relaxed);
}

KernelMode kernel_mode() { return g_mode.load(std::memory_order_relaxed); }

const char* simd_backend() {
  const detail::SimdVTable* t = active_simd();
  return t != nullptr ? t->name : "portable";
}

void apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
              const cplx* m) {
  const Path p = resolve_path();
  if (p == Path::Simd) {
    if (const auto* t = active_simd(); t->apply_1q != nullptr) {
      t->apply_1q(amps, dim, stride, m);
      return;
    }
  }
  // The scalar 1q loop is already the blocked enumeration (contiguous
  // runs, no skip mask), so Blocked shares it.
  scalar_apply_1q(amps, dim, stride, m);
}

void apply_2q(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb,
              const cplx* m) {
  switch (resolve_path()) {
    case Path::Scalar:
      scalar_apply_2q(amps, dim, sa, sb, m);
      return;
    case Path::Simd:
      if (const auto* t = active_simd(); t->apply_2q != nullptr) {
        t->apply_2q(amps, dim, sa, sb, m);
        return;
      }
      [[fallthrough]];
    case Path::Blocked:
      blocked_apply_2q(amps, dim, sa, sb, m);
      return;
  }
}

void apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride, cplx d0,
                   cplx d1) {
  switch (resolve_path()) {
    case Path::Scalar:
      scalar_apply_diag_1q(amps, dim, stride, d0, d1);
      return;
    case Path::Simd:
      if (const auto* t = active_simd(); t->apply_diag_1q != nullptr) {
        t->apply_diag_1q(amps, dim, stride, d0, d1);
        return;
      }
      [[fallthrough]];
    case Path::Blocked:
      blocked_apply_diag_1q(amps, dim, stride, d0, d1);
      return;
  }
}

void apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                   std::size_t sb, const cplx* d) {
  switch (resolve_path()) {
    case Path::Scalar:
      scalar_apply_diag_2q(amps, dim, sa, sb, d);
      return;
    case Path::Simd:
      if (const auto* t = active_simd(); t->apply_diag_2q != nullptr) {
        t->apply_diag_2q(amps, dim, sa, sb, d);
        return;
      }
      [[fallthrough]];
    case Path::Blocked:
      blocked_apply_diag_2q(amps, dim, sa, sb, d);
      return;
  }
}

void apply_cx(cplx* amps, std::size_t dim, std::size_t sc, std::size_t st) {
  // Pure data movement: the blocked swap_ranges form auto-vectorizes, so
  // no ISA-specific variant exists.
  if (resolve_path() == Path::Scalar)
    scalar_apply_cx(amps, dim, sc, st);
  else
    blocked_apply_cx(amps, dim, sc, st);
}

void apply_cz(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb) {
  if (resolve_path() == Path::Scalar)
    scalar_apply_cz(amps, dim, sa, sb);
  else
    blocked_apply_cz(amps, dim, sa, sb);
}

void apply_swap(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb) {
  if (resolve_path() == Path::Scalar)
    scalar_apply_swap(amps, dim, sa, sb);
  else
    blocked_apply_swap(amps, dim, sa, sb);
}

void apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride) {
  if (resolve_path() == Path::Scalar)
    scalar_apply_pauli_x(amps, dim, stride);
  else
    blocked_apply_pauli_x(amps, dim, stride);
}

void apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride) {
  switch (resolve_path()) {
    case Path::Scalar:
      scalar_apply_pauli_y(amps, dim, stride);
      return;
    case Path::Simd:
      if (const auto* t = active_simd(); t->apply_pauli_y != nullptr) {
        t->apply_pauli_y(amps, dim, stride);
        return;
      }
      [[fallthrough]];
    case Path::Blocked:
      scalar_apply_pauli_y(amps, dim, stride);  // already blocked form
      return;
  }
}

void apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride) {
  if (resolve_path() == Path::Scalar)
    scalar_apply_pauli_z(amps, dim, stride);
  else
    blocked_apply_pauli_z(amps, dim, stride);
}

// ---- Batched dispatch ------------------------------------------------------

void batched_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                      std::size_t k, const cplx* m) {
  if (use_batched_simd(k)) {
    if (const auto* t = active_simd(); t->batched_apply_1q != nullptr) {
      t->batched_apply_1q(amps, dim, stride, k, m);
      return;
    }
  }
  portable_batched_apply_1q(amps, dim, stride, k, m);
}

namespace {

void portable_batched_apply_1q_pair(cplx* amps, std::size_t dim,
                                    std::size_t sa, const cplx* m_a,
                                    std::size_t sb, const cplx* m_b,
                                    std::size_t k) {
  // Enumerate rows with both the sa and sb bits clear; each names the
  // 4-row block the two butterflies close over. Per lane the arithmetic
  // below is expression-for-expression two portable_batched_apply_1q
  // passes (gate A then gate B) with the intermediates kept in locals.
  const std::size_t hi = sa > sb ? sa : sb;
  const std::size_t lo = sa > sb ? sb : sa;
  for (std::size_t base = 0; base < dim; base += 2 * hi) {
    for (std::size_t mid = base; mid < base + hi; mid += 2 * lo) {
      for (std::size_t off = 0; off < lo; ++off) {
        const std::size_t row = mid + off;
        cplx* p00 = amps + row * k;
        cplx* p01 = p00 + sb * k;
        cplx* p10 = p00 + sa * k;
        cplx* p11 = p10 + sb * k;
        for (std::size_t l = 0; l < k; ++l) {
          const cplx a00 = p00[l];
          const cplx a01 = p01[l];
          const cplx a10 = p10[l];
          const cplx a11 = p11[l];
          // Gate A: stride-sa pairs (a00, a10) and (a01, a11).
          const cplx b00 = m_a[0 * k + l] * a00 + m_a[1 * k + l] * a10;
          const cplx b10 = m_a[2 * k + l] * a00 + m_a[3 * k + l] * a10;
          const cplx b01 = m_a[0 * k + l] * a01 + m_a[1 * k + l] * a11;
          const cplx b11 = m_a[2 * k + l] * a01 + m_a[3 * k + l] * a11;
          // Gate B: stride-sb pairs (b00, b01) and (b10, b11).
          p00[l] = m_b[0 * k + l] * b00 + m_b[1 * k + l] * b01;
          p01[l] = m_b[2 * k + l] * b00 + m_b[3 * k + l] * b01;
          p10[l] = m_b[0 * k + l] * b10 + m_b[1 * k + l] * b11;
          p11[l] = m_b[2 * k + l] * b10 + m_b[3 * k + l] * b11;
        }
      }
    }
  }
}


}  // namespace

void batched_apply_1q_pair(cplx* amps, std::size_t dim, std::size_t sa,
                           const cplx* m_a, std::size_t sb, const cplx* m_b,
                           std::size_t k) {
  if (sa == sb)
    throw std::invalid_argument(
        "batched_apply_1q_pair: gates must act on distinct qubits");
  if (use_batched_simd(k)) {
    if (const auto* t = active_simd(); t->batched_apply_1q_pair != nullptr) {
      t->batched_apply_1q_pair(amps, dim, sa, m_a, sb, m_b, k);
      return;
    }
  }
  portable_batched_apply_1q_pair(amps, dim, sa, m_a, sb, m_b, k);
}

void batched_apply_1q_pair_run(cplx* amps, std::size_t dim,
                               const BatchedPairOp* pairs, std::size_t count,
                               std::size_t k) {
  if (count > kMaxPairRun)
    throw std::invalid_argument("batched_apply_1q_pair_run: run too long");
  for (std::size_t p = 0; p < count; ++p)
    if (pairs[p].sa == pairs[p].sb)
      throw std::invalid_argument(
          "batched_apply_1q_pair_run: gates must act on distinct qubits");
  if (count > 0 && use_batched_simd(k)) {
    if (const auto* t = active_simd();
        t->batched_apply_1q_pair_run != nullptr) {
      t->batched_apply_1q_pair_run(amps, dim, pairs, count, k);
      return;
    }
  }
  // Pair-at-a-time reference form (the tiled kernel's bitwise oracle).
  for (std::size_t p = 0; p < count; ++p)
    portable_batched_apply_1q_pair(amps, dim, pairs[p].sa, pairs[p].m_a,
                                   pairs[p].sb, pairs[p].m_b, k);
}


void batched_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                      std::size_t sb, std::size_t k, const cplx* m) {
  if (use_batched_simd(k)) {
    if (const auto* t = active_simd(); t->batched_apply_2q != nullptr) {
      t->batched_apply_2q(amps, dim, sa, sb, k, m);
      return;
    }
  }
  portable_batched_apply_2q(amps, dim, sa, sb, k, m);
}

void batched_apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k, const cplx* d) {
  if (use_batched_simd(k)) {
    if (const auto* t = active_simd(); t->batched_apply_diag_1q != nullptr) {
      t->batched_apply_diag_1q(amps, dim, stride, k, d);
      return;
    }
  }
  portable_batched_apply_diag_1q(amps, dim, stride, k, d);
}

void batched_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                           std::size_t sb, std::size_t k, const cplx* d) {
  if (use_batched_simd(k)) {
    if (const auto* t = active_simd(); t->batched_apply_diag_2q != nullptr) {
      t->batched_apply_diag_2q(amps, dim, sa, sb, k, d);
      return;
    }
  }
  portable_batched_apply_diag_2q(amps, dim, sa, sb, k, d);
}

void batched_apply_diag_run(cplx* amps, std::size_t dim,
                            const BatchedDiagOp* ops, std::size_t count,
                            std::size_t k) {
  if (count == 0) return;
  if (count > kMaxDiagRun)
    throw std::invalid_argument("batched_apply_diag_run: run too long");
  if (use_batched_simd(k)) {
    if (const auto* t = active_simd(); t->batched_apply_diag_run != nullptr) {
      t->batched_apply_diag_run(amps, dim, ops, count, k);
      return;
    }
  }
  portable_batched_apply_diag_run(amps, dim, ops, count, k);
}

void batched_apply_diag_run_then_1q_pair(cplx* amps, std::size_t dim,
                                         const BatchedDiagOp* ops,
                                         std::size_t count, std::size_t sa,
                                         const cplx* m_a, std::size_t sb,
                                         const cplx* m_b, std::size_t k) {
  if (count > kMaxDiagRun)
    throw std::invalid_argument(
        "batched_apply_diag_run_then_1q_pair: run too long");
  if (sa == sb)
    throw std::invalid_argument(
        "batched_apply_diag_run_then_1q_pair: gates must act on distinct "
        "qubits");
  if (count > 0 && use_batched_simd(k)) {
    if (const auto* t = active_simd();
        t->batched_apply_diag_run_then_1q_pair != nullptr) {
      t->batched_apply_diag_run_then_1q_pair(amps, dim, ops, count, sa, m_a,
                                             sb, m_b, k);
      return;
    }
  }
  // Two-pass reference form (the fused kernel's bit-exactness oracle).
  batched_apply_diag_run(amps, dim, ops, count, k);
  batched_apply_1q_pair(amps, dim, sa, m_a, sb, m_b, k);
}

void batched_apply_cx(cplx* amps, std::size_t dim, std::size_t sc,
                      std::size_t st, std::size_t k) {
  // Pure data movement; the swap_ranges form auto-vectorizes.
  portable_batched_apply_cx(amps, dim, sc, st, k);
}

void batched_apply_cz(cplx* amps, std::size_t dim, std::size_t sa,
                      std::size_t sb, std::size_t k) {
  portable_batched_apply_cz(amps, dim, sa, sb, k);
}

void batched_apply_swap(cplx* amps, std::size_t dim, std::size_t sa,
                        std::size_t sb, std::size_t k) {
  portable_batched_apply_swap(amps, dim, sa, sb, k);
}

void batched_apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k) {
  portable_batched_apply_pauli_x(amps, dim, stride, k);
}

void batched_apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k) {
  if (use_batched_simd(k)) {
    if (const auto* t = active_simd(); t->batched_apply_pauli_y != nullptr) {
      t->batched_apply_pauli_y(amps, dim, stride, k);
      return;
    }
  }
  portable_batched_apply_pauli_y(amps, dim, stride, k);
}

void batched_apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k) {
  portable_batched_apply_pauli_z(amps, dim, stride, k);
}

}  // namespace qoc::sim::kernels
