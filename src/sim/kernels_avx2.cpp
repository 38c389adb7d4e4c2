// AVX2 statevector kernels. CMake compiles this TU with -mavx2 (and
// -ffp-contract=off) when the compiler supports it; without __AVX2__ the
// file contributes only a null vtable, and the dispatcher falls back to
// the portable blocked loops.
//
// Every vector expression mirrors the scalar reference arithmetic
// operation-for-operation: complex products expand to mul/mul/addsub
// (never FMA), and sums keep the reference's left-to-right association.
// Only independent amplitude groups are batched into lanes, so results
// are bit-identical to KernelMode::Scalar (see kernels.hpp).

#include "qoc/sim/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace qoc::sim::kernels {
namespace {

/// Per-lane complex product a*b of two packed [re, im, re, im] vectors.
/// Lane arithmetic: re = a.re*b.re - a.im*b.im; im = a.im*b.re + a.re*b.im
/// -- the scalar operator* products and sum order, commuted per factor
/// (IEEE mul/add are commutative bitwise for finite values).
inline __m256d cmul(__m256d a, __m256d b) {
  const __m256d b_re = _mm256_movedup_pd(b);       // [b.re, b.re] per lane
  const __m256d b_im = _mm256_permute_pd(b, 0xF);  // [b.im, b.im] per lane
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // [a.im, a.re] per lane
  return _mm256_addsub_pd(_mm256_mul_pd(a, b_re), _mm256_mul_pd(a_sw, b_im));
}

/// One complex scalar broadcast to both lanes.
inline __m256d bcast(const cplx* p) {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(p));
}

/// Two complex scalars packed as [lo | hi].
inline __m256d pack2(const cplx* lo, const cplx* hi) {
  return _mm256_set_m128d(_mm_loadu_pd(reinterpret_cast<const double*>(hi)),
                          _mm_loadu_pd(reinterpret_cast<const double*>(lo)));
}

inline __m256d load2(const cplx* p) {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void store2(cplx* p, __m256d v) {
  _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}

inline __m256d dup_lo(__m256d v) { return _mm256_permute2f128_pd(v, v, 0x00); }
inline __m256d dup_hi(__m256d v) { return _mm256_permute2f128_pd(v, v, 0x11); }

/// cmul with the second factor pre-split into [re, re] / [im, im]
/// vectors and the swapped first factor supplied by the caller. This is
/// cmul(a, b) expression-for-expression -- the b shuffles just run once
/// per kernel call and the a swap once per amplitude vector instead of
/// once per product -- so results are bit-identical; it exists because
/// the expanded form saturates the shuffle port in the evaluation-major
/// kernels, where one amplitude vector meets several matrix entries.
inline __m256d cmul_pre(__m256d a, __m256d a_sw, __m256d b_re, __m256d b_im) {
  return _mm256_addsub_pd(_mm256_mul_pd(a, b_re), _mm256_mul_pd(a_sw, b_im));
}

inline __m256d swap_ri(__m256d a) { return _mm256_permute_pd(a, 0x5); }

// True when every entry's imaginary part is (+/-)0 -- gates whose
// complex products reduce to componentwise scaling (ry, h). The dense
// kernels use this to pick real-matrix butterflies; the dropped
// im-part products are exact zeros, so only zero signs can change
// (see kernels.hpp).
inline bool entries_real(const cplx* m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (m[i].imag() != 0.0) return false;
  return true;
}

/// Pre-split one entry-major lane row (d[e * k + lane], lane pair l)
/// into its re/im broadcast halves.
inline void split_entry(const cplx* d, std::size_t l, __m256d& re,
                        __m256d& im) {
  const __m256d v = load2(d + l);
  re = _mm256_movedup_pd(v);
  im = _mm256_permute_pd(v, 0xF);
}

void avx2_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                   const cplx* m) {
  if (stride == 1) {
    // Lowest qubit: each 32-byte load holds one full (a0, a1) group.
    const __m256d c0 = pack2(&m[0], &m[2]);  // [m00 | m10]
    const __m256d c1 = pack2(&m[1], &m[3]);  // [m01 | m11]
    for (std::size_t base = 0; base < dim; base += 2) {
      const __m256d v = load2(amps + base);
      const __m256d r =
          _mm256_add_pd(cmul(dup_lo(v), c0), cmul(dup_hi(v), c1));
      store2(amps + base, r);
    }
    return;
  }
  const __m256d m00 = bcast(&m[0]), m01 = bcast(&m[1]);
  const __m256d m10 = bcast(&m[2]), m11 = bcast(&m[3]);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; off += 2) {
      cplx* p0 = amps + base + off;
      cplx* p1 = p0 + stride;
      const __m256d a0 = load2(p0);
      const __m256d a1 = load2(p1);
      store2(p0, _mm256_add_pd(cmul(a0, m00), cmul(a1, m01)));
      store2(p1, _mm256_add_pd(cmul(a0, m10), cmul(a1, m11)));
    }
  }
}

void avx2_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                   std::size_t sb, const cplx* m) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);

  if (s1 == 1) {
    // One operand is the lowest qubit: each group is two adjacent pairs
    // at i and i + s2. Pair memory order depends on which operand has
    // stride 1 (sb == 1: pairs are (a00,a01)/(a10,a11); sa == 1:
    // (a00,a10)/(a01,a11)). Row/column packing below follows that map.
    const bool b_low = (sb == 1);
    const int p0r0 = 0, p0r1 = b_low ? 1 : 2;
    const int p1r0 = b_low ? 2 : 1, p1r1 = 3;
    __m256d m_p0[4], m_p1[4];  // per-column matrix entries for each pair
    for (int c = 0; c < 4; ++c) {
      m_p0[c] = pack2(&m[p0r0 * 4 + c], &m[p0r1 * 4 + c]);
      m_p1[c] = pack2(&m[p1r0 * 4 + c], &m[p1r1 * 4 + c]);
    }
    for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
      for (std::size_t i = b2; i < b2 + s2; i += 2) {
        const __m256d pair0 = load2(amps + i);
        const __m256d pair1 = load2(amps + i + s2);
        // Column amplitudes broadcast to both lanes, in matrix order.
        const __m256d a0 = dup_lo(pair0);
        const __m256d a1 = b_low ? dup_hi(pair0) : dup_lo(pair1);
        const __m256d a2 = b_low ? dup_lo(pair1) : dup_hi(pair0);
        const __m256d a3 = dup_hi(pair1);
        const __m256d r0 = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(cmul(a0, m_p0[0]), cmul(a1, m_p0[1])),
                cmul(a2, m_p0[2])),
            cmul(a3, m_p0[3]));
        const __m256d r1 = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(cmul(a0, m_p1[0]), cmul(a1, m_p1[1])),
                cmul(a2, m_p1[2])),
            cmul(a3, m_p1[3]));
        store2(amps + i, r0);
        store2(amps + i + s2, r1);
      }
    }
    return;
  }

  __m256d mm[16];
  for (int e = 0; e < 16; ++e) mm[e] = bcast(&m[e]);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; i += 2) {
        cplx* p00 = amps + i;
        cplx* p01 = amps + i + sb;
        cplx* p10 = amps + i + sa;
        cplx* p11 = amps + i + sa + sb;
        const __m256d a00 = load2(p00), a01 = load2(p01);
        const __m256d a10 = load2(p10), a11 = load2(p11);
        store2(p00, _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cmul(a00, mm[0]), cmul(a01, mm[1])),
                            cmul(a10, mm[2])),
                        cmul(a11, mm[3])));
        store2(p01, _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cmul(a00, mm[4]), cmul(a01, mm[5])),
                            cmul(a10, mm[6])),
                        cmul(a11, mm[7])));
        store2(p10, _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cmul(a00, mm[8]), cmul(a01, mm[9])),
                            cmul(a10, mm[10])),
                        cmul(a11, mm[11])));
        store2(p11,
               _mm256_add_pd(
                   _mm256_add_pd(
                       _mm256_add_pd(cmul(a00, mm[12]), cmul(a01, mm[13])),
                       cmul(a10, mm[14])),
                   cmul(a11, mm[15])));
      }
    }
  }
}

void avx2_apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride,
                        cplx d0, cplx d1) {
  if (stride == 1) {
    const __m256d d01 = pack2(&d0, &d1);
    for (std::size_t base = 0; base < dim; base += 2)
      store2(amps + base, cmul(load2(amps + base), d01));
    return;
  }
  const __m256d v0 = bcast(&d0), v1 = bcast(&d1);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; i += 2)
      store2(amps + i, cmul(load2(amps + i), v0));
    for (std::size_t i = base + stride; i < base + 2 * stride; i += 2)
      store2(amps + i, cmul(load2(amps + i), v1));
  }
}

void avx2_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                        std::size_t sb, const cplx* d) {
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  if (s1 == 1) {
    const bool b_low = (sb == 1);
    const __m256d p0d = b_low ? pack2(&d[0], &d[1]) : pack2(&d[0], &d[2]);
    const __m256d p1d = b_low ? pack2(&d[2], &d[3]) : pack2(&d[1], &d[3]);
    for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
      for (std::size_t i = b2; i < b2 + s2; i += 2) {
        store2(amps + i, cmul(load2(amps + i), p0d));
        store2(amps + i + s2, cmul(load2(amps + i + s2), p1d));
      }
    }
    return;
  }
  const __m256d v0 = bcast(&d[0]), v1 = bcast(&d[1]);
  const __m256d v2 = bcast(&d[2]), v3 = bcast(&d[3]);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      for (std::size_t i = b1; i < b1 + s1; i += 2)
        store2(amps + i, cmul(load2(amps + i), v0));
      for (std::size_t i = b1 + sb; i < b1 + sb + s1; i += 2)
        store2(amps + i, cmul(load2(amps + i), v1));
      for (std::size_t i = b1 + sa; i < b1 + sa + s1; i += 2)
        store2(amps + i, cmul(load2(amps + i), v2));
      for (std::size_t i = b1 + sa + sb; i < b1 + sa + sb + s1; i += 2)
        store2(amps + i, cmul(load2(amps + i), v3));
    }
  }
}

void avx2_apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride) {
  const cplx neg_i{0.0, -1.0};
  const cplx pos_i{0.0, 1.0};
  if (stride == 1) {
    // out = [-i*a1, i*a0]: swap the halves, multiply by [-i | i].
    const __m256d f = pack2(&neg_i, &pos_i);
    for (std::size_t base = 0; base < dim; base += 2) {
      const __m256d v = load2(amps + base);
      store2(amps + base,
             cmul(_mm256_permute2f128_pd(v, v, 0x01), f));
    }
    return;
  }
  const __m256d vneg = bcast(&neg_i), vpos = bcast(&pos_i);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; off += 2) {
      cplx* p0 = amps + base + off;
      cplx* p1 = p0 + stride;
      const __m256d a0 = load2(p0);
      const __m256d a1 = load2(p1);
      store2(p0, cmul(a1, vneg));
      store2(p1, cmul(a0, vpos));
    }
  }
}

// ---- Evaluation-major (batched) forms --------------------------------------
// Rows are k lanes contiguous (k even), so every kernel walks the lane
// axis two complex lanes per register -- no stride-1 special cases
// needed, and per-lane matrix entries are plain vector loads from the
// entry-major buffer (m[e * k + lane]). The arithmetic per lane matches
// the scalar reference exactly as above (cmul commuted per factor).

void avx2_batched_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k, const cplx* m) {
  // Matrix entries split into re/im halves once per call; the row loop
  // then spends its shuffle budget on one swap per amplitude vector.
  // All-real matrices (per-lane RY columns) take the real-butterfly
  // path -- componentwise scaling, as in the pair kernels; the dropped
  // im-part products are exact zeros, so only zero signs can change
  // (see kernels.hpp).
  constexpr std::size_t kMaxLp = 16;  // BatchedStatevector::kMaxLanes / 2
  __m256d re[4][kMaxLp], im[4][kMaxLp];
  const std::size_t lp = k / 2;
  for (int e = 0; e < 4; ++e)
    for (std::size_t l = 0; l < lp; ++l)
      split_entry(m + static_cast<std::size_t>(e) * k, 2 * l, re[e][l],
                  im[e][l]);
  const __m256d sign = _mm256_set1_pd(-0.0);
  if (entries_real(m, 4 * k)) {
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
      for (std::size_t off = 0; off < stride; ++off) {
        cplx* p0 = amps + (base + off) * k;
        cplx* p1 = p0 + stride * k;
        for (std::size_t l = 0; l < lp; ++l) {
          const __m256d a0 = load2(p0 + 2 * l);
          const __m256d a1 = load2(p1 + 2 * l);
          const __m256d mag = _mm256_andnot_pd(sign, _mm256_or_pd(a0, a1));
          if (_mm256_testz_si256(_mm256_castpd_si256(mag),
                                 _mm256_castpd_si256(mag)))
            continue;
          store2(p0 + 2 * l, _mm256_add_pd(_mm256_mul_pd(a0, re[0][l]),
                                           _mm256_mul_pd(a1, re[1][l])));
          store2(p1 + 2 * l, _mm256_add_pd(_mm256_mul_pd(a0, re[2][l]),
                                           _mm256_mul_pd(a1, re[3][l])));
        }
      }
    }
    return;
  }
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      cplx* p0 = amps + (base + off) * k;
      cplx* p1 = p0 + stride * k;
      for (std::size_t l = 0; l < lp; ++l) {
        const __m256d a0 = load2(p0 + 2 * l);
        const __m256d a1 = load2(p1 + 2 * l);
        // All-zero pair block: the butterfly would only write (+/-)0
        // back; leave the zeros that are already there (see kernels.hpp
        // on the zero-sign caveat).
        const __m256d mag = _mm256_andnot_pd(sign, _mm256_or_pd(a0, a1));
        if (_mm256_testz_si256(_mm256_castpd_si256(mag),
                               _mm256_castpd_si256(mag)))
          continue;
        const __m256d a0s = swap_ri(a0);
        const __m256d a1s = swap_ri(a1);
        store2(p0 + 2 * l,
               _mm256_add_pd(cmul_pre(a0, a0s, re[0][l], im[0][l]),
                             cmul_pre(a1, a1s, re[1][l], im[1][l])));
        store2(p1 + 2 * l,
               _mm256_add_pd(cmul_pre(a0, a0s, re[2][l], im[2][l]),
                             cmul_pre(a1, a1s, re[3][l], im[3][l])));
      }
    }
  }
}

void avx2_batched_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
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
        for (std::size_t l = 0; l < k; l += 2) {
          const __m256d a00 = load2(p00 + l), a01 = load2(p01 + l);
          const __m256d a10 = load2(p10 + l), a11 = load2(p11 + l);
          store2(p00 + l,
                 _mm256_add_pd(
                     _mm256_add_pd(
                         _mm256_add_pd(cmul(a00, load2(m + 0 * k + l)),
                                       cmul(a01, load2(m + 1 * k + l))),
                         cmul(a10, load2(m + 2 * k + l))),
                     cmul(a11, load2(m + 3 * k + l))));
          store2(p01 + l,
                 _mm256_add_pd(
                     _mm256_add_pd(
                         _mm256_add_pd(cmul(a00, load2(m + 4 * k + l)),
                                       cmul(a01, load2(m + 5 * k + l))),
                         cmul(a10, load2(m + 6 * k + l))),
                     cmul(a11, load2(m + 7 * k + l))));
          store2(p10 + l,
                 _mm256_add_pd(
                     _mm256_add_pd(
                         _mm256_add_pd(cmul(a00, load2(m + 8 * k + l)),
                                       cmul(a01, load2(m + 9 * k + l))),
                         cmul(a10, load2(m + 10 * k + l))),
                     cmul(a11, load2(m + 11 * k + l))));
          store2(p11 + l,
                 _mm256_add_pd(
                     _mm256_add_pd(
                         _mm256_add_pd(cmul(a00, load2(m + 12 * k + l)),
                                       cmul(a01, load2(m + 13 * k + l))),
                         cmul(a10, load2(m + 14 * k + l))),
                     cmul(a11, load2(m + 15 * k + l))));
        }
      }
    }
  }
}

void avx2_batched_apply_diag_1q(cplx* amps, std::size_t dim,
                                std::size_t stride, std::size_t k,
                                const cplx* d) {
  constexpr std::size_t kMaxLp = 16;
  __m256d re[2][kMaxLp], im[2][kMaxLp];
  const std::size_t lp = k / 2;
  for (int e = 0; e < 2; ++e)
    for (std::size_t l = 0; l < lp; ++l)
      split_entry(d + static_cast<std::size_t>(e) * k, 2 * l, re[e][l],
                  im[e][l]);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; ++i) {
      cplx* p = amps + i * k;
      for (std::size_t l = 0; l < lp; ++l) {
        const __m256d a = load2(p + 2 * l);
        store2(p + 2 * l, cmul_pre(a, swap_ri(a), re[0][l], im[0][l]));
      }
    }
    for (std::size_t i = base + stride; i < base + 2 * stride; ++i) {
      cplx* p = amps + i * k;
      for (std::size_t l = 0; l < lp; ++l) {
        const __m256d a = load2(p + 2 * l);
        store2(p + 2 * l, cmul_pre(a, swap_ri(a), re[1][l], im[1][l]));
      }
    }
  }
}

void avx2_batched_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                                std::size_t sb, std::size_t k,
                                const cplx* d) {
  constexpr std::size_t kMaxLp = 16;
  __m256d re[4][kMaxLp], im[4][kMaxLp];
  const std::size_t lp = k / 2;
  for (int e = 0; e < 4; ++e)
    for (std::size_t l = 0; l < lp; ++l)
      split_entry(d + static_cast<std::size_t>(e) * k, 2 * l, re[e][l],
                  im[e][l]);
  const auto sweep = [&](std::size_t lo, std::size_t hi, int e) {
    for (std::size_t i = lo; i < hi; ++i) {
      cplx* p = amps + i * k;
      for (std::size_t l = 0; l < lp; ++l) {
        const __m256d a = load2(p + 2 * l);
        store2(p + 2 * l, cmul_pre(a, swap_ri(a), re[e][l], im[e][l]));
      }
    }
  };
  const std::size_t s1 = std::min(sa, sb);
  const std::size_t s2 = std::max(sa, sb);
  for (std::size_t b2 = 0; b2 < dim; b2 += 2 * s2) {
    for (std::size_t b1 = b2; b1 < b2 + s2; b1 += 2 * s1) {
      sweep(b1, b1 + s1, 0);
      sweep(b1 + sb, b1 + sb + s1, 1);
      sweep(b1 + sa, b1 + sa + s1, 2);
      sweep(b1 + sa + sb, b1 + sa + sb + s1, 3);
    }
  }
}

void avx2_batched_apply_diag_run(cplx* amps, std::size_t dim,
                                 const BatchedDiagOp* ops, std::size_t count,
                                 std::size_t k) {
  // Every op's entries are pre-split into re/im halves once per call
  // (layout [op][entry][lanepair][re|im]), the per-row entry offsets are
  // resolved once per row, and two rows run interleaved: the product
  // chain of one amplitude is serial by construction (that's what makes
  // it bit-identical to `count` separate passes), so a second row's
  // chains are what keeps the multiply units busy during each step's
  // latency.
  const std::size_t lp = k / 2;
  std::vector<__m256d> pre(count * 4 * lp * 2);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t entries = ops[r].sb != 0 ? 4 : 2;
    for (std::size_t e = 0; e < entries; ++e)
      for (std::size_t l = 0; l < lp; ++l) {
        __m256d* slot = pre.data() + ((r * 4 + e) * lp + l) * 2;
        split_entry(ops[r].d + e * k, 2 * l, slot[0], slot[1]);
      }
  }
  const auto entry_base = [&](std::size_t i, std::size_t r) {
    const BatchedDiagOp& op = ops[r];
    std::size_t e = (i & op.sa) ? 1 : 0;
    if (op.sb != 0) e = 2 * e + ((i & op.sb) ? 1 : 0);
    return (r * 4 + e) * lp * 2;
  };
  std::size_t eoff0[kMaxDiagRun], eoff1[kMaxDiagRun];
  for (std::size_t i = 0; i < dim; i += 2) {
    for (std::size_t r = 0; r < count; ++r) {
      eoff0[r] = entry_base(i, r);
      eoff1[r] = entry_base(i + 1, r);
    }
    cplx* p0 = amps + i * k;
    cplx* p1 = p0 + k;
    for (std::size_t l = 0; l < lp; ++l) {
      __m256d a0 = load2(p0 + 2 * l);
      __m256d a1 = load2(p1 + 2 * l);
      for (std::size_t r = 0; r < count; ++r) {
        const __m256d* d0 = pre.data() + eoff0[r] + 2 * l;
        const __m256d* d1 = pre.data() + eoff1[r] + 2 * l;
        a0 = cmul_pre(a0, swap_ri(a0), d0[0], d0[1]);
        a1 = cmul_pre(a1, swap_ri(a1), d1[0], d1[1]);
      }
      store2(p0 + 2 * l, a0);
      store2(p1 + 2 * l, a1);
    }
  }
}

void avx2_batched_apply_pauli_y(cplx* amps, std::size_t dim,
                                std::size_t stride, std::size_t k) {
  const cplx neg_i{0.0, -1.0};
  const cplx pos_i{0.0, 1.0};
  const __m256d vneg = bcast(&neg_i), vpos = bcast(&pos_i);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      cplx* p0 = amps + (base + off) * k;
      cplx* p1 = p0 + stride * k;
      for (std::size_t l = 0; l < k; l += 2) {
        const __m256d a0 = load2(p0 + l);
        const __m256d a1 = load2(p1 + l);
        store2(p0 + l, cmul(a1, vneg));
        store2(p1 + l, cmul(a0, vpos));
      }
    }
  }
}


void avx2_batched_apply_1q_pair(cplx* amps, std::size_t dim, std::size_t sa,
                                const cplx* m_a, std::size_t sb,
                                const cplx* m_b, std::size_t k) {
  // Both matrices pre-split once per call (as avx2_batched_apply_1q);
  // each 4-row block then chains gate A's and gate B's butterflies in
  // registers -- one sweep over the lane group instead of two. Per lane
  // this is the identical operation sequence to two separate passes
  // (cmul_pre == cmul expression-for-expression, intermediates held in
  // registers round-trip exactly), so results stay bit-identical.
  constexpr std::size_t kMaxLp = 16;  // BatchedStatevector::kMaxLanes / 2
  __m256d rea[4][kMaxLp], ima[4][kMaxLp], reb[4][kMaxLp], imb[4][kMaxLp];
  const std::size_t lp = k / 2;
  for (int e = 0; e < 4; ++e) {
    for (std::size_t l = 0; l < lp; ++l) {
      split_entry(m_a + static_cast<std::size_t>(e) * k, 2 * l, rea[e][l],
                  ima[e][l]);
      split_entry(m_b + static_cast<std::size_t>(e) * k, 2 * l, reb[e][l],
                  imb[e][l]);
    }
  }
  const std::size_t hi = sa > sb ? sa : sb;
  const std::size_t lo = sa > sb ? sb : sa;
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (std::size_t base = 0; base < dim; base += 2 * hi) {
    for (std::size_t mid = base; mid < base + hi; mid += 2 * lo) {
      for (std::size_t off = 0; off < lo; ++off) {
        cplx* p00 = amps + (mid + off) * k;
        cplx* p01 = p00 + sb * k;
        cplx* p10 = p00 + sa * k;
        cplx* p11 = p10 + sb * k;
        for (std::size_t l = 0; l < lp; ++l) {
          const __m256d a00 = load2(p00 + 2 * l);
          const __m256d a01 = load2(p01 + 2 * l);
          const __m256d a10 = load2(p10 + 2 * l);
          const __m256d a11 = load2(p11 + 2 * l);
          // All-zero 4-row block: both butterflies would only write
          // (+/-)0 back; skip the arithmetic and the four stores (see
          // kernels.hpp on the zero-sign caveat). On |0...0> the first
          // rotation layer's support grows 4x per pair pass, so its
          // early passes touch almost nothing.
          const __m256d mag = _mm256_andnot_pd(
              sign, _mm256_or_pd(_mm256_or_pd(a00, a01),
                                 _mm256_or_pd(a10, a11)));
          if (_mm256_testz_si256(_mm256_castpd_si256(mag),
                                 _mm256_castpd_si256(mag)))
            continue;
          const __m256d a00s = swap_ri(a00);
          const __m256d a01s = swap_ri(a01);
          const __m256d a10s = swap_ri(a10);
          const __m256d a11s = swap_ri(a11);
          // Gate A: stride-sa pairs (a00, a10) and (a01, a11).
          const __m256d b00 =
              _mm256_add_pd(cmul_pre(a00, a00s, rea[0][l], ima[0][l]),
                            cmul_pre(a10, a10s, rea[1][l], ima[1][l]));
          const __m256d b10 =
              _mm256_add_pd(cmul_pre(a00, a00s, rea[2][l], ima[2][l]),
                            cmul_pre(a10, a10s, rea[3][l], ima[3][l]));
          const __m256d b01 =
              _mm256_add_pd(cmul_pre(a01, a01s, rea[0][l], ima[0][l]),
                            cmul_pre(a11, a11s, rea[1][l], ima[1][l]));
          const __m256d b11 =
              _mm256_add_pd(cmul_pre(a01, a01s, rea[2][l], ima[2][l]),
                            cmul_pre(a11, a11s, rea[3][l], ima[3][l]));
          const __m256d b00s = swap_ri(b00);
          const __m256d b01s = swap_ri(b01);
          const __m256d b10s = swap_ri(b10);
          const __m256d b11s = swap_ri(b11);
          // Gate B: stride-sb pairs (b00, b01) and (b10, b11).
          store2(p00 + 2 * l,
                 _mm256_add_pd(cmul_pre(b00, b00s, reb[0][l], imb[0][l]),
                               cmul_pre(b01, b01s, reb[1][l], imb[1][l])));
          store2(p01 + 2 * l,
                 _mm256_add_pd(cmul_pre(b00, b00s, reb[2][l], imb[2][l]),
                               cmul_pre(b01, b01s, reb[3][l], imb[3][l])));
          store2(p10 + 2 * l,
                 _mm256_add_pd(cmul_pre(b10, b10s, reb[0][l], imb[0][l]),
                               cmul_pre(b11, b11s, reb[1][l], imb[1][l])));
          store2(p11 + 2 * l,
                 _mm256_add_pd(cmul_pre(b10, b10s, reb[2][l], imb[2][l]),
                               cmul_pre(b11, b11s, reb[3][l], imb[3][l])));
        }
      }
    }
  }
}



void avx2_batched_apply_1q_pair_run(cplx* amps, std::size_t dim,
                                    const BatchedPairOp* pairs,
                                    std::size_t count, std::size_t k) {
  // Every pair's matrices pre-split once; large-span pairs then stream
  // the buffer once each, and the trailing small-span pairs are
  // cache-blocked: an aligned tile (<= kPairTileBytes) contains whole
  // 4-row blocks of every remaining pair, so it takes all their passes
  // while L2-resident. Only the iteration order of disjoint blocks
  // changes relative to pair-at-a-time application, so results stay
  // bit-identical.
  const std::size_t lp = k / 2;
  constexpr std::size_t kMaxLp = 16;  // BatchedStatevector::kMaxLanes / 2
  __m256d rea[kMaxPairRun][4][kMaxLp], ima[kMaxPairRun][4][kMaxLp];
  __m256d reb[kMaxPairRun][4][kMaxLp], imb[kMaxPairRun][4][kMaxLp];
  for (std::size_t p = 0; p < count; ++p) {
    for (int e = 0; e < 4; ++e) {
      for (std::size_t l = 0; l < lp; ++l) {
        split_entry(pairs[p].m_a + static_cast<std::size_t>(e) * k, 2 * l,
                    rea[p][e][l], ima[p][e][l]);
        split_entry(pairs[p].m_b + static_cast<std::size_t>(e) * k, 2 * l,
                    reb[p][e][l], imb[p][e][l]);
      }
    }
  }
  bool realp[kMaxPairRun];
  for (std::size_t p = 0; p < count; ++p)
    realp[p] = entries_real(pairs[p].m_a, 4 * k) &&
               entries_real(pairs[p].m_b, 4 * k);
  const __m256d sign = _mm256_set1_pd(-0.0);
  // Pair p over rows [row0, row1) -- the avx2_batched_apply_1q_pair
  // body, restricted to a block-aligned subrange. kReal selects the
  // real-matrix butterflies: both gate matrices purely real (rotation
  // layers: ry, h), so each component just scales -- the dropped
  // im-part products are exact zeros whose only effect is the sign of
  // zero results (the documented caveat), at less than half the vector
  // ops of the complex form.
  const auto sweep_impl = [&]<bool kReal>(std::size_t p, std::size_t row0,
                                          std::size_t row1) {
    const std::size_t sa = pairs[p].sa;
    const std::size_t sb = pairs[p].sb;
    const std::size_t hi = sa > sb ? sa : sb;
    const std::size_t lo = sa > sb ? sb : sa;
    for (std::size_t base = row0; base < row1; base += 2 * hi) {
      for (std::size_t mid = base; mid < base + hi; mid += 2 * lo) {
        for (std::size_t off = 0; off < lo; ++off) {
          cplx* p00 = amps + (mid + off) * k;
          cplx* p01 = p00 + sb * k;
          cplx* p10 = p00 + sa * k;
          cplx* p11 = p10 + sb * k;
          for (std::size_t l = 0; l < lp; ++l) {
            const __m256d a00 = load2(p00 + 2 * l);
            const __m256d a01 = load2(p01 + 2 * l);
            const __m256d a10 = load2(p10 + 2 * l);
            const __m256d a11 = load2(p11 + 2 * l);
            // All-zero block skip, as avx2_batched_apply_1q_pair.
            const __m256d mag = _mm256_andnot_pd(
                sign, _mm256_or_pd(_mm256_or_pd(a00, a01),
                                   _mm256_or_pd(a10, a11)));
            if (_mm256_testz_si256(_mm256_castpd_si256(mag),
                                   _mm256_castpd_si256(mag)))
              continue;
            if constexpr (kReal) {
              // Gate A: stride-sa pairs (a00, a10) and (a01, a11).
              const __m256d b00 =
                  _mm256_add_pd(_mm256_mul_pd(a00, rea[p][0][l]),
                                _mm256_mul_pd(a10, rea[p][1][l]));
              const __m256d b10 =
                  _mm256_add_pd(_mm256_mul_pd(a00, rea[p][2][l]),
                                _mm256_mul_pd(a10, rea[p][3][l]));
              const __m256d b01 =
                  _mm256_add_pd(_mm256_mul_pd(a01, rea[p][0][l]),
                                _mm256_mul_pd(a11, rea[p][1][l]));
              const __m256d b11 =
                  _mm256_add_pd(_mm256_mul_pd(a01, rea[p][2][l]),
                                _mm256_mul_pd(a11, rea[p][3][l]));
              // Gate B: stride-sb pairs (b00, b01) and (b10, b11).
              store2(p00 + 2 * l,
                     _mm256_add_pd(_mm256_mul_pd(b00, reb[p][0][l]),
                                   _mm256_mul_pd(b01, reb[p][1][l])));
              store2(p01 + 2 * l,
                     _mm256_add_pd(_mm256_mul_pd(b00, reb[p][2][l]),
                                   _mm256_mul_pd(b01, reb[p][3][l])));
              store2(p10 + 2 * l,
                     _mm256_add_pd(_mm256_mul_pd(b10, reb[p][0][l]),
                                   _mm256_mul_pd(b11, reb[p][1][l])));
              store2(p11 + 2 * l,
                     _mm256_add_pd(_mm256_mul_pd(b10, reb[p][2][l]),
                                   _mm256_mul_pd(b11, reb[p][3][l])));
            } else {
              const __m256d a00s = swap_ri(a00);
              const __m256d a01s = swap_ri(a01);
              const __m256d a10s = swap_ri(a10);
              const __m256d a11s = swap_ri(a11);
              // Gate A: stride-sa pairs (a00, a10) and (a01, a11).
              const __m256d b00 = _mm256_add_pd(
                  cmul_pre(a00, a00s, rea[p][0][l], ima[p][0][l]),
                  cmul_pre(a10, a10s, rea[p][1][l], ima[p][1][l]));
              const __m256d b10 = _mm256_add_pd(
                  cmul_pre(a00, a00s, rea[p][2][l], ima[p][2][l]),
                  cmul_pre(a10, a10s, rea[p][3][l], ima[p][3][l]));
              const __m256d b01 = _mm256_add_pd(
                  cmul_pre(a01, a01s, rea[p][0][l], ima[p][0][l]),
                  cmul_pre(a11, a11s, rea[p][1][l], ima[p][1][l]));
              const __m256d b11 = _mm256_add_pd(
                  cmul_pre(a01, a01s, rea[p][2][l], ima[p][2][l]),
                  cmul_pre(a11, a11s, rea[p][3][l], ima[p][3][l]));
              const __m256d b00s = swap_ri(b00);
              const __m256d b01s = swap_ri(b01);
              const __m256d b10s = swap_ri(b10);
              const __m256d b11s = swap_ri(b11);
              // Gate B: stride-sb pairs (b00, b01) and (b10, b11).
              store2(p00 + 2 * l,
                     _mm256_add_pd(
                         cmul_pre(b00, b00s, reb[p][0][l], imb[p][0][l]),
                         cmul_pre(b01, b01s, reb[p][1][l], imb[p][1][l])));
              store2(p01 + 2 * l,
                     _mm256_add_pd(
                         cmul_pre(b00, b00s, reb[p][2][l], imb[p][2][l]),
                         cmul_pre(b01, b01s, reb[p][3][l], imb[p][3][l])));
              store2(p10 + 2 * l,
                     _mm256_add_pd(
                         cmul_pre(b10, b10s, reb[p][0][l], imb[p][0][l]),
                         cmul_pre(b11, b11s, reb[p][1][l], imb[p][1][l])));
              store2(p11 + 2 * l,
                     _mm256_add_pd(
                         cmul_pre(b10, b10s, reb[p][2][l], imb[p][2][l]),
                         cmul_pre(b11, b11s, reb[p][3][l], imb[p][3][l])));
            }
          }
        }
      }
    }
  };
  const auto sweep = [&](std::size_t p, std::size_t row0, std::size_t row1) {
    if (realp[p])
      sweep_impl.template operator()<true>(p, row0, row1);
    else
      sweep_impl.template operator()<false>(p, row0, row1);
  };
  const auto span = [&](std::size_t p) {
    return 2 * std::max(pairs[p].sa, pairs[p].sb);
  };
  // t0 = start of the longest suffix whose spans all fit in one tile.
  const std::size_t tile_rows = kPairTileBytes / (k * sizeof(cplx));
  std::size_t t0 = count;
  while (t0 > 0 && span(t0 - 1) <= tile_rows) --t0;
  for (std::size_t p = 0; p < t0; ++p) sweep(p, 0, dim);
  if (count - t0 >= 2) {
    std::size_t tile = 0;
    for (std::size_t p = t0; p < count; ++p) tile = std::max(tile, span(p));
    for (std::size_t base = 0; base < dim; base += tile)
      for (std::size_t p = t0; p < count; ++p) sweep(p, base, base + tile);
  } else if (t0 < count) {
    sweep(t0, 0, dim);
  }
}

void avx2_batched_apply_diag_run_then_1q_pair(cplx* amps, std::size_t dim,
                                              const BatchedDiagOp* ops,
                                              std::size_t count,
                                              std::size_t sa, const cplx* m_a,
                                              std::size_t sb, const cplx* m_b,
                                              std::size_t k) {
  // avx2_batched_apply_diag_run's pre-split entry table and per-row
  // entry selection, welded onto avx2_batched_apply_1q_pair's 4-row
  // block walk: each amplitude runs its diag product chain in registers
  // (serial per amplitude, four chains in flight) and feeds straight
  // into the two butterflies. Per amplitude the operation sequence is
  // identical to the two separate kernels, so results stay
  // bit-identical; the k-wide buffer streams once instead of twice.
  const std::size_t lp = k / 2;
  std::vector<__m256d> pre(count * 4 * lp * 2);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t entries = ops[r].sb != 0 ? 4 : 2;
    for (std::size_t e = 0; e < entries; ++e)
      for (std::size_t l = 0; l < lp; ++l) {
        __m256d* slot = pre.data() + ((r * 4 + e) * lp + l) * 2;
        split_entry(ops[r].d + e * k, 2 * l, slot[0], slot[1]);
      }
  }
  const auto entry_base = [&](std::size_t i, std::size_t r) {
    const BatchedDiagOp& op = ops[r];
    std::size_t e = (i & op.sa) ? 1 : 0;
    if (op.sb != 0) e = 2 * e + ((i & op.sb) ? 1 : 0);
    return (r * 4 + e) * lp * 2;
  };
  constexpr std::size_t kMaxLp = 16;  // BatchedStatevector::kMaxLanes / 2
  __m256d rea[4][kMaxLp], ima[4][kMaxLp], reb[4][kMaxLp], imb[4][kMaxLp];
  for (int e = 0; e < 4; ++e) {
    for (std::size_t l = 0; l < lp; ++l) {
      split_entry(m_a + static_cast<std::size_t>(e) * k, 2 * l, rea[e][l],
                  ima[e][l]);
      split_entry(m_b + static_cast<std::size_t>(e) * k, 2 * l, reb[e][l],
                  imb[e][l]);
    }
  }
  const std::size_t hi = sa > sb ? sa : sb;
  const std::size_t lo = sa > sb ? sb : sa;
  const __m256d sign = _mm256_set1_pd(-0.0);
  const bool realp =
      entries_real(m_a, 4 * k) && entries_real(m_b, 4 * k);
  std::size_t e00[kMaxDiagRun], e01[kMaxDiagRun];
  std::size_t e10[kMaxDiagRun], e11[kMaxDiagRun];
  // kReal: real-matrix butterflies for purely real gate matrices (the
  // diag chain stays complex); see avx2_batched_apply_1q_pair_run.
  const auto run = [&]<bool kReal>() {
    for (std::size_t base = 0; base < dim; base += 2 * hi) {
      for (std::size_t mid = base; mid < base + hi; mid += 2 * lo) {
        for (std::size_t off = 0; off < lo; ++off) {
          const std::size_t i00 = mid + off;
          for (std::size_t r = 0; r < count; ++r) {
            e00[r] = entry_base(i00, r);
            e01[r] = entry_base(i00 + sb, r);
            e10[r] = entry_base(i00 + sa, r);
            e11[r] = entry_base(i00 + sa + sb, r);
          }
          cplx* p00 = amps + i00 * k;
          cplx* p01 = p00 + sb * k;
          cplx* p10 = p00 + sa * k;
          cplx* p11 = p10 + sb * k;
          for (std::size_t l = 0; l < lp; ++l) {
            __m256d a00 = load2(p00 + 2 * l);
            __m256d a01 = load2(p01 + 2 * l);
            __m256d a10 = load2(p10 + 2 * l);
            __m256d a11 = load2(p11 + 2 * l);
            // All-zero block: diag chains and butterflies would only
            // write (+/-)0 back (see kernels.hpp on the zero-sign
            // caveat).
            const __m256d mag = _mm256_andnot_pd(
                sign, _mm256_or_pd(_mm256_or_pd(a00, a01),
                                   _mm256_or_pd(a10, a11)));
            if (_mm256_testz_si256(_mm256_castpd_si256(mag),
                                   _mm256_castpd_si256(mag)))
              continue;
            for (std::size_t r = 0; r < count; ++r) {
              const __m256d* d00 = pre.data() + e00[r] + 2 * l;
              const __m256d* d01 = pre.data() + e01[r] + 2 * l;
              const __m256d* d10 = pre.data() + e10[r] + 2 * l;
              const __m256d* d11 = pre.data() + e11[r] + 2 * l;
              a00 = cmul_pre(a00, swap_ri(a00), d00[0], d00[1]);
              a01 = cmul_pre(a01, swap_ri(a01), d01[0], d01[1]);
              a10 = cmul_pre(a10, swap_ri(a10), d10[0], d10[1]);
              a11 = cmul_pre(a11, swap_ri(a11), d11[0], d11[1]);
            }
            if constexpr (kReal) {
              // Gate A: stride-sa pairs (a00, a10) and (a01, a11).
              const __m256d b00 =
                  _mm256_add_pd(_mm256_mul_pd(a00, rea[0][l]),
                                _mm256_mul_pd(a10, rea[1][l]));
              const __m256d b10 =
                  _mm256_add_pd(_mm256_mul_pd(a00, rea[2][l]),
                                _mm256_mul_pd(a10, rea[3][l]));
              const __m256d b01 =
                  _mm256_add_pd(_mm256_mul_pd(a01, rea[0][l]),
                                _mm256_mul_pd(a11, rea[1][l]));
              const __m256d b11 =
                  _mm256_add_pd(_mm256_mul_pd(a01, rea[2][l]),
                                _mm256_mul_pd(a11, rea[3][l]));
              // Gate B: stride-sb pairs (b00, b01) and (b10, b11).
              store2(p00 + 2 * l,
                     _mm256_add_pd(_mm256_mul_pd(b00, reb[0][l]),
                                   _mm256_mul_pd(b01, reb[1][l])));
              store2(p01 + 2 * l,
                     _mm256_add_pd(_mm256_mul_pd(b00, reb[2][l]),
                                   _mm256_mul_pd(b01, reb[3][l])));
              store2(p10 + 2 * l,
                     _mm256_add_pd(_mm256_mul_pd(b10, reb[0][l]),
                                   _mm256_mul_pd(b11, reb[1][l])));
              store2(p11 + 2 * l,
                     _mm256_add_pd(_mm256_mul_pd(b10, reb[2][l]),
                                   _mm256_mul_pd(b11, reb[3][l])));
            } else {
              const __m256d a00s = swap_ri(a00);
              const __m256d a01s = swap_ri(a01);
              const __m256d a10s = swap_ri(a10);
              const __m256d a11s = swap_ri(a11);
              // Gate A: stride-sa pairs (a00, a10) and (a01, a11).
              const __m256d b00 =
                  _mm256_add_pd(cmul_pre(a00, a00s, rea[0][l], ima[0][l]),
                                cmul_pre(a10, a10s, rea[1][l], ima[1][l]));
              const __m256d b10 =
                  _mm256_add_pd(cmul_pre(a00, a00s, rea[2][l], ima[2][l]),
                                cmul_pre(a10, a10s, rea[3][l], ima[3][l]));
              const __m256d b01 =
                  _mm256_add_pd(cmul_pre(a01, a01s, rea[0][l], ima[0][l]),
                                cmul_pre(a11, a11s, rea[1][l], ima[1][l]));
              const __m256d b11 =
                  _mm256_add_pd(cmul_pre(a01, a01s, rea[2][l], ima[2][l]),
                                cmul_pre(a11, a11s, rea[3][l], ima[3][l]));
              const __m256d b00s = swap_ri(b00);
              const __m256d b01s = swap_ri(b01);
              const __m256d b10s = swap_ri(b10);
              const __m256d b11s = swap_ri(b11);
              // Gate B: stride-sb pairs (b00, b01) and (b10, b11).
              store2(p00 + 2 * l,
                     _mm256_add_pd(cmul_pre(b00, b00s, reb[0][l], imb[0][l]),
                                   cmul_pre(b01, b01s, reb[1][l], imb[1][l])));
              store2(p01 + 2 * l,
                     _mm256_add_pd(cmul_pre(b00, b00s, reb[2][l], imb[2][l]),
                                   cmul_pre(b01, b01s, reb[3][l], imb[3][l])));
              store2(p10 + 2 * l,
                     _mm256_add_pd(cmul_pre(b10, b10s, reb[0][l], imb[0][l]),
                                   cmul_pre(b11, b11s, reb[1][l], imb[1][l])));
              store2(p11 + 2 * l,
                     _mm256_add_pd(cmul_pre(b10, b10s, reb[2][l], imb[2][l]),
                                   cmul_pre(b11, b11s, reb[3][l], imb[3][l])));
            }
          }
        }
      }
    }
  };
  if (realp)
    run.template operator()<true>();
  else
    run.template operator()<false>();
}

const detail::SimdVTable kAvx2VTable = {
    .name = "avx2",
    .apply_1q = avx2_apply_1q,
    .apply_2q = avx2_apply_2q,
    .apply_diag_1q = avx2_apply_diag_1q,
    .apply_diag_2q = avx2_apply_diag_2q,
    .apply_pauli_y = avx2_apply_pauli_y,
    .batched_apply_1q = avx2_batched_apply_1q,
    .batched_apply_1q_pair = avx2_batched_apply_1q_pair,
    .batched_apply_1q_pair_run = avx2_batched_apply_1q_pair_run,
    .batched_apply_2q = avx2_batched_apply_2q,
    .batched_apply_diag_1q = avx2_batched_apply_diag_1q,
    .batched_apply_diag_2q = avx2_batched_apply_diag_2q,
    .batched_apply_diag_run_then_1q_pair =
        avx2_batched_apply_diag_run_then_1q_pair,
    .batched_apply_diag_run = avx2_batched_apply_diag_run,
    .batched_apply_pauli_y = avx2_batched_apply_pauli_y,
};

}  // namespace

namespace detail {
const SimdVTable* avx2_vtable() { return &kAvx2VTable; }
}  // namespace detail

}  // namespace qoc::sim::kernels

#else  // !defined(__AVX2__)

namespace qoc::sim::kernels::detail {
const SimdVTable* avx2_vtable() { return nullptr; }
}  // namespace qoc::sim::kernels::detail

#endif
