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
//
// The dense and diagonal-run kernels are row walks over two shared
// primitives: `butterfly`, one 2x2 gate on two amplitude vectors, and
// `DiagChain`, a diagonal run's per-amplitude product chain.

constexpr std::size_t kMaxLp = 16;  // BatchedStatevector::kMaxLanes / 2

/// One lane pair's 2x2 matrix with every entry pre-split into its
/// [re, re] / [im, im] halves (see cmul_pre).
struct Split2x2 {
  __m256d re[4];
  __m256d im[4];
};

/// Splits lane pairs [0, k/2) of the entry-major 2x2 matrices `m`; done
/// once per kernel call, so the row walk spends its shuffle budget on
/// one swap per amplitude vector.
void split_2x2(const cplx* m, std::size_t k, Split2x2* out) {
  for (std::size_t l = 0; l < k / 2; ++l)
    for (std::size_t e = 0; e < 4; ++e)
      split_entry(m + e * k, 2 * l, out[l].re[e], out[l].im[e]);
}

/// True when every component of `v` is (+/-)0. The dense kernels skip
/// a block whose amplitudes are all zero: its arithmetic would only
/// write (+/-)0 back (see kernels.hpp on the zero-sign caveat).
inline bool all_zero(__m256d v) {
  const __m256i mag =
      _mm256_castpd_si256(_mm256_andnot_pd(_mm256_set1_pd(-0.0), v));
  return _mm256_testz_si256(mag, mag);
}

/// The 2x2 butterfly of every dense batched kernel: per lane,
/// (x0, x1) <- (m00*x0 + m01*x1, m10*x0 + m11*x1) with the scalar
/// reference's products and sum order. kReal is the form for purely
/// real matrices (ry, h): each component just scales, at less than half
/// the vector ops. The im-part products it drops are exact zeros, so
/// only the sign of a zero result can change (see kernels.hpp).
template <bool kReal>
[[gnu::always_inline]] inline void butterfly(__m256d& x0, __m256d& x1,
                                             const Split2x2& m) {
  __m256d y0, y1;
  if constexpr (kReal) {
    y0 = _mm256_add_pd(_mm256_mul_pd(x0, m.re[0]), _mm256_mul_pd(x1, m.re[1]));
    y1 = _mm256_add_pd(_mm256_mul_pd(x0, m.re[2]), _mm256_mul_pd(x1, m.re[3]));
  } else {
    const __m256d s0 = swap_ri(x0);
    const __m256d s1 = swap_ri(x1);
    y0 = _mm256_add_pd(cmul_pre(x0, s0, m.re[0], m.im[0]),
                       cmul_pre(x1, s1, m.re[1], m.im[1]));
    y1 = _mm256_add_pd(cmul_pre(x0, s0, m.re[2], m.im[2]),
                       cmul_pre(x1, s1, m.re[3], m.im[3]));
  }
  x0 = y0;
  x1 = y1;
}

/// One diagonal entry of one lane pair, pre-split (see cmul_pre).
struct SplitEntry {
  __m256d re;
  __m256d im;
};

/// The product chain of a diagonal run: every op's entries pre-split
/// once per call (layout [op][entry][lane pair]), each row's entry per
/// op resolved once per row, and per amplitude
/// amp <- d_count * (... * (d_1 * amp)). Every intermediate rounds as
/// the stored intermediate of `count` separate passes would, so the
/// chain is bit-identical to them.
class DiagChain {
 public:
  DiagChain(const BatchedDiagOp* ops, std::size_t count, std::size_t k)
      : ops_(ops), count_(count), lp_(k / 2), table_(count * 4 * lp_) {
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t entries = ops[r].sb != 0 ? 4 : 2;
      for (std::size_t e = 0; e < entries; ++e)
        for (std::size_t l = 0; l < lp_; ++l) {
          SplitEntry& s = table_[(r * 4 + e) * lp_ + l];
          split_entry(ops[r].d + e * k, 2 * l, s.re, s.im);
        }
    }
  }

  /// Row i's entry of every op, indexed by lane pair.
  void row(std::size_t i, const SplitEntry** out) const {
    for (std::size_t r = 0; r < count_; ++r) {
      const BatchedDiagOp& op = ops_[r];
      std::size_t e = (i & op.sa) ? 1 : 0;
      if (op.sb != 0) e = 2 * e + ((i & op.sb) ? 1 : 0);
      out[r] = table_.data() + (r * 4 + e) * lp_;
    }
  }

  /// Lane pair l of N amplitudes, whose rows row() resolved, through
  /// the chain in lockstep: one amplitude's chain is serial by
  /// construction, so the other chains keep the multipliers busy
  /// through each step's latency.
  template <std::size_t N>
  [[gnu::always_inline]] void apply(
      __m256d (&a)[N], const SplitEntry* (&rows)[N][kMaxDiagRun],
      std::size_t l) const {
    for (std::size_t r = 0; r < count_; ++r)
      for (std::size_t j = 0; j < N; ++j) {
        const SplitEntry& d = rows[j][r][l];
        a[j] = cmul_pre(a[j], swap_ri(a[j]), d.re, d.im);
      }
  }

 private:
  const BatchedDiagOp* ops_;
  std::size_t count_;
  std::size_t lp_;
  std::vector<SplitEntry> table_;
};

/// Row walk of batched_apply_1q: one butterfly per row pair and lane
/// pair.
template <bool kReal>
void rows_1q(cplx* amps, std::size_t dim, std::size_t stride, std::size_t k,
             const Split2x2* m) {
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; ++i) {
      cplx* p0 = amps + i * k;
      cplx* p1 = p0 + stride * k;
      for (std::size_t l = 0; l < k / 2; ++l) {
        __m256d a0 = load2(p0 + 2 * l);
        __m256d a1 = load2(p1 + 2 * l);
        if (all_zero(_mm256_or_pd(a0, a1))) continue;
        butterfly<kReal>(a0, a1, m[l]);
        store2(p0 + 2 * l, a0);
        store2(p1 + 2 * l, a1);
      }
    }
  }
}

/// Row walk of one dense pair: gate A (stride sa, matrices ma) then gate
/// B (stride sb, mb) on every 4-row block {i, i+sb, i+sa, i+sa+sb} with
/// base row in the block-aligned range [row0, row1), both butterflies
/// chained in registers. kChain first runs each amplitude through
/// `chain`. Per amplitude this is the operation sequence of the
/// separate passes, so results are bit-identical to them while each
/// block streams through memory once. On |0...0> the all-zero-block
/// skip makes a first rotation layer's early passes nearly free: its
/// support grows 4x per pair.
template <bool kReal, bool kChain>
void rows_pair(cplx* amps, std::size_t row0, std::size_t row1, std::size_t sa,
               std::size_t sb, std::size_t k, const Split2x2* ma,
               const Split2x2* mb, const DiagChain* chain) {
  const std::size_t hi = std::max(sa, sb);
  const std::size_t lo = std::min(sa, sb);
  [[maybe_unused]] const SplitEntry* rows[4][kMaxDiagRun];
  for (std::size_t base = row0; base < row1; base += 2 * hi) {
    for (std::size_t mid = base; mid < base + hi; mid += 2 * lo) {
      for (std::size_t i = mid; i < mid + lo; ++i) {
        if constexpr (kChain) {
          chain->row(i, rows[0]);
          chain->row(i + sb, rows[1]);
          chain->row(i + sa, rows[2]);
          chain->row(i + sa + sb, rows[3]);
        }
        cplx* p00 = amps + i * k;
        cplx* p01 = p00 + sb * k;
        cplx* p10 = p00 + sa * k;
        cplx* p11 = p10 + sb * k;
        for (std::size_t l = 0; l < k / 2; ++l) {
          __m256d a[4] = {load2(p00 + 2 * l), load2(p01 + 2 * l),
                          load2(p10 + 2 * l), load2(p11 + 2 * l)};
          if (all_zero(_mm256_or_pd(_mm256_or_pd(a[0], a[1]),
                                    _mm256_or_pd(a[2], a[3]))))
            continue;
          if constexpr (kChain) chain->apply(a, rows, l);
          // Gate A: stride-sa pairs (a00, a10) and (a01, a11).
          butterfly<kReal>(a[0], a[2], ma[l]);
          butterfly<kReal>(a[1], a[3], ma[l]);
          // Gate B: stride-sb pairs (b00, b01) and (b10, b11).
          butterfly<kReal>(a[0], a[1], mb[l]);
          butterfly<kReal>(a[2], a[3], mb[l]);
          store2(p00 + 2 * l, a[0]);
          store2(p01 + 2 * l, a[1]);
          store2(p10 + 2 * l, a[2]);
          store2(p11 + 2 * l, a[3]);
        }
      }
    }
  }
}

void avx2_batched_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k, const cplx* m) {
  Split2x2 split[kMaxLp];
  split_2x2(m, k, split);
  if (entries_real(m, 4 * k))
    rows_1q<true>(amps, dim, stride, k, split);
  else
    rows_1q<false>(amps, dim, stride, k, split);
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
  // Two adjacent rows run their chains in lockstep.
  const DiagChain chain(ops, count, k);
  const SplitEntry* rows[2][kMaxDiagRun];
  for (std::size_t i = 0; i < dim; i += 2) {
    chain.row(i, rows[0]);
    chain.row(i + 1, rows[1]);
    cplx* p0 = amps + i * k;
    cplx* p1 = p0 + k;
    for (std::size_t l = 0; l < k / 2; ++l) {
      __m256d a[2] = {load2(p0 + 2 * l), load2(p1 + 2 * l)};
      chain.apply(a, rows, l);
      store2(p0 + 2 * l, a[0]);
      store2(p1 + 2 * l, a[1]);
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
  Split2x2 ma[kMaxPairRun][kMaxLp], mb[kMaxPairRun][kMaxLp];
  bool real[kMaxPairRun];
  for (std::size_t p = 0; p < count; ++p) {
    split_2x2(pairs[p].m_a, k, ma[p]);
    split_2x2(pairs[p].m_b, k, mb[p]);
    real[p] = entries_real(pairs[p].m_a, 4 * k) &&
              entries_real(pairs[p].m_b, 4 * k);
  }
  const auto sweep = [&](std::size_t p, std::size_t row0, std::size_t row1) {
    (real[p] ? rows_pair<true, false> : rows_pair<false, false>)(
        amps, row0, row1, pairs[p].sa, pairs[p].sb, k, ma[p], mb[p],
        nullptr);
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
  // The pair walk with the diagonal chain in front of its butterflies:
  // the k-wide buffer streams once instead of twice. The chain stays
  // complex even when the pair takes the real butterflies.
  const DiagChain chain(ops, count, k);
  Split2x2 ma[kMaxLp], mb[kMaxLp];
  split_2x2(m_a, k, ma);
  split_2x2(m_b, k, mb);
  if (entries_real(m_a, 4 * k) && entries_real(m_b, 4 * k))
    rows_pair<true, true>(amps, 0, dim, sa, sb, k, ma, mb, &chain);
  else
    rows_pair<false, true>(amps, 0, dim, sa, sb, k, ma, mb, &chain);
}

const detail::SimdVTable kAvx2VTable = {
    .name = "avx2",
    .apply_1q = avx2_apply_1q,
    .apply_2q = avx2_apply_2q,
    .apply_diag_1q = avx2_apply_diag_1q,
    .apply_diag_2q = avx2_apply_diag_2q,
    .apply_pauli_y = avx2_apply_pauli_y,
    .batched_apply_1q = avx2_batched_apply_1q,
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
