#pragma once
// Vectorized, cache-blocked statevector kernels.
//
// Every Statevector gate application funnels through this layer. A gate on
// qubit q touches amplitude pairs separated by stride = 2^(n-1-q), which
// splits the qubit range into two regimes:
//
//   * the "low" regime (the qubit -- or for 2q kernels the lower
//     operand -- has stride 1): paired amplitudes are adjacent in
//     memory, so one SIMD register spans a whole amplitude group. Each
//     kernel has a dedicated stride==1 (2q: min-stride==1) path using
//     shuffle/broadcast forms of the complex arithmetic.
//   * the "high" regime (every other stride): the pairs are far apart,
//     but each group decomposes into *contiguous runs* of length
//     min-stride (>= 2, so full vector width). The blocked enumeration
//     walks base blocks so the kernel streams 2 (1q) or 4 (2q)
//     sequential runs at a time -- L1/L2-friendly and SIMD-vectorizable
//     along the run -- instead of scanning the full index space with a
//     skip-mask branch per element.
//
// Dispatch policy (see also src/README.md, "Kernel dispatch"):
//   * KernelMode::Scalar   -- the scalar reference loops (the pre-SIMD
//                             implementation, kept as the parity oracle).
//   * KernelMode::Blocked  -- blocked enumeration, portable C++ only.
//   * KernelMode::Auto     -- the default: blocked enumeration with the
//                             AVX2 inner loops when (a) the build
//                             enabled them (CMake compiles
//                             kernels_avx2.cpp with -mavx2 when the
//                             compiler supports it) and (b) the CPU
//                             reports AVX2 at runtime; otherwise
//                             Blocked.
//
// Bit-exactness contract: for every kernel and every mode, the arithmetic
// performed on each amplitude is IDENTICAL (same IEEE operations in the
// same order) to the scalar reference -- the SIMD forms only batch
// independent groups, never re-associate sums, and the kernel TUs are
// compiled with -ffp-contract=off so no path contracts to FMA. Results
// are therefore bit-identical across modes (up to the sign of zeros,
// which probabilities and expectation values cannot see). Asserted for
// n = 16/18/20 in tests/test_kernels.cpp.

#include <complex>
#include <cstddef>

#include "qoc/linalg/matrix.hpp"

namespace qoc::sim::kernels {

using linalg::cplx;

enum class KernelMode { Auto, Scalar, Blocked };

/// Process-wide kernel mode (atomic; Auto by default). Intended for
/// tests and benchmarks -- production code leaves it at Auto.
void set_kernel_mode(KernelMode mode);
KernelMode kernel_mode();

/// Name of the SIMD backend Auto dispatches to on this build+CPU:
/// "avx2", or "portable" when no vector ISA path is available.
const char* simd_backend();

// ---- Kernels ---------------------------------------------------------------
// All strides are in units of cplx elements and are powers of two; `dim`
// is the full amplitude count (2^n). Matrices are row-major stack
// buffers. Callers validate qubit indices; kernels assume valid input.

/// amps[i0], amps[i1=i0+stride] <- 2x2 m applied to each pair.
void apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
              const cplx* m);

/// 4x4 m applied to each (sa, sb) group; sa indexes the higher matrix bit.
void apply_2q(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb,
              const cplx* m);

/// diag(d0, d1) on the stride-`stride` qubit.
void apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride, cplx d0,
                   cplx d1);

/// diag(d[0..3]) over the (sa, sb) pair; d indexed by (bit_a << 1) | bit_b.
void apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                   std::size_t sb, const cplx* d);

/// CX: swap the target pair where the control bit is set.
void apply_cx(cplx* amps, std::size_t dim, std::size_t sc, std::size_t st);

/// CZ: negate amplitudes where both bits are set.
void apply_cz(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb);

/// SWAP: exchange the |01> and |10> amplitudes of each group.
void apply_swap(cplx* amps, std::size_t dim, std::size_t sa, std::size_t sb);

void apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride);
void apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride);
void apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride);

// ---- Evaluation-major (batched) kernels ------------------------------------
// k-wide SoA layout: `k` independent states interleaved lane-contiguous,
// amps[row * k + lane], so one gate application streams every lane of a
// row through the vector units at once (PR 3 vectorized *within* one
// state; these vectorize *across* states -- the distinct-binding
// run_batch traffic the serve coalescer produces). `dim` and the strides
// are in rows (amplitude indices of one state), exactly as in the
// single-state kernels above; `k` must be even so the AVX2 forms can
// process two complex lanes per register.
//
// Matrices and diagonals are ENTRY-MAJOR per-lane buffers: m[e * k + lane]
// holds entry e of lane `lane`'s matrix, so a vector load of consecutive
// lanes picks up one matrix entry across states. Uniform (lane-invariant)
// gates simply broadcast their entries into such a buffer.
//
// Bit-exactness: lanes are fully independent, and the per-lane arithmetic
// of every mode is the single-state scalar reference operation-for-
// operation, so lane L of a batched application is bit-identical to the
// scalar per-evaluation path (same caveats as above: finite values, sign
// of zeros). Asserted end-to-end in tests/test_batch_kernels.cpp.
//
// The AVX2 forms of the dense and diagonal-run kernels (batched_apply_1q,
// batched_apply_1q_pair_run, batched_apply_diag_run and
// batched_apply_diag_run_then_1q_pair) are row walks over two shared
// primitives in kernels_avx2.cpp: one per-lane 2x2 butterfly and one
// diagonal product chain (pre-split entry table, per-row entry
// offsets, per-amplitude chain). The dense walks take two shortcuts
// that live entirely inside the sign-of-zeros caveat:
//  - All-zero blocks are skipped: a dense 1q butterfly maps an all-zero
//    block to an all-zero block, so skipping leaves the input's zeros in
//    place where the arithmetic could produce -0. This makes the first
//    dense layer on |0...0> (support grows from 1 row) nearly free
//    instead of a full sweep of the k-wide buffer, at one or-tree +
//    ptest per block on dense data.
//  - Purely real gate matrices (ry, h -- i.e. every rotation-layer
//    gate) take the butterfly's real form, which drops the im-part
//    products. Those products are exact zeros (x*0 = +-0), and adding
//    or subtracting them can only change the sign of a zero result,
//    never a nonzero one -- at less than half the vector ops of the
//    complex form. The test is per gate in batched_apply_1q and per
//    pair (both matrices real) in the pair kernels.
// Neither shortcut is observable through probabilities, expectation
// values, or samples, since norm(+-0) = +0 and zeros never become
// nonzero; the bitwise parity tests assert exactly that end-to-end.

/// 2x2 per-lane matrices applied to each (stride-separated) row pair.
void batched_apply_1q(cplx* amps, std::size_t dim, std::size_t stride,
                      std::size_t k, const cplx* m);

/// 4x4 per-lane matrices over each (sa, sb) row group.
void batched_apply_2q(cplx* amps, std::size_t dim, std::size_t sa,
                      std::size_t sb, std::size_t k, const cplx* m);

/// Per-lane diag(d[0*k+l], d[1*k+l]) on the stride-`stride` qubit.
void batched_apply_diag_1q(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k, const cplx* d);

/// Per-lane diag(d[0..3]) over the (sa, sb) pair.
void batched_apply_diag_2q(cplx* amps, std::size_t dim, std::size_t sa,
                           std::size_t sb, std::size_t k, const cplx* d);

/// One member of a dense 1q pair run (see batched_apply_1q_pair_run):
/// gate A (stride sa, entry-major matrices m_a) then gate B (stride sb,
/// m_b) on DISTINCT qubits, exactly as batched_apply_1q on sa then on
/// sb. The two gates' orbits close over 4-row blocks
/// {i, i+sb, i+sa, i+sa+sb}, so both butterflies chain in registers per
/// block: each amplitude sees the identical IEEE operation sequence as
/// the two-pass form while the state streams through memory once
/// instead of twice -- the dominant cost of the k-wide layout on dense
/// gate layers.
struct BatchedPairOp {
  std::size_t sa = 0;
  std::size_t sb = 0;
  const cplx* m_a = nullptr;
  const cplx* m_b = nullptr;
};

/// Longest pair run batched_apply_1q_pair_run accepts in one call
/// (callers split; a split only costs the tiling opportunity, never
/// correctness). 8 pairs covers a full rotation layer up to 16 qubits.
inline constexpr std::size_t kMaxPairRun = 8;

/// Tile footprint target for cache-blocked pair runs: a tile of the
/// k-wide buffer at most this large stays resident while several pair
/// passes run over it (one quarter of the 2 MiB L2 this targets).
inline constexpr std::size_t kPairTileBytes = 512 * 1024;

/// Apply `count` dense 1q pairs in order, bit-identical to applying
/// them one at a time; a lone pair is a run of one. Pairs whose 4-row
/// blocks span more than a kPairTileBytes tile stream the buffer once each;
/// the trailing small-span pairs are cache-blocked -- every pair's
/// blocks sit inside an aligned tile, so the tile takes all their
/// passes while resident. Only the iteration order of disjoint blocks
/// changes, never any amplitude's operation sequence. A rotation layer
/// (strides descending) thus costs ~2 full-buffer sweeps instead of
/// one per pair -- the k-wide layout's dominant cost at the top of the
/// supported size range.
void batched_apply_1q_pair_run(cplx* amps, std::size_t dim,
                               const BatchedPairOp* pairs, std::size_t count,
                               std::size_t k);

/// One member of a fused diagonal run (see batched_apply_diag_run).
/// `d` is an entry-major per-lane buffer like the standalone diag
/// kernels: 2 entries per lane when sb == 0 (1q, indexed by the sa bit),
/// 4 entries per lane otherwise (2q, indexed (bit_a << 1) | bit_b).
struct BatchedDiagOp {
  const cplx* d = nullptr;
  std::size_t sa = 0;  // row stride of qubit a
  std::size_t sb = 0;  // row stride of qubit b; 0 marks a 1q diagonal
};

/// Longest run batched_apply_diag_run accepts in one call; callers split
/// longer runs (chunk boundaries don't change the per-element product
/// chain, so splitting is invisible in the results).
inline constexpr std::size_t kMaxDiagRun = 32;

/// Apply `count` consecutive diagonal ops in ONE pass over the k-wide
/// state. Diagonals are elementwise, so for each amplitude the ops chain
/// in registers: amp <- d_count * (... * (d_1 * amp)). Every intermediate
/// product is rounded to double exactly as the stored intermediate of
/// `count` separate passes would be, so the result is bit-identical to
/// calling batched_apply_diag_1q/_2q once per op -- the fusion only
/// deletes the O(count * dim * k) intermediate loads and stores, which
/// is where the evaluation-major layout (k times the working set of one
/// state) otherwise pays for its extra memory traffic.
void batched_apply_diag_run(cplx* amps, std::size_t dim,
                            const BatchedDiagOp* ops, std::size_t count,
                            std::size_t k);

/// A diagonal run immediately followed by a fused dense 1q pair
/// (BatchedPairOp semantics: gate A stride sa then gate B stride sb,
/// sa != sb), all in ONE pass: each 4-row block's amplitudes run their
/// diag product chains in registers and feed straight into the two
/// butterflies. Per amplitude the IEEE operation sequence equals
/// batched_apply_diag_run followed by a run of one pair
/// (bit-identical), with one sweep of the k-wide buffer instead of two.
/// This is the boundary a circuit of alternating entangling rings and
/// rotation layers crosses once per ring, so fusing it deletes one of
/// the layer-count-many passes per ring. count must be <= kMaxDiagRun
/// (callers chunk; only the final chunk fuses with the pair).
void batched_apply_diag_run_then_1q_pair(cplx* amps, std::size_t dim,
                                         const BatchedDiagOp* ops,
                                         std::size_t count, std::size_t sa,
                                         const cplx* m_a, std::size_t sb,
                                         const cplx* m_b, std::size_t k);

/// Structured lane-invariant row permutations / sign flips.
void batched_apply_cx(cplx* amps, std::size_t dim, std::size_t sc,
                      std::size_t st, std::size_t k);
void batched_apply_cz(cplx* amps, std::size_t dim, std::size_t sa,
                      std::size_t sb, std::size_t k);
void batched_apply_swap(cplx* amps, std::size_t dim, std::size_t sa,
                        std::size_t sb, std::size_t k);
void batched_apply_pauli_x(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k);
void batched_apply_pauli_y(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k);
void batched_apply_pauli_z(cplx* amps, std::size_t dim, std::size_t stride,
                           std::size_t k);

namespace detail {

/// Function table for one SIMD ISA. Entries may be null (kernel has no
/// ISA-specific form; the portable blocked loop is used instead).
struct SimdVTable {
  const char* name = nullptr;
  void (*apply_1q)(cplx*, std::size_t, std::size_t, const cplx*) = nullptr;
  void (*apply_2q)(cplx*, std::size_t, std::size_t, std::size_t,
                   const cplx*) = nullptr;
  void (*apply_diag_1q)(cplx*, std::size_t, std::size_t, cplx,
                        cplx) = nullptr;
  void (*apply_diag_2q)(cplx*, std::size_t, std::size_t, std::size_t,
                        const cplx*) = nullptr;
  void (*apply_pauli_y)(cplx*, std::size_t, std::size_t) = nullptr;
  // Evaluation-major forms (k lanes, entry-major matrices). Null entries
  // fall back to the portable per-lane loops.
  void (*batched_apply_1q)(cplx*, std::size_t, std::size_t, std::size_t,
                           const cplx*) = nullptr;
  void (*batched_apply_1q_pair_run)(cplx*, std::size_t, const BatchedPairOp*,
                                    std::size_t, std::size_t) = nullptr;
  void (*batched_apply_2q)(cplx*, std::size_t, std::size_t, std::size_t,
                           std::size_t, const cplx*) = nullptr;
  void (*batched_apply_diag_1q)(cplx*, std::size_t, std::size_t, std::size_t,
                                const cplx*) = nullptr;
  void (*batched_apply_diag_2q)(cplx*, std::size_t, std::size_t, std::size_t,
                                std::size_t, const cplx*) = nullptr;
  void (*batched_apply_diag_run_then_1q_pair)(cplx*, std::size_t,
                                              const BatchedDiagOp*,
                                              std::size_t, std::size_t,
                                              const cplx*, std::size_t,
                                              const cplx*,
                                              std::size_t) = nullptr;
  void (*batched_apply_diag_run)(cplx*, std::size_t, const BatchedDiagOp*,
                                 std::size_t, std::size_t) = nullptr;
  void (*batched_apply_pauli_y)(cplx*, std::size_t, std::size_t,
                                std::size_t) = nullptr;
};

/// Defined in kernels_avx2.cpp: the AVX2 table when that TU was built
/// with -mavx2, nullptr otherwise. Runtime CPU support is checked by the
/// dispatcher, not here.
const SimdVTable* avx2_vtable();

}  // namespace detail

}  // namespace qoc::sim::kernels
