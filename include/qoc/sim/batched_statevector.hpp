#pragma once
// Evaluation-major (k-wide) statevector: k independent n-qubit states in
// one SoA buffer, amps[row * lanes + lane], so a single gate application
// streams every lane of each amplitude row through the vector units.
// This is the layout behind StatevectorBackend's lane-grouped run_batch /
// expect_batch path: the serving stack coalesces many same-structure
// bindings into one batch, and PR 3's SIMD kernels — which vectorize
// *within* one state — leave that cross-binding parallelism on the table
// for small n. Here each lane carries one binding's state, and
// parameter-dependent matrices are built once per op per lane group.
//
// Bit convention matches Statevector (qubit 0 = most significant bit);
// row indices and strides are identical. Lanes are fully independent:
// the per-lane arithmetic of every kernel is the single-state scalar
// reference operation-for-operation (see kernels.hpp), so lane L evolves
// bit-identically to a Statevector fed the same gates.
//
// Uniform methods (apply_1q(const Matrix&...), apply_cx, ...) apply one
// gate to all lanes; the *_lanes methods take ENTRY-MAJOR per-lane
// buffers (m[entry * lanes + lane]) for parameterized ops whose matrix
// differs per binding. The one measurement, expectation_z_all_lanes,
// reads every lane's exact <Z_q> in one pass, each bit-identical to
// Statevector::expectation_z_all. There is no sampling here: a sampled
// readout runs on the scalar path (see backend::StatevectorBackend).

#include <cstdint>
#include <vector>

#include "qoc/linalg/matrix.hpp"

namespace qoc::sim {

using linalg::cplx;
using linalg::Matrix;

class BatchedStatevector {
 public:
  /// Widest supported lane group. The cost model picks 8 (one cache line
  /// of doubles per row); wider is allowed for experiments.
  static constexpr std::size_t kMaxLanes = 32;

  /// All lanes initialised to |0...0>. Throws for n_qubits outside
  /// [1, 30] or lanes odd / outside [2, kMaxLanes] (even lanes keep the
  /// AVX2 forms free of remainder handling).
  BatchedStatevector(int n_qubits, std::size_t lanes);

  int num_qubits() const { return n_qubits_; }
  std::size_t lanes() const { return lanes_; }
  /// Rows (amplitudes per lane), 2^n. Matches Statevector::dim().
  std::size_t dim() const { return dim_; }

  /// Row-major SoA buffer: amplitudes()[row * lanes() + lane].
  const std::vector<cplx>& amplitudes() const { return amps_; }

  /// Reset every lane to |0...0>.
  void reset();

  // ---- Uniform gate application (same gate, all lanes) -------------------

  void apply_1q(const Matrix& m, int qubit);
  void apply_1q(const cplx* m, int qubit);  // row-major m[4]
  void apply_2q(const Matrix& m, int qubit_a, int qubit_b);
  void apply_2q(const cplx* m, int qubit_a, int qubit_b);  // row-major m[16]
  void apply_diag_1q(cplx d0, cplx d1, int qubit);
  void apply_cx(int control, int target);
  void apply_cz(int qubit_a, int qubit_b);
  void apply_swap(int qubit_a, int qubit_b);
  void apply_pauli_x(int qubit);
  void apply_pauli_y(int qubit);
  void apply_pauli_z(int qubit);

  /// Generic 2^k x 2^k matrix on an ordered qubit list (k <= 6), applied
  /// per lane via the same gather/matmul/scatter arithmetic as
  /// Statevector::apply_matrix. Rarely hot (CCX only); kept simple.
  void apply_matrix(const Matrix& m, const std::vector<int>& qubits);

  // ---- Per-lane gate application (entry-major buffers) -------------------
  // m[e * lanes() + lane] = entry e of lane `lane`'s matrix. Buffers must
  // hold 4 (1q), 16 (2q), 2 (diag 1q) or 4 (diag 2q) entries per lane.

  void apply_1q_lanes(const cplx* m, int qubit);

  /// One member of a dense pair run (see apply_1q_pair_run_lanes): two
  /// dense per-lane 1q gates on distinct qubits, gate A on qubit_a then
  /// gate B on qubit_b, entry-major matrices.
  struct Pair1qOp {
    const cplx* m_a = nullptr;
    int qubit_a = -1;
    const cplx* m_b = nullptr;
    int qubit_b = -1;
  };

  /// Apply `count` dense 1q pairs in order, bit-identical to two
  /// apply_1q_lanes calls per element. Each pair is one pass over the
  /// lane group: the 4-row blocks the two gates close over chain both
  /// butterflies in registers, so the k-wide buffer streams once
  /// instead of twice; this is the dense-layer analogue of
  /// apply_diag_run_lanes. A lone pair is a run of one. Where the
  /// kernel supports it, the small-stride tail of the run is
  /// cache-blocked: a tile of the k-wide buffer takes several pair
  /// passes while resident, so a full rotation layer costs ~2 sweeps of
  /// the buffer instead of one per pair. Runs longer than
  /// kernels::kMaxPairRun are chunked (which only forgoes tiling across
  /// the boundary).
  void apply_1q_pair_run_lanes(const Pair1qOp* ops, std::size_t count);

  void apply_2q_lanes(const cplx* m, int qubit_a, int qubit_b);
  void apply_diag_1q_lanes(const cplx* d, int qubit);
  void apply_diag_2q_lanes(const cplx* d, int qubit_a, int qubit_b);

  /// One member of a fused diagonal run. `d` is entry-major per lane
  /// (2 entries per lane for 1q ops, 4 for 2q); qubit_b < 0 marks 1q.
  struct DiagRunOp {
    const cplx* d = nullptr;
    int qubit_a = -1;
    int qubit_b = -1;
  };

  /// Apply `count` consecutive diagonal ops in one pass over the state.
  /// Bit-identical to calling apply_diag_1q_lanes / apply_diag_2q_lanes
  /// once per op (the per-amplitude product chain is unchanged; only the
  /// intermediate loads/stores disappear), but touches the k-wide buffer
  /// once instead of `count` times -- the evaluation-major layout's
  /// working set is k states, so collapsing passes is what keeps runs of
  /// diagonal gates (RZZ entangling rings) from paying k times the
  /// memory traffic of the scalar path.
  void apply_diag_run_lanes(const DiagRunOp* ops, std::size_t count);

  /// A diagonal run immediately followed by a fused dense 1q pair
  /// (Pair1qOp semantics), all in one pass over the state where the
  /// kernel supports it. Bit-identical to apply_diag_run_lanes(ops,
  /// count) then a run of one pair {m_a, qubit_a, m_b, qubit_b}; runs
  /// longer than kMaxDiagRun chunk as in apply_diag_run_lanes, with
  /// only the final chunk fusing into the pair. This is the
  /// ring/rotation-layer boundary of a layered circuit -- fusing it
  /// deletes one full sweep per entangling ring.
  void apply_diag_run_then_1q_pair_lanes(const DiagRunOp* ops,
                                         std::size_t count, const cplx* m_a,
                                         int qubit_a, const cplx* m_b,
                                         int qubit_b);

  // ---- Measurement ---------------------------------------------------------

  /// Exact <Z> for every qubit of every lane in one fused pass:
  /// out[q * lanes() + lane]. Per lane the result is bit-identical to
  /// Statevector::expectation_z_all on that lane's state -- same |amp|^2
  /// values consumed in the same i-ascending order per qubit; the scalar
  /// loop's skip-zero branch is unobservable because adding +-0 never
  /// changes an accumulator that cannot itself be -0. The serial
  /// add-latency chain of each (qubit, lane) accumulator runs across all
  /// lanes (and several qubits) at once, which is where the k-wide
  /// layout actually pays off: measurement drops from ~half of scalar
  /// evaluation cost to noise.
  void expectation_z_all_lanes(std::vector<double>& out);

 private:
  std::size_t stride_of(int qubit) const {
    return std::size_t{1} << (n_qubits_ - 1 - qubit);
  }
  void check_qubit(int qubit, const char* what) const;
  void check_pair(int qubit_a, int qubit_b, const char* what) const;
  // Both diagonal-run entry points: `ops` in kernel-sized chunks, the
  // final chunk fused into `pair` when one is given.
  void diag_run_chunks(const DiagRunOp* ops, std::size_t count,
                       const Pair1qOp* pair);

  int n_qubits_;
  std::size_t lanes_;
  std::size_t dim_;
  std::vector<cplx> amps_;
  // Scratch for broadcasting uniform gate entries into the entry-major
  // form the batched kernels consume (16 entries x lanes covers 2q).
  std::vector<cplx> bcast_;
  // |amp|^2 buffer for expectation_z_all_lanes (dim x lanes doubles),
  // kept across calls so the per-group hot path never allocates.
  std::vector<double> norm_scratch_;
};

}  // namespace qoc::sim
