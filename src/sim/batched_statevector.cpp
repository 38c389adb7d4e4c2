// Evaluation-major statevector. Deliberately compiled with the DEFAULT
// flags (not the kernel TUs' -ffp-contract=off): the measurement pass
// below must contract exactly like its Statevector counterpart in
// statevector.cpp -- same flags, same expression trees -- while all
// amplitude arithmetic dispatches into the no-FMA kernel TUs.

#include "qoc/sim/batched_statevector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "qoc/sim/kernels.hpp"

namespace qoc::sim {

namespace {
constexpr int kMaxQubits = 30;

// Accumulate <Z> for a block of NQ qubits over the |amp|^2 buffer with
// K compile-time lanes. The NQ * K accumulators live in registers and
// every chain advances once per row, so the FP add latency that
// serializes a per-lane sweep is hidden across lanes *and* qubits.
// Bit-exactness: each (qubit, lane) accumulator still receives exactly
// the scalar loop's +-p sequence in i-ascending order -- multiplying by
// +-1.0 is an exact sign flip (so contraction of the multiply-add is
// harmless: the product needs no rounding), and the scalar path's
// skip-zero branch is unobservable because adding +-0 never changes an
// accumulator that cannot itself be -0 (sums of +-p with p >= +0 round
// any exact zero to +0).
template <int NQ, int K>
void z_accumulate_block(const double* pn, std::size_t dim, const int* shifts,
                        double* out) {
  double acc[NQ * K] = {};
  for (std::size_t i = 0; i < dim; ++i) {
    const double* row = pn + i * K;
    for (int b = 0; b < NQ; ++b) {
      const double sgn = ((i >> shifts[b]) & 1U) ? -1.0 : 1.0;
      for (int l = 0; l < K; ++l) acc[b * K + l] += row[l] * sgn;
    }
  }
  for (int j = 0; j < NQ * K; ++j) out[j] = acc[j];
}

// Runtime-lane fallback for pinned non-default widths; same arithmetic,
// memory accumulators.
void z_accumulate_generic(const double* pn, std::size_t dim, std::size_t k,
                          int shift, double* out) {
  for (std::size_t i = 0; i < dim; ++i) {
    const double sgn = ((i >> shift) & 1U) ? -1.0 : 1.0;
    const double* row = pn + i * k;
    for (std::size_t l = 0; l < k; ++l) out[l] += row[l] * sgn;
  }
}

// All qubits at compile-time width K, four-qubit blocks.
template <int K>
void z_accumulate_all(const double* pn, std::size_t dim, int n_qubits,
                      std::size_t lanes, double* out) {
  int q = 0;
  while (q < n_qubits) {
    const int blk = std::min(4, n_qubits - q);
    int shifts[4] = {};
    for (int b = 0; b < blk; ++b) shifts[b] = n_qubits - 1 - (q + b);
    double* oq = out + static_cast<std::size_t>(q) * lanes;
    switch (blk) {
      case 4: z_accumulate_block<4, K>(pn, dim, shifts, oq); break;
      case 3: z_accumulate_block<3, K>(pn, dim, shifts, oq); break;
      case 2: z_accumulate_block<2, K>(pn, dim, shifts, oq); break;
      default: z_accumulate_block<1, K>(pn, dim, shifts, oq); break;
    }
    q += blk;
  }
}

}  // namespace

BatchedStatevector::BatchedStatevector(int n_qubits, std::size_t lanes)
    : n_qubits_(n_qubits), lanes_(lanes) {
  if (n_qubits < 1 || n_qubits > kMaxQubits)
    throw std::invalid_argument(
        "BatchedStatevector: n_qubits out of range [1,30]");
  if (lanes < 2 || lanes > kMaxLanes || (lanes % 2) != 0)
    throw std::invalid_argument(
        "BatchedStatevector: lanes must be even, in [2,32]");
  dim_ = std::size_t{1} << n_qubits;
  amps_.assign(dim_ * lanes_, cplx{0.0, 0.0});
  bcast_.resize(16 * lanes_);
  for (std::size_t l = 0; l < lanes_; ++l) amps_[l] = 1.0;
}

void BatchedStatevector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  for (std::size_t l = 0; l < lanes_; ++l) amps_[l] = 1.0;
}

void BatchedStatevector::check_qubit(int qubit, const char* what) const {
  if (qubit < 0 || qubit >= n_qubits_) throw std::out_of_range(what);
}

void BatchedStatevector::check_pair(int qubit_a, int qubit_b,
                                    const char* what) const {
  if (qubit_a == qubit_b) throw std::invalid_argument(what);
  check_qubit(qubit_a, what);
  check_qubit(qubit_b, what);
}

// ---- Uniform gates ---------------------------------------------------------
// Entries broadcast into the entry-major scratch once per call; the cost
// is O(entries * lanes) against O(2^n * lanes) kernel work.

void BatchedStatevector::apply_1q(const Matrix& m, int qubit) {
  if (m.rows() != 2 || m.cols() != 2)
    throw std::invalid_argument("apply_1q: matrix must be 2x2");
  const cplx mm[4] = {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
  apply_1q(mm, qubit);
}

void BatchedStatevector::apply_1q(const cplx* m, int qubit) {
  check_qubit(qubit, "apply_1q: qubit index");
  for (int e = 0; e < 4; ++e)
    std::fill_n(bcast_.data() + e * lanes_, lanes_, m[e]);
  kernels::batched_apply_1q(amps_.data(), dim_, stride_of(qubit), lanes_,
                            bcast_.data());
}

void BatchedStatevector::apply_2q(const Matrix& m, int qubit_a, int qubit_b) {
  if (m.rows() != 4 || m.cols() != 4)
    throw std::invalid_argument("apply_2q: matrix must be 4x4");
  cplx mm[16];
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) mm[r * 4 + c] = m(r, c);
  apply_2q(mm, qubit_a, qubit_b);
}

void BatchedStatevector::apply_2q(const cplx* m, int qubit_a, int qubit_b) {
  check_pair(qubit_a, qubit_b, "apply_2q: qubit pair");
  for (int e = 0; e < 16; ++e)
    std::fill_n(bcast_.data() + e * lanes_, lanes_, m[e]);
  kernels::batched_apply_2q(amps_.data(), dim_, stride_of(qubit_a),
                            stride_of(qubit_b), lanes_, bcast_.data());
}

void BatchedStatevector::apply_diag_1q(cplx d0, cplx d1, int qubit) {
  check_qubit(qubit, "apply_diag_1q: qubit index");
  std::fill_n(bcast_.data(), lanes_, d0);
  std::fill_n(bcast_.data() + lanes_, lanes_, d1);
  kernels::batched_apply_diag_1q(amps_.data(), dim_, stride_of(qubit), lanes_,
                                 bcast_.data());
}

void BatchedStatevector::apply_cx(int control, int target) {
  check_pair(control, target, "apply_cx: qubit pair");
  kernels::batched_apply_cx(amps_.data(), dim_, stride_of(control),
                            stride_of(target), lanes_);
}

void BatchedStatevector::apply_cz(int qubit_a, int qubit_b) {
  check_pair(qubit_a, qubit_b, "apply_cz: qubit pair");
  kernels::batched_apply_cz(amps_.data(), dim_, stride_of(qubit_a),
                            stride_of(qubit_b), lanes_);
}

void BatchedStatevector::apply_swap(int qubit_a, int qubit_b) {
  check_pair(qubit_a, qubit_b, "apply_swap: qubit pair");
  kernels::batched_apply_swap(amps_.data(), dim_, stride_of(qubit_a),
                              stride_of(qubit_b), lanes_);
}

void BatchedStatevector::apply_pauli_x(int qubit) {
  check_qubit(qubit, "apply_pauli_x: qubit index");
  kernels::batched_apply_pauli_x(amps_.data(), dim_, stride_of(qubit), lanes_);
}

void BatchedStatevector::apply_pauli_y(int qubit) {
  check_qubit(qubit, "apply_pauli_y: qubit index");
  kernels::batched_apply_pauli_y(amps_.data(), dim_, stride_of(qubit), lanes_);
}

void BatchedStatevector::apply_pauli_z(int qubit) {
  check_qubit(qubit, "apply_pauli_z: qubit index");
  kernels::batched_apply_pauli_z(amps_.data(), dim_, stride_of(qubit), lanes_);
}

void BatchedStatevector::apply_matrix(const Matrix& m,
                                      const std::vector<int>& qubits) {
  const std::size_t k = qubits.size();
  if (k == 1) {
    apply_1q(m, qubits[0]);
    return;
  }
  if (k == 2) {
    apply_2q(m, qubits[0], qubits[1]);
    return;
  }
  if (k == 0 || k > 6)
    throw std::invalid_argument("apply_matrix: supports 1..6 qubits");
  const std::size_t sub = std::size_t{1} << k;
  if (m.rows() != sub || m.cols() != sub)
    throw std::invalid_argument("apply_matrix: matrix dim mismatch");
  for (std::size_t i = 0; i < k; ++i) {
    check_qubit(qubits[i], "apply_matrix: qubit index");
    for (std::size_t j = i + 1; j < k; ++j)
      if (qubits[i] == qubits[j])
        throw std::invalid_argument("apply_matrix: duplicate qubit");
  }

  std::vector<std::size_t> stride(k);
  std::size_t mask = 0;
  for (std::size_t i = 0; i < k; ++i) {
    stride[i] = stride_of(qubits[i]);
    mask |= stride[i];
  }

  // Per-lane gather/matmul/scatter with the Statevector arithmetic
  // (acc += m(r,c) * in[c], c ascending).
  std::vector<cplx> in(sub), out(sub);
  for (std::size_t base = 0; base < dim_; ++base) {
    if (base & mask) continue;
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      for (std::size_t s = 0; s < sub; ++s) {
        std::size_t idx = base;
        for (std::size_t b = 0; b < k; ++b)
          if (s & (sub >> 1 >> b)) idx |= stride[b];
        in[s] = amps_[idx * lanes_ + lane];
      }
      for (std::size_t r = 0; r < sub; ++r) {
        cplx acc{0.0, 0.0};
        for (std::size_t c = 0; c < sub; ++c) acc += m(r, c) * in[c];
        out[r] = acc;
      }
      for (std::size_t s = 0; s < sub; ++s) {
        std::size_t idx = base;
        for (std::size_t b = 0; b < k; ++b)
          if (s & (sub >> 1 >> b)) idx |= stride[b];
        amps_[idx * lanes_ + lane] = out[s];
      }
    }
  }
}

// ---- Per-lane gates --------------------------------------------------------

void BatchedStatevector::apply_1q_lanes(const cplx* m, int qubit) {
  check_qubit(qubit, "apply_1q_lanes: qubit index");
  kernels::batched_apply_1q(amps_.data(), dim_, stride_of(qubit), lanes_, m);
}

void BatchedStatevector::apply_1q_pair_run_lanes(const Pair1qOp* ops,
                                                 std::size_t count) {
  std::array<kernels::BatchedPairOp, kernels::kMaxPairRun> run;
  std::size_t done = 0;
  while (done < count) {
    const std::size_t n = std::min(count - done, run.size());
    for (std::size_t r = 0; r < n; ++r) {
      const Pair1qOp& op = ops[done + r];
      check_pair(op.qubit_a, op.qubit_b,
                 "apply_1q_pair_run_lanes: qubit pair");
      run[r] = {stride_of(op.qubit_a), stride_of(op.qubit_b), op.m_a,
                op.m_b};
    }
    kernels::batched_apply_1q_pair_run(amps_.data(), dim_, run.data(), n,
                                       lanes_);
    done += n;
  }
}

void BatchedStatevector::apply_2q_lanes(const cplx* m, int qubit_a,
                                        int qubit_b) {
  check_pair(qubit_a, qubit_b, "apply_2q_lanes: qubit pair");
  kernels::batched_apply_2q(amps_.data(), dim_, stride_of(qubit_a),
                            stride_of(qubit_b), lanes_, m);
}

void BatchedStatevector::apply_diag_1q_lanes(const cplx* d, int qubit) {
  check_qubit(qubit, "apply_diag_1q_lanes: qubit index");
  kernels::batched_apply_diag_1q(amps_.data(), dim_, stride_of(qubit), lanes_,
                                 d);
}

void BatchedStatevector::apply_diag_2q_lanes(const cplx* d, int qubit_a,
                                             int qubit_b) {
  check_pair(qubit_a, qubit_b, "apply_diag_2q_lanes: qubit pair");
  kernels::batched_apply_diag_2q(amps_.data(), dim_, stride_of(qubit_a),
                                 stride_of(qubit_b), lanes_, d);
}

void BatchedStatevector::apply_diag_run_lanes(const DiagRunOp* ops,
                                              std::size_t count) {
  diag_run_chunks(ops, count, nullptr);
}

void BatchedStatevector::apply_diag_run_then_1q_pair_lanes(
    const DiagRunOp* ops, std::size_t count, const cplx* m_a, int qubit_a,
    const cplx* m_b, int qubit_b) {
  check_pair(qubit_a, qubit_b, "apply_diag_run_then_1q_pair_lanes: qubit pair");
  const Pair1qOp pair{m_a, qubit_a, m_b, qubit_b};
  diag_run_chunks(ops, count, &pair);
}

void BatchedStatevector::diag_run_chunks(const DiagRunOp* ops,
                                         std::size_t count,
                                         const Pair1qOp* pair) {
  std::array<kernels::BatchedDiagOp, kernels::kMaxDiagRun> run;
  std::size_t done = 0;
  // Only the final chunk (or an empty run) fuses with the pair. Chunk
  // boundaries don't change any amplitude's product chain, so they are
  // invisible in the results.
  do {
    const std::size_t n = std::min(count - done, run.size());
    for (std::size_t r = 0; r < n; ++r) {
      const DiagRunOp& op = ops[done + r];
      if (op.qubit_b >= 0)
        check_pair(op.qubit_a, op.qubit_b, "diagonal run: qubit pair");
      else
        check_qubit(op.qubit_a, "diagonal run: qubit index");
      run[r] = {op.d, stride_of(op.qubit_a),
                op.qubit_b >= 0 ? stride_of(op.qubit_b) : 0};
    }
    done += n;
    if (done == count && pair != nullptr)
      kernels::batched_apply_diag_run_then_1q_pair(
          amps_.data(), dim_, run.data(), n, stride_of(pair->qubit_a),
          pair->m_a, stride_of(pair->qubit_b), pair->m_b, lanes_);
    else
      kernels::batched_apply_diag_run(amps_.data(), dim_, run.data(), n,
                                      lanes_);
  } while (done < count);
}

// ---- Measurement -----------------------------------------------------------

void BatchedStatevector::expectation_z_all_lanes(std::vector<double>& out) {
  const std::size_t nq = static_cast<std::size_t>(n_qubits_);
  out.assign(nq * lanes_, 0.0);
  norm_scratch_.resize(dim_ * lanes_);
  double* pn = norm_scratch_.data();
  const std::size_t total = dim_ * lanes_;
  // Same std::norm expression (and same default contraction flags) as
  // Statevector::expectation_z_all, so each buffered p is bit-identical
  // to the one the scalar path computes on the fly.
  for (std::size_t j = 0; j < total; ++j) pn[j] = std::norm(amps_[j]);
  switch (lanes_) {
    case 8: z_accumulate_all<8>(pn, dim_, n_qubits_, lanes_, out.data()); break;
    case 4: z_accumulate_all<4>(pn, dim_, n_qubits_, lanes_, out.data()); break;
    case 2: z_accumulate_all<2>(pn, dim_, n_qubits_, lanes_, out.data()); break;
    default:
      for (int q = 0; q < n_qubits_; ++q)
        z_accumulate_generic(pn, dim_, lanes_, n_qubits_ - 1 - q,
                             out.data() + static_cast<std::size_t>(q) * lanes_);
      break;
  }
}

}  // namespace qoc::sim
