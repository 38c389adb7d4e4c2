// Tests for the persistent thread pool and the threading contracts built
// on it: pool/worker reuse across calls, exception rethrow, nested
// submission running inline, chunk coverage, and thread-count invariance
// of run_batch / expect_batch / EnergyEstimator::energies results.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/common/parallel.hpp"
#include "qoc/common/thread_pool.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/vqe/vqe.hpp"

namespace {

using namespace qoc;

TEST(ThreadPool, GlobalPoolHasWorkers) {
  EXPECT_GE(common::ThreadPool::global().size(), 1u);
  EXPECT_FALSE(common::ThreadPool::on_worker_thread());
}

TEST(ThreadPool, ParseThreadCountOverride) {
  // The QOC_THREADS parsing rules, testable without touching the
  // process environment (hardware_threads() latches on first call).
  EXPECT_EQ(parse_thread_count(nullptr), 0u);
  EXPECT_EQ(parse_thread_count(""), 0u);
  EXPECT_EQ(parse_thread_count("8"), 8u);
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("0"), 0u);    // non-positive: no override
  EXPECT_EQ(parse_thread_count("-3"), 0u);
  EXPECT_EQ(parse_thread_count("abc"), 0u);  // non-numeric: no override
  EXPECT_EQ(parse_thread_count("4x"), 0u);   // trailing junk: no override
  EXPECT_EQ(parse_thread_count("4096"), 4096u);
  EXPECT_EQ(parse_thread_count("5000"), 0u);  // absurd: no override
  // Overflowing digit strings must not wrap into a plausible count.
  EXPECT_EQ(parse_thread_count("99999999999999999999"), 0u);
}

TEST(ThreadPool, ParseThreadCountStrictDigits) {
  // QOC_THREADS goes through common::parse_env_uint: strictly decimal
  // digits. Everything strtol would have silently tolerated -- signs,
  // whitespace, radix prefixes -- is garbage, i.e. no override.
  EXPECT_EQ(parse_thread_count("+8"), 0u);    // explicit sign
  EXPECT_EQ(parse_thread_count(" 8"), 0u);    // leading whitespace
  EXPECT_EQ(parse_thread_count("8 "), 0u);    // trailing whitespace
  EXPECT_EQ(parse_thread_count("0x10"), 0u);  // hex prefix
  EXPECT_EQ(parse_thread_count("1e3"), 0u);   // exponent notation
  EXPECT_EQ(parse_thread_count("8.0"), 0u);   // decimal point
  EXPECT_EQ(parse_thread_count("0008"), 8u);  // leading zeros are digits
  EXPECT_EQ(parse_thread_count("00004096"), 4096u);  // ... up to the cap
  EXPECT_EQ(parse_thread_count("00004097"), 0u);     // ... and not past it
}

TEST(ThreadPool, StatsReportWorkersAndPendingTickets) {
  common::ThreadPool pool(2);
  const auto idle = pool.stats();
  EXPECT_EQ(idle.workers, 2u);
  EXPECT_EQ(idle.pending_tickets, 0u);

  // The global pool's snapshot is coherent too (pending tickets can be
  // non-zero only transiently while a run is being distributed).
  const auto global = common::ThreadPool::global().stats();
  EXPECT_EQ(global.workers, common::ThreadPool::global().size());
}

TEST(ThreadPool, FairShareSplitsSupplyAcrossConsumers) {
  common::ThreadPool pool(7);  // supply for N consumers: 7 workers + N callers
  // One consumer: the classic workers+1 cap.
  EXPECT_EQ(pool.fair_share(64, 1), 8u);
  EXPECT_EQ(pool.fair_share(3, 1), 3u);  // request below supply: unchanged
  // N consumers split (workers + N) evenly, never below 1.
  EXPECT_EQ(pool.fair_share(64, 2), 4u);   // (7 + 2) / 2
  EXPECT_EQ(pool.fair_share(64, 4), 2u);   // (7 + 4) / 4
  EXPECT_EQ(pool.fair_share(64, 16), 1u);  // oversubscribed: floor of 1
  // consumers == 0 is treated as one consumer.
  EXPECT_EQ(pool.fair_share(64, 0), 8u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    std::vector<std::atomic<int>> hits(1001);
    for (auto& h : hits) h.store(0);
    parallel_for(
        0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ChunkedVariantCoversRangeWithDisjointChunks) {
  std::vector<std::atomic<int>> hits(777);
  for (auto& h : hits) h.store(0);
  std::atomic<int> chunks{0};
  parallel_for_chunked(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_LT(lo, hi);
        chunks.fetch_add(1);
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(chunks.load(), 1);
}

TEST(ThreadPool, ReusesPersistentWorkersAcrossCalls) {
  // Every thread that ever executes pool work comes from one fixed set:
  // the persistent workers plus the participating caller. So across any
  // number of runs, the union of observed ids is bounded by
  // pool size + 1. A spawn-per-call implementation produces fresh ids
  // on every call and blows past the bound after a few rounds.
  std::mutex m;
  std::set<std::thread::id> seen;
  for (int round = 0; round < 16; ++round)
    parallel_for(
        0, 256,
        [&](std::size_t) {
          const std::lock_guard<std::mutex> lock(m);
          seen.insert(std::this_thread::get_id());
        },
        0);
  EXPECT_LE(seen.size(),
            static_cast<std::size_t>(common::ThreadPool::global().size()) + 1);
}

TEST(ThreadPool, RethrowsFirstWorkerException) {
  EXPECT_THROW(
      parallel_for(
          0, 100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("worker boom");
          },
          4),
      std::runtime_error);

  // The pool must stay usable after a failed run.
  std::atomic<int> sum{0};
  parallel_for(
      0, 100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); }, 4);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, NestedSubmissionRunsInlineOnWorkers) {
  // A parallel_for issued from inside a pool worker must execute on that
  // same thread (inline), not re-enter the queue -- re-entering could
  // deadlock once all workers block on nested jobs.
  std::atomic<int> total{0};
  std::atomic<int> nested_off_thread{0};
  parallel_for(
      0, 16,
      [&](std::size_t) {
        const auto outer_id = std::this_thread::get_id();
        const bool on_worker = common::ThreadPool::on_worker_thread();
        parallel_for(
            0, 64,
            [&](std::size_t) {
              total.fetch_add(1);
              if (on_worker && std::this_thread::get_id() != outer_id)
                nested_off_thread.fetch_add(1);
            },
            4);
      },
      4);
  EXPECT_EQ(total.load(), 16 * 64);
  EXPECT_EQ(nested_off_thread.load(), 0);
}

TEST(ThreadPool, InlineWhenSingleThreaded) {
  // max_threads == 1 must run on the calling thread.
  const auto caller = std::this_thread::get_id();
  parallel_for(
      0, 32, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      1);
}

// ---- thread-count invariance of the batched APIs ---------------------------

exec::Evaluation make_eval(std::span<const double> theta,
                           std::span<const double> input) {
  return {theta, input, exec::Evaluation::kNoShift, 0.0};
}

TEST(ThreadInvariance, StatevectorRunBatchSampled) {
  const qml::QnnModel model = qml::make_mnist2_model();
  Prng rng(11);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.25);
  std::vector<exec::Evaluation> evals(12, make_eval(theta, input));

  auto run_with = [&](unsigned threads) {
    backend::StatevectorBackend qc(/*shots=*/256, /*seed=*/42);
    return qc.run_batch(model.plan(), evals, threads);
  };
  const auto seq = run_with(1);
  EXPECT_EQ(seq, run_with(3));
  EXPECT_EQ(seq, run_with(0));
}

TEST(ThreadInvariance, NoisyRunBatch) {
  const qml::QnnModel model = qml::make_mnist2_model();
  Prng rng(12);
  const auto theta = model.init_params(rng);
  const std::vector<double> input(16, 0.25);
  std::vector<exec::Evaluation> evals(6, make_eval(theta, input));

  backend::NoisyBackendOptions opt;
  opt.shots = 64;
  auto run_with = [&](unsigned threads) {
    backend::NoisyBackend qc(noise::DeviceModel::ibmq_santiago(), opt);
    return qc.run_batch(model.plan(), evals, threads);
  };
  const auto seq = run_with(1);
  EXPECT_EQ(seq, run_with(4));
  EXPECT_EQ(seq, run_with(0));
}

TEST(ThreadInvariance, StatevectorExpectBatchSampled) {
  const vqe::Hamiltonian h = vqe::Hamiltonian::heisenberg(3, 1.0);
  const auto obs = vqe::compile_observable(h);
  const auto ansatz = vqe::VqeSolver::hardware_efficient_ansatz(3, 2);
  const auto plan = exec::CompiledCircuit::compile(ansatz);
  Prng rng(13);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  std::vector<exec::Evaluation> evals(9, make_eval(theta, {}));

  auto run_with = [&](unsigned threads) {
    backend::StatevectorBackend qc(/*shots=*/128, /*seed=*/7);
    return qc.expect_batch(plan, obs, evals, threads);
  };
  const auto seq = run_with(1);
  EXPECT_EQ(seq, run_with(4));
  EXPECT_EQ(seq, run_with(0));
}

TEST(ThreadInvariance, NoisyExpectBatch) {
  const vqe::Hamiltonian h = vqe::Hamiltonian::h2_minimal();
  const auto obs = vqe::compile_observable(h);
  const auto ansatz = vqe::VqeSolver::hardware_efficient_ansatz(2, 1);
  const auto plan = exec::CompiledCircuit::compile(ansatz);
  Prng rng(14);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  std::vector<exec::Evaluation> evals(5, make_eval(theta, {}));

  backend::NoisyBackendOptions opt;
  opt.shots = 64;
  auto run_with = [&](unsigned threads) {
    backend::NoisyBackend qc(noise::DeviceModel::ibmq_santiago(), opt);
    return qc.expect_batch(plan, obs, evals, threads);
  };
  const auto seq = run_with(1);
  EXPECT_EQ(seq, run_with(4));
  EXPECT_EQ(seq, run_with(0));
}

TEST(ThreadInvariance, VqeSolverHistoryMatchesAcrossThreadCounts) {
  const vqe::Hamiltonian h = vqe::Hamiltonian::h2_minimal();
  auto run_with = [&](unsigned threads) {
    vqe::EstimatorOptions opt;
    opt.shots = 64;
    opt.seed = 5;
    vqe::VqeConfig cfg;
    cfg.steps = 6;
    cfg.seed = 3;
    cfg.threads = threads;
    vqe::VqeSolver solver(vqe::EnergyEstimator(h, opt),
                          vqe::VqeSolver::hardware_efficient_ansatz(2, 1),
                          cfg);
    return solver.run();
  };
  const auto a = run_with(1);
  const auto b = run_with(4);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i)
    EXPECT_EQ(a.history[i].energy, b.history[i].energy);
  EXPECT_EQ(a.theta, b.theta);
}

}  // namespace
