// Tests for the sharded execution substrate under qoc::serve: a
// ServeSession fronting a serve::BackendPool of N replicas. Covers
// bitwise equivalence of sharded vs single-backend sessions (run +
// expect, deterministic and stochastic backends), invariance to replica
// count and routing, structure-affinity routing on heterogeneous pools,
// in-flight duplicate folding (fan-out, inference accounting, and its
// hard OFF on stochastic replicas), admission control (shed and block
// policies), clean shutdown draining every lane, per-replica metrics,
// and pool construction validation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/serve/serve.hpp"
#include "qoc/vqe/hamiltonian.hpp"
#include "qoc/vqe/vqe.hpp"

namespace {

using namespace qoc;
using namespace std::chrono_literals;

circuit::Circuit make_qnn(int n_qubits, int n_features, int layers) {
  circuit::Circuit c(n_qubits);
  circuit::add_rotation_encoder(c, n_features);
  for (int l = 0; l < layers; ++l) {
    circuit::add_rzz_ring_layer(c);
    circuit::add_ry_layer(c);
  }
  return c;
}

std::vector<double> make_theta(int n, unsigned client, unsigned job) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] =
        0.1 * static_cast<double>(i + 1) + 0.37 * static_cast<double>(client) +
        0.011 * static_cast<double>(job);
  return v;
}

std::vector<double> make_input(int n, unsigned client, unsigned job) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] =
        0.05 * static_cast<double>(i) - 0.2 * static_cast<double>(client) +
        0.007 * static_cast<double>(job);
  return v;
}

serve::ServeOptions fast_options() {
  serve::ServeOptions opt;
  opt.max_batch = 64;
  opt.max_delay = 500us;
  return opt;
}

/// Deterministic backend whose execute_batch blocks on a gate until the
/// test opens it, and signals each entry. Lets tests freeze a drain
/// lane mid-execution, making routing and admission decisions
/// deterministic instead of racing the dispatcher. Delegates the actual
/// math to an exact StatevectorBackend. Deliberately does NOT override
/// clone_replica(), so it doubles as the "cannot replicate" case.
class GateBackend final : public backend::Backend {
 public:
  std::string name() const override { return "gate"; }
  bool deterministic() const override { return true; }

  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Block until `n` execute_batch calls have entered (not completed).
  void wait_for_batches(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entries_ >= n; });
  }

 protected:
  std::vector<std::vector<double>> execute_batch(
      const exec::CompiledCircuit& plan,
      std::span<const exec::Evaluation> evals, unsigned threads) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entries_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return inner_.run_batch(plan, evals, threads);
  }

 private:
  backend::StatevectorBackend inner_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::size_t entries_ = 0;
};

// ---------------------------------------------------------------------------
// Bitwise equivalence + replica-count / routing invariance
// ---------------------------------------------------------------------------

// The acceptance line of the sharding refactor: a sharded session's
// results are bit-identical to the single-backend session and to a
// direct run_batch, for every replica count, because routing can never
// change what a job computes (exact backends) or which PRNG stream it
// draws from (pinned at submission).
TEST(ServeSharded, ExactResultsInvariantToReplicaCount) {
  const auto qnn_a = make_qnn(4, 6, 2);
  const auto qnn_b = make_qnn(4, 6, 3);  // second structure: forces routing
  const auto plan_a = exec::CompiledCircuit::compile(qnn_a);
  constexpr unsigned kJobs = 10;

  auto run_workload = [&](std::size_t replicas) {
    backend::StatevectorBackend primary(0);
    serve::ServeSession session(serve::BackendPool(primary, replicas),
                                fast_options());
    const auto ha = session.register_circuit(qnn_a);
    const auto hb = session.register_circuit(qnn_b);
    auto client = session.client();
    std::vector<std::future<std::vector<double>>> futures;
    for (unsigned k = 0; k < kJobs; ++k) {
      futures.push_back(client.submit(ha, make_theta(qnn_a.num_trainable(), 0, k),
                                      make_input(qnn_a.num_inputs(), 0, k)));
      futures.push_back(client.submit(hb, make_theta(qnn_b.num_trainable(), 1, k),
                                      make_input(qnn_b.num_inputs(), 1, k)));
    }
    std::vector<std::vector<double>> results;
    for (auto& f : futures) results.push_back(f.get());
    return results;
  };

  const auto single = run_workload(1);
  EXPECT_EQ(single, run_workload(2));
  EXPECT_EQ(single, run_workload(4));

  // ... and all of them match the direct batch.
  backend::StatevectorBackend direct(0);
  std::vector<std::vector<double>> thetas, inputs;
  std::vector<exec::Evaluation> evals;
  for (unsigned k = 0; k < kJobs; ++k) {
    thetas.push_back(make_theta(qnn_a.num_trainable(), 0, k));
    inputs.push_back(make_input(qnn_a.num_inputs(), 0, k));
    evals.push_back({thetas.back(), inputs.back(), exec::Evaluation::kNoShift,
                     0.0});
  }
  const auto expected = direct.run_batch(plan_a, evals);
  for (unsigned k = 0; k < kJobs; ++k)
    EXPECT_EQ(single[2 * k], expected[k]) << "job " << k;
}

// Stochastic replicas: clones share the primary's seed and the stream
// is pinned at submission, so WHERE a job runs never changes its draws.
TEST(ServeSharded, NoisyRunAndExpectMatchSingleBackendBitwise) {
  const auto qnn = make_qnn(3, 4, 1);
  const auto plan = exec::CompiledCircuit::compile(qnn);
  const vqe::Hamiltonian h = vqe::Hamiltonian::heisenberg(3, 1.0);
  const auto obs = vqe::compile_observable(h);
  backend::NoisyBackendOptions nopt;
  nopt.shots = 64;
  constexpr unsigned kJobs = 6;

  auto run_workload = [&](std::size_t replicas) {
    backend::NoisyBackend primary(noise::DeviceModel::ibmq_santiago(), nopt);
    serve::ServeSession session(serve::BackendPool(primary, replicas),
                                fast_options());
    const auto handle = session.register_circuit(qnn);
    const auto obs_handle = session.register_observable(obs);
    auto client = session.client();
    std::vector<std::future<std::vector<double>>> run_futures;
    std::vector<std::future<double>> expect_futures;
    for (unsigned k = 0; k < kJobs; ++k) {
      run_futures.push_back(client.submit(handle,
                                          make_theta(qnn.num_trainable(), 0, k),
                                          make_input(qnn.num_inputs(), 0, k)));
      expect_futures.push_back(client.submit_expect(
          handle, obs_handle, make_theta(qnn.num_trainable(), 0, kJobs + k),
          make_input(qnn.num_inputs(), 0, kJobs + k)));
    }
    std::pair<std::vector<std::vector<double>>, std::vector<double>> out;
    for (auto& f : run_futures) out.first.push_back(f.get());
    for (auto& f : expect_futures) out.second.push_back(f.get());
    return out;
  };

  const auto single = run_workload(1);
  const auto sharded = run_workload(3);
  EXPECT_EQ(single.first, sharded.first);
  EXPECT_EQ(single.second, sharded.second);

  // Both equal a direct streamed batch on a fresh backend.
  backend::NoisyBackend direct(noise::DeviceModel::ibmq_santiago(), nopt);
  std::vector<std::vector<double>> thetas, inputs;
  std::vector<exec::Evaluation> evals;
  for (unsigned k = 0; k < kJobs; ++k) {
    thetas.push_back(make_theta(qnn.num_trainable(), 0, k));
    inputs.push_back(make_input(qnn.num_inputs(), 0, k));
    // Interleaved submission above: run job k was the client's 2k-th
    // submission, expect job k the (2k+1)-th.
    evals.push_back({thetas.back(), inputs.back(), exec::Evaluation::kNoShift,
                     0.0, serve::ServeSession::client_stream(0, 2 * k)});
  }
  EXPECT_EQ(single.first, direct.run_batch(plan, evals));
}

TEST(ServeSharded, DensityMatrixPoolMatchesSingleBackend) {
  const auto qnn = make_qnn(3, 4, 1);
  constexpr unsigned kJobs = 3;
  auto run_workload = [&](std::size_t replicas) {
    backend::DensityMatrixBackend primary(noise::DeviceModel::ibmq_santiago());
    serve::ServeSession session(serve::BackendPool(primary, replicas),
                                fast_options());
    const auto handle = session.register_circuit(qnn);
    auto client = session.client();
    std::vector<std::future<std::vector<double>>> futures;
    for (unsigned k = 0; k < kJobs; ++k)
      futures.push_back(client.submit(handle,
                                      make_theta(qnn.num_trainable(), 0, k),
                                      make_input(qnn.num_inputs(), 0, k)));
    std::vector<std::vector<double>> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  EXPECT_EQ(run_workload(1), run_workload(2));
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

// Heterogeneous pool of two gated backends: the first structure lands
// on replica 0 (idle tie -> lowest index), the second must go to
// replica 1 because replica 0 is verifiably mid-execution, and repeat
// traffic for each structure sticks to its replica (affinity) even when
// the other lane is idle.
TEST(ServeSharded, HeterogeneousPoolRoutesByAffinityThenLeastWork) {
  GateBackend g0, g1;
  serve::ServeOptions opt;
  opt.max_batch = 1;      // every submission flushes immediately
  opt.max_delay = 10s;
  serve::ServeSession session(
      serve::BackendPool(std::vector<backend::Backend*>{&g0, &g1}), opt);
  const auto qnn_a = make_qnn(3, 4, 1);
  const auto qnn_b = make_qnn(3, 4, 2);
  const auto ha = session.register_circuit(qnn_a);
  const auto hb = session.register_circuit(qnn_b);
  auto client = session.client();

  auto fa0 = client.submit(ha, make_theta(qnn_a.num_trainable(), 0, 0),
                           make_input(qnn_a.num_inputs(), 0, 0));
  g0.wait_for_batches(1);  // structure A is executing on replica 0
  auto fb0 = client.submit(hb, make_theta(qnn_b.num_trainable(), 0, 1),
                           make_input(qnn_b.num_inputs(), 0, 1));
  g1.wait_for_batches(1);  // structure B had to go to replica 1
  // Affinity: repeats route back to their replica, idle or not.
  auto fa1 = client.submit(ha, make_theta(qnn_a.num_trainable(), 0, 2),
                           make_input(qnn_a.num_inputs(), 0, 2));
  auto fb1 = client.submit(hb, make_theta(qnn_b.num_trainable(), 0, 3),
                           make_input(qnn_b.num_inputs(), 0, 3));
  g0.open();
  g1.open();
  for (auto* f : {&fa0, &fa1}) EXPECT_EQ(f->get().size(), 3u);
  for (auto* f : {&fb0, &fb1}) EXPECT_EQ(f->get().size(), 3u);

  EXPECT_EQ(g0.inference_count(), 2u);  // both A jobs
  EXPECT_EQ(g1.inference_count(), 2u);  // both B jobs
  const auto m = session.metrics();
  ASSERT_EQ(m.replicas.size(), 2u);
  EXPECT_EQ(m.replicas[0].assigned_structures, 1u);
  EXPECT_EQ(m.replicas[1].assigned_structures, 1u);
  EXPECT_EQ(m.replicas[0].affinity_routes, 1u);
  EXPECT_EQ(m.replicas[1].affinity_routes, 1u);
  EXPECT_EQ(m.replicas[0].batches, 2u);
  EXPECT_EQ(m.replicas[1].batches, 2u);
  EXPECT_EQ(m.batches, 4u);
  EXPECT_EQ(session.pool().total_inference_count(), 4u);
}

// ---------------------------------------------------------------------------
// In-flight duplicate folding
// ---------------------------------------------------------------------------

TEST(ServeSharded, DuplicateFoldingExecutesOncePerBatchAndFansOut) {
  const auto qnn = make_qnn(3, 4, 1);
  backend::StatevectorBackend backend(0);
  serve::ServeOptions opt;
  constexpr unsigned kJobs = 8;
  opt.max_batch = kJobs;  // exactly one size-flushed batch
  opt.max_delay = 10s;
  opt.result_cache_capacity = 0;  // isolate folding from the cache
  serve::ServeSession session(backend, opt);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  const auto theta = make_theta(qnn.num_trainable(), 0, 0);
  const auto input = make_input(qnn.num_inputs(), 0, 0);
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < kJobs; ++k)
    futures.push_back(client.submit(handle, theta, input));

  backend::StatevectorBackend direct(0);
  const auto expected = direct.run(qnn, theta, input);
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);

  // One execution served all eight futures; folded duplicates count
  // cache-style (completed, folded_jobs) and never as inferences.
  EXPECT_EQ(backend.inference_count(), 1u);
  const auto m = session.metrics();
  EXPECT_EQ(m.completed, kJobs);
  EXPECT_EQ(m.folded_jobs, kJobs - 1);
  EXPECT_EQ(m.coalesced_jobs, kJobs);
  ASSERT_EQ(m.replicas.size(), 1u);
  EXPECT_EQ(m.replicas[0].coalesced_jobs, kJobs);
  EXPECT_EQ(m.replicas[0].executed_jobs, 1u);
}

TEST(ServeSharded, FoldingMixedBatchExecutesOncePerDistinctBinding) {
  const auto qnn = make_qnn(3, 4, 1);
  backend::StatevectorBackend backend(0);
  serve::ServeOptions opt;
  opt.max_batch = 6;
  opt.max_delay = 10s;
  serve::ServeSession session(backend, opt);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  // Three distinct bindings, each submitted twice into one batch.
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < 3; ++k) {
    const auto theta = make_theta(qnn.num_trainable(), 0, k);
    const auto input = make_input(qnn.num_inputs(), 0, k);
    futures.push_back(client.submit(handle, theta, input));
    futures.push_back(client.submit(handle, theta, input));
  }
  for (unsigned k = 0; k < 3; ++k) {
    const auto a = futures[2 * k].get();
    EXPECT_EQ(a, futures[2 * k + 1].get()) << "binding " << k;
  }
  EXPECT_EQ(backend.inference_count(), 3u);
  EXPECT_EQ(session.metrics().folded_jobs, 3u);
}

// Folding on a stochastic backend would silently collapse distinct
// pinned PRNG streams into one draw. It must never happen, no matter
// what fold_duplicates says.
TEST(ServeSharded, FoldingNeverActivatesOnStochasticReplicas) {
  const auto qnn = make_qnn(3, 4, 1);
  const auto plan = exec::CompiledCircuit::compile(qnn);
  backend::StatevectorBackend backend(/*shots=*/64, /*seed=*/7);
  backend::StatevectorBackend direct(/*shots=*/64, /*seed=*/7);
  serve::ServeOptions opt;
  constexpr unsigned kJobs = 4;
  opt.max_batch = kJobs;
  opt.max_delay = 10s;
  opt.fold_duplicates = true;
  serve::ServeSession session(backend, opt);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  const auto theta = make_theta(qnn.num_trainable(), 0, 0);
  const auto input = make_input(qnn.num_inputs(), 0, 0);
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < kJobs; ++k)
    futures.push_back(client.submit(handle, theta, input));

  // Every job executes with its own stream -- identical bindings,
  // distinct sampled results.
  std::vector<exec::Evaluation> evals;
  for (unsigned k = 0; k < kJobs; ++k)
    evals.push_back({theta, input, exec::Evaluation::kNoShift, 0.0,
                     serve::ServeSession::client_stream(0, k)});
  const auto expected = direct.run_batch(plan, evals);
  for (unsigned k = 0; k < kJobs; ++k)
    EXPECT_EQ(futures[k].get(), expected[k]) << "job " << k;
  EXPECT_EQ(backend.inference_count(), kJobs);
  EXPECT_EQ(session.metrics().folded_jobs, 0u);
}

TEST(ServeSharded, FoldingDisabledByOption) {
  const auto qnn = make_qnn(3, 4, 1);
  backend::StatevectorBackend backend(0);
  serve::ServeOptions opt;
  opt.max_batch = 4;
  opt.max_delay = 10s;
  opt.fold_duplicates = false;
  serve::ServeSession session(backend, opt);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();
  const auto theta = make_theta(qnn.num_trainable(), 0, 0);
  const auto input = make_input(qnn.num_inputs(), 0, 0);
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < 4; ++k)
    futures.push_back(client.submit(handle, theta, input));
  for (auto& f : futures) (void)f.get();
  EXPECT_EQ(backend.inference_count(), 4u);
  EXPECT_EQ(session.metrics().folded_jobs, 0u);
}

// ---------------------------------------------------------------------------
// Admission control / backpressure
// ---------------------------------------------------------------------------

TEST(ServeSharded, ShedPolicyFailsOverflowFutureWithQueueFullError) {
  GateBackend gate;
  serve::ServeOptions opt;
  opt.max_batch = 1;
  opt.max_delay = 1ms;
  opt.max_queue = 3;
  opt.overload = serve::OverloadPolicy::Shed;
  serve::ServeSession session(gate, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  std::vector<std::future<std::vector<double>>> admitted;
  admitted.push_back(client.submit(handle,
                                   make_theta(qnn.num_trainable(), 0, 0),
                                   make_input(qnn.num_inputs(), 0, 0)));
  gate.wait_for_batches(1);  // job 0 occupies the lane until opened
  for (unsigned k = 1; k < 3; ++k)
    admitted.push_back(client.submit(handle,
                                     make_theta(qnn.num_trainable(), 0, k),
                                     make_input(qnn.num_inputs(), 0, k)));

  // in_flight == max_queue == 3 and nothing can complete: job 3 sheds.
  auto shed = client.submit(handle, make_theta(qnn.num_trainable(), 0, 3),
                            make_input(qnn.num_inputs(), 0, 3));
  EXPECT_THROW(shed.get(), serve::QueueFullError);
  {
    const auto m = session.metrics();
    EXPECT_EQ(m.shed_jobs, 1u);
    EXPECT_EQ(m.submitted, 3u);  // shed jobs were never admitted
  }

  gate.open();
  for (auto& f : admitted) EXPECT_EQ(f.get().size(), 3u);
  const auto m = session.metrics();
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.failed, 0u);  // shed is a distinct signal, not a failure
}

TEST(ServeSharded, BlockPolicyWaitsForCapacityThenAdmits) {
  GateBackend gate;
  serve::ServeOptions opt;
  opt.max_batch = 1;
  opt.max_delay = 1ms;
  opt.max_queue = 2;
  opt.overload = serve::OverloadPolicy::Block;
  serve::ServeSession session(gate, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();
  auto blocked_client = session.client();

  auto f0 = client.submit(handle, make_theta(qnn.num_trainable(), 0, 0),
                          make_input(qnn.num_inputs(), 0, 0));
  gate.wait_for_batches(1);
  auto f1 = client.submit(handle, make_theta(qnn.num_trainable(), 0, 1),
                          make_input(qnn.num_inputs(), 0, 1));

  // At the bound. A third submit must block until capacity frees, which
  // can only happen once the gate opens (in_flight frees at completion).
  std::atomic<bool> returned{false};
  std::future<std::vector<double>> f2;
  std::thread submitter([&] {
    f2 = blocked_client.submit(handle, make_theta(qnn.num_trainable(), 1, 0),
                               make_input(qnn.num_inputs(), 1, 0));
    returned.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(returned.load());  // deterministic: no completion possible yet

  gate.open();
  submitter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(f0.get().size(), 3u);
  EXPECT_EQ(f1.get().size(), 3u);
  EXPECT_EQ(f2.get().size(), 3u);
  EXPECT_EQ(session.metrics().shed_jobs, 0u);
}

// max_queue == 0 is the documented "unbounded" sentinel, not a
// zero-capacity queue: nothing ever sheds or blocks, whatever the
// backlog.
TEST(ServeSharded, MaxQueueZeroIsUnboundedNotZeroCapacity) {
  GateBackend gate;
  serve::ServeOptions opt;
  opt.max_batch = 1;
  opt.max_delay = 1ms;
  opt.max_queue = 0;
  opt.overload = serve::OverloadPolicy::Shed;
  serve::ServeSession session(gate, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  constexpr unsigned kJobs = 8;
  std::vector<std::future<std::vector<double>>> futures;
  futures.push_back(client.submit(handle, make_theta(qnn.num_trainable(), 0, 0),
                                  make_input(qnn.num_inputs(), 0, 0)));
  gate.wait_for_batches(1);  // lane busy: everything below is pure backlog
  for (unsigned k = 1; k < kJobs; ++k)
    futures.push_back(client.submit(handle,
                                    make_theta(qnn.num_trainable(), 0, k),
                                    make_input(qnn.num_inputs(), 0, k)));

  gate.open();
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 3u);
  const auto m = session.metrics();
  EXPECT_EQ(m.shed_jobs, 0u);
  EXPECT_EQ(m.submitted, kJobs);
  EXPECT_EQ(m.completed, kJobs);
}

// The tightest real bound: max_queue == 1 admits exactly the one
// executing job; every concurrent submit sheds, and capacity reopens
// the moment the slot's future is fulfilled.
TEST(ServeSharded, MaxQueueOneShedsEverythingBeyondTheSingleSlot) {
  GateBackend gate;
  serve::ServeOptions opt;
  opt.max_batch = 1;
  opt.max_delay = 1ms;
  opt.max_queue = 1;
  opt.overload = serve::OverloadPolicy::Shed;
  serve::ServeSession session(gate, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  auto f0 = client.submit(handle, make_theta(qnn.num_trainable(), 0, 0),
                          make_input(qnn.num_inputs(), 0, 0));
  gate.wait_for_batches(1);  // the slot is verifiably occupied
  for (unsigned k = 1; k <= 2; ++k) {
    auto shed = client.submit(handle, make_theta(qnn.num_trainable(), 0, k),
                              make_input(qnn.num_inputs(), 0, k));
    EXPECT_THROW(shed.get(), serve::QueueFullError) << "job " << k;
  }
  {
    const auto m = session.metrics();
    EXPECT_EQ(m.shed_jobs, 2u);
    EXPECT_EQ(m.submitted, 1u);
  }

  gate.open();
  EXPECT_EQ(f0.get().size(), 3u);  // in_flight freed before fulfilment
  auto f3 = client.submit(handle, make_theta(qnn.num_trainable(), 0, 3),
                          make_input(qnn.num_inputs(), 0, 3));
  EXPECT_EQ(f3.get().size(), 3u);
  const auto m = session.metrics();
  EXPECT_EQ(m.shed_jobs, 2u);
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.failed, 0u);
}

// Shutdown must wake a Block submitter parked on the capacity condition
// and reject its job with the post-shutdown typed error -- never leave
// it blocked, never admit into a stopping session.
TEST(ServeSharded, ShutdownReleasesBlockedSubmitter) {
  GateBackend gate;
  serve::ServeOptions opt;
  opt.max_batch = 1;
  opt.max_delay = 1ms;
  opt.max_queue = 1;
  opt.overload = serve::OverloadPolicy::Block;
  serve::ServeSession session(gate, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();
  auto blocked_client = session.client();

  auto f0 = client.submit(handle, make_theta(qnn.num_trainable(), 0, 0),
                          make_input(qnn.num_inputs(), 0, 0));
  gate.wait_for_batches(1);  // the only slot is occupied and frozen

  std::atomic<bool> threw{false};
  std::atomic<bool> returned{false};
  std::thread submitter([&] {
    try {
      (void)blocked_client.submit(handle,
                                  make_theta(qnn.num_trainable(), 1, 0),
                                  make_input(qnn.num_inputs(), 1, 0));
    } catch (const std::runtime_error&) {
      threw.store(true);
    }
    returned.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(returned.load());  // genuinely parked on capacity

  // shutdown() flips stop and notifies space_cv before joining the
  // lanes, so the waiter is released even though the lane is still
  // frozen on the gate.
  std::thread closer([&] { session.shutdown(); });
  submitter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(threw.load());

  gate.open();  // let shutdown's drain finish
  closer.join();
  ASSERT_EQ(f0.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(f0.get().size(), 3u);
  const auto m = session.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.shed_jobs, 0u);
}

// Shed with the backlog full of foldable duplicates: admission control
// counts JOBS, not distinct evaluations, so duplicates fill the queue
// and shed the overflow -- while the drain still folds the admitted
// ones into a single execution. The shed/folded counters must describe
// disjoint populations.
TEST(ServeSharded, ShedUnderFullQueueOfFoldedDuplicates) {
  GateBackend gate;  // deterministic: folding stays eligible
  serve::ServeOptions opt;
  opt.max_batch = 4;
  opt.max_delay = 1ms;
  opt.max_queue = 3;
  opt.overload = serve::OverloadPolicy::Shed;
  serve::ServeSession session(gate, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  auto f0 = client.submit(handle, make_theta(qnn.num_trainable(), 0, 0),
                          make_input(qnn.num_inputs(), 0, 0));
  gate.wait_for_batches(1);  // in_flight == 1, lane frozen

  // Two identical-binding duplicates fill the remaining capacity...
  const auto dup_theta = make_theta(qnn.num_trainable(), 0, 9);
  const auto dup_input = make_input(qnn.num_inputs(), 0, 9);
  auto f1 = client.submit(handle, dup_theta, dup_input);
  auto f2 = client.submit(handle, dup_theta, dup_input);
  // ... so a third duplicate sheds even though, post-fold, it would
  // have cost nothing to execute: the admission bound is on jobs.
  auto f3 = client.submit(handle, dup_theta, dup_input);
  EXPECT_THROW(f3.get(), serve::QueueFullError);

  gate.open();
  EXPECT_EQ(f0.get().size(), 3u);
  const auto r1 = f1.get();
  EXPECT_EQ(r1, f2.get());  // folded fan-out: identical results

  backend::StatevectorBackend direct(0);
  EXPECT_EQ(r1, direct.run(qnn, dup_theta, dup_input));

  const auto m = session.metrics();
  EXPECT_EQ(m.submitted, 3u);      // shed job was never admitted
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.shed_jobs, 1u);
  EXPECT_EQ(m.folded_jobs, 1u);    // one duplicate folded onto its leader
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(gate.inference_count(), 2u);  // job 0 + one folded execution
}

// ---------------------------------------------------------------------------
// Shutdown, metrics, construction
// ---------------------------------------------------------------------------

TEST(ServeSharded, ShutdownDrainsEveryLane) {
  const auto qnn_a = make_qnn(3, 4, 1);
  const auto qnn_b = make_qnn(3, 4, 2);
  const auto qnn_c = make_qnn(3, 4, 3);
  backend::StatevectorBackend primary(0);
  serve::ServeOptions opt;
  opt.max_batch = 1u << 20;
  opt.max_delay = 10s;  // jobs can only complete through shutdown's drain
  serve::ServeSession session(serve::BackendPool(primary, 3), opt);
  const auto ha = session.register_circuit(qnn_a);
  const auto hb = session.register_circuit(qnn_b);
  const auto hc = session.register_circuit(qnn_c);
  auto client = session.client();

  constexpr unsigned kJobs = 8;
  const std::vector<std::pair<const circuit::Circuit*,
                              const serve::CircuitHandle*>>
      structures{{&qnn_a, &ha}, {&qnn_b, &hb}, {&qnn_c, &hc}};
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < kJobs; ++k)
    for (const auto& [c, h] : structures)
      futures.push_back(client.submit(*h, make_theta(c->num_trainable(), 0, k),
                                      make_input(c->num_inputs(), 0, k)));

  session.shutdown();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready)
        << "job abandoned by shutdown";
    EXPECT_EQ(f.get().size(), 3u);
  }
  EXPECT_EQ(session.pool().total_inference_count(), 3 * kJobs);
  EXPECT_THROW(client.submit(ha, make_theta(qnn_a.num_trainable(), 0, 0),
                             make_input(qnn_a.num_inputs(), 0, 0)),
               std::runtime_error);
}

// Per-replica metrics make a cold replica visible: single-structure
// traffic on a two-replica pool drains entirely through the structure's
// affinity lane, and the snapshot shows exactly that instead of
// averaging occupancy across both.
TEST(ServeSharded, PerReplicaMetricsExposeColdReplica) {
  const auto qnn = make_qnn(3, 4, 1);
  backend::StatevectorBackend primary(0);
  serve::ServeOptions opt;
  opt.max_batch = 4;
  opt.max_delay = 10s;
  serve::ServeSession session(serve::BackendPool(primary, 2), opt);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  for (unsigned round = 0; round < 2; ++round) {
    std::vector<std::future<std::vector<double>>> futures;
    for (unsigned k = 0; k < 4; ++k)
      futures.push_back(
          client.submit(handle, make_theta(qnn.num_trainable(), 0, round),
                        make_input(qnn.num_inputs(), 0, k)));
    for (auto& f : futures) (void)f.get();
  }

  const auto m = session.metrics();
  ASSERT_EQ(m.replicas.size(), 2u);
  EXPECT_EQ(m.batches, 2u);
  EXPECT_EQ(m.replicas[0].batches, 2u);  // idle tie-break: lowest index
  EXPECT_EQ(m.replicas[0].assigned_structures, 1u);
  EXPECT_EQ(m.replicas[0].affinity_routes, 1u);
  EXPECT_EQ(m.replicas[0].size_flushes, 2u);
  EXPECT_DOUBLE_EQ(m.replicas[0].mean_batch_occupancy, 4.0);
  EXPECT_EQ(m.replicas[1].batches, 0u);  // the cold replica is visible
  EXPECT_DOUBLE_EQ(m.replicas[1].mean_batch_occupancy, 0.0);
  EXPECT_EQ(m.replicas[0].backend_name, "statevector");
  // Aggregates are the sums of the slices.
  EXPECT_EQ(m.size_flushes,
            m.replicas[0].size_flushes + m.replicas[1].size_flushes);
  EXPECT_EQ(m.coalesced_jobs,
            m.replicas[0].coalesced_jobs + m.replicas[1].coalesced_jobs);
}

TEST(ServeSharded, PoolConstructionValidation) {
  backend::StatevectorBackend sv(0);
  EXPECT_THROW(serve::BackendPool(sv, 0), std::invalid_argument);
  EXPECT_THROW(serve::BackendPool(std::vector<backend::Backend*>{}),
               std::invalid_argument);
  EXPECT_THROW(serve::BackendPool(std::vector<backend::Backend*>{nullptr}),
               std::invalid_argument);
  // GateBackend keeps the default clone_replica() == nullptr: cloning
  // pools must reject it instead of silently sharding onto nothing.
  GateBackend gate;
  EXPECT_THROW(serve::BackendPool(gate, 2), std::invalid_argument);
  EXPECT_NO_THROW(serve::BackendPool(gate, 1));  // a pool of one never clones
  EXPECT_THROW(serve::ServeSession(serve::BackendPool{}, fast_options()),
               std::invalid_argument);

  serve::BackendPool pool(sv, 3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_TRUE(pool.deterministic());
  EXPECT_EQ(&pool.replica(0), &sv);  // primary stays caller-owned
  backend::StatevectorBackend sampled(64);
  serve::BackendPool mixed(std::vector<backend::Backend*>{&sv, &sampled});
  EXPECT_FALSE(mixed.deterministic());

  // The single-backend session is a pool of one fronting the caller's
  // backend -- the source-compatible PR 4 surface.
  serve::ServeSession session(sv, fast_options());
  EXPECT_EQ(session.pool().size(), 1u);
  EXPECT_EQ(&session.backend(), &sv);
}

}  // namespace
