// Tests for the qoc::serve subsystem: bitwise equivalence of served
// results vs direct run_batch / expect_batch (exact and stochastic),
// invariance to client thread count and submission interleaving, the
// registry's compile-once dedup, deadline and size flushes, result-cache
// hits and LRU expiry, inference accounting, and clean shutdown with
// in-flight jobs.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
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

/// Small QNN-shaped circuit: rotation encoder + (RZZ ring + RY) layers.
circuit::Circuit make_qnn(int n_qubits, int n_features, int layers) {
  circuit::Circuit c(n_qubits);
  circuit::add_rotation_encoder(c, n_features);
  for (int l = 0; l < layers; ++l) {
    circuit::add_rzz_ring_layer(c);
    circuit::add_ry_layer(c);
  }
  return c;
}

/// Deterministic per-(client, job) bindings so every test and thread
/// regenerates identical submissions.
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

TEST(Serve, ExactResultsMatchDirectRunBatchBitwise) {
  const auto qnn = make_qnn(4, 6, 2);
  backend::StatevectorBackend served_backend(0);
  backend::StatevectorBackend direct_backend(0);
  const auto plan = exec::CompiledCircuit::compile(qnn);

  serve::ServeSession session(served_backend, fast_options());
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  constexpr unsigned kJobs = 12;
  std::vector<std::vector<double>> thetas, inputs;
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < kJobs; ++k) {
    thetas.push_back(make_theta(qnn.num_trainable(), 0, k));
    inputs.push_back(make_input(qnn.num_inputs(), 0, k));
    futures.push_back(client.submit(handle, thetas.back(), inputs.back()));
  }

  std::vector<exec::Evaluation> evals;
  for (unsigned k = 0; k < kJobs; ++k)
    evals.push_back({thetas[k], inputs[k], exec::Evaluation::kNoShift, 0.0});
  const auto expected = direct_backend.run_batch(plan, evals);

  for (unsigned k = 0; k < kJobs; ++k)
    EXPECT_EQ(futures[k].get(), expected[k]) << "job " << k;

  // Inference accounting: every served evaluation counted exactly once,
  // identically to the direct batch.
  EXPECT_EQ(served_backend.inference_count(), kJobs);
  EXPECT_EQ(direct_backend.inference_count(), kJobs);

  const auto m = session.metrics();
  EXPECT_EQ(m.submitted, kJobs);
  EXPECT_EQ(m.completed, kJobs);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.coalesced_jobs, kJobs);
  EXPECT_GE(m.batches, 1u);
}

TEST(Serve, NoisyResultsMatchStreamedDirectRunBatchBitwise) {
  const auto qnn = make_qnn(3, 4, 1);
  const auto plan = exec::CompiledCircuit::compile(qnn);
  backend::NoisyBackendOptions opt;
  opt.shots = 64;
  backend::NoisyBackend served_backend(noise::DeviceModel::ibmq_santiago(),
                                       opt);
  backend::NoisyBackend direct_backend(noise::DeviceModel::ibmq_santiago(),
                                       opt);

  serve::ServeSession session(served_backend, fast_options());
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();
  const std::uint32_t cid = client.id();

  constexpr unsigned kJobs = 6;
  std::vector<std::vector<double>> thetas, inputs;
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < kJobs; ++k) {
    thetas.push_back(make_theta(qnn.num_trainable(), cid, k));
    inputs.push_back(make_input(qnn.num_inputs(), cid, k));
    futures.push_back(client.submit(handle, thetas.back(), inputs.back()));
  }

  // The served stochastic stream is pinned at submission: job k of
  // client `cid` draws from client_stream(cid, k). A direct run_batch
  // carrying the same explicit streams reproduces it bit-for-bit,
  // regardless of how the coalescer happened to batch the jobs.
  std::vector<exec::Evaluation> evals;
  for (unsigned k = 0; k < kJobs; ++k)
    evals.push_back({thetas[k], inputs[k], exec::Evaluation::kNoShift, 0.0,
                     serve::ServeSession::client_stream(cid, k)});
  const auto expected = direct_backend.run_batch(plan, evals);

  for (unsigned k = 0; k < kJobs; ++k)
    EXPECT_EQ(futures[k].get(), expected[k]) << "job " << k;
  EXPECT_EQ(served_backend.inference_count(), kJobs);
}

TEST(Serve, SampledStatevectorMatchesStreamedDirectRunBatch) {
  const auto qnn = make_qnn(4, 4, 1);
  const auto plan = exec::CompiledCircuit::compile(qnn);
  backend::StatevectorBackend served_backend(/*shots=*/128, /*seed=*/99);
  backend::StatevectorBackend direct_backend(/*shots=*/128, /*seed=*/99);

  serve::ServeSession session(served_backend, fast_options());
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  constexpr unsigned kJobs = 5;
  std::vector<std::vector<double>> thetas, inputs;
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < kJobs; ++k) {
    thetas.push_back(make_theta(qnn.num_trainable(), client.id(), k));
    inputs.push_back(make_input(qnn.num_inputs(), client.id(), k));
    futures.push_back(client.submit(handle, thetas.back(), inputs.back()));
  }

  std::vector<exec::Evaluation> evals;
  for (unsigned k = 0; k < kJobs; ++k)
    evals.push_back({thetas[k], inputs[k], exec::Evaluation::kNoShift, 0.0,
                     serve::ServeSession::client_stream(client.id(), k)});
  const auto expected = direct_backend.run_batch(plan, evals);

  for (unsigned k = 0; k < kJobs; ++k)
    EXPECT_EQ(futures[k].get(), expected[k]) << "job " << k;
}

TEST(Serve, ExpectJobsMatchDirectExpectBatch) {
  const vqe::Hamiltonian h = vqe::Hamiltonian::heisenberg(3, 1.0);
  const auto ansatz = vqe::VqeSolver::hardware_efficient_ansatz(3, 2);
  const auto plan = exec::CompiledCircuit::compile(ansatz);
  const auto obs = vqe::compile_observable(h);

  // Exact path.
  {
    backend::StatevectorBackend served_backend(0);
    backend::StatevectorBackend direct_backend(0);
    serve::ServeSession session(served_backend, fast_options());
    const auto handle = session.register_circuit(ansatz);
    const auto obs_handle = session.register_observable(obs);
    auto client = session.client();

    std::vector<std::vector<double>> thetas;
    std::vector<std::future<double>> futures;
    for (unsigned k = 0; k < 7; ++k) {
      thetas.push_back(make_theta(ansatz.num_trainable(), 0, k));
      futures.push_back(client.submit_expect(handle, obs_handle,
                                             thetas.back()));
    }
    std::vector<exec::Evaluation> evals;
    for (const auto& t : thetas)
      evals.push_back({t, {}, exec::Evaluation::kNoShift, 0.0});
    const auto expected = direct_backend.expect_batch(plan, obs, evals);
    for (unsigned k = 0; k < 7; ++k)
      EXPECT_EQ(futures[k].get(), expected[k]) << "job " << k;
  }

  // Stochastic path: served expectation streams are pinned at
  // submission exactly like run jobs.
  {
    backend::NoisyBackendOptions opt;
      opt.shots = 64;
    backend::NoisyBackend served_backend(noise::DeviceModel::ibmq_santiago(),
                                         opt);
    backend::NoisyBackend direct_backend(noise::DeviceModel::ibmq_santiago(),
                                         opt);
    serve::ServeSession session(served_backend, fast_options());
    const auto handle = session.register_circuit(ansatz);
    const auto obs_handle = session.register_observable(obs);
    auto client = session.client();

    std::vector<std::vector<double>> thetas;
    std::vector<std::future<double>> futures;
    for (unsigned k = 0; k < 5; ++k) {
      thetas.push_back(make_theta(ansatz.num_trainable(), client.id(), k));
      futures.push_back(client.submit_expect(handle, obs_handle,
                                             thetas.back()));
    }
    std::vector<exec::Evaluation> evals;
    for (unsigned k = 0; k < 5; ++k)
      evals.push_back({thetas[k], {}, exec::Evaluation::kNoShift, 0.0,
                       serve::ServeSession::client_stream(client.id(), k)});
    const auto expected = direct_backend.expect_batch(plan, obs, evals);
    for (unsigned k = 0; k < 5; ++k)
      EXPECT_EQ(futures[k].get(), expected[k]) << "job " << k;
  }
}

// Served results must be a function of (client id, per-client sequence,
// bindings) only -- never of how client threads interleaved or how the
// coalescer grouped jobs. Run the same per-client workload twice, once
// from concurrent threads and once sequentially from one thread, on a
// stochastic backend (the hard case), and require bitwise equality.
TEST(Serve, ResultsInvariantToClientThreadingAndInterleaving) {
  const auto qnn = make_qnn(3, 4, 1);
  backend::NoisyBackendOptions opt;
  opt.shots = 64;
  constexpr unsigned kClients = 4;
  constexpr unsigned kJobs = 4;

  auto run_workload = [&](bool threaded) {
    backend::NoisyBackend backend(noise::DeviceModel::ibmq_santiago(), opt);
    serve::ServeSession session(backend, fast_options());
    const auto handle = session.register_circuit(qnn);
    // Clients minted in a fixed order -> deterministic ids 0..kClients-1.
    std::vector<serve::Client> clients;
    for (unsigned c = 0; c < kClients; ++c)
      clients.push_back(session.client());

    std::vector<std::vector<std::future<std::vector<double>>>> futures(
        kClients);
    auto submit_all = [&](unsigned c) {
      for (unsigned k = 0; k < kJobs; ++k)
        futures[c].push_back(clients[c].submit(
            handle, make_theta(qnn.num_trainable(), c, k),
            make_input(qnn.num_inputs(), c, k)));
    };
    if (threaded) {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < kClients; ++c)
        threads.emplace_back(submit_all, c);
      for (auto& t : threads) t.join();
    } else {
      for (unsigned c = 0; c < kClients; ++c) submit_all(c);
    }

    std::vector<std::vector<std::vector<double>>> results(kClients);
    for (unsigned c = 0; c < kClients; ++c)
      for (auto& f : futures[c]) results[c].push_back(f.get());
    return results;
  };

  const auto threaded = run_workload(true);
  const auto sequential = run_workload(false);
  for (unsigned c = 0; c < kClients; ++c)
    for (unsigned k = 0; k < kJobs; ++k)
      EXPECT_EQ(threaded[c][k], sequential[c][k])
          << "client " << c << " job " << k;
}

TEST(Serve, RegistryDedupsStructurallyIdenticalCircuits) {
  backend::StatevectorBackend backend(0);
  serve::ServeSession session(backend, fast_options());
  const auto qnn = make_qnn(3, 4, 1);
  const auto a = session.register_circuit(qnn);
  const auto b = session.register_circuit(make_qnn(3, 4, 1));
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(&a.plan(), &b.plan());  // one compile, shared by both handles

  const auto c = session.register_circuit(make_qnn(3, 4, 2));
  EXPECT_NE(a.id(), c.id());
}

TEST(Serve, RegistryDedupsIdenticalObservables) {
  backend::StatevectorBackend backend(0);
  serve::ServeSession session(backend, fast_options());
  const vqe::Hamiltonian h = vqe::Hamiltonian::heisenberg(3, 1.0);
  // Two clients registering the same Hamiltonian must share one id, or
  // their expect jobs would land in different coalescing buckets.
  const auto a = session.register_observable(vqe::compile_observable(h));
  const auto b = session.register_observable(vqe::compile_observable(h));
  EXPECT_EQ(a.id(), b.id());
  const auto c = session.register_observable(
      vqe::compile_observable(vqe::Hamiltonian::heisenberg(3, 0.5)));
  EXPECT_NE(a.id(), c.id());
}

TEST(Serve, MovedFromClientIsDetached) {
  backend::StatevectorBackend backend(0);
  serve::ServeSession session(backend, fast_options());
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  const auto theta = make_theta(qnn.num_trainable(), 0, 0);
  const auto input = make_input(qnn.num_inputs(), 0, 0);

  auto a = session.client();
  auto b = std::move(a);
  // The source must not remain a live duplicate endpoint (it would pin
  // the same PRNG streams as `b`).
  EXPECT_THROW((void)a.submit(handle, theta, input), std::logic_error);
  EXPECT_EQ(b.submit(handle, theta, input).get().size(), 3u);
}

TEST(Serve, SubmissionValidation) {
  backend::StatevectorBackend backend(0);
  serve::ServeSession session(backend, fast_options());
  serve::ServeSession other(backend, fast_options());
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  const auto foreign = other.register_circuit(qnn);
  auto client = session.client();

  const auto theta = make_theta(qnn.num_trainable(), 0, 0);
  const auto input = make_input(qnn.num_inputs(), 0, 0);
  EXPECT_THROW(client.submit(serve::CircuitHandle{}, theta, input),
               std::invalid_argument);
  EXPECT_THROW(client.submit(foreign, theta, input), std::invalid_argument);
  const std::vector<double> short_theta(1, 0.0);
  EXPECT_THROW(client.submit(handle, short_theta, input),
               std::invalid_argument);
  EXPECT_THROW(client.submit(handle, theta, {}), std::invalid_argument);
}

TEST(Serve, NonFiniteSubmissionFailsOnlyItself) {
  // Two clients' jobs coalesce on a sampled replica, one with a NaN
  // theta. The offender is rejected at submit; before, both jobs reached
  // the backend together and both futures failed in the sampler.
  backend::StatevectorBackend backend(1024);
  serve::ServeSession session(backend, fast_options());
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  const auto h = session.register_observable(
      vqe::compile_observable(vqe::Hamiltonian::heisenberg(3, 0.7)));
  auto neighbour = session.client();
  auto offender = session.client();

  const auto theta = make_theta(qnn.num_trainable(), 0, 0);
  const auto input = make_input(qnn.num_inputs(), 0, 0);
  auto bad_theta = theta;
  bad_theta[0] = std::numeric_limits<double>::quiet_NaN();
  auto bad_input = input;
  bad_input[1] = -std::numeric_limits<double>::infinity();

  auto job = neighbour.submit(handle, theta, input);
  EXPECT_THROW(offender.submit(handle, bad_theta, input),
               std::invalid_argument);
  EXPECT_THROW(offender.submit(handle, theta, bad_input),
               std::invalid_argument);
  EXPECT_THROW(offender.submit_expect(handle, h, bad_theta, input),
               std::invalid_argument);
  for (const double z : job.get()) EXPECT_TRUE(std::isfinite(z));
  const auto m = session.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.failed, 0u);
}

TEST(Serve, DeadlineFlushCompletesSparseTraffic) {
  backend::StatevectorBackend backend(0);
  serve::ServeOptions opt;
  opt.max_batch = 1u << 20;  // never a size flush
  opt.max_delay = 1ms;
  serve::ServeSession session(backend, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  auto f = client.submit(handle, make_theta(qnn.num_trainable(), 0, 0),
                         make_input(qnn.num_inputs(), 0, 0));
  // Without a deadline flush nothing would ever drain this job.
  ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
  (void)f.get();
  EXPECT_GE(session.metrics().deadline_flushes, 1u);
}

TEST(Serve, SizeFlushCoalescesFullBatch) {
  backend::StatevectorBackend backend(0);
  serve::ServeOptions opt;
  opt.max_batch = 4;
  opt.max_delay = 10s;  // deadline can never fire within the test
  serve::ServeSession session(backend, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < 4; ++k)
    futures.push_back(client.submit(handle,
                                    make_theta(qnn.num_trainable(), 0, k),
                                    make_input(qnn.num_inputs(), 0, k)));
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
    (void)f.get();
  }
  const auto m = session.metrics();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.coalesced_jobs, 4u);
  EXPECT_EQ(m.size_flushes, 1u);
  EXPECT_DOUBLE_EQ(m.mean_batch_occupancy, 4.0);
}

TEST(Serve, ResultCacheHitsAndLruExpiry) {
  backend::StatevectorBackend backend(0);  // deterministic -> cacheable
  serve::ServeOptions opt = fast_options();
  opt.result_cache_capacity = 2;
  serve::ServeSession session(backend, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  auto submit_and_get = [&](unsigned job) {
    return client
        .submit(handle, make_theta(qnn.num_trainable(), 0, job),
                make_input(qnn.num_inputs(), 0, job))
        .get();
  };

  const auto first = submit_and_get(0);
  EXPECT_EQ(backend.inference_count(), 1u);

  // Hit: identical bindings, no backend execution, identical result.
  const auto again = submit_and_get(0);
  EXPECT_EQ(again, first);
  EXPECT_EQ(backend.inference_count(), 1u);
  EXPECT_EQ(session.metrics().cache_hits, 1u);

  // Fill capacity (2) with newer entries; binding 0 becomes LRU and is
  // evicted, so resubmitting it executes again.
  (void)submit_and_get(1);
  (void)submit_and_get(2);
  EXPECT_EQ(backend.inference_count(), 3u);
  const auto recomputed = submit_and_get(0);
  EXPECT_EQ(recomputed, first);
  EXPECT_EQ(backend.inference_count(), 4u);
  EXPECT_EQ(session.metrics().cache_hits, 1u);
}

TEST(Serve, CacheNeverActivatesOnStochasticBackends) {
  backend::StatevectorBackend backend(/*shots=*/64, /*seed=*/5);
  serve::ServeOptions opt = fast_options();
  opt.result_cache_capacity = 16;
  serve::ServeSession session(backend, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  const auto theta = make_theta(qnn.num_trainable(), 0, 0);
  const auto input = make_input(qnn.num_inputs(), 0, 0);
  (void)client.submit(handle, theta, input).get();
  (void)client.submit(handle, theta, input).get();
  // Identical bindings, but sampled results may not be memoised: both
  // submissions must execute.
  EXPECT_EQ(backend.inference_count(), 2u);
  EXPECT_EQ(session.metrics().cache_hits, 0u);
}

TEST(Serve, ShutdownDrainsInFlightJobsAndRejectsNewOnes) {
  const auto qnn = make_qnn(3, 4, 1);
  const auto plan = exec::CompiledCircuit::compile(qnn);
  backend::StatevectorBackend backend(0);
  backend::StatevectorBackend direct(0);
  serve::ServeOptions opt;
  opt.max_batch = 1u << 20;
  opt.max_delay = 10s;  // jobs can only complete through shutdown's drain
  serve::ServeSession session(backend, opt);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();

  constexpr unsigned kJobs = 16;
  std::vector<std::vector<double>> thetas, inputs;
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < kJobs; ++k) {
    thetas.push_back(make_theta(qnn.num_trainable(), 0, k));
    inputs.push_back(make_input(qnn.num_inputs(), 0, k));
    futures.push_back(client.submit(handle, thetas.back(), inputs.back()));
  }

  session.shutdown();

  std::vector<exec::Evaluation> evals;
  for (unsigned k = 0; k < kJobs; ++k)
    evals.push_back({thetas[k], inputs[k], exec::Evaluation::kNoShift, 0.0});
  const auto expected = direct.run_batch(plan, evals);
  for (unsigned k = 0; k < kJobs; ++k) {
    ASSERT_EQ(futures[k].wait_for(0s), std::future_status::ready)
        << "job " << k << " abandoned by shutdown";
    EXPECT_EQ(futures[k].get(), expected[k]);
  }

  EXPECT_THROW(client.submit(handle, thetas[0], inputs[0]),
               std::runtime_error);
}

// Fuzz-style determinism property: N client threads each execute a
// seeded schedule of (submit, submit_expect, duplicate-binding) actions
// against a stochastic backend, interleaving however the scheduler
// likes. Replaying the SAME schedules single-threaded on a fresh
// session must reproduce every result bit-for-bit -- the PR 4 contract
// (results are a pure function of client id, per-client seq and
// bindings) as a randomized, reproducible property test.
TEST(Serve, FuzzedInterleavingMatchesSingleThreadedReplayBitwise) {
  const auto qnn = make_qnn(3, 4, 1);
  const auto obs = vqe::compile_observable(vqe::Hamiltonian::heisenberg(3, 1.0));
  constexpr unsigned kClients = 4;
  constexpr unsigned kActions = 12;
  constexpr std::uint64_t kSeed = 0xF00DFACEu;

  // Seeded schedule: action a of client c is a pure function of
  // (kSeed, c, a). An LCG step per decision keeps it self-contained.
  auto lcg = [](std::uint64_t& s) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  };
  struct Action {
    int kind;       // 0 = run, 1 = expect, 2 = duplicate of previous run
    unsigned job;   // binding index
  };
  std::vector<std::vector<Action>> schedules(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    std::uint64_t s = kSeed + 0x9E3779B9u * (c + 1);
    for (unsigned a = 0; a < kActions; ++a) {
      Action act;
      act.kind = static_cast<int>(lcg(s) % 3);
      act.job = static_cast<unsigned>(lcg(s) % 6);
      if (a == 0 && act.kind == 2) act.kind = 0;  // nothing to duplicate yet
      schedules[c].push_back(act);
    }
  }

  struct ClientResults {
    std::vector<std::vector<double>> runs;
    std::vector<double> expects;
  };
  auto run_workload = [&](bool threaded) {
    backend::StatevectorBackend backend(/*shots=*/128, /*seed=*/7);
    serve::ServeSession session(backend, fast_options());
    const auto handle = session.register_circuit(qnn);
    const auto obs_handle = session.register_observable(obs);
    std::vector<serve::Client> clients;
    for (unsigned c = 0; c < kClients; ++c)
      clients.push_back(session.client());

    std::vector<std::vector<std::future<std::vector<double>>>> run_futures(
        kClients);
    std::vector<std::vector<std::future<double>>> expect_futures(kClients);
    auto play = [&](unsigned c) {
      unsigned prev_run_job = 0;
      for (const Action& act : schedules[c]) {
        const unsigned job = act.kind == 2 ? prev_run_job : act.job;
        const auto theta = make_theta(qnn.num_trainable(), c, job);
        const auto input = make_input(qnn.num_inputs(), c, job);
        if (act.kind == 1) {
          expect_futures[c].push_back(
              clients[c].submit_expect(handle, obs_handle, theta, input));
        } else {
          run_futures[c].push_back(clients[c].submit(handle, theta, input));
          prev_run_job = job;
        }
      }
    };
    if (threaded) {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(play, c);
      for (auto& t : threads) t.join();
    } else {
      for (unsigned c = 0; c < kClients; ++c) play(c);
    }

    std::vector<ClientResults> results(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
      for (auto& f : run_futures[c]) results[c].runs.push_back(f.get());
      for (auto& f : expect_futures[c]) results[c].expects.push_back(f.get());
    }
    return results;
  };

  const auto threaded = run_workload(true);
  const auto sequential = run_workload(false);
  for (unsigned c = 0; c < kClients; ++c) {
    ASSERT_EQ(threaded[c].runs.size(), sequential[c].runs.size());
    ASSERT_EQ(threaded[c].expects.size(), sequential[c].expects.size());
    for (std::size_t k = 0; k < threaded[c].runs.size(); ++k)
      EXPECT_EQ(threaded[c].runs[k], sequential[c].runs[k])
          << "client " << c << " run " << k;
    for (std::size_t k = 0; k < threaded[c].expects.size(); ++k)
      EXPECT_EQ(threaded[c].expects[k], sequential[c].expects[k])
          << "client " << c << " expect " << k;
  }
}

TEST(Serve, FuturesSurviveSessionDestruction) {
  const auto qnn = make_qnn(3, 4, 1);
  backend::StatevectorBackend backend(0);
  std::vector<std::future<std::vector<double>>> futures;
  {
    serve::ServeSession session(backend, fast_options());
    const auto handle = session.register_circuit(qnn);
    auto client = session.client();
    for (unsigned k = 0; k < 8; ++k)
      futures.push_back(client.submit(handle,
                                      make_theta(qnn.num_trainable(), 0, k),
                                      make_input(qnn.num_inputs(), 0, k)));
  }  // destructor == shutdown: drains everything
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(f.get().size(), 3u);
  }
}

}  // namespace
