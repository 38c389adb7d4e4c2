// Tests for qoc::replay: binary log round-trip stability, the text dump,
// bitwise replay identity across pool configurations (1 vs 4 replicas,
// folding on/off, cache on/off) and backend tiers (exact, sampled,
// noisy, density), divergence detection, and graceful typed
// rejection of truncated / corrupt / version-skewed logs.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/exec/observable.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/replay/replay.hpp"
#include "qoc/serve/serve.hpp"

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

exec::CompiledObservable make_observable(int n) {
  std::vector<exec::ObservableTerm> terms;
  for (int q = 0; q + 1 < n; ++q) {
    std::string p(static_cast<std::size_t>(n), 'I');
    p[static_cast<std::size_t>(q)] = 'Z';
    p[static_cast<std::size_t>(q) + 1] = 'Z';
    terms.push_back({std::move(p), 0.5 + 0.1 * q});
  }
  std::string x0(static_cast<std::size_t>(n), 'I');
  x0[0] = 'X';
  terms.push_back({std::move(x0), 0.25});
  return exec::CompiledObservable::compile(n, terms);
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

/// Record a mixed session against `backend`: two structures, run and
/// expect jobs from two clients, plus exact duplicate bindings (the
/// foldable/cacheable shape). Every future is drained before the
/// snapshot, so each job carries its result.
replay::TraceLog record_session(backend::Backend& backend,
                                serve::ServeOptions opt = fast_options()) {
  auto recorder = std::make_shared<replay::Recorder>("test");
  opt.trace_sink = recorder;
  serve::ServeSession session(backend, opt);

  const auto qnn_a = make_qnn(4, 6, 2);
  const auto qnn_b = make_qnn(4, 4, 1);
  const auto handle_a = session.register_circuit(qnn_a);
  const auto handle_b = session.register_circuit(qnn_b);
  const auto obs = session.register_observable(make_observable(4));

  std::vector<std::future<std::vector<double>>> runs;
  std::vector<std::future<double>> expects;
  for (unsigned cl = 0; cl < 2; ++cl) {
    auto client = session.client();
    for (unsigned k = 0; k < 8; ++k) {
      const auto& h = (k % 2 == 0) ? handle_a : handle_b;
      const auto& c = (k % 2 == 0) ? qnn_a : qnn_b;
      // Duplicate bindings every 4th job (same theta as job k-1).
      const unsigned job = (k % 4 == 3) ? k - 1 : k;
      const auto theta = make_theta(c.num_trainable(), cl, job);
      const auto input = make_input(c.num_inputs(), cl, job);
      if (k % 3 == 1)
        expects.push_back(client.submit_expect(h, obs, theta, input));
      else
        runs.push_back(client.submit(h, theta, input));
    }
  }
  for (auto& f : runs) f.get();
  for (auto& f : expects) f.get();
  return recorder->snapshot();
}

replay::TraceLog record_exact_session() {
  backend::StatevectorBackend backend(0);
  return record_session(backend);
}

TEST(Replay, BinaryRoundTripIsStableAndBitwise) {
  const replay::TraceLog log = record_exact_session();
  ASSERT_EQ(log.circuits.size(), 2u);
  ASSERT_EQ(log.observables.size(), 1u);
  ASSERT_EQ(log.jobs.size(), 16u);
  for (const auto& j : log.jobs) {
    EXPECT_TRUE(j.has_result) << "client " << j.client << " seq " << j.seq;
    EXPECT_EQ(j.stream,
              serve::ServeSession::client_stream(j.client, j.seq));
  }

  const auto bytes = replay::write_binary(log);
  const replay::TraceLog decoded = replay::read_binary(bytes);
  EXPECT_TRUE(replay::logs_equal(log, decoded));
  // Serialization is canonical: re-encoding the decoded log reproduces
  // the byte stream exactly.
  EXPECT_EQ(replay::write_binary(decoded), bytes);
}

// The text form is write-only: a header, a scenario line, then one line
// per circuit (plus one per op), observable (plus one per term) and job.
TEST(Replay, TextFormHasOneLinePerRecord) {
  const replay::TraceLog log = record_exact_session();
  std::istringstream text(replay::write_text(log));
  std::vector<std::string> lines;
  for (std::string line; std::getline(text, line);) lines.push_back(line);

  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0], "qoctrace " + std::to_string(replay::kTraceVersion));
  EXPECT_EQ(lines[1], "scenario test");
  std::map<std::string, std::size_t> count;
  for (std::size_t i = 2; i < lines.size(); ++i)
    ++count[lines[i].substr(0, lines[i].find(' '))];

  std::size_t ops = 0, terms = 0;
  for (const auto& tc : log.circuits) ops += tc.circuit.num_ops();
  for (const auto& to : log.observables) terms += to.terms.size();
  EXPECT_EQ(count["circuit"], log.circuits.size());
  EXPECT_EQ(count["op"], ops);
  EXPECT_EQ(count["observable"], log.observables.size());
  EXPECT_EQ(count["term"], terms);
  EXPECT_EQ(count["job"], log.jobs.size());
  EXPECT_EQ(lines.size(), 2 + log.circuits.size() + ops +
                              log.observables.size() + terms + log.jobs.size());
}

// The acceptance criterion: a recorded mixed session replays bitwise
// under every pool configuration -- replica count, folding, cache --
// because results are pinned to (client, seq) streams at submission.
TEST(Replay, BitwiseIdenticalAcrossPoolConfigs) {
  const replay::TraceLog log = record_exact_session();
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{4}}) {
    for (const bool fold : {true, false}) {
      for (const std::size_t cache : {std::size_t{0}, std::size_t{64}}) {
        backend::StatevectorBackend backend(0);
        replay::ReplayOptions opt;
        opt.replicas = replicas;
        opt.serve = fast_options();
        opt.serve.fold_duplicates = fold;
        opt.serve.result_cache_capacity = cache;
        const auto report = replay::replay(log, backend, opt);
        EXPECT_TRUE(report.ok())
            << replicas << " replicas, fold=" << fold << ", cache=" << cache
            << ": " << report.diverged << " divergences";
        EXPECT_EQ(report.matched, log.jobs.size());
        EXPECT_EQ(report.skipped, 0u);
      }
    }
  }
}

// Stochastic tiers: the replayed backend draws from the same pinned
// streams, so sampled / noisy / density results are bit-identical
// too (given an identically-constructed backend).
TEST(Replay, SampledBackendReplaysBitwise) {
  backend::StatevectorBackend recorded(/*shots=*/128, /*seed=*/99);
  const replay::TraceLog log = record_session(recorded);
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{4}}) {
    backend::StatevectorBackend fresh(/*shots=*/128, /*seed=*/99);
    replay::ReplayOptions opt;
    opt.replicas = replicas;
    opt.serve = fast_options();
    const auto report = replay::replay(log, fresh, opt);
    EXPECT_TRUE(report.ok()) << replicas << " replicas";
    EXPECT_EQ(report.matched, log.jobs.size());
  }
}

TEST(Replay, NoisyBackendReplaysBitwise) {
  backend::NoisyBackendOptions nopt;
  nopt.shots = 64;
  backend::NoisyBackend recorded(noise::DeviceModel::ibmq_santiago(), nopt);
  const replay::TraceLog log = record_session(recorded);
  backend::NoisyBackend fresh(noise::DeviceModel::ibmq_santiago(), nopt);
  replay::ReplayOptions opt;
  opt.replicas = 2;
  opt.serve = fast_options();
  const auto report = replay::replay(log, fresh, opt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.matched, log.jobs.size());
}

TEST(Replay, DensityBackendReplaysBitwise) {
  backend::DensityMatrixBackend recorded(noise::DeviceModel::ibmq_santiago());
  const replay::TraceLog log = record_session(recorded);
  backend::DensityMatrixBackend fresh(noise::DeviceModel::ibmq_santiago());
  const auto report = replay::replay(log, fresh);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.matched, log.jobs.size());
}

// Cache hits complete inline without touching a drain lane; the
// recorder must still capture both the job and its (cached) result.
TEST(Replay, CacheHitJobsAreRecordedWithResults) {
  backend::StatevectorBackend backend(0);
  auto recorder = std::make_shared<replay::Recorder>();
  serve::ServeOptions opt = fast_options();
  opt.result_cache_capacity = 16;
  opt.trace_sink = recorder;
  serve::ServeSession session(backend, opt);
  const auto qnn = make_qnn(3, 4, 1);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();
  const auto theta = make_theta(qnn.num_trainable(), 0, 0);
  const auto input = make_input(qnn.num_inputs(), 0, 0);
  const auto first = client.submit(handle, theta, input).get();
  const auto second = client.submit(handle, theta, input).get();
  ASSERT_EQ(session.metrics().cache_hits, 1u);
  ASSERT_EQ(first, second);

  const replay::TraceLog log = recorder->snapshot();
  ASSERT_EQ(log.jobs.size(), 2u);
  for (const auto& j : log.jobs) {
    EXPECT_TRUE(j.has_result);
    EXPECT_EQ(j.run_result, first);
  }
}

// A shed job consumes a per-client sequence number but never reaches
// the log. Replay must tolerate the gap: remaining jobs still carry
// their own pinned streams, so dropping a job changes nothing else.
TEST(Replay, ToleratesSequenceGapsFromShedJobs) {
  replay::TraceLog log = record_exact_session();
  log.jobs.erase(log.jobs.begin() + 1);
  log.jobs.erase(log.jobs.begin() + 5);
  backend::StatevectorBackend backend(0);
  const auto report = replay::replay(log, backend);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.matched, log.jobs.size());
}

TEST(Replay, DetectsTamperedResults) {
  replay::TraceLog log = record_exact_session();
  std::size_t run_idx = log.jobs.size();
  for (std::size_t i = 0; i < log.jobs.size(); ++i)
    if (!log.jobs[i].is_expect) {
      run_idx = i;
      break;
    }
  ASSERT_LT(run_idx, log.jobs.size());
  log.jobs[run_idx].run_result[0] += 1e-13;  // sub-epsilon tamper
  backend::StatevectorBackend backend(0);
  const auto report = replay::replay(log, backend);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.diverged, 1u);
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_EQ(report.divergences[0].client, log.jobs[run_idx].client);
  EXPECT_EQ(report.divergences[0].seq, log.jobs[run_idx].seq);
}

TEST(Replay, RejectsStructureHashDrift) {
  replay::TraceLog log = record_exact_session();
  log.circuits[0].structure_hash ^= 1;
  backend::StatevectorBackend backend(0);
  EXPECT_THROW((void)replay::replay(log, backend), replay::TraceError);
}

TEST(Replay, RejectsStreamIdentityMismatch) {
  replay::TraceLog log = record_exact_session();
  log.jobs[0].stream ^= 1;
  backend::StatevectorBackend backend(0);
  EXPECT_THROW((void)replay::replay(log, backend), replay::TraceError);
}

TEST(Replay, RejectsDanglingIds) {
  backend::StatevectorBackend backend(0);
  {
    replay::TraceLog log = record_exact_session();
    log.jobs[0].circuit_id = 9999;
    EXPECT_THROW((void)replay::replay(log, backend), replay::TraceError);
  }
  {
    replay::TraceLog log = record_exact_session();
    for (auto& j : log.jobs)
      if (j.is_expect) {
        j.observable_id = 9999;
        break;
      }
    EXPECT_THROW((void)replay::replay(log, backend), replay::TraceError);
  }
}

// Logs of any other version, older or newer, are refused.
TEST(Replay, RejectsVersionSkew) {
  const auto bytes = replay::write_binary(record_exact_session());
  for (const std::uint32_t version :
       {replay::kTraceVersion - 1, replay::kTraceVersion + 1}) {
    auto skewed = bytes;
    skewed[8] = static_cast<std::uint8_t>(version);
    try {
      (void)replay::read_binary(skewed);
      ADD_FAILURE() << "version " << version << " log accepted";
    } catch (const replay::TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
}

TEST(Replay, RejectsBadMagic) {
  auto bytes = replay::write_binary(record_exact_session());
  bytes[0] = 'X';
  EXPECT_THROW((void)replay::read_binary(bytes), replay::TraceError);
  EXPECT_THROW((void)replay::read_binary({}), replay::TraceError);
}

// Every truncation of a valid log must be rejected with TraceError --
// never accepted, never UB. (The trailing CRC makes "clean" truncation
// at a record boundary detectable too.)
TEST(Replay, RejectsEveryTruncation) {
  const auto bytes = replay::write_binary(record_exact_session());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        (void)replay::read_binary(std::span(bytes.data(), len)),
        replay::TraceError)
        << "accepted a log truncated to " << len << " bytes";
  }
}

// Every single-byte corruption must be rejected: either a structural
// parse error or, when the damage still parses, the CRC32 trailer
// (which detects all single-byte errors).
TEST(Replay, RejectsEverySingleByteCorruption) {
  const auto bytes = replay::write_binary(record_exact_session());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0x5A;
    EXPECT_THROW((void)replay::read_binary(corrupt), replay::TraceError)
        << "accepted a log with byte " << i << " corrupted";
  }
}

// Paced mode re-submits on the recorded timeline; results are identical
// by contract (pacing only changes coalescing pressure).
TEST(Replay, PacedModeMatchesBitwise) {
  replay::TraceLog log = record_exact_session();
  // Compress the recorded timeline so the test stays fast.
  for (auto& j : log.jobs)
    j.since_start = std::chrono::nanoseconds(j.since_start.count() % 1000000);
  backend::StatevectorBackend backend(0);
  replay::ReplayOptions opt;
  opt.paced = true;
  opt.serve = fast_options();
  const auto report = replay::replay(log, backend, opt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.matched, log.jobs.size());
}

}  // namespace
