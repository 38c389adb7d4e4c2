#pragma once
// qoc::replay -- deterministic record/replay for the serve layer.
//
// The serve determinism contract (serve/serve.hpp) makes a session's
// traffic exactly reproducible: every result is a pure function of the
// registered structure, the bindings and the PRNG stream pinned at
// submission -- never of batching, routing, replica count or thread
// scheduling. This module turns that contract into a regression
// substrate:
//
//   * Recorder (a serve::TraceSink) captures a live session -- every
//     fresh circuit/observable registration and every admitted job
//     (client id, per-client sequence, bindings, monotonic timestamp
//     delta, pinned stream) together with the result its future
//     resolved to -- into a TraceLog.
//   * write_binary/read_binary serialize a TraceLog as a compact
//     versioned binary log: "QOCTRACE" magic, format version,
//     length-prefixed records, CRC32 trailer. Doubles are stored as
//     their IEEE bit patterns, so a log round-trips bit-exactly.
//     Truncated, corrupt or version-skewed logs are rejected with
//     TraceError -- never undefined behaviour. write_text renders a log
//     in a human-readable form for inspection (doubles as hex bit
//     patterns, so nothing is rounded); it is not read back.
//   * replay() re-registers the recorded structures and re-submits the
//     recorded stream against ANY ServeSession configuration -- N
//     replicas, Block/Shed, folding on/off, any cache size -- through
//     ServeSession::submit_pinned (which pins exactly the recorded
//     streams), then bitwise-diffs every result against the recorded
//     one and reports divergence by (client, seq).
//
// A config change that preserves the determinism contract replays any
// recorded log with zero divergences; tools/qoc_replay drives this from
// the command line and CI replays golden traces under 1- and 4-replica
// pools on every push.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/common/mutex.hpp"
#include "qoc/common/thread_annotations.hpp"
#include "qoc/exec/observable.hpp"
#include "qoc/serve/serve.hpp"

namespace qoc::replay {

/// Every malformed-log condition -- bad magic, unsupported version,
/// out-of-bounds record, truncation, CRC mismatch, semantically invalid
/// payload (unknown gate kind, absurd qubit count, dangling ids) --
/// surfaces as this one typed error, so callers can treat "log is
/// unusable" as a single recoverable condition.
struct TraceError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One circuit structure registered during the recorded session, in
/// registration order. `structure_hash` is exec::structure_hash of the
/// source circuit at record time; replay recomputes it from the
/// deserialized circuit and refuses to run on a mismatch (a drifted
/// serialization must not silently replay the wrong structure).
struct TracedCircuit {
  std::uint64_t id = 0;
  std::uint64_t structure_hash = 0;
  circuit::Circuit circuit{1};
};

/// One registered observable: (qubit count, term list) fully determines
/// a CompiledObservable, so that is all the log stores.
struct TracedObservable {
  std::uint64_t id = 0;
  int n_qubits = 0;
  std::vector<exec::ObservableTerm> terms;
};

/// One admitted job in submission order. `observable_id == 0` marks a
/// run job (registry ids start at 1). `has_result == false` marks a job
/// whose future never carried a value (backend failure); replay
/// re-submits it but skips the comparison. `result` is what the job's
/// future resolved to: a run job's <Z_q> per logical qubit, or an
/// expect job's energy as its one value (write_binary and write_text
/// throw TraceError on an expect result of any other size).
struct TracedJob {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t circuit_id = 0;
  std::uint64_t observable_id = 0;
  std::uint64_t stream = 0;  // client_stream(client, seq), kept as an
                             // integrity check on the log
  std::chrono::nanoseconds since_start{0};
  bool is_expect = false;
  bool has_result = false;
  std::vector<double> theta, input;
  std::vector<double> result;
};

/// A recorded session: everything needed to re-create its submission
/// stream against a fresh session, plus the results to diff against.
struct TraceLog {
  /// Free-form provenance string (tools/qoc_replay stores the corpus
  /// scenario name here and uses it to reconstruct the backend).
  std::string scenario;
  std::vector<TracedCircuit> circuits;
  std::vector<TracedObservable> observables;
  std::vector<TracedJob> jobs;
};

// ---- Binary log format ----------------------------------------------------

/// Current on-disk format version (read_binary rejects others).
inline constexpr std::uint32_t kTraceVersion = 2;

/// Serialize to the versioned binary format (appends to `out`).
std::vector<std::uint8_t> write_binary(const TraceLog& log);

/// Parse a binary log. Throws TraceError on any malformed input.
TraceLog read_binary(std::span<const std::uint8_t> bytes);

/// File convenience wrappers (binary format). save overwrites; load
/// throws TraceError when the file is unreadable or malformed.
void save(const TraceLog& log, const std::string& path);
TraceLog load(const std::string& path);

/// Human-readable text form for inspection (tools/qoc_replay dump): a
/// "qoctrace <version>" header, a scenario line, then one line per
/// circuit, op, observable, term and job. Doubles are rendered as
/// 16-digit hex bit patterns, so no value is rounded. Write-only: the
/// binary format is the one logs are loaded from.
std::string write_text(const TraceLog& log);

/// Field-wise equality with bitwise double comparison (the identity the
/// round-trip tests assert).
bool logs_equal(const TraceLog& a, const TraceLog& b);

// ---- Recorder -------------------------------------------------------------

/// TraceSink capturing a live session into a TraceLog. Install via
/// ServeOptions::trace_sink before constructing the session:
///
///   auto rec = std::make_shared<replay::Recorder>("my-scenario");
///   serve::ServeOptions opt;
///   opt.trace_sink = rec;
///   serve::ServeSession session(backend, opt);
///   ... traffic ...
///   session.shutdown();
///   replay::save(rec->snapshot(), "session.qoctrace");
///
/// Thread-safe (callbacks arrive from submitter and lane threads);
/// results are matched to their jobs by pinned stream id, so arrival
/// order across threads never matters. snapshot() may be taken at any
/// point; jobs whose results have not arrived yet appear with
/// has_result == false.
class Recorder final : public serve::TraceSink {
 public:
  explicit Recorder(std::string scenario = "") {
    log_.scenario = std::move(scenario);
  }

  void on_circuit(std::uint64_t circuit_id, std::uint64_t structure_hash,
                  const circuit::Circuit& circuit) override;
  void on_observable(std::uint64_t observable_id,
                     const exec::CompiledObservable& observable) override;
  void on_submit(std::uint32_t client, std::uint64_t seq,
                 std::uint64_t circuit_id, std::uint64_t observable_id,
                 std::span<const double> theta, std::span<const double> input,
                 std::chrono::nanoseconds since_session_start,
                 std::uint64_t stream) override;
  void on_result(std::uint64_t stream,
                 std::span<const double> result) override;

  /// Copy of everything recorded so far.
  TraceLog snapshot() const QOC_EXCLUDES(mutex_);

 private:
  mutable common::Mutex mutex_;
  TraceLog log_ QOC_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::size_t> job_of_stream_
      QOC_GUARDED_BY(mutex_);
};

// ---- Replayer -------------------------------------------------------------

/// How to re-serve a recorded stream.
struct ReplayOptions {
  /// Homogeneous pool size: `backend` plus replicas-1 clone_replica()
  /// copies, exactly like serve::BackendPool(backend, replicas).
  std::size_t replicas = 1;
  /// Session configuration under test (replica count aside). The
  /// trace_sink field is ignored -- replay never re-records.
  serve::ServeOptions serve;
  /// false: re-submit as fast as possible (the regression-test mode).
  /// true: pace submissions to the recorded monotonic timestamp deltas
  /// (reproduces the recorded coalescing pressure for benchmarking /
  /// soak runs; results are identical either way by contract).
  bool paced = false;
};

/// One result that replayed differently from the record, identified the
/// way the traffic was: by who submitted it and when.
struct Divergence {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  bool is_expect = false;
  std::vector<double> expected, actual;  // expect jobs: one entry each
  std::string error;  // non-empty: replayed future failed with this
};

struct ReplayReport {
  std::size_t jobs = 0;      // jobs re-submitted
  std::size_t matched = 0;   // bitwise-identical results
  std::size_t diverged = 0;  // mismatched or failed results
  std::size_t skipped = 0;   // recorded without a result; not compared
  std::vector<Divergence> divergences;
  bool ok() const { return diverged == 0; }
};

/// Re-serve `log` against a fresh ServeSession over `backend` (cloned
/// to options.replicas) and bitwise-diff every result against the
/// recorded one. The caller is responsible for configuring `backend`
/// identically to the recorded session (same kind, seed, shots, noise
/// options...) -- replay validates the log's internal consistency
/// before submitting anything (structure hashes, stream ids, dangling
/// ids, bindings or an observable a job's circuit cannot take;
/// TraceError on violation) but cannot validate backend provenance.
ReplayReport replay(const TraceLog& log, backend::Backend& backend,
                    const ReplayOptions& options = {});

}  // namespace qoc::replay
