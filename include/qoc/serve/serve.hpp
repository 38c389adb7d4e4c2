#pragma once
// qoc::serve -- in-process asynchronous execution service with
// cross-client batch coalescing.
//
// The backends are fastest on one caller's large batches: a circuit is
// compiled once (exec::CompiledCircuit) and structure work is amortised
// across large run_batch / expect_batch calls. Inference traffic instead
// arrives as many small independent requests from many concurrent
// clients, each of which would otherwise own a backend and block on its
// own tiny batch. serve turns that traffic shape into the one the
// backends are good at:
//
//   * ServeSession fronts a BackendPool of N backend replicas (a pool
//     of one wraps a caller-owned backend).
//     Clients submit jobs non-blockingly and get std::futures back.
//     Each replica owns a drain lane (a worker thread with its own
//     batch queue), so coalesced batches execute concurrently across
//     replicas; a routing layer keeps each circuit structure sticky to
//     one replica (structure affinity -- its transpile cache stays hot)
//     and places new structures on the replica with the least queued
//     work.
//   * A circuit registry hands out ref-counted compile-once handles:
//     register a model once, submit only bindings afterwards.
//   * The batch coalescer groups queued jobs by compiled-circuit
//     structure (and observable, for expectation jobs) and drains each
//     group through ONE run_batch / expect_batch call per tick, under a
//     max-batch / max-delay (deadline) policy. Within a group, jobs are
//     taken round-robin across clients, so one chatty client cannot
//     starve the rest of a full batch.
//   * A bounded LRU result cache keyed on (structure, observable,
//     bitwise bindings) serves repeat requests without touching the
//     backend -- enabled only when every replica reports
//     deterministic() (statevector or device at shots = 0), since
//     memoising sampled results would silently change their statistics.
//   * In-flight duplicate folding: when the executing replica is
//     deterministic, bitwise-identical bindings queued into the same
//     batch execute ONCE and the result fans out to every waiting
//     future (the result cache only folds *across* batches). Folded
//     jobs complete normally and count cache-style in metrics
//     (MetricsSnapshot::folded_jobs); they never reach the backend and
//     therefore never count as inferences.
//   * Admission control: ServeOptions::max_queue bounds the number of
//     admitted-but-unfinished jobs. At the bound, submit either blocks
//     until capacity frees (OverloadPolicy::Block) or sheds the job --
//     the returned future fails with serve::QueueFullError
//     (OverloadPolicy::Shed) so overload is a distinct, typed signal.
//   * Service metrics (queue depth, batch occupancy, flush causes,
//     p50/p99 latency, throughput) are exposed as a plain struct, with
//     per-replica occupancy, flush-cause and routing counters so a
//     cold replica is visible instead of averaged away.
//
// Determinism contract: a served result is bit-identical to the same
// evaluation submitted directly to the backend, and independent of how
// the coalescer happened to group it, how many replicas the pool holds
// and where routing placed it. Exact backends are pure functions of
// the bindings, so this is automatic. Stochastic backends draw from
// a PRNG stream pinned AT SUBMISSION via Evaluation::rng_stream =
// client_stream(client id, per-client sequence number) -- a pure
// function of who submitted and their submission count, never of batch
// composition, arrival interleaving, thread scheduling or replica
// placement (homogeneous replicas share the configured seed, and the
// stream derivation is a pure function of seed and stream id; see
// Backend::clone_replica). Direct run_batch calls carrying the same
// explicit streams reproduce served results bit-for-bit
// (tests/test_serve.cpp and tests/test_serve_sharded.cpp assert all of
// these properties). Heterogeneous pools (distinct devices) trade this
// replica-count invariance for capacity: a structure's results then
// depend on which replica it was assigned to, but structure affinity
// keeps the assignment sticky for the session lifetime, so repeat
// submissions of one structure are self-consistent.
//
// Inference accounting: every job that reaches a backend counts
// exactly once through the normal run_batch / expect_batch accounting
// (see Backend::inference_count), on the replica that executed it.
// Result-cache hits and folded duplicates never execute and therefore
// never count.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/exec/observable.hpp"

namespace qoc::serve {

class ServeSession;

namespace detail {
struct CircuitEntry;
struct ObservableEntry;
struct SessionState;
}  // namespace detail

/// The error a shed job's future fails with when the session is over
/// its admission bound under OverloadPolicy::Shed. A distinct type so
/// callers can tell overload (retry later, back off) apart from a
/// backend execution failure.
struct QueueFullError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What submit does when the session already holds
/// ServeOptions::max_queue admitted-but-unfinished jobs.
enum class OverloadPolicy {
  /// Block the submitting thread until capacity frees (or the session
  /// shuts down, which throws like any post-shutdown submit).
  Block,
  /// Admit nothing: return a future that fails with QueueFullError.
  Shed,
};

/// The execution substrate a ServeSession drains into: N backend
/// replicas, each with its own drain lane. Move-only; the session takes
/// the pool by value. Two shapes:
///
///   * Homogeneous: a primary backend plus replicas-1 fresh clones
///     (Backend::clone_replica) sharing its configuration and seed.
///     Pinned-stream results are bit-identical on every replica, so
///     served results are invariant to replica count and routing.
///   * Heterogeneous: an explicit list of caller-owned backends
///     (distinct devices, mixed fidelities). Routing decides which
///     device serves which structure; structure affinity keeps that
///     assignment sticky.
class BackendPool {
 public:
  BackendPool() = default;
  /// `primary` plus replicas-1 clone_replica() copies (total size ==
  /// replicas). The primary stays caller-owned (a pool of one never
  /// clones, preserving the single-backend ServeSession behaviour);
  /// throws std::invalid_argument when replicas == 0 or the backend
  /// cannot clone itself.
  explicit BackendPool(backend::Backend& primary, std::size_t replicas = 1);
  /// Heterogeneous pool of caller-owned replicas (all must outlive the
  /// pool). Throws std::invalid_argument on an empty or null-holding
  /// list.
  explicit BackendPool(std::vector<backend::Backend*> replicas);

  BackendPool(BackendPool&&) = default;
  BackendPool& operator=(BackendPool&&) = default;
  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  std::size_t size() const { return replicas_.size(); }
  backend::Backend& replica(std::size_t i) const { return *replicas_.at(i); }
  /// All replicas deterministic: the pool-level gate for the result
  /// cache (folding gates on the *executing* replica instead).
  bool deterministic() const;
  /// Sum of every replica's inference count -- the pool-level view of
  /// the Backend accounting contract (clones count independently).
  std::uint64_t total_inference_count() const;

 private:
  std::vector<backend::Backend*> replicas_;
  std::vector<std::unique_ptr<backend::Backend>> owned_;  // clones only
};

/// Observer of a session's admitted traffic, for deterministic
/// record/replay (qoc::replay implements this as replay::Recorder).
/// The session invokes the sink at three points:
///
///   * on_circuit / on_observable -- once per FRESH registry entry (a
///     register call deduplicated onto an existing entry is not
///     re-reported; the entry's id identifies it in later jobs).
///   * on_submit -- once per ADMITTED job, at submission time, under
///     the session's queue lock and before the job can execute: a
///     submission record is always observed before its result record.
///     Shed jobs (QueueFullError) are never reported -- they consume a
///     (client, seq) pair but produce nothing to replay; the per-client
///     sequence in the records may therefore have gaps.
///   * on_result -- once per fulfilled future carrying a value (cache
///     hits and folded duplicates included; each folded job reports the
///     fanned-out result under its own stream). A run job's result is
///     its <Z_q> vector, an expect job's its one energy. Jobs failed by
///     a backend error report no result.
///
/// `stream` is ServeSession::client_stream(client, seq) -- unique per
/// job within a session, so sinks may key pending jobs on it.
/// Implementations must be internally synchronized (callbacks arrive
/// from submitter and lane threads concurrently) and must not call back
/// into the session (on_submit runs under session locks).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_circuit(std::uint64_t circuit_id,
                          std::uint64_t structure_hash,
                          const circuit::Circuit& circuit) = 0;
  virtual void on_observable(std::uint64_t observable_id,
                             const exec::CompiledObservable& observable) = 0;
  virtual void on_submit(std::uint32_t client, std::uint64_t seq,
                         std::uint64_t circuit_id, std::uint64_t observable_id,
                         std::span<const double> theta,
                         std::span<const double> input,
                         std::chrono::nanoseconds since_session_start,
                         std::uint64_t stream) = 0;
  virtual void on_result(std::uint64_t stream,
                         std::span<const double> result) = 0;
};

/// Coalescing, caching and admission policy of a ServeSession.
struct ServeOptions {
  /// A structure group is drained as soon as it holds this many jobs.
  std::size_t max_batch = 256;
  /// ... or as soon as its oldest job has waited this long (deadline
  /// flush). The knee of the latency/throughput trade: larger values
  /// coalesce more under sparse traffic but add tail latency.
  std::chrono::microseconds max_delay{200};
  /// Worker threads per drain call (passed to run_batch / expect_batch
  /// after capping at an equal share of what the shared pool can
  /// actually supply across concurrently-draining replica lanes);
  /// 0 = one per hardware core.
  unsigned exec_threads = 0;
  /// Result-cache capacity in entries; 0 disables the cache. The cache
  /// only ever activates when every pool replica is deterministic().
  std::size_t result_cache_capacity = 0;
  /// Admission bound: maximum jobs admitted but not yet completed
  /// (queued in buckets + routed to lanes + executing). 0 = unbounded.
  /// Result-cache hits complete inline and are never counted against
  /// the bound.
  std::size_t max_queue = 0;
  /// What happens to a submit at the bound.
  OverloadPolicy overload = OverloadPolicy::Block;
  /// Fold bitwise-identical bindings within one batch into a single
  /// execution when the executing replica is deterministic(). Purely a
  /// throughput knob: results are unchanged (and stochastic replicas
  /// never fold -- distinct jobs own distinct pinned streams).
  bool fold_duplicates = true;
  /// Opt-in traffic recorder (see TraceSink). Null: no recording, no
  /// overhead on the submit path beyond one pointer test.
  std::shared_ptr<TraceSink> trace_sink;
};

/// Per-replica slice of the service counters: occupancy and flush
/// causes are attributed to the replica whose lane drained the batch,
/// so a cold replica shows up as zeros instead of being averaged into
/// the aggregate.
struct ReplicaMetrics {
  std::string backend_name;
  std::uint64_t batches = 0;          // drain calls this replica executed
  std::uint64_t coalesced_jobs = 0;   // jobs drained (incl. folded)
  std::uint64_t executed_jobs = 0;    // evaluations actually run (folds excluded)
  std::uint64_t size_flushes = 0;     // this replica's drains by max_batch
  std::uint64_t deadline_flushes = 0; //   ... by max_delay
  std::uint64_t affinity_routes = 0;  // batches routed by sticky structure affinity
  std::uint64_t assigned_structures = 0;  // structures first placed here
  std::size_t inflight_jobs = 0;      // routed to this lane, not yet completed
  double mean_batch_occupancy = 0.0;  // coalesced_jobs / batches
};

/// Point-in-time service counters. Latency percentiles are estimated
/// from a full-history log-scale histogram of every completion (cache
/// hits included -- they are served requests too): exact below 8ns,
/// within 6.25% relative error above. Aggregate batch/flush counters
/// are the sums of the per-replica slices.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;        // jobs accepted (incl. cache hits)
  std::uint64_t completed = 0;        // futures fulfilled with a value
  std::uint64_t failed = 0;           // futures fulfilled with an exception
  std::uint64_t cache_hits = 0;       // served without touching the backend
  std::uint64_t folded_jobs = 0;      // served from a batch-mate's result
  std::uint64_t shed_jobs = 0;        // rejected with QueueFullError
  std::uint64_t batches = 0;          // backend drain calls completed
  std::uint64_t coalesced_jobs = 0;   // jobs drained through those calls
  std::uint64_t size_flushes = 0;     // completed drains triggered by max_batch
  std::uint64_t deadline_flushes = 0; //   ... by max_delay (batch and flush
                                      //   counters commit when a batch
                                      //   finishes, not when it is routed --
                                      //   a batch queued behind a busy
                                      //   replica shows up in in_flight)
  std::size_t queue_depth = 0;        // jobs coalescing in buckets right now
  std::size_t peak_queue_depth = 0;
  std::size_t in_flight = 0;          // admitted, not yet completed (the
                                      //   quantity max_queue bounds)
  double mean_batch_occupancy = 0.0;  // coalesced_jobs / batches
  double p50_latency_us = 0.0;        // submit -> future fulfilled
  double p99_latency_us = 0.0;
  double throughput_per_s = 0.0;      // completed / session lifetime
  unsigned pool_workers = 0;          // common::ThreadPool::global() view
  std::size_t pool_pending = 0;       //   at snapshot time
  std::vector<ReplicaMetrics> replicas;  // one slice per pool replica
};

/// Ref-counted handle to a circuit compiled once inside a session's
/// registry. Copying shares the compiled plan; the registry drops its
/// (weak) reference when the last handle dies. Handles are only valid
/// for submission to the session that created them.
class CircuitHandle {
 public:
  CircuitHandle() = default;
  bool valid() const { return entry_ != nullptr; }
  const exec::CompiledCircuit& plan() const;
  /// Session-unique structure id (also the coalescing/cache key).
  std::uint64_t id() const;

 private:
  friend class ServeSession;
  explicit CircuitHandle(std::shared_ptr<const detail::CircuitEntry> e)
      : entry_(std::move(e)) {}
  std::shared_ptr<const detail::CircuitEntry> entry_;
};

/// Ref-counted handle to a registered observable (for expectation
/// jobs), tied to its session exactly like CircuitHandle.
class ObservableHandle {
 public:
  ObservableHandle() = default;
  bool valid() const { return entry_ != nullptr; }
  const exec::CompiledObservable& observable() const;
  std::uint64_t id() const;

 private:
  friend class ServeSession;
  explicit ObservableHandle(std::shared_ptr<const detail::ObservableEntry> e)
      : entry_(std::move(e)) {}
  std::shared_ptr<const detail::ObservableEntry> entry_;
};

/// One client's submission endpoint. Move-only: each Client owns a
/// private submission sequence whose (client id, sequence) pairs pin
/// the PRNG streams of its stochastic jobs, so duplicating a Client
/// would duplicate streams. A Client may be driven by one thread at a
/// time (the usual one-client-per-thread pattern); distinct Clients are
/// safe to use concurrently. Clients must not outlive their session.
class Client {
 public:
  Client() = default;
  // Moves detach the source (it reverts to the default-constructed,
  // throwing state): a defaulted move would leave a live duplicate
  // endpoint whose submissions reuse the same (client id, sequence)
  // stream pins.
  Client(Client&& other) noexcept { *this = std::move(other); }
  Client& operator=(Client&& other) noexcept {
    if (this == &other) return *this;
    session_ = other.session_;
    id_ = other.id_;
    seq_ = other.seq_;
    other.session_ = nullptr;
    other.id_ = 0;
    other.seq_ = 0;
    return *this;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::uint32_t id() const { return id_; }

  /// Enqueue one circuit evaluation; the future resolves to <Z_q> per
  /// logical qubit once a coalesced batch containing the job has run
  /// (or immediately, on a result-cache hit). Bindings are copied, so
  /// the caller's buffers may be reused as soon as submit returns.
  /// This is ServeSession::submit_pinned under the client's (id, next
  /// sequence number); a submission that throws consumes no sequence
  /// number. Throws std::invalid_argument on a foreign/invalid handle
  /// or too-short or non-finite bindings, std::runtime_error after
  /// shutdown.
  std::future<std::vector<double>> submit(const CircuitHandle& circuit,
                                          std::span<const double> theta,
                                          std::span<const double> input = {});

  /// Enqueue one Hamiltonian-expectation evaluation (<H> of the bound
  /// ansatz state); drained through Backend::expect_batch. Numbered and
  /// checked like submit, and additionally throws
  /// std::invalid_argument on a foreign/invalid observable handle or
  /// one whose qubit count differs from the circuit's.
  std::future<double> submit_expect(const CircuitHandle& circuit,
                                    const ObservableHandle& observable,
                                    std::span<const double> theta,
                                    std::span<const double> input = {});

 private:
  friend class ServeSession;
  Client(ServeSession* session, std::uint32_t id)
      : session_(session), id_(id) {}
  ServeSession* session_ = nullptr;
  std::uint32_t id_ = 0;
  std::uint64_t seq_ = 0;
};

class ServeSession {
 public:
  /// Single-replica convenience: wraps `backend` in a pool of one (no
  /// clone -- the caller's backend executes every job). The backend
  /// must outlive the session.
  explicit ServeSession(backend::Backend& backend, ServeOptions options = {})
      : ServeSession(BackendPool(backend, 1), options) {}

  /// Sharded session: takes ownership of the pool; the dispatcher and
  /// one drain-lane thread per replica start immediately. Caller-owned
  /// replicas inside the pool must outlive the session.
  explicit ServeSession(BackendPool pool, ServeOptions options = {});

  /// Drains every queued job (fulfilling all futures), then joins the
  /// dispatcher and every drain lane. Equivalent to shutdown().
  ~ServeSession();

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Compile-or-reuse: structurally identical circuits (same gates,
  /// operands and parameter bindings; exec::structure_equal) share one
  /// plan, however many clients register them.
  CircuitHandle register_circuit(const circuit::Circuit& c);

  /// Register an observable for submit_expect jobs.
  ObservableHandle register_observable(exec::CompiledObservable observable);

  /// Mint a new client endpoint. Client ids are assigned in call order,
  /// so creating clients in a fixed order makes every stochastic stream
  /// assignment reproducible across runs.
  Client client();

  /// The one submission path: enqueue a job under an explicit (client
  /// id, sequence) identity, pinning exactly the PRNG stream
  /// client_stream(client_id, seq). Client::submit / submit_expect
  /// call these with the client's own id and next sequence number;
  /// qoc::replay calls them directly to re-submit a recorded stream
  /// whose per-client sequences have gaps (shed jobs consume a sequence
  /// number but are never recorded). The caller owns uniqueness: two
  /// in-flight jobs sharing (client_id, seq) share a stream, which
  /// breaks the determinism contract for stochastic backends and the
  /// uniqueness TraceSink keys on. Checks, throws and admission control
  /// are those documented on Client::submit / submit_expect.
  std::future<std::vector<double>> submit_pinned(
      std::uint32_t client_id, std::uint64_t seq, const CircuitHandle& circuit,
      std::span<const double> theta, std::span<const double> input = {});
  std::future<double> submit_expect_pinned(
      std::uint32_t client_id, std::uint64_t seq, const CircuitHandle& circuit,
      const ObservableHandle& observable, std::span<const double> theta,
      std::span<const double> input = {});

  /// Stop accepting submissions (blocked submitters wake and throw),
  /// run every queued job to completion (deadlines are ignored;
  /// remaining groups drain immediately through their routed lanes),
  /// and join the dispatcher and every lane. Idempotent. Futures
  /// already handed out stay valid after the session is destroyed.
  void shutdown();

  MetricsSnapshot metrics() const;

  const ServeOptions& options() const { return options_; }
  /// The pool this session drains into.
  const BackendPool& pool() const;

  /// The PRNG stream id pinned to client `client`'s `seq`-th job (top
  /// bit set, keeping the space disjoint from backend-internal auto
  /// serials). Tests use this to reproduce served stochastic results
  /// through direct run_batch calls. Layout: 23 bits of client id, 40
  /// bits of sequence -- both fields masked, so streams are guaranteed
  /// distinct for up to 2^23 clients x 2^40 jobs each per session and
  /// alias (never overflow into the tag bit) beyond that.
  static constexpr std::uint64_t client_stream(std::uint32_t client,
                                               std::uint64_t seq) {
    return (std::uint64_t{1} << 63) |
           ((std::uint64_t{client} & ((std::uint64_t{1} << 23) - 1)) << 40) |
           (seq & ((std::uint64_t{1} << 40) - 1));
  }

 private:
  ServeOptions options_;
  std::shared_ptr<detail::SessionState> state_;
};

}  // namespace qoc::serve
