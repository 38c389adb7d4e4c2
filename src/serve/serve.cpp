#include "qoc/serve/serve.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <list>
#include <map>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "qoc/common/mutex.hpp"
#include "qoc/common/thread_annotations.hpp"
#include "qoc/common/thread_pool.hpp"
#include "qoc/obs/obs.hpp"

namespace qoc::serve {
namespace detail {

using Clock = obs::Clock;

namespace {

/// Gauge update helper for per-lane gauges (names are dynamic, so the
/// static-caching QOC_METRIC_* macros cannot serve them; the session
/// resolves each lane's gauge once at construction). Compiles to
/// nothing at QOC_OBS=0.
inline void set_gauge(obs::Gauge* g, std::int64_t v) noexcept {
#if QOC_OBS
  if (g != nullptr) g->set(v);
#else
  (void)g;
  (void)v;
#endif
}

}  // namespace

struct CircuitEntry {
  const SessionState* owner = nullptr;
  std::uint64_t id = 0;
  exec::CompiledCircuit plan;
};

struct ObservableEntry {
  const SessionState* owner = nullptr;
  std::uint64_t id = 0;
  exec::CompiledObservable observable;
};

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Bitwise hash of a job's cache identity. Doubles are hashed (and later
/// compared) bit-for-bit: the cache must never unify bindings that merely
/// compare equal (e.g. -0.0 vs 0.0 steer sign-sensitive paths apart).
std::uint64_t binding_hash(std::uint64_t circuit_id, std::uint64_t obs_id,
                           std::span<const double> theta,
                           std::span<const double> input) {
  std::uint64_t h = mix(mix(0x5E4EC0DEULL, circuit_id), obs_id);
  for (const double d : theta) h = mix(h, std::bit_cast<std::uint64_t>(d));
  h = mix(h, 0xB1D1B0DAULL);  // theta/input boundary marker
  for (const double d : input) h = mix(h, std::bit_cast<std::uint64_t>(d));
  return h;
}

bool spans_equal_bitwise(std::span<const double> a,
                         std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// Observable identity for registry dedup: the (qubit count, term list)
/// pair fully determines a CompiledObservable (constant and groups are
/// derived from it deterministically). Coefficients compare bitwise.
std::uint64_t observable_hash(const exec::CompiledObservable& o) {
  std::uint64_t h = mix(0x0B5E7FULL, static_cast<std::uint64_t>(o.num_qubits()));
  for (const auto& t : o.terms()) {
    for (const char ch : t.paulis)
      h = mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
    h = mix(h, std::bit_cast<std::uint64_t>(t.coeff));
    h = mix(h, 0x7E53ULL);  // term separator
  }
  return h;
}

bool observable_equal(const exec::CompiledObservable& a,
                      const exec::CompiledObservable& b) {
  if (a.num_qubits() != b.num_qubits() ||
      a.terms().size() != b.terms().size())
    return false;
  for (std::size_t i = 0; i < a.terms().size(); ++i) {
    if (a.terms()[i].paulis != b.terms()[i].paulis ||
        std::bit_cast<std::uint64_t>(a.terms()[i].coeff) !=
            std::bit_cast<std::uint64_t>(b.terms()[i].coeff))
      return false;
  }
  return true;
}

}  // namespace

/// One queued evaluation. Bindings are owned copies, so client buffers
/// are free the moment submit() returns; the promise is fulfilled by the
/// dispatcher after the coalesced batch runs.
struct Job {
  std::vector<double> theta, input;
  std::uint64_t stream = 0;
  std::uint64_t key_hash = 0;  // result-cache key (0 when cache disabled)
  Clock::time_point enqueued;
  bool is_expect = false;
  std::promise<std::vector<double>> run_promise;
  std::promise<double> expect_promise;
};

/// All jobs queued for one (circuit structure, observable) pair --
/// exactly the granularity one run_batch / expect_batch call serves.
/// Jobs live in per-client FIFO lanes; extraction round-robins across
/// lanes so a full batch always carries every waiting client.
struct Bucket {
  std::shared_ptr<const CircuitEntry> circuit;
  std::shared_ptr<const ObservableEntry> observable;  // null for run jobs
  std::map<std::uint32_t, std::deque<Job>> lanes;
  std::size_t size = 0;
  Clock::time_point oldest;   // enqueue time of the oldest queued job
  std::uint32_t next_lane = 0;  // fairness cursor across drains
};

struct CacheEntry {
  std::uint64_t key_hash = 0;
  std::uint64_t circuit_id = 0, obs_id = 0;
  std::vector<double> theta, input;
  bool is_expect = false;
  std::vector<double> run_result;
  double expect_result = 0.0;
};

/// Why the dispatcher flushed a batch; carried to the lane so batch and
/// flush-cause counters commit at completion (a routed-but-queued batch
/// must not inflate a replica's occupancy before it executed).
enum class FlushCause { kSize, kDeadline, kShutdown };

/// One coalesced batch handed from the dispatcher to a replica's drain
/// lane: everything the lane needs to execute, account and fulfil it.
struct ReadyBatch {
  std::shared_ptr<const CircuitEntry> circuit;
  std::shared_ptr<const ObservableEntry> observable;  // null for run jobs
  std::vector<Job> jobs;
  FlushCause cause = FlushCause::kDeadline;
};

/// One replica's drain lane: a worker thread pulling routed batches off
/// a private queue, so batches execute concurrently across replicas.
/// `inflight_jobs` (atomic: read lock-free by the routing pass and by
/// metrics) counts jobs routed here but not yet completed -- the
/// least-queued-work signal. The lane's counter slice lives in
/// SessionState::lane_stats[index], guarded by the session mutex (see
/// LaneCounters).
struct ReplicaLane {
  backend::Backend* replica = nullptr;
  std::size_t index = 0;  // slot in SessionState::lane_stats
  common::Mutex mutex;
  common::CondVar cv;
  std::deque<ReadyBatch> queue QOC_GUARDED_BY(mutex);
  bool stop QOC_GUARDED_BY(mutex) = false;
  std::thread worker;
  std::atomic<std::size_t> inflight_jobs{0};
  // Per-lane occupancy gauge ("qoc_serve_lane<i>_inflight_jobs"),
  // resolved once at session construction; null at QOC_OBS=0.
  obs::Gauge* inflight_gauge = nullptr;
};

/// Per-replica counter slice, indexed by ReplicaLane::index. Owned by
/// SessionState rather than the lane so every counter sits under the
/// one session mutex its writers already hold -- the routing counters
/// are written by the dispatcher at routing time, everything else by
/// the lane at completion -- and the thread-safety analysis can name
/// the guarding capability (it cannot express "guarded by another
/// object's mutex" on a ReplicaLane member).
struct LaneCounters {
  std::uint64_t batches = 0, coalesced_jobs = 0, executed_jobs = 0;
  std::uint64_t size_flushes = 0, deadline_flushes = 0;
  std::uint64_t affinity_routes = 0, assigned_structures = 0;
};

struct SessionState {
  const BackendPool pool;
  const ServeOptions options;
  const bool cache_enabled;
  const bool fold_possible;  // any replica could fold duplicates
  const Clock::time_point started = Clock::now();

  // ---- job queue + metrics (mutex) ----
  mutable common::Mutex mutex;
  common::CondVar cv;        // wakes the dispatcher
  common::CondVar space_cv;  // wakes blocked submitters
  bool stop QOC_GUARDED_BY(mutex) = false;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Bucket> buckets
      QOC_GUARDED_BY(mutex);
  // Jobs coalescing in buckets.
  std::size_t total_queued QOC_GUARDED_BY(mutex) = 0;
  // Admitted jobs not yet fulfilled (buckets + lanes + executing); the
  // quantity max_queue bounds.
  std::size_t in_flight QOC_GUARDED_BY(mutex) = 0;

  // Sticky structure -> replica assignment (outlives the buckets, which
  // are erased when drained: affinity must survive sparse traffic or
  // the per-replica transpile/pattern caches go cold on every flush).
  std::unordered_map<std::uint64_t, std::size_t> structure_affinity
      QOC_GUARDED_BY(mutex);

  std::uint64_t submitted QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t completed QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t failed QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t cache_hits QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t folded_jobs QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t shed_jobs QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t batches QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t coalesced_jobs QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t size_flushes QOC_GUARDED_BY(mutex) = 0;
  std::uint64_t deadline_flushes QOC_GUARDED_BY(mutex) = 0;
  std::size_t peak_queue_depth QOC_GUARDED_BY(mutex) = 0;
  // Full-history submit->fulfil latency histogram (wait-free atomics,
  // deliberately outside the mutex): feeds the metrics() percentiles,
  // replacing the former 8192-sample ring window and its sorted copy.
  obs::Histogram latency_hist;
  // Per-replica counter slices, one per lane (ReplicaLane::index).
  std::vector<LaneCounters> lane_stats QOC_GUARDED_BY(mutex);

  // ---- per-replica drain lanes (vector immutable after construction;
  // each lane's queue/stop sit under its own lane mutex) ----
  std::vector<std::unique_ptr<ReplicaLane>> lanes;
  std::atomic<unsigned> active_drains{0};  // lanes inside a backend call

  // ---- circuit / observable registry (registry_mutex) ----
  common::Mutex registry_mutex;
  std::unordered_map<std::uint64_t,
                     std::vector<std::weak_ptr<const CircuitEntry>>>
      registry QOC_GUARDED_BY(registry_mutex);
  std::unordered_map<std::uint64_t,
                     std::vector<std::weak_ptr<const ObservableEntry>>>
      obs_registry QOC_GUARDED_BY(registry_mutex);
  std::uint64_t next_circuit_id QOC_GUARDED_BY(registry_mutex) = 1;
  std::uint64_t next_observable_id QOC_GUARDED_BY(registry_mutex) = 1;
  std::atomic<std::uint32_t> next_client{0};

  // ---- bounded LRU result cache (cache_mutex) ----
  common::Mutex cache_mutex;
  std::list<CacheEntry> lru QOC_GUARDED_BY(cache_mutex);  // front = MRU
  std::unordered_map<std::uint64_t,
                     std::vector<std::list<CacheEntry>::iterator>>
      cache_index QOC_GUARDED_BY(cache_mutex);

  // ---- dispatcher (join_mutex serialises concurrent shutdown()s) ----
  common::Mutex join_mutex;
  std::thread dispatcher;

  static bool any_replica_deterministic(const BackendPool& p) {
    for (std::size_t i = 0; i < p.size(); ++i)
      if (p.replica(i).deterministic()) return true;
    return false;
  }

  SessionState(BackendPool p, ServeOptions o)
      : pool(std::move(p)),
        options(o),
        cache_enabled(o.result_cache_capacity > 0 && pool.deterministic()),
        fold_possible(o.fold_duplicates && any_replica_deterministic(pool)) {
    lane_stats.resize(pool.size());
    lanes.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      lanes.push_back(std::make_unique<ReplicaLane>());
      lanes.back()->replica = &pool.replica(i);
      lanes.back()->index = i;
#if QOC_OBS
      lanes.back()->inflight_gauge = &obs::Registry::global().gauge(
          "qoc_serve_lane" + std::to_string(i) + "_inflight_jobs");
#endif
    }
  }

  // Drain concurrency: the requested fan-out, capped at a fair share of
  // what the shared thread pool can actually supply across every lane
  // currently inside a backend call (each lane's own thread counts as
  // one unit of supply). Thread count never affects results (the
  // run_batch determinism contract), so reading stale occupancy is
  // harmless.
  unsigned drain_threads(unsigned drains_now) const {
    const unsigned requested = options.exec_threads == 0
                                   ? hardware_threads()
                                   : options.exec_threads;
    return common::ThreadPool::global().fair_share(requested, drains_now);
  }

  void record_latency(Clock::time_point enqueued, Clock::time_point now) {
    const auto d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - enqueued);
    const std::uint64_t ns =
        d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
    latency_hist.record(ns);
    QOC_METRIC_HISTOGRAM_NS("qoc_serve_latency_ns", ns);
  }

  // ---- result cache -------------------------------------------------------

  const CacheEntry* cache_find_locked(std::uint64_t key_hash,
                                      std::uint64_t circuit_id,
                                      std::uint64_t obs_id,
                                      std::span<const double> theta,
                                      std::span<const double> input)
      QOC_REQUIRES(cache_mutex) {
    const auto it = cache_index.find(key_hash);
    if (it == cache_index.end()) return nullptr;
    for (const auto& entry_it : it->second) {
      if (entry_it->circuit_id != circuit_id || entry_it->obs_id != obs_id)
        continue;
      if (!spans_equal_bitwise(entry_it->theta, theta) ||
          !spans_equal_bitwise(entry_it->input, input))
        continue;
      lru.splice(lru.begin(), lru, entry_it);  // refresh recency
      return &*entry_it;
    }
    return nullptr;
  }

  void cache_insert(CacheEntry entry) QOC_EXCLUDES(cache_mutex) {
    const common::MutexLock lock(cache_mutex);
    if (cache_find_locked(entry.key_hash, entry.circuit_id, entry.obs_id,
                          entry.theta, entry.input) != nullptr)
      return;  // a concurrent duplicate already landed; keep it fresh
    while (lru.size() >= options.result_cache_capacity) {
      const auto victim = std::prev(lru.end());
      auto& bucket = cache_index[victim->key_hash];
      std::erase(bucket, victim);
      if (bucket.empty()) cache_index.erase(victim->key_hash);
      lru.pop_back();
    }
    lru.push_front(std::move(entry));
    cache_index[lru.front().key_hash].push_back(lru.begin());
  }

  // ---- queue --------------------------------------------------------------

  /// Remove up to `max` jobs from `b`, one per client lane per round.
  std::vector<Job> extract_locked(Bucket& b, std::size_t max)
      QOC_REQUIRES(mutex) {
    std::vector<Job> out;
    out.reserve(std::min(b.size, max));
    while (out.size() < max && b.size > 0) {
      auto it = b.lanes.lower_bound(b.next_lane);
      if (it == b.lanes.end()) it = b.lanes.begin();
      out.push_back(std::move(it->second.front()));
      it->second.pop_front();
      --b.size;
      --total_queued;
      b.next_lane = it->first + 1;
      if (it->second.empty()) b.lanes.erase(it);
    }
    if (b.size > 0) {
      b.oldest = Clock::time_point::max();
      for (const auto& [client, lane] : b.lanes)
        b.oldest = std::min(b.oldest, lane.front().enqueued);
    }
    return out;
  }

  /// Commits one drained batch to the aggregate and per-replica batch /
  /// occupancy / flush-cause counters. Called by the lane at completion
  /// (success or failure) -- never at routing time, so a batch queued
  /// behind a busy replica is not reported as executed.
  void commit_batch_locked(const ReplicaLane& lane, FlushCause cause,
                           std::size_t jobs) QOC_REQUIRES(mutex) {
    LaneCounters& slice = lane_stats[lane.index];
    ++batches;
    ++slice.batches;
    coalesced_jobs += jobs;
    slice.coalesced_jobs += jobs;
    QOC_METRIC_COUNTER_ADD("qoc_serve_batches_total", 1);
    QOC_METRIC_COUNTER_ADD("qoc_serve_coalesced_jobs_total", jobs);
    switch (cause) {
      case FlushCause::kSize:
        ++size_flushes;
        ++slice.size_flushes;
        QOC_METRIC_COUNTER_ADD("qoc_serve_size_flushes_total", 1);
        break;
      case FlushCause::kDeadline:
        ++deadline_flushes;
        ++slice.deadline_flushes;
        QOC_METRIC_COUNTER_ADD("qoc_serve_deadline_flushes_total", 1);
        break;
      case FlushCause::kShutdown:
        break;
    }
  }

  /// Occupies one drain slot for the lifetime of a backend call, so
  /// fair_share sees how many lanes compete for the shared thread pool
  /// no matter how the call exits.
  struct DrainSlot {
    std::atomic<unsigned>& drains;
    const unsigned now;  // count including this slot
    explicit DrainSlot(std::atomic<unsigned>& d)
        : drains(d),
          now(d.fetch_add(1, std::memory_order_relaxed) + 1) {}
    ~DrainSlot() { drains.fetch_sub(1, std::memory_order_relaxed); }
  };

  /// Run one coalesced batch through `lane`'s replica and fulfil every
  /// promise. Called by the lane's worker thread with no lock held.
  void execute(ReplicaLane& lane, ReadyBatch ready) QOC_EXCLUDES(mutex) {
    const auto& circuit = ready.circuit;
    const auto& observable = ready.observable;
    std::vector<Job>& batch = ready.jobs;
    // One complete span per drained batch; the per-job async spans
    // opened at submission close inside it, linking each job's
    // timeline to the batch that served it.
    QOC_TRACE_SPAN_NAMED(drain_span, "serve", "drain");
    drain_span.annotate("jobs", static_cast<std::int64_t>(batch.size()));

    // In-flight duplicate folding: on a deterministic replica,
    // bitwise-identical bindings in this batch collapse to one
    // evaluation whose result fans out to every duplicate. Stochastic
    // replicas never fold -- each job owns a distinct pinned PRNG
    // stream, so duplicates are distinct draws by contract. eval_of[i]
    // maps job i to its evaluation; leaders[e] is the job that
    // contributed evaluation e.
    const bool fold =
        fold_possible && batch.size() > 1 && lane.replica->deterministic();
    std::vector<std::size_t> eval_of(batch.size());
    std::vector<std::size_t> leaders;
    leaders.reserve(batch.size());
    if (fold) {
      // Group by the bitwise binding hash -- the job's cache key when
      // the cache is enabled, computed here otherwise so the submit
      // hot path never pays for hashing it may not need.
      const std::uint64_t obs_id = observable == nullptr ? 0 : observable->id;
      std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::uint64_t h =
            cache_enabled ? batch[i].key_hash
                          : binding_hash(circuit->id, obs_id, batch[i].theta,
                                         batch[i].input);
        auto& mates = groups[h];
        std::size_t found = static_cast<std::size_t>(-1);
        for (const std::size_t j : mates) {
          if (spans_equal_bitwise(batch[j].theta, batch[i].theta) &&
              spans_equal_bitwise(batch[j].input, batch[i].input)) {
            found = eval_of[j];
            break;
          }
        }
        if (found == static_cast<std::size_t>(-1)) {
          eval_of[i] = leaders.size();
          leaders.push_back(i);
          mates.push_back(i);
        } else {
          eval_of[i] = found;
        }
      }
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        eval_of[i] = i;
        leaders.push_back(i);
      }
    }

    std::vector<exec::Evaluation> evals;
    evals.reserve(leaders.size());
    for (const std::size_t i : leaders)
      evals.push_back({batch[i].theta, batch[i].input,
                       exec::Evaluation::kNoShift, 0.0, batch[i].stream});

    // Only the backend call itself can fail a job. Counters and
    // latencies are committed BEFORE any promise is fulfilled, so a
    // client that observes its future ready also observes metrics that
    // count it; fulfilment afterwards is nothrow (fresh promises,
    // nothrow payload moves), and cache insertion swallows its own
    // failures -- a job whose result was computed must not be failed
    // retroactively because memoising it ran out of memory.
    std::vector<std::vector<double>> run_results;
    std::vector<double> expect_results;
    try {
      const DrainSlot slot(active_drains);
      const unsigned threads = drain_threads(slot.now);
      if (observable == nullptr)
        run_results = lane.replica->run_batch(circuit->plan, evals, threads);
      else
        expect_results = lane.replica->expect_batch(
            circuit->plan, observable->observable, evals, threads);
    } catch (...) {
      const auto error = std::current_exception();
      {
        const common::MutexLock lock(mutex);
        commit_batch_locked(lane, ready.cause, batch.size());
        failed += batch.size();
        in_flight -= batch.size();
      }
      QOC_METRIC_COUNTER_ADD("qoc_serve_jobs_failed_total", batch.size());
      const std::size_t left_failed =
          lane.inflight_jobs.fetch_sub(batch.size(),
                                       std::memory_order_relaxed) -
          batch.size();
      set_gauge(lane.inflight_gauge, static_cast<std::int64_t>(left_failed));
      space_cv.notify_all();
      for (Job& j : batch) {
        QOC_TRACE_ASYNC_END("serve", "job", j.stream);
        if (j.is_expect)
          j.expect_promise.set_exception(error);
        else
          j.run_promise.set_exception(error);
      }
      return;
    }

    {
      const auto now = Clock::now();
      const common::MutexLock lock(mutex);
      commit_batch_locked(lane, ready.cause, batch.size());
      completed += batch.size();
      folded_jobs += batch.size() - leaders.size();
      lane_stats[lane.index].executed_jobs += leaders.size();
      in_flight -= batch.size();
      for (const Job& j : batch) record_latency(j.enqueued, now);
    }
    QOC_METRIC_COUNTER_ADD("qoc_serve_jobs_completed_total", batch.size());
    QOC_METRIC_COUNTER_ADD("qoc_serve_jobs_folded_total",
                           batch.size() - leaders.size());
    const std::size_t left =
        lane.inflight_jobs.fetch_sub(batch.size(), std::memory_order_relaxed) -
        batch.size();
    set_gauge(lane.inflight_gauge, static_cast<std::int64_t>(left));
    space_cv.notify_all();

    // Result records: one per fulfilled job, folded duplicates included
    // (each reports its fanned-out copy under its own stream). Recorded
    // before fulfilment so a trace snapshot taken after every future
    // resolved is guaranteed complete.
    if (auto* sink = options.trace_sink.get()) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::size_t e = eval_of[i];
        if (observable == nullptr)
          sink->on_run_result(batch[i].stream, run_results[e]);
        else
          sink->on_expect_result(batch[i].stream, expect_results[e]);
      }
    }

    if (cache_enabled) {
      for (const std::size_t i : leaders) {
        const std::size_t e = eval_of[i];
        try {
          if (observable == nullptr)
            cache_insert({batch[i].key_hash, circuit->id, 0, batch[i].theta,
                          batch[i].input, false, run_results[e], 0.0});
          else
            cache_insert({batch[i].key_hash, circuit->id, observable->id,
                          batch[i].theta, batch[i].input, true, {},
                          expect_results[e]});
        } catch (...) {
        }
      }
    }

    // Fulfil duplicates with copies; the last job referencing an
    // evaluation takes the result by move (the common unfolded case
    // moves every result exactly as before).
    std::vector<std::size_t> last_user(leaders.size());
    for (std::size_t i = 0; i < batch.size(); ++i) last_user[eval_of[i]] = i;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t e = eval_of[i];
      QOC_TRACE_ASYNC_END("serve", "job", batch[i].stream);
      if (observable == nullptr) {
        if (last_user[e] == i)
          batch[i].run_promise.set_value(std::move(run_results[e]));
        else
          batch[i].run_promise.set_value(run_results[e]);
      } else {
        batch[i].expect_promise.set_value(expect_results[e]);
      }
    }
  }

  /// Lane worker: pull routed batches off this replica's queue and
  /// execute them. Exits once stop is set AND the queue is drained --
  /// shutdown sets lane stops only after the dispatcher has routed
  /// every remaining job, so no future is ever abandoned.
  void lane_loop(ReplicaLane& lane) QOC_EXCLUDES(mutex, lane.mutex) {
    common::UniqueLock lock(lane.mutex);
    for (;;) {
      if (lane.queue.empty()) {
        if (lane.stop) return;
        lane.cv.wait(lane.mutex);
        continue;
      }
      ReadyBatch batch = std::move(lane.queue.front());
      lane.queue.pop_front();
      lock.unlock();
      execute(lane, std::move(batch));
      lock.lock();
    }
  }

  /// Pick the lane for a flushed batch of `circuit_id`. Structure
  /// affinity first: a structure that has routed before goes back to
  /// its replica, keeping that replica's transpile / lowered-pattern
  /// caches hot. New structures are placed on the lane with the least
  /// in-flight work (ties break to the lowest index, so single-replica
  /// sessions and idle pools route deterministically).
  ReplicaLane& route_locked(std::uint64_t circuit_id, bool& was_affinity)
      QOC_REQUIRES(mutex) {
    const auto it = structure_affinity.find(circuit_id);
    if (it != structure_affinity.end()) {
      was_affinity = true;
      return *lanes[it->second];
    }
    std::size_t best = 0;
    std::size_t best_load =
        lanes[0]->inflight_jobs.load(std::memory_order_relaxed);
    for (std::size_t i = 1; i < lanes.size(); ++i) {
      const std::size_t load =
          lanes[i]->inflight_jobs.load(std::memory_order_relaxed);
      if (load < best_load) {
        best = i;
        best_load = load;
      }
    }
    structure_affinity.emplace(circuit_id, best);
    was_affinity = false;
    return *lanes[best];
  }

  /// Coalescer loop: wait until some bucket is full (size flush) or its
  /// oldest job's deadline passed (deadline flush), extract one batch
  /// and route it to a replica's drain lane, repeat. Execution happens
  /// on the lane threads, so flush decisions never wait on a backend
  /// call and batches for different replicas run concurrently. After
  /// stop() every remaining job routes immediately, so shutdown never
  /// abandons a future.
  void dispatcher_loop() QOC_EXCLUDES(mutex) {
    common::UniqueLock lock(mutex);
    for (;;) {
      if (total_queued == 0) {
        if (stop) return;
        cv.wait(mutex);
        continue;
      }
      // Expired deadlines outrank size-full buckets: under sustained
      // full-batch traffic on one structure, other structures' jobs
      // must still flush within max_delay (no cross-structure
      // starvation). Size flushes only apply while every deadline is
      // still in the future.
      const auto now = Clock::now();
      auto pick = buckets.end();
      bool by_size = false;
      auto earliest = Clock::time_point::max();
      auto earliest_it = buckets.end();
      auto full_it = buckets.end();
      for (auto it = buckets.begin(); it != buckets.end(); ++it) {
        if (it->second.size == 0) continue;
        if (full_it == buckets.end() && it->second.size >= options.max_batch)
          full_it = it;
        const auto deadline = it->second.oldest + options.max_delay;
        if (deadline < earliest) {
          earliest = deadline;
          earliest_it = it;
        }
      }
      if (stop || earliest <= now) {
        pick = earliest_it;
      } else if (full_it != buckets.end()) {
        pick = full_it;
        by_size = true;
      } else {
        cv.wait_until(mutex, earliest);
        continue;
      }

      auto& bucket = pick->second;
      const auto circuit = bucket.circuit;
      const auto observable = bucket.observable;
      std::vector<Job> batch = extract_locked(bucket, options.max_batch);
      if (bucket.size == 0) buckets.erase(pick);

      bool was_affinity = false;
      ReplicaLane& lane = route_locked(circuit->id, was_affinity);
      if (was_affinity) {
        ++lane_stats[lane.index].affinity_routes;
        QOC_METRIC_COUNTER_ADD("qoc_serve_affinity_routes_total", 1);
      } else {
        ++lane_stats[lane.index].assigned_structures;
        QOC_METRIC_COUNTER_ADD("qoc_serve_assigned_structures_total", 1);
      }
      const FlushCause cause = by_size   ? FlushCause::kSize
                               : !stop   ? FlushCause::kDeadline
                                         : FlushCause::kShutdown;
      QOC_TRACE_SPAN_ARG("serve", "route", "lane",
                         static_cast<std::int64_t>(lane.index));
      QOC_TRACE_COUNTER("qoc_serve_queue_depth", total_queued);
      const std::size_t routed =
          lane.inflight_jobs.fetch_add(batch.size(),
                                       std::memory_order_relaxed) +
          batch.size();
      set_gauge(lane.inflight_gauge, static_cast<std::int64_t>(routed));
      {
        // Lock order session mutex -> lane mutex, everywhere: lanes
        // only take the session mutex with their own mutex released.
        const common::MutexLock lane_lock(lane.mutex);
        lane.queue.push_back(
            ReadyBatch{circuit, observable, std::move(batch), cause});
      }
      lane.cv.notify_one();
    }
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// BackendPool
// ---------------------------------------------------------------------------

BackendPool::BackendPool(backend::Backend& primary, std::size_t replicas) {
  if (replicas == 0)
    throw std::invalid_argument("BackendPool: replicas == 0");
  replicas_.reserve(replicas);
  replicas_.push_back(&primary);
  for (std::size_t i = 1; i < replicas; ++i) {
    auto clone = primary.clone_replica();
    if (clone == nullptr)
      throw std::invalid_argument("BackendPool: backend '" + primary.name() +
                                  "' does not support clone_replica()");
    replicas_.push_back(clone.get());
    owned_.push_back(std::move(clone));
  }
}

BackendPool::BackendPool(std::vector<backend::Backend*> replicas)
    : replicas_(std::move(replicas)) {
  if (replicas_.empty())
    throw std::invalid_argument("BackendPool: empty replica list");
  for (const auto* b : replicas_)
    if (b == nullptr)
      throw std::invalid_argument("BackendPool: null replica");
}

bool BackendPool::deterministic() const {
  for (const auto* b : replicas_)
    if (!b->deterministic()) return false;
  return !replicas_.empty();
}

std::uint64_t BackendPool::total_inference_count() const {
  std::uint64_t total = 0;
  for (const auto* b : replicas_) total += b->inference_count();
  return total;
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

const exec::CompiledCircuit& CircuitHandle::plan() const {
  if (!entry_) throw std::logic_error("CircuitHandle: empty handle");
  return entry_->plan;
}

std::uint64_t CircuitHandle::id() const {
  if (!entry_) throw std::logic_error("CircuitHandle: empty handle");
  return entry_->id;
}

const exec::CompiledObservable& ObservableHandle::observable() const {
  if (!entry_) throw std::logic_error("ObservableHandle: empty handle");
  return entry_->observable;
}

std::uint64_t ObservableHandle::id() const {
  if (!entry_) throw std::logic_error("ObservableHandle: empty handle");
  return entry_->id;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

std::future<std::vector<double>> Client::submit(const CircuitHandle& circuit,
                                                std::span<const double> theta,
                                                std::span<const double> input) {
  if (session_ == nullptr)
    throw std::logic_error("serve::Client: default-constructed client");
  return session_->submit_run(*this, circuit, theta, input);
}

std::future<double> Client::submit_expect(const CircuitHandle& circuit,
                                          const ObservableHandle& observable,
                                          std::span<const double> theta,
                                          std::span<const double> input) {
  if (session_ == nullptr)
    throw std::logic_error("serve::Client: default-constructed client");
  return session_->submit_expect(*this, circuit, observable, theta, input);
}

// ---------------------------------------------------------------------------
// ServeSession
// ---------------------------------------------------------------------------

ServeSession::ServeSession(BackendPool pool, ServeOptions options)
    : options_(options) {
  if (pool.size() == 0)
    throw std::invalid_argument("ServeSession: empty BackendPool");
  if (options_.max_batch == 0)
    throw std::invalid_argument("ServeSession: max_batch == 0");
  if (options_.max_delay.count() < 0)
    throw std::invalid_argument("ServeSession: negative max_delay");
  state_ = std::make_shared<detail::SessionState>(std::move(pool), options_);
  state_->dispatcher =
      std::thread([s = state_.get()] { s->dispatcher_loop(); });
  for (auto& lane : state_->lanes)
    lane->worker = std::thread(
        [s = state_.get(), l = lane.get()] { s->lane_loop(*l); });
}

ServeSession::~ServeSession() { shutdown(); }

const BackendPool& ServeSession::pool() const { return state_->pool; }

void ServeSession::shutdown() {
  {
    const common::MutexLock lock(state_->mutex);
    state_->stop = true;
  }
  state_->cv.notify_all();
  state_->space_cv.notify_all();
  const common::MutexLock lock(state_->join_mutex);
  // Join order is the drain order: the dispatcher first (it routes
  // every remaining bucket to a lane before exiting), then the lanes
  // (each drains its queue before honouring stop).
  if (state_->dispatcher.joinable()) state_->dispatcher.join();
  for (auto& lane : state_->lanes) {
    {
      const common::MutexLock lane_lock(lane->mutex);
      lane->stop = true;
    }
    lane->cv.notify_all();
  }
  for (auto& lane : state_->lanes)
    if (lane->worker.joinable()) lane->worker.join();
}

CircuitHandle ServeSession::register_circuit(const circuit::Circuit& c) {
  auto* s = state_.get();
  const std::uint64_t h = exec::structure_hash(c);
  const common::MutexLock lock(s->registry_mutex);
  auto& bucket = s->registry[h];
  std::erase_if(bucket, [](const auto& w) { return w.expired(); });
  for (const auto& weak : bucket) {
    if (const auto entry = weak.lock()) {
      if (exec::structure_equal(c, entry->plan.source()))
        return CircuitHandle(entry);
    }
  }
  auto entry = std::make_shared<const detail::CircuitEntry>(detail::CircuitEntry{
      s, s->next_circuit_id++, exec::CompiledCircuit::compile(c)});
  bucket.push_back(entry);
  // Fresh entries only: a dedup hit above returned without reaching
  // here, so a trace carries each structure exactly once.
  if (auto* sink = s->options.trace_sink.get())
    sink->on_circuit(entry->id, h, c);
  return CircuitHandle(std::move(entry));
}

ObservableHandle ServeSession::register_observable(
    exec::CompiledObservable observable) {
  // Dedup like register_circuit: identical observables must share one
  // id, or jobs from different clients would land in different
  // coalescing buckets (and result-cache keys) and never batch.
  auto* s = state_.get();
  const std::uint64_t h = detail::observable_hash(observable);
  const common::MutexLock lock(s->registry_mutex);
  auto& bucket = s->obs_registry[h];
  std::erase_if(bucket, [](const auto& w) { return w.expired(); });
  for (const auto& weak : bucket) {
    if (const auto entry = weak.lock()) {
      if (detail::observable_equal(entry->observable, observable))
        return ObservableHandle(entry);
    }
  }
  auto entry = std::make_shared<const detail::ObservableEntry>(
      detail::ObservableEntry{s, s->next_observable_id++,
                              std::move(observable)});
  bucket.push_back(entry);
  if (auto* sink = s->options.trace_sink.get())
    sink->on_observable(entry->id, entry->observable);
  return ObservableHandle(std::move(entry));
}

Client ServeSession::client() {
  return Client(this, state_->next_client.fetch_add(1));
}

namespace {

void validate_submission(const detail::SessionState* owner,
                         const detail::CircuitEntry* entry,
                         std::span<const double> theta,
                         std::span<const double> input) {
  if (entry == nullptr)
    throw std::invalid_argument("serve: submit with an empty CircuitHandle");
  if (entry->owner != owner)
    throw std::invalid_argument(
        "serve: CircuitHandle belongs to a different session");
  if (theta.size() < static_cast<std::size_t>(entry->plan.num_trainable()))
    throw std::invalid_argument("serve: theta shorter than the plan's "
                                "trainable-parameter count");
  if (input.size() < static_cast<std::size_t>(entry->plan.num_inputs()))
    throw std::invalid_argument(
        "serve: input shorter than the plan's feature count");
  // Rejected here, not in the lane: a non-finite binding coalesced into
  // a sampled batch would fail its batch-mates' jobs too.
  const exec::Evaluation eval{theta, input};
  backend::require_finite(std::span(&eval, 1), "serve");
}

/// Shared submission path for run and expect jobs (they differ only in
/// result type, promise member and observable id): cache probe,
/// job construction, stop check, bucket enqueue and dispatcher nudge
/// all live here exactly once. `observable` is null for run jobs.
template <typename Result>
std::future<Result> submit_impl(
    detail::SessionState* s, std::uint32_t client_id, std::uint64_t seq,
    const std::shared_ptr<const detail::CircuitEntry>& circuit,
    const std::shared_ptr<const detail::ObservableEntry>& observable,
    std::span<const double> theta, std::span<const double> input) {
  constexpr bool kExpect = std::is_same_v<Result, double>;
  QOC_TRACE_SPAN("serve", "submit");
  const auto now = detail::Clock::now();
  const std::uint64_t stream = ServeSession::client_stream(client_id, seq);
  const std::uint64_t obs_id = kExpect ? observable->id : 0;
  // Hashed only for the cache probe: the duplicate-folding identity is
  // the same hash, but lanes compute it at grouping time so the submit
  // hot path never pays for it when the cache is off.
  const std::uint64_t key_hash =
      s->cache_enabled
          ? detail::binding_hash(circuit->id, obs_id, theta, input)
          : 0;

  if (s->cache_enabled) {
    Result hit{};
    bool found = false;
    {
      const common::MutexLock lock(s->cache_mutex);
      if (const auto* entry = s->cache_find_locked(key_hash, circuit->id,
                                                   obs_id, theta, input)) {
        if constexpr (kExpect)
          hit = entry->expect_result;
        else
          hit = entry->run_result;
        found = true;
      }
    }
    if (found) {
      {
        const common::MutexLock lock(s->mutex);
        if (s->stop) throw std::runtime_error("ServeSession: shut down");
        ++s->submitted;
        ++s->completed;
        ++s->cache_hits;
        s->record_latency(now, detail::Clock::now());
      }
      QOC_METRIC_COUNTER_ADD("qoc_serve_jobs_submitted_total", 1);
      QOC_METRIC_COUNTER_ADD("qoc_serve_jobs_completed_total", 1);
      QOC_METRIC_COUNTER_ADD("qoc_serve_cache_hits_total", 1);
      // Cache hits are admitted, completed jobs: the trace records them
      // like any other (submission immediately followed by its result),
      // so a replay against a cache-less session reproduces them.
      if (auto* sink = s->options.trace_sink.get()) {
        const auto since = std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - s->started);
        sink->on_submit(client_id, seq, circuit->id, obs_id, theta, input,
                        since, stream);
        if constexpr (kExpect)
          sink->on_expect_result(stream, hit);
        else
          sink->on_run_result(stream, hit);
      }
      std::promise<Result> p;
      auto f = p.get_future();
      p.set_value(std::move(hit));
      return f;
    }
  }

  detail::Job job;
  job.theta.assign(theta.begin(), theta.end());
  job.input.assign(input.begin(), input.end());
  job.stream = stream;
  job.key_hash = key_hash;
  job.enqueued = now;
  job.is_expect = kExpect;
  auto future = [&job] {
    if constexpr (kExpect)
      return job.expect_promise.get_future();
    else
      return job.run_promise.get_future();
  }();

  {
    common::UniqueLock lock(s->mutex);
    if (s->stop) throw std::runtime_error("ServeSession: shut down");
    // Admission control: `in_flight` counts every admitted job until
    // its future is fulfilled (coalescing, routed to a lane, or
    // executing), so the bound caps the whole backlog, not just the
    // buckets the dispatcher has not flushed yet.
    if (s->options.max_queue > 0 && s->in_flight >= s->options.max_queue) {
      if (s->options.overload == OverloadPolicy::Shed) {
        ++s->shed_jobs;
        QOC_METRIC_COUNTER_ADD("qoc_serve_jobs_shed_total", 1);
        lock.unlock();
        std::promise<Result> p;
        auto rejected = p.get_future();
        p.set_exception(std::make_exception_ptr(QueueFullError(
            "ServeSession: queue full (max_queue reached), job shed")));
        return rejected;
      }
      while (!s->stop && s->in_flight >= s->options.max_queue)
        s->space_cv.wait(s->mutex);
      if (s->stop) throw std::runtime_error("ServeSession: shut down");
    }
    ++s->in_flight;
    // Admission record, under the queue lock: the dispatcher needs this
    // same lock to extract the job, so the sink always observes the
    // submission before the job's result. Shed jobs returned above are
    // never recorded -- they consumed a sequence number but produced
    // nothing a replay could check.
    if (auto* sink = s->options.trace_sink.get())
      sink->on_submit(client_id, seq, circuit->id, obs_id, theta, input,
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - s->started),
                      stream);
    auto& bucket = s->buckets[{circuit->id, obs_id}];
    if (bucket.circuit == nullptr) {
      bucket.circuit = circuit;
      bucket.observable = observable;
    }
    if (bucket.size == 0) bucket.oldest = now;
    bucket.lanes[client_id].push_back(std::move(job));
    ++bucket.size;
    ++s->total_queued;
    ++s->submitted;
    s->peak_queue_depth = std::max(s->peak_queue_depth, s->total_queued);
    QOC_METRIC_COUNTER_ADD("qoc_serve_jobs_submitted_total", 1);
    // Per-job async span: begins at admission, ends when the drain
    // lane fulfils the promise; the stable PRNG stream id links the
    // two sides across threads.
    QOC_TRACE_ASYNC_BEGIN("serve", "job", stream);
    // A job never shortens an existing bucket's deadline, so the
    // dispatcher only needs a nudge when a new deadline appears or a
    // size flush becomes possible.
    if (bucket.size == 1 || bucket.size >= s->options.max_batch)
      s->cv.notify_all();
  }
  return future;
}

}  // namespace

std::future<std::vector<double>> ServeSession::submit_run(
    Client& c, const CircuitHandle& circuit, std::span<const double> theta,
    std::span<const double> input) {
  auto* s = state_.get();
  validate_submission(s, circuit.entry_.get(), theta, input);
  return submit_impl<std::vector<double>>(s, c.id_, c.seq_++, circuit.entry_,
                                          nullptr, theta, input);
}

std::future<double> ServeSession::submit_expect(
    Client& c, const CircuitHandle& circuit, const ObservableHandle& observable,
    std::span<const double> theta, std::span<const double> input) {
  auto* s = state_.get();
  validate_submission(s, circuit.entry_.get(), theta, input);
  if (!observable.valid())
    throw std::invalid_argument("serve: submit with an empty ObservableHandle");
  if (observable.entry_->owner != s)
    throw std::invalid_argument(
        "serve: ObservableHandle belongs to a different session");
  if (observable.entry_->observable.num_qubits() !=
      circuit.entry_->plan.num_qubits())
    throw std::invalid_argument("serve: observable qubit count mismatch");
  return submit_impl<double>(s, c.id_, c.seq_++, circuit.entry_,
                             observable.entry_, theta, input);
}

std::future<std::vector<double>> ServeSession::submit_pinned(
    std::uint32_t client_id, std::uint64_t seq, const CircuitHandle& circuit,
    std::span<const double> theta, std::span<const double> input) {
  auto* s = state_.get();
  validate_submission(s, circuit.entry_.get(), theta, input);
  return submit_impl<std::vector<double>>(s, client_id, seq, circuit.entry_,
                                          nullptr, theta, input);
}

std::future<double> ServeSession::submit_expect_pinned(
    std::uint32_t client_id, std::uint64_t seq, const CircuitHandle& circuit,
    const ObservableHandle& observable, std::span<const double> theta,
    std::span<const double> input) {
  auto* s = state_.get();
  validate_submission(s, circuit.entry_.get(), theta, input);
  if (!observable.valid())
    throw std::invalid_argument("serve: submit with an empty ObservableHandle");
  if (observable.entry_->owner != s)
    throw std::invalid_argument(
        "serve: ObservableHandle belongs to a different session");
  if (observable.entry_->observable.num_qubits() !=
      circuit.entry_->plan.num_qubits())
    throw std::invalid_argument("serve: observable qubit count mismatch");
  return submit_impl<double>(s, client_id, seq, circuit.entry_,
                             observable.entry_, theta, input);
}

MetricsSnapshot ServeSession::metrics() const {
  const auto* s = state_.get();
  MetricsSnapshot m;
  {
    const common::MutexLock lock(s->mutex);
    m.submitted = s->submitted;
    m.completed = s->completed;
    m.failed = s->failed;
    m.cache_hits = s->cache_hits;
    m.folded_jobs = s->folded_jobs;
    m.shed_jobs = s->shed_jobs;
    m.batches = s->batches;
    m.coalesced_jobs = s->coalesced_jobs;
    m.size_flushes = s->size_flushes;
    m.deadline_flushes = s->deadline_flushes;
    m.queue_depth = s->total_queued;
    m.peak_queue_depth = s->peak_queue_depth;
    m.in_flight = s->in_flight;
    m.replicas.reserve(s->lanes.size());
    for (const auto& lane : s->lanes) {
      ReplicaMetrics r;
      r.backend_name = lane->replica->name();
      const detail::LaneCounters& slice = s->lane_stats[lane->index];
      r.batches = slice.batches;
      r.coalesced_jobs = slice.coalesced_jobs;
      r.executed_jobs = slice.executed_jobs;
      r.size_flushes = slice.size_flushes;
      r.deadline_flushes = slice.deadline_flushes;
      r.affinity_routes = slice.affinity_routes;
      r.assigned_structures = slice.assigned_structures;
      r.inflight_jobs =
          lane->inflight_jobs.load(std::memory_order_relaxed);
      if (r.batches > 0)
        r.mean_batch_occupancy = static_cast<double>(r.coalesced_jobs) /
                                 static_cast<double>(r.batches);
      m.replicas.push_back(std::move(r));
    }
  }
  if (m.batches > 0)
    m.mean_batch_occupancy = static_cast<double>(m.coalesced_jobs) /
                             static_cast<double>(m.batches);
  // Percentiles come from the session's full-history log-scale
  // histogram (exact below 8ns, <=6.25% relative error above; same
  // rank convention as indexing the sorted window this replaced). The
  // histogram is lock-free, so no mutex hold and no O(n log n) sort on
  // the metrics path.
  if (s->latency_hist.count() > 0) {
    m.p50_latency_us =
        static_cast<double>(s->latency_hist.quantile_ns(0.50)) / 1000.0;
    m.p99_latency_us =
        static_cast<double>(s->latency_hist.quantile_ns(0.99)) / 1000.0;
  }
  const double elapsed_s = std::chrono::duration<double>(
                               detail::Clock::now() - s->started)
                               .count();
  if (elapsed_s > 0.0)
    m.throughput_per_s = static_cast<double>(m.completed) / elapsed_s;
  const auto pool = common::ThreadPool::global().stats();
  m.pool_workers = pool.workers;
  m.pool_pending = pool.pending_tickets;
  return m;
}

}  // namespace qoc::serve
