#pragma once
// Persistent worker-thread pool.
//
// PR 1's parallel_for spawned and joined fresh std::threads on every
// call, which dominates small-batch run_batch latency: a gradient step
// submits hundreds of sub-millisecond batches, each paying thread
// creation + teardown. ThreadPool keeps a fixed set of workers alive for
// the process lifetime and hands them chunked index ranges instead.
//
// Properties:
//   * Blocking API: run_chunked() returns only when every chunk has
//     executed, so callers keep the simple fork/join structure of the
//     old parallel_for.
//   * Chunked dynamic scheduling: the range is cut into ~4 chunks per
//     participating thread and workers claim chunks with an atomic
//     cursor, so uneven per-index cost load-balances without work
//     stealing.
//   * The calling thread participates: a run at concurrency k uses the
//     caller plus k-1 pool workers, so a pool of hardware_threads()
//     workers can saturate the machine even while the caller blocks.
//   * Exception propagation: the first exception thrown by any chunk is
//     rethrown on the calling thread; later chunks are skipped (their
//     claims are drained without executing).
//   * Nested-submission safety: a run submitted from inside a pool
//     worker executes inline on that worker instead of re-entering the
//     queue. This cannot deadlock and cannot oversubscribe -- nested
//     parallelism degrades to the sequential semantics it would have
//     had anyway once all workers are busy.
//
// The shared process-wide instance is ThreadPool::global(); parallel_for
// (qoc/common/parallel.hpp) routes through it.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "qoc/common/env.hpp"
#include "qoc/common/mutex.hpp"
#include "qoc/common/thread_annotations.hpp"

namespace qoc {

/// Parse a thread-count override string ("8"); returns 0 when the value
/// is missing, non-numeric (strictly decimal digits -- signs,
/// whitespace and trailing junk are garbage), non-positive or absurd
/// (> 4096, including any overflowing value), i.e. no override: a
/// garbage QOC_THREADS must never size a pool with billions of workers.
/// Validation lives in common::parse_env_uint, so every numeric env
/// knob rejects garbage identically; split out of hardware_threads() so
/// the rules are testable without mutating the process environment.
inline unsigned parse_thread_count(const char* s) {
  return static_cast<unsigned>(common::parse_env_uint(s, 4096));
}

/// Number of worker threads to use by default (>= 1). The QOC_THREADS
/// environment variable overrides the detected core count -- container
/// deployments often expose more hardware threads than the cgroup CPU
/// quota actually grants, and this is the one knob that sizes the global
/// pool. Cached: the underlying sysconf costs ~a microsecond per query,
/// which is visible on every max_threads == 0 dispatch of a small batch.
inline unsigned hardware_threads() {
  static const unsigned n = [] {
    if (const unsigned env = parse_thread_count(std::getenv("QOC_THREADS")))
      return env;
    const unsigned v = std::thread::hardware_concurrency();
    return v == 0 ? 1u : v;
  }();
  return n;
}

namespace common {

class ThreadPool {
 public:
  /// `workers` == 0 means one worker per hardware core.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Lightweight occupancy snapshot. `pending_tickets` counts help
  /// requests that are queued but not yet claimed by a worker -- a
  /// non-zero value means every worker is already busy and additional
  /// fan-out would only queue. Consumers (e.g. the qoc::serve batch
  /// coalescer's drain policy) use it to size their own concurrency
  /// requests; it is advisory and may be stale by the time it is read.
  struct Stats {
    unsigned workers = 0;
    std::size_t pending_tickets = 0;
  };
  Stats stats() const QOC_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return {size(), tickets_.size()};
  }

  /// Drain-concurrency accounting for callers that fan out into this
  /// pool from several concurrent consumers (e.g. the per-replica drain
  /// lanes of serve::BackendPool): `requested` threads capped at an
  /// equal share of what the pool can supply -- its workers plus each
  /// consumer's own calling thread -- never below 1. With one consumer
  /// this reduces to the classic workers+1 cap; with N lanes executing
  /// at once it stops every lane from requesting the full pool width
  /// and thrashing the ticket queue. `consumers` == 0 is treated as 1.
  unsigned fair_share(unsigned requested, unsigned consumers) const {
    const unsigned c = consumers == 0 ? 1 : consumers;
    const unsigned supply = stats().workers + c;  // workers + one caller each
    return std::max(1u, std::min(requested, supply / c));
  }

  /// Process-wide shared pool (hardware_threads() workers, created on
  /// first use). All qoc parallel execution funnels through this one
  /// instance so concurrent batches share a bounded set of threads.
  static ThreadPool& global();

  /// True when the calling thread is a pool worker (of any ThreadPool).
  /// parallel_for uses this to run nested submissions inline.
  static bool on_worker_thread();

  /// Invoke fn(lo, hi) over disjoint chunks covering [begin, end),
  /// blocking until all chunks completed. `max_concurrency` bounds the
  /// number of participating threads (caller included); 0 means one per
  /// hardware core. Chunks never get smaller than min_chunk indices.
  /// Runs inline when the effective concurrency is 1, the range is
  /// empty, or the caller is itself a pool worker.
  template <typename ChunkFn,
            typename = std::enable_if_t<
                std::is_invocable_v<ChunkFn&, std::size_t, std::size_t>>>
  void run_chunked(std::size_t begin, std::size_t end, ChunkFn&& fn,
                   unsigned max_concurrency = 0, std::size_t min_chunk = 1) {
    if (end <= begin) return;
    const std::size_t n = end - begin;
    std::size_t target =
        max_concurrency == 0 ? hardware_threads() : max_concurrency;
    target = std::min<std::size_t>(target, n);
    if (target <= 1 || size() == 0 || on_worker_thread()) {
      fn(begin, end);
      return;
    }
    run_impl(
        begin, end,
        [](void* ctx, std::size_t lo, std::size_t hi) {
          (*static_cast<std::remove_reference_t<ChunkFn>*>(ctx))(lo, hi);
        },
        &fn, static_cast<unsigned>(target), min_chunk);
  }

 private:
  using ChunkFnPtr = void (*)(void* ctx, std::size_t lo, std::size_t hi);

  /// One blocking parallel region. Heap-allocated because stale queue
  /// tickets may outlive the submitting call (a worker can pop a ticket
  /// after all chunks are drained and find nothing to do).
  struct Job {
    ChunkFnPtr fn = nullptr;
    void* ctx = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunk = 1;
    std::size_t n_chunks = 0;
    std::atomic<std::size_t> next{0};  // next unclaimed chunk
    std::atomic<std::size_t> done{0};  // completed chunks
    std::atomic<bool> failed{false};
    Mutex error_mutex;
    std::exception_ptr error QOC_GUARDED_BY(error_mutex);  // first exception
    Mutex done_mutex;
    CondVar done_cv;
  };

  void run_impl(std::size_t begin, std::size_t end, ChunkFnPtr fn, void* ctx,
                unsigned target, std::size_t min_chunk) QOC_EXCLUDES(mutex_);
  void worker_loop() QOC_EXCLUDES(mutex_);
  static void help(Job& job);  // claim and execute chunks until drained

  std::vector<std::thread> workers_;  // immutable after construction
  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<std::shared_ptr<Job>> tickets_ QOC_GUARDED_BY(mutex_);
  bool stop_ QOC_GUARDED_BY(mutex_) = false;
};

}  // namespace common
}  // namespace qoc
