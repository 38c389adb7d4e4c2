#pragma once
// Data-parallel helpers used by the backends to fan batch work across
// hardware threads. Both entry points route through the
// shared persistent qoc::common::ThreadPool -- no per-call thread spawns
// (PR 1 created and joined fresh std::threads on every call, which
// dominated small-batch run_batch latency).
//
// Calls made from inside a pool worker (nested parallelism) run inline
// on that worker instead of re-entering the queue, so nesting can
// neither deadlock nor oversubscribe the machine.

#include <cstddef>
#include <type_traits>

#include "qoc/common/thread_pool.hpp"

namespace qoc {

/// Invoke fn(i) for i in [begin, end), fanning chunks of the range over
/// up to max_threads participating threads (0 = one per hardware core;
/// the calling thread participates). fn must be safe to call
/// concurrently for distinct i. Exceptions from workers are rethrown on
/// the calling thread (first one wins). The callable is invoked directly
/// (no std::function indirection), so per-index bodies inline into the
/// chunk loop.
template <typename Fn,
          typename = std::enable_if_t<std::is_invocable_v<Fn&, std::size_t>>>
inline void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                         unsigned max_threads = 0) {
  common::ThreadPool::global().run_chunked(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      max_threads);
}

/// Chunk-granular variant: fn(lo, hi) is called once per contiguous
/// chunk, letting the body hoist per-thread scratch (statevectors, angle
/// buffers) out of the index loop. Same threading, exception and nesting
/// semantics as parallel_for.
template <typename Fn, typename = std::enable_if_t<
                           std::is_invocable_v<Fn&, std::size_t, std::size_t>>>
inline void parallel_for_chunked(std::size_t begin, std::size_t end, Fn&& fn,
                                 unsigned max_threads = 0) {
  common::ThreadPool::global().run_chunked(begin, end, std::forward<Fn>(fn),
                                           max_threads);
}

}  // namespace qoc
