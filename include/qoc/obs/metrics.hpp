#pragma once
// qoc::obs metrics: named counters, gauges and log-scale latency
// histograms behind a process-wide registry, with Prometheus
// text-exposition and JSON dumps.
//
// Design rules:
//   * Recording is wait-free (one relaxed atomic RMW per event for
//     counters/gauges, three for histograms). The registry mutex is
//     touched only on first lookup of a name -- call sites cache the
//     returned reference (the QOC_METRIC_* macros do this with a
//     function-local static).
//   * A Registry's metric objects live as long as it does. global() is
//     never destroyed, so the references the macros cache stay valid
//     for the life of the process and can outlive the session that
//     first resolved them; a local registry frees its metrics with it.
//   * Metrics are pure observation. Nothing may read a metric to make
//     a control decision that changes numerical results (the
//     determinism contract).
//
// Naming scheme: `qoc_<layer>_<what>[_total|_ns]`, Prometheus-safe
// ([a-z0-9_]) so the text exposition needs no escaping. `_total` for
// monotonic counters, `_ns` for nanosecond histograms.
//
// Histogram shape: HDR-style log-linear buckets, 8 sub-buckets per
// octave (kSubBits = 3). Values 0..7 are exact; above that the bucket
// width is lower/8, so any recorded value -- and any quantile
// estimated from the bucket midpoints -- is within 6.25% relative
// error of the true value. 496 fixed buckets cover the full u64 range
// (no clamping, no allocation on the record path).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "qoc/common/mutex.hpp"
#include "qoc/common/thread_annotations.hpp"

namespace qoc::obs {

/// Monotonic event counter. add() is wait-free and safe from any
/// thread; value() is a relaxed read (exact once writers quiesce).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (queue depth, in-flight jobs, lane
/// occupancy). set() for sampled values, add() for +/- deltas.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket log-linear histogram over u64 nanosecond values.
class Histogram {
 public:
  /// Sub-bucket resolution: 1 << kSubBits buckets per octave.
  static constexpr int kSubBits = 3;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  /// Buckets 0..7 are the exact values 0..7; each further octave
  /// (exponents 3..63) contributes 8 sub-buckets.
  static constexpr std::size_t kBuckets = kSubBuckets * (64 - kSubBits + 1);

  Histogram() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Index of the bucket containing `v`. Pure function; exposed (with
  /// bucket_lower/bucket_upper) so tests can pin the boundary math.
  static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSubBuckets - 1);
    return static_cast<std::size_t>(e - kSubBits + 1) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

  /// Smallest value mapping to bucket `idx`.
  static std::uint64_t bucket_lower(std::size_t idx) noexcept {
    if (idx < kSubBuckets) return idx;
    const std::size_t block = idx >> kSubBits;  // >= 1
    const std::uint64_t sub = idx & (kSubBuckets - 1);
    return (kSubBuckets + sub) << (block - 1);
  }

  /// One past the largest value mapping to bucket `idx` (saturating at
  /// the top of the u64 range).
  static std::uint64_t bucket_upper(std::size_t idx) noexcept {
    if (idx + 1 >= kBuckets) return ~std::uint64_t{0};
    return bucket_lower(idx + 1);
  }

  void record(std::uint64_t ns) noexcept {
    counts_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum_ns() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket_count(std::size_t idx) const noexcept {
    return counts_[idx].load(std::memory_order_relaxed);
  }

  /// Quantile estimate in ns. Rank convention matches indexing a
  /// sorted window at floor((count-1) * q); the returned value is the
  /// midpoint of the bucket holding that rank (exact below 8 ns,
  /// within 6.25% relative error above). Returns 0 on an empty
  /// histogram. Concurrent recording makes the result approximate but
  /// never out of the recorded range.
  std::uint64_t quantile_ns(double q) const noexcept;

  double mean_ns() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum_ns()) / static_cast<double>(n);
  }

  void reset() noexcept {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_;
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Name -> metric registry. `global()` is the process-wide instance
/// every QOC_METRIC_* macro resolves against (never destroyed);
/// separate instances exist for tests and tools that need isolated
/// golden dumps, and references into one are valid until it is
/// destroyed.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  static Registry& global();

  /// Find-or-create. The returned reference is stable for the life of
  /// the registry; resolving an existing name never allocates.
  Counter& counter(const std::string& name) QOC_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) QOC_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) QOC_EXCLUDES(mu_);

  /// Prometheus text exposition (one `# TYPE` line per metric, only
  /// occupied histogram buckets emitted, cumulative `le` + `+Inf`).
  /// Deterministic: metrics sorted by name.
  std::string prometheus_dump() const QOC_EXCLUDES(mu_);

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with per-histogram count/sum/mean/p50/p90/p99. Deterministic
  /// ordering; embeddable into BENCH_*.json by bench_util.hpp.
  std::string json_dump() const QOC_EXCLUDES(mu_);

 private:
  struct Impl;
  Impl* impl_or_create() const QOC_EXCLUDES(mu_);

  mutable common::Mutex mu_;
  mutable Impl* impl_ QOC_GUARDED_BY(mu_) = nullptr;
};

}  // namespace qoc::obs

// ---- Compile-time gated convenience macros ---------------------------------
//
// QOC_OBS is a PUBLIC compile definition (CMake option QOC_OBS, default
// ON). With it OFF every macro below expands to `((void)0)` -- no
// clock reads, no atomics, no statics -- which is the "disabled
// overhead is zero" half of the observability contract.
//
// The `name` argument must be a string literal (it seeds a
// function-local static, resolved against Registry::global() once).
// Macro arguments must be side-effect-free: they are not evaluated
// when QOC_OBS=0.

#ifndef QOC_OBS
#define QOC_OBS 1
#endif

#define QOC_OBS_CONCAT_INNER(a, b) a##b
#define QOC_OBS_CONCAT(a, b) QOC_OBS_CONCAT_INNER(a, b)

#if QOC_OBS

namespace qoc::obs {
/// RAII helper for QOC_METRIC_SCOPED_TIMER_NS: records the scope's
/// elapsed ns into a histogram at destruction.
class HistogramTimer {
 public:
  explicit HistogramTimer(Histogram& h) noexcept;
  ~HistogramTimer();
  HistogramTimer(const HistogramTimer&) = delete;
  HistogramTimer& operator=(const HistogramTimer&) = delete;

 private:
  Histogram& h_;
  std::uint64_t t0_;
};
}  // namespace qoc::obs

#define QOC_METRIC_COUNTER_ADD(name, n)                                   \
  do {                                                                    \
    static ::qoc::obs::Counter& QOC_OBS_CONCAT(qoc_obs_ctr_, __LINE__) =  \
        ::qoc::obs::Registry::global().counter(name);                     \
    QOC_OBS_CONCAT(qoc_obs_ctr_, __LINE__)                                \
        .add(static_cast<std::uint64_t>(n));                              \
  } while (0)

#define QOC_METRIC_GAUGE_SET(name, v)                                     \
  do {                                                                    \
    static ::qoc::obs::Gauge& QOC_OBS_CONCAT(qoc_obs_gau_, __LINE__) =    \
        ::qoc::obs::Registry::global().gauge(name);                       \
    QOC_OBS_CONCAT(qoc_obs_gau_, __LINE__)                                \
        .set(static_cast<std::int64_t>(v));                               \
  } while (0)

#define QOC_METRIC_GAUGE_ADD(name, d)                                     \
  do {                                                                    \
    static ::qoc::obs::Gauge& QOC_OBS_CONCAT(qoc_obs_gau_, __LINE__) =    \
        ::qoc::obs::Registry::global().gauge(name);                       \
    QOC_OBS_CONCAT(qoc_obs_gau_, __LINE__)                                \
        .add(static_cast<std::int64_t>(d));                               \
  } while (0)

#define QOC_METRIC_HISTOGRAM_NS(name, ns)                                 \
  do {                                                                    \
    static ::qoc::obs::Histogram& QOC_OBS_CONCAT(qoc_obs_his_,            \
                                                 __LINE__) =              \
        ::qoc::obs::Registry::global().histogram(name);                   \
    QOC_OBS_CONCAT(qoc_obs_his_, __LINE__)                                \
        .record(static_cast<std::uint64_t>(ns));                          \
  } while (0)

/// Records the elapsed ns of the enclosing scope into histogram
/// `name`. Block scope only (declares locals).
#define QOC_METRIC_SCOPED_TIMER_NS(name)                                  \
  static ::qoc::obs::Histogram& QOC_OBS_CONCAT(qoc_obs_his_, __LINE__) =  \
      ::qoc::obs::Registry::global().histogram(name);                     \
  ::qoc::obs::HistogramTimer QOC_OBS_CONCAT(qoc_obs_tmr_, __LINE__)(      \
      QOC_OBS_CONCAT(qoc_obs_his_, __LINE__))

#else  // !QOC_OBS

#define QOC_METRIC_COUNTER_ADD(name, n) ((void)0)
#define QOC_METRIC_GAUGE_SET(name, v) ((void)0)
#define QOC_METRIC_GAUGE_ADD(name, d) ((void)0)
#define QOC_METRIC_HISTOGRAM_NS(name, ns) ((void)0)
#define QOC_METRIC_SCOPED_TIMER_NS(name) ((void)0)

#endif  // QOC_OBS
