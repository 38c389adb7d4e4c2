#pragma once
// Shared plumbing of the end-to-end benchmark: run options, the per-run
// report (end-to-end metrics, the per-layer table, correctness checks),
// statistics, and the analysis of traced spans.
//
// Every workload drives the qoc library only through its public entry
// points. Layers are timed from outside: the benchmark wraps public
// calls in its own obs spans, and the library's existing spans
// (serve/*, backend/*, kernel/*) nest inside them.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  // length of the measured phase
  bool trace = false;     // per-layer run instead of the end-to-end run
  bool smoke = false;     // about 1/20 length, every check still runs
  unsigned threads = 4;   // worker threads handed to the library
};

struct Value {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class Report {
 public:
  /// End-to-end metric (reported by untraced runs).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Per-layer metric (reported by traced runs).
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples);
  /// Informational value kept in the output but not part of the
  /// metric lists in BENCHMARK.json (quality numbers, tail percentiles).
  void extra(const std::string& name, double value);
  /// Correctness oracle; any failure makes the run incorrect.
  void check(const std::string& name, bool ok);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::size_t check_failures() const;
  std::string to_json(const Options& opt, const std::string& context) const;

 private:
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> layers_;
  std::map<std::string, double> extra_;
  std::vector<std::pair<std::string, bool>> checks_;
};

// ---- Statistics ------------------------------------------------------------

/// Quantile by linear interpolation between order statistics (the
/// convention of Python's statistics.quantiles(method="inclusive")).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Fixed-memory latency recorder: log-linear buckets, 64 per octave
/// (at most 1.6% relative width), quantiles interpolated by rank inside
/// a bucket. Lets the load generator record millions of requests in
/// per-window histograms of 30 KB without allocating in its loop or
/// growing the process it measures.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;

  void record_ns(std::uint64_t ns) {
    ++counts_[bucket(ns)];
    ++n_;
  }
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return n_; }
  double quantile_ms(double q) const;

 private:
  static std::size_t bucket(std::uint64_t v);
  static double lower(std::size_t idx);

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t n_ = 0;
};

/// Sub-seed for one purpose (data, initial parameters, backend...), so
/// every input of a workload derives from the single workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

/// Peak resident set size of this process in MB (VmHWM, else getrusage).
double peak_rss_mb();

/// Median cost of one empty parallel region over `threads` participants
/// on the library's shared pool, in microseconds.
double dispatch_probe_us(unsigned threads, int reps);

/// Set-up time, the median of several set-ups. The first builds the
/// state the workload measures. The rest run after the measured phase
/// and after peak_rss_mb is read, so they touch neither: repeated
/// set-ups fragment the allocator and raise the process peak by an
/// amount that varies from run to run.
template <typename F>
class SetupTimer {
 public:
  SetupTimer(int n, F build) : n_(n), build_(std::move(build)) { time_one(); }

  /// Runs the remaining set-ups and returns the median in seconds.
  double finish() {
    while (static_cast<int>(t_.size()) < n_) time_one();
    return median(t_);
  }
  std::size_t count() const { return static_cast<std::size_t>(n_); }

 private:
  void time_one() {
    const auto t0 = Clock::now();
    build_();
    t_.push_back(seconds_since(t0));
  }

  int n_;
  F build_;
  std::vector<double> t_;
};

/// Median of `reps` timed calls of `fn`, in ms.
template <typename F>
double median_ms(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0) * 1e3);
  }
  return median(t);
}

// ---- Library counters ------------------------------------------------------

/// Snapshot of the qoc_* registry counters the layer table reads.
struct CounterSnapshot {
  std::map<std::string, std::uint64_t> values;
  static CounterSnapshot take();
  std::uint64_t delta(const CounterSnapshot& before,
                      const std::string& name) const;
};

/// a / b, or 0 when b is 0 (a layer the workload never reached).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Adds sim.wide_eval_frac and sim.padding_frac from the lane-policy
/// counters accumulated between two snapshots.
void report_lane_counters(Report& r, const CounterSnapshot& before,
                          const CounterSnapshot& after);

// ---- Traced spans ----------------------------------------------------------

struct Span {
  std::string cat;
  std::string name;
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double self_us = 0.0;  // dur minus same-thread direct children
  std::int64_t arg = 0;
};

struct AsyncSpan {
  std::uint64_t id = 0;
  double begin_us = 0.0;
  double end_us = 0.0;
};

struct Trace {
  std::vector<Span> spans;
  std::vector<AsyncSpan> jobs;  // serve 'job' begin/end pairs by stream id
  std::uint64_t dropped_events = 0;
  double wall_us = 0.0;  // from trace_begin to trace_end
  double peak_queue_depth = 0.0;  // highest qoc_serve_queue_depth sample

  std::vector<double> durations_us(const std::string& cat,
                                   const std::string& name) const;
  double dur_sum_us(const std::string& cat, const std::string& name) const;
  double self_sum_us(const std::string& cat, const std::string& name) const;
  /// Converts an obs::now_ns() reading into this trace's time base.
  double to_trace_us(std::uint64_t ns) const;

  double origin_us = 0.0;      // trace time of the origin marker
  std::uint64_t origin_ns = 0;  // obs::now_ns() of the origin marker
};

/// Starts the tracer with `ring_capacity` events per thread and emits the
/// origin marker that maps obs::now_ns() onto trace time.
void trace_begin(std::size_t ring_capacity);
/// Stops the tracer, collects every ring and computes self times.
Trace trace_end();

/// Adds `<layer>.share_pct` for every layer: the layer's share of all
/// traced span self time, summed over threads.
void report_layer_shares(Report& r, const Trace& t);

// ---- Workloads -------------------------------------------------------------

Report run_pgp_train(const Options& opt);
Report run_vqe_solve(const Options& opt);
Report run_serve(const Options& opt, bool open_loop);

}  // namespace e2e
