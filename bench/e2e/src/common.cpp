#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "e2e.hpp"
#include "qoc/common/parallel.hpp"
#include "qoc/obs/obs.hpp"

namespace e2e {

// ---- Report ----------------------------------------------------------------

namespace {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void put_values(std::ostringstream& out, const std::map<std::string, Value>& m) {
  out << "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"value\":" << json_number(v.value)
        << ",\"unit\":\"" << v.unit << "\",\"samples\":" << v.samples << "}";
  }
  out << "}";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  check("finite:" + name, std::isfinite(value));
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit, samples};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, std::size_t samples) {
  check("finite:" + name, std::isfinite(value));
  layers_[name] = {std::isfinite(value) ? value : 0.0, unit, samples};
}

void Report::extra(const std::string& name, double value) {
  check("finite:" + name, std::isfinite(value));
  extra_[name] = std::isfinite(value) ? value : 0.0;
}

void Report::check(const std::string& name, bool ok) {
  checks_.emplace_back(name, ok);
}

std::size_t Report::check_failures() const {
  return static_cast<std::size_t>(
      std::count_if(checks_.begin(), checks_.end(),
                    [](const auto& c) { return !c.second; }));
}

std::string Report::to_json(const Options& opt,
                            const std::string& context) const {
  std::ostringstream out;
  out << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
      << ",\"seconds\":" << json_number(opt.seconds)
      << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"smoke\":" << (opt.smoke ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"check_failures\":" << check_failures() << ",\"checks\":{";
  bool first = true;
  for (const auto& [name, ok] : checks_) {
    // Finite-value checks are implied by a well-formed report; list
    // only the ones that failed.
    if (ok && name.rfind("finite:", 0) == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << (ok ? "true" : "false");
  }
  out << "},\"metrics\":";
  put_values(out, metrics_);
  out << ",\"layers\":";
  put_values(out, layers_);
  out << ",\"extra\":{";
  first = true;
  for (const auto& [name, v] : extra_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << json_number(v);
  }
  out << "},\"context\":" << context << "}";
  return out.str();
}

// ---- Statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::size_t LatencyHistogram::bucket(std::uint64_t v) {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  if (v < kSub) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;  // >= kSubBits
  const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
  return (static_cast<std::size_t>(e - kSubBits + 1) << kSubBits) +
         static_cast<std::size_t>(sub);
}

double LatencyHistogram::lower(std::size_t idx) {
  constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  if (idx < kSub) return static_cast<double>(idx);
  const std::size_t block = idx >> kSubBits;
  return std::ldexp(static_cast<double>(kSub + (idx & (kSub - 1))),
                    static_cast<int>(block) - 1);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  n_ += other.n_;
}

double LatencyHistogram::quantile_ms(double q) const {
  if (n_ == 0) return 0.0;
  const double rank = q * static_cast<double>(n_ - 1);
  double before = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (c == 0.0 || rank >= before + c) {
      before += c;
      continue;
    }
    const double lo = lower(i);
    const double hi = i + 1 < kBuckets ? lower(i + 1) : lo;
    return (lo + (hi - lo) * (rank - before + 0.5) / c) / 1e6;
  }
  return lower(kBuckets - 1) / 1e6;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  // SplitMix64 finaliser over (seed, purpose).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  // On Linux getrusage's ru_maxrss survives execve, so a benchmark
  // started from a larger parent (the Python runner) would report the
  // parent's peak. VmHWM belongs to this process image alone.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f))
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double dispatch_probe_us(unsigned threads, int reps) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    qoc::parallel_for_chunked(0, threads, [](std::size_t, std::size_t) {},
                              threads);
    t.push_back(seconds_since(t0) * 1e6);
  }
  return median(t);
}

// ---- Library counters ------------------------------------------------------

CounterSnapshot CounterSnapshot::take() {
  static const char* const kNames[] = {
      "qoc_transpile_cache_hits_total",
      "qoc_transpile_cache_misses_total",
      "qoc_pattern_cache_hits_total",
      "qoc_pattern_cache_misses_total",
      "qoc_sim_lane_wide_evals_total",
      "qoc_sim_lane_scalar_evals_total",
      "qoc_sim_lane_tail_padding_lanes_total",
  };
  CounterSnapshot s;
  for (const char* n : kNames)
    s.values[n] = qoc::obs::Registry::global().counter(n).value();
  return s;
}

std::uint64_t CounterSnapshot::delta(const CounterSnapshot& before,
                                     const std::string& name) const {
  return values.at(name) - before.values.at(name);
}

void report_lane_counters(Report& r, const CounterSnapshot& before,
                          const CounterSnapshot& after) {
  auto d = [&](const char* name) {
    return static_cast<double>(after.delta(before, name));
  };
  const double wide = d("qoc_sim_lane_wide_evals_total");
  const double scalar = d("qoc_sim_lane_scalar_evals_total");
  const double pad = d("qoc_sim_lane_tail_padding_lanes_total");
  r.layer("sim.wide_eval_frac", ratio(wide, wide + scalar), "ratio",
          static_cast<std::size_t>(wide + scalar));
  r.layer("sim.padding_frac", ratio(pad, wide + pad), "ratio",
          static_cast<std::size_t>(wide + pad));
}

// ---- Traced spans ----------------------------------------------------------

namespace {

std::uint64_t g_origin_ns = 0;

bool string_field(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return false;
  out.assign(line, start, end - start);
  return true;
}

bool number_field(const std::string& line, const char* key, double& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

/// Self time: a span's duration minus its direct same-thread children.
/// RAII spans nest properly per thread, so a start-ordered stack sweep
/// finds each span's parent.
void compute_self_times(std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    Span& s = spans[i];
    s.self_us = s.dur_us;
    if (s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (s.ts_us < top.ts_us + top.dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) spans[stack.back()].self_us -= s.dur_us;
    stack.push_back(i);
  }
  for (auto& s : spans) s.self_us = std::max(0.0, s.self_us);
}

}  // namespace

void trace_begin(std::size_t ring_capacity) {
  qoc::obs::Tracer::instance().start(ring_capacity);
  g_origin_ns = qoc::obs::now_ns();
  qoc::obs::Tracer::complete("bench", "trace_origin", g_origin_ns, 0);
}

Trace trace_end() {
  auto& tracer = qoc::obs::Tracer::instance();
  const std::uint64_t end_ns = qoc::obs::now_ns();
  tracer.stop();
  Trace t;
  t.dropped_events = tracer.dropped_events();
  t.origin_ns = g_origin_ns;
  t.wall_us = static_cast<double>(end_ns - g_origin_ns) / 1e3;

  const std::string doc = tracer.chrome_json();
  tracer.clear();
  std::unordered_map<std::uint64_t, double> open_jobs;
  std::size_t pos = 0;
  std::string line, ph, name, cat, id;
  while (pos < doc.size()) {
    auto nl = doc.find('\n', pos);
    if (nl == std::string::npos) nl = doc.size();
    line.assign(doc, pos, nl - pos);
    pos = nl + 1;
    if (!string_field(line, "ph", ph) || !string_field(line, "name", name) ||
        !string_field(line, "cat", cat))
      continue;
    double ts = 0.0;
    number_field(line, "ts", ts);
    if (ph == "X") {
      Span s;
      s.cat = cat;
      s.name = name;
      double v = 0.0;
      number_field(line, "tid", v);
      s.tid = static_cast<std::uint32_t>(v);
      s.ts_us = ts;
      number_field(line, "dur", s.dur_us);
      // The one integer annotation, whatever its key.
      const auto args = line.find("\"args\":{\"");
      if (args != std::string::npos) {
        const auto colon = line.find("\":", args + 9);
        if (colon != std::string::npos)
          s.arg = std::strtoll(line.c_str() + colon + 2, nullptr, 10);
      }
      if (cat == "bench" && name == "trace_origin") {
        t.origin_us = ts;
        continue;
      }
      t.spans.push_back(std::move(s));
    } else if ((ph == "b" || ph == "e") && name == "job" &&
               string_field(line, "id", id)) {
      const std::uint64_t job = std::strtoull(id.c_str(), nullptr, 16);
      if (ph == "b") {
        open_jobs[job] = ts;
      } else if (const auto it = open_jobs.find(job); it != open_jobs.end()) {
        // Jobs straddling the trace start or end have one half only.
        t.jobs.push_back({job, it->second, ts});
        open_jobs.erase(it);
      }
    } else if (ph == "C" && name == "qoc_serve_queue_depth") {
      double depth = 0.0;
      number_field(line, "value", depth);
      t.peak_queue_depth = std::max(t.peak_queue_depth, depth);
    }
  }
  compute_self_times(t.spans);
  return t;
}

std::vector<double> Trace::durations_us(const std::string& cat,
                                        const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans)
    if (s.cat == cat && s.name == name) out.push_back(s.dur_us);
  return out;
}

double Trace::dur_sum_us(const std::string& cat, const std::string& name) const {
  double sum = 0.0;
  for (const auto& s : spans)
    if (s.cat == cat && s.name == name) sum += s.dur_us;
  return sum;
}

double Trace::self_sum_us(const std::string& cat,
                          const std::string& name) const {
  double sum = 0.0;
  for (const auto& s : spans)
    if (s.cat == cat && s.name == name) sum += s.self_us;
  return sum;
}

double Trace::to_trace_us(std::uint64_t ns) const {
  return origin_us + (static_cast<double>(ns) - static_cast<double>(origin_ns)) / 1e3;
}

namespace {

/// Layer each span category's self time is attributed to.
const std::map<std::string, std::string>& layer_of_category() {
  static const std::map<std::string, std::string> m = {
      {"bench", "bench"}, {"train", "train"},     {"qml", "qml"},
      {"vqe", "vqe"},     {"backend", "backend"}, {"kernel", "sim"},
      {"serve", "serve"},
  };
  return m;
}

}  // namespace

void report_layer_shares(Report& r, const Trace& t) {
  std::map<std::string, double> self;
  for (const auto& [cat, layer] : layer_of_category()) self[layer] += 0.0;
  double total = 0.0;
  for (const auto& s : t.spans) {
    const auto it = layer_of_category().find(s.cat);
    self[it == layer_of_category().end() ? "bench" : it->second] += s.self_us;
    total += s.self_us;
  }
  for (const auto& [layer, us] : self)
    r.layer(layer + ".share_pct", 100.0 * ratio(us, total), "%",
            t.spans.size());
}

}  // namespace e2e
