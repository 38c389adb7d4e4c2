// Metrics registry internals and the two exporters.
//
// Registry::Impl holds name -> unique_ptr maps behind the registry
// mutex and is freed with its Registry. References the QOC_METRIC_*
// macros cache in function-local statics all point into global(), a
// heap object that is never destroyed, so they can never dangle during
// static destruction; only local registries (tests, tools) are ever
// destroyed.

#include "qoc/obs/metrics.hpp"

#include "qoc/obs/clock.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

namespace qoc::obs {

std::uint64_t Histogram::quantile_ns(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Same rank a sorted window of n samples would index at
  // floor((n - 1) * q); +1 turns it into a cumulative-count target.
  const std::uint64_t target =
      static_cast<std::uint64_t>(static_cast<double>(n - 1) * q) + 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += counts_[i].load(std::memory_order_relaxed);
    if (cum >= target) {
      const std::uint64_t lo = bucket_lower(i);
      if (i < kSubBuckets) return lo;  // exact buckets
      return lo + (bucket_upper(i) - lo) / 2;
    }
  }
  // Concurrent recording can make count() race ahead of the bucket
  // array; the last occupied bucket is the honest answer then.
  for (std::size_t i = kBuckets; i-- > 0;) {
    if (counts_[i].load(std::memory_order_relaxed) > 0) {
      const std::uint64_t lo = bucket_lower(i);
      return i < kSubBuckets ? lo : lo + (bucket_upper(i) - lo) / 2;
    }
  }
  return 0;
}

struct Registry::Impl {
  // std::map for deterministic (sorted) exporter output.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  static Registry* r = new Registry();  // never destroyed
  return *r;
}

Registry::Impl* Registry::impl_or_create() const {
  common::MutexLock lock(mu_);
  if (impl_ == nullptr) impl_ = new Impl();
  return impl_;
}

Counter& Registry::counter(const std::string& name) {
  common::MutexLock lock(mu_);
  if (impl_ == nullptr) impl_ = new Impl();
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  common::MutexLock lock(mu_);
  if (impl_ == nullptr) impl_ = new Impl();
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  common::MutexLock lock(mu_);
  if (impl_ == nullptr) impl_ = new Impl();
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

std::string Registry::prometheus_dump() const {
  Impl* impl = impl_or_create();
  common::MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, c] : impl->counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " ";
    append_u64(out, c->value());
    out += "\n";
  }
  for (const auto& [name, g] : impl->gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " ";
    append_i64(out, g->value());
    out += "\n";
  }
  for (const auto& [name, h] : impl->histograms) {
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t c = h->bucket_count(i);
      if (c == 0) continue;
      cum += c;
      out += name + "_bucket{le=\"";
      append_u64(out, Histogram::bucket_upper(i));
      out += "\"} ";
      append_u64(out, cum);
      out += "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} ";
    append_u64(out, cum);
    out += "\n";
    out += name + "_sum ";
    append_u64(out, h->sum_ns());
    out += "\n";
    out += name + "_count ";
    append_u64(out, h->count());
    out += "\n";
  }
  return out;
}

std::string Registry::json_dump() const {
  Impl* impl = impl_or_create();
  common::MutexLock lock(mu_);
  std::string out = "{";
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : impl->counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":";
    append_u64(out, c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : impl->gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":";
    append_i64(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : impl->histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"count\":";
    append_u64(out, h->count());
    out += ",\"sum_ns\":";
    append_u64(out, h->sum_ns());
    out += ",\"mean_ns\":";
    append_double(out, h->mean_ns());
    out += ",\"p50_ns\":";
    append_u64(out, h->quantile_ns(0.50));
    out += ",\"p90_ns\":";
    append_u64(out, h->quantile_ns(0.90));
    out += ",\"p99_ns\":";
    append_u64(out, h->quantile_ns(0.99));
    out += "}";
  }
  out += "}}";
  return out;
}

#if QOC_OBS
HistogramTimer::HistogramTimer(Histogram& h) noexcept : h_(h), t0_(now_ns()) {}
HistogramTimer::~HistogramTimer() { h_.record(now_ns() - t0_); }
#endif

}  // namespace qoc::obs
