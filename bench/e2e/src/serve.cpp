// serve_closed / serve_open: served inference on a 2-replica pool of
// exact statevector backends, 8 ten-qubit structures, one traffic mix:
// 50% unique-binding run, 25% hot-catalog run (64 bindings), 25%
// unique-binding expectation of a ZZ-chain + X0 observable.
//
//   serve_closed -- bulk callers: 2 client threads, each submitting
//     bursts of 256 requests on one structure (the mix is drawn per
//     burst) and keeping two bursts in flight. A burst fills a structure
//     group faster than its deadline, so batches flush by size and run
//     on the sim k-wide lanes; hot bursts repeat bindings, which the
//     result cache and in-batch folding absorb.
//   serve_open -- independent users: seeded Poisson arrivals from one
//     generator thread, one collector thread, latency timed from each
//     request's due time. Below the knee every structure sees less than
//     one job per 200 us deadline, so flushes drain singletons: a change
//     that buys throughput with bigger or longer batches loses here.
//
// The generators live in this file on purpose: they are copies, not
// includes of bench/traffic.hpp, so edits made there for other tools
// cannot silently change this benchmark.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "e2e.hpp"
#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/serve/serve.hpp"

namespace e2e {
namespace {

using namespace qoc;

constexpr int kQubits = 10;
constexpr int kLayers = 2;
constexpr int kStructures = 8;
constexpr std::uint32_t kHotSet = 64;
// A group flushes by size only if max_batch of its jobs arrive within
// max_delay. One client thread submits a job every 1-2 us, 100-200 in
// 200 us, so with 256 every flush would be by deadline whatever the
// load; 64 is reachable by one bursting client.
constexpr std::size_t kMaxBatch = 64;
constexpr std::size_t kReplicas = 2;
constexpr int kClients = 2;
constexpr std::size_t kBurst = 256;           // closed loop: requests per burst
constexpr std::size_t kBurstsInFlight = 2;    // closed loop: per client
constexpr std::uint64_t kWarmupRequests = 20480;  // per set-up, all clients
// Oracle-checked share of requests. Kept samples grow with throughput,
// so the share stays small enough not to move peak_rss_mb.
constexpr std::uint64_t kSampleEvery = 1024;
constexpr double kBaseRate = 4000.0;          // req/s of the open-loop metrics
constexpr std::size_t kOpenWindows = 10;      // latency windows per open-loop rung
constexpr std::array<double, 8> kLadder = {4000,  8000,  12000, 16000,
                                           24000, 32000, 40000, 48000};
constexpr double kSloMs = 10.0;               // p99 limit of a sustained rung
constexpr double kMaxLagMs = 1.0;             // generator validity limit (p99)
constexpr std::size_t kReplayCalls = 512;     // lane counterfactual sample

// ---- Seeded traffic ---------------------------------------------------------

std::vector<circuit::Circuit> structure_catalog() {
  std::vector<circuit::Circuit> out;
  for (int s = 0; s < kStructures; ++s) {
    circuit::Circuit c(kQubits);
    circuit::add_rotation_encoder(c, 3 + s);  // encoder widths 3..10
    for (int l = 0; l < kLayers; ++l) {
      circuit::add_rzz_ring_layer(c);
      circuit::add_ry_layer(c);
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// sum_i Z_i Z_{i+1} + 0.5 X_0 on the ten-qubit register.
exec::CompiledObservable zz_chain_x0() {
  std::vector<exec::ObservableTerm> terms;
  for (int q = 0; q + 1 < kQubits; ++q) {
    std::string p(kQubits, 'I');
    p[static_cast<std::size_t>(q)] = 'Z';
    p[static_cast<std::size_t>(q + 1)] = 'Z';
    terms.push_back({p, 1.0});
  }
  std::string x0(kQubits, 'I');
  x0[0] = 'X';
  terms.push_back({x0, 0.5});
  return exec::CompiledObservable::compile(kQubits, terms);
}

enum class Kind : std::uint8_t { kUniqueRun, kHotRun, kUniqueExpect };

struct Request {
  Kind kind = Kind::kUniqueRun;
  int s = 0;
  std::uint32_t hot = 0;
};

/// Every binding is a pure function of (seed, request, client, serial).
class Traffic {
 public:
  Traffic(std::uint64_t seed, const std::vector<circuit::Circuit>& catalog) {
    Prng rng(seed);
    for (const auto& c : catalog) {
      std::vector<double> th(static_cast<std::size_t>(c.num_trainable()));
      for (std::size_t i = 0; i < th.size(); ++i)
        th[i] = 0.1 * static_cast<double>(i % 7) - 0.3 + rng.uniform(-0.1, 0.1);
      std::vector<double> in(static_cast<std::size_t>(c.num_inputs()));
      for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = 0.05 * static_cast<double>(i) + 0.1 + rng.uniform(-0.05, 0.05);
      theta_.push_back(std::move(th));
      input_.push_back(std::move(in));
    }
  }

  /// The mix: 50% unique run, 25% hot-catalog run, 25% unique expect,
  /// on a uniformly drawn structure. A closed-loop burst takes kind and
  /// structure from one draw and redraws only the hot binding.
  static Request draw(Prng& rng) {
    Request q;
    const auto u = rng.uniform_int(4);
    q.kind = u < 2 ? Kind::kUniqueRun : u == 2 ? Kind::kHotRun : Kind::kUniqueExpect;
    q.s = static_cast<int>(rng.uniform_int(kStructures));
    q.hot = static_cast<std::uint32_t>(rng.uniform_int(kHotSet));
    return q;
  }

  /// Unique bindings differ in theta[0] per serial and theta[1] per
  /// client; hot bindings are shared by every client and never collide
  /// with a unique one (theta[1] stays at its base value).
  void bind(const Request& q, std::uint32_t client, std::uint64_t serial,
            std::vector<double>& theta, std::vector<double>& input) const {
    theta = theta_[static_cast<std::size_t>(q.s)];
    input = input_[static_cast<std::size_t>(q.s)];
    if (q.kind == Kind::kHotRun) {
      theta[0] += 1e-3 * static_cast<double>(q.hot);
    } else {
      theta[0] += 1e-7 * static_cast<double>(serial);
      theta[1] += 0.37 * static_cast<double>(client + 1);
    }
  }

 private:
  std::vector<std::vector<double>> theta_, input_;
};

// ---- The service under test ------------------------------------------------

serve::ServeOptions serve_options(unsigned threads) {
  serve::ServeOptions o;
  o.max_batch = kMaxBatch;
  o.max_delay = std::chrono::microseconds(200);
  o.exec_threads = threads;
  o.result_cache_capacity = 4096;
  o.fold_duplicates = true;
  return o;
}

struct Service {
  backend::StatevectorBackend primary{backend::StatevectorBackendOptions{}};
  serve::ServeSession session;
  std::vector<serve::CircuitHandle> handles;
  serve::ObservableHandle observable;

  Service(const std::vector<circuit::Circuit>& catalog, unsigned threads)
      : session(serve::BackendPool(primary, kReplicas), serve_options(threads)) {
    for (const auto& c : catalog) handles.push_back(session.register_circuit(c));
    observable = session.register_observable(zz_chain_x0());
  }
};

// ---- Requests in flight ----------------------------------------------------

struct Pending {
  Request q;
  std::uint64_t serial = 0;
  std::uint64_t start_ns = 0;   // due time (open loop) or submit start
  std::uint64_t submit_ns = 0;  // submit start
  std::uint64_t return_ns = 0;  // submit returned
  std::uint64_t ready_ns = 0;   // open loop: result held when submit returned
  bool record = false;
  std::future<std::vector<double>> run;
  std::future<double> expect;

  bool ready() const {
    const std::chrono::seconds now{0};
    return (q.kind == Kind::kUniqueExpect ? expect.wait_for(now) : run.wait_for(now)) ==
           std::future_status::ready;
  }
};

/// A served result kept for the oracle check after timing.
struct Sample {
  Request q;
  std::uint32_t client = 0;
  std::uint64_t serial = 0;
  std::vector<double> run;
  double expect = 0.0;
};

/// One traced request, for attributing its wall time to layers.
struct RequestTimes {
  std::uint64_t start_ns, return_ns, observed_ns, stream;
  std::uint64_t prev_observed_ns;  // this collector's previous completion
};

/// Submission side of one Client (one thread at a time).
struct Submitter {
  serve::Client client;
  Prng rng;
  std::uint64_t serial = 0;
  std::vector<double> theta, input;
  LatencyHistogram submit_time;  // timed Client::submit, recorded requests

  Pending submit(Service& svc, const Traffic& traffic, const Request& q,
                 bool record, std::uint64_t start_ns = 0) {
    Pending p;
    p.q = q;
    p.serial = serial++;
    p.record = record;
    traffic.bind(p.q, client.id(), p.serial, theta, input);
    p.submit_ns = obs::now_ns();
    p.start_ns = start_ns == 0 ? p.submit_ns : start_ns;
    const auto& h = svc.handles[static_cast<std::size_t>(p.q.s)];
    if (p.q.kind == Kind::kUniqueExpect)
      p.expect = client.submit_expect(h, svc.observable, theta, input);
    else
      p.run = client.submit(h, theta, input);
    p.return_ns = obs::now_ns();
    if (record) submit_time.record_ns(p.return_ns - p.submit_ns);
    return p;
  }
};

/// Latency by the window its request started in (due or submit time).
/// The end-to-end percentiles are those of the least disturbed window:
/// on a shared host, CPU time stolen by other tenants comes in spells
/// that delay every thread wake-up in the serve path. Over runs of the
/// same code in such a spell, the median over windows of the p50 spread
/// by 82%, the lowest window by 7%. A change to the service shifts every
/// window.
struct WindowedLatency {
  std::uint64_t t0_ns = 0;
  std::uint64_t window_ns = 1;
  std::vector<LatencyHistogram> windows;

  void reset(std::uint64_t t0, double seconds, std::size_t n) {
    t0_ns = t0;
    window_ns = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(seconds * 1e9 / n));
    windows.assign(n, LatencyHistogram{});
  }
  void record(std::uint64_t start_ns, std::uint64_t latency_ns) {
    if (windows.empty()) return;
    const std::uint64_t i = start_ns > t0_ns ? (start_ns - t0_ns) / window_ns : 0;
    windows[std::min<std::uint64_t>(i, windows.size() - 1)].record_ns(latency_ns);
  }
};

/// Lowest over windows of each window's q-quantile, in ms.
double window_best_ms(const std::vector<LatencyHistogram>& windows, double q) {
  double best = 0.0;
  bool any = false;
  for (const auto& h : windows)
    if (h.count() > 0) {
      best = any ? std::min(best, h.quantile_ms(q)) : h.quantile_ms(q);
      any = true;
    }
  return best;
}

/// Completion side: latencies, oracle samples, hot-result consistency.
/// Results are collected in submission order.
struct Collector {
  std::uint32_t client = 0;
  LatencyHistogram latency, lag;
  WindowedLatency windowed;
  std::vector<Sample> samples;
  std::vector<RequestTimes> times;  // traced segments only
  bool keep_times = false;
  std::array<std::array<std::vector<double>, kHotSet>, kStructures> hot{};
  bool hot_consistent = true;
  std::uint64_t prev_observed_ns = 0;

  void complete(Pending& p, std::atomic<std::uint64_t>& done) {
    Sample smp{p.q, client, p.serial, {}, 0.0};
    if (p.q.kind == Kind::kUniqueExpect)
      smp.expect = p.expect.get();
    else
      smp.run = p.run.get();
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t observed = p.ready_ns != 0 ? p.ready_ns : now;
    done.fetch_add(1, std::memory_order_relaxed);
    if (p.record) {
      latency.record_ns(observed - p.start_ns);
      windowed.record(p.start_ns, observed - p.start_ns);
      lag.record_ns(p.submit_ns - p.start_ns);
      if (keep_times)
        times.push_back({p.start_ns, p.return_ns, observed,
                         serve::ServeSession::client_stream(client, p.serial),
                         prev_observed_ns});
    }
    prev_observed_ns = now;
    bool keep = p.serial % kSampleEvery == 0;
    if (p.q.kind == Kind::kHotRun) {
      auto& first = hot[static_cast<std::size_t>(p.q.s)][p.q.hot];
      if (first.empty()) {
        first = smp.run;
        keep = true;  // every hot binding's first result is oracle-checked
      } else if (first.size() != smp.run.size() ||
                 std::memcmp(first.data(), smp.run.data(),
                             first.size() * sizeof(double)) != 0) {
        hot_consistent = false;
      }
    }
    if (keep) samples.push_back(std::move(smp));
  }
};

struct Endpoint {
  Submitter sub;
  Collector col;
};

/// Shared switches of a load phase.
struct Control {
  std::atomic<bool> stop{false};
  std::atomic<bool> record{false};
  std::atomic<std::uint64_t> completed{0};
};

// ---- Closed loop -----------------------------------------------------------

/// Each client keeps kBurstsInFlight bursts in flight, collecting the
/// oldest in submission order before submitting the next, until
/// `ctl.stop` or `budget` submitted requests.
void closed_client(Endpoint& ep, Service& svc, const Traffic& traffic,
                   Control& ctl, std::uint64_t budget) {
  std::deque<std::vector<Pending>> bursts;
  std::uint64_t submitted = 0;
  auto more = [&] {
    return !ctl.stop.load(std::memory_order_relaxed) &&
           (budget == 0 || submitted < budget);
  };
  for (;;) {
    while (bursts.size() < kBurstsInFlight && more()) {
      const Request head = Traffic::draw(ep.sub.rng);
      const bool record = ctl.record.load();
      std::vector<Pending> burst;
      burst.reserve(kBurst);
      for (std::size_t i = 0; i < kBurst; ++i) {
        Request q = head;
        q.hot = static_cast<std::uint32_t>(ep.sub.rng.uniform_int(kHotSet));
        burst.push_back(ep.sub.submit(svc, traffic, q, record));
      }
      submitted += kBurst;
      bursts.push_back(std::move(burst));
    }
    if (bursts.empty()) return;
    for (auto& p : bursts.front()) ep.col.complete(p, ctl.completed);
    bursts.pop_front();
  }
}

struct ClosedStats {
  std::vector<double> window_req_per_s, window_evals_per_s;
};

/// Runs the closed loop for `seconds` (split into `windows` equal
/// windows) or, with seconds == 0, until `budget` requests completed.
ClosedStats closed_loop(std::vector<Endpoint>& eps, Service& svc,
                        const Traffic& traffic, double seconds, int windows,
                        std::uint64_t budget, bool record) {
  Control ctl;
  ctl.record = record;
  ClosedStats st;
  const auto t0 = Clock::now();
  const std::uint64_t inf0 = svc.session.pool().total_inference_count();
  if (seconds > 0)
    for (auto& ep : eps)
      ep.col.windowed.reset(obs::now_ns(), seconds, static_cast<std::size_t>(windows));
  {
    std::vector<std::thread> threads;
    for (auto& ep : eps)
      threads.emplace_back(closed_client, std::ref(ep), std::ref(svc),
                           std::cref(traffic), std::ref(ctl),
                           budget / eps.size());
    if (seconds > 0) {
      const double wlen = seconds / windows;
      std::uint64_t c_prev = 0, i_prev = inf0;
      for (int w = 1; w <= windows; ++w) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(wlen * w)));
        const std::uint64_t c = ctl.completed.load();
        const std::uint64_t i = svc.session.pool().total_inference_count();
        st.window_req_per_s.push_back(static_cast<double>(c - c_prev) / wlen);
        st.window_evals_per_s.push_back(static_cast<double>(i - i_prev) / wlen);
        c_prev = c;
        i_prev = i;
      }
      ctl.record = false;
      ctl.stop = true;
    }
    for (auto& t : threads) t.join();
  }
  return st;
}

// ---- Open loop -------------------------------------------------------------

struct Rung {
  double rate = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t backlog_end = 0;  // submitted - completed at the last due time
  double span_s = 0.0;            // first due -> last completion
  std::uint64_t inferences = 0;
  std::uint64_t late = 0;  // submitted more than kMaxLagMs after due
  LatencyHistogram latency, lag;
  std::vector<LatencyHistogram> windows;  // kOpenWindows, by due time
};

/// One rung: seeded Poisson arrivals at `rate` for `seconds`, submitted
/// by one generator thread at their due times and collected in order by
/// one collector thread.
Rung open_rung(Endpoint& ep, Service& svc, const Traffic& traffic, Prng& arrivals,
               double rate, double seconds) {
  Rung rung;
  rung.rate = rate;
  ep.col.latency = LatencyHistogram{};
  ep.col.lag = LatencyHistogram{};
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool finished = false;
  Control ctl;
  std::uint64_t submitted = 0;
  const std::uint64_t inf0 = svc.session.pool().total_inference_count();
  // Due times, like every other generator timestamp, are obs::now_ns()
  // readings, the trace's time base; the generator sleeps for
  // differences of them only.
  const std::uint64_t t0 = obs::now_ns() + 2'000'000;  // first due in 2 ms
  const auto horizon = static_cast<std::uint64_t>(seconds * 1e9);
  ep.col.windowed.reset(t0, seconds, kOpenWindows);

  std::thread generator([&] {
    double due_s = 0.0;
    for (;;) {
      due_s += -std::log(1.0 - arrivals.uniform()) / rate;
      const auto due_ns = static_cast<std::uint64_t>(due_s * 1e9);
      if (due_ns >= horizon) break;
      const std::uint64_t due = t0 + due_ns;
      if (const std::uint64_t now = obs::now_ns(); now < due)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      Pending p = ep.sub.submit(svc, traffic, Traffic::draw(ep.sub.rng), true, due);
      // A user whose request hit the result cache holds its result when
      // submit returns; it does not wait behind older requests the one
      // collector is still collecting. (A closed-loop caller collects its
      // own burst in order, so there in-order collection is the user's.)
      if (p.ready()) p.ready_ns = p.return_ns;
      ++submitted;
      rung.late += p.submit_ns - p.start_ns > kMaxLagMs * 1e6;
      const std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
      cv.notify_one();
    }
    const std::uint64_t done = ctl.completed.load();
    rung.backlog_end = submitted - std::min(submitted, done);
    const std::lock_guard<std::mutex> lock(mu);
    finished = true;
    cv.notify_one();
  });
  std::uint64_t last_ns = t0;
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return finished || !queue.empty(); });
        if (queue.empty()) break;
        p = std::move(queue.front());
        queue.pop_front();
      }
      ep.col.complete(p, ctl.completed);
      last_ns = obs::now_ns();
    }
  });
  generator.join();
  collector.join();
  rung.requests = submitted;
  rung.span_s = static_cast<double>(last_ns - t0) / 1e9;
  rung.inferences = svc.session.pool().total_inference_count() - inf0;
  rung.latency = ep.col.latency;
  rung.lag = ep.col.lag;
  rung.windows = ep.col.windowed.windows;
  return rung;
}

bool rung_sustained(const Rung& r) {
  return r.latency.quantile_ms(0.99) <= kSloMs &&
         static_cast<double>(r.backlog_end) <= r.rate * kSloMs / 1e3;
}

bool rung_valid(const Rung& r) { return r.lag.quantile_ms(0.99) <= kMaxLagMs; }

// ---- Checks ----------------------------------------------------------------

/// Re-executes every kept sample on an independent backend through the
/// direct batch API, each evaluation pinned to the stream the session
/// assigned it, and compares bitwise. Runs after timing.
bool oracle_check(Service& svc, const Traffic& traffic,
                  const std::vector<Endpoint>& eps, unsigned threads,
                  std::size_t& checked) {
  backend::StatevectorBackend oracle{backend::StatevectorBackendOptions{}};
  bool ok = true;
  checked = 0;
  for (int s = 0; s < kStructures; ++s) {
    for (const bool expect : {false, true}) {
      std::vector<const Sample*> group;
      for (const auto& ep : eps)
        for (const auto& smp : ep.col.samples)
          if (smp.q.s == s && (smp.q.kind == Kind::kUniqueExpect) == expect)
            group.push_back(&smp);
      if (group.empty()) continue;
      std::vector<std::vector<double>> thetas(group.size()), inputs(group.size());
      std::vector<exec::Evaluation> evals(group.size());
      for (std::size_t k = 0; k < group.size(); ++k) {
        traffic.bind(group[k]->q, group[k]->client, group[k]->serial, thetas[k],
                     inputs[k]);
        evals[k].theta = thetas[k];
        evals[k].input = inputs[k];
        evals[k].rng_stream =
            serve::ServeSession::client_stream(group[k]->client, group[k]->serial);
      }
      const auto& plan = svc.handles[static_cast<std::size_t>(s)].plan();
      if (expect) {
        const auto e = oracle.expect_batch(plan, svc.observable.observable(), evals,
                                           threads);
        for (std::size_t k = 0; k < group.size(); ++k)
          ok &= std::memcmp(&e[k], &group[k]->expect, sizeof(double)) == 0;
      } else {
        const auto f = oracle.run_batch(plan, evals, threads);
        for (std::size_t k = 0; k < group.size(); ++k)
          ok &= f[k].size() == group[k]->run.size() &&
                std::memcmp(f[k].data(), group[k]->run.data(),
                            f[k].size() * sizeof(double)) == 0;
      }
      checked += group.size();
    }
  }
  return ok;
}

void final_checks(Report& r, Service& svc, const Traffic& traffic,
                  std::vector<Endpoint>& eps, unsigned threads) {
  svc.session.shutdown();  // batch counters commit when a batch finishes
  const auto m = svc.session.metrics();
  std::uint64_t executed = 0;
  for (const auto& rep : m.replicas) executed += rep.executed_jobs;
  r.check("serve.inferences_reconcile_with_executed_jobs",
          svc.session.pool().total_inference_count() == executed);
  r.check("serve.every_submitted_job_completed",
          m.completed == m.submitted && m.failed == 0 && m.shed_jobs == 0);
  bool hot = true;
  for (const auto& ep : eps) hot &= ep.col.hot_consistent;
  r.check("serve.hot_results_consistent", hot);
  std::size_t checked = 0;
  r.check("serve.results_match_direct_batches",
          oracle_check(svc, traffic, eps, threads, checked) && checked > 0);
  r.extra("oracle_checked_results", static_cast<double>(checked));
  std::vector<double> per_replica;
  for (const auto& rep : m.replicas) per_replica.push_back(static_cast<double>(rep.executed_jobs));
  r.extra("replica_executed_jobs_min_over_max",
          ratio(*std::min_element(per_replica.begin(), per_replica.end()),
                *std::max_element(per_replica.begin(), per_replica.end())));
  r.failed = m.failed + m.shed_jobs;
}

// ---- Per-layer -------------------------------------------------------------

void report_serve_layers(Report& r, const Trace& t,
                         const serve::MetricsSnapshot& m0,
                         const serve::MetricsSnapshot& m1,
                         const CounterSnapshot& c0, const CounterSnapshot& c1,
                         const std::vector<Endpoint>& eps) {
  const double batches = static_cast<double>(m1.batches - m0.batches);
  r.layer("serve.batch_occupancy",
          ratio(static_cast<double>(m1.coalesced_jobs - m0.coalesced_jobs), batches),
          "jobs", static_cast<std::size_t>(batches));
  r.layer("serve.size_flush_frac",
          ratio(static_cast<double>(m1.size_flushes - m0.size_flushes), batches),
          "ratio", static_cast<std::size_t>(batches));
  r.layer("serve.cache_hit_ratio",
          ratio(static_cast<double>(m1.cache_hits - m0.cache_hits),
                static_cast<double>(m1.submitted - m0.submitted)),
          "ratio", m1.submitted - m0.submitted);
  r.layer("serve.fold_ratio",
          ratio(static_cast<double>(m1.folded_jobs - m0.folded_jobs),
                static_cast<double>(m1.completed - m0.completed)),
          "ratio", m1.completed - m0.completed);
  // The snapshot's peak covers the session's whole life, warm-up
  // included; the trace's queue-depth samples cover the traced load.
  r.layer("serve.peak_queue_depth", t.peak_queue_depth, "jobs",
          static_cast<std::size_t>(batches));
  std::vector<double> per_replica;
  for (std::size_t i = 0; i < m1.replicas.size(); ++i)
    per_replica.push_back(static_cast<double>(m1.replicas[i].executed_jobs -
                                              m0.replicas[i].executed_jobs));
  const auto [lo, hi] = std::minmax_element(per_replica.begin(), per_replica.end());
  r.layer("serve.replica_skew", ratio(*hi - *lo, mean(per_replica)), "ratio",
          per_replica.size());
  r.layer("serve.shed_jobs", static_cast<double>(m1.shed_jobs - m0.shed_jobs),
          "count", 1);

  std::vector<double> job_ms;
  for (const auto& j : t.jobs) job_ms.push_back((j.end_us - j.begin_us) / 1e3);
  const auto drain = t.durations_us("serve", "drain");
  const auto route = t.durations_us("serve", "route");
  const double job_p50 = quantile(job_ms, 0.5);
  const double drain_p50 = quantile(drain, 0.5) / 1e3;
  r.layer("serve.job_ms_p50", job_p50, "ms", job_ms.size());
  r.layer("serve.job_ms_p99", quantile(job_ms, 0.99), "ms", job_ms.size());
  r.layer("serve.drain_ms_p50", drain_p50, "ms", drain.size());
  r.layer("serve.wait_ms_p50", std::max(0.0, job_p50 - drain_p50), "ms", job_ms.size());
  r.layer("serve.wait_frac", ratio(std::max(0.0, job_p50 - drain_p50), job_p50),
          "ratio", job_ms.size());
  r.layer("serve.route_us_p50", quantile(route, 0.5), "us", route.size());

  auto rb = t.durations_us("backend", "run_batch");
  const auto eb = t.durations_us("backend", "expect_batch");
  r.layer("backend.run_batch_ms_p50", quantile(rb, 0.5) / 1e3, "ms", rb.size());
  r.layer("backend.expect_batch_ms_p50", quantile(eb, 0.5) / 1e3, "ms", eb.size());
  double evals = 0.0;
  for (const auto& s : t.spans)
    if (s.cat == "backend") evals += static_cast<double>(s.arg);
  r.layer("backend.evals_per_call",
          ratio(evals, static_cast<double>(rb.size() + eb.size())), "count",
          rb.size() + eb.size());
  r.layer("backend.busy_frac",
          ratio(t.dur_sum_us("backend", "run_batch") +
                    t.dur_sum_us("backend", "expect_batch"),
                t.wall_us),
          "ratio", rb.size() + eb.size());
  auto kern = t.durations_us("kernel", "sv_batch");
  const auto kex = t.durations_us("kernel", "sv_expect_batch");
  kern.insert(kern.end(), kex.begin(), kex.end());
  r.layer("sim.kernel_ms_p50", quantile(kern, 0.5) / 1e3, "ms", kern.size());
  report_lane_counters(r, c0, c1);

  // Coverage: the part of each traced request's wall time (due or submit
  // -> result observed) that ends inside a library layer: the submit
  // call, then the job's async span until its future is fulfilled.
  std::unordered_map<std::uint64_t, double> job_end;
  for (const auto& j : t.jobs) job_end[j.id] = j.end_us;
  double system = 0.0, collect = 0.0, total = 0.0;
  std::size_t n = 0;
  for (const auto& ep : eps)
    for (const auto& rt : ep.col.times) {
      const double start = t.to_trace_us(rt.start_ns);
      const double observed = t.to_trace_us(rt.observed_ns);
      const auto it = job_end.find(rt.stream);
      const double end = std::clamp(
          it != job_end.end() ? it->second : t.to_trace_us(rt.return_ns), start,
          observed);
      // Due -> submit (open-loop lag) and submit -> fulfilled belong to
      // the generator and the library layers; a fulfilled result then
      // waits while the collector finishes older requests (in-order
      // collection, the generator again); what is left is the wake-up
      // that delivers the result to the collecting thread.
      const double prev = t.to_trace_us(rt.prev_observed_ns);
      system += end - start;
      collect += std::clamp(prev, end, observed) - end;
      total += observed - start;
      ++n;
    }
  r.layer("loadgen.collect_frac", ratio(collect, total), "ratio", n);
  r.layer("obs.coverage_pct", 100.0 * ratio(system + collect, total), "%", n);
  r.layer("obs.dropped_events", static_cast<double>(t.dropped_events), "count", 1);
  report_layer_shares(r, t);
}

/// What the k-wide lanes were worth to the traffic just traced: the
/// traced backend calls (run or expect, with their batch sizes; an
/// even subsample of at most kReplayCalls) replayed on the served
/// structures in turn, scalar lanes (batch_lanes = 1) over the default
/// lane policy. Singleton traffic reads about 1.
double lane_speedup(const Trace& t, const Service& svc, const Traffic& traffic,
                    unsigned threads, int reps) {
  struct Call {
    bool expect;
    std::size_t n;
  };
  std::vector<Call> traced;
  for (const auto& sp : t.spans)
    if (sp.cat == "backend")
      traced.push_back({sp.name == "expect_batch", static_cast<std::size_t>(sp.arg)});
  if (traced.empty()) return 0.0;
  const std::size_t n_calls = std::min(traced.size(), kReplayCalls);
  std::vector<Call> calls;
  std::size_t widest = 0;
  for (std::size_t i = 0; i < n_calls; ++i) {
    calls.push_back(traced[i * traced.size() / n_calls]);
    widest = std::max(widest, calls.back().n);
  }
  std::vector<std::vector<std::vector<double>>> thetas(kStructures), inputs(kStructures);
  std::vector<std::vector<exec::Evaluation>> evals(kStructures);
  for (int s = 0; s < kStructures; ++s) {
    thetas[s].resize(widest);
    inputs[s].resize(widest);
    evals[s].resize(widest);
    for (std::size_t k = 0; k < widest; ++k) {
      traffic.bind({Kind::kUniqueRun, s, 0}, 0, k, thetas[s][k], inputs[s][k]);
      evals[s][k].theta = thetas[s][k];
      evals[s][k].input = inputs[s][k];
    }
  }
  auto replay = [&](backend::Backend& b) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto s = i % kStructures;
      const auto& plan = svc.handles[s].plan();
      const std::span<const exec::Evaluation> e(evals[s].data(), calls[i].n);
      if (calls[i].expect)
        b.expect_batch(plan, svc.observable.observable(), e, threads);
      else
        b.run_batch(plan, e, threads);
    }
  };
  backend::StatevectorBackend wide{backend::StatevectorBackendOptions{}};
  backend::StatevectorBackend scalar{backend::StatevectorBackendOptions{0, 0x51A7E7EC7ULL, 1}};
  replay(wide);
  replay(scalar);
  const double t_wide = median_ms(reps, [&] { replay(wide); });
  const double t_scalar = median_ms(reps, [&] { replay(scalar); });
  return t_scalar / t_wide;
}

std::vector<Endpoint> make_endpoints(Service& svc, std::uint64_t seed) {
  std::vector<Endpoint> eps;
  for (int i = 0; i < kClients; ++i) {
    Endpoint ep{Submitter{svc.session.client(), Prng(derive_seed(seed, 23 + i)), 0,
                          {}, {}, LatencyHistogram{}},
                Collector{}};
    ep.col.client = ep.sub.client.id();
    eps.push_back(std::move(ep));
  }
  return eps;
}

}  // namespace

Report run_serve(const Options& opt, bool open_loop) {
  Report r;
  const auto catalog = structure_catalog();
  const Traffic traffic(derive_seed(opt.seed, 21), catalog);
  Prng arrivals(derive_seed(opt.seed, 22));

  // Set-up: the replica pool and its lane threads, the registry (eight
  // compiled structures plus the observable) and a fixed-size warm-up
  // that fills the result cache and resolves process-wide lazy state.
  std::unique_ptr<Service> svc;
  std::vector<Endpoint> eps;
  // Seven set-ups, more than the other workloads: after serve_open's
  // light measured phase the host ran the set-ups that follow 20-60%
  // slower for up to 2 s, and a longer series dilutes that.
  SetupTimer setup(opt.smoke || opt.trace ? 1 : 7, [&] {
    eps.clear();
    svc.reset();
    svc = std::make_unique<Service>(catalog, opt.threads);
    eps = make_endpoints(*svc, opt.seed);
    closed_loop(eps, *svc, traffic, 0.0, 1,
                opt.smoke ? kWarmupRequests / 10 : kWarmupRequests, false);
  });
  for (auto& ep : eps) ep.col.samples.clear();

  const double segment_s = std::clamp(opt.seconds / 10.0, 0.5, 2.0);
  if (!opt.trace) {
    LatencyHistogram latency;
    double ops = 0.0, evals = 0.0;
    std::size_t windows = 1;
    std::vector<LatencyHistogram> by_window;
    if (open_loop) {
      // A generator that fell behind its schedule (a host stall) makes
      // the rung invalid, not the service's outputs wrong: it is
      // measured once more, and the second reading stands.
      Rung base = open_rung(eps[0], *svc, traffic, arrivals, kBaseRate, opt.seconds);
      r.extra("rung_reruns", rung_valid(base) ? 0.0 : 1.0);
      if (!rung_valid(base))
        base = open_rung(eps[0], *svc, traffic, arrivals, kBaseRate, opt.seconds);
      latency = base.latency;
      by_window = base.windows;
      ops = static_cast<double>(base.requests) / base.span_s;
      evals = static_cast<double>(base.inferences) / base.span_s;
      r.extra("lag_ms_p99", base.lag.quantile_ms(0.99));
      r.extra("backlog_end", static_cast<double>(base.backlog_end));
    } else {
      const int n_windows = std::max(1, static_cast<int>(opt.seconds / 2.0));
      const ClosedStats st =
          closed_loop(eps, *svc, traffic, opt.seconds, n_windows, 0, true);
      for (const auto& ep : eps) latency.merge(ep.col.latency);
      by_window = eps[0].col.windowed.windows;
      for (std::size_t e = 1; e < eps.size(); ++e)
        for (std::size_t w = 0; w < by_window.size(); ++w)
          by_window[w].merge(eps[e].col.windowed.windows[w]);
      ops = median(st.window_req_per_s);
      evals = median(st.window_evals_per_s);
      windows = st.window_req_per_s.size();
    }
    r.attempted = latency.count();
    r.metric("ops_per_s", ops, "ops/s", windows);
    r.metric("evals_per_s", evals, "evals/s", windows);
    r.metric("latency_ms_p50", window_best_ms(by_window, 0.5), "ms", latency.count());
    r.extra("latency_ms_p90", window_best_ms(by_window, 0.9));
    r.extra("latency_ms_p99", latency.quantile_ms(0.99));
    final_checks(r, *svc, traffic, eps, opt.threads);
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    r.metric("setup_s", setup.finish(), "s", setup.count());
    return r;
  }

  // Traced run: an untraced segment, the same load traced, then
  // counterfactual probes (and the rate ladder for the open loop).
  double untraced = 0.0, traced = 0.0;
  Rung base;
  if (open_loop) {
    base = open_rung(eps[0], *svc, traffic, arrivals, kBaseRate, segment_s);
    untraced = base.latency.quantile_ms(0.5);
  } else {
    untraced = closed_loop(eps, *svc, traffic, segment_s, 1, 0, true).window_req_per_s[0];
  }
  LatencyHistogram submit;
  for (const auto& ep : eps) submit.merge(ep.sub.submit_time);
  for (auto& ep : eps) ep.col.keep_times = true;

  const auto m0 = svc->session.metrics();
  const auto c0 = CounterSnapshot::take();
  trace_begin(1 << 20);
  if (open_loop) {
    traced = open_rung(eps[0], *svc, traffic, arrivals, kBaseRate, segment_s)
                 .latency.quantile_ms(0.5);
  } else {
    traced = closed_loop(eps, *svc, traffic, segment_s, 1, 0, true).window_req_per_s[0];
  }
  const Trace t = trace_end();
  const auto m1 = svc->session.metrics();
  const auto c1 = CounterSnapshot::take();
  for (auto& ep : eps) ep.col.keep_times = false;

  r.attempted = m1.submitted - m0.submitted;
  report_serve_layers(r, t, m0, m1, c0, c1, eps);
  // Closed loop: throughput lost to tracing; open loop (throughput is
  // the offered rate): median latency added by tracing.
  r.layer("obs.trace_overhead_pct",
          open_loop ? 100.0 * (traced - untraced) / untraced
                    : 100.0 * (untraced - traced) / untraced,
          "%", 2);
  r.layer("serve.submit_us_p50", submit.quantile_ms(0.5) * 1e3, "us", submit.count());
  r.layer("serve.submit_us_p99", submit.quantile_ms(0.99) * 1e3, "us", submit.count());
  double sustained = 0.0;
  if (open_loop) {
    r.layer("loadgen.lag_ms_p99", base.lag.quantile_ms(0.99), "ms", base.lag.count());
    r.layer("loadgen.late_frac",
            ratio(static_cast<double>(base.late), static_cast<double>(base.requests)),
            "ratio", base.requests);
    r.layer("loadgen.backlog_end", static_cast<double>(base.backlog_end), "count", 1);
    // Ladder: the highest rate whose p99 meets the limit with no growing
    // backlog. A rung the generator could not keep is measured again.
    for (const double rate : kLadder) {
      Rung rung = open_rung(eps[0], *svc, traffic, arrivals, rate, segment_s);
      if (!rung_valid(rung))
        rung = open_rung(eps[0], *svc, traffic, arrivals, rate, segment_s);
      r.extra("ladder_p99_ms_at_" + std::to_string(static_cast<int>(rate)),
              rung.latency.quantile_ms(0.99));
      if (!rung_valid(rung) || !rung_sustained(rung)) break;
      sustained = rate;
    }
  }
  r.layer("serve.sustained_rate", sustained, "req/s", kLadder.size());
  const int reps = opt.smoke ? 1 : 3;
  r.layer("sim.lane_speedup",
          lane_speedup(t, *svc, traffic,
                       std::max(1u, opt.threads / static_cast<unsigned>(kReplicas)), reps),
          "x", static_cast<std::size_t>(reps));
  final_checks(r, *svc, traffic, eps, opt.threads);
  return r;
}

}  // namespace e2e
