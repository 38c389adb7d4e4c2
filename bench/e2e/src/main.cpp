// bench_e2e: one workload of the end-to-end benchmark per process.
//
//   bench_e2e --workload pgp_train|vqe_solve|serve_closed|serve_open
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--threads T]
//
// The last stdout line is one JSON object: the end-to-end metrics
// (--trace 0) or the per-layer table (--trace 1), the correctness
// checks, and the build fingerprint. bench/e2e/run.py builds this
// binary and drives it; see bench/e2e/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "e2e.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/sim/cost_model.hpp"
#include "qoc/sim/kernels.hpp"

namespace {

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(NDEBUG)
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

const char* calibration_source(qoc::sim::LaneCalibrationSource s) {
  switch (s) {
    case qoc::sim::LaneCalibrationSource::kDefault: return "default";
    case qoc::sim::LaneCalibrationSource::kMeasured: return "measured";
    case qoc::sim::LaneCalibrationSource::kEnv: return "env";
    case qoc::sim::LaneCalibrationSource::kFile: return "file";
    case qoc::sim::LaneCalibrationSource::kPinned: return "pinned";
  }
  return "unknown";
}

/// Build half of the fingerprint; run.py adds the host half.
std::string context(const e2e::Options& opt) {
  // Resolved during the workload already; this only reads the cache.
  const auto cal = qoc::sim::lane_calibration();
  std::string s = "{\"build_type\":\"";
  s += kOptimized ? (kNdebug ? "optimized" : "optimized+assertions") : "unoptimized";
  s += "\",\"optimize\":";
  s += kOptimized ? "true" : "false";
  s += ",\"ndebug\":";
  s += kNdebug ? "true" : "false";
  s += ",\"qoc_obs\":" + std::to_string(QOC_OBS);
  s += ",\"compiler\":\"" + std::string(__VERSION__) + "\"";
  s += ",\"simd_backend\":\"" + std::string(qoc::sim::kernels::simd_backend()) + "\"";
  s += ",\"lane_calibration\":\"" + cal.serialize() + "\"";
  s += ",\"lane_calibration_source\":\"" + std::string(calibration_source(cal.source)) + "\"";
  s += ",\"threads\":" + std::to_string(opt.threads) + "}";
  return s;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload pgp_train|vqe_solve|serve_closed|"
               "serve_open [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--threads T]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kOptimized) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to measure an unoptimised build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--threads" && has_value) {
      opt.threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0.0 || opt.threads == 0) return usage();
  if (opt.trace && !QOC_OBS) {
    std::fprintf(stderr, "bench_e2e: traced runs need a QOC_OBS=ON build\n");
    return 3;
  }

  e2e::Report report;
  try {
    if (opt.workload == "pgp_train")
      report = e2e::run_pgp_train(opt);
    else if (opt.workload == "vqe_solve")
      report = e2e::run_vqe_solve(opt);
    else if (opt.workload == "serve_closed")
      report = e2e::run_serve(opt, false);
    else if (opt.workload == "serve_open")
      report = e2e::run_serve(opt, true);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.trace)
    report.layer("common.dispatch_us", e2e::dispatch_probe_us(opt.threads, 2000),
                 "us", 2000);
  std::printf("%s\n", report.to_json(opt, context(opt)).c_str());
  return 0;
}
