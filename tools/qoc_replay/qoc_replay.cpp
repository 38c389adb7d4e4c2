// qoc_replay -- record/replay driver for the serve layer.
//
//   qoc_replay record <scenario> <out.qoctrace>   capture a golden trace
//   qoc_replay replay <log.qoctrace> [options]    re-serve + bitwise diff
//   qoc_replay diff <a.qoctrace> <b.qoctrace>     compare two logs
//   qoc_replay dump <log.qoctrace>                print the text form
//
// Scenarios (fixed seeds; the backend is reconstructed from the name
// stored in the log, so a recorded trace is self-describing):
//   exact    10-qubit QNN on the exact statevector backend
//   sampled  same structure, shots=256 Born sampling
//   noisy    4-qubit circuit on the ibmq_santiago device, 64 shots
//   density  the same device read out exactly (shots=0)
//   mixed    8-structure catalog + expects + duplicates + result cache
//
// Traffic shapes come from bench/traffic.hpp, so golden traces exercise
// the same streams bench_serve measures. Exit codes: 0 = ok / identical,
// 1 = divergence / logs differ, 2 = usage or log error.

#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/exec/observable.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/replay/replay.hpp"
#include "qoc/serve/serve.hpp"
#include "traffic.hpp"

namespace {

using namespace qoc;

constexpr const char* kScenarios[] = {"exact", "sampled", "noisy", "density",
                                      "mixed"};

/// Small 4-qubit QNN for the device backends (fits the 5-qubit santiago
/// device).
circuit::Circuit small_qnn() {
  circuit::Circuit c(4);
  circuit::add_rotation_encoder(c, 4);
  circuit::add_rzz_ring_layer(c);
  circuit::add_ry_layer(c);
  return c;
}

/// ZZ-chain + X0 observable on n qubits.
exec::CompiledObservable make_observable(int n) {
  std::vector<exec::ObservableTerm> terms;
  for (int q = 0; q + 1 < n; ++q) {
    std::string p(static_cast<std::size_t>(n), 'I');
    p[static_cast<std::size_t>(q)] = 'Z';
    p[static_cast<std::size_t>(q) + 1] = 'Z';
    terms.push_back({std::move(p), 0.5 + 0.1 * q});
  }
  std::string x0(static_cast<std::size_t>(n), 'I');
  x0[0] = 'X';
  terms.push_back({std::move(x0), 0.25});
  return exec::CompiledObservable::compile(n, terms);
}

/// The backend a scenario records against (and replays against --
/// identical construction both times, fixed seeds).
std::unique_ptr<backend::Backend> make_backend(const std::string& scenario) {
  if (scenario == "exact" || scenario == "mixed")
    return std::make_unique<backend::StatevectorBackend>(0);
  if (scenario == "sampled")
    return std::make_unique<backend::StatevectorBackend>(
        backend::StatevectorBackendOptions{.shots = 256,
                                           .seed = 0xC0FFEE5EEDULL});
  if (scenario == "noisy")
    return std::make_unique<backend::NoisyBackend>(
        noise::DeviceModel::ibmq_santiago(),
        backend::NoisyBackendOptions{.shots = 64, .seed = 0xD1CE5EEDULL});
  if (scenario == "density")
    return std::make_unique<backend::NoisyBackend>(
        noise::DeviceModel::ibmq_santiago(),
        backend::NoisyBackendOptions{.shots = 0});
  throw replay::TraceError("qoc_replay: unknown scenario '" + scenario +
                           "' (not one of exact/sampled/noisy/density/mixed)");
}

/// Drive a scenario's traffic through a recording session and return
/// the captured log. All futures are drained before the snapshot, so
/// every admitted job carries its result.
replay::TraceLog record_scenario(const std::string& scenario) {
  const auto backend = make_backend(scenario);
  auto recorder = std::make_shared<replay::Recorder>(scenario);
  serve::ServeOptions opt;
  opt.max_batch = 16;
  opt.max_delay = std::chrono::microseconds(200);
  opt.trace_sink = recorder;
  if (scenario == "mixed") opt.result_cache_capacity = 64;

  serve::ServeSession session(*backend, opt);
  const bool small = scenario == "noisy" || scenario == "density";
  const bool cheap = small;  // transpiling backends: keep job counts low

  std::vector<circuit::Circuit> structures;
  if (scenario == "mixed")
    structures = traffic::structure_catalog();
  else
    structures.push_back(small ? small_qnn() : traffic::qnn_circuit());
  std::vector<serve::CircuitHandle> handles;
  for (const auto& c : structures)
    handles.push_back(session.register_circuit(c));
  const auto observable =
      session.register_observable(make_observable(small ? 4 : 10));

  std::vector<std::future<std::vector<double>>> runs;
  std::vector<std::future<double>> expects;
  const int n_clients = scenario == "mixed" ? 3 : 2;
  const std::uint64_t per_client = cheap ? 6 : 16;
  for (int cl = 0; cl < n_clients; ++cl) {
    auto client = session.client();
    for (std::uint64_t serial = 0; serial < per_client; ++serial) {
      const std::size_t s = serial % handles.size();
      std::vector<double> theta = traffic::base_theta(structures[s]);
      const std::vector<double> input = traffic::base_input(structures[s]);
      switch (serial % 4) {
        case 0:  // unique binding, run
          traffic::unique_binding(theta, cl, serial);
          runs.push_back(client.submit(handles[s], theta, input));
          break;
        case 1:  // unique binding, expect
          traffic::unique_binding(theta, cl, serial);
          expects.push_back(
              client.submit_expect(handles[s], observable, theta, input));
          break;
        case 2:  // hot-catalog binding: cacheable across clients
          traffic::hot_binding(theta, serial);
          runs.push_back(client.submit(handles[s], theta, input));
          break;
        default:  // exact duplicate of the previous hot binding: foldable
          traffic::hot_binding(theta, serial - 1);
          runs.push_back(client.submit(handles[s], theta, input));
          break;
      }
    }
  }
  for (auto& f : runs) f.get();
  for (auto& f : expects) f.get();
  return recorder->snapshot();
}

int cmd_record(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: qoc_replay record <scenario> <out>\n");
    return 2;
  }
  const std::string scenario = argv[0];
  const replay::TraceLog log = record_scenario(scenario);
  replay::save(log, argv[1]);
  std::printf("recorded scenario '%s': %zu circuits, %zu observables, "
              "%zu jobs -> %s\n",
              scenario.c_str(), log.circuits.size(), log.observables.size(),
              log.jobs.size(), argv[1]);
  return 0;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr,
                 "usage: qoc_replay replay <log> [--replicas N] [--fold 0|1] "
                 "[--cache N] [--policy block|shed] [--max-queue N] "
                 "[--paced]\n");
    return 2;
  }
  const replay::TraceLog log = replay::load(argv[0]);
  replay::ReplayOptions opt;
  opt.serve.max_batch = 16;
  opt.serve.max_delay = std::chrono::microseconds(200);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw replay::TraceError("qoc_replay: " + arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--replicas")
      opt.replicas = static_cast<std::size_t>(std::stoul(value()));
    else if (arg == "--fold")
      opt.serve.fold_duplicates = std::stoi(value()) != 0;
    else if (arg == "--cache")
      opt.serve.result_cache_capacity =
          static_cast<std::size_t>(std::stoul(value()));
    else if (arg == "--max-queue")
      opt.serve.max_queue = static_cast<std::size_t>(std::stoul(value()));
    else if (arg == "--policy") {
      const std::string p = value();
      if (p == "block")
        opt.serve.overload = serve::OverloadPolicy::Block;
      else if (p == "shed")
        opt.serve.overload = serve::OverloadPolicy::Shed;
      else
        throw replay::TraceError("qoc_replay: unknown policy '" + p + "'");
    } else if (arg == "--paced")
      opt.paced = true;
    else
      throw replay::TraceError("qoc_replay: unknown option '" + arg + "'");
  }
  const auto backend = make_backend(log.scenario);
  const replay::ReplayReport report = replay::replay(log, *backend, opt);
  std::printf("scenario '%s' x%zu replica(s): %zu jobs, %zu matched, "
              "%zu diverged, %zu skipped\n",
              log.scenario.c_str(), opt.replicas, report.jobs, report.matched,
              report.diverged, report.skipped);
  for (std::size_t i = 0; i < report.divergences.size() && i < 10; ++i) {
    const auto& d = report.divergences[i];
    std::fprintf(stderr, "  DIVERGED client %u seq %llu (%s)%s%s\n", d.client,
                 static_cast<unsigned long long>(d.seq),
                 d.is_expect ? "expect" : "run",
                 d.error.empty() ? "" : ": ", d.error.c_str());
  }
  return report.ok() ? 0 : 1;
}

int cmd_diff(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: qoc_replay diff <a> <b>\n");
    return 2;
  }
  const replay::TraceLog a = replay::load(argv[0]);
  const replay::TraceLog b = replay::load(argv[1]);
  if (replay::logs_equal(a, b)) {
    std::printf("logs are bitwise-identical\n");
    return 0;
  }
  std::printf("logs differ\n");
  return 1;
}

int cmd_dump(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: qoc_replay dump <log>\n");
    return 2;
  }
  const std::string text = replay::write_text(replay::load(argv[0]));
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: qoc_replay <record|replay|diff|dump> ...\n"
               "scenarios:");
  for (const char* s : kScenarios) std::fprintf(stderr, " %s", s);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    if (cmd == "record") return cmd_record(argc - 2, argv + 2);
    if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
    if (cmd == "dump") return cmd_dump(argc - 2, argv + 2);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qoc_replay: %s\n", e.what());
    return 2;
  }
}
