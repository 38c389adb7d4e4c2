#include "qoc/backend/backend.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "qoc/common/parallel.hpp"
#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/cost_model.hpp"
#include "qoc/sim/density_matrix.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/statevector.hpp"

namespace qoc::backend {

using circuit::GateKind;
using linalg::cplx;
using linalg::kI;
using linalg::Matrix;

// ---------------------------------------------------------------------------
// Backend base: plan cache + the stream rule
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kPlanCacheCap = 512;
constexpr std::size_t kTranspileCacheCap = 128;
}  // namespace

std::shared_ptr<const exec::CompiledCircuit> Backend::plan_cached(
    const circuit::Circuit& c) {
  // Probe with an allocation-free streaming hash + field-wise compare.
  const std::uint64_t h = exec::structure_hash(c);

  const common::MutexLock lock(plan_cache_mutex_);
  if (plan_cache_entries_ >= kPlanCacheCap) {
    plan_cache_.clear();
    plan_cache_entries_ = 0;
  }
  auto& bucket = plan_cache_[h];
  for (const auto& plan : bucket)
    if (exec::structure_equal(c, plan->source())) return plan;
  bucket.push_back(std::make_shared<const exec::CompiledCircuit>(
      exec::CompiledCircuit::compile(c)));
  ++plan_cache_entries_;
  return bucket.back();
}

std::vector<Prng> Backend::batch_streams(
    std::uint64_t seed, std::span<const exec::Evaluation> evals) {
  const std::uint64_t base =
      serials_.fetch_add(evals.size(), std::memory_order_relaxed);
  std::vector<Prng> rngs;
  rngs.reserve(evals.size());
  for (std::size_t k = 0; k < evals.size(); ++k)
    rngs.push_back(stream_prng(
        seed, evals[k].rng_stream == exec::Evaluation::kAutoStream
                  ? base + k
                  : evals[k].rng_stream));
  return rngs;
}

std::vector<double> Backend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  // Joint Pauli products (<Z_i Z_j ...>) cannot be reconstructed from
  // per-qubit <Z_q>, so there is no generic fallback.
  (void)plan;
  (void)observable;
  (void)evals;
  (void)threads;
  throw std::logic_error(name() +
                         ": expect_batch requires native state access");
}

// ---------------------------------------------------------------------------
// TranspileCache
// ---------------------------------------------------------------------------

/// A plan's routed template relabelled onto its m active qubits (see
/// TranspileCache): its ops and final_layout index active qubits, and
/// active qubit q is physical qubit physical[q].
struct ActiveProgram {
  ActiveProgram(transpile::RoutedTemplate routed, int n_device)
      : physical(relabel(routed, n_device)), tmpl(std::move(routed)) {}

  int n_active() const { return static_cast<int>(physical.size()); }

  /// Relabels `tmpl` onto its active qubits and returns their physical
  /// qubits.
  static std::vector<int> relabel(transpile::RoutedTemplate& tmpl,
                                  int n_device) {
    std::vector<int> index(static_cast<std::size_t>(n_device), -1);
    for (const auto& op : tmpl.ops)
      for (const int q : op.qubits) index[static_cast<std::size_t>(q)] = 0;
    for (const int q : tmpl.final_layout)
      index[static_cast<std::size_t>(q)] = 0;
    std::vector<int> physical;
    for (int p = 0; p < n_device; ++p)
      if (index[static_cast<std::size_t>(p)] == 0) {
        index[static_cast<std::size_t>(p)] = static_cast<int>(physical.size());
        physical.push_back(p);
      }
    for (auto& op : tmpl.ops)
      for (int& q : op.qubits) q = index[static_cast<std::size_t>(q)];
    for (int& q : tmpl.final_layout) q = index[static_cast<std::size_t>(q)];
    return physical;
  }

  std::vector<int> physical;
  transpile::RoutedTemplate tmpl;
};

std::shared_ptr<const ActiveProgram> TranspileCache::get(
    const exec::CompiledCircuit& plan, const noise::DeviceModel& device) {
  // Probe by the cheap structure hash, but NEVER trust a hash hit alone:
  // structure_hash() explicitly allows collisions, and serving a
  // colliding entry would execute the wrong routed program. Every hit is
  // verified against the entry's source circuit with structure_equal.
  const common::MutexLock lock(mutex_);
  const auto it = cache_.find(plan.structure_hash());
  if (it != cache_.end())
    for (const auto& [source, tmpl] : it->second)
      if (exec::structure_equal(plan.source(), source)) {
        QOC_METRIC_COUNTER_ADD("qoc_transpile_cache_hits_total", 1);
        return tmpl;
      }
  QOC_METRIC_COUNTER_ADD("qoc_transpile_cache_misses_total", 1);
  if (entries_ >= kTranspileCacheCap) {
    cache_.clear();
    entries_ = 0;
  }
  // Route before touching the map: route_template throws for unroutable
  // circuits, and an early insert would leak an empty bucket the
  // entries_ cap never sees.
  auto tmpl = std::make_shared<const ActiveProgram>(
      transpile::route_template(plan.source(), device), device.n_qubits);
  cache_[plan.structure_hash()].emplace_back(plan.source(), tmpl);
  ++entries_;
  return tmpl;
}

// ---------------------------------------------------------------------------
// Lane groups + scalar tail: the one k-wide dispatch loop
// ---------------------------------------------------------------------------

namespace {

/// Lane-policy observability: how much of a dispatch ran k-wide, how
/// many padding lanes the compacted ragged tail burned, and how many
/// work items fell through to the scalar path. Counts work items
/// (evaluations or noise trajectories), never drives control flow.
void note_lane_metrics(const sim::LanePartition& part, std::size_t total) {
  if (part.lanes > 1) {
    QOC_METRIC_COUNTER_ADD("qoc_sim_lane_wide_groups_total", part.groups());
    QOC_METRIC_COUNTER_ADD("qoc_sim_lane_wide_evals_total", part.tail_start);
    if (part.padded_evals > 0) {
      QOC_METRIC_COUNTER_ADD("qoc_sim_lane_tail_compacted_evals_total",
                             part.padded_evals);
      QOC_METRIC_COUNTER_ADD("qoc_sim_lane_tail_padding_lanes_total",
                             part.lanes - part.padded_evals);
    }
  }
  QOC_METRIC_COUNTER_ADD("qoc_sim_lane_scalar_evals_total",
                         total - part.tail_start);
}

/// The loop behind every k-wide dispatch: runs `total` work items
/// (evaluations, or one execution's noise trajectories) as `part`
/// splits them -- its lane groups, then the scalar tail -- fanned over
/// `threads` pool workers (1 = in order on the caller). Per worker
/// chunk, make_group() returns the callable group(first, real) run on
/// each of the chunk's lane groups and make_scalar() the callable
/// scalar(k) run on each of its tail items, so scratch those callables
/// capture is allocated once per chunk. A group covers items [first,
/// first + real); real < part.lanes marks the compacted ragged tail,
/// whose remaining lanes are padding: they compute a discarded state
/// and must never touch an item's results or RNG stream.
template <class MakeGroup, class MakeScalar>
void run_lanes(const sim::LanePartition& part, std::size_t total,
               unsigned threads, MakeGroup&& make_group,
               MakeScalar&& make_scalar) {
  note_lane_metrics(part, total);
  parallel_for_chunked(
      0, part.groups(),
      [&](std::size_t lo, std::size_t hi) {
        auto group = make_group();
        for (std::size_t g = lo; g < hi; ++g)
          group(g * part.lanes,
                g < part.full_groups ? part.lanes : part.padded_evals);
      },
      threads);
  parallel_for_chunked(
      part.tail_start, total,
      [&](std::size_t lo, std::size_t hi) {
        auto scalar = make_scalar();
        for (std::size_t k = lo; k < hi; ++k) scalar(k);
      },
      threads);
}

/// The state commuting group g is measured on: `state` itself for
/// all-Z groups (no O(2^n) copy), else `scratch` holding a copy rotated
/// by g's basis-change suffix. `layout` maps suffix qubits as in
/// CompiledObservable::apply_suffix.
template <class State>
const State& measured_state(const exec::CompiledObservable& observable,
                            std::size_t g, const State& state, State& scratch,
                            std::span<const int> layout = {}) {
  if (observable.groups()[g].suffix.empty()) return state;
  scratch = state;
  if constexpr (std::is_same_v<State, sim::BatchedStatevector>)
    observable.apply_suffix_lanes(scratch, g, layout);
  else
    observable.apply_suffix(scratch, g, layout);
  return scratch;
}

}  // namespace

// ---------------------------------------------------------------------------
// StatevectorBackend
// ---------------------------------------------------------------------------

StatevectorBackend::StatevectorBackend(int shots, std::uint64_t seed)
    : StatevectorBackend(StatevectorBackendOptions{shots, seed}) {}

StatevectorBackend::StatevectorBackend(const StatevectorBackendOptions& options)
    : shots_(options.shots),
      seed_(options.seed),
      batch_lanes_(options.batch_lanes) {
  if (options.shots < 0)
    throw std::invalid_argument("StatevectorBackend: shots < 0");
}

namespace {

/// Finite-shot estimate of each <Z_q> from shot counts. The +-count sums
/// are exact integers, so each value is bitwise the per-shot +-1.0 fold.
std::vector<double> expectations_from_counts(const sim::ShotCounts& c,
                                             int n_qubits) {
  std::vector<double> out(static_cast<std::size_t>(n_qubits));
  for (int q = 0; q < n_qubits; ++q) {
    const int shift = n_qubits - 1 - q;
    std::int64_t sum = 0;
    for (std::size_t j = 0; j < c.outcomes.size(); ++j) {
      const std::int64_t n = c.counts[j];
      sum += ((c.outcomes[j] >> shift) & 1ULL) ? -n : n;
    }
    out[static_cast<std::size_t>(q)] =
        static_cast<double>(sum) / static_cast<double>(c.shots);
  }
  return out;
}

/// Per-chunk scratch of the statevector lane groups.
struct LaneGroupState {
  sim::BatchedStatevector bsv;
  std::vector<double> angles;
  std::vector<exec::Evaluation> padded;
  sim::ShotSampler sampler;

  LaneGroupState(int n_qubits, std::size_t lanes) : bsv(n_qubits, lanes) {}

  /// Prepare evaluations [first, first + real) on the lanes. A
  /// part-filled group pads by repeating its last real evaluation.
  void prepare(const exec::CompiledCircuit& plan,
               std::span<const exec::Evaluation> evals, std::size_t first,
               std::size_t real) {
    std::span<const exec::Evaluation> group = evals.subspan(first, real);
    if (real < bsv.lanes()) {
      padded.assign(group.begin(), group.end());
      padded.resize(bsv.lanes(), group.back());
      group = padded;
    }
    plan.resolve_slots_lanes(group, angles);
    bsv.reset();
    plan.apply_batched(bsv, angles);
  }
};

/// Per-chunk scratch of the statevector scalar tail.
struct ScalarState {
  sim::Statevector sv;
  std::vector<double> angles;
  sim::ShotSampler sampler;

  explicit ScalarState(int n_qubits) : sv(n_qubits) {}

  void prepare(const exec::CompiledCircuit& plan, const exec::Evaluation& e) {
    plan.resolve_slots(e.theta, e.input, e.shift_op, e.shift, angles);
    sv.reset();
    plan.apply(sv, angles);
  }
};

}  // namespace

std::vector<std::vector<double>> StatevectorBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const int n = plan.num_qubits();
  // Evaluation-major partition: lane groups execute k evaluations at a
  // time on a BatchedStatevector, the scalar path runs whatever the
  // partition leaves over (the whole batch when the lane table says
  // lanes == 1). Lane L of a group evolves bit-identically to the
  // scalar path and each lane samples from its own evaluation's
  // stream, so the partition is invisible in the results.
  const sim::LanePartition part =
      sim::partition_lanes(n, evals.size(), batch_lanes_);
  // `lanes` is the cost model's k-wide SoA verdict; the span shows how
  // much of a served batch actually ran grouped vs on the scalar tail.
  QOC_TRACE_SPAN_ARG("kernel", "sv_batch", "lanes",
                     static_cast<std::int64_t>(part.lanes));
  // Exact mode draws nothing: it reserves no serials and touches no
  // shared state, so it scales linearly with threads.
  std::vector<Prng> rngs;
  if (shots_ > 0) rngs = batch_streams(seed_, evals);
  std::vector<std::vector<double>> results(evals.size());
  run_lanes(
      part, evals.size(), threads,
      [&] {
        return [&, s = LaneGroupState(n, part.lanes),
                zexp = std::vector<double>()](std::size_t first,
                                              std::size_t real) mutable {
          s.prepare(plan, evals, first, real);
          if (shots_ > 0) {
            for (std::size_t k = first; k < first + real; ++k)
              results[k] = expectations_from_counts(
                  s.bsv.sample_counts(k - first, shots_, rngs[k], s.sampler),
                  n);
            return;
          }
          // One fused measurement pass for the whole lane group
          // (bit-identical per lane to expectation_z_all(l)).
          s.bsv.expectation_z_all_lanes(zexp);
          for (std::size_t l = 0; l < real; ++l) {
            auto& r = results[first + l];
            r.resize(static_cast<std::size_t>(n));
            for (int q = 0; q < n; ++q)
              r[static_cast<std::size_t>(q)] =
                  zexp[static_cast<std::size_t>(q) * part.lanes + l];
          }
        };
      },
      [&] {
        return [&, s = ScalarState(n)](std::size_t k) mutable {
          s.prepare(plan, evals[k]);
          results[k] = shots_ == 0
                           ? s.sv.expectation_z_all()
                           : expectations_from_counts(
                                 s.sv.sample_counts(shots_, rngs[k], s.sampler),
                                 n);
        };
      });
  return results;
}

std::vector<double> StatevectorBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const int n = plan.num_qubits();
  std::vector<double> results(evals.size());

  if (shots_ == 0) {
    // Exact mode: one state per evaluation, every term analytic, on the
    // same evaluation-major partition as execute_batch. The per-term
    // loop inside CompiledObservable::expectation is bit-identical to
    // vqe::Hamiltonian::expectation; the lane path replays the same loop
    // with each term's Pauli product applied once per lane group.
    const sim::LanePartition part =
        sim::partition_lanes(n, evals.size(), batch_lanes_);
    QOC_TRACE_SPAN_ARG("kernel", "sv_expect_batch", "lanes",
                       static_cast<std::int64_t>(part.lanes));
    add_inferences(evals.size());
    run_lanes(
        part, evals.size(), threads,
        [&] {
          return [&, s = LaneGroupState(n, part.lanes),
                  out = std::vector<double>(part.lanes)](
                     std::size_t first, std::size_t real) mutable {
            s.prepare(plan, evals, first, real);
            observable.expectation_lanes(s.bsv, out);
            std::copy_n(out.begin(), real, results.begin() + first);
          };
        },
        [&] {
          return [&, s = ScalarState(n)](std::size_t k) mutable {
            s.prepare(plan, evals[k]);
            results[k] = observable.expectation(s.sv);
          };
        });
    return results;
  }

  // Sampled mode: one ansatz preparation per evaluation, one measured
  // execution per commuting group (basis-change suffix + Z sampling),
  // each evaluation consuming its own stream group by group. It runs
  // the scalar loop only: measured on a depth-3 Heisenberg-8 sweep at
  // 1024 shots, lane groups were no faster here (sampling dominates)
  // and cost peak memory.
  QOC_TRACE_SPAN_ARG("kernel", "sv_expect_batch", "lanes",
                     static_cast<std::int64_t>(1));
  const std::size_t n_groups = observable.groups().size();
  add_inferences(evals.size() * n_groups);
  std::vector<Prng> rngs = batch_streams(seed_, evals);
  note_lane_metrics(sim::LanePartition{}, evals.size());
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        ScalarState s(n);
        sim::Statevector meas(n);
        for (std::size_t k = lo; k < hi; ++k) {
          s.prepare(plan, evals[k]);
          double energy = observable.constant();
          for (std::size_t g = 0; g < n_groups; ++g)
            energy += observable.group_energy_from_counts(
                measured_state(observable, g, s.sv, meas)
                    .sample_counts(shots_, rngs[k], s.sampler),
                g);
          results[k] = energy;
        }
      },
      threads);
  return results;
}

// ---------------------------------------------------------------------------
// NoiseModel and its three interpreters
// ---------------------------------------------------------------------------

NoiseModel::NoiseModel(const noise::DeviceModel& device, bool gate_noise,
                       bool relaxation, bool readout_error, double scale)
    : gate_noise(gate_noise) {
  device.validate();
  if (!std::isfinite(scale) || scale < 0.0)
    throw std::invalid_argument(
        "NoiseModel: noise_scale must be finite and >= 0");
  const auto scaled = [scale](double p, const char* what) {
    if (p * scale > 1.0)
      throw std::invalid_argument(std::string("NoiseModel: ") + what +
                                  " x noise_scale exceeds 1");
    return p * scale;
  };
  const double p1 = scaled(device.err_1q, "err_1q");
  const double p2 = scaled(device.err_2q, "err_2q");
  depol_1q = {p1, noise::depolarizing_1q(p1)};
  depol_2q = {p2, noise::depolarizing_2q(p2)};
  for (const auto& cal : device.qubits) {
    const noise::ReadoutError flips{
        scaled(cal.readout_err_0to1, "readout_err_0to1"),
        scaled(cal.readout_err_1to0, "readout_err_1to0")};
    if (readout_error) readout.push_back(flips);
    if (relaxation) {
      relax_1q.push_back(noise::thermal_relaxation(
          cal.t1_s, cal.t2_s, device.gate_time_1q_s * scale));
      relax_2q.push_back(noise::thermal_relaxation(
          cal.t1_s, cal.t2_s, device.gate_time_2q_s * scale));
    }
  }
}

namespace {

/// Depolarizing error after a physical gate. For Pauli channels the branch
/// weights are state-independent, so we sample Paulis directly instead of
/// paying the generic Kraus-branch norm computation. `pauli(which, q)`
/// applies Pauli `which` (1 = X, 2 = Y, 3 = Z, anything else = I) to
/// qubit q: the scalar trajectory loop and each lane of a k-wide group
/// pass their own applier around this one draw-and-pick sequence, which
/// is what keeps a lane bit-identical to the scalar trajectory.
template <class ApplyPauli>
void inject_depolarizing(const std::vector<int>& qubits, double p, Prng& rng,
                         ApplyPauli&& pauli) {
  if (p <= 0.0) return;
  const double u = rng.uniform();
  if (qubits.size() == 1) {
    // I with 1 - 3p/4, else X/Y/Z with p/4 each.
    if (u >= 0.75 * p) return;
    pauli(std::min(static_cast<int>(u / (0.25 * p)), 2) + 1, qubits[0]);
    return;
  }
  // Two-qubit: one of the 15 non-identity Pauli pairs w.p. p/16 each.
  if (u >= 15.0 / 16.0 * p) return;
  const int idx = 1 + static_cast<int>(u / (p / 16.0));  // 1..15
  pauli(idx >> 2, qubits[0]);
  pauli(idx & 3, qubits[1]);
}

void apply_pauli(sim::Statevector& sv, int which, int q) {
  switch (which) {
    case 1: sv.apply_pauli_x(q); break;
    case 2: sv.apply_pauli_y(q); break;
    case 3: sv.apply_pauli_z(q); break;
    default: break;
  }
}

/// Same Pauli on ONE lane of a k-wide group (single-lane kernels:
/// bit-identical on that lane, every other lane untouched).
void apply_pauli(sim::BatchedStatevector& bsv, std::size_t lane, int which,
                 int q) {
  switch (which) {
    case 1: bsv.apply_pauli_x_lane(q, lane); break;
    case 2: bsv.apply_pauli_y_lane(q, lane); break;
    case 3: bsv.apply_pauli_z_lane(q, lane); break;
    default: break;
  }
}

/// A lowered op stream as the trajectory interpreters apply it: each
/// RZ's diagonal and the SX matrix are built once per execution instead
/// of once per trajectory (with 64 trajectories per execution that
/// removes 64x redundant builds per op). The lowered basis is exactly
/// {RZ, SX, X, CX}; anything else is a pipeline bug and throws rather
/// than degrading the noise model silently.
struct GateProgram {
  std::span<const transpile::BoundOp> ops;
  std::vector<std::array<cplx, 2>> rz;  // op i's diagonal if it is an RZ
  Matrix sx = sim::gate_sx();

  explicit GateProgram(std::span<const transpile::BoundOp> lowered)
      : ops(lowered), rz(lowered.size()) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const GateKind k = ops[i].kind;
      if (k == GateKind::Rz)
        rz[i] = {std::exp(-kI * (ops[i].angle / 2.0)),
                 std::exp(kI * (ops[i].angle / 2.0))};
      else if (k != GateKind::Sx && k != GateKind::X && k != GateKind::Cx)
        throw std::logic_error("GateProgram: unexpected gate '" +
                               circuit::gate_name(k) +
                               "' in transpiled stream");
    }
  }

  /// Apply op i to a scalar trajectory state, or uniformly to every lane
  /// of a k-wide trajectory group: the lowered gate stream is
  /// binding-independent, so all trajectories share it, and per lane
  /// each uniform application is bit-identical to the scalar one (the
  /// batched kernels' per-lane contract).
  template <class State>
  void apply(State& state, std::size_t i) const {
    const transpile::BoundOp& op = ops[i];
    switch (op.kind) {
      case GateKind::Rz:
        state.apply_diag_1q(rz[i][0], rz[i][1], op.qubits[0]);
        break;
      case GateKind::Sx:
        state.apply_1q(sx, op.qubits[0]);
        break;
      case GateKind::X:
        state.apply_pauli_x(op.qubits[0]);
        break;
      default:
        state.apply_cx(op.qubits[0], op.qubits[1]);
        break;
    }
  }
};

/// Scalar trajectory interpreter: one noisy trajectory of `program`
/// (its qubit q on physical qubit physical[q]) from |0...0> into sv,
/// every noise event drawing from `rng`.
void evolve(const NoiseModel& noise, const GateProgram& program,
            std::span<const int> physical, sim::Statevector& sv, Prng& rng) {
  const auto pauli = [&sv](int which, int q) { apply_pauli(sv, which, q); };
  sv.reset();
  noise.walk(
      program.ops, physical, [&](std::size_t i) { program.apply(sv, i); },
      [&](const std::vector<int>& qubits, const NoiseModel::Depolarizing& d) {
        inject_depolarizing(qubits, d.p, rng, pauli);
      },
      [&](int q, const noise::KrausChannel& relax) {
        relax.sample_and_apply(sv, {q}, rng);
      });
}

/// Lane-group trajectory interpreter: one group of noisy trajectories in
/// lockstep from |0...0>. Gates apply to all lanes at once, and every
/// noise event draws per lane from that trajectory's own stream
/// (ascending lane order at each event -- within a single stream the
/// order is exactly evolve()'s, so lane L is bit-identical to a scalar
/// trajectory run on rngs[L]). Lanes at and beyond rngs.size() are
/// padding of a compacted ragged tail: they ride the uniform gates and
/// Kraus branch 0 but consume no randomness, so padding can never shift
/// a real trajectory's draws. The payoff is the relaxation path: per
/// gate, sample_and_apply_lanes runs the Born weight passes and the
/// renormalization as k independent accumulator chains instead of k
/// serial scalar passes.
void evolve_lanes(const NoiseModel& noise, const GateProgram& program,
                  std::span<const int> physical, sim::BatchedStatevector& bsv,
                  std::span<Prng> rngs) {
  std::array<Prng*, sim::BatchedStatevector::kMaxLanes> lane_rngs{};
  for (std::size_t l = 0; l < rngs.size(); ++l) lane_rngs[l] = &rngs[l];
  const std::span<Prng* const> kraus_rngs(lane_rngs.data(), bsv.lanes());
  bsv.reset();
  noise.walk(
      program.ops, physical, [&](std::size_t i) { program.apply(bsv, i); },
      [&](const std::vector<int>& qubits, const NoiseModel::Depolarizing& d) {
        for (std::size_t l = 0; l < rngs.size(); ++l)
          inject_depolarizing(qubits, d.p, rngs[l], [&](int which, int q) {
            apply_pauli(bsv, l, which, q);
          });
      },
      [&](int q, const noise::KrausChannel& relax) {
        relax.sample_and_apply_lanes(bsv, q, kraus_rngs);
      });
}

/// Density-matrix interpreter: the exact average of the trajectories
/// evolve() samples, every noise event applied as its channel.
sim::DensityMatrix evolve_density(const NoiseModel& noise,
                                  std::span<const int> physical,
                                  std::span<const transpile::BoundOp> ops) {
  sim::DensityMatrix rho(static_cast<int>(physical.size()));
  noise.walk(
      ops, physical,
      [&](std::size_t i) {
        rho.apply_unitary(circuit::gate_matrix(ops[i].kind, ops[i].angle),
                          ops[i].qubits);
      },
      [&](const std::vector<int>& qubits, const NoiseModel::Depolarizing& d) {
        rho.apply_channel(d.channel.kraus(), qubits);
      },
      [&](int q, const noise::KrausChannel& relax) {
        rho.apply_channel(relax.kraus(), {q});
      });
  return rho;
}

/// Exact effect of physical qubit `phys`'s classical readout flips on a
/// measured +-1 value or its mean z.
double read_out(const NoiseModel& noise, int phys, double z) {
  if (noise.readout.empty()) return z;
  const auto& [e01, e10] = noise.readout[static_cast<std::size_t>(phys)];
  return (1.0 - e01 - e10) * z + (e10 - e01);
}

/// Mean of `shots` +-1 readings of which `minus` read -1. Bitwise the
/// per-shot +-1.0 sum divided by `shots`: every partial sum of that fold
/// is an exact integer, so it ends at exactly shots - 2 * minus.
double pm_mean(std::int64_t minus, std::uint64_t shots) {
  return static_cast<double>(static_cast<std::int64_t>(shots) - 2 * minus) /
         static_cast<double>(shots);
}

/// The per-evaluation transpile loop of both device backends: resolves
/// each evaluation's source angles, lowers the plan's routed template
/// for them and calls body(k, lowered) for evaluation k, fanned over
/// `threads` pool workers.
template <class Body>
void for_each_lowered(const exec::CompiledCircuit& plan,
                      const ActiveProgram& prog,
                      const noise::DeviceModel& device,
                      std::span<const exec::Evaluation> evals,
                      unsigned threads, Body&& body) {
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> angles;
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& e = evals[k];
          plan.resolve_source_angles(e.theta, e.input, e.shift_op, e.shift,
                                     angles);
          body(k,
               transpile::transpile_with_angles(prog.tmpl, angles, device));
        }
      },
      threads);
}

}  // namespace

// ---------------------------------------------------------------------------
// DensityMatrixBackend
// ---------------------------------------------------------------------------

DensityMatrixBackend::DensityMatrixBackend(noise::DeviceModel device,
                                           Options options)
    : device_(std::move(device)),
      options_(options),
      noise_(device_, options_.enable_gate_noise, options_.enable_relaxation,
             options_.enable_readout_error, options_.noise_scale) {
  if (device_.n_qubits > 12)
    throw std::invalid_argument(
        "DensityMatrixBackend: device too large for O(4^n) simulation");
}

std::vector<std::vector<double>> DensityMatrixBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const auto prog = transpile_cache_.get(plan, device_);
  const std::span<const int> physical = prog->physical;
  const int n_logical = plan.num_qubits();
  std::vector<std::vector<double>> results(evals.size());
  for_each_lowered(
      plan, *prog, device_, evals, threads,
      [&](std::size_t k, const transpile::Transpiled& t) {
        const auto z =
            evolve_density(noise_, physical, t.ops).expectation_z_all();
        auto& out = results[k];
        out.resize(static_cast<std::size_t>(n_logical));
        for (int l = 0; l < n_logical; ++l) {
          const auto q = static_cast<std::size_t>(
              t.final_layout[static_cast<std::size_t>(l)]);
          out[static_cast<std::size_t>(l)] =
              read_out(noise_, physical[q], z[q]);
        }
      });
  return results;
}

std::vector<double> DensityMatrixBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const auto prog = transpile_cache_.get(plan, device_);
  const std::span<const int> physical = prog->physical;
  const int n_logical = plan.num_qubits();
  const int n_active = prog->n_active();
  std::vector<double> results(evals.size());
  // One exact noisy evolution per evaluation; every group's terms are
  // then read from the final density matrix (deterministic oracle, so a
  // single execution is counted per evaluation).
  add_inferences(evals.size());
  for_each_lowered(
      plan, *prog, device_, evals, threads,
      [&](std::size_t k, const transpile::Transpiled& t) {
        const sim::DensityMatrix rho = evolve_density(noise_, physical, t.ops);
        double energy = observable.constant();
        for (const auto& group : observable.groups()) {
          // Ideal basis-change suffix on the measured qubits; all-Z
          // groups have none, so read rho directly instead of paying an
          // O(4^m) copy.
          const std::vector<double> probs = [&] {
            if (group.suffix.empty()) return rho.probabilities();
            sim::DensityMatrix meas = rho;
            for (const auto& bc : group.suffix) {
              const int q = t.final_layout[static_cast<std::size_t>(bc.qubit)];
              if (bc.y) meas.apply_unitary(sim::gate_sdg(), {q});
              meas.apply_unitary(sim::gate_h(), {q});
            }
            return meas.probabilities();
          }();
          for (const auto& term : group.terms) {
            // E[prod (-1)^{b'_q}] with independent classical readout
            // flips: condition on each basis state and multiply the
            // per-qubit flip-adjusted parities.
            double acc = 0.0;
            for (std::size_t s = 0; s < probs.size(); ++s) {
              double f = probs[s];
              for (int q = 0; q < n_logical; ++q) {
                if (!(term.z_mask &
                      exec::CompiledObservable::qubit_bit(q, n_logical)))
                  continue;
                const int a = t.final_layout[static_cast<std::size_t>(q)];
                const bool bit = (s >> (n_active - 1 - a)) & 1ULL;
                f *= read_out(noise_, physical[static_cast<std::size_t>(a)],
                              bit ? -1.0 : 1.0);
              }
              acc += f;
            }
            energy += term.coeff * acc;
          }
        }
        results[k] = energy;
      });
  return results;
}

// ---------------------------------------------------------------------------
// NoisyBackend
// ---------------------------------------------------------------------------

NoisyBackend::NoisyBackend(noise::DeviceModel device,
                           NoisyBackendOptions options)
    : device_(std::move(device)),
      options_(options),
      noise_(device_, options_.enable_gate_noise, options_.enable_relaxation,
             options_.enable_readout_error, options_.noise_scale) {
  if (options_.trajectories < 1)
    throw std::invalid_argument("NoisyBackend: trajectories < 1");
  if (options_.shots < 1)
    throw std::invalid_argument("NoisyBackend: shots < 1");
}

/// One measured execution of the lowered stream `t` over active qubits
/// (active qubit q is physical qubit physical[q]) from its stream
/// `exec_rng`: options_.trajectories noisy trajectories, each sampled
/// max(1, shots / trajectories) times per measured group. Every shot of
/// group g reaches fold(g, word) as its word of read-out logical bits;
/// returns the shots per group. `observable == nullptr` measures run's
/// one implicit group: every logical qubit, no basis change.
template <class Fold>
std::uint64_t NoisyBackend::measure(const transpile::Transpiled& t,
                                    std::span<const int> physical,
                                    int n_logical,
                                    const exec::CompiledObservable* observable,
                                    Prng& exec_rng, Fold&& fold) const {
  const int n_active = static_cast<int>(physical.size());
  const GateProgram program(t.ops);
  const int shots = std::max(1, options_.shots / options_.trajectories);
  // One stream per trajectory, split from the execution's in trajectory
  // order (Prng::split draws only from the parent), so trajectory j
  // consumes the same stream at every lane width and concurrent
  // executions never interleave draws.
  std::vector<Prng> rngs;
  rngs.reserve(static_cast<std::size_t>(options_.trajectories));
  for (int j = 0; j < options_.trajectories; ++j)
    rngs.push_back(exec_rng.split());
  const std::size_t n_groups = observable ? observable->groups().size() : 1;

  // Readout of group g's shots from one trajectory: each measured
  // logical qubit is read once per shot (flips shared by all terms of
  // the group, exactly as one hardware shot would behave) into a
  // logical-bit word. Shared verbatim by the scalar loop and every lane
  // of a k-wide group, so every readout draw and every fold happens in
  // the same order at every lane width.
  const auto read = [&](std::size_t g, const std::vector<std::uint64_t>& s,
                        Prng& rng) {
    const std::uint64_t measured =
        observable ? observable->groups()[g].measured_mask : ~0ULL;
    for (const auto sample : s) {
      std::uint64_t word = 0;
      for (int q = 0; q < n_logical; ++q) {
        const std::uint64_t lbit =
            exec::CompiledObservable::qubit_bit(q, n_logical);
        if (!(measured & lbit)) continue;
        const int a = t.final_layout[static_cast<std::size_t>(q)];
        int bit = static_cast<int>((sample >> (n_active - 1 - a)) & 1ULL);
        if (!noise_.readout.empty())
          bit = noise_.readout[static_cast<std::size_t>(
                                   physical[static_cast<std::size_t>(a)])]
                    .apply(bit, rng);
        word |= bit ? lbit : 0;
      }
      fold(g, word);
    }
  };

  // Evaluation-major trajectory partition: k trajectories evolve in
  // lockstep on one lane group, a part-filled final group is padded,
  // and any un-compacted remainder runs the scalar loop -- all in
  // trajectory order on this thread. A lane group applies each
  // measured group's suffix once for all its lanes; each lane's stream
  // still sees its draws in scalar order: the walk, then group 0's
  // shots and flips, then group 1's, ... `meas` starts as a 1-qubit
  // placeholder that the first suffix's copy resizes, so run's
  // suffix-free group never allocates it.
  const sim::LanePartition part =
      sim::partition_lanes(n_active, rngs.size(), options_.batch_lanes);
  run_lanes(
      part, rngs.size(), 1,
      [&] {
        return [&, bsv = sim::BatchedStatevector(n_active, part.lanes),
                meas = sim::BatchedStatevector(1, part.lanes)](
                   std::size_t first, std::size_t real) mutable {
          evolve_lanes(noise_, program, physical, bsv,
                       std::span(rngs).subspan(first, real));
          for (std::size_t g = 0; g < n_groups; ++g) {
            const auto& src = observable ? measured_state(*observable, g, bsv,
                                                          meas, t.final_layout)
                                         : bsv;
            for (std::size_t l = 0; l < real; ++l) {
              Prng& rng = rngs[first + l];
              read(g, src.sample(l, shots, rng), rng);
            }
          }
        };
      },
      [&] {
        return [&, sv = sim::Statevector(n_active),
                meas = sim::Statevector(1)](std::size_t j) mutable {
          evolve(noise_, program, physical, sv, rngs[j]);
          for (std::size_t g = 0; g < n_groups; ++g) {
            const auto& src = observable ? measured_state(*observable, g, sv,
                                                          meas, t.final_layout)
                                         : sv;
            read(g, src.sample(shots, rngs[j]), rngs[j]);
          }
        };
      });
  return static_cast<std::uint64_t>(shots) * rngs.size();
}

std::vector<std::vector<double>> NoisyBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const auto prog = transpile_cache_.get(plan, device_);
  std::vector<Prng> rngs = batch_streams(options_.seed, evals);
  const int n_logical = plan.num_qubits();
  std::vector<std::vector<double>> results(evals.size());
  for_each_lowered(
      plan, *prog, device_, evals, threads,
      [&](std::size_t k, const transpile::Transpiled& t) {
        // <Z_q> folds the one implicit group that measures every qubit:
        // ones[q] counts the shots that read q as 1.
        std::vector<std::int64_t> ones(static_cast<std::size_t>(n_logical));
        const std::uint64_t shots = measure(
            t, prog->physical, n_logical, nullptr, rngs[k],
            [&](std::size_t, std::uint64_t word) {
              for (int q = 0; q < n_logical; ++q) {
                const std::uint64_t lbit =
                    exec::CompiledObservable::qubit_bit(q, n_logical);
                ones[static_cast<std::size_t>(q)] += (word & lbit) != 0;
              }
            });
        std::vector<double>& z = results[k];
        z.reserve(ones.size());
        for (const std::int64_t n : ones) z.push_back(pm_mean(n, shots));
      });
  return results;
}

std::vector<double> NoisyBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const auto prog = transpile_cache_.get(plan, device_);
  // One stream per evaluation; its groups then consume it sequentially
  // inside measure().
  std::vector<Prng> rngs = batch_streams(options_.seed, evals);
  const auto& groups = observable.groups();
  add_inferences(evals.size() * groups.size());
  std::vector<double> results(evals.size());
  for_each_lowered(
      plan, *prog, device_, evals, threads,
      [&](std::size_t k, const transpile::Transpiled& t) {
        // odd[g][i]: group g's shots with odd parity under its term i.
        std::vector<std::vector<std::int64_t>> odd(groups.size());
        for (std::size_t g = 0; g < groups.size(); ++g)
          odd[g].assign(groups[g].terms.size(), 0);
        const std::uint64_t shots = measure(
            t, prog->physical, observable.num_qubits(), &observable, rngs[k],
            [&](std::size_t g, std::uint64_t word) {
              const auto& terms = groups[g].terms;
              for (std::size_t i = 0; i < terms.size(); ++i)
                odd[g][i] += std::popcount(word & terms[i].z_mask) & 1;
            });
        double energy = observable.constant();
        for (std::size_t g = 0; g < groups.size(); ++g)
          for (std::size_t i = 0; i < groups[g].terms.size(); ++i)
            energy += groups[g].terms[i].coeff * pm_mean(odd[g][i], shots);
        results[k] = energy;
      });
  return results;
}

double NoisyBackend::estimate_duration_s(const circuit::Circuit& c,
                                         std::span<const double> theta,
                                         std::span<const double> input) const {
  const auto t = transpile::transpile(c, theta, input, device_);
  return transpile::estimated_duration_s(t, device_);
}

}  // namespace qoc::backend
