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

std::shared_ptr<const transpile::RoutedProgram> TranspileCache::get(
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
  auto tmpl = std::make_shared<const transpile::RoutedProgram>(
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
  const std::size_t n_groups = observable.groups().size();
  // Same evaluation-major partition as execute_batch.
  const sim::LanePartition part =
      sim::partition_lanes(n, evals.size(), batch_lanes_);
  QOC_TRACE_SPAN_ARG("kernel", "sv_expect_batch", "lanes",
                     static_cast<std::int64_t>(part.lanes));
  std::vector<double> results(evals.size());

  if (shots_ == 0) {
    // Exact mode: one state per evaluation, every term analytic. The
    // per-term loop inside CompiledObservable::expectation is
    // bit-identical to vqe::Hamiltonian::expectation; the lane path
    // replays the same loop with each term's Pauli product applied once
    // per lane group.
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
  // each evaluation consuming its own stream group by group. A lane
  // group iterates groups outer / lanes inner, so each lane's stream
  // still sees its groups in the scalar order -- identical draws.
  add_inferences(evals.size() * n_groups);
  std::vector<Prng> rngs = batch_streams(seed_, evals);
  run_lanes(
      part, evals.size(), threads,
      [&] {
        return [&, s = LaneGroupState(n, part.lanes),
                meas = sim::BatchedStatevector(n, part.lanes)](
                   std::size_t first, std::size_t real) mutable {
          s.prepare(plan, evals, first, real);
          for (std::size_t k = first; k < first + real; ++k)
            results[k] = observable.constant();
          for (std::size_t g = 0; g < n_groups; ++g) {
            const auto& src = measured_state(observable, g, s.bsv, meas);
            for (std::size_t k = first; k < first + real; ++k)
              results[k] += observable.group_energy_from_counts(
                  src.sample_counts(k - first, shots_, rngs[k], s.sampler), g);
          }
        };
      },
      [&] {
        return [&, s = ScalarState(n),
                meas = sim::Statevector(n)](std::size_t k) mutable {
          s.prepare(plan, evals[k]);
          double energy = observable.constant();
          for (std::size_t g = 0; g < n_groups; ++g)
            energy += observable.group_energy_from_counts(
                measured_state(observable, g, s.sv, meas)
                    .sample_counts(shots_, rngs[k], s.sampler),
                g);
          results[k] = energy;
        };
      });
  return results;
}

// ---------------------------------------------------------------------------
// DensityMatrixBackend
// ---------------------------------------------------------------------------

DensityMatrixBackend::DensityMatrixBackend(noise::DeviceModel device,
                                           Options options)
    : device_(std::move(device)), options_(options) {
  device_.validate();
  if (device_.n_qubits > 12)
    throw std::invalid_argument(
        "DensityMatrixBackend: device too large for O(4^n) simulation");
  if (options_.noise_scale < 0.0)
    throw std::invalid_argument("DensityMatrixBackend: negative noise_scale");
}

sim::DensityMatrix DensityMatrixBackend::evolve_transpiled(
    const transpile::Transpiled& t) const {
  const int n_phys = device_.n_qubits;
  const double scale = options_.noise_scale;

  // Pre-build channels once per execution.
  std::vector<noise::KrausChannel> relax_1q, relax_2q;
  if (options_.enable_relaxation) {
    for (const auto& cal : device_.qubits) {
      relax_1q.push_back(noise::thermal_relaxation(
          cal.t1_s, cal.t2_s, device_.gate_time_1q_s * scale));
      relax_2q.push_back(noise::thermal_relaxation(
          cal.t1_s, cal.t2_s, device_.gate_time_2q_s * scale));
    }
  }
  const noise::KrausChannel depol_1q =
      noise::depolarizing_1q(std::min(1.0, device_.err_1q * scale));
  const noise::KrausChannel depol_2q =
      noise::depolarizing_2q(std::min(1.0, device_.err_2q * scale));

  sim::DensityMatrix rho(n_phys);
  for (const auto& op : t.ops) {
    rho.apply_unitary(circuit::gate_matrix(op.kind, op.angle), op.qubits);
    if (op.kind == GateKind::Rz) continue;  // virtual, error-free
    if (op.qubits.size() == 1) {
      if (options_.enable_gate_noise)
        rho.apply_channel(depol_1q.kraus(), op.qubits);
      if (options_.enable_relaxation)
        rho.apply_channel(
            relax_1q[static_cast<std::size_t>(op.qubits[0])].kraus(),
            op.qubits);
    } else {
      if (options_.enable_gate_noise)
        rho.apply_channel(depol_2q.kraus(), op.qubits);
      if (options_.enable_relaxation)
        for (const int q : op.qubits)
          rho.apply_channel(relax_2q[static_cast<std::size_t>(q)].kraus(),
                            {q});
    }
  }
  return rho;
}

std::vector<double> DensityMatrixBackend::run_transpiled(
    const transpile::Transpiled& t, int n_logical) const {
  const double scale = options_.noise_scale;
  const sim::DensityMatrix rho = evolve_transpiled(t);
  const auto z_phys = rho.expectation_z_all();
  std::vector<double> out(static_cast<std::size_t>(n_logical));
  for (int l = 0; l < n_logical; ++l) {
    const int phys = t.final_layout[static_cast<std::size_t>(l)];
    double z = z_phys[static_cast<std::size_t>(phys)];
    if (options_.enable_readout_error) {
      const auto& cal = device_.qubits[static_cast<std::size_t>(phys)];
      const double e01 = cal.readout_err_0to1 * scale;
      const double e10 = cal.readout_err_1to0 * scale;
      // Exact effect of classical bit flips on <Z>.
      z = (1.0 - e01 - e10) * z + (e10 - e01);
    }
    out[static_cast<std::size_t>(l)] = z;
  }
  return out;
}

std::vector<std::vector<double>> DensityMatrixBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const auto tmpl = transpile_cache_.get(plan, device_);
  std::vector<std::vector<double>> results(evals.size());
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> angles;
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& e = evals[k];
          plan.resolve_source_angles(e.theta, e.input, e.shift_op, e.shift,
                                     angles);
          const auto t = tmpl->transpile(angles);
          results[k] = run_transpiled(t, plan.num_qubits());
        }
      },
      threads);
  return results;
}

std::vector<double> DensityMatrixBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const auto tmpl = transpile_cache_.get(plan, device_);
  const int n_logical = plan.num_qubits();
  const int n_phys = device_.n_qubits;
  const double scale = options_.noise_scale;
  std::vector<double> results(evals.size());
  // One exact noisy evolution per evaluation; every group's terms are
  // then read from the final density matrix (deterministic oracle, so a
  // single execution is counted per evaluation).
  add_inferences(evals.size());
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> angles;
        sim::DensityMatrix meas(n_phys);  // per-group scratch, buffer reused
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& e = evals[k];
          plan.resolve_source_angles(e.theta, e.input, e.shift_op, e.shift,
                                     angles);
          const auto t = tmpl->transpile(angles);
          const sim::DensityMatrix rho = evolve_transpiled(t);

          double energy = observable.constant();
          for (std::size_t g = 0; g < observable.groups().size(); ++g) {
            const auto& group = observable.groups()[g];
            // Ideal basis-change suffix on the measured physical qubits;
            // all-Z groups have none, so read rho directly instead of
            // paying an O(4^n) copy.
            const sim::DensityMatrix* src = &rho;
            if (!group.suffix.empty()) {
              meas = rho;
              for (const auto& bc : group.suffix) {
                const int phys =
                    t.final_layout[static_cast<std::size_t>(bc.qubit)];
                if (bc.y) meas.apply_unitary(sim::gate_sdg(), {phys});
                meas.apply_unitary(sim::gate_h(), {phys});
              }
              src = &meas;
            }
            const auto probs = src->probabilities();
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
                  const int phys =
                      t.final_layout[static_cast<std::size_t>(q)];
                  const int bit = static_cast<int>(
                      (s >> (n_phys - 1 - phys)) & 1ULL);
                  double z = bit ? -1.0 : 1.0;
                  if (options_.enable_readout_error) {
                    const auto& cal =
                        device_.qubits[static_cast<std::size_t>(phys)];
                    const double e01 = cal.readout_err_0to1 * scale;
                    const double e10 = cal.readout_err_1to0 * scale;
                    z = (1.0 - e01 - e10) * z + (e10 - e01);
                  }
                  f *= z;
                }
                acc += f;
              }
              energy += term.coeff * acc;
            }
          }
          results[k] = energy;
        }
      },
      threads);
  return results;
}

// ---------------------------------------------------------------------------
// NoisyBackend
// ---------------------------------------------------------------------------

NoisyBackend::NoisyBackend(noise::DeviceModel device,
                           NoisyBackendOptions options)
    : device_(std::move(device)), options_(options) {
  device_.validate();
  if (options_.trajectories < 1)
    throw std::invalid_argument("NoisyBackend: trajectories < 1");
  if (options_.shots < 1)
    throw std::invalid_argument("NoisyBackend: shots < 1");
  if (options_.noise_scale < 0.0)
    throw std::invalid_argument("NoisyBackend: negative noise_scale");
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
void inject_depolarizing(int q0, int q1, double p, Prng& rng,
                         ApplyPauli&& pauli) {
  if (p <= 0.0) return;
  const double u = rng.uniform();
  if (q1 < 0) {
    // I with 1 - 3p/4, else X/Y/Z with p/4 each.
    if (u >= 0.75 * p) return;
    pauli(std::min(static_cast<int>(u / (0.25 * p)), 2) + 1, q0);
    return;
  }
  // Two-qubit: one of the 15 non-identity Pauli pairs w.p. p/16 each.
  if (u >= 15.0 / 16.0 * p) return;
  const int idx = 1 + static_cast<int>(u / (p / 16.0));  // 1..15
  pauli(idx >> 2, q0);
  pauli(idx & 3, q1);
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

/// One stream per trajectory, split from the execution's stream in
/// trajectory order. Prng::split draws only from the parent, so this is
/// the sequence a lazy per-trajectory split would produce: trajectory j
/// consumes the same stream at every lane width.
std::vector<Prng> split_streams(Prng& parent, int count) {
  std::vector<Prng> streams;
  streams.reserve(static_cast<std::size_t>(count));
  for (int j = 0; j < count; ++j) streams.push_back(parent.split());
  return streams;
}

/// Per-evaluation trajectory program: the transpiled op stream with all
/// structure-dependent work (matrix construction, kernel selection, noise
/// classification) hoisted out of the trajectory loop. With 64
/// trajectories per execution this alone removes 64x redundant gate-matrix
/// builds per op. The lowered basis is exactly {RZ, SX, X, CX}; anything
/// else is a pipeline bug and throws rather than degrading the noise
/// model silently.
struct TrajectoryProgram {
  enum class K : std::uint8_t { Rz, Sx, X, Cx, Diag2q };
  struct Op {
    K k;
    int q0 = -1, q1 = -1;
    cplx d0, d1;  // Rz diagonal; Diag2q applies (d0, d1, d1, d0)
  };
  std::vector<Op> ops;
  Matrix sx = sim::gate_sx();

  /// `fuse_cx_rz_cx` folds every adjacent CX a b; RZ(t) b; CX a b triple
  /// (the lowered form of an RZZ core) into one Diag2q op. The fusion is
  /// bit-identical -- each amplitude receives exactly one multiplication
  /// by the same diagonal entry -- but it elides two noise injection
  /// points, so callers must only enable it when the noise tables inject
  /// nothing between physical gates (NoiseTables::gates_are_noiseless).
  explicit TrajectoryProgram(const transpile::Transpiled& t,
                             bool fuse_cx_rz_cx = false) {
    ops.reserve(t.ops.size());
    for (const auto& bop : t.ops) {
      Op op;
      op.q0 = bop.qubits[0];
      switch (bop.kind) {
        case GateKind::Rz:
          op.k = K::Rz;
          op.d0 = std::exp(-kI * (bop.angle / 2.0));
          op.d1 = std::exp(kI * (bop.angle / 2.0));
          break;
        case GateKind::Sx:
          op.k = K::Sx;
          break;
        case GateKind::X:
          op.k = K::X;
          break;
        case GateKind::Cx:
          op.k = K::Cx;
          op.q1 = bop.qubits[1];
          if (fuse_cx_rz_cx && ops.size() >= 2) {
            // Match [Cx(a,b), Rz(b), Cx(a,b)] just completed by this op:
            // CX conjugation of a target diagonal is diag(d0, d1, d1, d0)
            // over (control, target).
            const Op& rz = ops[ops.size() - 1];
            const Op& cx = ops[ops.size() - 2];
            if (cx.k == K::Cx && rz.k == K::Rz && cx.q0 == op.q0 &&
                cx.q1 == op.q1 && rz.q0 == op.q1) {
              Op fused;
              fused.k = K::Diag2q;
              fused.q0 = op.q0;
              fused.q1 = op.q1;
              fused.d0 = rz.d0;
              fused.d1 = rz.d1;
              ops.pop_back();
              ops.pop_back();
              ops.push_back(fused);
              continue;
            }
          }
          break;
        default:
          throw std::logic_error("TrajectoryProgram: unexpected gate '" +
                                 circuit::gate_name(bop.kind) +
                                 "' in transpiled stream");
      }
      ops.push_back(op);
    }
  }

  /// Apply `op` to a scalar trajectory state, or uniformly to every lane
  /// of a k-wide trajectory group: the transpiled gate stream is
  /// binding-independent, so all trajectories share it, and per lane
  /// each uniform application is bit-identical to the scalar one (the
  /// batched kernels' per-lane contract).
  template <class State>
  void apply(State& state, const Op& op) const {
    switch (op.k) {
      case K::Rz:
        state.apply_diag_1q(op.d0, op.d1, op.q0);
        break;
      case K::Sx:
        state.apply_1q(sx, op.q0);
        break;
      case K::X:
        state.apply_pauli_x(op.q0);
        break;
      case K::Cx:
        state.apply_cx(op.q0, op.q1);
        break;
      case K::Diag2q:
        state.apply_diag_2q(op.d0, op.d1, op.d1, op.d0, op.q0, op.q1);
        break;
    }
  }
};

}  // namespace

/// Batch-invariant noise model tables: everything the trajectory loop
/// consumes that depends only on (device, options). Built once per
/// batched call -- per-evaluation construction was pure redundant work
/// (identical channels every time).
struct NoisyBackend::NoiseTables {
  double p1 = 0.0, p2 = 0.0;
  bool relaxation = false;
  std::vector<noise::KrausChannel> relax_1q, relax_2q;
  std::vector<noise::ReadoutError> readout;

  NoiseTables(const noise::DeviceModel& device,
              const NoisyBackendOptions& options) {
    const double scale = options.noise_scale;
    p1 = options.enable_gate_noise ? device.err_1q * scale : 0.0;
    p2 = options.enable_gate_noise ? device.err_2q * scale : 0.0;
    relaxation = options.enable_relaxation;
    if (options.enable_relaxation) {
      relax_1q.reserve(static_cast<std::size_t>(device.n_qubits));
      relax_2q.reserve(static_cast<std::size_t>(device.n_qubits));
      for (const auto& cal : device.qubits) {
        relax_1q.push_back(noise::thermal_relaxation(
            cal.t1_s, cal.t2_s, device.gate_time_1q_s * scale));
        relax_2q.push_back(noise::thermal_relaxation(
            cal.t1_s, cal.t2_s, device.gate_time_2q_s * scale));
      }
    }
    if (options.enable_readout_error) {
      readout.reserve(static_cast<std::size_t>(device.n_qubits));
      for (const auto& cal : device.qubits)
        readout.push_back(
            {cal.readout_err_0to1 * scale, cal.readout_err_1to0 * scale});
    }
  }

  /// True when no noise event is ever injected between physical gates:
  /// every gate application in evolve() is then a pure unitary, which is
  /// what licenses TrajectoryProgram's CX.RZ.CX fusion (a fused block
  /// may not straddle a noise barrier).
  bool gates_are_noiseless() const {
    return p1 <= 0.0 && p2 <= 0.0 && !relaxation;
  }

  /// Evolve one noisy trajectory of `program` from |0...0> into sv.
  void evolve(const TrajectoryProgram& program, sim::Statevector& sv,
              Prng& rng) const {
    const auto pauli = [&sv](int which, int q) { apply_pauli(sv, which, q); };
    sv.reset();
    for (const auto& op : program.ops) {
      program.apply(sv, op);
      // Virtual RZ: frame change only, no physical pulse, no error.
      if (op.k == TrajectoryProgram::K::Rz) continue;
      // Fused CX.RZ.CX blocks only exist when gates_are_noiseless(), so
      // their two elided injection points were no-ops by construction.
      if (op.k == TrajectoryProgram::K::Diag2q) continue;
      if (op.q1 < 0) {
        inject_depolarizing(op.q0, -1, p1, rng, pauli);
        if (relaxation)
          relax_1q[static_cast<std::size_t>(op.q0)].sample_and_apply(
              sv, {op.q0}, rng);
      } else {
        inject_depolarizing(op.q0, op.q1, p2, rng, pauli);
        if (relaxation) {
          relax_2q[static_cast<std::size_t>(op.q0)].sample_and_apply(
              sv, {op.q0}, rng);
          relax_2q[static_cast<std::size_t>(op.q1)].sample_and_apply(
              sv, {op.q1}, rng);
        }
      }
    }
  }

  /// Evolve one lane group of noisy trajectories in lockstep from
  /// |0...0>: the uniform gate stream applies to all lanes at once, and
  /// every noise event draws per lane from that trajectory's own stream
  /// (ascending lane order at each event -- within a single stream the
  /// order is exactly evolve()'s, so lane L is bit-identical to a scalar
  /// trajectory run on rngs[L]). Lanes at and beyond rngs.size() are
  /// padding of a compacted ragged tail: they ride the uniform gates and
  /// Kraus branch 0 but consume no randomness, so padding can never
  /// shift a real trajectory's draws. The payoff is the relaxation path:
  /// per gate, sample_and_apply_lanes runs the Born weight passes and
  /// the renormalization as k independent accumulator chains instead of
  /// k serial scalar passes.
  void evolve_lanes(const TrajectoryProgram& program,
                    sim::BatchedStatevector& bsv,
                    std::span<Prng> rngs) const {
    std::array<Prng*, sim::BatchedStatevector::kMaxLanes> lane_rngs{};
    for (std::size_t l = 0; l < rngs.size(); ++l) lane_rngs[l] = &rngs[l];
    const std::span<Prng* const> kraus_rngs(lane_rngs.data(), bsv.lanes());
    const auto depolarize = [&](int q0, int q1, double p) {
      for (std::size_t l = 0; l < rngs.size(); ++l)
        inject_depolarizing(q0, q1, p, rngs[l], [&](int which, int q) {
          apply_pauli(bsv, l, which, q);
        });
    };
    bsv.reset();
    for (const auto& op : program.ops) {
      program.apply(bsv, op);
      // Virtual RZ: frame change only, no physical pulse, no error.
      if (op.k == TrajectoryProgram::K::Rz) continue;
      // Fused blocks only exist when gates_are_noiseless().
      if (op.k == TrajectoryProgram::K::Diag2q) continue;
      if (op.q1 < 0) {
        depolarize(op.q0, -1, p1);
        if (relaxation)
          relax_1q[static_cast<std::size_t>(op.q0)].sample_and_apply_lanes(
              bsv, op.q0, kraus_rngs);
      } else {
        depolarize(op.q0, op.q1, p2);
        if (relaxation) {
          relax_2q[static_cast<std::size_t>(op.q0)].sample_and_apply_lanes(
              bsv, op.q0, kraus_rngs);
          relax_2q[static_cast<std::size_t>(op.q1)].sample_and_apply_lanes(
              bsv, op.q1, kraus_rngs);
        }
      }
    }
  }
};

std::vector<double> NoisyBackend::run_transpiled(
    const transpile::Transpiled& t, const NoiseTables& tables, int n_logical,
    Prng& exec_rng) const {
  const int n_phys = device_.n_qubits;
  const TrajectoryProgram program(
      t, options_.fuse_trajectory_gates && tables.gates_are_noiseless());
  const int shots_per_traj =
      std::max(1, options_.shots / options_.trajectories);
  std::vector<Prng> rngs = split_streams(exec_rng, options_.trajectories);

  std::vector<double> acc(static_cast<std::size_t>(n_logical), 0.0);
  std::uint64_t total_samples = 0;

  // Readout: sample bitstrings from a final trajectory state and apply
  // per-qubit classical flip errors. Shared verbatim by the scalar loop
  // and every lane of the k-wide path, so the accumulation order over
  // (trajectory, shot, qubit) -- and every readout draw -- is identical
  // at every lane width.
  const auto accumulate = [&](const std::vector<std::uint64_t>& samples,
                              Prng& rng) {
    for (const auto s : samples) {
      for (int l = 0; l < n_logical; ++l) {
        const int phys = t.final_layout[static_cast<std::size_t>(l)];
        int bit = static_cast<int>((s >> (n_phys - 1 - phys)) & 1ULL);
        if (options_.enable_readout_error)
          bit = tables.readout[static_cast<std::size_t>(phys)].apply(bit, rng);
        acc[static_cast<std::size_t>(l)] += bit ? -1.0 : 1.0;
      }
      ++total_samples;
    }
  };

  // Evaluation-major trajectory partition: k trajectories evolve in
  // lockstep on one lane group, a part-filled final group is padded,
  // and any un-compacted remainder runs the scalar loop -- all in
  // trajectory order on this thread.
  const sim::LanePartition part =
      sim::partition_lanes(n_phys, rngs.size(), options_.batch_lanes);
  run_lanes(
      part, rngs.size(), 1,
      [&] {
        return [&, bsv = sim::BatchedStatevector(n_phys, part.lanes)](
                   std::size_t first, std::size_t real) mutable {
          tables.evolve_lanes(program, bsv,
                              std::span(rngs).subspan(first, real));
          for (std::size_t l = 0; l < real; ++l) {
            Prng& rng = rngs[first + l];
            accumulate(bsv.sample(l, shots_per_traj, rng), rng);
          }
        };
      },
      [&] {
        return [&, sv = sim::Statevector(n_phys)](std::size_t j) mutable {
          tables.evolve(program, sv, rngs[j]);
          accumulate(sv.sample(shots_per_traj, rngs[j]), rngs[j]);
        };
      });

  for (auto& v : acc) v /= static_cast<double>(total_samples);
  return acc;
}

double NoisyBackend::expect_transpiled(
    const transpile::Transpiled& t, const NoiseTables& tables,
    const exec::CompiledObservable& observable, Prng& exec_rng) const {
  // One measured hardware execution: noisy trajectories of the routed
  // circuit, an ideal basis-change suffix per commuting group, then shot
  // sampling with classical readout flips on the measured qubits.
  const int n_logical = observable.num_qubits();
  const int n_phys = device_.n_qubits;
  const TrajectoryProgram program(
      t, options_.fuse_trajectory_gates && tables.gates_are_noiseless());
  const int shots_per_traj =
      std::max(1, options_.shots / options_.trajectories);
  std::vector<Prng> rngs = split_streams(exec_rng, options_.trajectories);

  const auto& groups = observable.groups();
  // parity_sum[g][i]: summed parities of group g's i-th term.
  std::vector<std::vector<double>> parity_sum(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    parity_sum[g].assign(groups[g].terms.size(), 0.0);
  std::uint64_t total_samples = 0;

  // Parity accumulation for one measured group's samples. Shared by the
  // scalar trajectory loop and every lane of the k-wide path; lanes are
  // visited in ascending trajectory order per observable group, so the
  // additions into parity_sum[g][i] happen in exactly the scalar order.
  const auto accumulate_group = [&](std::size_t g,
                                    const std::vector<std::uint64_t>& samples,
                                    Prng& rng) {
    const auto& group = groups[g];
    for (const auto s : samples) {
      // Read every measured qubit once (flips shared by all terms of
      // the group, exactly as one hardware shot would behave), packed
      // into a logical-bit word the term masks index directly.
      std::uint64_t word = 0;
      for (int q = 0; q < n_logical; ++q) {
        const std::uint64_t lbit =
            exec::CompiledObservable::qubit_bit(q, n_logical);
        if (!(group.measured_mask & lbit)) continue;
        const int phys = t.final_layout[static_cast<std::size_t>(q)];
        int bit = static_cast<int>((s >> (n_phys - 1 - phys)) & 1ULL);
        if (options_.enable_readout_error)
          bit = tables.readout[static_cast<std::size_t>(phys)].apply(bit, rng);
        if (bit) word |= lbit;
      }
      for (std::size_t i = 0; i < group.terms.size(); ++i)
        parity_sum[g][i] +=
            (std::popcount(word & group.terms[i].z_mask) & 1) ? -1.0 : 1.0;
    }
  };

  // Same trajectory partition as run_transpiled. A lane group applies
  // each commuting group's suffix once for all its lanes; each lane's
  // stream still sees its draws in scalar order: evolve draws, then
  // group 0 sampling + flips, then group 1, ...
  const sim::LanePartition part =
      sim::partition_lanes(n_phys, rngs.size(), options_.batch_lanes);
  run_lanes(
      part, rngs.size(), 1,
      [&] {
        return [&, bsv = sim::BatchedStatevector(n_phys, part.lanes),
                meas = sim::BatchedStatevector(n_phys, part.lanes)](
                   std::size_t first, std::size_t real) mutable {
          tables.evolve_lanes(program, bsv,
                              std::span(rngs).subspan(first, real));
          for (std::size_t g = 0; g < groups.size(); ++g) {
            const auto& src =
                measured_state(observable, g, bsv, meas, t.final_layout);
            for (std::size_t l = 0; l < real; ++l) {
              Prng& rng = rngs[first + l];
              accumulate_group(g, src.sample(l, shots_per_traj, rng), rng);
            }
          }
          total_samples += static_cast<std::uint64_t>(shots_per_traj) * real;
        };
      },
      [&] {
        return [&, sv = sim::Statevector(n_phys),
                meas = sim::Statevector(n_phys)](std::size_t j) mutable {
          tables.evolve(program, sv, rngs[j]);
          for (std::size_t g = 0; g < groups.size(); ++g)
            accumulate_group(
                g,
                measured_state(observable, g, sv, meas, t.final_layout)
                    .sample(shots_per_traj, rngs[j]),
                rngs[j]);
          total_samples += static_cast<std::uint64_t>(shots_per_traj);
        };
      });

  double energy = observable.constant();
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t i = 0; i < groups[g].terms.size(); ++i)
      energy += groups[g].terms[i].coeff *
                (parity_sum[g][i] / static_cast<double>(total_samples));
  return energy;
}

std::vector<std::vector<double>> NoisyBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const auto tmpl = transpile_cache_.get(plan, device_);
  const NoiseTables tables(device_, options_);
  std::vector<Prng> rngs = batch_streams(options_.seed, evals);
  std::vector<std::vector<double>> results(evals.size());
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> angles;
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& e = evals[k];
          plan.resolve_source_angles(e.theta, e.input, e.shift_op, e.shift,
                                     angles);
          const auto t = tmpl->transpile(angles);
          results[k] = run_transpiled(t, tables, plan.num_qubits(), rngs[k]);
        }
      },
      threads);
  return results;
}

std::vector<double> NoisyBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const auto tmpl = transpile_cache_.get(plan, device_);
  const NoiseTables tables(device_, options_);
  // One stream per evaluation; its groups then consume it sequentially
  // inside expect_transpiled.
  std::vector<Prng> rngs = batch_streams(options_.seed, evals);
  add_inferences(evals.size() * observable.groups().size());
  std::vector<double> results(evals.size());
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> angles;
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& e = evals[k];
          plan.resolve_source_angles(e.theta, e.input, e.shift_op, e.shift,
                                     angles);
          const auto t = tmpl->transpile(angles);
          results[k] = expect_transpiled(t, tables, observable, rngs[k]);
        }
      },
      threads);
  return results;
}

double NoisyBackend::estimate_duration_s(const circuit::Circuit& c,
                                         std::span<const double> theta,
                                         std::span<const double> input) const {
  const auto t = transpile::transpile(c, theta, input, device_);
  return transpile::estimated_duration_s(t, device_);
}

}  // namespace qoc::backend
