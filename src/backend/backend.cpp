#include "qoc/backend/backend.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "qoc/common/parallel.hpp"
#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/cost_model.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/sim/statevector.hpp"

namespace qoc::backend {

using circuit::GateKind;
using linalg::cplx;

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

void require_finite(std::span<const exec::Evaluation> evals,
                    const std::string& who) {
  const auto finite = [](std::span<const double> v) {
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
  };
  for (const auto& e : evals)
    if (!finite(e.theta) || !finite(e.input) || !std::isfinite(e.shift))
      throw std::invalid_argument(who +
                                  ": non-finite theta, input or shift");
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
/// evaluations fell through to the scalar path. Counts evaluations,
/// never drives control flow.
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

/// The loop behind every k-wide dispatch: runs `total` evaluations as
/// `part` splits them -- its lane groups, then the scalar tail -- fanned over
/// `threads` pool workers (1 = in order on the caller). Per worker
/// chunk, make_group() returns the callable group(first, real) run on
/// each of the chunk's lane groups and make_scalar() the callable
/// scalar(k) run on each of its tail items, so scratch those callables
/// capture is allocated once per chunk. A group covers items [first,
/// first + real); real < part.lanes marks the compacted ragged tail,
/// whose remaining lanes are padding: they compute a discarded state
/// and must never touch an evaluation's results or RNG stream.
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
/// by g's basis-change suffix.
const sim::Statevector& measured_state(
    const exec::CompiledObservable& observable, std::size_t g,
    const sim::Statevector& state, sim::Statevector& scratch) {
  if (observable.groups()[g].suffix.empty()) return state;
  scratch = state;
  observable.apply_suffix(scratch, g);
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
// The device engine
// ---------------------------------------------------------------------------

namespace {

/// The most active qubits the engine holds: its density vector has 4^m
/// entries (16 Mi for m = 12, 256 MiB).
constexpr int kMaxActiveQubits = 12;

/// Ideal basis changes into Z, as superoperators: H for an X group, Sdg
/// then H for a Y group (CompiledObservable's suffix gates).
const noise::Superop& basis_change(bool y) {
  static const noise::Superop x_basis = noise::unitary_superop(sim::gate_h());
  static const noise::Superop y_basis =
      noise::unitary_superop(sim::gate_h() * sim::gate_sdg());
  return y ? y_basis : x_basis;
}

/// Mean of `shots` +-1 readings of which `minus` read -1. Bitwise the
/// per-shot +-1.0 sum divided by `shots`: every partial sum of that fold
/// is an exact integer, so it ends at exactly shots - 2 * minus.
double pm_mean(std::int64_t minus, int shots) {
  return static_cast<double>(shots - 2 * minus) / static_cast<double>(shots);
}

/// One evaluation's noisy state, exactly: the density matrix rho over
/// the m active qubits of a routed program, held as a 2m-qubit
/// Statevector whose row qubit q is qubit q and column qubit q is qubit
/// m + q (sim::DensityMatrix's layout). Active qubit q is physical qubit
/// physical[q], and every superoperator and readout flip is looked up by
/// that physical qubit. One engine is per-chunk scratch: it allocates
/// once and is reused for each evaluation of its chunk.
///
/// evolve() applies a lowered stream {RZ, SX, X, CX} as NoiseModel
/// describes it. Each qubit keeps a pending 4x4, the product of its 1q
/// gates since its last CX: RZ scales two of its rows (a frame change,
/// no error), SX and X left-multiply their noisy superoperators. A CX
/// applies both operands' pending 4x4s to rho, then the CX to the row
/// and column qubits, then the 2q depolarizing error, and makes each
/// operand's 2q relaxation its new pending 4x4. The end applies every
/// pending 4x4. So rho sees one 4^m pass per CX operand instead of one
/// per gate, and only 4x4 products run per 1q gate.
///
/// The readout is a device's: the distribution p[s] = Re rho[s, s] over
/// the 2^m outcomes, with each measured qubit's readout confusion
/// applied -- exactly the distribution independent per-shot flips give.
/// With shots == 0 a mean is its exact sum over p; otherwise it is the
/// mean of `shots` outcomes drawn from p through sim::ShotSampler.
class DeviceEngine {
 public:
  DeviceEngine(const noise::NoiseModel& noise, std::span<const int> physical)
      : noise_(noise),
        physical_(physical),
        m_(static_cast<int>(physical.size())),
        rho_(2 * m_),
        meas_(1),
        pending_(physical.size()),
        dirty_(physical.size()),
        p_(std::size_t{1} << m_) {}

  /// rho <- the lowered stream `ops` applied to |0...0><0...0|.
  void evolve(std::span<const transpile::BoundOp> ops) {
    rho_.reset();
    std::fill(dirty_.begin(), dirty_.end(), false);
    for (const auto& op : ops) {
      const int q = op.qubits[0];
      switch (op.kind) {
        case GateKind::Rz:
          phase(q, op.angle);
          break;
        case GateKind::Sx:
          gate(q, noise_.sx[physical(q)]);
          break;
        case GateKind::X:
          gate(q, noise_.x[physical(q)]);
          break;
        case GateKind::Cx:
          cx(q, op.qubits[1]);
          break;
        default:
          throw std::logic_error("device engine: unexpected gate '" +
                                 circuit::gate_name(op.kind) +
                                 "' in lowered stream");
      }
    }
    for (int q = 0; q < m_; ++q) flush(q);
  }

  /// <Z_l> of every logical qubit l, read on active qubit layout[l].
  void z_all(std::span<const int> layout, int shots, Prng* rng,
             std::vector<double>& out) {
    masks_.clear();
    std::uint64_t measured = 0;
    for (const int a : layout) {
      masks_.push_back(bit(a));
      measured |= bit(a);
    }
    read_out(layout, measured, {});
    out.resize(layout.size());
    means(shots, rng, out);
  }

  /// <H>: each commuting group read out after its basis change, its
  /// terms' parities averaged over the group's distribution. Sampled
  /// groups draw from `rng` in group order.
  double energy(const exec::CompiledObservable& observable,
                std::span<const int> layout, int shots, Prng* rng) {
    const int n = observable.num_qubits();
    const auto active = [&](std::uint64_t logical) {
      std::uint64_t mask = 0;
      for (int q = 0; q < n; ++q)
        if (logical & exec::CompiledObservable::qubit_bit(q, n))
          mask |= bit(layout[static_cast<std::size_t>(q)]);
      return mask;
    };
    double energy = observable.constant();
    for (const auto& group : observable.groups()) {
      masks_.clear();
      for (const auto& term : group.terms) masks_.push_back(active(term.z_mask));
      read_out(layout, active(group.measured_mask), group.suffix);
      values_.resize(masks_.size());
      means(shots, rng, values_);
      for (std::size_t i = 0; i < group.terms.size(); ++i)
        energy += group.terms[i].coeff * values_[i];
    }
    return energy;
  }

 private:
  std::size_t physical(int q) const {
    return static_cast<std::size_t>(physical_[static_cast<std::size_t>(q)]);
  }
  /// Outcome bit of active qubit a.
  std::uint64_t bit(int a) const { return std::uint64_t{1} << (m_ - 1 - a); }

  noise::Superop& pending(int q) {
    const auto i = static_cast<std::size_t>(q);
    if (!dirty_[i]) {
      pending_[i] = {1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
                     0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0};
      dirty_[i] = true;
    }
    return pending_[i];
  }

  /// RZ(theta) = diag(e^{-i theta/2}, e^{i theta/2}) as a superoperator
  /// is diag(1, e^{-i theta}, e^{i theta}, 1): it scales rows 1 and 2 of
  /// the pending 4x4.
  void phase(int q, double theta) {
    noise::Superop& s = pending(q);
    const double c = std::cos(theta), sn = std::sin(theta);
    for (std::size_t j = 0; j < 4; ++j) {
      const cplx a = s[4 + j], b = s[8 + j];
      s[4 + j] = {a.real() * c + a.imag() * sn, a.imag() * c - a.real() * sn};
      s[8 + j] = {b.real() * c - b.imag() * sn, b.imag() * c + b.real() * sn};
    }
  }

  void gate(int q, const noise::Superop& s) {
    const auto i = static_cast<std::size_t>(q);
    pending_[i] = dirty_[i] ? noise::compose(s, pending_[i]) : s;
    dirty_[i] = true;
  }

  void flush(int q) {
    const auto i = static_cast<std::size_t>(q);
    if (!dirty_[i]) return;
    rho_.apply_2q(pending_[i].data(), q, m_ + q);
    dirty_[i] = false;
  }

  void cx(int a, int b) {
    flush(a);
    flush(b);
    rho_.apply_cx(a, b);
    rho_.apply_cx(m_ + a, m_ + b);  // CX is real: conj(CX) = CX
    if (noise_.p2 > 0.0) depolarize(a, b);
    if (noise_.relax_2q.empty()) return;
    for (const int q : {a, b}) {
      pending_[static_cast<std::size_t>(q)] = noise_.relax_2q[physical(q)];
      dirty_[static_cast<std::size_t>(q)] = true;
    }
  }

  /// rho <- (1 - p2) rho + p2 Tr_ab(rho) (x) I/4, block by block: each
  /// block fixes every bit but the row and column bits of a and b, and
  /// its trace over a and b is the sum of its four (ab, ab) diagonal
  /// entries.
  void depolarize(int a, int b) {
    const int n = 2 * m_;
    const auto stride = [n](int q) { return std::size_t{1} << (n - 1 - q); };
    const std::size_t ra = stride(a), rb = stride(b), ca = stride(m_ + a),
                      cb = stride(m_ + b);
    std::array<std::size_t, 16> block;
    for (std::size_t o = 0; o < 16; ++o)
      block[o] = ((o & 8) ? ra : 0) | ((o & 4) ? rb : 0) | ((o & 2) ? ca : 0) |
                 ((o & 1) ? cb : 0);
    const std::array<std::size_t, 4> diag = {0, rb | cb, ra | ca,
                                             ra | rb | ca | cb};
    // The four block bits in ascending order, for spreading a block
    // number over the bits they leave free.
    std::array<std::size_t, 4> low = {ra, rb, ca, cb};
    std::sort(low.begin(), low.end());
    const double keep = 1.0 - noise_.p2, quarter = 0.25 * noise_.p2;
    cplx* rho = rho_.data();
    for (std::size_t k = 0; k < (rho_.dim() >> 4); ++k) {
      std::size_t base = k;
      for (const std::size_t bit : low)
        base = ((base & ~(bit - 1)) << 1) | (base & (bit - 1));
      cplx trace = 0.0;
      for (const std::size_t d : diag) trace += rho[base | d];
      for (const std::size_t o : block) rho[base | o] *= keep;
      for (const std::size_t d : diag) rho[base | d] += quarter * trace;
    }
  }

  /// p <- the readout distribution of rho after `suffix` (its qubits
  /// logical, mapped through `layout`), with the readout confusion of
  /// each active qubit in `measured`. Rounding can leave a diagonal
  /// entry a hair below zero; it reads +0, so the sampler's CDF stays
  /// monotone.
  void read_out(
      std::span<const int> layout, std::uint64_t measured,
      std::span<const exec::CompiledObservable::BasisChange> suffix) {
    const sim::Statevector* src = &rho_;
    if (!suffix.empty()) {
      meas_ = rho_;
      for (const auto& bc : suffix) {
        const int a = layout[static_cast<std::size_t>(bc.qubit)];
        meas_.apply_2q(basis_change(bc.y).data(), a, m_ + a);
      }
      src = &meas_;
    }
    const std::size_t dim = p_.size();
    const cplx* rho = src->amplitudes().data();
    for (std::size_t s = 0; s < dim; ++s) {
      const double d = rho[s * (dim + 1)].real();
      p_[s] = d > 0.0 ? d : 0.0;
    }
    if (noise_.readout.empty()) return;
    for (int a = 0; a < m_; ++a) {
      const std::uint64_t flip = bit(a);
      if (!(measured & flip)) continue;
      const auto& [e01, e10] = noise_.readout[physical(a)];
      for (std::size_t s = 0; s < dim; ++s) {
        if (s & flip) continue;
        const double p0 = p_[s], p1 = p_[s | flip];
        p_[s] = (1.0 - e01) * p0 + e10 * p1;
        p_[s | flip] = e01 * p0 + (1.0 - e10) * p1;
      }
    }
  }

  /// out[i] <- the mean of (-1)^parity(s & masks_[i]) over outcomes s:
  /// exact under p when shots == 0, else over `shots` draws from p on
  /// `rng`, folded as counts (exact integers, so bitwise the per-shot
  /// fold).
  void means(int shots, Prng* rng, std::span<double> out) {
    if (shots == 0) {
      for (std::size_t i = 0; i < masks_.size(); ++i) {
        double acc = 0.0;
        for (std::size_t s = 0; s < p_.size(); ++s)
          acc += (std::popcount(s & masks_[i]) & 1) ? -p_[s] : p_[s];
        out[i] = acc;
      }
      return;
    }
    const sim::ShotCounts& c = sampler_.count(p_.data(), p_.size(), shots, *rng);
    for (std::size_t i = 0; i < masks_.size(); ++i) {
      std::int64_t odd = 0;
      for (std::size_t j = 0; j < c.outcomes.size(); ++j)
        if (std::popcount(c.outcomes[j] & masks_[i]) & 1) odd += c.counts[j];
      out[i] = pm_mean(odd, shots);
    }
  }

  const noise::NoiseModel& noise_;
  std::span<const int> physical_;
  int m_;
  sim::Statevector rho_;
  // Starts as a 1-qubit placeholder that the first suffix's copy
  // resizes, so run's suffix-free readout never allocates it.
  sim::Statevector meas_;
  std::vector<noise::Superop> pending_;
  std::vector<bool> dirty_;  // pending_[q] differs from the identity
  std::vector<double> p_;
  std::vector<std::uint64_t> masks_;
  std::vector<double> values_;
  sim::ShotSampler sampler_;
};

/// The per-evaluation loop of both device backends: lowers the plan's
/// routed template for each evaluation's angles, evolves its density
/// matrix and calls body(k, engine, lowered) for evaluation k, fanned
/// over `threads` pool workers with one engine per worker chunk. Throws
/// std::invalid_argument, before anything executes, when the program
/// touches more than kMaxActiveQubits qubits.
template <class Body>
void for_each_evolved(const exec::CompiledCircuit& plan,
                      const ActiveProgram& prog,
                      const noise::DeviceModel& device,
                      const noise::NoiseModel& noise,
                      std::span<const exec::Evaluation> evals,
                      unsigned threads, Body&& body) {
  if (prog.n_active() > kMaxActiveQubits)
    throw std::invalid_argument(
        "device backend: the circuit touches " +
        std::to_string(prog.n_active()) + " qubits, above the " +
        std::to_string(kMaxActiveQubits) + " a density matrix can hold");
  parallel_for_chunked(
      0, evals.size(),
      [&](std::size_t lo, std::size_t hi) {
        DeviceEngine engine(noise, prog.physical);
        std::vector<double> angles;
        for (std::size_t k = lo; k < hi; ++k) {
          const auto& e = evals[k];
          plan.resolve_source_angles(e.theta, e.input, e.shift_op, e.shift,
                                     angles);
          const transpile::Transpiled t =
              transpile::transpile_with_angles(prog.tmpl, angles, device);
          engine.evolve(t.ops);
          body(k, engine, t);
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
             options_.enable_readout_error, options_.noise_scale) {}

std::vector<std::vector<double>> DensityMatrixBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  std::vector<std::vector<double>> results(evals.size());
  for_each_evolved(plan, *transpile_cache_.get(plan, device_), device_, noise_,
                   evals, threads,
                   [&](std::size_t k, DeviceEngine& engine,
                       const transpile::Transpiled& t) {
                     engine.z_all(t.final_layout, 0, nullptr, results[k]);
                   });
  return results;
}

std::vector<double> DensityMatrixBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  // One exact evolution per evaluation yields every group, so a single
  // execution counts per evaluation.
  add_inferences(evals.size());
  std::vector<double> results(evals.size());
  for_each_evolved(plan, *transpile_cache_.get(plan, device_), device_, noise_,
                   evals, threads,
                   [&](std::size_t k, DeviceEngine& engine,
                       const transpile::Transpiled& t) {
                     results[k] =
                         engine.energy(observable, t.final_layout, 0, nullptr);
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
  if (options_.shots < 1)
    throw std::invalid_argument("NoisyBackend: shots < 1");
}

std::vector<std::vector<double>> NoisyBackend::execute_batch(
    const exec::CompiledCircuit& plan, std::span<const exec::Evaluation> evals,
    unsigned threads) {
  const auto prog = transpile_cache_.get(plan, device_);
  std::vector<Prng> rngs = batch_streams(options_.seed, evals);
  std::vector<std::vector<double>> results(evals.size());
  for_each_evolved(plan, *prog, device_, noise_, evals, threads,
                   [&](std::size_t k, DeviceEngine& engine,
                       const transpile::Transpiled& t) {
                     engine.z_all(t.final_layout, options_.shots, &rngs[k],
                                  results[k]);
                   });
  return results;
}

std::vector<double> NoisyBackend::execute_expect_batch(
    const exec::CompiledCircuit& plan,
    const exec::CompiledObservable& observable,
    std::span<const exec::Evaluation> evals, unsigned threads) {
  const auto prog = transpile_cache_.get(plan, device_);
  // One stream per evaluation; its groups consume it in group order.
  std::vector<Prng> rngs = batch_streams(options_.seed, evals);
  add_inferences(evals.size() * observable.groups().size());
  std::vector<double> results(evals.size());
  for_each_evolved(plan, *prog, device_, noise_, evals, threads,
                   [&](std::size_t k, DeviceEngine& engine,
                       const transpile::Transpiled& t) {
                     results[k] = engine.energy(observable, t.final_layout,
                                                options_.shots, &rngs[k]);
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
