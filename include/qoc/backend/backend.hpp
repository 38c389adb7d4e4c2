#pragma once
// Execution backends.
//
// A Backend runs a bound PQC and returns the Pauli-Z expectation value of
// every (logical) qubit -- the f(theta) of Eq. 1. Two implementations,
// each exact at shots == 0 and sampled at shots > 0:
//
//  * StatevectorBackend -- the paper's "Classical-Train" baseline: exact
//    amplitudes, optional shot sampling ("sample based on the amplitude
//    vector to simulate quantum measurement", Sec. 4.1).
//
//  * NoisyBackend -- the stand-in for the real IBM devices: the circuit is
//    routed + lowered for the device, its density matrix is evolved
//    exactly under depolarizing gate errors and thermal relaxation, and
//    each of its shots is then drawn from the exact readout distribution
//    (readout bit-flips included), as 1,024 independent device runs
//    would be. With shots == 0 it sums that distribution instead: the
//    deterministic noisy oracle its sampled counts are tested against.
//
// Both count every run() as one "inference", the x-axis of Fig. 6.
//
// The one execution primitive is the batch: callers compile a circuit
// into an exec::CompiledCircuit once (per model) and submit many
// evaluations -- different (theta, input) bindings, optionally with a
// single-op parameter shift -- in one run_batch() call. Backends amortise
// all structure-dependent work (plan compilation, device routing) across
// the batch and fan evaluations over worker threads; run() is a batch of
// one. Batched results are bit-identical to the equivalent sequence of
// run() calls: exact paths are deterministic, and stochastic paths follow
// one stream rule (stream_prng below) that assigns auto streams in
// submission order exactly as sequential run() calls would.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qoc/circuit/circuit.hpp"
#include "qoc/common/mutex.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/common/thread_annotations.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/exec/observable.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/noise/noise_model.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/transpile/transpile.hpp"

namespace qoc::backend {

/// The PRNG stream rule every stochastic backend follows: the generator
/// of stream `id` under a backend seeded with `seed`. An evaluation's
/// stream id is its pinned Evaluation::rng_stream, or else the next
/// serial of the backend's submission-order counter.
inline Prng stream_prng(std::uint64_t seed, std::uint64_t id) {
  return Prng(seed + 0x9E3779B97F4A7C15ULL * (id + 1));
}

/// The one binding check: throws std::invalid_argument, naming `who`,
/// when an evaluation of `evals` cannot run on `plan` -- a theta or input
/// shorter than the plan's trainable-parameter or feature count, a
/// shift_op that is out of range or names an unparameterised op, or a
/// NaN or infinite theta, input or shift value. Every Backend entry
/// point runs it before anything executes, reserves a stream serial or
/// counts an inference, and qoc::serve at submission: a bad binding has
/// no defined outcome, and in a sampled batch it would fail every
/// evaluation coalesced with it.
void require_valid_bindings(const exec::CompiledCircuit& plan,
                            std::span<const exec::Evaluation> evals,
                            const std::string& who);

class Backend {
 public:
  virtual ~Backend() = default;

  /// Execute the circuit with the given trainable parameters and encoder
  /// inputs; returns <Z_q> in [-1, 1] for each logical qubit q. The
  /// circuit's plan is compiled once per structure (plan_cached).
  std::vector<double> run(const circuit::Circuit& c,
                          std::span<const double> theta,
                          std::span<const double> input) {
    return run(*plan_cached(c), theta, input);
  }

  /// Single evaluation of a pre-compiled plan.
  std::vector<double> run(const exec::CompiledCircuit& plan,
                          std::span<const double> theta,
                          std::span<const double> input) {
    const exec::Evaluation eval{theta, input};
    const std::span<const exec::Evaluation> one(&eval, 1);
    require_valid_bindings(plan, one, name());
    auto results = execute_batch(plan, one, 1);
    add_inferences(1);
    return std::move(results[0]);
  }

  /// Execute every evaluation of the batch against the compiled plan.
  /// `threads` fans evaluations across workers of the shared pool:
  /// 1 = sequential (default), 0 = one per hardware core.
  ///
  /// Determinism contract (shared by expect_batch): results[k] is
  /// bit-identical to the k-th call of the equivalent sequence of
  /// run() invocations, for every thread count. Exact paths are
  /// deterministic outright. Stochastic paths draw evaluation k from
  /// stream_prng(seed, id): the backend reserves one serial per
  /// evaluation of the batch, in submission order, before any worker
  /// starts, and an auto evaluation's id is its serial. Each evaluation
  /// consumes only its own stream, sequentially -- so scheduling order
  /// can never reorder draws.
  ///
  /// An evaluation may instead pin its id via Evaluation::rng_stream,
  /// making its draws a pure function of (backend seed, stream id) --
  /// independent of batch composition, position and the backend's
  /// serial counter (which still advances past it). qoc::serve relies
  /// on this to coalesce jobs from many clients into arbitrary batches
  /// without changing any job's outcome.
  /// Each evaluation counts as one inference once the batch has run. A
  /// binding require_valid_bindings rejects throws std::invalid_argument
  /// before anything executes.
  std::vector<std::vector<double>> run_batch(
      const exec::CompiledCircuit& plan,
      std::span<const exec::Evaluation> evals, unsigned threads = 1) {
    require_valid_bindings(plan, evals, name());
    QOC_TRACE_SPAN_ARG("backend", "run_batch", "evals", evals.size());
    QOC_METRIC_SCOPED_TIMER_NS("qoc_backend_run_batch_ns");
    auto results = execute_batch(plan, evals, threads);
    add_inferences(evals.size());
    return results;
  }

  /// Batched Hamiltonian expectations: one energy per evaluation,
  /// <H> = observable.constant() + sum of term expectations of the
  /// ansatz state ansatz(theta)|0>. Sampling backends measure once per
  /// commuting group (not once per term), applying the group's
  /// basis-change suffix to the prepared state; exact backends evaluate
  /// every term analytically from one execution. Exact statevector
  /// results are bit-identical to the per-term loop
  /// (vqe::Hamiltonian::expectation). The run_batch determinism
  /// contract applies verbatim: one stream per evaluation under the
  /// same rule, consumed sequentially inside the evaluation (per
  /// measured group), so sampled energies are bit-reproducible and
  /// thread-count invariant. Inference accounting: one count per
  /// measured execution (evals x groups when sampling, evals when
  /// exact).
  std::vector<double> expect_batch(const exec::CompiledCircuit& plan,
                                   const exec::CompiledObservable& observable,
                                   std::span<const exec::Evaluation> evals,
                                   unsigned threads = 1) {
    if (observable.num_qubits() != plan.num_qubits())
      throw std::invalid_argument("expect_batch: qubit count mismatch");
    require_valid_bindings(plan, evals, name());
    QOC_TRACE_SPAN_ARG("backend", "expect_batch", "evals", evals.size());
    QOC_METRIC_SCOPED_TIMER_NS("qoc_backend_expect_batch_ns");
    return execute_expect_batch(plan, observable, evals, threads);
  }

  /// Compile-or-reuse a plan for `c`, keyed on exec::structure_hash and
  /// confirmed with exec::structure_equal on every hit. The circuit-based
  /// run() path and vqe::EnergyEstimator share it. The cache is cleared
  /// when it outgrows a fixed cap, so callers that generate unbounded
  /// families of circuits cannot leak. Thread-safe.
  std::shared_ptr<const exec::CompiledCircuit> plan_cached(
      const circuit::Circuit& c);

  virtual std::string name() const = 0;

  /// True when this backend's results are a pure function of the
  /// submitted bindings: no shot sampling, no internal RNG state.
  /// Consumers may memoise results keyed on bindings (qoc::serve's
  /// result cache does) only when this holds.
  virtual bool deterministic() const { return false; }

  /// Stamp out a fresh, independently-usable backend with this
  /// backend's construction-time configuration (shots, seed, device
  /// model, noise options...). Replica contract: an evaluation that
  /// pins Evaluation::rng_stream produces bit-identical results on the
  /// original and on any replica (the stream derivation is a pure
  /// function of the configured seed and the stream id), so a replica
  /// pool (serve::BackendPool) may route pinned-stream jobs to any
  /// replica without changing their outcome. Replicas do NOT share
  /// mutable state: inference counters, plan/transpile caches and
  /// auto-stream serials start fresh, so auto-stream (unpinned)
  /// stochastic evaluations may diverge from a backend that has already
  /// consumed serials. Returns nullptr when the backend cannot replicate
  /// itself (custom backends wrapping exclusive resources); pool
  /// constructors that need clones throw in that case.
  virtual std::unique_ptr<Backend> clone_replica() const { return nullptr; }

  /// Total number of circuit executions since construction / last reset.
  /// This is the "#Inference" axis of Figure 6.
  ///
  /// Accounting contract: every executed evaluation counts exactly
  /// once, through the single add_inferences() path, no matter which
  /// entry point submitted it -- run(), a run_batch() of any size, or a
  /// serve-coalesced batch. The run paths count at the public wrapper
  /// (one per evaluation) after execute_batch returns; the expect paths
  /// count inside the backend implementation because the cost is
  /// backend-dependent (one per *measured execution*: evals x commuting
  /// groups when sampling, evals when a single execution yields every
  /// term analytically). A call that throws before executing counts
  /// nothing, and neither do cache hits that never execute (plan
  /// caches, serve's result cache).
  std::uint64_t inference_count() const {
    return inferences_.load(std::memory_order_relaxed);
  }
  void reset_inference_count() { inferences_.store(0); }

 protected:
  /// The execution primitive every backend implements: run each
  /// evaluation of the batch against the plan, fanned over `threads`
  /// pool workers, honouring the run_batch determinism contract. Does
  /// no inference accounting (the public wrappers count).
  virtual std::vector<std::vector<double>> execute_batch(
      const exec::CompiledCircuit& plan,
      std::span<const exec::Evaluation> evals, unsigned threads) = 0;

  /// Batched Hamiltonian expectation. Joint Pauli products cannot be
  /// reconstructed from per-qubit <Z>, so there is no generic fallback:
  /// the default throws, and backends with native state access
  /// override. Implementations do their own inference accounting via
  /// add_inferences (one per measured execution).
  virtual std::vector<double> execute_expect_batch(
      const exec::CompiledCircuit& plan,
      const exec::CompiledObservable& observable,
      std::span<const exec::Evaluation> evals, unsigned threads);

  /// Inference-count bump for paths that bypass the run()/run_batch()
  /// wrappers (execute_expect_batch implementations).
  void add_inferences(std::uint64_t n) {
    inferences_.fetch_add(n, std::memory_order_relaxed);
  }

  /// The stream rule for one batch of a backend seeded with `seed`:
  /// reserves one serial per evaluation (pinned or not) from the
  /// backend's counter, in submission order, and returns evaluation k's
  /// generator stream_prng(seed, id), id = its pinned rng_stream or
  /// else its serial.
  std::vector<Prng> batch_streams(std::uint64_t seed,
                                  std::span<const exec::Evaluation> evals);

 private:
  std::atomic<std::uint64_t> inferences_{0};
  std::atomic<std::uint64_t> serials_{0};
  common::Mutex plan_cache_mutex_;
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<const exec::CompiledCircuit>>>
      plan_cache_ QOC_GUARDED_BY(plan_cache_mutex_);
  std::size_t plan_cache_entries_ QOC_GUARDED_BY(plan_cache_mutex_) = 0;
};

/// Construction options for StatevectorBackend.
struct StatevectorBackendOptions {
  int shots = 0;
  std::uint64_t seed = 0x51A7E7EC7ULL;
  /// Evaluation-major (k-wide) lane policy for exact run_batch and
  /// expect_batch: -1 defers to the static lane table (default), 0 or 1
  /// forces the scalar per-evaluation path (kill switch), >= 2 pins the
  /// lane width (clamped even, <= 32); see sim::batch_lane_width.
  /// Sampled mode always runs the scalar path.
  int batch_lanes = -1;
};

/// Noise-free statevector execution. shots == 0 means exact expectation
/// values; shots > 0 samples the Born distribution like a real readout.
/// Exact mode touches no shared mutable state, so batched exact runs
/// scale linearly with threads; sampled mode touches only the atomic
/// serial counter of the stream rule.
///
/// In exact mode, batches of >= k distinct bindings on small registers
/// execute k evaluations at a time on a sim::BatchedStatevector lane
/// group (vectorizing across bindings); the scalar path handles the
/// tail and remains the bitwise oracle -- lane-grouped results are
/// bit-identical to per-evaluation execution. Sampled run_batch and
/// expect_batch run the scalar path only: each evaluation's readout
/// draws its shots from p = |amp|^2 through
/// sim::ShotSampler::parity_means, as NoisyBackend draws from its
/// readout distribution.
class StatevectorBackend final : public Backend {
 public:
  explicit StatevectorBackend(int shots = 0,
                              std::uint64_t seed = 0x51A7E7EC7ULL);
  explicit StatevectorBackend(const StatevectorBackendOptions& options);

  std::string name() const override { return "statevector"; }
  /// Exact mode (shots == 0) is a pure function of the bindings.
  bool deterministic() const override { return shots_ == 0; }
  std::unique_ptr<Backend> clone_replica() const override {
    return std::make_unique<StatevectorBackend>(
        StatevectorBackendOptions{shots_, seed_, batch_lanes_});
  }
  int shots() const { return shots_; }
  int batch_lanes() const { return batch_lanes_; }

 protected:
  std::vector<std::vector<double>> execute_batch(
      const exec::CompiledCircuit& plan,
      std::span<const exec::Evaluation> evals, unsigned threads) override;
  std::vector<double> execute_expect_batch(
      const exec::CompiledCircuit& plan,
      const exec::CompiledObservable& observable,
      std::span<const exec::Evaluation> evals, unsigned threads) override;

 private:
  int shots_;
  std::uint64_t seed_;
  int batch_lanes_ = -1;
};

/// Options of the simulated device.
struct NoisyBackendOptions {
  /// No effect: the device engine evolves each evaluation's density
  /// matrix exactly, so there are no noise trajectories to count. The
  /// field stays only because bench/e2e assigns it, and goes with that
  /// assignment at the next benchmark change.
  int trajectories = 64;
  /// Measurement shots per execution (paper uses 1024), each drawn
  /// independently from the exact readout distribution. 0 reads the
  /// device out exactly: every mean is summed over that distribution,
  /// as StatevectorBackend's shots == 0 is. Negative throws
  /// std::invalid_argument.
  int shots = 1024;
  std::uint64_t seed = 0xD0C0FEE1ULL;
  bool enable_gate_noise = true;
  bool enable_relaxation = true;
  bool enable_readout_error = true;
  /// Global multiplier on calibrated error rates and gate durations
  /// (1.0 = calibrated); see noise::NoiseModel for the values it may
  /// take.
  double noise_scale = 1.0;
  /// No effect, like `trajectories`: the device engine runs no lane
  /// groups. It goes with bench/e2e's assignment too.
  int batch_lanes = -1;
};

/// A routed template over the active qubits of its plan; defined in
/// backend.cpp.
struct ActiveProgram;

/// Device routing computed once per circuit structure and reused for
/// every binding (see transpile::RoutedTemplate). NoisyBackend holds
/// one and finishes the pipeline for each binding with
/// transpile::transpile_with_angles.
///
/// Each entry is relabelled onto its plan's active qubits once, when it
/// is routed: the routed template's operand qubits plus final_layout (a
/// measured qubit with no gate stays), numbered 0..m-1 in increasing
/// physical order, with the map back to physical qubits kept beside it.
/// An idle qubit gets no gate and no noise and stays |0>, so the device
/// engine's density matrix spans only the m active qubits.
class TranspileCache {
 public:
  /// Active-qubit program for the plan's structure, computing it on miss.
  std::shared_ptr<const ActiveProgram> get(const exec::CompiledCircuit& plan,
                                           const noise::DeviceModel& device)
      QOC_EXCLUDES(mutex_);

 private:
  common::Mutex mutex_;
  // Probed by the cheap structure_hash, but every hash hit is verified
  // against the entry's source circuit (exec::structure_equal) before a
  // template is served: the exec header explicitly allows hash
  // collisions, and serving a colliding entry would route the wrong
  // circuit. Bounded by clearing wholesale at a fixed cap.
  std::unordered_map<
      std::uint64_t,
      std::vector<
          std::pair<circuit::Circuit, std::shared_ptr<const ActiveProgram>>>>
      cache_ QOC_GUARDED_BY(mutex_);
  std::size_t entries_ QOC_GUARDED_BY(mutex_) = 0;
};

/// Simulated NISQ device: transpiles to the device, evolves each
/// evaluation's density matrix over the circuit's m active qubits
/// exactly (at most 12, else execution throws std::invalid_argument
/// before anything draws or counts), and draws its `shots` outcomes
/// from the exact readout distribution with the evaluation's stream
/// under the stream rule. So an estimate carries only shot noise, as on
/// a device whose every shot is an independent noisy run. With shots ==
/// 0 each mean is summed over that distribution instead: no streams are
/// reserved, expect_batch counts one inference per evaluation, and the
/// results are a pure function of the bindings. Thread-safe for
/// concurrent run() calls.
class NoisyBackend final : public Backend {
 public:
  NoisyBackend(noise::DeviceModel device, NoisyBackendOptions options = {});

  std::string name() const override { return "noisy:" + device_.name; }
  /// The exact readout (shots == 0) is a pure function of the bindings.
  bool deterministic() const override { return options_.shots == 0; }
  std::unique_ptr<Backend> clone_replica() const override {
    return std::make_unique<NoisyBackend>(device_, options_);
  }
  const noise::DeviceModel& device() const { return device_; }
  const NoisyBackendOptions& options() const { return options_; }

 protected:
  std::vector<std::vector<double>> execute_batch(
      const exec::CompiledCircuit& plan,
      std::span<const exec::Evaluation> evals, unsigned threads) override;
  std::vector<double> execute_expect_batch(
      const exec::CompiledCircuit& plan,
      const exec::CompiledObservable& observable,
      std::span<const exec::Evaluation> evals, unsigned threads) override;

 private:
  noise::DeviceModel device_;
  NoisyBackendOptions options_;
  noise::NoiseModel noise_;
  TranspileCache transpile_cache_;
};

}  // namespace qoc::backend
