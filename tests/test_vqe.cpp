// Tests for the VQE extension: Pauli Hamiltonians, energy estimation
// (exact and sampled), and the parameter-shift VQE solver with pruning.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "qoc/backend/backend.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/sim/batched_statevector.hpp"
#include "qoc/sim/gates.hpp"
#include "qoc/vqe/vqe.hpp"

namespace {

using namespace qoc;
using namespace qoc::vqe;
using qoc::circuit::Circuit;
using qoc::circuit::ParamRef;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Hamiltonian, ValidatesTerms) {
  EXPECT_THROW(Hamiltonian(2, {{"Z", 1.0}}), std::invalid_argument);
  EXPECT_THROW(Hamiltonian(2, {{"ZQ", 1.0}}), std::invalid_argument);
  for (const double c : {kNaN, kInf, -kInf})
    EXPECT_THROW(Hamiltonian(2, {{"ZZ", c}, {"XI", 0.5}}),
                 std::invalid_argument)
        << c;
  EXPECT_NO_THROW(Hamiltonian(2, {{"ZI", 1.0}}));
}

TEST(Hamiltonian, QubitRangeMatchesCompiledObservable) {
  // Construction accepts 1..30 qubits like CompiledObservable; only the
  // dense matrix (and so exact diagonalisation) stops at 10.
  const auto big = Hamiltonian::heisenberg(16, 1.0);
  EXPECT_EQ(big.num_qubits(), 16);
  EXPECT_EQ(vqe::compile_observable(big).num_qubits(), 16);
  EXPECT_THROW(big.to_matrix(), std::invalid_argument);
  EXPECT_THROW(big.exact_ground_energy(), std::invalid_argument);
  EXPECT_NO_THROW(Hamiltonian::heisenberg(10, 1.0).to_matrix());
  EXPECT_NO_THROW(Hamiltonian(30, {{std::string(30, 'Z'), 1.0}}));
  EXPECT_THROW(Hamiltonian(31, {{std::string(31, 'Z'), 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(Hamiltonian(0, {}), std::invalid_argument);
}

TEST(Hamiltonian, SingleZExpectationOnBasisStates) {
  const Hamiltonian h(1, {{"Z", 1.0}});
  sim::Statevector zero(1);
  EXPECT_NEAR(h.expectation(zero), 1.0, 1e-12);
  sim::Statevector one(1);
  one.apply_pauli_x(0);
  EXPECT_NEAR(h.expectation(one), -1.0, 1e-12);
}

TEST(Hamiltonian, XExpectationOnPlusState) {
  const Hamiltonian h(1, {{"X", 2.0}});
  sim::Statevector plus(1);
  plus.apply_1q(sim::gate_h(), 0);
  EXPECT_NEAR(h.expectation(plus), 2.0, 1e-12);
}

TEST(Hamiltonian, MatrixMatchesTermExpectations) {
  const Hamiltonian h = Hamiltonian::h2_minimal();
  const auto m = h.to_matrix();
  // <00|H|00> from the matrix must equal expectation on |00>.
  sim::Statevector psi(2);
  EXPECT_NEAR(h.expectation(psi), m(0, 0).real(), 1e-12);
  EXPECT_TRUE(linalg::is_hermitian(m, 1e-12));
}

TEST(Hamiltonian, GroundEnergyOfSingleSpin) {
  // H = Z has ground energy -1; H = X also -1.
  EXPECT_NEAR(Hamiltonian(1, {{"Z", 1.0}}).exact_ground_energy(), -1.0, 1e-9);
  EXPECT_NEAR(Hamiltonian(1, {{"X", 1.0}}).exact_ground_energy(), -1.0, 1e-9);
}

TEST(Hamiltonian, TransverseIsingLimits) {
  // h = 0: classical Ising, ground energy -J (n-1) (ferromagnetic chain).
  const auto classical = Hamiltonian::transverse_ising(4, 1.0, 0.0);
  EXPECT_NEAR(classical.exact_ground_energy(), -3.0, 1e-9);
  // J = 0: independent spins in X field, ground energy -h n.
  const auto field = Hamiltonian::transverse_ising(4, 0.0, 0.5);
  EXPECT_NEAR(field.exact_ground_energy(), -2.0, 1e-9);
}

TEST(Hamiltonian, HeisenbergTwoSitesGroundIsSinglet) {
  // 2-site antiferromagnetic Heisenberg: E0 = -3J.
  const auto h = Hamiltonian::heisenberg(2, 1.0);
  EXPECT_NEAR(h.exact_ground_energy(), -3.0, 1e-9);
}

TEST(CompiledObservable, GroupsQubitWiseCommutingTerms) {
  // h2_minimal: II folds into the constant; ZI, IZ, ZZ share the
  // computational basis; XX and YY each need their own.
  const auto obs = compile_observable(Hamiltonian::h2_minimal());
  EXPECT_NEAR(obs.constant(), -0.4804, 1e-12);
  ASSERT_EQ(obs.groups().size(), 3u);
  EXPECT_EQ(obs.groups()[0].terms.size(), 3u);  // ZI, IZ, ZZ
  EXPECT_EQ(obs.groups()[0].basis, "ZZ");
  EXPECT_TRUE(obs.groups()[0].suffix.empty());  // already in Z basis
  EXPECT_EQ(obs.groups()[1].basis, "XX");
  EXPECT_EQ(obs.groups()[1].suffix.size(), 2u);
  EXPECT_EQ(obs.groups()[2].basis, "YY");
  // Every non-identity term lands in exactly one group.
  std::size_t grouped = 0;
  for (const auto& g : obs.groups()) grouped += g.terms.size();
  EXPECT_EQ(grouped, 5u);
}

TEST(CompiledObservable, ExpectationBitIdenticalToHamiltonian) {
  const Hamiltonian h = Hamiltonian::heisenberg(3, 1.3);
  const auto obs = compile_observable(h);
  Prng rng(31);
  sim::Statevector psi(3);
  for (int q = 0; q < 3; ++q)
    psi.apply_1q(sim::gate_ry(rng.uniform(0.0, 3.0)), q);
  psi.apply_2q(sim::gate_cx(), 0, 1);
  psi.apply_2q(sim::gate_cx(), 1, 2);
  // Bitwise equality, not NEAR: the compiled per-term loop replays the
  // same arithmetic in the same order.
  EXPECT_EQ(obs.expectation(psi), h.expectation(psi));
}

TEST(CompiledObservable, RejectsMalformedTerms) {
  EXPECT_THROW(exec::CompiledObservable::compile(
                   2, std::vector<exec::ObservableTerm>{{"Z", 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(exec::CompiledObservable::compile(
                   2, std::vector<exec::ObservableTerm>{{"ZQ", 1.0}}),
               std::invalid_argument);
}

TEST(CompiledObservable, PerGroupCallsRejectBadGroupIndex) {
  const auto obs = compile_observable(Hamiltonian::h2_minimal());
  sim::Statevector psi(2);
  sim::ShotSampler sampler;
  Prng rng(3);
  const sim::ShotCounts& counts = psi.sample_counts(16, rng, sampler);
  for (const std::size_t g : {obs.groups().size(), obs.groups().size() + 5}) {
    EXPECT_THROW(obs.apply_suffix(psi, g), std::out_of_range);
    EXPECT_THROW(obs.group_energy_from_counts(counts, g), std::out_of_range);
  }
}

TEST(EnergyEstimator, BatchedEnergiesMatchSequentialCalls) {
  const Hamiltonian h = Hamiltonian::h2_minimal();
  Circuit ansatz = VqeSolver::hardware_efficient_ansatz(2, 2);
  Prng rng(32);
  std::vector<std::vector<double>> thetas(5);
  std::vector<exec::Evaluation> evals;
  for (auto& theta : thetas) {
    theta.resize(static_cast<std::size_t>(ansatz.num_trainable()));
    for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
    evals.push_back({theta, {}, exec::Evaluation::kNoShift, 0.0});
  }

  EstimatorOptions opt;
  opt.shots = 64;
  opt.seed = 41;
  EnergyEstimator batched(h, opt);
  const auto batch = batched.energies(ansatz, evals, 1);

  EnergyEstimator seq(h, opt);
  for (std::size_t k = 0; k < thetas.size(); ++k)
    EXPECT_EQ(batch[k], seq.energy(ansatz, thetas[k]));
  EXPECT_EQ(batched.executions(), seq.executions());
}

TEST(EnergyEstimator, ExactMatchesHamiltonianExpectation) {
  const Hamiltonian h = Hamiltonian::h2_minimal();
  EnergyEstimator est(h);
  Circuit ansatz(2);
  ansatz.ry(0, ParamRef::trainable(0));
  ansatz.cx(0, 1);
  const std::vector<double> theta = {0.8};

  sim::Statevector psi(2);
  psi.apply_1q(sim::gate_ry(0.8), 0);
  psi.apply_2q(sim::gate_cx(), 0, 1);
  EXPECT_NEAR(est.energy(ansatz, theta), h.expectation(psi), 1e-12);
  EXPECT_EQ(est.executions(), 1u);
}

TEST(EnergyEstimator, SampledConvergesToExact) {
  const Hamiltonian h = Hamiltonian::h2_minimal();
  Circuit ansatz(2);
  ansatz.ry(0, ParamRef::trainable(0));
  ansatz.cx(0, 1);
  const std::vector<double> theta = {1.1};
  constexpr int kShots = 40000;
  constexpr std::size_t kEvals = 16;

  EnergyEstimator exact(h);
  const double e_exact = exact.energy(ansatz, theta);

  // A sampled energy is the constant plus one independent mean of kShots
  // single-shot values per commuting group, group g's value being
  // sum_i c_i (-1)^parity_i of one basis-rotated shot. So it is unbiased
  // with variance sum_g Var_g / kShots, Var_g taken exactly from the
  // rotated state's probabilities: a standard deviation of 5.0e-4 here.
  // The mean of kEvals evaluations, each on its own stream, has a
  // quarter of that.
  const auto obs = compile_observable(h);
  sim::Statevector psi(2);
  psi.apply_1q(sim::gate_ry(theta[0]), 0);
  psi.apply_2q(sim::gate_cx(), 0, 1);
  double variance = 0.0;
  for (std::size_t g = 0; g < obs.groups().size(); ++g) {
    sim::Statevector rotated = psi;
    obs.apply_suffix(rotated, g);
    const std::vector<double> p = rotated.probabilities();
    double mean = 0.0, square = 0.0;
    for (std::size_t s = 0; s < p.size(); ++s) {
      double v = 0.0;
      for (const auto& term : obs.groups()[g].terms)
        v += (std::popcount(s & term.z_mask) & 1) ? -term.coeff : term.coeff;
      mean += p[s] * v;
      square += p[s] * v * v;
    }
    variance += square - mean * mean;
  }
  const double sigma_mean =
      std::sqrt(variance / kShots / static_cast<double>(kEvals));
  // k = 5: a correct estimator fails with probability 5.7e-7, the
  // two-sided normal tail, which the central limit makes accurate at
  // 40,000 shots per group.
  constexpr double kSigmas = 5.0;

  EstimatorOptions opt;
  opt.shots = kShots;
  opt.seed = 9;
  EnergyEstimator sampled(h, opt);
  const std::vector<exec::Evaluation> evals(
      kEvals, {theta, {}, exec::Evaluation::kNoShift, 0.0});
  double sum = 0.0;
  for (const double e : sampled.energies(ansatz, evals)) sum += e;
  EXPECT_NEAR(sum / static_cast<double>(kEvals), e_exact,
              kSigmas * sigma_mean);
  // One execution per measurement basis: ZI/IZ/ZZ share the computational
  // basis, XX and YY need their own, so 3 commuting groups for 5
  // non-identity terms.
  EXPECT_EQ(sampled.executions(), 3u * kEvals);
}

TEST(EnergyEstimator, ForwardsToBackend) {
  // energies() is Backend::expect_batch on the backend's cached plan:
  // bitwise the energies of a twin backend configured the same way, with
  // executions() its inference count.
  const Hamiltonian h = Hamiltonian::heisenberg(3, 0.7);
  const Circuit ansatz = VqeSolver::hardware_efficient_ansatz(3, 1);
  const auto plan = exec::CompiledCircuit::compile(ansatz);
  const auto observable = compile_observable(h);
  Prng rng(19);
  std::vector<double> theta(static_cast<std::size_t>(ansatz.num_trainable()));
  for (auto& t : theta) t = rng.uniform(-1.0, 1.0);
  std::vector<exec::Evaluation> evals(
      6, {theta, {}, exec::Evaluation::kNoShift, 0.0});
  evals[1].shift_op = evals[2].shift_op = 0;
  evals[1].shift = 1.5707963267948966;
  evals[2].shift = -1.5707963267948966;

  backend::NoisyBackendOptions noisy;
  noisy.shots = 64;
  noisy.seed = 23;
  using Make = std::function<std::shared_ptr<backend::Backend>()>;
  const std::vector<std::pair<std::string, Make>> backends = {
      {"statevector",
       [] { return std::make_shared<backend::StatevectorBackend>(256, 7); }},
      {"noisy",
       [&] {
         return std::make_shared<backend::NoisyBackend>(
             noise::DeviceModel::ibmq_santiago(), noisy);
       }},
      {"density", [] {
         return std::make_shared<backend::DensityMatrixBackend>(
             noise::DeviceModel::ibmq_santiago());
       }}};
  for (const auto& [name, make] : backends)
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      const auto twin = make();
      const auto want = twin->expect_batch(plan, observable, evals, threads);
      const auto backend = make();
      EnergyEstimator est(h, backend);
      const auto got = est.energies(ansatz, evals, threads);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < want.size(); ++k)
        EXPECT_EQ(bits(got[k]), bits(want[k])) << "evaluation " << k;
      EXPECT_EQ(est.executions(), backend->inference_count());
      EXPECT_EQ(est.executions(), twin->inference_count());
    }

  // The options constructor measures on StatevectorBackend(shots, seed).
  EstimatorOptions opt;
  opt.shots = 256;
  opt.seed = 7;
  EnergyEstimator own(h, opt);
  backend::StatevectorBackend twin(256, 7);
  const auto got = own.energies(ansatz, evals, 4);
  const auto want = twin.expect_batch(plan, observable, evals, 4);
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(bits(got[k]), bits(want[k])) << "evaluation " << k;
  EXPECT_EQ(own.executions(), twin.inference_count());
}

TEST(EnergyEstimator, RejectsBadOptions) {
  EstimatorOptions opt;
  opt.shots = -1;
  EXPECT_THROW(EnergyEstimator(Hamiltonian::h2_minimal(), opt),
               std::invalid_argument);
  EXPECT_THROW(EnergyEstimator(Hamiltonian::h2_minimal(), nullptr),
               std::invalid_argument);
}

TEST(EnergyEstimator, QubitMismatchThrows) {
  EnergyEstimator est(Hamiltonian::h2_minimal());
  Circuit ansatz(3);
  ansatz.ry(0, ParamRef::trainable(0));
  EXPECT_THROW(est.energy(ansatz, std::vector<double>{0.1}),
               std::invalid_argument);
}

TEST(VqeSolver, ReachesH2GroundStateExactly) {
  const Hamiltonian h2 = Hamiltonian::h2_minimal();
  VqeConfig cfg;
  cfg.steps = 80;
  cfg.seed = 3;
  VqeSolver solver(EnergyEstimator(h2),
                   VqeSolver::hardware_efficient_ansatz(2, 2), cfg);
  const VqeResult res = solver.run();
  EXPECT_NEAR(res.best_energy, h2.exact_ground_energy(), 5e-3);
}

TEST(VqeSolver, EnergyHistoryDecreasesOverall) {
  const Hamiltonian ising = Hamiltonian::transverse_ising(3, 1.0, 0.5);
  VqeConfig cfg;
  cfg.steps = 40;
  cfg.seed = 7;
  VqeSolver solver(EnergyEstimator(ising),
                   VqeSolver::hardware_efficient_ansatz(3, 2), cfg);
  const VqeResult res = solver.run();
  ASSERT_GE(res.history.size(), 2u);
  EXPECT_LT(res.history.back().energy, res.history.front().energy);
  EXPECT_GT(res.total_executions, 0u);
}

TEST(VqeSolver, PruningReducesExecutions) {
  const Hamiltonian ising = Hamiltonian::transverse_ising(3, 1.0, 0.5);
  auto run_with = [&](bool prune) {
    VqeConfig cfg;
    cfg.steps = 15;
    cfg.seed = 11;
    cfg.use_pruning = prune;
    cfg.pruner.ratio = 0.5;
    cfg.pruner.pruning_window = 2;
    VqeSolver solver(EnergyEstimator(ising),
                     VqeSolver::hardware_efficient_ansatz(3, 2), cfg);
    return solver.run().total_executions;
  };
  EXPECT_LT(run_with(true), run_with(false));
}

TEST(VqeSolver, NoisySampledStillApproachesGround) {
  const Hamiltonian h2 = Hamiltonian::h2_minimal();
  const noise::DeviceModel device = noise::DeviceModel::ibmq_santiago();
  const Circuit ansatz = VqeSolver::hardware_efficient_ansatz(2, 2);
  backend::NoisyBackendOptions opt;
  opt.shots = 512;
  opt.seed = 13;
  VqeConfig cfg;
  cfg.steps = 60;
  cfg.seed = 3;
  cfg.use_pruning = true;
  cfg.pruner.ratio = 0.5;
  cfg.pruner.pruning_window = 2;
  VqeSolver solver(
      EnergyEstimator(h2, std::make_shared<backend::NoisyBackend>(device, opt)),
      ansatz, cfg);
  const VqeResult res = solver.run();

  // The device's noise lifts every reachable energy about 0.1 Ha above
  // the ideal ground state, so the oracle is the same solve on the
  // device's exact density matrix. Both the sampled energies and the
  // parameters they led to must come within 0.1 of it.
  EnergyEstimator oracle(
      h2, std::make_shared<backend::DensityMatrixBackend>(device));
  const VqeResult ref = VqeSolver(oracle, ansatz, cfg).run();
  EXPECT_NEAR(res.best_energy, ref.best_energy, 0.1);
  EXPECT_NEAR(oracle.energy(ansatz, res.theta), ref.best_energy, 0.1);
}

TEST(VqeSolver, RejectsNonFiniteThetaInit) {
  const Circuit ansatz = VqeSolver::hardware_efficient_ansatz(2, 1);
  VqeConfig cfg;
  cfg.steps = 1;
  for (const double bad : {kNaN, kInf, -kInf}) {
    std::vector<double> theta(
        static_cast<std::size_t>(ansatz.num_trainable()), 0.1);
    theta[1] = bad;
    VqeSolver solver(EnergyEstimator(Hamiltonian::h2_minimal()), ansatz, cfg);
    EXPECT_THROW(solver.run(theta), std::invalid_argument) << bad;
  }
}

TEST(VqeSolver, RejectsParameterFreeAnsatz) {
  Circuit fixed(2);
  fixed.h(0);
  EXPECT_THROW(VqeSolver(EnergyEstimator(Hamiltonian::h2_minimal()),
                         std::move(fixed), VqeConfig{}),
               std::invalid_argument);
}

TEST(VqeSolver, HardwareEfficientAnsatzShape) {
  const Circuit c = VqeSolver::hardware_efficient_ansatz(4, 2);
  // depth d: d * (RY 4 + RZ 4 + CZ 3) + final RY 4.
  EXPECT_EQ(c.num_ops(), 2u * 11u + 4u);
  EXPECT_EQ(c.num_trainable(), 2 * 8 + 4);
}

}  // namespace
