// Exempt from the backend-only-execution rule: the reference
// Hamiltonian::expectation, which tests compare the backends against,
// copies the state it is given. The self-test checks that the rule stays
// silent here. This file lives under tools/qoc_lint/fixtures/ and never
// joins a build target.

#include "qoc/sim/statevector.hpp"

namespace qoc::vqe {

double fixture_reference(const sim::Statevector& psi) {
  sim::Statevector scratch = psi;
  return scratch.probabilities()[0];
}

}  // namespace qoc::vqe
