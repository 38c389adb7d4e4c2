// Seeded violation for the backend-only-execution rule: the VQE layer
// preparing and measuring its own statevector instead of calling
// Backend::expect_batch. The reference parameter is allowed; the member
// and the copy are not. This file lives under tools/qoc_lint/fixtures/
// and never joins a build target.

#include "qoc/sim/statevector.hpp"

namespace qoc::vqe {

struct FixtureScratch {
  sim::Statevector psi;  // backend-only-execution
};

double fixture_energy(const sim::Statevector& prepared) {
  sim::Statevector meas = prepared;  // backend-only-execution
  return meas.probabilities()[0];
}

}  // namespace qoc::vqe
