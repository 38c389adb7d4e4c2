#pragma once
// Peephole optimization passes over lowered (basis) circuits.
//
// The ZXZXZ lowering and ring-layer decompositions emit adjacent virtual
// RZ gates and, around SWAP chains, back-to-back CX pairs that cancel.
// These passes shrink the physical gate count the device executes --
// directly reducing the noise a circuit accrues (every eliminated CX is
// ~1% error on 2021-era hardware).
//
// Each pass takes its stream by value and moves ops through, so a caller
// that hands over an rvalue pays no copy of the stream.
//
// Passes (all semantics-preserving up to global phase):
//   * merge_rz      -- fuse runs of RZ on the same qubit into one; drop
//                      angles that are 0 (mod 2 pi)
//   * cancel_cx     -- remove adjacent identical CX pairs (CX^2 = I),
//                      looking through commuting RZ on the control and
//                      nothing else
//   * optimize      -- run both to a fixed point

#include <vector>

#include "qoc/transpile/transpile.hpp"

namespace qoc::transpile {

/// True when `angle` is 0 (mod 2 pi) within the pipeline's tolerance.
/// The one zero test: lowering elision and merge_rz cleanup share it.
bool rz_angle_is_zero(double angle);

/// Fuse consecutive RZ rotations per qubit (they commute with nothing in
/// between on that qubit's timeline); elide zero rotations.
std::vector<BoundOp> merge_rz(std::vector<BoundOp> ops);

/// Cancel adjacent CX pairs with identical (control, target). A virtual
/// RZ on the *control* qubit commutes through CX and does not block
/// cancellation; any other interposed gate does.
std::vector<BoundOp> cancel_cx(std::vector<BoundOp> ops);

/// Iterate merge_rz + cancel_cx until no further reduction.
std::vector<BoundOp> optimize(std::vector<BoundOp> ops);

}  // namespace qoc::transpile
