// Decodes a solved MIP (class-level integer counts) back into concrete
// per-server target bindings (Figure 6, step 3: the solve result persisted to
// the Resource Broker's target field).
//
// Within an equivalence class every server is interchangeable in the
// model's constraints, so the decoder's only job is to minimize churn, in the
// order Expression (1) prices it: each reservation keeps its in-use servers
// first and releases its idle ones first; released servers go to the
// reservations that acquire in the same class before any free server does;
// released servers nobody takes return to the free pool.

#ifndef RAS_SRC_CORE_ASSIGNMENT_DECODER_H_
#define RAS_SRC_CORE_ASSIGNMENT_DECODER_H_

#include <utility>
#include <vector>

#include "src/core/model_builder.h"
#include "src/core/solve_input.h"

namespace ras {

struct DecodedAssignment {
  // Target binding for every server covered by the classes (including
  // kUnassigned for servers the solver returned to the free pool).
  std::vector<std::pair<ServerId, ReservationId>> targets;
  // Moves relative to the snapshot's current assignment.
  size_t moves_total = 0;
  size_t moves_in_use = 0;
  size_t moves_idle = 0;
};

// `solution` is the MIP's full variable vector for built.model.
DecodedAssignment DecodeAssignment(const SolveInput& input,
                                   const std::vector<EquivalenceClass>& classes,
                                   const BuiltModel& built, const std::vector<double>& solution);

}  // namespace ras

#endif  // RAS_SRC_CORE_ASSIGNMENT_DECODER_H_
