#include "src/core/assignment_decoder.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ras {

DecodedAssignment DecodeAssignment(const SolveInput& input,
                                   const std::vector<EquivalenceClass>& classes,
                                   const BuiltModel& built, const std::vector<double>& solution) {
  DecodedAssignment out;
  assert(solution.size() == built.model.num_variables());

  for (size_t c = 0; c < classes.size(); ++c) {
    const EquivalenceClass& cls = classes[c];
    const std::vector<int>& pairs = built.class_to_vars[c];
    std::vector<ReservationId> res_of;  // Each pair's reservation.
    for (int k : pairs) {
      const auto& av = built.assignment_vars[static_cast<size_t>(k)];
      res_of.push_back(input.reservations[static_cast<size_t>(av.reservation_index)].id);
    }

    // Positions in cls.servers: each pair's holdings (in-use first, then idle,
    // each in server order), then the servers no pair holds — those bound to
    // a reservation outside the model, and the free ones.
    std::vector<std::vector<size_t>> in_use(pairs.size());
    std::vector<std::vector<size_t>> idle(pairs.size());
    std::vector<size_t> displaced;  // Bound, to be moved unless a quota takes them.
    std::vector<size_t> free;
    for (size_t i = 0; i < cls.servers.size(); ++i) {
      const ServerSolveState& state = input.servers[cls.servers[i]];
      const auto held = std::find(res_of.begin(), res_of.end(), state.current);
      if (held != res_of.end()) {
        (state.in_use ? in_use : idle)[static_cast<size_t>(held - res_of.begin())].push_back(i);
      } else {
        (state.current == kUnassigned ? free : displaced).push_back(i);
      }
    }

    // Keep min(n, X) of each pair's servers, in-use first; the rest are
    // released. Quotas above X are filled below.
    std::vector<ReservationId> target(cls.servers.size(), kUnassigned);
    std::vector<long> want(pairs.size(), 0);
    for (size_t p = 0; p < pairs.size(); ++p) {
      long n = std::max(
          0L, std::lround(solution[built.assignment_vars[static_cast<size_t>(pairs[p])].var]));
      for (const std::vector<size_t>* tier : {&in_use[p], &idle[p]}) {
        for (size_t i : *tier) {
          if (n > 0) {
            target[i] = res_of[p];
            --n;
          } else {
            displaced.push_back(i);
          }
        }
      }
      want[p] = n;
    }

    // Acquisitions draw released and foreign servers first, then free ones;
    // whatever stays undrawn is (or becomes) free.
    displaced.insert(displaced.end(), free.begin(), free.end());
    size_t next = 0;
    for (size_t p = 0; p < pairs.size(); ++p) {
      for (; next < displaced.size() && want[p] > 0; ++next, --want[p]) {
        target[displaced[next]] = res_of[p];
      }
    }

    for (size_t i = 0; i < cls.servers.size(); ++i) {
      const ServerSolveState& state = input.servers[cls.servers[i]];
      out.targets.push_back({cls.servers[i], target[i]});
      if (target[i] != state.current) {
        ++out.moves_total;
        (state.in_use ? out.moves_in_use : out.moves_idle)++;
      }
    }
  }
  return out;
}

}  // namespace ras
