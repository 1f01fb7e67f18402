#include "src/core/initial_assignment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "src/core/rru_ledger.h"

namespace ras {

std::vector<double> BuildInitialCounts(const SolveInput& input,
                                       const std::vector<EquivalenceClass>& classes,
                                       const BuiltModel& built) {
  return RepairCounts(input, classes, built, built.initial_counts);
}

std::vector<double> RepairCounts(const SolveInput& input,
                                 const std::vector<EquivalenceClass>& classes,
                                 const BuiltModel& built, std::vector<double> counts) {
  const size_t num_res = input.reservations.size();
  assert(counts.size() == built.assignment_vars.size());

  // Remaining unassigned supply per class.
  std::vector<double> free_in_class(classes.size(), 0.0);
  for (size_t c = 0; c < classes.size(); ++c) {
    free_in_class[c] = static_cast<double>(classes[c].count());
  }
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    free_in_class[static_cast<size_t>(built.assignment_vars[k].class_index)] -= counts[k];
  }

  // Where each reservation's RRU sits under the current counts.
  RruLedger ledger = RruLedger::OfCounts(input, classes, built, counts);

  // Assignment vars per (reservation, MSB) whose class may still have spare
  // supply: candidates the greedy fill can draw from. Sorted by descending
  // RRU value so we prefer the most valuable SKU first (fewer servers
  // consumed). When starting from the current assignment X, only free-pool
  // classes have spare supply; when starting from a rounded LP point, any
  // under-used class does.
  struct Candidate {
    int var_index;
    size_t class_index;
    double value;
  };
  std::vector<std::map<MsbId, std::vector<Candidate>>> free_candidates(num_res);
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    const auto& av = built.assignment_vars[k];
    const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
    if (free_in_class[static_cast<size_t>(av.class_index)] <= 0.0) {
      continue;
    }
    double value = input.reservations[static_cast<size_t>(av.reservation_index)]
                       .ValueOfType(cls.type);
    free_candidates[av.reservation_index][cls.msb].push_back(
        Candidate{static_cast<int>(k), static_cast<size_t>(av.class_index), value});
  }
  for (auto& per_res : free_candidates) {
    for (auto& [msb, cands] : per_res) {
      std::sort(cands.begin(), cands.end(),
                [](const Candidate& a, const Candidate& b) { return a.value > b.value; });
    }
  }

  // Greedy fill, reservation by reservation in id order.
  for (size_t r = 0; r < num_res; ++r) {
    if (built.shortfall_vars[r] == kNoVar) {
      continue;  // Not part of this build (phase-2 subset).
    }
    const ReservationSpec& spec = input.reservations[r];

    // Add one server at a time to the compatible MSB with the least RRU for
    // this reservation; this simultaneously fills capacity and minimizes the
    // embedded buffer (adding below the max never raises it).
    int guard = 0;
    const int max_iterations = static_cast<int>(input.servers.size()) + 1024;
    while (ledger.Effective(r) + 1e-9 < spec.capacity_rru && guard++ < max_iterations) {
      MsbId best_msb = 0;
      double best_rru = kInf;
      bool found = false;
      for (auto& [msb, cands] : free_candidates[r]) {
        bool has_supply = false;
        for (const Candidate& cand : cands) {
          if (free_in_class[cand.class_index] > 0.0) {
            has_supply = true;
            break;
          }
        }
        if (!has_supply) {
          continue;
        }
        double rru = ledger.AtMsb(r, msb);
        if (rru < best_rru) {
          best_rru = rru;
          best_msb = msb;
          found = true;
        }
      }
      if (!found) {
        break;  // Region exhausted; the shortfall slack absorbs the rest.
      }
      for (const Candidate& cand : free_candidates[r][best_msb]) {
        if (free_in_class[cand.class_index] <= 0.0) {
          continue;
        }
        counts[static_cast<size_t>(cand.var_index)] += 1.0;
        free_in_class[cand.class_index] -= 1.0;
        ledger.Add(r, classes[cand.class_index], cand.value);
        break;
      }
    }

    // Affinity repair: if a datacenter's share is below its (A - theta)
    // floor, pull additional free supply from that datacenter's MSBs. The
    // anti-hoarding term may charge for the extra capacity, but the affinity
    // slack it avoids costs two orders of magnitude more.
    for (const auto& [dc, share] : spec.dc_affinity) {
      const double floor_rru = AffinityBand(spec, share).lo;
      // Summed over the datacenter's MSBs, in MSB order.
      auto dc_rru = [&]() {
        double sum = 0.0;
        for (const auto& [msb, rru] : ledger.ByMsb(r)) {
          if (input.topology->msb_datacenter(msb) == dc) {
            sum += rru;
          }
        }
        return sum;
      };
      int affinity_guard = 0;
      while (dc_rru() + 1e-9 < floor_rru && affinity_guard++ < max_iterations) {
        bool added = false;
        for (auto& [msb, cands] : free_candidates[r]) {
          if (input.topology->msb_datacenter(msb) != dc) {
            continue;
          }
          for (const Candidate& cand : cands) {
            if (free_in_class[cand.class_index] <= 0.0) {
              continue;
            }
            counts[static_cast<size_t>(cand.var_index)] += 1.0;
            free_in_class[cand.class_index] -= 1.0;
            ledger.Add(r, classes[cand.class_index], cand.value);
            added = true;
            break;
          }
          if (added) {
            break;
          }
        }
        if (!added) {
          break;  // No compatible free supply left in this datacenter.
        }
      }
    }
  }

  return counts;
}

}  // namespace ras
