#include "src/shard/stitch_repair.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <unordered_map>

namespace ras {
namespace {

constexpr double kEps = 1e-9;

struct Book {
  const SolveInput* input = nullptr;
  std::vector<double> total;                   // Per reservation index.
  std::vector<std::map<MsbId, double>> per_msb;  // Per reservation index.

  double WorstMsb(size_t r) const {
    double worst = 0.0;
    if (input->reservations[r].needs_correlated_buffer) {
      for (const auto& [msb, rru] : per_msb[r]) {
        worst = std::max(worst, rru);
      }
    }
    return worst;
  }

  // Capacity shortfall net of the correlated-failure buffer — the same
  // accounting as the solver's ComputeShortfall.
  double Shortfall(size_t r) const {
    return std::max(0.0, input->reservations[r].capacity_rru - (total[r] - WorstMsb(r)));
  }

  void Add(size_t r, MsbId msb, double value) {
    total[r] += value;
    per_msb[r][msb] += value;
  }

  void Remove(size_t r, MsbId msb, double value) {
    total[r] -= value;
    auto it = per_msb[r].find(msb);
    if (it != per_msb[r].end()) {
      it->second -= value;
      if (it->second <= kEps) {
        per_msb[r].erase(it);
      }
    }
  }
};

}  // namespace

StitchRepairStats RepairShortfalls(const SolveInput& input,
                                   std::vector<std::pair<ServerId, ReservationId>>& targets,
                                   const StitchRepairOptions& options) {
  StitchRepairStats stats;
  const RegionTopology& topo = *input.topology;

  // Lookup-only (never iterated): hash order cannot leak into the repair.
  std::unordered_map<ReservationId, size_t> res_index;
  res_index.reserve(input.reservations.size());
  for (size_t r = 0; r < input.reservations.size(); ++r) {
    res_index[input.reservations[r].id] = r;
  }

  Book book;
  book.input = &input;
  book.total.assign(input.reservations.size(), 0.0);
  book.per_msb.resize(input.reservations.size());
  for (const auto& [server, res] : targets) {
    if (res == kUnassigned) {
      continue;
    }
    auto it = res_index.find(res);
    if (it == res_index.end()) {
      continue;
    }
    const Server& s = topo.server(server);
    book.Add(it->second, s.msb, input.reservations[it->second].ValueOfType(s.type));
  }

  for (size_t r = 0; r < input.reservations.size(); ++r) {
    double short_r = book.Shortfall(r);
    if (short_r > kEps) {
      ++stats.reservations_short;
      stats.shortfall_before_rru += short_r;
    }
  }

  size_t budget = options.max_moves;
  for (size_t r = 0; stats.reservations_short > 0 && r < input.reservations.size() && budget > 0;
       ++r) {
    const ReservationSpec& spec = input.reservations[r];

    // Pass 1: free servers. Prefer the MSB where the reservation holds the
    // least RRU — filling the valley never raises the worst-MSB buffer term.
    while (budget > 0 && book.Shortfall(r) > kEps) {
      size_t best = targets.size();
      double best_msb_rru = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < targets.size(); ++i) {
        const auto& [server, res] = targets[i];
        if (res != kUnassigned || !input.servers[server].available) {
          continue;
        }
        const Server& s = topo.server(server);
        if (spec.ValueOfType(s.type) <= 0.0) {
          continue;
        }
        auto it = book.per_msb[r].find(s.msb);
        double msb_rru = it == book.per_msb[r].end() ? 0.0 : it->second;
        if (msb_rru < best_msb_rru - kEps) {
          best = i;
          best_msb_rru = msb_rru;
        }
      }
      if (best == targets.size()) {
        break;  // No usable free server anywhere.
      }
      const Server& s = topo.server(targets[best].first);
      targets[best].second = spec.id;
      book.Add(r, s.msb, spec.ValueOfType(s.type));
      ++stats.moves_from_free;
      --budget;
    }

    // Pass 2: idle donors with surplus. Never touches in-use servers and
    // never leaves the donor short itself.
    while (options.allow_idle_donors && budget > 0 && book.Shortfall(r) > kEps) {
      size_t best = targets.size();
      double best_msb_rru = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < targets.size(); ++i) {
        const auto& [server, res] = targets[i];
        if (res == kUnassigned || res == spec.id || !input.servers[server].available ||
            input.servers[server].in_use) {
          continue;
        }
        auto donor_it = res_index.find(res);
        if (donor_it == res_index.end()) {
          continue;
        }
        const Server& s = topo.server(server);
        if (spec.ValueOfType(s.type) <= 0.0) {
          continue;
        }
        // Donation must keep the donor whole: simulate the removal.
        size_t d = donor_it->second;
        double value_for_donor = input.reservations[d].ValueOfType(s.type);
        book.Remove(d, s.msb, value_for_donor);
        bool donor_ok = book.Shortfall(d) <= kEps;
        book.Add(d, s.msb, value_for_donor);
        if (!donor_ok) {
          continue;
        }
        auto it = book.per_msb[r].find(s.msb);
        double msb_rru = it == book.per_msb[r].end() ? 0.0 : it->second;
        if (msb_rru < best_msb_rru - kEps) {
          best = i;
          best_msb_rru = msb_rru;
        }
      }
      if (best == targets.size()) {
        break;
      }
      const ServerId server = targets[best].first;
      const Server& s = topo.server(server);
      size_t d = res_index[targets[best].second];
      book.Remove(d, s.msb, input.reservations[d].ValueOfType(s.type));
      targets[best].second = spec.id;
      book.Add(r, s.msb, spec.ValueOfType(s.type));
      ++stats.moves_from_donors;
      --budget;
    }
  }

  // Pass 3: spread rebalance. Per-reservation MSB overage above the model's
  // Ψ_F threshold is shed by swapping freshly-acquired servers (snapshot
  // current != r, so relocating them costs no stability) in the hot MSB
  // against free servers of at-least-equal RRU value in the coolest MSBs —
  // capacity never decreases, and valley-filling never raises the buffer.
  const std::vector<double>& thresholds = options.msb_spread_thresholds;
  if (!thresholds.empty()) {
    assert(thresholds.size() == input.reservations.size());
    for (size_t r = 0; r < input.reservations.size(); ++r) {
      for (const auto& [msb, rru] : book.per_msb[r]) {
        stats.spread_over_before_rru += std::max(0.0, rru - thresholds[r]);
      }
    }
    for (size_t r = 0; r < input.reservations.size() && budget > 0; ++r) {
      const ReservationSpec& spec = input.reservations[r];
      const double threshold = thresholds[r];
      while (budget > 0) {
        // Hottest over-threshold MSB for r (ties -> lowest MSB id).
        MsbId hot = 0;
        double worst_over = kEps;
        for (const auto& [msb, rru] : book.per_msb[r]) {
          if (rru - threshold > worst_over) {
            hot = msb;
            worst_over = rru - threshold;
          }
        }
        if (worst_over <= kEps) {
          break;
        }
        // Donors: servers of r in the hot MSB this round acquired fresh —
        // relocating one changes which server is acquired, not stability.
        // Largest value first (sheds the overage fastest), falling through to
        // smaller donors when no receiver fits the bigger ones.
        std::vector<size_t> donors;
        for (size_t i = 0; i < targets.size(); ++i) {
          const auto& [server, res] = targets[i];
          if (res == spec.id && topo.server(server).msb == hot &&
              input.servers[server].current != spec.id &&
              spec.ValueOfType(topo.server(server).type) > kEps) {
            donors.push_back(i);
          }
        }
        std::stable_sort(donors.begin(), donors.end(), [&](size_t a, size_t b) {
          return spec.ValueOfType(topo.server(targets[a].first).type) >
                 spec.ValueOfType(topo.server(targets[b].first).type);
        });
        bool swapped = false;
        for (size_t donor : donors) {
          const double donor_value = spec.ValueOfType(topo.server(targets[donor].first).type);
          // Receiver: a free server in the MSB where r holds the least RRU.
          // The destination must stay within threshold (each swap strictly
          // shrinks the total overage, so the pass terminates), and the
          // value swing must keep r's capacity whole — a smaller receiver is
          // fine when r carries surplus.
          size_t receiver = targets.size();
          double receiver_msb_rru = std::numeric_limits<double>::infinity();
          double receiver_value = std::numeric_limits<double>::infinity();
          for (size_t i = 0; i < targets.size(); ++i) {
            const auto& [server, res] = targets[i];
            if (res != kUnassigned || !input.servers[server].available) {
              continue;
            }
            const Server& s = topo.server(server);
            double value = spec.ValueOfType(s.type);
            if (s.msb == hot || value <= kEps) {
              continue;
            }
            auto it = book.per_msb[r].find(s.msb);
            double msb_rru = it == book.per_msb[r].end() ? 0.0 : it->second;
            if (msb_rru + value > threshold + kEps) {
              continue;
            }
            if (value + kEps < donor_value) {
              // Simulate the swap; only capacity-whole trades qualify.
              book.Remove(r, hot, donor_value);
              book.Add(r, s.msb, value);
              bool whole = book.Shortfall(r) <= kEps;
              book.Remove(r, s.msb, value);
              book.Add(r, hot, donor_value);
              if (!whole) {
                continue;
              }
            }
            // Coolest MSB first; within it the tightest-fitting value.
            if (msb_rru < receiver_msb_rru - kEps ||
                (msb_rru < receiver_msb_rru + kEps && value < receiver_value - kEps)) {
              receiver = i;
              receiver_msb_rru = msb_rru;
              receiver_value = value;
            }
          }
          if (receiver == targets.size()) {
            continue;
          }
          const Server& to = topo.server(targets[receiver].first);
          targets[donor].second = kUnassigned;
          targets[receiver].second = spec.id;
          book.Remove(r, hot, donor_value);
          book.Add(r, to.msb, spec.ValueOfType(to.type));
          ++stats.moves_spread;
          --budget;
          swapped = true;
          break;
        }
        if (!swapped) {
          break;
        }
      }
    }
    for (size_t r = 0; r < input.reservations.size(); ++r) {
      for (const auto& [msb, rru] : book.per_msb[r]) {
        stats.spread_over_after_rru += std::max(0.0, rru - thresholds[r]);
      }
    }
  }

  for (size_t r = 0; r < input.reservations.size(); ++r) {
    stats.shortfall_after_rru += book.Shortfall(r);
  }
  return stats;
}

}  // namespace ras
