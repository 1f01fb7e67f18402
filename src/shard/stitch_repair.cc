#include "src/shard/stitch_repair.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "src/core/rru_ledger.h"

namespace ras {
namespace {

constexpr double kEps = 1e-9;

// What pass 3 looks up in the targets, gathered in one pass over them.
// Only a swap changes the targets, so it is rebuilt only after one.
struct SpreadIndex {
  // Per reservation row: the targets that bind a server to it fresh this
  // round (snapshot current differs), in server order.
  std::vector<std::vector<size_t>> fresh;
  // The first free server of each (MSB, type), in server order.
  std::vector<size_t> first_free;
};

void IndexTargets(const SolveInput& input, const RruLedger& book,
                  const std::vector<std::pair<ServerId, ReservationId>>& targets,
                  SpreadIndex& index) {
  index.fresh.resize(input.reservations.size());
  for (std::vector<size_t>& list : index.fresh) {
    list.clear();
  }
  index.first_free.clear();
  const size_t num_types = input.catalog->size();
  std::vector<char> seen(input.topology->num_msbs() * num_types, 0);
  for (size_t i = 0; i < targets.size(); ++i) {
    const auto& [server, res] = targets[i];
    if (res == kUnassigned) {
      const Server& s = input.topology->server(server);
      char& cell = seen[s.msb * num_types + s.type];
      if (input.servers[server].available && cell == 0) {
        cell = 1;
        index.first_free.push_back(i);
      }
    } else if (input.servers[server].current != res) {
      const int row = book.RowOf(res);
      if (row >= 0) {
        index.fresh[static_cast<size_t>(row)].push_back(i);
      }
    }
  }
}

}  // namespace

StitchRepairStats RepairShortfalls(const SolveInput& input,
                                   std::vector<std::pair<ServerId, ReservationId>>& targets,
                                   const StitchRepairOptions& options) {
  StitchRepairStats stats;
  const RegionTopology& topo = *input.topology;

  // Shortfalls net of the correlated-failure buffer, on the RRU ledger the
  // solver scores its own targets with.
  RruLedger book = RruLedger::OfTargets(input, targets);

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
        double msb_rru = book.AtMsb(r, s.msb);
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
      book.Add(r, s, spec.ValueOfType(s.type));
      ++stats.moves_from_free;
      --budget;
    }

    // Pass 2: idle donors with surplus. Never touches in-use servers and
    // never leaves the donor short itself.
    while (budget > 0 && book.Shortfall(r) > kEps) {
      size_t best = targets.size();
      double best_msb_rru = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < targets.size(); ++i) {
        const auto& [server, res] = targets[i];
        if (res == kUnassigned || res == spec.id || !input.servers[server].available ||
            input.servers[server].in_use) {
          continue;
        }
        const int d = book.RowOf(res);
        if (d < 0) {
          continue;
        }
        const Server& s = topo.server(server);
        if (spec.ValueOfType(s.type) <= 0.0) {
          continue;
        }
        // Donation must keep the donor whole: simulate the removal.
        double value_for_donor = input.reservations[d].ValueOfType(s.type);
        book.Remove(d, s, value_for_donor);
        bool donor_ok = book.Shortfall(d) <= kEps;
        book.Add(d, s, value_for_donor);
        if (!donor_ok) {
          continue;
        }
        double msb_rru = book.AtMsb(r, s.msb);
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
      size_t d = static_cast<size_t>(book.RowOf(targets[best].second));
      book.Remove(d, s, input.reservations[d].ValueOfType(s.type));
      targets[best].second = spec.id;
      book.Add(r, s, spec.ValueOfType(s.type));
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
    SpreadIndex index;
    bool index_stale = true;
    for (size_t r = 0; r < input.reservations.size() && budget > 0; ++r) {
      const ReservationSpec& spec = input.reservations[r];
      const double threshold = thresholds[r];
      while (budget > 0) {
        // Hottest over-threshold MSB for r (ties -> lowest MSB id).
        MsbId hot = 0;
        double worst_over = kEps;
        for (const auto& [msb, rru] : book.ByMsb(r)) {
          if (rru - threshold > worst_over) {
            hot = msb;
            worst_over = rru - threshold;
          }
        }
        if (worst_over <= kEps) {
          break;
        }
        if (index_stale) {
          IndexTargets(input, book, targets, index);
          index_stale = false;
        }
        // Donors: servers of r in the hot MSB this round acquired fresh —
        // relocating one changes which server is acquired, not stability.
        // Largest value first (sheds the overage fastest), falling through to
        // smaller donors when no receiver fits the bigger ones.
        std::vector<size_t> donors;
        for (size_t i : index.fresh[r]) {
          const Server& s = topo.server(targets[i].first);
          if (s.msb == hot && spec.ValueOfType(s.type) > kEps) {
            donors.push_back(i);
          }
        }
        std::stable_sort(donors.begin(), donors.end(), [&](size_t a, size_t b) {
          return spec.ValueOfType(topo.server(targets[a].first).type) >
                 spec.ValueOfType(topo.server(targets[b].first).type);
        });
        // Receiver candidates: free servers outside the hot MSB that r
        // values, the first of each (MSB, type) in server order. Servers of
        // one (MSB, type) score alike, and a later one must beat the
        // incumbent by more than kEps, so only the first can ever be picked.
        // Nothing below changes the ledger until a swap ends this MSB's
        // pass, so the list serves every donor.
        std::vector<size_t> receivers;
        for (size_t i : index.first_free) {
          const Server& s = topo.server(targets[i].first);
          if (s.msb != hot && spec.ValueOfType(s.type) > kEps) {
            receivers.push_back(i);
          }
        }
        bool swapped = false;
        for (size_t donor : donors) {
          const Server& from = topo.server(targets[donor].first);
          const double donor_value = spec.ValueOfType(from.type);
          // Receiver: a free server in the MSB where r holds the least RRU.
          // The destination must stay within threshold (each swap strictly
          // shrinks the total overage, so the pass terminates), and the
          // value swing must keep r's capacity whole — a smaller receiver is
          // fine when r carries surplus.
          size_t receiver = targets.size();
          double receiver_msb_rru = std::numeric_limits<double>::infinity();
          double receiver_value = std::numeric_limits<double>::infinity();
          for (size_t i : receivers) {
            const Server& s = topo.server(targets[i].first);
            double value = spec.ValueOfType(s.type);
            double msb_rru = book.AtMsb(r, s.msb);
            if (msb_rru + value > threshold + kEps) {
              continue;
            }
            if (value + kEps < donor_value) {
              // Simulate the swap; only capacity-whole trades qualify.
              book.Remove(r, from, donor_value);
              book.Add(r, s, value);
              bool whole = book.Shortfall(r) <= kEps;
              book.Remove(r, s, value);
              book.Add(r, from, donor_value);
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
          book.Remove(r, from, donor_value);
          book.Add(r, to, spec.ValueOfType(to.type));
          ++stats.moves_spread;
          --budget;
          swapped = true;
          index_stale = true;
          break;
        }
        if (!swapped) {
          break;
        }
      }
    }
    for (size_t r = 0; r < input.reservations.size(); ++r) {
      stats.spread_over_after_rru += book.MsbOverflow(r, thresholds[r]);
    }
  }

  stats.shortfall_after_rru = book.TotalShortfall();
  return stats;
}

}  // namespace ras
