#include "src/core/admission.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "src/core/buffer_policy.h"
#include "src/core/model_builder.h"

namespace ras {

AdmissionReport CheckGrantable(const ReservationSpec& spec, const RegionTopology& topology,
                               const HardwareCatalog& catalog) {
  AdmissionReport report;

  std::set<MsbId> msbs;
  std::set<HardwareTypeId> types;
  for (const Server& s : topology.servers()) {
    double v = spec.ValueOfType(s.type);
    if (v <= 0.0) {
      continue;
    }
    report.available_rru += v;
    ++report.compatible_servers;
    msbs.insert(s.msb);
    types.insert(s.type);
  }
  report.compatible_msbs = msbs.size();

  char buf[256];
  if (report.compatible_servers == 0) {
    report.message = "no server in the region matches the request's hardware types";
    return report;
  }

  // Embedded buffer requirement: the best achievable worst-MSB share times
  // C_r must also be provisioned (Expression 6). Waterfill gives the floor.
  double min_worst_share = spec.needs_correlated_buffer
                               ? MinPossibleMaxMsbShare(spec, topology)
                               : 0.0;
  report.required_rru = spec.capacity_rru * (1.0 + min_worst_share);

  if (spec.needs_correlated_buffer && msbs.size() < 2) {
    std::snprintf(buf, sizeof(buf),
                  "compatible hardware exists in only %zu MSB(s); a buffered reservation "
                  "cannot survive an MSB loss — broaden the hardware types or drop the "
                  "correlated-failure guarantee",
                  msbs.size());
    report.message = buf;
    return report;
  }
  if (report.available_rru < report.required_rru) {
    std::snprintf(buf, sizeof(buf),
                  "region offers %.1f RRU of compatible hardware (%zu servers, %zu types) "
                  "but the request needs %.1f RRU (%.1f capacity + %.0f%% embedded buffer) — "
                  "reduce the request or accept more hardware types",
                  report.available_rru, report.compatible_servers, types.size(),
                  report.required_rru, spec.capacity_rru, 100.0 * min_worst_share);
    report.message = buf;
    return report;
  }

  // Affinity sanity: the named datacenters must hold enough compatible RRUs.
  for (const auto& [dc, share] : spec.dc_affinity) {
    double dc_rru = 0.0;
    if (dc < topology.num_datacenters()) {
      for (ServerId id : topology.ServersInDatacenter(dc)) {
        dc_rru += spec.ValueOfType(topology.server(id).type);
      }
    }
    const double needed = AffinityBand(spec, share).lo;
    if (dc_rru < needed) {
      std::snprintf(buf, sizeof(buf),
                    "affinity wants %.1f RRU in datacenter %u but only %.1f RRU of "
                    "compatible hardware exists there — relax the affinity share/theta or "
                    "accept more hardware types",
                    needed, dc, dc_rru);
      report.message = buf;
      return report;
    }
  }

  std::snprintf(buf, sizeof(buf),
                "grantable: %.1f RRU needed (incl. %.0f%% embedded buffer), %.1f RRU of "
                "compatible hardware across %zu MSBs",
                report.required_rru, 100.0 * min_worst_share, report.available_rru,
                msbs.size());
  report.message = buf;
  report.grantable = true;
  (void)catalog;
  return report;
}

}  // namespace ras
