// Ablation: symmetry exploitation (Section 3.5.2, "Exploit symmetry").
//
// Paper: merging servers whose assignment variables have identical
// coefficients into a single integer variable is what keeps the MIP at
// ~10M variables instead of the raw |servers| x |reservations| product
// (their 200M example). This bench quantifies the same compression on
// synthetic regions: raw x_{s,r} variables vs equivalence-class variables
// at phase-1 (MSB) and phase-2 (rack) granularity. Classes are keyed by
// (location, hardware type); bindings are per-class counts, so they do not
// multiply the classes. Exits non-zero when a reduced count is not below the
// raw count.

#include "bench/sweep_common.h"

using namespace ras;
using namespace ras::bench;

int main() {
  PrintHeader("Ablation: symmetry reduction — raw vs equivalence-class variables",
              "without symmetry the MIP would be orders of magnitude larger (Sec 3.5.2)");

  // Fixed topology shape (8 MSBs, 10 reservations), increasing *density*:
  // symmetry compression scales with servers per (MSB, SKU) cell,
  // which is why it is decisive at production scale (thousands of servers
  // per MSB) and why the raw formulation explodes first.
  std::printf("%-10s %9s | %14s %14s %9s | %14s %9s\n", "srv/rack", "servers",
              "raw x[s][r]", "msb vars", "factor", "rack vars", "factor");
  bool compressed = true;
  for (int depth = 1; depth <= 5; ++depth) {
    FleetOptions fleet_options;
    fleet_options.num_datacenters = 2;
    fleet_options.msbs_per_datacenter = 4;
    fleet_options.racks_per_msb = 8;
    fleet_options.servers_per_rack = 8 * depth * depth;
    fleet_options.seed = 777;
    Fleet fleet = GenerateFleet(fleet_options);
    ResourceBroker broker(&fleet.topology);
    ReservationRegistry registry;
    Rng rng(77);
    for (int i = 0; i < 10; ++i) {
      ReservationSpec spec;
      spec.name = "svc-" + std::to_string(i);
      spec.capacity_rru = rng.Uniform(0.02, 0.06) * static_cast<double>(fleet.num_servers());
      spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
      ReservationId id = *registry.Create(spec);
      // Bind a block of servers: bindings become class counts, not classes.
      for (ServerId s = static_cast<ServerId>(i * fleet.num_servers() / 20);
           s < (i + 1) * fleet.num_servers() / 20; ++s) {
        broker.SetCurrent(s, id);
      }
    }
    SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);

    // Raw formulation: one boolean per (available server, compatible
    // reservation) pair.
    size_t raw = 0;
    for (ServerId id = 0; id < input.servers.size(); ++id) {
      if (!input.servers[id].available) {
        continue;
      }
      HardwareTypeId type = fleet.topology.server(id).type;
      for (const ReservationSpec& spec : input.reservations) {
        raw += spec.ValueOfType(type) > 0 ? 1 : 0;
      }
    }

    auto count_vars = [&input](const std::vector<EquivalenceClass>& classes) {
      size_t vars = 0;
      for (const EquivalenceClass& cls : classes) {
        for (const ReservationSpec& spec : input.reservations) {
          vars += spec.ValueOfType(cls.type) > 0 ? 1 : 0;
        }
      }
      return vars;
    };
    size_t msb_vars = count_vars(BuildEquivalenceClasses(input, Scope::kMsb));
    size_t rack_vars = count_vars(BuildEquivalenceClasses(input, Scope::kRack));

    std::printf("%-10d %9zu | %14zu %14zu %8.1fx | %14zu %8.1fx\n",
                fleet_options.servers_per_rack, input.servers.size(), raw, msb_vars,
                static_cast<double>(raw) / static_cast<double>(std::max<size_t>(1, msb_vars)),
                rack_vars,
                static_cast<double>(raw) / static_cast<double>(std::max<size_t>(1, rack_vars)));
    compressed = compressed && msb_vars < raw && rack_vars < raw;
  }
  std::printf("\nPhase 1 drops rack goals precisely because MSB-level classes compress\n"
              "so much harder than rack-level ones — the paper's two-phase rationale.\n");
  if (!compressed) {
    std::printf("FAIL: a reduced variable count is not below the raw x[s][r] count\n");
    return 1;
  }
  return 0;
}
