// Figure 11: solver memory vs the number of assignment variables.
//
// Paper: memory grows linearly with assignment variables for both phases
// (up to ~24GB at 6M vars); extrapolating to an unphased full problem gives
// ~75GB, another motivation for two-phase solving.
//
// Here: the same region sweep as Figure 10. "model bytes" (the MIP instance:
// variables, rows, nonzeros, decode maps) is the quantity comparable to the
// paper and is linear in assignment variables. The LP engine's basis is a
// sparse LU plus an eta file, so its footprint is its nonzero count: the
// bench solves each phase's root LP and prints the factor's nonzeros and
// bytes, which grow with the basis fill rather than with rows squared.

#include "bench/sweep_common.h"

using namespace ras;
using namespace ras::bench;

namespace {

// Bytes one factor nonzero occupies: its value plus its index.
constexpr size_t kBasisBytesPerNonzero = sizeof(double) + sizeof(int32_t);

}  // namespace

int main() {
  PrintHeader("Figure 11: solver memory vs assignment variables",
              "memory linear in assignment variables for both phases");

  std::printf("%-6s %9s | %10s %12s %10s | %8s %11s %10s | %10s %12s %11s\n", "scale",
              "servers", "p1 vars", "p1 model MB", "bytes/var", "p1 rows", "p1 basis nz",
              "nz/row", "p2 vars", "p2 model MB", "p2 basis nz");
  double first_ratio = 0.0;
  double last_ratio = 0.0;
  size_t peak_basis_bytes = 0;
  for (int scale = 0; scale <= 5; ++scale) {
    SweepRegion region(scale);
    SetupMeasurement m = MeasureSetup(region, /*solve_root_lp=*/true);
    double ratio =
        static_cast<double>(m.phase1_model_bytes) / std::max<size_t>(1, m.phase1_vars);
    if (scale == 0) {
      first_ratio = ratio;
    }
    last_ratio = ratio;
    peak_basis_bytes = std::max<size_t>(
        peak_basis_bytes,
        static_cast<size_t>(std::max(m.phase1_basis_nonzeros, m.phase2_basis_nonzeros)) *
            kBasisBytesPerNonzero);
    std::printf("%-6d %9zu | %10zu %12.2f %10.0f | %8zu %11lld %10.2f | %10zu %12.2f %11lld\n",
                scale, m.servers, m.phase1_vars, m.phase1_model_bytes / 1048576.0, ratio,
                m.phase1_rows, static_cast<long long>(m.phase1_basis_nonzeros),
                static_cast<double>(m.phase1_basis_nonzeros) /
                    static_cast<double>(std::max<size_t>(1, m.phase1_rows)),
                m.phase2_vars, m.phase2_model_bytes / 1048576.0,
                static_cast<long long>(m.phase2_basis_nonzeros));
  }
  std::printf("\nlinearity: phase-1 bytes/var at the smallest vs largest scale: %.0f vs %.0f\n",
              first_ratio, last_ratio);
  std::printf("(flat bytes/var == linear growth, the paper's Figure 11 shape)\n");
  std::printf("\nbasis footprint (sparse LU + eta file, %zu bytes per nonzero): at most %.2f MB\n"
              "  across the sweep; flat nonzeros/row == linear in rows.\n",
              kBasisBytesPerNonzero, peak_basis_bytes / 1048576.0);
  return 0;
}
