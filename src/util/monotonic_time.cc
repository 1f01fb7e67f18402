#include "src/util/monotonic_time.h"

#include <atomic>
#include <chrono>

namespace ras {
namespace util {
namespace {

std::atomic<double> clock_scale{1.0};

}  // namespace

double MonotonicSeconds() {
  // The one wall-clock read in the repository (see header). NOLINT justifies
  // itself: this file is the ras-wall-clock allowlist.
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())  // NOLINT(ras-wall-clock)
             .count() *
         clock_scale.load();
}

void SetClockScaleForTesting(double scale) {
  clock_scale.store(scale);
}

}  // namespace util
}  // namespace ras
