// The single sanctioned wall-clock read.
//
// Everything outside this helper is either simulated time (src/util/sim_time)
// or pure computation, and every solver loop stops on a work count, so solver
// *output* never depends on the host clock; MonotonicSeconds() measures
// elapsed time for stats and benchmarks and for the supervisor's deadline,
// which discards late answers. raslint's ras-wall-clock rule enforces this:
// any other `std::chrono::*_clock` / `time()` / `std::random_device` use in
// src/, tools/, or tests/ is a lint error.

#ifndef RAS_SRC_UTIL_MONOTONIC_TIME_H_
#define RAS_SRC_UTIL_MONOTONIC_TIME_H_

namespace ras {
namespace util {

// Seconds on a monotonic clock with an arbitrary epoch. Only differences are
// meaningful.
double MonotonicSeconds();

// Tests only: MonotonicSeconds() runs `scale` times as fast from now on.
void SetClockScaleForTesting(double scale);

}  // namespace util
}  // namespace ras

#endif  // RAS_SRC_UTIL_MONOTONIC_TIME_H_
