#include "src/core/round_delta.h"

#include <algorithm>
#include <cstddef>

namespace ras {

int DeltaServers(const SolveInput& prev, const SolveInput& next) {
  const size_t common = std::min(prev.servers.size(), next.servers.size());
  int delta = 0;
  for (size_t i = 0; i < common; ++i) {
    if (prev.servers[i] != next.servers[i]) {
      ++delta;
    }
  }
  return delta + static_cast<int>(prev.servers.size() + next.servers.size() - 2 * common);
}

}  // namespace ras
