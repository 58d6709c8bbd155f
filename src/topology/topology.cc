#include "topology/topology.h"

#include "util/ids.h"

namespace venn::topology {

double phase_offset(const TopologySpec& spec, std::size_t r) {
  if (!spec.hier || spec.phase_spread_h == 0.0 || spec.regions == 0) {
    return 0.0;
  }
  return spec.phase_spread_h * kHour * static_cast<double>(r) /
         static_cast<double>(spec.regions);
}

}  // namespace venn::topology
