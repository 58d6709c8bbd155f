#include "core/elig_index.h"

namespace venn {

EligibilityIndex::EligibilityIndex(FleetHotState& hot, SignatureSpace& space,
                                   const topology::RegionMap& regions)
    : hot_(&hot), space_(&space), regions_(regions) {}

std::size_t EligibilityIndex::register_requirement(const Requirement& req) {
  const std::size_t bit = space_->register_requirement(req);
  sync();
  return bit;
}

void EligibilityIndex::sync() {
  // The one full pass this structure ever pays per distinct requirement:
  // flip the new bit on eligible devices and add them to their region's
  // partial. Dense column scans (spec + signature side by side in the hot
  // store), region by region over contiguous ranges, so each partial is a
  // device-order accumulation.
  const std::size_t nregions = regions_.regions();
  for (; bucketed_ < space_->size(); ++bucketed_) {
    const Requirement& req = space_->requirement(bucketed_);
    const std::uint64_t mask = 1ULL << bucketed_;
    ++mstats_.requirement_registrations;
    mstats_.device_rescans += hot_->size();
    const DeviceSpec* specs = hot_->spec.data();
    std::uint64_t* sigs = hot_->signature.data();
    const double* checkins = hot_->session_checkins.data();
    partials_.resize((bucketed_ + 1) * nregions);
    for (std::size_t r = 0; r < nregions; ++r) {
      topology::RegionSupply& p = partials_[bucketed_ * nregions + r];
      const std::size_t end = regions_.end(r);
      for (std::size_t d = regions_.begin(r); d < end; ++d) {
        if (!req.eligible(specs[d])) continue;
        sigs[d] |= mask;
        ++p.eligible;
        p.checkins += checkins[d];
      }
    }
  }
}

std::size_t EligibilityIndex::eligible_count(std::size_t group) const {
  std::size_t n = 0;
  for (const topology::RegionSupply& p : partials(group)) n += p.eligible;
  return n;
}

}  // namespace venn
