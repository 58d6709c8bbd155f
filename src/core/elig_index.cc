#include "core/elig_index.h"

namespace venn {

EligibilityIndex::EligibilityIndex(std::span<const Device> devices,
                                   const SessionColumn& sessions)
    : owned_(std::make_unique<FleetHotState>()),
      owned_space_(std::make_unique<SignatureSpace>()),
      hot_(owned_.get()),
      space_(owned_space_.get()) {
  owned_->init(devices, sessions);
  seed_zero_bucket();
}

EligibilityIndex::EligibilityIndex(FleetHotState& hot, SignatureSpace& space)
    : hot_(&hot), space_(&space) {
  seed_zero_bucket();
}

void EligibilityIndex::seed_zero_bucket() {
  // Everything starts in the signature-0 bucket; requirement registrations
  // move devices to their atoms incrementally.
  Atom& zero = atoms_[0];
  zero.device_count = hot_->size();
  for (double c : hot_->session_checkins) zero.session_checkins += c;
}

std::size_t EligibilityIndex::register_requirement(const Requirement& req) {
  const std::size_t bit = space_->register_requirement(req);
  sync();
  return bit;
}

void EligibilityIndex::sync() {
  // The one full pass this structure ever pays per distinct requirement:
  // flip the new bit on eligible devices and move them between buckets.
  // Dense column scans (spec + signature side by side in the hot store)
  // instead of chasing per-device pointers.
  for (; bucketed_ < space_->size(); ++bucketed_) {
    const Requirement& req = space_->requirement(bucketed_);
    const std::uint64_t mask = 1ULL << bucketed_;
    ++mstats_.requirement_registrations;
    const DeviceSpec* specs = hot_->spec.data();
    std::uint64_t* sigs = hot_->signature.data();
    const double* checkins = hot_->session_checkins.data();
    const std::size_t n = hot_->size();
    for (std::size_t d = 0; d < n; ++d) {
      ++mstats_.device_rescans;
      if (!req.eligible(specs[d])) continue;
      const std::uint64_t old_sig = sigs[d];
      const std::uint64_t new_sig = old_sig | mask;
      sigs[d] = new_sig;

      Atom& from = atoms_.at(old_sig);
      --from.device_count;
      from.session_checkins -= checkins[d];
      Atom& to = atoms_[new_sig];
      ++to.device_count;
      to.session_checkins += checkins[d];
      if (from.device_count == 0) atoms_.erase(old_sig);
    }
  }
}

std::size_t EligibilityIndex::eligible_count(std::size_t group) const {
  std::size_t n = 0;
  for (const auto& [sig, atom] : atoms_) {
    if ((sig >> group) & 1ULL) n += atom.device_count;
  }
  return n;
}

double EligibilityIndex::eligible_session_checkins(std::size_t group) const {
  // Each bucket total is an exact integer (sums of session counts), so the
  // cross-bucket sum equals a per-device accumulation regardless of
  // order.
  double n = 0.0;
  for (const auto& [sig, atom] : atoms_) {
    if ((sig >> group) & 1ULL) n += atom.session_checkins;
  }
  return n;
}

}  // namespace venn
