// Sort-based assignment oracle: VennScheduler::assign's decision from a
// full per-group sort, the way the scheduler computed it before it kept
// only each group's two best candidates. Candidates are grouped by job
// group and each group sorted by (sort key, job id); groups are served in
// the IRS plan's order for the device's active-restricted signature, then
// any group the plan lacks in ascending index; within a group the head is
// served unless its tier filter rejects the device, in which case the next
// job takes it. "Venn w/o sched" sorts all candidates FIFO by (arrival,
// job id) as one group. Everything it reads — sort keys, the plan, the
// matchers — is the scheduler's own public state, so the oracle checks the
// selection logic alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "scheduler/venn_sched.h"

namespace venn::oracle {

struct AssignDecision {
  std::optional<std::size_t> pick;
  std::int64_t devices_filtered = 0;  // head-job tier rejections on the way
};

inline AssignDecision venn_assign(const VennScheduler& s,
                                  const DeviceView& dev,
                                  std::span<const PendingJob> candidates) {
  const VennConfig& cfg = s.config();
  const double capacity = dev.spec.capacity();
  AssignDecision out;
  // Serves one sorted group; true when it picked a candidate.
  const auto serve = [&](const std::vector<std::size_t>& idxs) {
    for (std::size_t pos = 0; pos < idxs.size(); ++pos) {
      if (cfg.enable_matching && pos == 0) {
        const JobMatcher* m = s.matcher(candidates[idxs[pos]].job);
        if (m != nullptr && !m->accepts(capacity)) {
          ++out.devices_filtered;
          continue;
        }
      }
      out.pick = idxs[pos];
      return true;
    }
    return false;
  };

  if (!cfg.enable_scheduling) {
    std::vector<std::size_t> all(candidates.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    std::sort(all.begin(), all.end(), [&](std::size_t a, std::size_t b) {
      if (candidates[a].job_arrival != candidates[b].job_arrival) {
        return candidates[a].job_arrival < candidates[b].job_arrival;
      }
      return candidates[a].job < candidates[b].job;
    });
    serve(all);
    return out;
  }

  std::map<std::size_t, std::vector<std::size_t>> by_group;  // ascending
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    by_group[candidates[i].group].push_back(i);
  }
  for (auto& [g, idxs] : by_group) {
    (void)g;
    std::sort(idxs.begin(), idxs.end(), [&](std::size_t a, std::size_t b) {
      const double ka = s.sort_key(candidates[a]);
      const double kb = s.sort_key(candidates[b]);
      if (ka != kb) return ka < kb;
      return candidates[a].job < candidates[b].job;
    });
  }

  // The plan's groups are exactly the groups of the last queue change.
  std::uint64_t active = 0;
  for (const auto& [g, rate] : s.plan().supply_rate) {
    (void)rate;
    active |= 1ULL << g;
  }
  std::vector<std::size_t> order;
  std::vector<std::size_t> scratch;
  for (std::size_t g : s.plan().order_for(dev.signature & active, scratch)) {
    if (by_group.contains(g)) order.push_back(g);
  }
  for (const auto& [g, idxs] : by_group) {
    (void)idxs;
    if (std::find(order.begin(), order.end(), g) == order.end()) {
      order.push_back(g);
    }
  }
  for (std::size_t g : order) {
    if (serve(by_group.at(g))) break;
  }
  return out;
}

}  // namespace venn::oracle
