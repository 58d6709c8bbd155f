#include "scheduler/irs.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <stdexcept>

namespace venn {

namespace {

constexpr double kEpsRate = 1e-12;

struct GroupWork {
  std::size_t index = 0;
  double queue_len = 0.0;
  double supply = 0.0;     // |S_j|
  double allocated = 0.0;  // |S'_j|
  double affected_queue = 0.0;  // m'_j (accumulates absorbed queues)
};

}  // namespace

PlanArena::~PlanArena() { release(); }

void* PlanArena::do_allocate(std::size_t bytes, std::size_t align) {
  demand_ = (demand_ + align - 1) / align * align + bytes;
  void* p = buf_.get() + used_;
  std::size_t space = cap_ - used_;
  if (buf_ != nullptr && std::align(align, bytes, p, space) != nullptr) {
    used_ = cap_ - space + bytes;
    return p;
  }
  p = std::pmr::new_delete_resource()->allocate(bytes, align);
  overflow_.push_back({p, bytes, align});
  return p;
}

void PlanArena::release() {
  for (const Overflow& o : overflow_) {
    std::pmr::new_delete_resource()->deallocate(o.p, o.bytes, o.align);
  }
  overflow_.clear();
  if (demand_ > cap_) {
    // Room for the largest build so far and for the alignment of the
    // buffer's own start.
    cap_ = std::bit_ceil(demand_ + alignof(std::max_align_t));
    buf_ = std::make_unique<std::byte[]>(cap_);
  }
  used_ = 0;
  demand_ = 0;
}

std::span<const std::size_t> IrsPlan::order_for(
    std::uint64_t signature, std::vector<std::size_t>& scratch) const {
  scratch.clear();
  if (signature == 0) return scratch;
  auto it = atom_order.find(signature);
  if (it != atom_order.end()) return it->second;

  // Unseen atom: serve the scarcest eligible group first. Only the
  // signature's set bits are visited (not all 64), and bits referencing
  // groups absent from the plan — inactive groups, which have no supply
  // entry — are excluded deliberately: a device can only be ordered across
  // groups the plan knows about. tests/irs_test.cc pins this down for an
  // unseen atom whose signature carries an inactive-group bit.
  for (std::uint64_t bits = signature; bits != 0; bits &= bits - 1) {
    const auto g = static_cast<std::size_t>(std::countr_zero(bits));
    if (supply_rate.contains(g)) scratch.push_back(g);
  }
  std::sort(scratch.begin(), scratch.end(), [&](std::size_t a, std::size_t b) {
    const double sa = supply_rate.at(a);
    const double sb = supply_rate.at(b);
    if (sa != sb) return sa < sb;
    return a < b;
  });
  return scratch;
}

IrsPlan compute_irs_plan(std::span<const GroupInput> groups,
                         std::span<const AtomSupply> atoms,
                         std::pmr::memory_resource* mr) {
  IrsPlan plan(mr);
  if (groups.empty()) return plan;

  // Active group mask; validate indices.
  std::uint64_t active_mask = 0;
  for (const auto& g : groups) {
    if (g.index >= 64) throw std::invalid_argument("group index >= 64");
    if ((active_mask >> g.index) & 1ULL) {
      throw std::invalid_argument("duplicate group index");
    }
    active_mask |= (1ULL << g.index);
  }

  // Merge atoms after masking to active groups.
  // Fresh maps, never cleared ones: a cleared map keeps its bucket count,
  // and its iteration order, which orders the floating-point sums below,
  // could then differ from a fresh map's.
  std::pmr::unordered_map<std::uint64_t, double> atom_rate(mr);
  for (const auto& a : atoms) {
    const std::uint64_t sig = a.signature & active_mask;
    if (sig == 0 || a.rate <= 0.0) continue;
    atom_rate[sig] += a.rate;
  }

  // Group working state with eligible supply |S_j|.
  std::pmr::vector<GroupWork> work(mr);
  work.reserve(groups.size());
  for (const auto& g : groups) {
    GroupWork w;
    w.index = g.index;
    w.queue_len = g.queue_len;
    w.affected_queue = g.queue_len;
    for (const auto& [sig, rate] : atom_rate) {
      if ((sig >> g.index) & 1ULL) w.supply += rate;
    }
    work.push_back(w);
  }

  // ---- Phase 1: initial allocation, scarcest group first (lines 5-9) ----
  std::pmr::vector<std::size_t> by_supply_asc(work.size(), mr);
  for (std::size_t i = 0; i < work.size(); ++i) by_supply_asc[i] = i;
  std::stable_sort(by_supply_asc.begin(), by_supply_asc.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (work[a].supply != work[b].supply) {
                       return work[a].supply < work[b].supply;
                     }
                     return work[a].index < work[b].index;
                   });

  // owner[sig] = position in `work` of the group owning the atom.
  std::pmr::unordered_map<std::uint64_t, std::size_t> owner(mr);
  for (std::size_t rank : by_supply_asc) {
    GroupWork& w = work[rank];
    for (const auto& [sig, rate] : atom_rate) {
      if (((sig >> w.index) & 1ULL) && !owner.contains(sig)) {
        owner[sig] = rank;
        w.allocated += rate;
      }
    }
  }

  // ---- Phase 2: reallocation, most abundant group first (lines 10-23) ----
  std::pmr::vector<std::size_t> by_supply_desc(by_supply_asc.rbegin(),
                                               by_supply_asc.rend(), mr);
  std::pmr::vector<std::uint64_t> movable_sigs(mr);
  for (std::size_t pos = 0; pos < by_supply_desc.size(); ++pos) {
    GroupWork& gj = work[by_supply_desc[pos]];
    if (gj.allocated <= kEpsRate) continue;  // line 12: |S'_j| > 0

    // Scan scarcer overlapping groups, most abundant first.
    for (std::size_t pos2 = pos + 1; pos2 < by_supply_desc.size(); ++pos2) {
      GroupWork& gk = work[by_supply_desc[pos2]];
      if (gk.supply >= gj.supply) continue;  // require |S_k| < |S_j|

      // Intersection S_j ∩ S_k currently owned by k.
      double movable = 0.0;
      movable_sigs.clear();
      bool intersects = false;
      for (const auto& [sig, rate] : atom_rate) {
        const bool in_both =
            ((sig >> gj.index) & 1ULL) && ((sig >> gk.index) & 1ULL);
        if (!in_both) continue;
        intersects = true;
        auto it = owner.find(sig);
        if (it != owner.end() && &work[it->second] == &gk) {
          movable += rate;
          movable_sigs.push_back(sig);
        }
      }
      if (!intersects) continue;  // S_k ∩ S_j = ∅: skip, do not break

      // Delay-ratio test (line 15): m'_j / |S'_j| > m'_k / |S_k|.
      const double lhs = gj.affected_queue / std::max(gj.allocated, kEpsRate);
      const double rhs = gk.affected_queue / std::max(gk.supply, kEpsRate);
      if (lhs > rhs) {
        // Lines 16-17 update S'_j, S'_k and m'_j only when intersected
        // resources actually change hands; a vacuous pass (k owns nothing in
        // the intersection) must not inflate j's affected queue, or later
        // ratio tests against scarcer groups are biased toward stealing.
        if (movable > 0.0) {
          for (std::uint64_t sig : movable_sigs) {
            owner[sig] = by_supply_desc[pos];
          }
          gj.allocated += movable;
          gk.allocated -= movable;
          gj.affected_queue += gk.affected_queue;  // k's jobs wait behind j
        }
      } else {
        break;  // line 19: take from more abundant groups first
      }
    }
  }

  // ---- Emit plan ----
  for (const auto& w : work) {
    plan.supply_rate[w.index] = w.supply;
    plan.allocated_rate[w.index] = std::max(0.0, w.allocated);
  }
  std::pmr::vector<std::size_t> rest(mr);
  for (const auto& [sig, rate] : atom_rate) {
    (void)rate;
    IrsPlan::Order order(mr);
    auto it = owner.find(sig);
    if (it != owner.end()) order.push_back(work[it->second].index);
    // Fall-through: remaining eligible groups, scarcest first.
    rest.clear();
    for (const auto& w : work) {
      if (((sig >> w.index) & 1ULL) &&
          (order.empty() || w.index != order.front())) {
        rest.push_back(w.index);
      }
    }
    std::sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
      const double sa = plan.supply_rate.at(a);
      const double sb = plan.supply_rate.at(b);
      if (sa != sb) return sa < sb;
      return a < b;
    });
    order.insert(order.end(), rest.begin(), rest.end());
    plan.atom_order[sig] = std::move(order);
  }
  return plan;
}

}  // namespace venn
