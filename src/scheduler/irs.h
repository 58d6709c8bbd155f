// Intersection Resource Scheduling (IRS) — paper §4.2, Algorithm 1.
//
// IRS decides, for every kind of arriving device, which job group should be
// served first. Job groups are resource-homogeneous (all jobs in a group
// share one requirement); their eligible device sets can nest, overlap or
// contain each other. We represent that structure exactly with *atoms*:
// an atom is a distinct eligibility signature (the bitmask of groups a
// device qualifies for), and every set expression of Algorithm 1 is a union
// of atoms weighted by the atom's device arrival rate.
//
// The algorithm (two phases over groups sorted by eligible supply |S_j|):
//  1. Initial allocation (lines 5-9): walk groups from scarcest to most
//     abundant; each group claims all not-yet-claimed atoms it is eligible
//     for. This favours groups with scarce resources, preventing delays
//     from resource-rich groups.
//  2. Reallocation (lines 10-23): walk groups from most abundant down; a
//     group Gj holding resources may absorb the intersection S_j ∩ S_k from
//     scarcer overlapping groups Gk as long as the delay-ratio test
//     m'_j / |S'_j| > m'_k / |S_k| holds (line 15), accumulating the
//     affected queue length m'_j += m'_k; the first failed test stops the
//     scan (line 19).
//
// The output is a plan mapping each atom to an ordered list of groups: the
// owner first, then the remaining eligible groups scarcest-first as a
// fall-through order (used when the owner's jobs cannot take a device, e.g.
// due to tier filtering or a queue drained since the last recompute).
//
// Complexity: O(n^2 · a) for n groups and a atoms (a <= 2^n but in practice
// a handful); the per-device lookup is O(1) into the plan. The paper bounds
// the whole decision by max(O(m log m), O(n^2)) for m jobs; the scheduler's
// intra-group step needs only each group's two best jobs (the served head
// and its runner-up), which VennScheduler::assign finds in O(m).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <unordered_map>
#include <vector>

namespace venn {

// One eligibility atom: a set of devices sharing the same signature.
struct AtomSupply {
  std::uint64_t signature = 0;  // bit g set => eligible for group index g
  double rate = 0.0;            // device check-ins per unit time
};

// One resource-homogeneous job group with pending demand.
struct GroupInput {
  std::size_t index = 0;   // bit position in atom signatures
  double queue_len = 0.0;  // m_j — jobs waiting (possibly fairness-adjusted)
};

// The storage a plan and its temporaries are built in: a bump arena over
// one buffer. Deallocation is a no-op; release() forgets every allocation
// at once and, when the last build outgrew the buffer (its overflow came
// from the heap), grows the buffer to fit it. Once warm, building a plan
// allocates nothing. Release only when nothing built in it is alive.
class PlanArena final : public std::pmr::memory_resource {
 public:
  PlanArena() = default;
  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;
  ~PlanArena() override;

  void release();
  // The buffer's size in bytes (0 before the first release that grows it).
  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override;
  void do_deallocate(void* /*p*/, std::size_t /*bytes*/,
                     std::size_t /*align*/) override {}
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  struct Overflow {
    void* p;
    std::size_t bytes;
    std::size_t align;
  };
  std::unique_ptr<std::byte[]> buf_;
  std::size_t cap_ = 0;
  std::size_t used_ = 0;
  std::size_t demand_ = 0;  // bytes this build would take in one buffer
  std::vector<Overflow> overflow_;
};

// A plan's containers allocate from the resource it was built with. Their
// hash tables iterate in an order set by the inserts alone (libstdc++'s
// hashing and rehash policy do not depend on the allocator), so a plan
// built in an arena iterates as one built on the heap does.
struct IrsPlan {
  using Order = std::pmr::vector<std::size_t>;

  explicit IrsPlan(
      std::pmr::memory_resource* mr = std::pmr::get_default_resource())
      : atom_order(mr), supply_rate(mr), allocated_rate(mr) {}

  // atom signature -> group indices in service order (owner first).
  std::pmr::unordered_map<std::uint64_t, Order> atom_order;

  // Diagnostics (also used by tests and the fairness estimator):
  // total eligible supply |S_j| and post-IRS allocated rate |S'_j|.
  std::pmr::unordered_map<std::size_t, double> supply_rate;
  std::pmr::unordered_map<std::size_t, double> allocated_rate;

  // Service order for a device with the given (active-restricted) signature:
  // a reference to the plan's own order for a known atom, no copy. Falls
  // back to scarcest-first over the signature's groups when the exact atom
  // was not part of the plan input (e.g. first device of its kind); that
  // order is built in `scratch` and a reference to it returned. Signature
  // bits referencing groups the plan does not know (inactive groups — no
  // supply_rate entry) are ignored: only plan groups can be ordered.
  // Iterates the signature's set bits, not all 64 positions.
  [[nodiscard]] std::span<const std::size_t> order_for(
      std::uint64_t signature, std::vector<std::size_t>& scratch) const;
};

// Computes the IRS plan. `atoms` may include signatures with bits outside
// `groups` — they are masked off; atoms reduced to signature 0 are ignored.
// Group indices must be unique and < 64. The plan and every temporary are
// allocated from `mr`.
[[nodiscard]] IrsPlan compute_irs_plan(
    std::span<const GroupInput> groups, std::span<const AtomSupply> atoms,
    std::pmr::memory_resource* mr = std::pmr::get_default_resource());

}  // namespace venn
