// Device eligibility: job resource requirements and signature algebra.
//
// A CL job targets a subset of devices via a *requirement* (minimum CPU /
// memory scores, paper §2.1 & Fig. 8a). Requirements of different jobs
// induce eligible device sets that may nest, overlap or be disjoint — the
// structure the Intersection Resource Scheduling problem (§4.2) is defined
// over.
//
// To make IRS set algebra exact and cheap, we reduce each device to a
// *signature*: the bitmask of registered requirements it satisfies. Distinct
// signatures partition the device space into "atoms"; every set expression
// in Algorithm 1 (S ∩ S_j, S \ S'_j, S_j ∩ S_k) is a union of atoms and is
// computed over per-atom supply rates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace venn {

// Normalized hardware scores in [0, 1] (AI-Benchmark style, Fig. 2b).
struct DeviceSpec {
  double cpu_score = 0.0;
  double mem_score = 0.0;

  // Scalar capacity used for tier partitioning (Algorithm 2). Weighted
  // toward CPU since on-device training is compute-bound.
  [[nodiscard]] double capacity() const {
    return 0.6 * cpu_score + 0.4 * mem_score;
  }
};

// A job's minimum hardware requirement. The eligible set of a requirement is
// the upper-right rectangle {cpu >= min_cpu, mem >= min_mem}.
struct Requirement {
  double min_cpu = 0.0;
  double min_mem = 0.0;

  [[nodiscard]] bool eligible(const DeviceSpec& d) const {
    return d.cpu_score >= min_cpu && d.mem_score >= min_mem;
  }

  // True iff this requirement's eligible set is a (non-strict) subset of
  // `other`'s: it is *more* demanding on both axes.
  [[nodiscard]] bool subset_of(const Requirement& other) const {
    return min_cpu >= other.min_cpu && min_mem >= other.min_mem;
  }

  // True iff the two eligible rectangles intersect. For upper-right
  // rectangles over the full score square this is always true; provided for
  // generality (and future bounded requirements).
  [[nodiscard]] bool intersects(const Requirement&) const { return true; }

  friend bool operator==(const Requirement&, const Requirement&) = default;
};

// The four resource categories the evaluation stratifies devices into
// (Fig. 8a): General ⊇ {Compute-Rich, Memory-Rich} ⊇ High-Performance.
enum class ResourceCategory : int {
  kGeneral = 0,
  kComputeRich = 1,
  kMemoryRich = 2,
  kHighPerf = 3,
};
inline constexpr int kNumCategories = 4;
inline constexpr double kRichThreshold = 0.5;

[[nodiscard]] Requirement requirement_for(ResourceCategory c);
[[nodiscard]] std::string category_name(ResourceCategory c);
[[nodiscard]] std::vector<ResourceCategory> all_categories();

// The finest Fig. 8a region a device belongs to (High-Perf ⊂ Compute/Memory
// ⊂ General). Used to stratify assignment accounting by device scarcity.
[[nodiscard]] ResourceCategory finest_region(const DeviceSpec& spec);

// Registry of distinct requirements, assigning each a stable bit index in
// first-seen order. Signatures are bitmasks over these indices. A run has
// one: the resource manager owns it and the coordinator's eligibility index
// registers into it, so a bit names the same requirement everywhere.
class SignatureSpace {
 public:
  using Signature = std::uint64_t;
  static constexpr std::size_t kMaxRequirements = 64;

  // Registers `req` (idempotent); returns its bit index.
  std::size_t register_requirement(const Requirement& req);

  [[nodiscard]] std::size_t size() const { return reqs_.size(); }
  [[nodiscard]] const Requirement& requirement(std::size_t idx) const {
    return reqs_.at(idx);
  }

  // Bitmask of registered requirements that `spec` satisfies.
  [[nodiscard]] Signature signature_of(const DeviceSpec& spec) const;

 private:
  std::vector<Requirement> reqs_;
};

}  // namespace venn
