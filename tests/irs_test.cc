// Unit tests for Intersection Resource Scheduling (Algorithm 1).
//
// The Fig. 8a structure is the canonical instance: four groups
// (General ⊇ Compute, Memory ⊇ High-Perf) over four atoms
// {G}, {G,C}, {G,M}, {G,C,M,H}.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "scheduler/irs.h"
#include "util/rng.h"

namespace venn {
namespace {

// Group bit indices for readability.
constexpr std::size_t G = 0, C = 1, M = 2, H = 3;

std::vector<AtomSupply> fig8a_atoms(double g_only, double gc, double gm,
                                    double gcmh) {
  return {
      {(1ULL << G), g_only},
      {(1ULL << G) | (1ULL << C), gc},
      {(1ULL << G) | (1ULL << M), gm},
      {(1ULL << G) | (1ULL << C) | (1ULL << M) | (1ULL << H), gcmh},
  };
}

// compute_irs_plan as it was before it built in an arena: heap-allocated
// std containers, fresh for every plan. The arena plan must equal it bit
// for bit, iteration order of its maps included.
struct HeapPlan {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> atom_order;
  std::unordered_map<std::size_t, double> supply_rate;
  std::unordered_map<std::size_t, double> allocated_rate;
};

HeapPlan heap_irs_plan(std::span<const GroupInput> groups,
                       std::span<const AtomSupply> atoms) {
  struct GroupWork {
    std::size_t index = 0;
    double queue_len = 0.0;
    double supply = 0.0;
    double allocated = 0.0;
    double affected_queue = 0.0;
  };
  constexpr double kEpsRate = 1e-12;
  HeapPlan plan;
  if (groups.empty()) return plan;
  std::uint64_t active_mask = 0;
  for (const auto& g : groups) active_mask |= (1ULL << g.index);
  std::unordered_map<std::uint64_t, double> atom_rate;
  for (const auto& a : atoms) {
    const std::uint64_t sig = a.signature & active_mask;
    if (sig == 0 || a.rate <= 0.0) continue;
    atom_rate[sig] += a.rate;
  }
  std::vector<GroupWork> work;
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
  std::vector<std::size_t> by_supply_asc(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) by_supply_asc[i] = i;
  std::stable_sort(by_supply_asc.begin(), by_supply_asc.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (work[a].supply != work[b].supply) {
                       return work[a].supply < work[b].supply;
                     }
                     return work[a].index < work[b].index;
                   });
  std::unordered_map<std::uint64_t, std::size_t> owner;
  for (std::size_t rank : by_supply_asc) {
    GroupWork& w = work[rank];
    for (const auto& [sig, rate] : atom_rate) {
      if (((sig >> w.index) & 1ULL) && !owner.contains(sig)) {
        owner[sig] = rank;
        w.allocated += rate;
      }
    }
  }
  std::vector<std::size_t> by_supply_desc(by_supply_asc.rbegin(),
                                          by_supply_asc.rend());
  for (std::size_t pos = 0; pos < by_supply_desc.size(); ++pos) {
    GroupWork& gj = work[by_supply_desc[pos]];
    if (gj.allocated <= kEpsRate) continue;
    for (std::size_t pos2 = pos + 1; pos2 < by_supply_desc.size(); ++pos2) {
      GroupWork& gk = work[by_supply_desc[pos2]];
      if (gk.supply >= gj.supply) continue;
      double movable = 0.0;
      std::vector<std::uint64_t> movable_sigs;
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
      if (!intersects) continue;
      const double lhs = gj.affected_queue / std::max(gj.allocated, kEpsRate);
      const double rhs = gk.affected_queue / std::max(gk.supply, kEpsRate);
      if (lhs > rhs) {
        if (movable > 0.0) {
          for (std::uint64_t sig : movable_sigs) {
            owner[sig] = by_supply_desc[pos];
          }
          gj.allocated += movable;
          gk.allocated -= movable;
          gj.affected_queue += gk.affected_queue;
        }
      } else {
        break;
      }
    }
  }
  for (const auto& w : work) {
    plan.supply_rate[w.index] = w.supply;
    plan.allocated_rate[w.index] = std::max(0.0, w.allocated);
  }
  for (const auto& [sig, rate] : atom_rate) {
    (void)rate;
    std::vector<std::size_t> order;
    auto it = owner.find(sig);
    if (it != owner.end()) order.push_back(work[it->second].index);
    std::vector<std::size_t> rest;
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

// Equal bit for bit, and the maps iterate in the same order.
void expect_same_plan(const IrsPlan& got, const HeapPlan& want) {
  ASSERT_EQ(got.atom_order.size(), want.atom_order.size());
  auto g = got.atom_order.begin();
  for (const auto& [sig, order] : want.atom_order) {
    EXPECT_EQ(g->first, sig) << "atom_order iterates in another order";
    EXPECT_TRUE(std::equal(g->second.begin(), g->second.end(), order.begin(),
                           order.end()))
        << "atom " << sig;
    ++g;
  }
  const auto same_rates = [](const auto& a, const auto& b, const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    auto it = a.begin();
    for (const auto& [group, rate] : b) {
      EXPECT_EQ(it->first, group) << what << " iterates in another order";
      EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second),
                std::bit_cast<std::uint64_t>(rate))
          << what << " of group " << group;
      ++it;
    }
  };
  same_rates(got.supply_rate, want.supply_rate, "supply_rate");
  same_rates(got.allocated_rate, want.allocated_rate, "allocated_rate");
}

TEST(Irs, EmptyGroupsYieldEmptyPlan) {
  const IrsPlan plan = compute_irs_plan({}, {});
  EXPECT_TRUE(plan.atom_order.empty());
}

TEST(Irs, SingleGroupOwnsItsAtoms) {
  std::vector<GroupInput> groups{{G, 3.0}};
  const auto atoms = fig8a_atoms(0.5, 0.2, 0.2, 0.1);
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  // All four atoms carry the G bit and mask down to the single active group,
  // merging into one atom owned by G with the full rate.
  ASSERT_EQ(plan.atom_order.size(), 1u);
  const auto& order = plan.atom_order.at(1ULL << G);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order.front(), G);
  EXPECT_NEAR(plan.supply_rate.at(G), 1.0, 1e-9);
  EXPECT_NEAR(plan.allocated_rate.at(G), 1.0, 1e-9);
}

TEST(Irs, ScarcestGroupClaimsSharedAtomFirst) {
  // Equal queues: initial allocation is a scarcity partition; the HP group
  // (supply 0.1) keeps the shared {G,C,M,H} atom.
  std::vector<GroupInput> groups{{G, 5.0}, {C, 5.0}, {M, 5.0}, {H, 5.0}};
  const auto atoms = fig8a_atoms(0.5, 0.2, 0.2, 0.1);
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  const auto& hp_atom_order = plan.atom_order.at(
      (1ULL << G) | (1ULL << C) | (1ULL << M) | (1ULL << H));
  EXPECT_EQ(hp_atom_order.front(), H);
  EXPECT_EQ(plan.atom_order.at((1ULL << G) | (1ULL << C)).front(), C);
  EXPECT_EQ(plan.atom_order.at((1ULL << G) | (1ULL << M)).front(), M);
  EXPECT_EQ(plan.atom_order.at(1ULL << G).front(), G);
}

TEST(Irs, SupplyRatesAreUnionsOfAtoms) {
  std::vector<GroupInput> groups{{G, 1.0}, {C, 1.0}, {M, 1.0}, {H, 1.0}};
  const auto atoms = fig8a_atoms(0.4, 0.25, 0.2, 0.15);
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  EXPECT_NEAR(plan.supply_rate.at(G), 1.0, 1e-9);
  EXPECT_NEAR(plan.supply_rate.at(C), 0.40, 1e-9);
  EXPECT_NEAR(plan.supply_rate.at(M), 0.35, 1e-9);
  EXPECT_NEAR(plan.supply_rate.at(H), 0.15, 1e-9);
}

TEST(Irs, LongQueueAbsorbsIntersectionFromScarcerGroup) {
  // Two groups: A (abundant, long queue) and B (scarce). Lemma 2's test
  // m'_A/|S'_A| > m'_B/|S_B| decides whether A takes the intersection.
  // A-only atom rate 0.2, shared atom 0.8 (B ⊂ A).
  std::vector<AtomSupply> atoms{
      {(1ULL << 0), 0.2},
      {(1ULL << 0) | (1ULL << 1), 0.8},
  };
  // Queue 10 vs 1: 10/0.2 = 50 > 1/0.8 = 1.25 -> A absorbs the intersection.
  {
    std::vector<GroupInput> groups{{0, 10.0}, {1, 1.0}};
    const IrsPlan plan = compute_irs_plan(groups, atoms);
    EXPECT_EQ(plan.atom_order.at((1ULL << 0) | (1ULL << 1)).front(), 0u);
    EXPECT_NEAR(plan.allocated_rate.at(0), 1.0, 1e-9);
    EXPECT_NEAR(plan.allocated_rate.at(1), 0.0, 1e-9);
  }
  // Queue 1 vs 10: 1/0.2 = 5 < 10/0.8 = 12.5 -> B keeps its atom.
  {
    std::vector<GroupInput> groups{{0, 1.0}, {1, 10.0}};
    const IrsPlan plan = compute_irs_plan(groups, atoms);
    EXPECT_EQ(plan.atom_order.at((1ULL << 0) | (1ULL << 1)).front(), 1u);
  }
}

TEST(Irs, RatioTestMovesTripleAtomToDenserQueue) {
  // Phase-1 scarcity partition gives the triple atom to C (scarcest:
  // 0.14 + 0.13 = 0.27). In phase 2, B (supply 0.29, allocated only the
  // {A,B} atom = 0.16) has delay ratio 12/0.16 = 75 against C's
  // 12/0.27 ≈ 44, so B legitimately absorbs the intersection (line 15).
  std::vector<AtomSupply> atoms{
      {(1ULL << 0), 0.30},                           // A only
      {(1ULL << 0) | (1ULL << 1), 0.16},             // A ∩ B
      {(1ULL << 0) | (1ULL << 2), 0.14},             // A ∩ C
      {(1ULL << 0) | (1ULL << 1) | (1ULL << 2), 0.13},  // A ∩ B ∩ C
  };
  std::vector<GroupInput> groups{{0, 12.0}, {1, 12.0}, {2, 12.0}};
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  const auto triple = (1ULL << 0) | (1ULL << 1) | (1ULL << 2);
  EXPECT_EQ(plan.atom_order.at(triple).front(), 1u);
  // But with a short B queue the ratio fails (3/0.16 ≈ 19 < 44) and C keeps
  // its claim.
  std::vector<GroupInput> groups2{{0, 12.0}, {1, 3.0}, {2, 12.0}};
  const IrsPlan plan2 = compute_irs_plan(groups2, atoms);
  EXPECT_EQ(plan2.atom_order.at(triple).front(), 2u);
}

TEST(Irs, FallThroughOrderIsScarcestFirst) {
  std::vector<GroupInput> groups{{G, 1.0}, {C, 1.0}, {M, 1.0}, {H, 1.0}};
  const auto atoms = fig8a_atoms(0.4, 0.25, 0.2, 0.15);
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  const auto order = plan.atom_order.at(
      (1ULL << G) | (1ULL << C) | (1ULL << M) | (1ULL << H));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], H);  // owner
  EXPECT_EQ(order[1], M);  // scarcest remaining (0.35)
  EXPECT_EQ(order[2], C);  // 0.40
  EXPECT_EQ(order[3], G);  // 1.0
}

TEST(Irs, OrderForUnseenSignatureIgnoresInactiveGroupBits) {
  // Regression for the order_for fallback: an unseen atom whose signature
  // carries a bit for a group absent from the plan (inactive — no
  // supply_rate entry) must yield the active groups in scarcity order and
  // drop the inactive bit deliberately instead of crashing or emitting a
  // group the plan cannot serve.
  std::vector<GroupInput> groups{{G, 1.0}, {C, 1.0}};
  std::vector<AtomSupply> atoms{{(1ULL << G), 0.9},
                                {(1ULL << G) | (1ULL << C), 0.1}};
  const IrsPlan plan = compute_irs_plan(groups, atoms);

  // Bit 9 belongs to no active group; {G, C, 9} was never a plan atom.
  std::vector<std::size_t> scratch;
  const auto order =
      plan.order_for((1ULL << G) | (1ULL << C) | (1ULL << 9), scratch);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], C);  // scarcest active group first (0.1 < 1.0)
  EXPECT_EQ(order[1], G);
  // Only inactive bits: no group the plan can serve.
  EXPECT_TRUE(plan.order_for(1ULL << 9, scratch).empty());
  // An active group with zero recorded supply still appears (supply_rate
  // carries every plan group, even at rate 0).
  std::vector<GroupInput> groups2{{G, 1.0}, {C, 1.0}};
  std::vector<AtomSupply> atoms2{{(1ULL << G), 0.4}};
  const IrsPlan plan2 = compute_irs_plan(groups2, atoms2);
  const auto order2 = plan2.order_for((1ULL << C) | (1ULL << 9), scratch);
  ASSERT_EQ(order2.size(), 1u);
  EXPECT_EQ(order2[0], C);
}

TEST(Irs, OrderForUnseenSignatureFallsBackToScarcity) {
  std::vector<GroupInput> groups{{G, 1.0}, {C, 1.0}};
  std::vector<AtomSupply> atoms{{(1ULL << G), 0.9},
                                {(1ULL << G) | (1ULL << C), 0.1}};
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  // Signature never seen as an atom: C-only devices.
  std::vector<std::size_t> scratch;
  const auto order = plan.order_for(1ULL << C, scratch);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], C);
  EXPECT_TRUE(plan.order_for(0, scratch).empty());
}

TEST(Irs, MasksAtomsOutsideActiveGroups) {
  std::vector<GroupInput> groups{{G, 1.0}};
  std::vector<AtomSupply> atoms{
      {(1ULL << G) | (1ULL << 9), 0.5},  // bit 9 not active
      {(1ULL << 9), 0.5},                // masks to zero: ignored
  };
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  EXPECT_EQ(plan.atom_order.size(), 1u);
  EXPECT_TRUE(plan.atom_order.contains(1ULL << G));
  EXPECT_NEAR(plan.supply_rate.at(G), 0.5, 1e-9);
}

TEST(Irs, RejectsInvalidGroups) {
  std::vector<AtomSupply> atoms{{1ULL, 1.0}};
  std::vector<GroupInput> dup{{0, 1.0}, {0, 1.0}};
  EXPECT_THROW((void)compute_irs_plan(dup, atoms), std::invalid_argument);
  std::vector<GroupInput> big{{64, 1.0}};
  EXPECT_THROW((void)compute_irs_plan(big, atoms), std::invalid_argument);
}

TEST(Irs, ZeroAndNegativeRatesIgnored) {
  std::vector<GroupInput> groups{{G, 1.0}, {C, 1.0}};
  std::vector<AtomSupply> atoms{{(1ULL << G), 0.0},
                                {(1ULL << G) | (1ULL << C), -1.0}};
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  EXPECT_TRUE(plan.atom_order.empty());
  EXPECT_NEAR(plan.supply_rate.at(G), 0.0, 1e-12);
}

TEST(Irs, DuplicateAtomSignaturesMerge) {
  std::vector<GroupInput> groups{{G, 1.0}};
  std::vector<AtomSupply> atoms{{(1ULL << G), 0.3}, {(1ULL << G), 0.2}};
  const IrsPlan plan = compute_irs_plan(groups, atoms);
  EXPECT_NEAR(plan.supply_rate.at(G), 0.5, 1e-9);
}

// Property sweep over many random instances: structural invariants of the
// plan hold for arbitrary group/atom configurations.
class IrsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IrsPropertyTest, PlanInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n_groups = 2 + rng.index(5);   // 2..6 groups
  const std::size_t n_atoms = 1 + rng.index(8);    // 1..8 atoms

  std::vector<GroupInput> groups;
  for (std::size_t g = 0; g < n_groups; ++g) {
    groups.push_back({g, 1.0 + static_cast<double>(rng.index(20))});
  }
  std::vector<AtomSupply> atoms;
  for (std::size_t a = 0; a < n_atoms; ++a) {
    std::uint64_t sig = 0;
    for (std::size_t g = 0; g < n_groups; ++g) {
      if (rng.bernoulli(0.5)) sig |= (1ULL << g);
    }
    atoms.push_back({sig, rng.uniform(0.0, 1.0)});
  }

  const IrsPlan plan = compute_irs_plan(groups, atoms);

  double total_atom_rate = 0.0;
  std::unordered_map<std::uint64_t, double> atom_rate;
  for (const auto& a : atoms) {
    if (a.signature != 0 && a.rate > 0.0) {
      atom_rate[a.signature] += a.rate;
      total_atom_rate += a.rate;
    }
  }

  // (1) Every plan entry's order lists only eligible groups, each once, and
  //     covers all eligible active groups.
  for (const auto& [sig, order] : plan.atom_order) {
    std::set<std::size_t> seen;
    for (std::size_t g : order) {
      EXPECT_TRUE((sig >> g) & 1ULL) << "ineligible group in order";
      EXPECT_TRUE(seen.insert(g).second) << "duplicate group in order";
    }
    std::size_t eligible = 0;
    for (const auto& g : groups) {
      if ((sig >> g.index) & 1ULL) ++eligible;
    }
    EXPECT_EQ(order.size(), eligible);
  }

  // (2) Allocated rates are non-negative and sum to the total atom rate
  //     (each atom owned by exactly one group).
  double total_allocated = 0.0;
  for (const auto& [g, rate] : plan.allocated_rate) {
    (void)g;
    EXPECT_GE(rate, -1e-9);
    total_allocated += rate;
  }
  EXPECT_NEAR(total_allocated, total_atom_rate, 1e-6);

  // (3) Supply never below allocation for... (allocation can exceed own
  //     supply only never: owned atoms are always eligible).
  for (const auto& g : groups) {
    EXPECT_LE(plan.allocated_rate.at(g.index),
              plan.supply_rate.at(g.index) + 1e-9);
  }
}

// (4) Determinism: the plan is a pure function of the (group, atom) *sets*
//     — permuting the input order must not change any output. The two-phase
//     algorithm sorts by supply with index tie-breaks, so hash/iteration
//     order must never leak into the result.
TEST_P(IrsPropertyTest, PlanIsInvariantUnderInputPermutation) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const std::size_t n_groups = 2 + rng.index(5);
  const std::size_t n_atoms = 1 + rng.index(8);

  std::vector<GroupInput> groups;
  for (std::size_t g = 0; g < n_groups; ++g) {
    groups.push_back({g, 1.0 + static_cast<double>(rng.index(20))});
  }
  std::vector<AtomSupply> atoms;
  for (std::size_t a = 0; a < n_atoms; ++a) {
    std::uint64_t sig = 0;
    for (std::size_t g = 0; g < n_groups; ++g) {
      if (rng.bernoulli(0.5)) sig |= (1ULL << g);
    }
    atoms.push_back({sig, rng.uniform(0.0, 1.0)});
  }

  const IrsPlan base = compute_irs_plan(groups, atoms);
  for (int perm = 0; perm < 4; ++perm) {
    rng.shuffle(groups);
    rng.shuffle(atoms);
    const IrsPlan p = compute_irs_plan(groups, atoms);

    ASSERT_EQ(p.atom_order.size(), base.atom_order.size());
    for (const auto& [sig, order] : base.atom_order) {
      ASSERT_TRUE(p.atom_order.contains(sig));
      EXPECT_EQ(p.atom_order.at(sig), order) << "atom " << sig;
    }
    ASSERT_EQ(p.supply_rate.size(), base.supply_rate.size());
    for (const auto& [g, rate] : base.supply_rate) {
      // Supply sums merge duplicate atom signatures through a hash map, so
      // the accumulation order (and thus the exact double) may differ under
      // permutation; the plan decisions above are still required identical.
      EXPECT_NEAR(p.supply_rate.at(g), rate, 1e-9);
      EXPECT_NEAR(p.allocated_rate.at(g), base.allocated_rate.at(g), 1e-9);
    }
  }
}

// The arena plan against the heap-allocated copy above, over the
// property inputs and a wider variant (up to 12 groups and 40 atoms, so
// the hash maps rehash mid-build), through one arena released between
// plans as the scheduler releases it. A second build of the same inputs
// finds the arena warm: its buffer does not grow.
TEST_P(IrsPropertyTest, ArenaPlanMatchesTheHeapPlanBitForBit) {
  PlanArena arena;
  for (const bool wide : {false, true}) {
    Rng rng(static_cast<std::uint64_t>(2000 + GetParam()));
    const std::size_t n_groups = wide ? 6 + rng.index(7) : 2 + rng.index(5);
    const std::size_t n_atoms = wide ? 10 + rng.index(31) : 1 + rng.index(8);
    std::vector<GroupInput> groups;
    for (std::size_t g = 0; g < n_groups; ++g) {
      groups.push_back({g, 1.0 + static_cast<double>(rng.index(20))});
    }
    std::vector<AtomSupply> atoms;
    for (std::size_t a = 0; a < n_atoms; ++a) {
      std::uint64_t sig = 0;
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (rng.bernoulli(0.5)) sig |= (1ULL << g);
      }
      // Rates across magnitudes: a reordered sum would change low bits.
      atoms.push_back({sig, rng.uniform(0.0, 1.0) *
                                std::pow(10.0, rng.uniform(-6.0, 3.0))});
    }
    const HeapPlan want = heap_irs_plan(groups, atoms);
    IrsPlan plan(&arena);
    std::size_t warm = 0;
    for (int build = 0; build < 3; ++build) {
      plan = IrsPlan(&arena);
      arena.release();  // grows the buffer if the last build overflowed it
      if (build == 1) warm = arena.capacity();
      if (build == 2) EXPECT_EQ(arena.capacity(), warm);
      plan = compute_irs_plan(groups, atoms, &arena);
      expect_same_plan(plan, want);
    }
    EXPECT_GT(warm, 0u);
    expect_same_plan(compute_irs_plan(groups, atoms), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrsPropertyTest, ::testing::Range(1, 26));

}  // namespace
}  // namespace venn
