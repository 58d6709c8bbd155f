#include "scheduler/venn_sched.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "util/stats.h"

namespace venn {

VennScheduler::VennScheduler(VennConfig cfg, Rng rng)
    : cfg_(cfg), rng_(std::move(rng)) {
  if (cfg_.num_tiers == 0) throw std::invalid_argument("num_tiers >= 1");
}

std::string VennScheduler::name() const {
  if (cfg_.enable_scheduling && cfg_.enable_matching) return "Venn";
  if (cfg_.enable_scheduling) return "Venn w/o match";
  if (cfg_.enable_matching) return "Venn w/o sched";
  return "Venn (disabled)";
}

void VennScheduler::on_device_checkin(const DeviceView& dev, SimTime now) {
  // §4.4: record every check-in's eligibility signature in the time-series
  // store; IRS reads rates back over the trailing 24 h window.
  supply_.record(dev.signature, now);
  // Feed the per-group capacity reservoirs behind tier thresholds (§4.3).
  // Visit only the signature's set bits: this runs once per device check-in,
  // the single most frequent event in a large-fleet run.
  const double cap = dev.spec.capacity();
  for (std::uint64_t bits = dev.signature; bits != 0; bits &= bits - 1) {
    const auto g = static_cast<std::size_t>(std::countr_zero(bits));
    auto& dq = group_caps_[g];
    dq.push_back(cap);
    if (dq.size() > kCapReservoir) dq.pop_front();
  }
}

std::vector<double> VennScheduler::group_thresholds(std::size_t g) {
  auto it = group_caps_.find(g);
  if (it == group_caps_.end() || it->second.size() < 10 * cfg_.num_tiers) {
    return {};
  }
  // Selection, not a sort: each quantile reads at most two order
  // statistics of the reservoir (bit-equal to Summary::percentile).
  caps_scratch_.assign(it->second.begin(), it->second.end());
  std::vector<double> th;
  th.reserve(cfg_.num_tiers + 1);
  th.push_back(0.0);
  for (std::size_t v = 1; v < cfg_.num_tiers; ++v) {
    th.push_back(percentile_select(caps_scratch_,
                                   100.0 * static_cast<double>(v) /
                                       static_cast<double>(cfg_.num_tiers)));
  }
  th.push_back(1.0 + 1e-12);
  // Guard against degenerate (non-ascending) quantiles on flat reservoirs.
  for (std::size_t i = 1; i < th.size(); ++i) {
    th[i] = std::max(th[i], th[i - 1]);
  }
  return th;
}

JobMatcher& VennScheduler::matcher_for(JobId job) {
  auto it = matchers_.find(job);
  if (it == matchers_.end()) {
    MatcherConfig mc;
    mc.num_tiers = cfg_.num_tiers;
    mc.tail_percentile = cfg_.tail_percentile;
    mc.ewma_alpha = cfg_.ewma_alpha;
    it = matchers_
             .emplace(job, std::make_unique<JobMatcher>(mc, rng_.fork()))
             .first;
  }
  return *it->second;
}

void VennScheduler::on_queue_change(std::span<const PendingJob> pending,
                                    SimTime now) {
  // --- group statistics + fairness inputs -------------------------------
  struct GroupAgg {
    double queue_len = 0.0;
    std::vector<JobFairnessInput> jobs;
  };
  std::unordered_map<std::size_t, GroupAgg> agg;
  const double num_jobs = std::max<double>(1.0, pending.size());

  fairness_mult_.clear();
  for (const auto& pj : pending) {
    JobFairnessInput fin;
    fin.progress = pj.total_rounds > 0
                       ? static_cast<double>(pj.completed_rounds) /
                             static_cast<double>(pj.total_rounds)
                       : 0.0;
    fin.elapsed = now - pj.job_arrival;
    fin.fair_jct = num_jobs * std::max(pj.solo_jct_estimate, 1.0);

    auto& g = agg[pj.group];
    g.queue_len += 1.0;
    g.jobs.push_back(fin);

    // d'_i = d_i * r_i^ε; we store the multiplier and apply it to the live
    // remaining demand at assignment time.
    fairness_mult_[pj.job] =
        adjusted_demand(1.0, relative_usage(fin), cfg_.epsilon);
  }

  // --- tier decision for newly opened requests ---------------------------
  for (const auto& pj : pending) {
    if (seen_requests_.insert(pj.request.value()).second) {
      JobMatcher& m = matcher_for(pj.job);
      auto th = group_thresholds(pj.group);
      if (!th.empty()) m.set_thresholds(std::move(th));
      m.begin_request(pj.request, now);
      ++mstats_.requests_seen;
      if (m.active_tier()) ++mstats_.requests_tiered;
    }
  }

  // --- IRS plan over atoms from the supply store -------------------------
  active_mask_ = 0;
  std::vector<GroupInput> groups;
  groups.reserve(agg.size());
  for (const auto& [index, g] : agg) {
    active_mask_ |= (1ULL << index);
    GroupInput gi;
    gi.index = index;
    gi.queue_len = adjusted_queue_len(
        g.queue_len, group_relative_usage(g.jobs), cfg_.epsilon);
    groups.push_back(gi);
  }
  std::sort(groups.begin(), groups.end(),
            [](const GroupInput& a, const GroupInput& b) {
              return a.index < b.index;
            });

  std::vector<AtomSupply> atoms;
  for (std::uint64_t key : supply_.keys()) {
    const double rate = supply_.rate(key, now, cfg_.supply_window);
    if (rate > 0.0) atoms.push_back({key, rate});
  }
  plan_ = compute_irs_plan(groups, atoms);

  // Bound the §4.4 time-series store on multi-day runs: points older than
  // twice the averaging window can never influence a rate query.
  if (++queue_changes_ % 512 == 0) {
    supply_.compact_all(now, 2.0 * cfg_.supply_window);
  }
}

void VennScheduler::on_response(JobId job, double capacity,
                                double response_time, SimTime /*now*/) {
  matcher_for(job).observe_response(capacity, response_time);
}

void VennScheduler::on_round_complete(JobId job, SimTime sched_delay,
                                      SimTime response_time, SimTime /*now*/) {
  JobMatcher& m = matcher_for(job);
  if (m.active_tier()) {
    ++mstats_.rounds_tiered;
    mstats_.resp_sum_tiered += response_time;
    mstats_.sched_sum_tiered += sched_delay;
  } else {
    ++mstats_.rounds_untiered;
    mstats_.resp_sum_untiered += response_time;
    mstats_.sched_sum_untiered += sched_delay;
  }
  m.observe_round(sched_delay, response_time);
}

double VennScheduler::sort_key(const PendingJob& pj) const {
  const double base = cfg_.order_by_total_remaining
                          ? pj.remaining_service
                          : static_cast<double>(pj.remaining_demand);
  auto it = fairness_mult_.find(pj.job);
  return it != fairness_mult_.end() ? base * it->second : base;
}

namespace {

// A candidate's position and its order: (key, job id) ascending.
struct Ranked {
  std::size_t idx = 0;
  double key = 0.0;
  JobId job;

  [[nodiscard]] bool before(const Ranked& o) const {
    return key != o.key ? key < o.key : job < o.job;
  }
};

// The two best candidates of one group: the head (the served job, the only
// one a tier filter may reject) and its runner-up. Nothing past the
// runner-up is ever read, so no sort is needed.
struct BestTwo {
  Ranked top[2];
  std::size_t n = 0;

  void offer(const Ranked& r) {
    if (n == 0) {
      top[0] = r;
    } else if (r.before(top[0])) {
      top[1] = top[0];
      top[0] = r;
    } else if (n == 1 || r.before(top[1])) {
      top[1] = r;
    }
    n = std::min<std::size_t>(n + 1, 2);
  }
};

}  // namespace

std::optional<std::size_t> VennScheduler::assign(
    const DeviceView& dev, std::span<const PendingJob> candidates,
    SimTime /*now*/) {
  if (candidates.empty()) throw std::invalid_argument("no candidates");

  // Serve a group: its head, unless the head's tier filter rejects this
  // device (§4.3: "The matching algorithm is activated only for jobs that
  // are currently served"); then the leftover tier flows to the runner-up.
  const double capacity = dev.spec.capacity();
  const auto serve = [&](const BestTwo& b) -> std::optional<std::size_t> {
    if (cfg_.enable_matching) {
      const JobMatcher* m = matcher(b.top[0].job);
      if (m != nullptr && !m->accepts(capacity)) {
        ++mstats_.devices_filtered;
        if (b.n < 2) return std::nullopt;
        return b.top[1].idx;
      }
    }
    return b.top[0].idx;
  };

  if (!cfg_.enable_scheduling) {
    // "Venn w/o sched": FIFO by job arrival across all candidates, as one
    // flat pseudo-group.
    BestTwo fifo;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      fifo.offer({i, candidates[i].job_arrival, candidates[i].job});
    }
    return serve(fifo);
  }

  // Each group's two best jobs by (fairness-adjusted) remaining demand —
  // Algorithm 1 line 3 — with every sort key computed once.
  std::array<BestTwo, 64> best;  // by group index
  std::uint64_t present = 0;      // groups with a candidate
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const PendingJob& pj = candidates[i];
    if (pj.group >= 64) throw std::out_of_range("group index >= 64");
    best[pj.group].offer({i, sort_key(pj), pj.job});
    present |= 1ULL << pj.group;
  }

  // Group service order: the IRS plan for this device's atom.
  std::uint64_t left = present;
  const std::uint64_t sig = dev.signature & active_mask_;
  for (std::size_t g : plan_.order_for(sig, order_scratch_)) {
    if (!((left >> g) & 1ULL)) continue;
    left &= ~(1ULL << g);
    if (const auto pick = serve(best[g])) return pick;
  }
  // Groups the plan lacks (a stale plan): ascending group index.
  for (; left != 0; left &= left - 1) {
    const auto g = static_cast<std::size_t>(std::countr_zero(left));
    if (const auto pick = serve(best[g])) return pick;
  }
  return std::nullopt;
}

}  // namespace venn
