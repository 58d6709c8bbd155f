#include "scheduler/venn_sched.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
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
    CapRing& ring = group_caps_[g];
    if (ring.caps.size() < kCapReservoir) {
      if (ring.caps.empty()) ring.count.assign(kCapBins, 0);
      ring.caps.push_back(cap);
    } else {
      ring.caps[ring.writes % kCapReservoir] = cap;
    }
    ++ring.writes;
  }
}

// Value bins of the reservoir quantiles. kCapBins is a power of two, so
// c * kCapBins is exact and the bin is monotone in capacity: every value in
// a lower bin is smaller than every value in a higher one. Capacities lie
// in [0, 1]; values outside clamp to the end bins, which keeps the order.
std::uint8_t VennScheduler::cap_bin(double c) {
  static_assert(kCapBins == 256, "a bin must fit the ring's byte column");
  const double s = c * static_cast<double>(kCapBins);
  if (!(s > 0.0)) return 0;
  if (s >= static_cast<double>(kCapBins - 1)) return kCapBins - 1;
  return static_cast<std::uint8_t>(s);
}

std::span<const double> VennScheduler::group_thresholds(std::size_t g) {
  if (g >= kMaxGroups) throw std::out_of_range("group index >= 64");
  CapRing& ring = group_caps_[g];
  const std::vector<double>& caps = ring.caps;
  const std::size_t n = caps.size();
  const std::size_t tiers = cfg_.num_tiers;
  if (n < 10 * tiers) return {};

  // Bring the histogram up to date: re-bin the slots written since the
  // last call (each at most once while fewer than a ring's worth arrived),
  // or recount every slot.
  std::vector<std::uint32_t>& count = ring.count;
  ring.bins.resize(n);
  if (ring.writes - ring.counted >= kCapReservoir) {
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t s = 0; s < n; ++s) {
      ring.bins[s] = cap_bin(caps[s]);
      ++count[ring.bins[s]];
    }
  } else {
    for (std::uint64_t w = ring.counted; w < ring.writes; ++w) {
      const auto s = static_cast<std::size_t>(w % kCapReservoir);
      if (w >= kCapReservoir) --count[ring.bins[s]];  // the value it evicted
      ring.bins[s] = cap_bin(caps[s]);
      ++count[ring.bins[s]];
    }
  }
  ring.counted = ring.writes;

  // Each quantile reads two order statistics of the reservoir (its
  // percentile_rank). One counting pass finds the bins that hold them; only
  // those bins are gathered and sorted, and a rank's order statistic sits
  // in the gather at (rank - values in lower bins + gathered lower values).
  // Same order statistics, same interpolation: bit-equal to selecting them
  // from a copy with percentile_select.
  std::array<bool, kCapBins> wanted{};
  std::array<std::uint8_t, kCapBins> wanted_bins{};  // the same, ascending
  std::size_t num_wanted = 0;
  std::size_t bin = 0;
  std::size_t below = 0;     // values in bins before `bin`
  std::size_t gathered = 0;  // of those, values in wanted bins
  // Ranks arrive in ascending order: the quantiles ascend.
  const auto locate = [&](std::size_t rank) {
    while (rank >= below + count[bin]) {
      if (wanted[bin]) gathered += count[bin];
      below += count[bin];
      ++bin;
    }
    if (!wanted[bin]) {
      wanted[bin] = true;
      wanted_bins[num_wanted++] = static_cast<std::uint8_t>(bin);
    }
    return gathered + (rank - below);
  };
  rank_scratch_.clear();
  for (std::size_t v = 1; v < tiers; ++v) {
    PercentileRank r = percentile_rank(
        100.0 * static_cast<double>(v) / static_cast<double>(tiers), n);
    r.lo = locate(r.lo);  // from here on: indices into bin_scratch_
    r.hi = locate(r.hi);
    rank_scratch_.push_back(r);
  }
  // The gather tests eight slots' bins at a time without a branch: a byte
  // of `hit` has its top bit set where the slot's bin is a wanted one
  // (the exact zero-byte test of bin ^ wanted). Only the wanted slots'
  // values are read, one load per set bit.
  if (bin_scratch_.size() < n) bin_scratch_.resize(n);
  std::size_t kept = 0;
  std::size_t s = 0;
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
    for (; s + 8 <= n; s += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, ring.bins.data() + s, sizeof word);
      std::uint64_t hit = 0;
      for (std::size_t k = 0; k < num_wanted; ++k) {
        const std::uint64_t x = word ^ (kOnes * wanted_bins[k]);
        hit |= ~(((x & kLow7) + kLow7) | x | kLow7);
      }
      for (; hit != 0; hit &= hit - 1) {
        bin_scratch_[kept++] = caps[s + std::countr_zero(hit) / 8];
      }
    }
  }
  for (; s < n; ++s) {
    if (wanted[ring.bins[s]]) bin_scratch_[kept++] = caps[s];
  }
  std::sort(bin_scratch_.begin(),
            bin_scratch_.begin() + static_cast<std::ptrdiff_t>(kept));

  th_scratch_.clear();
  th_scratch_.push_back(0.0);
  for (const PercentileRank& r : rank_scratch_) {
    th_scratch_.push_back(
        r.interpolate(bin_scratch_[r.lo], bin_scratch_[r.hi]));
  }
  th_scratch_.push_back(1.0 + 1e-12);
  // Guard against degenerate (non-ascending) quantiles on flat reservoirs.
  for (std::size_t i = 1; i < th_scratch_.size(); ++i) {
    th_scratch_[i] = std::max(th_scratch_[i], th_scratch_[i - 1]);
  }
  return th_scratch_;
}

JobMatcher& VennScheduler::matcher_for(JobId job) {
  if (job.value() < 0) throw std::invalid_argument("negative job id");
  const auto j = static_cast<std::size_t>(job.value());
  if (j >= matchers_.size()) matchers_.resize(j + 1);
  std::unique_ptr<JobMatcher>& m = matchers_[j];
  if (!m) {
    MatcherConfig mc;
    mc.num_tiers = cfg_.num_tiers;
    mc.tail_percentile = cfg_.tail_percentile;
    mc.ewma_alpha = cfg_.ewma_alpha;
    m = std::make_unique<JobMatcher>(mc, rng_.fork());
  }
  return *m;
}

void VennScheduler::on_queue_change(std::span<const PendingJob> pending,
                                    SimTime now) {
  // --- group statistics + fairness inputs -------------------------------
  // At ε <= 0, the test adjusted_demand and adjusted_queue_len make, every
  // multiplier is 1 and every queue length passes through unadjusted, so
  // the fairness inputs are not built. A NaN ε keeps the full path.
  const bool fair = !(cfg_.epsilon <= 0.0);
  const double num_jobs = std::max<double>(1.0, pending.size());
  for (const std::size_t j : mult_written_) fairness_mult_[j] = 1.0;
  mult_written_.clear();
  std::uint64_t present = 0;  // groups with a pending job
  for (const auto& pj : pending) {
    if (pj.group >= kMaxGroups) throw std::out_of_range("group index >= 64");
    if (pj.job.value() < 0) throw std::invalid_argument("negative job id");
    GroupAgg& g = agg_[pj.group];
    if (!((present >> pj.group) & 1ULL)) {
      present |= 1ULL << pj.group;
      g.queue_len = 0.0;
      g.jobs.clear();
    }
    g.queue_len += 1.0;
    if (!fair) continue;

    JobFairnessInput fin;
    fin.progress = pj.total_rounds > 0
                       ? static_cast<double>(pj.completed_rounds) /
                             static_cast<double>(pj.total_rounds)
                       : 0.0;
    fin.elapsed = now - pj.job_arrival;
    fin.fair_jct = num_jobs * std::max(pj.solo_jct_estimate, 1.0);
    g.jobs.push_back(fin);

    // d'_i = d_i * r_i^ε; we store the multiplier and apply it to the live
    // remaining demand at assignment time.
    const auto j = static_cast<std::size_t>(pj.job.value());
    if (j >= fairness_mult_.size()) fairness_mult_.resize(j + 1, 1.0);
    fairness_mult_[j] =
        adjusted_demand(1.0, relative_usage(fin), cfg_.epsilon);
    mult_written_.push_back(j);
  }

  // --- tier decision for newly opened requests ---------------------------
  // A request is new when it is not the one its job's matcher last began.
  for (const auto& pj : pending) {
    const JobMatcher* seen = matcher(pj.job);
    if (seen != nullptr && seen->current_request() == pj.request) continue;
    JobMatcher& m = matcher_for(pj.job);
    const std::span<const double> th = group_thresholds(pj.group);
    if (!th.empty()) m.set_thresholds(th);
    m.begin_request(pj.request, now);
    ++mstats_.requests_seen;
    if (m.active_tier()) ++mstats_.requests_tiered;
  }

  // --- IRS plan over atoms from the supply store -------------------------
  active_mask_ = present;
  groups_.clear();
  for (std::uint64_t left = present; left != 0; left &= left - 1) {
    const auto index = static_cast<std::size_t>(std::countr_zero(left));
    const GroupAgg& g = agg_[index];
    GroupInput gi;
    gi.index = index;
    gi.queue_len = fair ? adjusted_queue_len(g.queue_len,
                                             group_relative_usage(g.jobs),
                                             cfg_.epsilon)
                        : g.queue_len;
    groups_.push_back(gi);
  }

  atoms_.clear();
  for (std::uint64_t key : supply_.keys()) {
    const double rate = supply_.rate(key, now, cfg_.supply_window);
    if (rate > 0.0) atoms_.push_back({key, rate});
  }
  plan_ = IrsPlan(&plan_arena_);
  plan_arena_.release();
  plan_ = compute_irs_plan(groups_, atoms_, &plan_arena_);

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
  // A negative id wraps past the end: no queue change ever lists one.
  const auto j = static_cast<std::uint64_t>(pj.job.value());
  return j < fairness_mult_.size() ? base * fairness_mult_[j] : base;
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
