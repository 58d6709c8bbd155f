#include "core/metrics.h"

#include <stdexcept>

#include "core/coordinator.h"

namespace venn {

double RunResult::avg_jct() const {
  if (jobs.empty()) throw std::logic_error("avg_jct of empty run");
  double sum = 0.0;
  for (const auto& j : jobs) sum += j.jct;
  return sum / static_cast<double>(jobs.size());
}

std::size_t RunResult::finished_jobs() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.finished ? 1 : 0;
  return n;
}

Summary RunResult::scheduling_delays() const {
  Summary s;
  for (const auto& j : jobs) {
    for (const auto& r : j.rounds) s.add(r.scheduling_delay);
  }
  return s;
}

Summary RunResult::response_times() const {
  Summary s;
  for (const auto& j : jobs) {
    for (const auto& r : j.rounds) s.add(r.response_collection);
  }
  return s;
}

double RunResult::avg_concurrency() const {
  if (jobs.empty()) return 0.0;
  double busy = 0.0;
  double first = jobs.front().spec.arrival;
  double last = first;
  for (const auto& j : jobs) {
    busy += j.jct;
    first = std::min(first, j.spec.arrival);
    last = std::max(last, j.spec.arrival + j.jct);
  }
  const double makespan = std::max(1e-9, last - first);
  return std::max(1.0, busy / makespan);
}

double RunResult::fair_share_hit_rate() const {
  if (jobs.empty()) return 0.0;
  const double m = avg_concurrency();
  std::size_t hit = 0;
  for (const auto& j : jobs) {
    const double fair = m * j.solo_jct_estimate;
    if (j.finished && j.jct <= fair) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(jobs.size());
}

RunResult collect_results(const Coordinator& coord,
                          const std::string& scheduler_name) {
  RunResult out;
  out.scheduler = scheduler_name;
  out.horizon = coord.horizon();
  out.protocol = coord.protocol_stats();
  for (const auto& job : coord.jobs()) {
    JobResult jr;
    jr.id = job->id();
    jr.spec = job->spec();
    jr.finished = job->completion_recorded();
    jr.jct = jr.finished
                 ? job->jct()
                 : std::max(0.0, coord.horizon() - job->spec().arrival);
    jr.solo_jct_estimate = coord.solo_jct_estimate(job->spec());
    jr.completed_rounds = job->completed_rounds();
    jr.total_aborts = job->total_aborts();
    jr.rounds = job->round_stats();
    out.jobs.push_back(std::move(jr));
  }
  return out;
}

double improvement(const RunResult& base, const RunResult& x) {
  const double xa = x.avg_jct();
  if (xa <= 0.0) throw std::logic_error("improvement: zero avg JCT");
  return base.avg_jct() / xa;
}

}  // namespace venn
