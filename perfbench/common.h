// Shared pieces of the benchmark driver: clocks, order statistics, the
// metric report, and the two tracing decorators that time calls into the
// library's layers from outside (the library itself is not instrumented).
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/coordinator.h"
#include "journal/writer.h"
#include "scheduler/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median of a non-empty sample (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample, p in [0, 100].
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size()))) - 1;
  return sorted[idx];
}

// The highest percentile that still has at least ten samples beyond it,
// with its value (the guide's tail statistic for `n` samples).
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
inline Tail tail_of(const std::vector<double>& sorted) {
  Tail t;
  t.samples = sorted.size();
  if (sorted.size() <= 10) return t;
  t.pct = 100.0 * (1.0 - 10.0 / static_cast<double>(sorted.size()));
  t.value = percentile_sorted(sorted, t.pct);
  return t;
}

// FNV-1a over a byte string: the digest a run reports for its result.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// splitmix64: the benchmark's own input generator, independent of the
// library's random streams so a change to those cannot change the inputs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// Named metrics with units, in insertion order; printed as one JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) s += ",";
      s += "\"" + metrics_[i].name + "\":{\"value\":" + num(metrics_[i].value) +
           ",\"unit\":\"" + metrics_[i].unit + "\"}";
    }
    return s + "}";
  }
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// Deterministic work counters: name -> exact count. Two runs of the same
// code and seed must produce identical maps.
using Counters = std::map<std::string, std::uint64_t>;

inline std::string counters_json(const Counters& c) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : c) {
    if (!first) s += ",";
    first = false;
    s += "\"" + k + "\":" + std::to_string(v);
  }
  return s + "}";
}

// ---------------------------------------------------------------------------
// Scheduler decorator: forwards every call to the wrapped policy and times
// it. Purely observational — the policy sees identical arguments in
// identical order, so a decorated run's result equals an undecorated one
// (the benchmark checks exactly that through the result digest).
//
// It also splits the scheduler's time into calls made inside an idle-pool
// sweep (already part of ShardStats::sweep_wall_s) and calls outside one,
// from the coordinator's public counters alone. The classification rests on
// three facts of the coordinator and resource manager:
//   * an assign() call comes either from a device check-in, which calls
//     on_device_checkin() immediately before it with no sweep offer in
//     between, or from a sweep offer, which bumps sweep_offers first;
//   * other callbacks inside a sweep follow an in-sweep assign() of the same
//     sweep (they are fired by the assignment's outcome);
//   * a sweep bumps `sweeps` when it starts and adds its (non-zero) length
//     to sweep_wall_s when it ends, so both are unchanged while it runs.
// The counts `sweep_assigns <= core.sweep_offers` and
// `assign_calls - sweep_assigns <= checkin_calls` follow; test_counters.py
// asserts them.
class TimedScheduler final : public venn::Scheduler {
 public:
  struct Stats {
    std::uint64_t order_calls = 0;    // on_queue_change (IRS under venn)
    std::uint64_t assign_calls = 0;
    std::uint64_t assign_idle = 0;    // assign returned nullopt
    std::uint64_t checkin_calls = 0;
    std::uint64_t feedback_calls = 0;  // on_response + on_round_complete
    std::uint64_t sweep_assigns = 0;   // assign calls made by a sweep offer
    std::uint64_t in_sweep_calls = 0;  // every callback made inside a sweep
    double order_s = 0.0;
    double assign_s = 0.0;
    double checkin_s = 0.0;
    double feedback_s = 0.0;
    double in_sweep_s = 0.0;  // part of the above spent inside sweeps
    [[nodiscard]] double total_s() const {
      return order_s + assign_s + checkin_s + feedback_s;
    }
  };

  TimedScheduler(std::unique_ptr<venn::Scheduler> inner, Stats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  // The coordinator whose counters classify calls as inside a sweep or not.
  void watch(const venn::Coordinator* coord) { coord_ = coord; }

  // True while the sweep of the latest in-sweep assign() is still running:
  // it has neither ended nor been followed by another.
  [[nodiscard]] bool inside_sweep() const {
    return coord_ != nullptr && sweep_mark_ &&
           *sweep_mark_ == std::pair{coord_->hotpath_stats().sweeps,
                                     coord_->shard_stats().sweep_wall_s};
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void on_device_checkin(const venn::DeviceView& dev,
                         venn::SimTime now) override {
    const bool in_sweep = inside_sweep();
    const auto t0 = Clock::now();
    inner_->on_device_checkin(dev, now);
    add(stats_->checkin_s, stats_->checkin_calls, seconds_since(t0), in_sweep);
    if (coord_ != nullptr) checkin_offers_ = coord_->hotpath_stats().sweep_offers;
    checkin_pending_ = true;
  }
  void on_queue_change(std::span<const venn::PendingJob> pending,
                       venn::SimTime now) override {
    const bool in_sweep = inside_sweep();
    const auto t0 = Clock::now();
    inner_->on_queue_change(pending, now);
    add(stats_->order_s, stats_->order_calls, seconds_since(t0), in_sweep);
  }
  void on_response(venn::JobId job, double capacity, double response_time,
                   venn::SimTime now) override {
    const bool in_sweep = inside_sweep();
    const auto t0 = Clock::now();
    inner_->on_response(job, capacity, response_time, now);
    add(stats_->feedback_s, stats_->feedback_calls, seconds_since(t0), in_sweep);
  }
  void on_round_complete(venn::JobId job, venn::SimTime sched_delay,
                         venn::SimTime response_time,
                         venn::SimTime now) override {
    const bool in_sweep = inside_sweep();
    const auto t0 = Clock::now();
    inner_->on_round_complete(job, sched_delay, response_time, now);
    add(stats_->feedback_s, stats_->feedback_calls, seconds_since(t0), in_sweep);
  }
  [[nodiscard]] std::optional<std::size_t> assign(
      const venn::DeviceView& dev, std::span<const venn::PendingJob> candidates,
      venn::SimTime now) override {
    bool in_sweep = false;
    if (coord_ != nullptr) {
      const std::uint64_t offers = coord_->hotpath_stats().sweep_offers;
      in_sweep = !(checkin_pending_ && offers == checkin_offers_);
      if (in_sweep) {
        sweep_mark_ = {coord_->hotpath_stats().sweeps,
                       coord_->shard_stats().sweep_wall_s};
        ++stats_->sweep_assigns;
      }
    }
    checkin_pending_ = false;
    const auto t0 = Clock::now();
    auto pick = inner_->assign(dev, candidates, now);
    add(stats_->assign_s, stats_->assign_calls, seconds_since(t0), in_sweep);
    if (!pick) ++stats_->assign_idle;
    return pick;
  }

 private:
  void add(double& secs, std::uint64_t& calls, double dt, bool in_sweep) {
    secs += dt;
    ++calls;
    if (in_sweep) {
      stats_->in_sweep_s += dt;
      ++stats_->in_sweep_calls;
    }
  }

  std::unique_ptr<venn::Scheduler> inner_;
  Stats* stats_;
  const venn::Coordinator* coord_ = nullptr;
  bool checkin_pending_ = false;     // on_device_checkin seen, assign not yet
  std::uint64_t checkin_offers_ = 0;  // sweep_offers at that check-in
  // (sweeps, sweep_wall_s) at the latest in-sweep assign.
  std::optional<std::pair<std::uint64_t, double>> sweep_mark_;
};

// ---------------------------------------------------------------------------
// Journal sink decorator around a JournalWriter: times every event the
// coordinator hands the journal (encode + buffer append, and the flush the
// writer performs on commit/abort records). Calls made inside an idle-pool
// sweep, as the scheduler decorator classifies them, are also summed apart.
class TimedSink final : public venn::journal::JournalSink {
 public:
  TimedSink(venn::journal::JournalWriter& writer, const TimedScheduler& sched,
            double* encode_s, double* in_sweep_s)
      : w_(writer), sched_(sched), encode_s_(encode_s), in_sweep_s_(in_sweep_s) {}

  void on_checkin(venn::SimTime now, std::size_t dev, bool assigned) override {
    timed([&] { w_.on_checkin(now, dev, assigned); });
  }
  void on_checkout(venn::SimTime now, std::size_t dev) override {
    timed([&] { w_.on_checkout(now, dev); });
  }
  void on_submit(venn::SimTime now, venn::JobId job, int round, int target,
                 int threshold) override {
    timed([&] { w_.on_submit(now, job, round, target, threshold); });
  }
  void on_admission(venn::SimTime now, venn::JobId job,
                    const venn::trace::JobSpec& spec) override {
    timed([&] { w_.on_admission(now, job, spec); });
  }
  void on_assignment(venn::SimTime now, std::size_t dev, venn::JobId job,
                     venn::RequestId request, int round) override {
    timed([&] { w_.on_assignment(now, dev, job, request, round); });
  }
  void on_response(venn::SimTime now, venn::JobId job, venn::RequestId request,
                   std::size_t dev, int staleness) override {
    timed([&] { w_.on_response(now, job, request, dev, staleness); });
  }
  void on_commit(venn::SimTime now, venn::JobId job, venn::RequestId request,
                 int round, int responses) override {
    timed([&] { w_.on_commit(now, job, request, round, responses); });
  }
  void on_abort(venn::SimTime now, venn::JobId job, venn::RequestId request,
                int round, int responses) override {
    timed([&] { w_.on_abort(now, job, request, round, responses); });
  }
  void on_straggler_release(venn::SimTime now, std::size_t dev,
                            venn::JobId job) override {
    timed([&] { w_.on_straggler_release(now, dev, job); });
  }
  void on_job_finish(venn::SimTime now, venn::JobId job,
                     venn::SimTime jct) override {
    timed([&] { w_.on_job_finish(now, job, jct); });
  }
  void on_snapshot(const venn::journal::StateSnapshot& snapshot) override {
    timed([&] { w_.on_snapshot(snapshot); });
  }
  void on_run_end(venn::SimTime now) override {
    timed([&] { w_.on_run_end(now); });
  }

 private:
  template <typename Fn>
  void timed(Fn&& fn) {
    const bool in_sweep = sched_.inside_sweep();
    const auto t0 = Clock::now();
    fn();
    const double dt = seconds_since(t0);
    *encode_s_ += dt;
    if (in_sweep) *in_sweep_s_ += dt;
  }

  venn::journal::JournalWriter& w_;
  const TimedScheduler& sched_;
  double* encode_s_;
  double* in_sweep_s_;
};

// Adds a finished session's deterministic work counters.
inline void add_work_counters(Counters& c, const venn::Coordinator& coord,
                              std::uint64_t events) {
  const auto& hs = coord.hotpath_stats();
  const auto& ps = coord.protocol_stats();
  c["sim.events"] += events;
  c["core.sweeps"] += hs.sweeps;
  c["core.sweep_visits"] += hs.sweep_visits;
  c["core.sweep_offers"] += hs.sweep_offers;
  c["core.sweep_skips"] += hs.sweep_skips;
  c["core.resweeps"] += hs.resweeps;
  c["core.supply_queries"] += hs.supply_queries;
  c["core.sessions_streamed"] += coord.sessions_streamed();
  c["protocol.commits"] += ps.commits;
  c["protocol.responses"] += ps.responses;
  c["protocol.wasted_responses"] += ps.wasted_responses;
}

inline void add_scheduler_counters(Counters& c, const TimedScheduler::Stats& s) {
  c["scheduler.order_calls"] = s.order_calls;
  c["scheduler.assign_calls"] = s.assign_calls;
  c["scheduler.assign_idle"] = s.assign_idle;
  c["scheduler.checkin_calls"] = s.checkin_calls;
  c["scheduler.feedback_calls"] = s.feedback_calls;
  c["scheduler.sweep_assigns"] = s.sweep_assigns;
  c["scheduler.in_sweep_calls"] = s.in_sweep_calls;
}

// Spreads the repeats of a run over the CPUs it may use. On a shared host
// one CPU at a time turns slow for tens of seconds (its neighbours' load,
// not this program), so the repeats of one step run on different CPUs and
// the fastest of them is the program's own speed. pin(k) binds the calling
// thread, and every process it starts afterwards, to the k-th allowed CPU,
// cycling.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }
  void pin(std::size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[k % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  [[nodiscard]] std::string json() const {
    std::string s;
    for (int c : cpus_) {
      if (!s.empty()) s += ',';
      s += std::to_string(c);
    }
    return "[" + s + "]";
  }

 private:
  std::vector<int> cpus_;
};

// What one workload run produced, before formatting.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks, for stderr
  Report end_to_end;
  Report per_layer;
  Counters counters;                       // deterministic work counts
  std::map<std::string, std::string> digests;  // result digests
  std::string detail;                      // extra JSON fields (no braces)
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     // scratch directory for files a run writes
  std::string daemon_path;  // venn_coordinatord binary
};

Outcome run_batch(const Options& opt);
Outcome run_service(const Options& opt);

// Peak resident set of this process so far, in bytes.
double self_peak_rss_bytes();

}  // namespace perfbench
