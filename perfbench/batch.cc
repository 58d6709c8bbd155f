// Batch workload (contention): whole simulated runs driven through
// api::LiveSession.
//
// One repetition builds the experiment (input generation) and opens and
// starts its session (together: set-up), then advances the session to its
// horizon in fixed simulated steps and finishes it (the timed phase). Each
// advance_to step is one "operation" for the latency metrics: how long the
// coordinator takes to process a fixed slice of fleet time.
//
// A run covers several inputs and repeats each one at least twice, in
// rounds (input 1, 2, ..., then again), so the repeats of one input are
// spread over the run and over the CPUs. The work is deterministic, so every
// repeat of an input does the same steps and must produce the same result;
// only interference from the host makes one repeat slower than another. Each step's time is therefore
// its fastest repeat, an input's wall time is the sum of those, and the run
// reports the median over its inputs.
#include <sys/resource.h>

#include <memory>
#include <numeric>
#include <stdexcept>

#include "api/live.h"
#include "api/registry.h"
#include "common.h"
#include "service/dump.h"
#include "venn/venn.h"

namespace perfbench {

using venn::api::ExperimentBuilder;
using venn::api::LiveSession;
using venn::api::ScenarioSpec;

double self_peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

namespace {

constexpr int kMinBudget = 3;        // repetitions of an untraced run, at least
constexpr int kRepeatsPerInput = 2;  // each input on two CPUs; more inputs
                                     // beat more repeats (inputs differ)

constexpr const char* kPolicy = "venn";
constexpr double kStepS = 60.0;  // simulated length of one advance_to operation

ScenarioSpec with(ScenarioSpec sc,
                  const std::vector<std::pair<std::string, std::string>>& kv) {
  for (const auto& [k, v] : kv) {
    if (!sc.try_set(k, v)) throw std::invalid_argument("unknown key " + k);
  }
  return sc;
}

ScenarioSpec make_scenario(const std::string& workload, std::uint64_t seed) {
  if (workload != "contention") {
    throw std::invalid_argument("unknown batch workload " + workload);
  }
  ScenarioSpec base;
  base.seed = seed;
  return with(base, {{"name", "contention"},
                     {"devices", "20000"},
                     {"jobs", "400"},
                     {"interarrival-min", "5"}});
}

// One repetition's measurements.
struct Rep {
  bool traced = false;
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double build_s = 0.0;  // ExperimentBuilder::build
  double start_s = 0.0;  // LiveSession::start
  double wall_s = 0.0;   // timed phase: advance_to steps + finish
  double sweep_s = 0.0;  // ShardStats::sweep_wall_s
  std::vector<double> step_us;
  TimedScheduler::Stats sched;
  Counters counters;
  std::string digest;  // of the RunResult dump
  std::uint64_t resident_sessions = 0;  // after start()
};

// Set-up (input generation, session construction and start), then the
// timed phase, then the output checks. A throw anywhere fails the
// repetition; the message names the phase's check.
Rep repetition(const ScenarioSpec& scenario, bool traced) {
  Rep rep;
  rep.traced = traced;
  try {
    const auto t_setup = Clock::now();
    auto t0 = Clock::now();
    const venn::api::Experiment ex =
        ExperimentBuilder().scenario(scenario).build();
    rep.build_s = seconds_since(t0);
    std::unique_ptr<venn::Scheduler> sched =
        venn::api::PolicyRegistry::instance().create(kPolicy, {},
                                                     ex.stream_seed("scheduler"));
    TimedScheduler* timed = nullptr;
    if (traced) {
      auto t = std::make_unique<TimedScheduler>(std::move(sched), &rep.sched);
      timed = t.get();
      sched = std::move(t);
    }
    LiveSession live(ex, std::move(sched), std::string{}, nullptr);
    if (timed != nullptr) timed->watch(&live.coordinator());
    t0 = Clock::now();
    live.start();
    rep.start_s = seconds_since(t0);
    rep.setup_s = seconds_since(t_setup);
    rep.resident_sessions = live.coordinator().resident_session_count();

    const auto t_wall = Clock::now();
    for (double t = kStepS; t < live.horizon(); t += kStepS) {
      t0 = Clock::now();
      live.advance_to(t);
      rep.step_us.push_back(seconds_since(t0) * 1e6);
    }
    t0 = Clock::now();
    const venn::RunResult result = live.finish();
    rep.step_us.push_back(seconds_since(t0) * 1e6);
    rep.wall_s = seconds_since(t_wall);

    // Output checks: every input job is reported, finished or censored.
    const std::size_t jobs = ex.inputs().jobs.size();
    std::size_t censored = 0;
    for (const auto& j : result.jobs) censored += j.finished ? 0 : 1;
    const std::size_t finished = result.finished_jobs();
    if (result.jobs.size() != jobs || finished + censored != jobs) {
      throw std::runtime_error(
          "job counts inconsistent: finished " + std::to_string(finished) +
          " + censored " + std::to_string(censored) + " != jobs " +
          std::to_string(jobs));
    }
    rep.digest = hex64(fnv1a(venn::service::dump_run(result, nullptr)));
    const venn::Coordinator& coord = live.coordinator();
    add_work_counters(rep.counters, coord, live.engine().events_executed());
    rep.counters["jobs.total"] = jobs;
    rep.counters["jobs.finished"] = finished;
    rep.sweep_s = coord.shard_stats().sweep_wall_s;
    if (traced) add_scheduler_counters(rep.counters, rep.sched);
    rep.ok = true;
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  return rep;
}

// True when `b` reports the same result and the same value for every work
// counter `a` reports.
bool same_work(const Rep& a, const Rep& b) {
  if (a.digest != b.digest) return false;
  for (const auto& [name, v] : a.counters) {
    const auto it = b.counters.find(name);
    if (it == b.counters.end() || it->second != v) return false;
  }
  return true;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename F>
double median_of(const std::vector<const Rep*>& reps, F f) {
  std::vector<double> v;
  for (const Rep* r : reps) v.push_back(f(*r));
  return median(v);
}

// Expected length of one repetition (set-up included) on a 4-core host. It
// sizes how many repetitions a run makes, so the count is a pure function
// of the command line and every counter repeats exactly.
constexpr double kRepetitionEstimateS = 3.5;

std::uint64_t events_of(const Rep& r) {
  const auto it = r.counters.find("sim.events");
  return it == r.counters.end() ? 0 : it->second;
}

}  // namespace

Outcome run_batch(const Options& opt) {
  Outcome out;
  // Inputs come from --seed. Untraced, each input runs `repeats` times;
  // with tracing on, each runs once untraced and once traced: the two
  // results must be equal, and the pair measures the tracing overhead under
  // the same host conditions.
  const int budget = std::max(
      kMinBudget, static_cast<int>(opt.seconds / kRepetitionEstimateS));
  const int inputs = std::max(1, budget / kRepeatsPerInput);
  const int repeats = budget / inputs;
  SplitMix seeds(opt.seed);
  std::vector<ScenarioSpec> plans;
  for (int i = 0; i < inputs; ++i) {
    plans.push_back(make_scenario(opt.workload, seeds.next() >> 1));
  }
  // reps[i] holds input i's repetitions in run order.
  // Input i's repeat r runs on CPU r + i (cycling), so an input's repeats
  // land on different CPUs; a traced pair shares one.
  std::vector<std::vector<Rep>> reps(plans.size());
  const CpuRotation cpus;
  const int rounds = opt.trace ? 1 : repeats;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      cpus.pin(static_cast<std::size_t>(r) + i);
      reps[i].push_back(repetition(plans[i], false));
      if (opt.trace) reps[i].push_back(repetition(plans[i], true));
    }
  }

  // Checks: every repetition passed its own checks, and every repetition of
  // an input (traced ones included) did the same work with the same result.
  std::vector<const Rep*> plain, traced;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const std::string input = "input " + std::to_string(i);
    for (const Rep& r : reps[i]) {
      ++out.attempted;
      (r.traced ? traced : plain).push_back(&r);
      if (!r.ok) {
        ++out.failed;
        out.errors.push_back(input + ": " + r.error);
      } else if (!same_work(reps[i].front(), r)) {
        ++out.failed;
        out.errors.push_back(input + ": a " + (r.traced ? "traced" : "repeated") +
                             " run differs (result digest or work counter)");
      }
    }
    out.digests[std::to_string(i) + ":" + plans[i].name + "/" + kPolicy] =
        reps[i].front().digest;
  }

  // Work counters of the first input (traced: with the scheduler's too).
  out.counters = (traced.empty() ? plain : traced).front()->counters;
  const double peak_rss = self_peak_rss_bytes();
  if (!opt.trace) {
    // Each step's fastest time over the input's repeats; the input's wall
    // time is the sum of those.
    std::vector<double> walls, steps, setups;
    for (const std::vector<Rep>& input : reps) {
      std::vector<double> fastest;
      for (const Rep& r : input) {
        // Repeats of one input do the same work (checked above), so they
        // take the same steps; a failed repeat has nothing to compare.
        if (!r.ok || r.step_us.size() != input.front().step_us.size()) continue;
        setups.push_back(r.setup_s);
        if (fastest.empty()) {
          fastest = r.step_us;
          continue;
        }
        for (std::size_t s = 0; s < fastest.size(); ++s) {
          fastest[s] = std::min(fastest[s], r.step_us[s]);
        }
      }
      if (fastest.empty()) continue;
      walls.push_back(std::accumulate(fastest.begin(), fastest.end(), 0.0) / 1e6);
      steps.insert(steps.end(), fastest.begin(), fastest.end());
    }
    std::sort(steps.begin(), steps.end());
    Report& e = out.end_to_end;
    e.add("wall_s", median(walls), "s");
    e.add("setup_s", median(setups), "s");
    e.add("peak_rss_mb", peak_rss / (1024.0 * 1024.0), "MB");
    e.add("op_p50_us", percentile_sorted(steps, 50.0), "us");
    e.add("op_p99_us", percentile_sorted(steps, 99.0), "us");
    const Tail tail = tail_of(steps);
    std::string all_walls;
    for (const Rep* r : plain) {
      if (!all_walls.empty()) all_walls += ',';
      all_walls += Report::num(r->wall_s);
    }
    out.detail = "\"inputs\":" + std::to_string(plans.size()) +
                 ",\"repeats\":" + std::to_string(repeats) +
                 ",\"cpus\":" + cpus.json() +
                 ",\"rep_wall_s\":[" + all_walls + "]" +
                 ",\"op\":\"advance_to step of " + Report::num(kStepS) +
                 " simulated s, fastest of the input's repeats\"" +
                 ",\"op_tail\":{\"pct\":" + Report::num(tail.pct) +
                 ",\"us\":" + Report::num(tail.value) +
                 ",\"samples\":" + std::to_string(tail.samples) + "}";
    return out;
  }

  // Per-layer metrics, from the traced repetitions (medians of times).
  auto t_med = [&](auto f) { return median_of(traced, f); };
  const auto c = [&](const char* k) {
    const auto it = out.counters.find(k);
    return it == out.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  Report& p = out.per_layer;
  p.add("api.build_s", t_med([](const Rep& r) { return r.build_s; }), "s");
  p.add("api.start_s", t_med([](const Rep& r) { return r.start_s; }), "s");
  p.add("sim.events", c("sim.events"), "count");
  p.add("sim.events_per_s",
        t_med([](const Rep& r) {
          return ratio(static_cast<double>(events_of(r)), r.wall_s);
        }), "1/s");
  p.add("scheduler.order_calls", c("scheduler.order_calls"), "count");
  p.add("scheduler.order_s", t_med([](const Rep& r) { return r.sched.order_s; }), "s");
  p.add("scheduler.assign_calls", c("scheduler.assign_calls"), "count");
  p.add("scheduler.assign_s", t_med([](const Rep& r) { return r.sched.assign_s; }), "s");
  p.add("scheduler.assign_idle_ratio",
        ratio(c("scheduler.assign_idle"), c("scheduler.assign_calls")), "ratio");
  p.add("scheduler.checkin_s", t_med([](const Rep& r) { return r.sched.checkin_s; }), "s");
  p.add("scheduler.feedback_s", t_med([](const Rep& r) { return r.sched.feedback_s; }), "s");
  p.add("core.sweeps", c("core.sweeps"), "count");
  p.add("core.sweep_visits", c("core.sweep_visits"), "count");
  p.add("core.sweep_offer_ratio", ratio(c("core.sweep_offers"), c("core.sweep_visits")),
        "ratio");
  p.add("core.sweep_s", t_med([](const Rep& r) { return r.sweep_s; }), "s");
  p.add("core.resweeps", c("core.resweeps"), "count");
  p.add("core.supply_queries", c("core.supply_queries"), "count");
  // Residual: run wall minus the sweeps and the scheduler calls made
  // outside them (calls inside a sweep are part of the sweep's time).
  p.add("core.other_s", t_med([](const Rep& r) {
          return r.wall_s - r.sweep_s - (r.sched.total_s() - r.sched.in_sweep_s);
        }), "s");
  p.add("core.sessions_streamed", c("core.sessions_streamed"), "count");
  p.add("core.resident_sessions",
        static_cast<double>(traced.front()->resident_sessions), "count");
  p.add("fleet.rss_bytes_per_device",
        peak_rss / static_cast<double>(plans.front().num_devices), "B");
  p.add("protocol.commits", c("protocol.commits"), "count");
  p.add("protocol.useful_response_ratio",
        ratio(c("protocol.responses"),
              c("protocol.responses") + c("protocol.wasted_responses")),
        "ratio");
  const double u = median_of(plain, [](const Rep& r) { return r.wall_s; });
  const double t = t_med([](const Rep& r) { return r.wall_s; });
  p.add("trace.overhead_s", t - u, "s");
  p.add("trace.overhead_pct", ratio(t - u, u) * 100.0, "%");
  out.detail = "\"inputs\":" + std::to_string(plans.size()) +
               ",\"traced_repetitions\":" + std::to_string(traced.size());
  return out;
}

}  // namespace perfbench
