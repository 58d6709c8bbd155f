// venn_sim_cli — command-line experiment runner.
//
// Runs one simulated CL workload through a chosen policy and prints the full
// metric set. Every flag is a `key=value` override applied to the
// ScenarioSpec / PolicySpec parsers (the same path benches and code use), so
// sweeping configurations needs no code:
//
//   venn_sim_cli --policy=venn --jobs=50 --devices=7000 --workload=even
//                --seed=42 --epsilon=0 --tiers=3 [--bias=compute]
//                [--compare] [--breakdown] [--timeline] [--list]
//
//   scenario keys   seed, devices, jobs, workload (even|small|large|low|
//                   high), bias (none|general|compute|memory|resource),
//                   horizon-days, min-rounds, max-rounds, min-demand,
//                   max-demand, interarrival-min, base-trace, task-s, task-cv
//   generator keys  arrival=<name> + arrival.<key>, mix=<name> + mix.<key>,
//                   churn=<name> + churn.<key> (see --list for names/keys),
//                   open-loop (0|1, admit jobs mid-run)
//   protocol keys   protocol=<sync|overcommit|async> + protocol.<key>
//                   (round-aggregation regime; see --list for knobs)
//   topology keys   topology (flat|hier), topo.regions (2-64),
//                   topo.sync_latency (region->global uplink seconds;
//                   0 is byte-identical to flat), topo.phase_spread
//                   (diurnal spread across regions, hours)
//   durability keys journal (0|1, append-only event journal of the run),
//                   journal.dir (where journal files land, default .),
//                   snapshot_every (snapshot coordinator state every N
//                   commits), journal.halt-after (testing: inject a crash
//                   after N flushed commits)
//   policy keys     policy (any registered name), epsilon, tiers,
//                   supply-window-h, tail-pct, ewma-alpha, order-total,
//                   param.<key> (free-form, for external policies)
//   --compare       additionally run all baselines on the same trace
//   --breakdown     per-category JCT breakdowns
//   --timeline      daily assignment rate from the TimeSeriesRecorder
//   --list          print registered policies and workload generators
//                   (with their accepted keys) and exit
//   --list-policies print the policy registry contents and exit
//
// Inspect subcommand — time-travel over a journaled run:
//
//   venn_sim_cli inspect <file.vjl> [--seek-commit N]
//
//   Replays the journal to commit N (default: the last commit) and prints
//   a read-only state dump: sim clock, idle-pool size, per-job
//   progress and open requests, protocol counters, eligibility-index
//   summary. When a snapshot is stored at commit N the replayed state is
//   compared against it byte for byte. Seeking past the last commit
//   refuses cleanly. `--version` prints the build identification line.
//
// Replay subcommand — byte-identical re-execution of a journaled run:
//
//   venn_sim_cli replay <file.vjl> [--resume] [--tolerate-torn-tail]
//                [--no-snapshot-verify]
//
//   Rebuilds the experiment from the journal header, re-runs it and
//   verifies every event byte-for-byte against the journal. --resume lets
//   a crashed journal end early and continues the run live past its end;
//   --tolerate-torn-tail additionally accepts a torn/corrupt final record.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "service/inspect.h"
#include "util/build_info.h"
#include "venn/venn.h"

using namespace venn;

namespace {

void print_run(const RunResult& r) {
  if (r.jobs.empty()) {
    // Degenerate-but-legal run (horizon too short for any arrival, or a
    // zero-job workload): there is no mean JCT. Omit the metric rather
    // than crash — bench/orchestrate.py's aggregation already tolerates a
    // missing "avg JCT" label and records the finished count.
    std::printf("%-16s finished 0/0   aborts 0   (no jobs ran)\n",
                r.scheduler.c_str());
    return;
  }
  std::printf("%-16s avg JCT %10.0f s   finished %zu/%zu   aborts %d\n",
              r.scheduler.c_str(), r.avg_jct(), r.finished_jobs(),
              r.jobs.size(), [&] {
                int a = 0;
                for (const auto& j : r.jobs) a += j.total_aborts;
                return a;
              }());
  const auto sd = r.scheduling_delays();
  const auto rt = r.response_times();
  if (!sd.empty() && !rt.empty()) {
    std::printf("  sched delay  mean %8.0f s  p50 %8.0f  p95 %8.0f\n",
                sd.mean(), sd.median(), sd.percentile(95));
    std::printf("  resp collect mean %8.0f s  p50 %8.0f  p95 %8.0f\n",
                rt.mean(), rt.median(), rt.percentile(95));
  }
  std::printf("  avg concurrency %.1f   fair-share hit rate %.0f%%\n",
              r.avg_concurrency(), r.fair_share_hit_rate() * 100.0);
}

void print_breakdown(const RunResult& r) {
  std::printf("  per category:\n");
  for (ResourceCategory c : all_categories()) {
    std::size_t n = 0;
    for (const auto& j : r.jobs) n += (j.spec.category == c) ? 1 : 0;
    if (n == 0) continue;
    std::printf("    %-14s n=%-3zu avg JCT %10.0f s\n",
                category_name(c).c_str(), n,
                avg_jct_where(r, [c](const JobResult& j) {
                  return j.spec.category == c;
                }));
  }
}

void print_timeline(const TimeSeriesRecorder& recorder, SimTime horizon) {
  std::printf("  assignments per day (TimeSeriesRecorder):\n");
  for (SimTime t = kDay; t <= horizon; t += kDay) {
    const double rate = recorder.assignment_rate(t, kDay);
    const auto per_day = static_cast<long long>(rate * kDay + 0.5);
    if (per_day == 0) continue;
    std::printf("    day %2.0f  %6lld  %s\n", t / kDay, per_day,
                std::string(static_cast<std::size_t>(
                                std::min(per_day / 20LL, 60LL)),
                            '#')
                    .c_str());
  }
}

int run_replay(int argc, char** argv) {
  std::string path;
  ReplayOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume") { opts.resume = true; continue; }
    if (arg == "--tolerate-torn-tail") { opts.tolerate_torn_tail = true; continue; }
    if (arg == "--no-snapshot-verify") { opts.verify_snapshot = false; continue; }
    if (arg.rfind("--", 0) == 0 || !path.empty()) {
      std::fprintf(stderr, "replay: unrecognized argument: %s\n", arg.c_str());
      return 2;
    }
    path = arg;
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: venn_sim_cli replay <file.vjl> [--resume] "
                 "[--tolerate-torn-tail] [--no-snapshot-verify]\n");
    return 2;
  }
  try {
    const ReplayReport report = Experiment::replay(path, opts);
    std::printf("replay of %s verified: %llu events byte-identical\n",
                path.c_str(),
                static_cast<unsigned long long>(report.events_verified));
    for (const std::string& skipped : report.snapshots_skipped) {
      std::printf("  snapshot at %s; skipped\n", skipped.c_str());
    }
    if (report.snapshot_verified) {
      std::printf("  snapshot at commit %llu compared clean\n",
                  static_cast<unsigned long long>(report.snapshot_commits));
    } else if (!report.snapshots_skipped.empty()) {
      std::printf("  no readable snapshot; verified against the journal "
                  "alone\n");
    }
    if (report.resumed_past_journal) {
      std::printf("  journal ended mid-run; continued live to completion\n");
    }
    print_run(report.result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_inspect(int argc, char** argv) {
  std::string path;
  service::InspectOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seek-commit" && i + 1 < argc) {
      opts.seek_commit = std::strtoull(argv[++i], nullptr, 10);
      continue;
    }
    if (arg.rfind("--seek-commit=", 0) == 0) {
      opts.seek_commit = std::strtoull(arg.c_str() + 14, nullptr, 10);
      continue;
    }
    if (arg.rfind("--", 0) == 0 || !path.empty()) {
      std::fprintf(stderr, "inspect: unrecognized argument: %s\n",
                   arg.c_str());
      return 2;
    }
    path = arg;
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: venn_sim_cli inspect <file.vjl> [--seek-commit N]\n");
    return 2;
  }
  try {
    const service::InspectReport report = service::inspect_journal(path, opts);
    std::fputs(report.text.c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "inspect error: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", build_info_line().c_str());
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "replay") == 0) {
    return run_replay(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "inspect") == 0) {
    return run_inspect(argc, argv);
  }

  ExperimentBuilder builder;
  bool compare = false, breakdown = false, timeline = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::printf("see the header comment of examples/venn_sim_cli.cpp\n");
      return 0;
    }
    if (arg == "--list-policies") {
      for (const auto& name : PolicyRegistry::instance().names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (arg == "--list") {
      std::printf("policies (policy=<name>, knobs as <key>=<value>):\n");
      for (const auto& name : PolicyRegistry::instance().names()) {
        std::printf("  %s\n", name.c_str());
      }
      std::printf(
          "  keys: epsilon tiers supply-window-h tail-pct ewma-alpha "
          "order-total param.<key>\n");
      std::printf("%s", workload::describe_generators().c_str());
      std::printf("%s", protocol::describe_protocols().c_str());
      std::printf(
          "topology (scenario keys):\n"
          "  topology=<flat|hier>    coordination topology (default flat: "
          "one\n"
          "                          global coordinator loop)\n"
          "  topo.regions=<2-64>     regional edge coordinators, each owning "
          "a\n"
          "                          contiguous device range (hier; default "
          "4)\n"
          "  topo.sync_latency=<s>   region->global result uplink latency in\n"
          "                          seconds (default 0; at 0 hier is byte-\n"
          "                          identical to flat)\n"
          "  topo.phase_spread=<h>   diurnal peak spread across regions in\n"
          "                          hours - per-region timezones (default "
          "0)\n");
      std::printf(
          "durability (scenario keys):\n"
          "  journal=<0|1>        append-only event journal (default 0)\n"
          "  journal.dir=<path>   journal file directory (default .)\n"
          "  snapshot_every=<N>   snapshot coordinator state every N "
          "commits\n"
          "  journal.halt-after=<N> inject a crash after N flushed commits\n"
          "  (replay a journal: venn_sim_cli replay <file.vjl>)\n");
      return 0;
    }
    if (arg == "--compare") { compare = true; continue; }
    if (arg == "--breakdown") { breakdown = true; continue; }
    if (arg == "--timeline") { timeline = true; continue; }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      return 2;
    }
    try {
      builder.override_kv(arg.substr(2));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  // The recorder resets at each run start, so the timeline must be printed
  // after the main run and before any comparison runs.
  TimeSeriesRecorder recorder;
  if (timeline) builder.observe(recorder);

  try {
    const auto ex = builder.build();
    const RunResult main_run = ex.run(builder.current_policy());
    print_run(main_run);
    if (breakdown) print_breakdown(main_run);
    if (timeline) {
      print_timeline(recorder, builder.current_scenario().horizon);
    }

    if (compare) {
      std::printf("\ncomparison on the same trace:\n");
      const RunResult base = ex.run("random");
      for (const char* name : {"random", "fifo", "srsf", "venn"}) {
        // Baselines keep the user's policy knobs (epsilon, tiers, ...) so
        // the comparison matches the main run's configuration.
        const PolicySpec spec{name, builder.current_policy().params};
        const RunResult r =
            (std::strcmp(name, "random") == 0) ? base : ex.run(spec);
        if (base.jobs.empty() || r.jobs.empty()) {
          // No jobs on this trace — there is no JCT ratio to report.
          std::printf("  %-8s finished 0/0\n", r.scheduler.c_str());
          continue;
        }
        std::printf("  %-8s %10.0f s   %s vs random\n", r.scheduler.c_str(),
                    r.avg_jct(), format_ratio(improvement(base, r)).c_str());
        if (breakdown) print_breakdown(r);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
