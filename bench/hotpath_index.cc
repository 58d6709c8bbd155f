// Scheduler hot-path benchmark for the incremental eligibility index.
//
// Sweeps devices × jobs cells (default {1k, 10k, 100k} × {4, 16, 64}),
// runs a streaming-churn scenario per cell and reports events/sec,
// per-event µs and the deterministic hot-path work counters — idle-pool
// sweep visits, skips and offers, supply queries, manager offers and
// candidate entries scanned — each per event, plus the event count and the
// event queue's peak pending count. Results are written to
// BENCH_hotpath.json, the repo's perf trajectory; CI re-runs the quick
// cells and fails if any cell's per-event work counter, event count or
// queue peak exceeds the checked-in baseline
// (bench/baselines/hotpath_baseline.json). The counters are a pure
// function of the simulation, not of the machine, so the gate is exact and
// the baseline does not need to come from the CI runner class (absolute
// ev/s varies well beyond any useful tolerance across machines).
//
// Usage:
//   hotpath_index [--quick] [--out=BENCH_hotpath.json]
//                 [--baseline=path] [--horizon-days=0.25] [--seed=77]
//                 [--repeats=5] [--max-journal-overhead=0.10]
//
//   --quick      CI-sized run: {1k, 10k} devices × {4, 16} jobs, and a
//                150k-device sweep cell instead of 1M.
//   --baseline   compare against a previous output file: exit 1 if any
//                cell's per-event work counter, event count or
//                event-queue peak exceeds the baseline's, or if no cell
//                could be matched against the baseline.
//   --repeats    run each cell N times; wall times are reported as the
//                median with the min and max (on an even N the lower of
//                the two middle runs). Every repeat must reproduce the
//                first one's counters exactly.
//
// Sweep cells, at 1M devices (`--quick`: 150k), both under the same
// baseline gate as every other cell:
//  * "sweep": an insatiable high-performance job that no device qualifies
//    for keeps the wants mask non-empty forever. A sweep ends at its last
//    possible match, so every job arrival's sweep stops after the few
//    General devices it needs; its exact visit count locks that exit in
//    (a full walk of the pool would multiply it ~10,000-fold).
//  * "sweep-long": the same fleet with every 1000th device rich, and a
//    policy that never serves the pin, so those devices stay idle and keep
//    matching the pin. Each job arrival's sweep then runs until the last
//    of them, near the end of the pool, skipping nearly every device by
//    signature. It is the one cell that reports sweep throughput
//    (`visits_per_sec`): pool entries visited per second of in-sweep wall
//    time.
//
// Journaling-overhead cell: the identical 150k-device scenario with the
// event journal off and on (src/journal/ JournalWriter, round-boundary
// flushes). Both modes must simulate the same run; the journal-on wall
// time must stay within --max-journal-overhead (default 10%) of the
// journal-off wall time — durability is an observer, not a tax.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "cell_metric.h"
#include "util/parse.h"

using namespace venn;

namespace {

struct CellResult {
  std::size_t devices = 0;
  std::size_t jobs = 0;
  std::string mode;  // "index" | "sweep" | "journal-off" | "journal-on"
  double wall_s = 0.0;      // median over the repeats
  double wall_min_s = 0.0;
  double wall_max_s = 0.0;
  double sweep_wall_s = 0.0;  // median in-sweep wall time
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double per_event_us = 0.0;
  double avg_jct = 0.0;
  // Deterministic hot-path work counters of the run.
  std::uint64_t sweep_visits = 0;
  std::uint64_t sweep_skips = 0;
  std::uint64_t sweep_offers = 0;
  std::uint64_t supply_queries = 0;
  std::uint64_t offers = 0;              // manager offers (all call sites)
  std::uint64_t candidates_scanned = 0;  // manager candidate entries walked
  std::uint64_t peak_pending = 0;  // event queue high-water mark (entries)
};

// The work counters the baseline gate bounds per event, by JSON key.
struct WorkCounter {
  const char* key;
  std::uint64_t CellResult::*field;
};
constexpr WorkCounter kWorkCounters[] = {
    {"sweep_visits", &CellResult::sweep_visits},
    {"sweep_skips", &CellResult::sweep_skips},
    {"sweep_offers", &CellResult::sweep_offers},
    {"supply_queries", &CellResult::supply_queries},
    {"offers", &CellResult::offers},
    {"candidates_scanned", &CellResult::candidates_scanned},
};

double per_event(std::uint64_t count, std::uint64_t events) {
  return events > 0 ? static_cast<double>(count) / static_cast<double>(events)
                    : 0.0;
}

// Sweep throughput: pool entries visited per second of in-sweep wall time.
// Only "sweep-long" reports it; every other cell's sweeps are short and
// their in-sweep time is mostly offers, so visits/s there measures offers,
// not the filter loop.
bool reports_visits_per_sec(const CellResult& c) {
  return c.mode == "sweep-long";
}

double visits_per_sec(const CellResult& c) {
  return c.sweep_wall_s > 0.0
             ? static_cast<double>(c.sweep_visits) / c.sweep_wall_s
             : 0.0;
}

// Fills a cell's timing-independent fields from a finished run.
void read_counters(CellResult& r, const Coordinator& coord,
                   const ResourceManager& manager, sim::Engine& engine) {
  r.events = engine.events_executed();
  r.avg_jct = collect_results(coord, r.mode).avg_jct();
  const auto& ch = coord.hotpath_stats();
  const auto& mh = manager.hotpath_stats();
  r.sweep_visits = ch.sweep_visits;
  r.sweep_skips = ch.sweep_skips;
  r.sweep_offers = ch.sweep_offers;
  r.supply_queries = ch.supply_queries;
  r.offers = mh.offers;
  r.candidates_scanned = mh.candidates_scanned;
  r.peak_pending = engine.queue().peak_pending();
  r.sweep_wall_s = coord.shard_stats().sweep_wall_s;
}

// Two runs of one cell did the same work: every counter and the average
// JCT agree exactly.
bool same_work(const CellResult& a, const CellResult& b) {
  for (const WorkCounter& w : kWorkCounters) {
    if (a.*w.field != b.*w.field) return false;
  }
  return a.events == b.events && a.peak_pending == b.peak_pending &&
         a.avg_jct == b.avg_jct;
}

// The median of `v` (the lower middle element on an even count).
double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

// Folds the repeats of one cell into one row: the counters of the first
// run, and the median, min and max of the wall times. Sets *match to false
// if a repeat did different work.
CellResult summarize(const std::vector<CellResult>& runs, bool* match) {
  CellResult r = runs.front();
  std::vector<double> walls;
  std::vector<double> sweep_walls;
  for (const CellResult& c : runs) {
    if (!same_work(r, c)) *match = false;
    walls.push_back(c.wall_s);
    sweep_walls.push_back(c.sweep_wall_s);
  }
  r.wall_s = median_of(walls);
  r.wall_min_s = *std::min_element(walls.begin(), walls.end());
  r.wall_max_s = *std::max_element(walls.begin(), walls.end());
  r.sweep_wall_s = median_of(sweep_walls);
  r.events_per_sec =
      r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
  r.per_event_us =
      r.events > 0 ? 1e6 * r.wall_s / static_cast<double>(r.events) : 0.0;
  return r;
}

// Removes a directory and its contents when it goes out of scope (nothing
// while `path` is empty).
struct ScratchDir {
  std::filesystem::path path;
  ScratchDir() = default;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

// One devices × jobs cell, with the durability sink on or off. The churn
// sessions stream inside the timed window, as in any churn run, so the
// window includes creating every device's churn stream and drawing its
// sessions, not only the scheduling hot path. The journal-on window covers
// the run INCLUDING the journal's round-boundary flushes and the footer —
// the steady-state cost a coordinator daemon would pay.
CellResult run_cell(std::size_t devices, std::size_t jobs, double horizon_days,
                    std::uint64_t seed, bool journal_on, std::string mode) {
  ScenarioSpec sc;
  sc.seed = seed;
  sc.num_devices = devices;
  sc.num_jobs = jobs;
  sc.horizon = horizon_days * kDay;
  sc.job_trace.mean_interarrival = 3.0 * kMinute;
  sc.job_trace.min_rounds = 3;
  sc.job_trace.max_rounds = 8;
  sc.job_trace.min_demand = 4;
  sc.job_trace.max_demand = 10;
  sc.set("churn", "weibull");
  const auto inputs = api::build_inputs(sc);
  const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                               sc.churn_gen, sc.seed);

  sim::Engine engine(Rng::derive(sc.seed, "engine"));
  ResourceManager manager(PolicyRegistry::instance().create(
      "venn", {}, Rng::derive(sc.seed, "scheduler")));
  CoordinatorConfig ccfg;
  ccfg.horizon = sc.horizon;
  ccfg.seed = sc.seed;
  ccfg.churn = gens.churn.get();

  // Declared before the writer, so it runs after the writer has closed
  // the file, on a throwing cell too.
  ScratchDir journal_dir;
  std::unique_ptr<journal::JournalWriter> writer;
  if (journal_on) {
    // tmpfs when available: the gate measures the coordinator-side cost of
    // journaling (framing, CRC, buffering, the write syscalls) — disk
    // writeback throughput varies too much across runners to gate on.
    // One directory per process, so concurrent runs never share a file.
    const std::filesystem::path base =
        std::filesystem::is_directory("/dev/shm")
            ? std::filesystem::path("/dev/shm")
            : std::filesystem::temp_directory_path();
    journal_dir.path =
        base / ("venn_hotpath_journal-" + std::to_string(::getpid()));
    std::filesystem::create_directories(journal_dir.path);
    const std::string dir = journal_dir.path.string();
    journal::JournalHeader header;
    header.seed = sc.seed;
    header.scenario_kv = sc.to_kv();
    header.label = "bench";
    writer = std::make_unique<journal::JournalWriter>(dir + "/bench.vjl",
                                                      header);
    ccfg.journal = writer.get();
  }
  Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                    inputs.jobs, ccfg);

  const auto t0 = std::chrono::steady_clock::now();
  coord.run();
  if (writer) writer->finalize(engine.now());
  const auto t1 = std::chrono::steady_clock::now();

  CellResult r;
  r.devices = devices;
  r.jobs = jobs;
  r.mode = std::move(mode);
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  read_counters(r, coord, manager, engine);
  return r;
}

// --------------------------------------------------------- sweep cells --

// Always-on low-spec fleet (eligible for General only), with every
// `rich_every`-th device rich instead (eligible for High-Performance too)
// when that is non-zero. The seed label predates the cells' current names;
// keeping it keeps the world, and so the counters, of the earlier
// BENCH_hotpath.json rows.
ExperimentInputs make_sweep_fleet(std::size_t devices, SimTime horizon,
                                  std::uint64_t seed, std::size_t rich_every) {
  Rng rng(Rng::derive(seed, "shard-fleet"));
  ExperimentInputs fleet;
  fleet.devices.reserve(devices);
  fleet.sessions.reserve(devices);
  const Session always_on{0.0, horizon};
  for (std::size_t i = 0; i < devices; ++i) {
    // Below the rich thresholds on both axes: General-only signatures.
    DeviceSpec spec{0.05 + 0.4 * rng.uniform(), 0.05 + 0.4 * rng.uniform()};
    if (rich_every != 0 && i % rich_every == 0) spec = {0.9, 0.9};
    fleet.devices.push_back(spec);
    fleet.sessions.push_device({&always_on, 1});
  }
  return fleet;
}

// FIFO that never serves job 0, the long-sweep cell's pin: the rich
// devices it is offered stay idle, still matching it.
class PinDecliningFifo final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "FIFO-nopin"; }
  [[nodiscard]] std::optional<std::size_t> assign(
      const DeviceView& /*dev*/, std::span<const PendingJob> candidates,
      SimTime /*now*/) override {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const PendingJob& c = candidates[i];
      if (c.job == JobId(0)) continue;
      if (!best || c.job_arrival < candidates[*best].job_arrival ||
          (c.job_arrival == candidates[*best].job_arrival &&
           c.job < candidates[*best].job)) {
        best = i;
      }
    }
    return best;
  }
};

// Sweep-dominated world: an always-on low-spec fleet (eligible for General
// only), one insatiable High-Performance job pinning the wants mask, and a
// stream of small General jobs whose every arrival sweeps the pool. With
// `long_sweeps`, every 1000th device is rich and the pin is never served,
// so those devices stay idle and every sweep runs to the last of them.
CellResult run_sweep_cell(std::size_t devices, std::size_t general_jobs,
                          std::uint64_t seed, bool long_sweeps) {
  const SimTime spacing = 300.0;
  const SimTime horizon =
      spacing * static_cast<double>(general_jobs + 2) + 2.0 * kHour;

  ExperimentInputs fleet =
      make_sweep_fleet(devices, horizon, seed, long_sweeps ? 1000 : 0);

  std::vector<trace::JobSpec> jobs;
  {
    trace::JobSpec hp;  // the insatiable pin
    hp.rounds = 1;
    hp.demand = static_cast<int>(devices);
    hp.category = ResourceCategory::kHighPerf;
    hp.arrival = 0.0;
    jobs.push_back(hp);
  }
  for (std::size_t k = 0; k < general_jobs; ++k) {
    trace::JobSpec g;
    g.rounds = 1;
    g.demand = 16;
    g.category = ResourceCategory::kGeneral;
    g.arrival = spacing * static_cast<double>(k + 1);
    g.nominal_task_s = 60.0;
    g.task_cv = 0.0;
    jobs.push_back(g);
  }

  sim::Engine engine(Rng::derive(seed, "engine"));
  ResourceManager manager(
      long_sweeps ? std::make_unique<PinDecliningFifo>()
                  : PolicyRegistry::instance().create(
                        "fifo", {}, Rng::derive(seed, "scheduler")));
  CoordinatorConfig ccfg;
  ccfg.horizon = horizon;
  ccfg.seed = seed;
  Coordinator coord(engine, manager, std::move(fleet.devices),
                    std::move(fleet.sessions), std::move(jobs), ccfg);

  const auto t0 = std::chrono::steady_clock::now();
  coord.run();
  const auto t1 = std::chrono::steady_clock::now();

  CellResult r;
  r.devices = devices;
  r.jobs = general_jobs + 1;
  r.mode = long_sweeps ? "sweep-long" : "sweep";
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  read_counters(r, coord, manager, engine);
  return r;
}

// ------------------------------------------------ journaling overhead --

// The overhead gate needs a low-noise RATIO, so the two modes are run
// INTERLEAVED (off, on, off, on, ...) — filesystem writeback pressure, CPU
// frequency drift and container scheduling noise then hit both modes
// alike instead of whichever mode happened to run last.
std::pair<CellResult, CellResult> run_journal_pair(
    std::size_t devices, std::size_t jobs, double horizon_days,
    std::uint64_t seed, int repeats, double early_exit_ratio,
    double* gate_ratio, bool* match) {
  // The gate statistic is the MINIMUM over adjacent (off, on) pairs of
  // the pair's wall ratio. Two properties make that robust on a noisy
  // runner: the two runs of a pair are adjacent in time, so common-mode
  // machine drift (frequency phases, co-tenant load) cancels out of the
  // ratio; and noise only ever ADDS wall time, so a genuine regression
  // shows up in EVERY pair while a noise spike only poisons the pairs it
  // lands on. Within-pair order alternates so monotone drift cannot bias
  // one side. Sampling stops early once a pair reaches
  // `early_exit_ratio` (the gate ceiling) — further samples could only
  // confirm the pass — or when the repeat budget runs out. The returned
  // rows summarize every observed run per mode.
  const auto journal_cell = [&](bool on) {
    return run_cell(devices, jobs, horizon_days, seed, on,
                    on ? "journal-on" : "journal-off");
  };
  (void)journal_cell(true);
  std::vector<CellResult> off{journal_cell(false)};
  std::vector<CellResult> on{journal_cell(true)};
  double best_ratio = on.back().wall_s / off.back().wall_s;
  for (int rep = 1; rep < repeats && best_ratio > early_exit_ratio; ++rep) {
    const bool on_first = (rep & 1) != 0;
    CellResult a = journal_cell(on_first);
    CellResult b = journal_cell(!on_first);
    CellResult& o = on_first ? b : a;
    CellResult& j = on_first ? a : b;
    best_ratio = std::min(best_ratio, j.wall_s / o.wall_s);
    off.push_back(std::move(o));
    on.push_back(std::move(j));
  }
  *gate_ratio = best_ratio;
  return {summarize(off, match), summarize(on, match)};
}

void write_json(const std::string& path, double horizon_days,
                const std::vector<CellResult>& cells) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"hotpath_index\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf), "  \"horizon_days\": %g,\n", horizon_days);
  out << buf;
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"devices\": %zu, \"jobs\": %zu, \"mode\": \"%s\", "
                  "\"wall_s\": %.6f, \"wall_min_s\": %.6f, "
                  "\"wall_max_s\": %.6f, \"events\": %llu, "
                  "\"events_per_sec\": %.1f, \"per_event_us\": %.4f, "
                  "\"sweep_wall_s\": %.6f",
                  c.devices, c.jobs, c.mode.c_str(), c.wall_s, c.wall_min_s,
                  c.wall_max_s, static_cast<unsigned long long>(c.events),
                  c.events_per_sec, c.per_event_us, c.sweep_wall_s);
    out << buf;
    if (reports_visits_per_sec(c)) {
      std::snprintf(buf, sizeof(buf), ", \"visits_per_sec\": %.1f",
                    visits_per_sec(c));
      out << buf;
    }
    std::snprintf(buf, sizeof(buf), ", \"avg_jct\": %.6f", c.avg_jct);
    out << buf;
    for (const WorkCounter& w : kWorkCounters) {
      std::snprintf(buf, sizeof(buf), ", \"%s\": %llu", w.key,
                    static_cast<unsigned long long>(c.*w.field));
      out << buf;
    }
    std::snprintf(buf, sizeof(buf), ", \"peak_pending\": %llu",
                  static_cast<unsigned long long>(c.peak_pending));
    out << buf;
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Minimal lookup into a previous output file: find the cell's identifying
// prefix, then read the named field after it. The file format is our own
// (write_json above), so no general JSON parsing is needed. The lookup
// delegates to bench::find_cell_metric, which bounds the key search
// to the matched cell object: an unbounded search would silently read the
// NEXT cell's value when a cell lacks the key — e.g. an old baseline
// without the work counters — and gate against the wrong number.
bool baseline_metric(const std::string& text, const CellResult& c,
                     const char* metric_key, double* out) {
  char needle[128];
  std::snprintf(needle, sizeof(needle),
                "\"devices\": %zu, \"jobs\": %zu, \"mode\": \"%s\"",
                c.devices, c.jobs, c.mode.c_str());
  return bench::find_cell_metric(text, needle, metric_key, out);
}

// A raw count the gate bounds by the baseline's value. Returns false if
// the baseline lacks the key; sets *ok to false on an exceedance.
bool gate_count(const std::string& text, const CellResult& c, const char* key,
                std::uint64_t now, bool* ok) {
  double base = 0.0;
  if (!baseline_metric(text, c, key, &base)) return false;
  if (static_cast<double>(now) > base) {
    std::fprintf(stderr,
                 "FAIL: %zu devices x %zu jobs (%s): %s %llu exceeds "
                 "baseline %.0f\n",
                 c.devices, c.jobs, c.mode.c_str(), key,
                 static_cast<unsigned long long>(now), base);
    *ok = false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_hotpath.json";
  std::string baseline_path;
  double horizon_days = 0.25;
  std::uint64_t seed = 77;
  int repeats = 5;
  double max_journal_overhead = 0.10;
  // Numeric flags go through the hardened util/parse.h helpers (the same
  // semantics ScenarioSpec key=value parsing uses): the unchecked
  // atoi/atof/strtod(..., nullptr) calls they replace silently turned
  // --repeats=abc into 1.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        quick = true;
      } else if (arg.rfind("--max-journal-overhead=", 0) == 0) {
        max_journal_overhead =
            internal::parse_positive("--max-journal-overhead", arg.substr(23));
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
      } else if (arg.rfind("--baseline=", 0) == 0) {
        baseline_path = arg.substr(11);
      } else if (arg.rfind("--horizon-days=", 0) == 0) {
        horizon_days =
            internal::parse_positive("--horizon-days", arg.substr(15));
      } else if (arg.rfind("--seed=", 0) == 0) {
        seed = internal::parse_u64("--seed", arg.substr(7));
      } else if (arg.rfind("--repeats=", 0) == 0) {
        repeats = std::max(1, internal::parse_int("--repeats", arg.substr(10)));
      } else {
        std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  bench::header("Scheduler hot path — eligibility-index work and throughput",
                "no paper figure; engineering bench (core/elig_index.h)");
  bench::note("identical streaming-churn world per cell; work counters are "
              "per event and machine-invariant; wall times are medians of " +
              std::to_string(repeats) + " repeats");

  const std::vector<std::size_t> device_axis =
      quick ? std::vector<std::size_t>{1'000, 10'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000};
  const std::vector<std::size_t> job_axis =
      quick ? std::vector<std::size_t>{4, 16} : std::vector<std::size_t>{4, 16, 64};

  std::vector<CellResult> cells;
  bool all_match = true;
  const auto repeated = [&](const auto& run) {
    std::vector<CellResult> runs;
    for (int rep = 0; rep < repeats; ++rep) runs.push_back(run());
    return summarize(runs, &all_match);
  };
  std::printf("%9s %5s | %12s %9s | %8s %8s %8s %8s %8s\n", "devices", "jobs",
              "ev/s", "us/ev", "visits", "sw-offer", "supply", "offers",
              "cands");
  std::printf("%9s %5s | %12s %9s | %44s\n", "", "", "", "", "(per event)");
  for (const std::size_t devices : device_axis) {
    for (const std::size_t jobs : job_axis) {
      CellResult c = repeated([&] {
        return run_cell(devices, jobs, horizon_days, seed, false, "index");
      });
      std::printf("%9zu %5zu | %12.0f %9.4f | %8.4f %8.4f %8.4f %8.4f %8.4f\n",
                  devices, jobs, c.events_per_sec, c.per_event_us,
                  per_event(c.sweep_visits, c.events),
                  per_event(c.sweep_offers, c.events),
                  per_event(c.supply_queries, c.events),
                  per_event(c.offers, c.events),
                  per_event(c.candidates_scanned, c.events));
      cells.push_back(std::move(c));
    }
  }

  // --- sweep cells ---------------------------------------------------------
  // The wants mask never empties (an insatiable High-Perf job). In the
  // "sweep" cell no idle device can serve the pin, so each General-job
  // arrival's sweep ends once the General devices it needs are offered. In
  // "sweep-long" rich idle devices keep matching the pin, so each sweep
  // walks nearly the whole pool and skips ~everything by signature: the
  // sweep's filter loop dominates the run.
  const std::size_t sweep_devices = quick ? 150'000 : 1'000'000;
  const std::size_t sweep_jobs = quick ? 12 : 24;
  std::printf("\nsweep cells (%zu devices, insatiable pin):\n", sweep_devices);
  std::printf("%10s | %10s %10s %10s | %12s %12s | %10s %10s %8s\n", "mode",
              "wall s", "min s", "max s", "sweep-wall s", "visits/s",
              "visits", "skips", "offers");
  for (const bool long_sweeps : {false, true}) {
    const CellResult sweep = repeated([&] {
      return run_sweep_cell(sweep_devices, sweep_jobs, seed, long_sweeps);
    });
    const std::string rate =
        reports_visits_per_sec(sweep)
            ? std::to_string(static_cast<long long>(visits_per_sec(sweep)))
            : "-";
    std::printf(
        "%10s | %10.4f %10.4f %10.4f | %12.4f %12s | %10llu %10llu %8llu\n",
        sweep.mode.c_str(), sweep.wall_s, sweep.wall_min_s, sweep.wall_max_s,
        sweep.sweep_wall_s, rate.c_str(),
        static_cast<unsigned long long>(sweep.sweep_visits),
        static_cast<unsigned long long>(sweep.sweep_skips),
        static_cast<unsigned long long>(sweep.sweep_offers));
    cells.push_back(sweep);
  }

  // --- journaling overhead -------------------------------------------------
  // Durability must be an observer, not a tax: the identical 150k-device
  // cell with the event journal off and on. Gate on wall-time overhead.
  const std::size_t journal_devices = 150'000;
  const std::size_t journal_jobs = 12;
  std::printf("\njournaling overhead (%zu devices x %zu jobs):\n",
              journal_devices, journal_jobs);
  double journal_gate_ratio = 1.0;
  const auto [joff, jon] = run_journal_pair(
      journal_devices, journal_jobs, horizon_days, seed,
      std::max(repeats, 12), 1.0 + max_journal_overhead,
      &journal_gate_ratio, &all_match);
  const bool journal_match =
      joff.avg_jct == jon.avg_jct && joff.events == jon.events;
  all_match = all_match && journal_match;
  const double overhead = journal_gate_ratio - 1.0;
  std::printf("%12s | %12s %12s | %8s %5s\n", "mode", "wall s", "ev/s",
              "overhead", "match");
  std::printf("%12s | %12.4f %12.0f | %8s %5s\n", joff.mode.c_str(),
              joff.wall_s, joff.events_per_sec, "-", "yes");
  std::printf("%12s | %12.4f %12.0f | %7.1f%% %5s\n", jon.mode.c_str(),
              jon.wall_s, jon.events_per_sec, 100.0 * overhead,
              journal_match ? "yes" : "NO");
  // Rows show the median wall per mode; the overhead column is the gate
  // statistic — the best adjacent pair ratio.
  cells.push_back(joff);
  cells.push_back(jon);

  write_json(out_path, horizon_days, cells);
  bench::note("wrote " + out_path);
  if (!all_match) {
    std::fprintf(stderr,
                 "FAIL: runs diverged (a repeat did different work, or "
                 "journal-on differs from journal-off)\n");
    return 1;
  }
  if (overhead > max_journal_overhead) {
    std::fprintf(stderr,
                 "FAIL: journaling overhead %.1f%% exceeds the %.0f%% "
                 "ceiling (journal-off %.4fs vs journal-on %.4fs)\n",
                 100.0 * overhead, 100.0 * max_journal_overhead, joff.wall_s,
                 jon.wall_s);
    return 1;
  }
  {
    char note[96];
    std::snprintf(note, sizeof(note),
                  "journaling overhead %.1f%% (ceiling %.0f%%)",
                  100.0 * overhead, 100.0 * max_journal_overhead);
    bench::note(note);
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    bool ok = true;
    std::size_t work_matched = 0;
    // Work-counter gate: every per-event counter of every cell must stay at
    // or below the baseline's. The counters are deterministic, so the
    // comparison is exact — any increase is a real change in how much
    // work the hot path does per event.
    for (const CellResult& c : cells) {
      double base_events = 0.0;
      if (!baseline_metric(text, c, "events", &base_events) ||
          base_events <= 0.0) {
        continue;  // new cell
      }
      bool complete = true;
      for (const WorkCounter& w : kWorkCounters) {
        double base_count = 0.0;
        if (!baseline_metric(text, c, w.key, &base_count)) {
          complete = false;  // a baseline without counters gates nothing
          break;
        }
        const double base = base_count / base_events;
        const double now = per_event(c.*w.field, c.events);
        if (now > base) {
          std::fprintf(stderr,
                       "FAIL: %zu devices x %zu jobs (%s): %s per event "
                       "%.6f exceeds baseline %.6f\n",
                       c.devices, c.jobs, c.mode.c_str(), w.key, now, base);
          ok = false;
        }
      }
      // The event count and the event queue's high-water mark are sizes,
      // not rates: gated as raw counts. Pre-scheduling every session start
      // again (O(sessions) entries instead of O(devices + in-flight))
      // fails the peak.
      complete = gate_count(text, c, "events", c.events, &ok) && complete;
      complete =
          gate_count(text, c, "peak_pending", c.peak_pending, &ok) && complete;
      if (complete) ++work_matched;
    }
    if (work_matched == 0) {
      // A truncated or format-drifted baseline must not silently disable
      // the gate by failing to match anything.
      std::fprintf(stderr,
                   "FAIL: no measured cell matched baseline %s — "
                   "regenerate it with --quick --out=<path>\n",
                   baseline_path.c_str());
      return 1;
    }
    if (!ok) return 1;
    bench::note(std::to_string(work_matched) +
                " cells' work counters within " + baseline_path);
  }
  return 0;
}
