// Golden-metrics regression tests.
//
// Three small fixed-seed scenarios (static/poisson arrivals × diurnal/
// weibull churn) run end to end; their JCT / fairness / utilization metrics
// are compared against checked-in golden files so that ANY change to
// simulation output — intended or not — shows up as a reviewable diff
// instead of drifting silently (the MLSYSIM argument: simulators earn trust
// through reproducible, regression-checked measurement loops).
//
// Regenerating after an intentional behavior change:
//
//   UPDATE_GOLDENS=1 ./build/venn_tests --gtest_filter='GoldenMetrics.*'
//
// then commit the rewritten files under tests/goldens/ with the change that
// motivated them. Numeric comparison uses a 1e-9 *relative* tolerance: real
// regressions move metrics by orders of magnitude more, while last-ULP libm
// differences across platforms do not fail the suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "venn/venn.h"

namespace venn {
namespace {

std::filesystem::path golden_dir() {
  return std::filesystem::path(__FILE__).parent_path() / "goldens";
}

bool update_goldens() {
  const char* env = std::getenv("UPDATE_GOLDENS");
  return env != nullptr && std::string(env) == "1";
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Flatten the metrics a run is judged by into ordered key=value lines.
std::map<std::string, std::string> collect_metrics(const RunResult& r,
                                                   std::size_t num_devices,
                                                   SimTime horizon) {
  std::map<std::string, std::string> m;
  m["scheduler"] = r.scheduler;
  m["jobs"] = std::to_string(r.jobs.size());
  m["finished_jobs"] = std::to_string(r.finished_jobs());
  m["avg_jct"] = format_double(r.avg_jct());
  m["fair_share_hit_rate"] = format_double(r.fair_share_hit_rate());
  m["avg_concurrency"] = format_double(r.avg_concurrency());
  const Summary sched = r.scheduling_delays();
  const Summary resp = r.response_times();
  m["sched_delay_mean"] = format_double(sched.empty() ? 0.0 : sched.mean());
  m["resp_time_mean"] = format_double(resp.empty() ? 0.0 : resp.mean());

  // Round-protocol counters: zero wasted work / staleness under sync, the
  // overcommit/async cells pin their regime-specific trajectories.
  m["protocol.commits"] = std::to_string(r.protocol.commits);
  m["protocol.responses"] = std::to_string(r.protocol.responses);
  m["protocol.wasted_responses"] = std::to_string(r.protocol.wasted_responses);
  m["protocol.stragglers_released"] =
      std::to_string(r.protocol.stragglers_released);
  m["protocol.wasted_work_s"] = format_double(r.protocol.wasted_work_s);
  m["protocol.stale_responses"] = std::to_string(r.protocol.stale_responses);
  m["protocol.mean_staleness"] = format_double(r.protocol.mean_staleness());

  // Utilization: total successful assignments per device-day offered.
  std::int64_t assignments = 0;
  for (const auto& region : r.assignment_matrix) {
    for (const std::int64_t n : region) assignments += n;
  }
  m["assignments_total"] = std::to_string(assignments);
  m["utilization_per_device_day"] = format_double(
      static_cast<double>(assignments) /
      (static_cast<double>(num_devices) * (horizon / kDay)));

  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    const std::string p = "job." + std::to_string(i) + ".";
    m[p + "jct"] = format_double(r.jobs[i].jct);
    m[p + "rounds"] = std::to_string(r.jobs[i].completed_rounds);
    m[p + "aborts"] = std::to_string(r.jobs[i].total_aborts);
  }
  return m;
}

std::map<std::string, std::string> read_golden(
    const std::filesystem::path& file) {
  std::map<std::string, std::string> m;
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      ADD_FAILURE() << file << ": bad line \"" << line << '"';
      continue;
    }
    m.emplace(line.substr(0, eq), line.substr(eq + 1));
  }
  return m;
}

void write_golden(const std::filesystem::path& file,
                  const std::map<std::string, std::string>& metrics) {
  std::filesystem::create_directories(file.parent_path());
  std::ofstream out(file);
  out << "# Golden metrics — regenerate with UPDATE_GOLDENS=1 (see README,\n"
         "# \"Performance & regression testing\"). Commit changes together\n"
         "# with the code change that motivated them.\n";
  for (const auto& [k, v] : metrics) out << k << '=' << v << '\n';
}

// Values are compared as doubles with 1e-9 relative tolerance when both
// parse; exact strings otherwise.
void compare_metric(const std::string& key, const std::string& expected,
                    const std::string& actual) {
  char* end_e = nullptr;
  char* end_a = nullptr;
  const double ve = std::strtod(expected.c_str(), &end_e);
  const double va = std::strtod(actual.c_str(), &end_a);
  const bool both_numeric = end_e != expected.c_str() && *end_e == '\0' &&
                            end_a != actual.c_str() && *end_a == '\0';
  if (both_numeric) {
    const double tol = 1e-9 * std::max({1.0, std::abs(ve), std::abs(va)});
    EXPECT_NEAR(va, ve, tol) << key;
  } else {
    EXPECT_EQ(actual, expected) << key;
  }
}

struct GoldenCell {
  const char* name;
  ScenarioSpec scenario;
  PolicySpec policy;
};

ScenarioSpec base_scenario(std::uint64_t seed) {
  ScenarioSpec sc;
  sc.seed = seed;
  sc.num_devices = 350;
  sc.num_jobs = 6;
  sc.horizon = 6.0 * kDay;
  sc.job_trace.min_rounds = 2;
  sc.job_trace.max_rounds = 5;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 10;
  return sc;
}

std::vector<GoldenCell> golden_cells() {
  std::vector<GoldenCell> cells;

  {  // Batch submission over the legacy-shaped diurnal world.
    GoldenCell c{"static_diurnal", base_scenario(101), PolicySpec("venn")};
    c.scenario.set("arrival", "static");
    c.scenario.set("churn", "diurnal");
    cells.push_back(std::move(c));
  }
  {  // Poisson arrivals over Weibull churn (sessions streamed).
    GoldenCell c{"poisson_weibull", base_scenario(102), PolicySpec("venn")};
    c.scenario.set("arrival", "poisson");
    c.scenario.set("churn", "weibull");
    cells.push_back(std::move(c));
  }
  {  // Poisson × diurnal with the fairness knob on (exercises solo JCT
     // estimates and the ε-adjusted IRS queue lengths end to end).
    GoldenCell c{"poisson_diurnal_eps2", base_scenario(103),
                 PolicySpec("venn")};
    c.scenario.set("arrival", "poisson");
    c.scenario.set("churn", "diurnal");
    c.policy.set("epsilon", "2");
    cells.push_back(std::move(c));
  }
  // --- round-protocol cells: one fixed scenario per protocol -----------
  {  // Explicit sync over the static_diurnal world. Its golden must stay
     // value-identical to static_diurnal.golden forever — the sync
     // protocol IS the pre-extraction coordinator (see also the exact
     // in-process equality test below).
    GoldenCell c{"protocol_sync", base_scenario(101), PolicySpec("venn")};
    c.scenario.set("arrival", "static");
    c.scenario.set("churn", "diurnal");
    c.scenario.set("protocol", "sync");
    cells.push_back(std::move(c));
  }
  {  // Over-selection: straggler releases and wasted work pinned.
    GoldenCell c{"protocol_overcommit", base_scenario(104),
                 PolicySpec("venn")};
    c.scenario.set("arrival", "poisson");
    c.scenario.set("churn", "diurnal");
    c.scenario.set("protocol", "overcommit");
    c.scenario.set("protocol.overcommit", "1.5");
    cells.push_back(std::move(c));
  }
  {  // Buffered-async aggregation: commit cadence and staleness pinned.
    GoldenCell c{"protocol_async", base_scenario(105), PolicySpec("venn")};
    c.scenario.set("arrival", "poisson");
    c.scenario.set("churn", "diurnal");
    c.scenario.set("protocol", "async");
    c.scenario.set("protocol.buffer", "4");
    cells.push_back(std::move(c));
  }
  return cells;
}

TEST(GoldenMetrics, EndToEndScenariosMatchCheckedInGoldens) {
  for (const auto& cell : golden_cells()) {
    SCOPED_TRACE(cell.name);
    const RunResult r = ExperimentBuilder()
                            .scenario(cell.scenario)
                            .policy(cell.policy)
                            .run();
    const auto metrics = collect_metrics(r, cell.scenario.num_devices,
                                         cell.scenario.horizon);
    const auto file = golden_dir() / (std::string(cell.name) + ".golden");

    if (update_goldens()) {
      write_golden(file, metrics);
      std::printf("  [golden] rewrote %s\n", file.c_str());
      continue;
    }

    ASSERT_TRUE(std::filesystem::exists(file))
        << file << " missing — run with UPDATE_GOLDENS=1 to create it";
    const auto golden = read_golden(file);
    ASSERT_FALSE(golden.empty());
    for (const auto& [key, expected] : golden) {
      ASSERT_TRUE(metrics.contains(key)) << "metric disappeared: " << key;
      compare_metric(key, expected, metrics.at(key));
    }
    for (const auto& [key, value] : metrics) {
      (void)value;
      EXPECT_TRUE(golden.contains(key))
          << "new metric not in golden (regenerate): " << key;
    }
  }
}

// The sync protocol is the extracted pre-refactor round lifecycle: running
// any legacy cell with `protocol=sync` set explicitly must produce the
// EXACT metric map of the cell with no protocol configured (same process,
// same arithmetic — no tolerance). This is the equality guard on the
// src/protocol/ extraction.
TEST(GoldenMetrics, ExplicitSyncProtocolMatchesLegacyDefaultExactly) {
  for (const auto& cell : golden_cells()) {
    if (cell.scenario.protocol_gen.configured()) continue;  // legacy cells
    SCOPED_TRACE(cell.name);
    ScenarioSpec with_sync = cell.scenario;
    with_sync.set("protocol", "sync");
    const RunResult a = ExperimentBuilder()
                            .scenario(cell.scenario)
                            .policy(cell.policy)
                            .run();
    const RunResult b =
        ExperimentBuilder().scenario(with_sync).policy(cell.policy).run();
    const auto ma = collect_metrics(a, cell.scenario.num_devices,
                                    cell.scenario.horizon);
    const auto mb = collect_metrics(b, cell.scenario.num_devices,
                                    cell.scenario.horizon);
    EXPECT_EQ(ma, mb);
  }
}

}  // namespace
}  // namespace venn
