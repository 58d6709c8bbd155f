// Scenario gallery: the workload-generator and round-protocol subsystems
// end to end.
//
// Sweeps arrival × churn (× mix × protocol) combinations far outside the
// paper's two worlds — bursty MMPP arrivals over Weibull churn, flash
// crowds under a compute-biased mix, over-selection and buffered-async
// aggregation regimes, a fully open-loop scenario — and runs
// venn vs. random on each shared trace. Every cell is run twice at the
// same seed and checked byte-identical, so generator or protocol
// nondeterminism fails this bench loudly.
//
// Usage: scenario_gallery [--key=value ...]
//   Overrides apply to every gallery scenario; CI smoke-runs with
//   `--devices=800 --jobs=6 --horizon-days=4` to keep it fast.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace venn;

namespace {

struct GalleryCell {
  const char* label;
  std::vector<std::string> overrides;  // key=value tokens
};

// One run of a gallery cell. Returns the result of the named policy.
// Scenario-level trace-shape overrides (--min-demand etc.) flow into each
// cell's generators as parameter defaults via the builder, so one set of
// overrides means the same thing in every cell.
RunResult run_cell(const GalleryCell& cell,
                   const std::vector<std::string>& extra,
                   const std::string& policy) {
  ExperimentBuilder b;
  b.devices(2000).jobs(12).horizon(10.0 * kDay).seed(42);
  for (const auto& kv : cell.overrides) b.override_kv(kv);
  for (const auto& kv : extra) b.override_kv(kv);
  return b.build().run(PolicySpec{policy});
}

bool byte_identical(const RunResult& a, const RunResult& b) {
  if (a.jobs.size() != b.jobs.size()) return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].jct != b.jobs[i].jct ||
        a.jobs[i].completed_rounds != b.jobs[i].completed_rounds ||
        a.jobs[i].total_aborts != b.jobs[i].total_aborts) {
      return false;
    }
  }
  // The protocol counters are part of the trajectory too: staleness and
  // wasted work must replay exactly.
  if (!(a.protocol == b.protocol)) return false;
  return a.assignment_matrix == b.assignment_matrix;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> extra;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      return 2;
    }
    extra.push_back(arg.substr(2));
  }

  bench::header("Scenario gallery — arrival × churn × mix × protocol",
                "§2.1/Fig. 2a + Fig. 8b generalized via src/workload/ and "
                "src/protocol/");
  bench::note("every cell runs twice at the same seed; 'det' flags "
              "byte-identical replay");

  const std::vector<GalleryCell> cells = {
      {"poisson × diurnal",
       {"arrival=poisson", "churn=diurnal"}},
      {"bursty × weibull",
       {"arrival=bursty", "arrival.burst-factor=15", "churn=weibull"}},
      {"diurnal × diurnal (correlated)",
       {"arrival=diurnal", "arrival.peak-hour=21", "churn=diurnal",
        "churn.peak-hour=21"}},
      {"static × weibull, tenant mix",
       {"arrival=static", "churn=weibull", "mix=tenant"}},
      {"poisson × flash-crowd, compute-biased",
       {"arrival=poisson", "churn=flash-crowd", "churn.join-prob=0.8",
        "mix=biased", "mix.category=compute"}},
      {"bursty × flash-crowd, heavy-tail mix",
       {"arrival=bursty", "churn=flash-crowd", "mix=heavy-tail",
        "mix.alpha=1.4"}},
      {"open-loop poisson × weibull",
       {"arrival=poisson", "mix=even", "churn=weibull", "open-loop=1"}},
      // --- round-protocol cells (src/protocol/) --------------------------
      {"poisson × diurnal, overcommit 1.5",
       {"arrival=poisson", "churn=diurnal", "protocol=overcommit",
        "protocol.overcommit=1.5"}},
      {"bursty × weibull, async buffer 8",
       {"arrival=bursty", "churn=weibull", "protocol=async",
        "protocol.buffer=8", "protocol.concurrency=24"}},
      {"static × diurnal, async (defaults)",
       {"arrival=static", "churn=diurnal", "protocol=async"}},
      {"open-loop poisson × weibull, overcommit",
       {"arrival=poisson", "mix=even", "churn=weibull", "open-loop=1",
        "protocol=overcommit"}},
      // --- hierarchical-topology cells (src/topology/) -------------------
      {"hier 4-region × diurnal, sync 30s",
       {"arrival=poisson", "churn=diurnal", "topology=hier",
        "topo.regions=4", "topo.sync_latency=30", "topo.phase_spread=8"}},
      {"hier 3-region × weibull, overcommit, sync 120s",
       {"arrival=bursty", "churn=weibull", "protocol=overcommit",
        "topology=hier", "topo.regions=3", "topo.sync_latency=120"}},
  };

  std::printf("%-40s %12s %12s %9s %5s\n", "scenario", "random JCT",
              "venn JCT", "venn gain", "det");
  bool all_deterministic = true;
  for (const auto& cell : cells) {
    const RunResult rnd = run_cell(cell, extra, "random");
    const RunResult vn = run_cell(cell, extra, "venn");
    const RunResult vn2 = run_cell(cell, extra, "venn");
    const bool det = byte_identical(vn, vn2);
    all_deterministic = all_deterministic && det;
    if (rnd.jobs.empty() || vn.jobs.empty()) {
      std::printf("%-40s %12s %12s %9s %5s\n", cell.label, "-", "-", "-",
                  det ? "yes" : "NO");
      continue;
    }
    std::printf("%-40s %12.0f %12.0f %8.2fx %5s\n", cell.label, rnd.avg_jct(),
                vn.avg_jct(), improvement(rnd, vn), det ? "yes" : "NO");
  }

  if (!all_deterministic) {
    std::fprintf(stderr, "FAIL: nondeterministic gallery cell\n");
    return 1;
  }
  bench::note("all cells byte-identical across reruns at fixed seed");
  return 0;
}
