// venn_perfbench — the repository benchmark's driver.
//
//   venn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR --daemon PATH
//   venn_perfbench --build-info
//
// Workloads: contention (batch runs through api::LiveSession) and service
// (the venn_coordinatord daemon). Prints
//   counters {...}   deterministic work counters and result digests
//   detail {...}     run facts that are not gated metrics
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}   (last line)
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. perfbench/run.py builds this binary and wraps it.
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common.h"
#include "util/build_info.h"

namespace {

// Per-layer metrics the batch workloads cannot exercise: they journal
// nothing and serve no socket, so these read zero there by definition.
constexpr std::pair<const char*, const char*> kServiceOnlyLayers[] = {
    {"journal.records", "count"},        {"journal.bytes", "B"},
    {"journal.encode_s", "s"},           {"journal.append_s", "s"},
    {"service.parse_s", "s"},            {"service.validate_s", "s"},
    {"service.apply_s", "s"},            {"service.transport_us", "us"},
    {"service.checkin.p50_us", "us"},    {"service.checkout.p50_us", "us"},
    {"service.respond.p50_us", "us"},    {"service.submit.p50_us", "us"},
    {"service.advance.p50_us", "us"},    {"service.recovery_s", "s"},
    {"service.teardown_ack_lost", "count"}, {"service.daemon_exit_status", "code"},
    {"replay.events_verified", "count"}, {"replay.events_per_s", "1/s"},
};

void on_alarm(int) {
  // Watchdog: a hung daemon must not hang the benchmark. Children die with
  // the driver (PR_SET_PDEATHSIG), so exiting is enough.
  static const char msg[] = "venn_perfbench: watchdog expired\n";
  (void)!write(STDERR_FILENO, msg, sizeof(msg) - 1);
  _exit(3);
}

// The watchdog's limit for a run of `seconds`: 173 s at the benchmark's 45,
// growing with the run's length. run.py waits 5 s longer before killing.
unsigned watchdog_s(double seconds) {
  return 60 + static_cast<unsigned>(std::ceil(2.5 * seconds));
}

int usage() {
  std::fprintf(stderr,
               "usage: venn_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --daemon PATH\n"
               "       venn_perfbench --build-info\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--build-info") {
      std::printf("%s\n", venn::build_info_line().c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v == "1";
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else if (a == "--daemon") {
        opt.daemon_path = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_seed || opt.work_dir.empty() ||
      opt.daemon_path.empty() || !(opt.seconds > 0)) {
    return usage();
  }
  // Die with the wrapper that started us, so no run outlives run.py.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  // The client must survive a daemon that dies mid-reply.
  signal(SIGPIPE, SIG_IGN);
  signal(SIGALRM, on_alarm);
  alarm(watchdog_s(opt.seconds));

  perfbench::Outcome out;
  try {
    out = opt.workload == "service" ? perfbench::run_service(opt)
                                    : perfbench::run_batch(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "venn_perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace && opt.workload != "service") {
    for (const auto& [name, unit] : kServiceOnlyLayers) out.per_layer.add(name, 0.0, unit);
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }

  std::string digests = "{";
  for (const auto& [k, v] : out.digests) {
    if (digests.size() > 1) digests += ",";
    digests += "\"" + k + "\":\"" + v + "\"";
  }
  digests += "}";
  std::printf("counters {\"counters\":%s,\"digests\":%s}\n",
              perfbench::counters_json(out.counters).c_str(), digests.c_str());
  std::printf("detail {\"build\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,%s}\n",
              venn::build_info_line().c_str(), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), out.detail.c_str());
  const bool correct = out.failed == 0 && out.errors.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              (opt.trace ? out.per_layer : out.end_to_end).json().c_str());
  return 0;
}
