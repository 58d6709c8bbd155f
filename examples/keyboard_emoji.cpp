// The paper's motivating scenario (§2.3 / Fig. 3), at simulation scale:
// one "Keyboard prediction" job that any device can serve competes with
// several "Emoji prediction" jobs that only high-performance devices can
// serve. Random matching and SRSF waste the scarce Emoji-eligible devices
// on the Keyboard job; Venn's IRS reserves them.
//
// This example builds devices and jobs explicitly (no workload sampler) to
// show the lower-level API: explicit inputs slot into the builder via
// use_devices / use_jobs, and policies still run by registry name.
#include <cstdio>

#include "venn/venn.h"

using namespace venn;

namespace {

std::vector<trace::JobSpec> build_jobs() {
  std::vector<trace::JobSpec> jobs;

  trace::JobSpec keyboard;
  keyboard.rounds = 12;
  keyboard.demand = 60;
  keyboard.category = ResourceCategory::kGeneral;  // runs anywhere
  keyboard.arrival = 0.0;
  keyboard.nominal_task_s = 120.0;
  keyboard.deadline_s = 12 * kMinute;
  jobs.push_back(keyboard);

  for (int i = 0; i < 3; ++i) {
    trace::JobSpec emoji;
    emoji.rounds = 10;
    emoji.demand = 40;
    emoji.category = ResourceCategory::kHighPerf;  // scarce devices only
    emoji.arrival = 5.0 * kMinute * (i + 1);
    emoji.nominal_task_s = 120.0;
    emoji.deadline_s = 12 * kMinute;
    jobs.push_back(emoji);
  }
  return jobs;
}

}  // namespace

int main() {
  // Population: constrained supply so the contention pattern of Fig. 3
  // appears — Emoji-eligible (High-Perf) devices are the bottleneck.
  Rng rng(3);
  trace::HardwareConfig hw;
  trace::AvailabilityConfig avail;
  avail.horizon = 7 * kDay;
  std::vector<DeviceSpec> devices;  // device i is devices[i]
  SessionColumn sessions;
  for (int i = 0; i < 1500; ++i) {
    sessions.push_device(trace::generate_sessions(avail, rng));
    devices.push_back(trace::sample_spec(hw, rng));
  }

  const auto ex = ExperimentBuilder()
                      .seed(99)
                      .horizon(28 * kDay)
                      .use_devices(std::move(devices), std::move(sessions))
                      .use_jobs(build_jobs())
                      .build();

  std::printf("%-8s %14s %20s %20s\n", "policy", "avg JCT", "Keyboard JCT",
              "avg Emoji JCT");
  for (const char* policy : {"random", "srsf", "venn"}) {
    const RunResult r = ex.run(policy);
    const double keyboard = r.jobs.front().jct;
    double emoji = 0.0;
    for (std::size_t i = 1; i < r.jobs.size(); ++i) emoji += r.jobs[i].jct;
    emoji /= static_cast<double>(r.jobs.size() - 1);
    std::printf("%-8s %12.0f s %18.0f s %18.0f s\n", r.scheduler.c_str(),
                r.avg_jct(), keyboard, emoji);
  }
  std::printf(
      "\nExpected (paper §2.3): Venn trims the Emoji jobs' completion times\n"
      "by reserving High-Perf devices for them, at little or no cost to the\n"
      "Keyboard job, which has the whole population to draw from.\n");
  return 0;
}
