// Fig. 2a: diurnal device availability — fraction of the population that is
// online (charging + WiFi) over a 96-hour window.
//
// The paper derives this from the FedScale client trace (180M events); here
// the availability model generates it. The expected shape: a clear 24-hour
// oscillation with peaks in the 15-30% band.
#include "bench_util.h"
#include "trace/availability.h"
#include "trace/hardware.h"

using namespace venn;

int main() {
  bench::header("Fig. 2a — diurnal device availability",
                "Fig. 2a (§2.1), FedScale availability trace substitute");

  trace::AvailabilityConfig acfg;
  acfg.horizon = 96.0 * kHour;
  trace::HardwareConfig hcfg;
  Rng rng(42);
  SessionColumn sessions;
  for (int i = 0; i < 4000; ++i) {
    sessions.push_device(trace::generate_sessions(acfg, rng));
    (void)trace::sample_spec(hcfg, rng);  // keeps the seeded draw order
  }

  const auto curve =
      trace::availability_curve(sessions, acfg.horizon, 2.0 * kHour);
  std::printf("%-10s %-10s %s\n", "t (h)", "online", "bar");
  double peak = 0.0, trough = 1.0;
  for (const auto& pt : curve) {
    peak = std::max(peak, pt.fraction_online);
    trough = std::min(trough, pt.fraction_online);
    const int bars = static_cast<int>(pt.fraction_online * 100.0);
    std::printf("%-10.0f %-9.1f%% %s\n", pt.t / kHour,
                pt.fraction_online * 100.0, std::string(bars, '#').c_str());
  }
  std::printf("\nMeasured: peak %.1f%%, trough %.1f%% (paper Fig. 2a: "
              "oscillates roughly 15%%-30%% with a 24 h period)\n",
              peak * 100.0, trough * 100.0);
  return 0;
}
