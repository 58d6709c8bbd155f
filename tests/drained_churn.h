// The reference side of the streamed-churn walls: a scenario's world with
// every device's churn stream drained (workload::materialize_sessions)
// into a session column and shifted by the hier region phases — the
// replayed trace of the same churn. The streamed run and this column run
// must agree byte for byte.
#pragma once

#include "venn/venn.h"

namespace venn {

// Builds `b`'s experiment with its churn sessions drained into a column.
// The scenario (churn model included, for the supply estimates both runs
// share), the observers and the jobs are `b`'s.
inline api::Experiment drained_churn(api::ExperimentBuilder b) {
  const api::Experiment streamed = b.build();
  const ScenarioSpec& sc = streamed.scenario();
  const workload::ChurnModel& churn = *streamed.generators().churn;
  SessionColumn sessions;
  for (std::size_t d = 0; d < sc.num_devices; ++d) {
    sessions.push_device(workload::materialize_sessions(
        churn, workload::device_stream_ctx(sc.seed, d, sc.horizon)));
  }
  const topology::TopologySpec topo = sc.topology_spec();
  if (topo.hier) {
    const topology::RegionMap regions(sc.num_devices, topo.regions);
    sessions.shift(
        [&](std::size_t d) {
          return topology::phase_offset(topo, regions.region_of(d));
        },
        sc.horizon);
  }
  return b.use_devices(streamed.inputs().devices, std::move(sessions))
      .use_jobs(streamed.inputs().jobs)
      .build();
}

}  // namespace venn
