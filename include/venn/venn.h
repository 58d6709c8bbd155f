// venn/venn.h — the single public include of the Venn CL resource manager.
//
// The paper's system (conf_mlsys_Liu000C25) is a standalone resource manager
// for collaborative learning: jobs submit per-round resource requests,
// heterogeneous end devices check in as they become available, and a
// pluggable scheduling policy decides which job gets each device. This
// header exports the scenario-driven public API:
//
//   PolicyRegistry / PolicyRegistration  — open, string-keyed policy
//       factories ("random", "fifo", "srsf", "venn", "venn-nosched",
//       "venn-nomatch" built in; register your own without touching core).
//   ScenarioSpec / PolicySpec            — declarative experiment
//       descriptions with `key=value` override parsing.
//   ExperimentBuilder / Experiment       — the one construction path: build
//       inputs once, run any number of policies against the same trace.
//   RunObserver (+ AssignmentMatrixObserver, TimeSeriesRecorder)
//                                        — composable run instrumentation.
//   SweepRunner                          — a (scenario × policy × seed)
//       grid on a thread pool with deterministic per-cell seeding.
//   workload generator registries        — string-keyed arrival processes,
//       job-mix samplers and device-churn models (src/workload/), wired
//       through `arrival=`/`mix=`/`churn=` scenario keys; a churn model's
//       sessions always stream lazily (O(devices) memory), `open-loop=1`
//       admits jobs mid-run.
//   RoundProtocol / ProtocolRegistry     — string-keyed round-aggregation
//       regimes (src/protocol/): `sync` (the paper's §5.1 rounds),
//       `overcommit` (over-selection with straggler release) and `async`
//       (FedBuff-style buffered aggregation), wired through the
//       `protocol=` scenario key plus `protocol.<knob>` overrides.
//   Durable coordinator journal           — `journal=1` records every
//       coordinator event to an append-only CRC-framed file
//       (src/journal/), `snapshot_every=N` snapshots coordinator state
//       every N commits, and Experiment::replay() re-executes a journaled
//       run byte-identically — including resuming a crashed run past a
//       torn tail (ReplayOptions{.tolerate_torn_tail, .resume}).
//
// Quickstart:
//
//   #include "venn/venn.h"
//   int main() {
//     const auto ex = venn::ExperimentBuilder()
//                         .seed(7).devices(3000).jobs(8).build();
//     const venn::RunResult venn_run = ex.run("venn");
//     const venn::RunResult random_run = ex.run("random");
//     std::printf("Venn %.0f s vs Random %.0f s\n", venn_run.avg_jct(),
//                 random_run.avg_jct());
//   }
//
#pragma once

#include "api/builder.h"
#include "api/observers.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "api/sweep.h"
#include "core/coordinator.h"
#include "core/metrics.h"
#include "core/observer.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "journal/verifier.h"
#include "journal/writer.h"
#include "protocol/registry.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace venn {

// The api types are part of the top-level venn:: surface.
using api::Experiment;
using api::ExperimentBuilder;
using api::PolicyParams;
using api::PolicyRegistration;
using api::PolicyRegistry;
using api::PolicySpec;
using api::ReplayOptions;
using api::ReplayReport;
using api::ScenarioSpec;
using api::SweepCell;
using api::SweepRunner;
using api::SweepSpec;
using api::TimeSeriesRecorder;

// The round-protocol extension surface (src/protocol/).
using protocol::ProtocolRegistration;
using protocol::ProtocolRegistry;
using protocol::RoundProtocol;

// The durability surface (src/journal/).
using journal::JournalReader;
using journal::JournalVerifier;
using journal::JournalWriter;
using journal::SimulationHalted;
using journal::StateSnapshot;

}  // namespace venn
