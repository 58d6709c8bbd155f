// Streaming-churn and open-loop coordinator tests: a churn model's
// sessions stream through each device's cursor and run byte for byte like
// the same sessions replayed from a column, mid-run job admission,
// determinism, and the evidence that a 100k-device streaming scenario
// holds O(devices) sessions, never the whole trace.
#include <gtest/gtest.h>

#include "api/live.h"
#include "drained_churn.h"
#include "journal/format.h"
#include "journal/sink.h"
#include "service/dump.h"
#include "venn/venn.h"

namespace venn {
namespace {

ScenarioSpec streaming_scenario(std::size_t devices, double horizon_days) {
  ScenarioSpec sc;
  sc.seed = 7;
  sc.num_devices = devices;
  sc.num_jobs = 6;
  sc.horizon = horizon_days * kDay;
  sc.job_trace.min_rounds = 2;
  sc.job_trace.max_rounds = 5;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 12;
  sc.set("churn", "weibull");
  return sc;
}

// Every event record a run emits, framed as the journal writes it, and the
// (time, device) of each check-in.
class EventCapture final : public journal::EventEncoderSink {
 public:
  void on_snapshot(const journal::StateSnapshot&) override {}

  std::string bytes;
  std::vector<std::pair<SimTime, std::uint64_t>> checkins;

 protected:
  void handle(journal::RecordType type, std::string_view frame) override {
    bytes.append(frame);
    if (type != journal::RecordType::kCheckin) return;
    journal::Decoder d(frame.substr(journal::kFramePayloadOffset), 0);
    const SimTime t = d.f64();
    checkins.emplace_back(t, d.u64());
  }
};

struct TracedRun {
  std::string result;  // service::dump_run of the RunResult
  EventCapture events;
  std::uint64_t executed = 0;
  std::size_t peak_pending = 0;
  std::uint64_t sessions_streamed = 0;
  std::size_t resident_sessions = 0;
};

// Runs `ex` under venn with epsilon > 0: the fairness path consumes the
// solo JCT estimates, so those must agree too.
TracedRun run_traced(const Experiment& ex) {
  PolicySpec venn("venn");
  venn.set("epsilon", "2");
  TracedRun out;
  auto scheduler = PolicyRegistry::instance().create(
      venn.name, venn.params, ex.stream_seed("scheduler"));
  api::LiveSession live(ex, std::move(scheduler), "venn", &out.events);
  live.start();
  out.result = service::dump_run(live.finish(), nullptr);
  out.executed = live.engine().events_executed();
  out.peak_pending = live.engine().queue().peak_pending();
  out.sessions_streamed = live.coordinator().sessions_streamed();
  out.resident_sessions = live.coordinator().resident_session_count();
  return out;
}

// A churn model's sessions stream through the devices' cursors; the same
// sessions drained into a column replay through the same lane. The two
// runs must be the same run: identical results, identical event records
// byte for byte, identical event counts and queue peaks. Starts sharing an
// instant must also check in in device order, the order scheduling every
// start eagerly gives them.
TEST(StreamingChurn, MatchesMaterializedRunByteForByte) {
  std::size_t at_zero = 0;  // weibull's initially-online devices start at 0
  for (const char* model : {"weibull", "diurnal"}) {
    SCOPED_TRACE(model);
    ScenarioSpec sc = streaming_scenario(400, 8.0);
    sc.churn_gen = {};
    sc.set("churn", model);
    const Experiment streamed = ExperimentBuilder().scenario(sc).build();
    const Experiment column = drained_churn(ExperimentBuilder().scenario(sc));
    ASSERT_EQ(streamed.inputs().sessions.size(), 0u);
    ASSERT_EQ(column.inputs().sessions.devices(), sc.num_devices);

    const TracedRun s = run_traced(streamed);
    const TracedRun c = run_traced(column);
    EXPECT_EQ(s.result, c.result);
    EXPECT_TRUE(s.events.bytes == c.events.bytes)
        << "event records diverge (" << s.events.bytes.size() << " vs "
        << c.events.bytes.size() << " bytes)";
    EXPECT_EQ(s.executed, c.executed);
    EXPECT_EQ(s.peak_pending, c.peak_pending);
    // Every drained session was pulled from the streams, one at a time.
    EXPECT_EQ(s.sessions_streamed, column.inputs().sessions.size());
    EXPECT_EQ(c.sessions_streamed, 0u);
    EXPECT_EQ(c.resident_sessions, column.inputs().sessions.size());
    EXPECT_LE(s.resident_sessions, sc.num_devices);

    for (std::size_t i = 1; i < s.events.checkins.size(); ++i) {
      const auto& [t0, d0] = s.events.checkins[i - 1];
      const auto& [t1, d1] = s.events.checkins[i];
      if (t0 != 0.0 || t1 != 0.0) continue;
      ++at_zero;
      EXPECT_LT(d0, d1) << "check-ins at t=0 out of device order";
    }
  }
  EXPECT_GT(at_zero, 10u) << "no starts share t=0; the order check is moot";
}

TEST(StreamingChurn, DeterministicAcrossReruns) {
  const ScenarioSpec sc = streaming_scenario(300, 6.0);
  const RunResult a = ExperimentBuilder().scenario(sc).policy("venn").run();
  const RunResult b = ExperimentBuilder().scenario(sc).policy("venn").run();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].jct, b.jobs[i].jct);
  }
}

// Churn knobs need a churn model to configure.
TEST(StreamingChurn, RequiresChurnModel) {
  ScenarioSpec sc;
  sc.set("churn.up-scale-h", "4");  // no churn= configured
  EXPECT_THROW((void)api::build_inputs(sc), std::invalid_argument);
}

// A session column must cover the whole fleet (or no device, when the
// sessions stream): a column of another fleet is rejected, not misread.
TEST(StreamingChurn, CoordinatorRejectsMisSizedSessionColumn) {
  ScenarioSpec sc = streaming_scenario(50, 4.0);
  const Experiment column = drained_churn(ExperimentBuilder().scenario(sc));
  std::vector<DeviceSpec> fewer = column.inputs().devices;
  fewer.pop_back();
  sim::Engine engine(1);
  ResourceManager manager(PolicyRegistry::instance().create("fifo", {}, 1));
  CoordinatorConfig ccfg;
  ccfg.churn = column.generators().churn.get();
  ccfg.seed = sc.seed;
  EXPECT_THROW(Coordinator(engine, manager, fewer, column.inputs().sessions,
                           column.inputs().jobs, ccfg),
               std::invalid_argument);
}

// The acceptance assertion: a 100k-device churn scenario builds no session
// column, holds at most one pending session per device mid-run (O(devices)
// memory), and still consumes far more sessions than are ever resident —
// the evidence that nothing holds the O(devices × horizon) trace.
TEST(StreamingChurn, HundredThousandDevicesStreamWithoutMaterializing) {
  ScenarioSpec sc = streaming_scenario(100'000, 28.0);
  // Long sessions / gaps keep the event count (and test runtime) sane while
  // still streaming ~10 sessions per device.
  sc.churn_gen.params.kv["up-scale-h"] = "12";
  sc.churn_gen.params.kv["down-scale-h"] = "60";

  const auto inputs = api::build_inputs(sc);
  ASSERT_EQ(inputs.devices.size(), 100'000u);
  ASSERT_EQ(inputs.sessions.devices(), 0u)
      << "a churn build must not materialize sessions";
  ASSERT_EQ(inputs.sessions.size(), 0u);

  sim::Engine engine(Rng::derive(sc.seed, "engine"));
  ResourceManager manager(PolicyRegistry::instance().create(
      "venn", {}, Rng::derive(sc.seed, "scheduler")));
  const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                               sc.churn_gen, sc.seed);
  CoordinatorConfig ccfg;
  ccfg.horizon = sc.horizon;
  ccfg.churn = gens.churn.get();
  ccfg.seed = sc.seed;
  Coordinator coord(engine, manager, inputs.devices, inputs.sessions,
                    inputs.jobs, ccfg);
  // Probe coordinator-resident sessions mid-run, when streaming is in full
  // swing (each cursor holds at most its one pending session).
  std::size_t mid_run_resident = 0;
  engine.at(sc.horizon / 2,
            [&] { mid_run_resident = coord.resident_session_count(); });
  coord.run();

  EXPECT_GT(mid_run_resident, 0u);
  EXPECT_LE(mid_run_resident, 100'000u);  // ≤ one per device
  EXPECT_GT(coord.sessions_streamed(), 5u * 100'000u);
  // And the workload actually ran against those devices.
  EXPECT_FALSE(coord.jobs().empty());
}

// ----------------------------------------------------------- open loop --

ScenarioSpec open_loop_scenario() {
  ScenarioSpec sc;
  sc.seed = 9;
  sc.num_devices = 500;
  sc.num_jobs = 0;  // unbounded: horizon caps admissions
  sc.horizon = 6.0 * kDay;
  sc.set("arrival", "poisson");
  sc.set("arrival.interarrival-min", "360");
  sc.set("mix", "even");
  sc.set("mix.min-demand", "3");
  sc.set("mix.max-demand", "10");
  sc.set("mix.max-rounds", "5");
  sc.set("open-loop", "1");
  return sc;
}

TEST(OpenLoop, AdmitsJobsMidRun) {
  const RunResult r =
      ExperimentBuilder().scenario(open_loop_scenario()).policy("venn").run();
  // ~6 days / 6 h mean inter-arrival: about two dozen jobs, admitted at
  // their (strictly increasing, mid-run) arrival times.
  ASSERT_GT(r.jobs.size(), 5u);
  ASSERT_LT(r.jobs.size(), 60u);
  SimTime prev = -1.0;
  bool any_late = false;
  for (const auto& j : r.jobs) {
    EXPECT_GT(j.spec.arrival, prev);
    prev = j.spec.arrival;
    any_late = any_late || j.spec.arrival > kDay;
  }
  EXPECT_TRUE(any_late) << "arrivals must extend past the first day";
  EXPECT_GT(r.finished_jobs(), 0u);
}

TEST(OpenLoop, JobsKeyCapsAdmissions) {
  ScenarioSpec sc = open_loop_scenario();
  sc.num_jobs = 4;
  const RunResult r = ExperimentBuilder().scenario(sc).policy("fifo").run();
  EXPECT_EQ(r.jobs.size(), 4u);
}

TEST(OpenLoop, IdenticalWorldAcrossPolicies) {
  const auto ex =
      ExperimentBuilder().scenario(open_loop_scenario()).build();
  const RunResult a = ex.run("fifo");
  const RunResult b = ex.run("srsf");
  // Same arrivals and specs regardless of the policy under test.
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].spec.arrival, b.jobs[i].spec.arrival);
    EXPECT_EQ(a.jobs[i].spec.demand, b.jobs[i].spec.demand);
    EXPECT_EQ(a.jobs[i].spec.rounds, b.jobs[i].spec.rounds);
  }
}

TEST(OpenLoop, UnboundedStaticBatchRejected) {
  // A batch process never advances time; unbounded admission must fail
  // eagerly instead of admitting forever at one timestamp.
  ScenarioSpec sc = open_loop_scenario();
  sc.arrival_gen = {};  // drop the poisson knobs along with the name
  sc.set("arrival", "static");
  sc.num_jobs = 0;
  EXPECT_THROW((void)api::build_inputs(sc), std::invalid_argument);
  sc.num_jobs = 5;  // capped admission is fine
  const RunResult r = ExperimentBuilder().scenario(sc).policy("fifo").run();
  EXPECT_EQ(r.jobs.size(), 5u);

  // A *spaced* static process does advance time, so unbounded admission
  // with it is legitimate: one job per spacing until the horizon.
  sc.num_jobs = 0;
  sc.set("arrival.spacing-min", "720");  // 12 h
  const RunResult spaced =
      ExperimentBuilder().scenario(sc).policy("fifo").run();
  EXPECT_EQ(spaced.jobs.size(), 12u);  // 6-day horizon / 12 h
}

TEST(OpenLoop, RequiresArrivalAndMix) {
  ScenarioSpec sc;
  sc.open_loop = true;
  sc.set("arrival", "poisson");  // mix missing
  EXPECT_THROW((void)api::build_inputs(sc), std::invalid_argument);
  EXPECT_THROW((void)ExperimentBuilder().scenario(sc).build(),
               std::invalid_argument);
}

TEST(OpenLoop, CombinesWithStreamingChurn) {
  ScenarioSpec sc = open_loop_scenario();
  sc.set("churn", "weibull");
  sc.num_jobs = 8;
  const RunResult a = ExperimentBuilder().scenario(sc).policy("venn").run();
  const RunResult b = ExperimentBuilder().scenario(sc).policy("venn").run();
  EXPECT_EQ(a.jobs.size(), 8u);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].jct, b.jobs[i].jct);
  }
}

}  // namespace
}  // namespace venn
