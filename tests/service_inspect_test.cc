// Time-travel inspector wall.
//
// `inspect_journal(path, {--seek-commit N})` replays a journal with the
// verifier armed to stop at the Nth commit — the exact program point where
// cadence snapshots are captured — and dumps the coordinator state there.
// Pinned here, per round protocol:
//
//   - seeking to a commit that has a stored snapshot compares the replayed
//     coordinator against it byte for byte (zero drift, or the inspector
//     throws),
//   - seeking to a commit without one still produces a full state dump and
//     says "none stored",
//   - seek-commit 0 defaults to the journal's last commit,
//   - seeking past the last commit refuses cleanly, naming the actual
//     commit count, without partially replaying anything.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/live.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "service/inspect.h"
#include "venn/venn.h"

namespace venn {
namespace {

std::string journal_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "venn_inspect_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// A small scenario busy enough to accumulate a healthy commit count.
ScenarioSpec busy_scenario(const std::string& proto) {
  ScenarioSpec sc;
  sc.seed = 83;
  sc.num_devices = 2'000;
  sc.num_jobs = 5;
  sc.horizon = 2.0 * kDay;
  sc.set("churn", "weibull");
  sc.set("protocol", proto);
  return sc;
}

// A journaled batch run with a snapshot cadence, returning the journal
// path.
std::string make_journal(const std::string& proto) {
  ScenarioSpec sc = busy_scenario(proto);
  sc.set("journal", "1");
  sc.set("journal.dir", journal_dir(proto));
  sc.set("snapshot_every", "3");
  const RunResult result = ExperimentBuilder().scenario(sc).run();
  return api::journal_file_path(sc, result.scheduler);
}

TEST(ServiceInspect, SeeksVerifiesAndRefusesAcrossProtocols) {
  for (const char* proto : {"sync", "overcommit", "async"}) {
    SCOPED_TRACE(proto);
    const std::string path = make_journal(proto);
    journal::JournalReader reader(path);
    const journal::JournalScan scan = reader.scan();
    ASSERT_GE(scan.commits, 4u) << "scenario too quiet to inspect";
    ASSERT_FALSE(scan.snapshot_marks.empty());

    // A commit WITH a stored snapshot: the replayed state must reproduce
    // it byte for byte, and the report says so.
    const std::uint64_t snap_commit = scan.snapshot_marks.back();
    const service::InspectReport at_snap =
        service::inspect_journal(path, {snap_commit});
    EXPECT_EQ(at_snap.commit, snap_commit);
    EXPECT_TRUE(at_snap.snapshot_compared);
    EXPECT_NE(at_snap.text.find("verified byte-identical"),
              std::string::npos)
        << at_snap.text;
    // The dump carries the actual coordinator state sections.
    for (const char* section : {"clock ", "idle-pool ", "jobs ",
                                "protocol "}) {
      EXPECT_NE(at_snap.text.find(section), std::string::npos)
          << "dump missing \"" << section << "\":\n" << at_snap.text;
    }

    // A commit WITHOUT a stored snapshot still dumps, and says none.
    std::uint64_t bare_commit = 0;
    for (std::uint64_t c = 1; c <= scan.commits; ++c) {
      if (!std::filesystem::exists(journal::snapshot_path(path, c))) {
        bare_commit = c;
        break;
      }
    }
    ASSERT_GT(bare_commit, 0u) << "every commit has a snapshot?";
    const service::InspectReport bare =
        service::inspect_journal(path, {bare_commit});
    EXPECT_FALSE(bare.snapshot_compared);
    EXPECT_NE(bare.text.find("none stored"), std::string::npos)
        << bare.text;

    // seek-commit 0 = the journal's last commit.
    const service::InspectReport last = service::inspect_journal(path);
    EXPECT_EQ(last.commit, scan.commits);

    // Past the end: clean refusal naming the real commit count.
    try {
      (void)service::inspect_journal(path, {scan.commits + 7});
      FAIL() << "seek past the last commit did not throw";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("only " + std::to_string(scan.commits)),
                std::string::npos)
          << msg;
    }
  }
}

// The eligibility-index line, at the last commit, against a scan of the
// fleet per requirement. Which requirement each count belongs to comes
// from the same scenario run in process: requirements are registered in
// the same order, and registration only appends.
TEST(ServiceInspect, EligibleCountsMatchAPerRequirementScan) {
  const std::string path = make_journal("sync");
  const std::string text = service::inspect_journal(path).text;
  const std::string head = "eligibility-index requirements=";
  const std::size_t at = text.find(head);
  ASSERT_NE(at, std::string::npos) << text;
  const std::string line = text.substr(at, text.find('\n', at) - at);
  const std::size_t reqs = std::stoul(line.substr(head.size()));

  ExperimentBuilder b;
  b.scenario(busy_scenario("sync"));
  const Experiment ex = b.build();
  const PolicySpec policy = b.current_policy();
  api::LiveSession live(
      ex,
      PolicyRegistry::instance().create(policy.name, policy.params,
                                        ex.stream_seed("scheduler")),
      {}, nullptr);
  live.start();
  (void)live.finish();
  const EligibilityIndex& index = live.coordinator().index();
  ASSERT_GE(index.num_requirements(), reqs);
  ASSERT_GE(reqs, 2u) << "scenario registers too few requirements";

  const std::vector<DeviceSpec>& devices = ex.inputs().devices;
  std::string want = head + std::to_string(reqs) +
                     " devices=" + std::to_string(devices.size()) +
                     " eligible";
  for (std::size_t g = 0; g < reqs; ++g) {
    const Requirement& req = index.requirement(g);
    std::size_t eligible = 0;
    for (const DeviceSpec& d : devices) eligible += req.eligible(d) ? 1 : 0;
    EXPECT_GT(eligible, 0u) << "requirement " << g;
    want += ' ' + std::to_string(eligible);
  }
  EXPECT_EQ(line, want);
}

TEST(ServiceInspect, RefusesMissingJournal) {
  EXPECT_THROW((void)service::inspect_journal(::testing::TempDir() +
                                              "venn_no_such.vjl"),
               std::exception);
}

}  // namespace
}  // namespace venn
