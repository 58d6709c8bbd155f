// Wire-codec property & fuzz wall for the coordinator service.
//
// The service speaks newline-framed text lines (src/service/codec.h), and
// the daemon's durability story rests on two codec facts:
//
//   1. TrafficCommand::parse(canonical()) is the identity — canonical()
//      is the byte-stable key journaled in kExternal records, so a
//      round-trip failure would make resume replay a DIFFERENT command
//      than the one the live daemon applied.
//   2. Rejection is total and harmless: malformed frames, oversized
//      payloads, unknown verbs and garbage bytes yield an err reply (or a
//      parse exception below the daemon) — never a crash, and never a
//      journal record. Interleaved admin traffic journals nothing either.
//
// Both are pinned here: (1) as a randomized round-trip property over the
// full command space, (2) as unit rejections plus a daemon-level fuzz run
// whose journal is scanned afterwards and must contain exactly the
// accepted commands, in order, with contiguous seqs.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/live.h"
#include "journal/reader.h"
#include "service/codec.h"
#include "service/daemon.h"
#include "venn/venn.h"

namespace venn {
namespace {

using api::TrafficCommand;
using service::RequestKind;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::filesystem::remove(path);
  return path;
}

// ------------------------------------------------------------- frame units --

TEST(ServiceCodec, FrameErrorCatchesViolations) {
  EXPECT_TRUE(service::frame_error("").has_value());
  EXPECT_FALSE(service::frame_error("ping").has_value());
  EXPECT_FALSE(service::frame_error("advance 86400").has_value());
  // Exactly at the cap is fine; one past is a violation.
  EXPECT_FALSE(
      service::frame_error(std::string(service::kMaxLineBytes, 'a')));
  EXPECT_TRUE(
      service::frame_error(std::string(service::kMaxLineBytes + 1, 'a')));
  // Only printable ASCII travels on the wire.
  EXPECT_TRUE(service::frame_error("ping\tpong").has_value());
  EXPECT_TRUE(service::frame_error(std::string("ping\0", 5)).has_value());
  EXPECT_TRUE(service::frame_error("status\x01").has_value());
  EXPECT_TRUE(service::frame_error("caf\xc3\xa9").has_value());
}

TEST(ServiceCodec, ClassifyRoutesEveryVerb) {
  for (const char* v : {"advance 5", "checkin 1 60", "checkout 1",
                        "submit 1 1 0 10 0.5 600", "admit", "respond 3",
                        "snapshot-now"}) {
    EXPECT_EQ(service::classify(v), RequestKind::kTraffic) << v;
  }
  for (const char* v : {"ping", "version", "status", "seq", "drain",
                        "shutdown"}) {
    EXPECT_EQ(service::classify(v), RequestKind::kAdmin) << v;
  }
  EXPECT_EQ(service::classify("bogus"), RequestKind::kInvalid);
  EXPECT_EQ(service::classify(""), RequestKind::kInvalid);
  EXPECT_EQ(service::classify("   "), RequestKind::kInvalid);
  EXPECT_EQ(service::classify("advance\t5"), RequestKind::kInvalid);
}

TEST(ServiceCodec, RepliesAreSingleLines) {
  EXPECT_EQ(service::ok_reply(), "ok");
  EXPECT_EQ(service::ok_reply("7"), "ok 7");
  EXPECT_EQ(service::err_reply("boom"), "err boom");
  EXPECT_EQ(service::err_reply(""), "err unspecified");
  const std::string flat = service::err_reply("multi\nline\rmessage");
  EXPECT_EQ(flat.find('\n'), std::string::npos);
  EXPECT_EQ(flat.find('\r'), std::string::npos);
}

// ------------------------------------------------- canonical round-trip --

// Doubles drawn across magnitudes, including awkward mantissas that only
// survive text round-trips at 17 significant digits.
double random_double(std::mt19937_64& rng, bool strictly_positive) {
  std::uniform_int_distribution<int> exp_dist(-6, 8);
  std::uniform_real_distribution<double> mant(0.0, 1.0);
  double v = mant(rng) * std::pow(10.0, exp_dist(rng));
  if (strictly_positive && v <= 0.0) v = 1e-9;
  return v;
}

TrafficCommand random_command(std::mt19937_64& rng, double* cursor) {
  std::uniform_int_distribution<int> kind_dist(0, 6);
  std::uniform_int_distribution<std::size_t> dev_dist(0, 999'999);
  std::uniform_int_distribution<int> small(1, 500);
  TrafficCommand cmd;
  switch (kind_dist(rng)) {
    case 0:
      cmd.kind = TrafficCommand::Kind::kAdvance;
      *cursor += random_double(rng, true);
      cmd.target = *cursor;
      break;
    case 1:
      cmd.kind = TrafficCommand::Kind::kCheckin;
      cmd.dev = dev_dist(rng);
      cmd.duration = random_double(rng, true);
      break;
    case 2:
      cmd.kind = TrafficCommand::Kind::kCheckout;
      cmd.dev = dev_dist(rng);
      break;
    case 3:
      cmd.kind = TrafficCommand::Kind::kSubmit;
      cmd.spec.rounds = small(rng);
      cmd.spec.demand = small(rng);
      cmd.spec.category = static_cast<ResourceCategory>(
          std::uniform_int_distribution<int>(0, kNumCategories - 1)(rng));
      cmd.spec.nominal_task_s = random_double(rng, true);
      cmd.spec.task_cv = std::abs(random_double(rng, false));
      cmd.spec.deadline_s = random_double(rng, true);
      break;
    case 4:
      cmd.kind = TrafficCommand::Kind::kAdmit;
      break;
    case 5:
      cmd.kind = TrafficCommand::Kind::kRespond;
      cmd.dev = dev_dist(rng);
      break;
    default:
      cmd.kind = TrafficCommand::Kind::kSnapshotNow;
      break;
  }
  return cmd;
}

TEST(ServiceCodec, CanonicalParseRoundTripProperty) {
  std::mt19937_64 rng(0xC0DEC5EED);
  double cursor = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const TrafficCommand cmd = random_command(rng, &cursor);
    const std::string line = cmd.canonical();
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " + line);
    ASSERT_EQ(service::classify(line), RequestKind::kTraffic);
    const TrafficCommand back = TrafficCommand::parse(line);
    // Byte-stable: re-canonicalizing the parse reproduces the exact line
    // the journal would store.
    ASSERT_EQ(back.canonical(), line);
    ASSERT_EQ(back.kind, cmd.kind);
    ASSERT_EQ(back.dev, cmd.dev);
    ASSERT_EQ(back.target, cmd.target);
    ASSERT_EQ(back.duration, cmd.duration);
  }
}

TEST(ServiceCodec, MalformedTrafficLinesThrow) {
  for (const char* bad : {
           "",                       // nothing
           "advance",                // missing arg
           "advance x",              // non-numeric
           "advance -1",             // negative target
           "advance 5 6",            // extra arg
           "checkin 5",              // missing duration
           "checkin 5 0",            // duration must be > 0
           "checkin 5 -3",           // negative duration
           "checkout",               // missing device
           "checkout -1",            // negative device
           "submit 1 2 3",           // too few args
           "submit 0 1 0 10 0.5 600",   // rounds < 1
           "submit 1 0 0 10 0.5 600",   // demand < 1
           "submit 1 1 99 10 0.5 600",  // category out of range
           "submit 1 1 0 0 0.5 600",    // task_s must be > 0
           "submit 1 1 0 10 -1 600",    // negative cv
           "submit 1 1 0 10 0.5 0",     // deadline must be > 0
           "respond",                // missing device
           "admit now",              // admit takes no args
           "snapshot-now 1",         // snapshot-now takes no args
           "bogus 1 2",              // unknown verb
       }) {
    EXPECT_THROW((void)TrafficCommand::parse(bad), std::invalid_argument)
        << "\"" << bad << "\" parsed but should have thrown";
  }
}

// ------------------------------------------------------------ daemon fuzz --

service::CoordinatorDaemon make_daemon(const std::string& journal,
                                       unsigned seed) {
  ExperimentBuilder builder;
  service::DaemonOptions opts;
  opts.scenario = builder.current_scenario();
  opts.scenario.seed = seed;
  opts.scenario.num_devices = 300;
  opts.scenario.num_jobs = 2;
  opts.scenario.horizon = 1.0 * kDay;
  opts.policy = builder.current_policy();
  opts.journal_path = journal;
  return service::CoordinatorDaemon(std::move(opts));
}

// Garbage in, err out, daemon intact, journal clean: after a barrage of
// malformed frames, out-of-range devices, unknown verbs, oversized lines
// and interleaved admin chatter, the journal must hold EXACTLY the
// accepted traffic commands with contiguous seqs — and nothing else.
TEST(ServiceCodec, DaemonSurvivesFuzzAndJournalStaysClean) {
  const std::string journal = temp_path("venn_service_fuzz.vjl");
  std::mt19937_64 rng(0xF0220B42);
  std::vector<std::string> accepted;
  {
    service::CoordinatorDaemon daemon = make_daemon(journal, 11);
    std::uniform_int_distribution<int> pick(0, 9);
    std::uniform_int_distribution<std::size_t> dev(0, 299);
    std::uniform_int_distribution<std::size_t> bad_dev(300, 1'000'000);
    std::uniform_real_distribution<double> step(1.0, 1800.0);
    std::uniform_int_distribution<int> ascii(0x20, 0x7e);
    double cursor = 0.0;
    for (int i = 0; i < 400; ++i) {
      std::string line;
      bool expect_ok = false;
      switch (pick(rng)) {
        case 0:  // valid advance
          cursor += step(rng);
          line = "advance " + std::to_string(cursor);
          expect_ok = true;
          break;
        case 1:  // valid checkin
          line = "checkin " + std::to_string(dev(rng)) + " 3600";
          expect_ok = true;
          break;
        case 2:  // valid checkout
          line = "checkout " + std::to_string(dev(rng));
          expect_ok = true;
          break;
        case 3:  // admin chatter
          line = (i % 2 == 0) ? "status" : "seq";
          expect_ok = true;
          break;
        case 4:  // out-of-range device: validated, rejected, NOT journaled
          line = "respond " + std::to_string(bad_dev(rng));
          break;
        case 5:  // admit on a closed-loop scenario: rejected
          line = "admit";
          break;
        case 6: {  // printable garbage
          std::string g;
          const std::size_t n =
              std::uniform_int_distribution<std::size_t>(1, 64)(rng);
          for (std::size_t k = 0; k < n; ++k) g += ascii(rng);
          line = g;
          break;
        }
        case 7:  // control bytes
          line = "advance \x01\x7f 5";
          break;
        case 8:  // oversized frame
          line = "checkin " + std::string(service::kMaxLineBytes, '9');
          break;
        default:  // malformed-but-framed traffic
          line = (i % 2 == 0) ? "advance -5" : "submit 1 2";
          break;
      }
      const std::string reply = daemon.dispatch(line);
      ASSERT_FALSE(reply.empty()) << line;
      if (expect_ok) {
        ASSERT_EQ(reply.rfind("ok", 0), 0u) << line << " -> " << reply;
        if (service::classify(line) == RequestKind::kTraffic) {
          accepted.push_back(api::TrafficCommand::parse(line).canonical());
        }
      } else {
        ASSERT_EQ(reply.rfind("err ", 0), 0u) << line << " -> " << reply;
      }
      ASSERT_FALSE(daemon.done()) << "fuzz input shut the daemon down";
    }
    ASSERT_GT(accepted.size(), 50u) << "fuzz mix degenerated";
    EXPECT_EQ(daemon.last_seq(), accepted.size());
    EXPECT_EQ(daemon.dispatch("shutdown"), "ok shutting down");
    EXPECT_TRUE(daemon.done());
    EXPECT_EQ(daemon.dispatch("ping"), "err daemon is shut down");
  }

  // Strict scan (no torn-tail tolerance): every flushed frame validates,
  // and the externals are exactly the accepted commands in order.
  journal::JournalReader reader(journal, /*tolerate_torn_tail=*/false);
  const journal::JournalScan scan = reader.scan();
  EXPECT_FALSE(scan.torn);
  EXPECT_FALSE(scan.has_run_end);  // shutdown does not finalize
  ASSERT_EQ(scan.externals.size(), accepted.size());
  EXPECT_EQ(scan.last_external_seq, accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_EQ(scan.externals[i].seq, i + 1);
    EXPECT_EQ(scan.externals[i].command, accepted[i]) << "seq " << i + 1;
  }
}

// Admin verbs are pure control surface: a traffic sequence wrapped in
// ping/version/status/seq on every side journals only the traffic.
TEST(ServiceCodec, InterleavedAdminTrafficJournalsNothingExtra) {
  const std::string journal = temp_path("venn_service_admin.vjl");
  const std::vector<std::string> traffic = {
      "advance 600", "checkin 5 7200", "advance 1200", "checkout 5",
      "snapshot-now"};
  {
    service::CoordinatorDaemon daemon = make_daemon(journal, 13);
    std::uint64_t expected_seq = 0;
    for (const std::string& t : traffic) {
      EXPECT_EQ(daemon.dispatch("ping"), "ok pong");
      const std::string version = daemon.dispatch("version");
      EXPECT_EQ(version.rfind("ok venn ", 0), 0u) << version;
      EXPECT_EQ(daemon.dispatch("status").rfind("ok {", 0), 0u);
      const std::string reply = daemon.dispatch(t);
      ASSERT_EQ(reply.rfind("ok ", 0), 0u) << t << " -> " << reply;
      ++expected_seq;
      EXPECT_EQ(daemon.dispatch("seq"),
                "ok " + std::to_string(expected_seq));
    }
    EXPECT_EQ(daemon.dispatch("shutdown"), "ok shutting down");
  }
  journal::JournalReader reader(journal);
  const journal::JournalScan scan = reader.scan();
  ASSERT_EQ(scan.externals.size(), traffic.size());
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    EXPECT_EQ(scan.externals[i].command, traffic[i]);
  }
  EXPECT_EQ(scan.snapshot_marks.size(), 1u);  // the snapshot-now
}

}  // namespace
}  // namespace venn
