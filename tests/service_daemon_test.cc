// Crash-recovery differential wall for the coordinator daemon.
//
// The service's durability contract: a command is acknowledged only after
// its kExternal record is flushed to the journal, so killing the daemon at
// ANY moment and restarting with --resume loses nothing a client ever saw
// acked. Clients re-query `seq` and resend from there; the finished run is
// byte-identical to one that never crashed.
//
// Pinned at two levels:
//
//   1. In-process: CoordinatorDaemon destroyed mid-script without drain
//      (the writer discards unflushed buffers — the crash model), resumed
//      on the same journal, remaining script resent from recovered_seq,
//      drained. The drain dump (RunResult + TSDB streams at %.17g) must
//      equal an uninterrupted in-process LiveSession run of the same
//      script, across protocols {sync, overcommit, async} x two traffic
//      scripts, at crash point 0 and at seeded random crash points — plus
//      a double-crash cycle, an open-loop (admit) variant and a resume past
//      torn or deleted snapshots.
//   2. Process-level: the REAL venn_coordinatord binary, driven over its
//      Unix socket and killed with SIGKILL between acked requests, then
//      restarted with --resume and drained. Same byte-identity bar.
//
// Also here: the drained journal replays strict (the stitched
// prefix+tail is one gapless transcript), and LiveSession matches the
// batch Experiment::run path event for event.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/live.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/dump.h"
#include "venn/venn.h"

namespace venn {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".result");
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ScenarioSpec make_scenario(const std::string& proto, bool open_loop) {
  ScenarioSpec sc;
  sc.seed = 91;
  sc.num_devices = 500;
  sc.num_jobs = 3;
  sc.horizon = 2.0 * kDay;
  sc.set("churn", "weibull");
  sc.set("protocol", proto);
  if (open_loop) {
    sc.set("arrival", "poisson");
    sc.set("arrival.interarrival-min", "300");
    sc.set("mix", "even");
    sc.set("open-loop", "1");
  }
  return sc;
}

// Deterministic traffic script, valid against static experiment facts
// (devices in range, advances monotone) so the daemon accepts every line
// and both sides of the differential journal/apply the same sequence.
std::vector<std::string> build_script(std::uint64_t seed, std::size_t fleet,
                                      double horizon, bool open_loop) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> dev(0, fleet - 1);
  std::uniform_real_distribution<double> step(600.0, horizon / 16.0);
  std::vector<std::string> script;
  double cursor = 0.0;
  for (int i = 0; i < 6; ++i) {
    cursor += step(rng);
    script.push_back("advance " + service::fmt_double(cursor));
    script.push_back("checkin " + std::to_string(dev(rng)) + " " +
                     service::fmt_double(4.0 * step(rng)));
    switch (i) {
      case 1:
        script.push_back("submit 3 40 0 30 0.5 1200");
        break;
      case 2:
        script.push_back(open_loop
                             ? std::string("admit")
                             : "respond " + std::to_string(dev(rng)));
        break;
      case 3:
        script.push_back("checkout " + std::to_string(dev(rng)));
        break;
      case 4:
        script.push_back("snapshot-now");
        break;
      case 5:
        script.push_back("respond " + std::to_string(dev(rng)));
        break;
      default:
        break;
    }
  }
  return script;
}

// The uninterrupted baseline: same scenario, same script, no daemon, no
// journal — just a LiveSession paced by the script, dumped with the same
// deterministic formatter `drain` uses.
std::string reference_dump(const ScenarioSpec& sc, const PolicySpec& policy,
                           const std::vector<std::string>& script) {
  TimeSeriesRecorder rec;
  ExperimentBuilder b;
  b.scenario(sc).observe(rec);
  const Experiment ex = b.build();
  auto scheduler = PolicyRegistry::instance().create(
      policy.name, policy.params, ex.stream_seed("scheduler"));
  api::LiveSession live(ex, std::move(scheduler), {}, nullptr);
  live.start();
  live.advance_to(0.0);
  for (const std::string& line : script) {
    const api::TrafficCommand cmd = api::TrafficCommand::parse(line);
    if (const auto err = live.validate(cmd)) {
      throw std::runtime_error("reference rejects \"" + line + "\": " + *err);
    }
    live.apply(cmd);
  }
  return service::dump_run(live.finish(), &rec);
}

service::CoordinatorDaemon fresh_daemon(const ScenarioSpec& sc,
                                        const PolicySpec& policy,
                                        const std::string& journal) {
  service::DaemonOptions opts;
  opts.scenario = sc;
  opts.policy = policy;
  opts.journal_path = journal;
  return service::CoordinatorDaemon(std::move(opts));
}

service::CoordinatorDaemon resumed_daemon(const std::string& journal) {
  service::DaemonOptions opts;
  opts.journal_path = journal;
  opts.resume = true;
  return service::CoordinatorDaemon(std::move(opts));
}

// Dispatches script[from..to) and asserts every line is acked.
void play(service::CoordinatorDaemon& daemon,
          const std::vector<std::string>& script, std::size_t from,
          std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const std::string reply = daemon.dispatch(script[i]);
    ASSERT_EQ(reply.rfind("ok ", 0), 0u)
        << "script[" << i << "] \"" << script[i] << "\" -> " << reply;
  }
}

// ------------------------------------------- in-process crash differential --

TEST(ServiceDaemon, CrashResumeDrainMatchesUninterruptedRun) {
  std::mt19937_64 crash_rng(0xDEADD0E5);
  const PolicySpec policy = ExperimentBuilder().current_policy();
  for (const char* proto : {"sync", "overcommit", "async"}) {
    for (const std::uint64_t script_seed : {1001ULL, 1004ULL}) {
      const std::string tag =
          std::string(proto) + "_seed" + std::to_string(script_seed);
      SCOPED_TRACE(tag);
      const ScenarioSpec sc = make_scenario(proto, false);
      const auto script = build_script(script_seed, sc.num_devices,
                                       sc.horizon, /*open_loop=*/false);
      const std::string expected = reference_dump(sc, policy, script);

      const std::size_t random_crash = std::uniform_int_distribution<
          std::size_t>(1, script.size() - 1)(crash_rng);
      // Crash point 0 (before the first acked command) resumes a journal
      // with no kExternal record: the restore must still drain t=0 before
      // the first command is journaled, or strict replay diverges.
      for (const std::size_t crash_at : {std::size_t{0}, random_crash}) {
        SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
        const std::string journal = temp_path("venn_crash_" + tag + ".vjl");
        {
          service::CoordinatorDaemon daemon =
              fresh_daemon(sc, policy, journal);
          play(daemon, script, 0, crash_at);
          ASSERT_EQ(daemon.last_seq(), crash_at);
          // Destroyed here WITHOUT drain: unflushed buffers are dropped,
          // exactly like SIGKILL. Every acked command is already durable.
        }
        service::CoordinatorDaemon daemon = resumed_daemon(journal);
        EXPECT_TRUE(daemon.resumed());
        ASSERT_EQ(daemon.recovered_seq(), crash_at)
            << "an acked command did not survive the crash";
        play(daemon, script, daemon.recovered_seq(), script.size());
        const std::string reply = daemon.dispatch("drain");
        ASSERT_EQ(reply.rfind("ok drained ", 0), 0u) << reply;
        EXPECT_TRUE(daemon.done());
        EXPECT_EQ(read_file(daemon.result_path()), expected)
            << tag << ": crashed-at-" << crash_at
            << " run diverged from the uninterrupted baseline";

        // The stitched journal (recovered prefix + live tail + footer) is
        // one gapless transcript: strict replay verifies every byte.
        const ReplayReport report = Experiment::replay(journal);
        EXPECT_GT(report.events_verified, 0u);
        EXPECT_FALSE(report.resumed_past_journal);
      }
    }
  }
}

// Two crashes in one run: crash, resume, crash again mid-tail, resume
// again, drain. The journal absorbs both tears.
TEST(ServiceDaemon, DoubleCrashStillConverges) {
  const PolicySpec policy = ExperimentBuilder().current_policy();
  const ScenarioSpec sc = make_scenario("async", false);
  const auto script =
      build_script(7, sc.num_devices, sc.horizon, /*open_loop=*/false);
  const std::string expected = reference_dump(sc, policy, script);
  const std::string journal = temp_path("venn_doublecrash.vjl");

  const std::size_t k1 = script.size() / 3;
  const std::size_t k2 = (2 * script.size()) / 3;
  {
    service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
    play(daemon, script, 0, k1);
  }
  {
    service::CoordinatorDaemon daemon = resumed_daemon(journal);
    ASSERT_EQ(daemon.recovered_seq(), k1);
    play(daemon, script, k1, k2);
  }
  service::CoordinatorDaemon daemon = resumed_daemon(journal);
  ASSERT_EQ(daemon.recovered_seq(), k2);
  play(daemon, script, k2, script.size());
  ASSERT_EQ(daemon.dispatch("drain").rfind("ok drained ", 0), 0u);
  EXPECT_EQ(read_file(daemon.result_path()), expected);
}

// Open-loop traffic (admit pulls a job from the arrival/mix generators)
// crosses the crash boundary exactly too.
TEST(ServiceDaemon, OpenLoopAdmissionsSurviveCrash) {
  const PolicySpec policy = ExperimentBuilder().current_policy();
  const ScenarioSpec sc = make_scenario("sync", /*open_loop=*/true);
  const auto script =
      build_script(11, sc.num_devices, sc.horizon, /*open_loop=*/true);
  const std::string expected = reference_dump(sc, policy, script);
  const std::string journal = temp_path("venn_crash_openloop.vjl");

  const std::size_t crash_at = script.size() / 2;
  {
    service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
    play(daemon, script, 0, crash_at);
  }
  service::CoordinatorDaemon daemon = resumed_daemon(journal);
  ASSERT_EQ(daemon.recovered_seq(), crash_at);
  play(daemon, script, crash_at, script.size());
  ASSERT_EQ(daemon.dispatch("drain").rfind("ok drained ", 0), 0u);
  EXPECT_EQ(read_file(daemon.result_path()), expected);
}

// The snapshot only anchors a restore; the journal alone recovers the run.
// So a resumed daemon whose newest snapshot is torn in half, or whose
// snapshots are all gone, walks back past them the way `replay --resume`
// does, and still converges on the uninterrupted run.
TEST(ServiceDaemon, ResumeFallsBackPastUnreadableSnapshots) {
  const PolicySpec policy = ExperimentBuilder().current_policy();
  ScenarioSpec sc = make_scenario("sync", false);
  sc.set("snapshot_every", "2");
  const auto script =
      build_script(1001, sc.num_devices, sc.horizon, /*open_loop=*/false);
  const std::string expected = reference_dump(sc, policy, script);
  // Crash right after the script's snapshot-now is acked: the newest mark.
  const auto snapshot_now =
      std::find(script.begin(), script.end(), "snapshot-now");
  ASSERT_NE(snapshot_now, script.end());
  const auto crash_at =
      static_cast<std::size_t>(snapshot_now - script.begin()) + 1;

  for (const bool delete_all : {false, true}) {
    SCOPED_TRACE(delete_all ? "every snapshot deleted"
                            : "newest snapshot cut in half");
    const std::string journal = temp_path(
        delete_all ? "venn_snap_deleted.vjl" : "venn_snap_torn.vjl");
    {
      service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
      play(daemon, script, 0, crash_at);
    }
    const journal::JournalScan scan =
        journal::JournalReader(journal, /*tolerate_torn_tail=*/true).scan();
    const std::vector<std::uint64_t>& marks = scan.snapshot_marks;
    ASSERT_GE(marks.size(), 2u);
    ASSERT_NE(marks.front(), marks.back()) << "need two snapshot files";
    if (delete_all) {
      for (const std::uint64_t commits : marks) {
        std::filesystem::remove(journal::snapshot_path(journal, commits));
      }
    } else {
      const std::string newest = journal::snapshot_path(journal, marks.back());
      std::filesystem::resize_file(newest,
                                   std::filesystem::file_size(newest) / 2);
    }

    service::CoordinatorDaemon daemon = resumed_daemon(journal);
    ASSERT_EQ(daemon.recovered_seq(), crash_at);
    play(daemon, script, daemon.recovered_seq(), script.size());
    ASSERT_EQ(daemon.dispatch("drain").rfind("ok drained ", 0), 0u);
    EXPECT_EQ(read_file(daemon.result_path()), expected);

    // Strict replay still refuses a damaged snapshot (its contract is
    // unchanged), so check the stitched transcript against the journal
    // alone.
    const ReplayReport report =
        Experiment::replay(journal, ReplayOptions{.verify_snapshot = false});
    EXPECT_GT(report.events_verified, 0u);
    EXPECT_FALSE(report.resumed_past_journal);
  }
}

// A drained (complete) journal refuses to resume: there is nothing left.
TEST(ServiceDaemon, ResumeRefusesCompletedJournal) {
  const PolicySpec policy = ExperimentBuilder().current_policy();
  const ScenarioSpec sc = make_scenario("sync", false);
  const std::string journal = temp_path("venn_complete.vjl");
  {
    service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
    ASSERT_EQ(daemon.dispatch("advance 3600").rfind("ok ", 0), 0u);
    ASSERT_EQ(daemon.dispatch("drain").rfind("ok drained ", 0), 0u);
  }
  EXPECT_THROW((void)resumed_daemon(journal), std::runtime_error);
}

// A drain whose result dump cannot be written gets no `ok` and leaves the
// journal without its completed-run footer: the run resumes and drains to
// the uninterrupted baseline once the path is writable again.
TEST(ServiceDaemon, FailedDrainLeavesJournalResumable) {
  const PolicySpec policy = ExperimentBuilder().current_policy();
  const ScenarioSpec sc = make_scenario("sync", false);
  const auto script =
      build_script(23, sc.num_devices, sc.horizon, /*open_loop=*/false);
  const std::string expected = reference_dump(sc, policy, script);
  const std::string journal = temp_path("venn_faileddrain.vjl");
  std::filesystem::create_directory(journal + ".result");  // unwritable dump
  {
    service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
    play(daemon, script, 0, script.size());
    std::string reply;
    try {
      reply = daemon.dispatch("drain");
    } catch (const std::exception& e) {
      reply = std::string("threw: ") + e.what();
    }
    EXPECT_NE(reply.rfind("ok", 0), 0u) << reply;
  }
  std::filesystem::remove(journal + ".result");
  service::CoordinatorDaemon daemon = resumed_daemon(journal);
  ASSERT_EQ(daemon.recovered_seq(), script.size());
  ASSERT_EQ(daemon.dispatch("drain").rfind("ok drained ", 0), 0u);
  EXPECT_EQ(read_file(daemon.result_path()), expected);
}

// ----------------------------------------------- LiveSession == batch run --

// The batch path (Experiment::run) delegates to LiveSession, and a live
// run with no external traffic must equal it exactly.
TEST(ServiceDaemon, LiveSessionMatchesBatchRun) {
  ScenarioSpec sc;
  sc.seed = 29;
  sc.num_devices = 1'000;
  sc.num_jobs = 4;
  sc.horizon = 2.0 * kDay;
  sc.set("churn", "weibull");
  sc.set("protocol", "overcommit");
  const PolicySpec policy = ExperimentBuilder().current_policy();

  TimeSeriesRecorder batch_rec;
  const RunResult batch = [&] {
    ExperimentBuilder b;
    b.scenario(sc).observe(batch_rec);
    return b.run();
  }();

  TimeSeriesRecorder live_rec;
  const RunResult live = [&] {
    ExperimentBuilder b;
    b.scenario(sc).observe(live_rec);
    const Experiment ex = b.build();
    auto scheduler = PolicyRegistry::instance().create(
        policy.name, policy.params, ex.stream_seed("scheduler"));
    api::LiveSession session(ex, std::move(scheduler), {}, nullptr);
    session.start();
    return session.finish();
  }();

  EXPECT_EQ(service::dump_run(batch, &batch_rec),
            service::dump_run(live, &live_rec));
}

// ---------------------------------------- process-level SIGKILL recovery --

struct DaemonProcess {
  pid_t pid = -1;
};

DaemonProcess spawn_daemon(const std::vector<std::string>& args) {
  std::vector<std::string> full = {VENN_COORDINATORD_PATH, "serve"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    // The READY line and any logs are the parent's concern only through
    // the socket; keep the test output clean.
    (void)std::freopen("/dev/null", "w", stdout);
    execv(VENN_COORDINATORD_PATH, argv.data());
    _exit(127);  // exec failed
  }
  if (pid < 0) throw std::runtime_error("fork failed");
  return DaemonProcess{pid};
}

// The daemon binds its socket after construction; poll until it answers.
service::SocketClient connect_with_retry(const std::string& socket_path) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    try {
      auto client = service::SocketClient::connect_unix(socket_path);
      if (client.request("ping") == "ok pong") return client;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  throw std::runtime_error("daemon never came up on " + socket_path);
}

// Reaps `pid`, killing it after `timeout` so a daemon that hangs on exit
// fails the test instead of stalling the suite. Returns the wait status.
int reap_within(pid_t pid, std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      ADD_FAILURE() << "daemon did not exit within " << timeout.count()
                    << " s";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return status;
}

// A full disk must fail the dump loudly: fwrite only buffers, so the error
// surfaces at fflush/fclose, and a write that ignored them would let
// `drain` ack over a truncated result file.
TEST(ServiceDump, WriteFailureThrowsNamingThePath) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    service::write_text_file("/dev/full", "some dump\n");
    ADD_FAILURE() << "write to /dev/full succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

// Teardown: the `shutdown` ack must be written before the daemon lets go
// of the connection (a lost ack, or a SIGPIPE exit 141, is the failure).
// Daemons started one after another must each ack `shutdown` and exit 0. The client stays connected while the daemon
// exits, so teardown cannot lean on the peer hanging up first; every
// other daemon also gets a request pipelined behind the `shutdown`, which
// the exiting daemon must answer (or drop) without hanging.
TEST(ServiceDaemon, ShutdownIsAckedAndExitsCleanly) {
  const std::string socket_path = temp_path("venn_teardown.sock");
  const std::string journal = temp_path("venn_teardown.vjl");
  for (int i = 0; i < 20; ++i) {
    std::filesystem::remove(journal);
    const DaemonProcess proc =
        spawn_daemon({"seed=5", "devices=50", "jobs=1", "horizon-s=3600",
                      "--socket", socket_path, "--journal", journal,
                      "--quiet"});
    std::string reply;
    {
      auto client = connect_with_retry(socket_path);
      try {
        reply = client.request(i % 2 == 0 ? "shutdown" : "shutdown\nping");
      } catch (const std::exception& e) {
        reply = e.what();
      }
      const int status = reap_within(proc.pid, std::chrono::seconds(10));
      ASSERT_TRUE(WIFEXITED(status))
          << "daemon " << i << " killed by signal "
          << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
      EXPECT_EQ(WEXITSTATUS(status), 0) << "daemon " << i;
    }
    EXPECT_EQ(reply, "ok shutting down") << "daemon " << i;
  }
}

// The real binary, really SIGKILLed: serve over a Unix socket, ack a
// prefix of the script, kill -9, restart --resume, ask `seq`, resend the
// tail, drain — and the result dump equals the uninterrupted in-process
// baseline byte for byte.
TEST(ServiceDaemon, ProcessLevelSigkillRecovery) {
  const std::vector<std::string> kv = {
      "seed=97", "devices=400", "jobs=3", "horizon-s=86400",
      "protocol=overcommit", "churn=weibull"};
  ExperimentBuilder builder;
  for (const std::string& s : kv) builder.override_kv(s);
  const ScenarioSpec sc = builder.current_scenario();
  const PolicySpec policy = builder.current_policy();
  const auto script =
      build_script(23, sc.num_devices, sc.horizon, /*open_loop=*/false);
  const std::string expected = reference_dump(sc, policy, script);

  const std::string socket_path = temp_path("venn_proc.sock");
  const std::string journal = temp_path("venn_proc.vjl");
  std::mt19937_64 crash_rng(0x516C411DULL);
  const std::size_t crash_at = std::uniform_int_distribution<std::size_t>(
      1, script.size() - 1)(crash_rng);
  std::vector<std::string> serve_args = kv;
  serve_args.insert(serve_args.end(),
                    {"--socket", socket_path, "--journal", journal,
                     "--quiet"});

  // Phase 1: fresh daemon, ack `crash_at` commands, SIGKILL.
  DaemonProcess proc = spawn_daemon(serve_args);
  {
    auto client = connect_with_retry(socket_path);
    for (std::size_t i = 0; i < crash_at; ++i) {
      const std::string reply = client.request(script[i]);
      ASSERT_EQ(reply.rfind("ok ", 0), 0u)
          << "script[" << i << "] -> " << reply;
    }
  }
  ASSERT_EQ(kill(proc.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(proc.pid, &status, 0), proc.pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Phase 2: restart --resume, resend from the recovered seq, drain.
  proc = spawn_daemon({"--resume", "--journal", journal, "--socket",
                       socket_path, "--quiet"});
  {
    auto client = connect_with_retry(socket_path);
    const std::string seq_reply = client.request("seq");
    ASSERT_EQ(seq_reply.rfind("ok ", 0), 0u) << seq_reply;
    const std::size_t recovered = std::stoull(seq_reply.substr(3));
    ASSERT_EQ(recovered, crash_at)
        << "an acked command did not survive SIGKILL";
    for (std::size_t i = recovered; i < script.size(); ++i) {
      const std::string reply = client.request(script[i]);
      ASSERT_EQ(reply.rfind("ok ", 0), 0u)
          << "script[" << i << "] -> " << reply;
    }
    ASSERT_EQ(client.request("drain").rfind("ok drained ", 0), 0u);
  }
  ASSERT_EQ(waitpid(proc.pid, &status, 0), proc.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(read_file(journal + ".result"), expected)
      << "SIGKILLed-at-" << crash_at
      << " daemon diverged from the uninterrupted baseline";
}

}  // namespace
}  // namespace venn
