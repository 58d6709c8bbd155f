// CoordinatorDaemon: the coordinator-as-a-service core.
//
// Wraps a LiveSession (api/live.h) in a dispatch loop: one request line in,
// one reply line out (codec.h). Traffic commands are validated, journaled
// as kExternal records and ONLY THEN applied — the acknowledgement a client
// reads implies the command is durable, so a daemon killed at any moment
// and restarted with --resume replays every acked command from the journal
// and stands exactly where the dead process stood (the crash-recovery
// differential test pins this byte-for-byte). Admin verbs (ping, version,
// status, seq, drain, shutdown) are control surface and never journaled.
//
// dispatch() is deliberately socket-free: the line server (server.h) calls
// it on the same thread that reads the socket, tests call it directly, and
// both paths speak identical bytes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "api/builder.h"
#include "api/live.h"
#include "api/observers.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "journal/verifier.h"
#include "journal/writer.h"

namespace venn::service {

// Journal sink of a resumed daemon: verify the re-executed restore prefix
// against the recovered journal, then append the live tail to the same
// file. Each event routes to the verifier until the tape runs out; the
// event that runs it out (and everything after) goes to the appending
// writer, so the journal stays one gapless transcript across the crash.
class VerifyThenAppendSink final : public journal::JournalSink {
 public:
  VerifyThenAppendSink(journal::JournalVerifier* verifier,
                       journal::JournalWriter* writer)
      : verifier_(verifier), writer_(writer) {}

  void on_checkin(SimTime now, std::size_t dev, bool assigned) override {
    route([&](journal::JournalSink& s) { s.on_checkin(now, dev, assigned); });
  }
  void on_checkout(SimTime now, std::size_t dev) override {
    route([&](journal::JournalSink& s) { s.on_checkout(now, dev); });
  }
  void on_submit(SimTime now, JobId job, int round, int target,
                 int threshold) override {
    route([&](journal::JournalSink& s) {
      s.on_submit(now, job, round, target, threshold);
    });
  }
  void on_admission(SimTime now, JobId job,
                    const trace::JobSpec& spec) override {
    route([&](journal::JournalSink& s) { s.on_admission(now, job, spec); });
  }
  void on_assignment(SimTime now, std::size_t dev, JobId job,
                     RequestId request, int round) override {
    route([&](journal::JournalSink& s) {
      s.on_assignment(now, dev, job, request, round);
    });
  }
  void on_response(SimTime now, JobId job, RequestId request, std::size_t dev,
                   int staleness) override {
    route([&](journal::JournalSink& s) {
      s.on_response(now, job, request, dev, staleness);
    });
  }
  void on_commit(SimTime now, JobId job, RequestId request, int round,
                 int responses) override {
    route([&](journal::JournalSink& s) {
      s.on_commit(now, job, request, round, responses);
    });
  }
  void on_abort(SimTime now, JobId job, RequestId request, int round,
                int responses) override {
    route([&](journal::JournalSink& s) {
      s.on_abort(now, job, request, round, responses);
    });
  }
  void on_straggler_release(SimTime now, std::size_t dev, JobId job) override {
    route([&](journal::JournalSink& s) {
      s.on_straggler_release(now, dev, job);
    });
  }
  void on_job_finish(SimTime now, JobId job, SimTime jct) override {
    route([&](journal::JournalSink& s) { s.on_job_finish(now, job, jct); });
  }
  void on_snapshot(const journal::StateSnapshot& snapshot) override {
    route([&](journal::JournalSink& s) { s.on_snapshot(snapshot); });
  }
  void on_run_end(SimTime now) override {
    // Always the writer's: it appends the kRunEnd footer. The verifier's
    // finish() is a no-op in resume mode, and the tape may end without any
    // event ever flipping passthrough (nothing happened past the tear).
    writer_->on_run_end(now);
  }

 private:
  template <typename Fn>
  void route(Fn&& fn) {
    if (!verifier_->passthrough()) {
      fn(*verifier_);
      // This event ran the tape out: it was NOT verified (the verifier
      // flipped to passthrough instead), so it is the first live event —
      // append it.
      if (verifier_->passthrough()) fn(*writer_);
      return;
    }
    fn(*writer_);
  }

  journal::JournalVerifier* verifier_;
  journal::JournalWriter* writer_;
};

struct DaemonOptions {
  api::ScenarioSpec scenario;  // fresh starts; ignored on resume
  api::PolicySpec policy;      // fresh starts; ignored on resume
  // Journal file. Empty = journal_file_path(scenario, label) for fresh
  // starts; required for resume.
  std::string journal_path;
  bool resume = false;
};

class CoordinatorDaemon {
 public:
  // Fresh: writes a new journal (header first) and opens the run at t=0.
  // Resume: recovers the journal at `journal_path` — tolerant scan,
  // truncation to the valid prefix (torn tails are the documented normal
  // case), byte-verified re-execution of every journaled external command
  // — then goes live, appending to the same file. Throws std::runtime_error
  // when the journal is complete (kRunEnd present: nothing to resume) or
  // unrecoverable.
  explicit CoordinatorDaemon(DaemonOptions opts);
  ~CoordinatorDaemon();

  CoordinatorDaemon(const CoordinatorDaemon&) = delete;
  CoordinatorDaemon& operator=(const CoordinatorDaemon&) = delete;

  // One request line -> one reply line ("ok ..." / "err ..."). Never
  // throws: malformed input is an err reply.
  [[nodiscard]] std::string dispatch(const std::string& line);

  // True after drain or shutdown: the loop should exit.
  [[nodiscard]] bool done() const { return done_; }

  // Last journaled external seq (== recovered seq right after a resume;
  // clients restart their resend window from here).
  [[nodiscard]] std::uint64_t last_seq() const { return seq_; }
  [[nodiscard]] std::uint64_t recovered_seq() const { return recovered_seq_; }
  [[nodiscard]] bool resumed() const { return resumed_; }
  [[nodiscard]] const std::string& journal_path() const { return path_; }
  // Path of the deterministic result dump `drain` writes (journal + ".result").
  [[nodiscard]] std::string result_path() const { return path_ + ".result"; }

  [[nodiscard]] std::string status_json() const;

 private:
  void construct_fresh(DaemonOptions& opts);
  void construct_resume(DaemonOptions& opts);
  [[nodiscard]] std::string dispatch_admin(const std::string& verb);
  [[nodiscard]] std::string accept_traffic(const api::TrafficCommand& cmd);
  [[nodiscard]] std::string drain();

  std::string path_;
  std::string label_;
  bool resumed_ = false;
  bool done_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t recovered_seq_ = 0;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();

  api::TimeSeriesRecorder recorder_;
  std::unique_ptr<api::Experiment> ex_;
  // Resume plumbing (null on fresh starts). Declaration order is teardown
  // order in reverse: the session must die before the sink, the sink
  // before verifier/writer, the verifier before its reader.
  std::unique_ptr<journal::JournalReader> reader_;
  std::optional<journal::StateSnapshot> snapshot_;
  std::unique_ptr<journal::JournalVerifier> verifier_;
  std::unique_ptr<journal::JournalWriter> writer_;
  std::unique_ptr<VerifyThenAppendSink> sink_;
  std::unique_ptr<api::LiveSession> session_;
};

}  // namespace venn::service
