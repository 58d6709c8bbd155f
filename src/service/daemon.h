// CoordinatorDaemon: the coordinator-as-a-service core.
//
// Wraps a LiveSession (api/live.h) in a dispatch loop: one request line in,
// one reply line out (codec.h). Traffic commands are validated, journaled
// as kExternal records and ONLY THEN applied — the acknowledgement a client
// reads implies the command is durable, so a daemon killed at any moment
// and restarted with --resume replays every acked command from the journal
// and stands exactly where the dead process stood (the crash-recovery
// differential test pins this byte-for-byte). The restore is the one
// replay and the inspector run (api/rebuild.h), so a resumed daemon walks
// back past an unreadable newest snapshot exactly as `replay --resume`
// does. Admin verbs (ping, version, status, seq, drain, shutdown) are
// control surface and never journaled.
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
#include <vector>

#include "api/builder.h"
#include "api/live.h"
#include "api/observers.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "journal/verifier.h"
#include "journal/writer.h"

namespace venn::service {

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
  // Resume: recovers the journal at `journal_path` through the restore path
  // replay and the inspector share (api/rebuild.h) — tolerant scan,
  // truncation to the valid prefix (torn tails are the documented normal
  // case), the newest readable snapshot as anchor (unreadable newer ones
  // are logged and passed over), byte-verified re-execution of every
  // journaled external command — then goes live, the verifier handing its
  // tail to a writer appending to the same file. Throws std::runtime_error
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
  // Resume only: the newer marked snapshots passed over as unreadable,
  // newest first, each as "commit N: <read error>".
  std::vector<std::string> snapshots_skipped_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();

  api::TimeSeriesRecorder recorder_;
  std::unique_ptr<api::Experiment> ex_;
  // Declaration order is teardown order in reverse: the session dies
  // before its sink (the verifier on resume, else the writer), the
  // verifier before its tail writer, snapshot and reader. The reader and
  // verifier exist only on resume.
  std::unique_ptr<journal::JournalReader> reader_;
  std::optional<journal::StateSnapshot> snapshot_;
  std::unique_ptr<journal::JournalWriter> writer_;
  std::unique_ptr<journal::JournalVerifier> verifier_;
  std::unique_ptr<api::LiveSession> session_;
};

}  // namespace venn::service
