// JournalWriter: the append-only event journal of a run.
//
// A JournalSink implementation that frames every event (journal/sink.h
// layouts) and appends it to a file opened at construction. Records are
// buffered in memory and flushed to disk on round boundaries — every
// commit and abort — mirroring how a coordinator daemon would batch its
// durability writes; anything buffered past the last round boundary is
// deliberately LOST if the process dies (that is the crash model the
// recovery tests exercise). A snapshot (on_snapshot) persists the captured
// state to a sibling file, appends a kSnapshotMark record and flushes.
// finalize() appends the kRunEnd footer of a clean run.
//
// Crash injection: set_halt_after_commits(k) throws SimulationHalted out
// of the k-th commit record *after* it is flushed — the journal then ends
// exactly at a round boundary, which is the deterministic "kill" the
// crash-recovery differential test restores from.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "journal/sink.h"

namespace venn::journal {

// Thrown by the crash-injection hook. Derives runtime_error so callers that
// want the crash semantics can catch it specifically while generic error
// handling still reports it.
struct SimulationHalted : std::runtime_error {
  explicit SimulationHalted(std::uint64_t commits)
      : std::runtime_error("journal: simulation halted after commit " +
                           std::to_string(commits) + " (injected crash)"),
        commits_flushed(commits) {}
  std::uint64_t commits_flushed;
};

class JournalWriter final : public EventEncoderSink {
 public:
  // Opens `path` for writing and persists the header immediately (a
  // journal is identifiable even if the run dies before its first flush).
  JournalWriter(std::string path, const JournalHeader& header);

  // Resume-in-place: reopen an existing journal for appending. The caller
  // (the daemon's --resume path) has already truncated the file to its
  // recovered valid prefix and seeds the counters from a JournalScan of
  // that prefix, so commit cadence and the run-end record count continue
  // exactly where the crashed process stopped.
  struct AppendExisting {
    std::uint64_t records = 0;
    std::uint64_t commits = 0;
    std::uint64_t snapshots = 0;
  };
  JournalWriter(std::string path, AppendExisting resume_at);

  ~JournalWriter() override;

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void on_snapshot(const StateSnapshot& snapshot) override;
  void on_run_end(SimTime now) override { finalize(now); }

  // Clean end of run: flushes the tail and appends the kRunEnd footer.
  void finalize(double clock);

  // Appends a kExternal record (a live service command) and flushes: a
  // command is acknowledged to the client only once it is durable, so a
  // restarted daemon can replay every acked command from the journal.
  void append_external(double time, std::uint64_t seq,
                       std::string_view command);

  // Crash injection: throw SimulationHalted after the k-th commit record
  // has been written and flushed. 0 disables (default).
  void set_halt_after_commits(std::uint64_t k) { halt_after_commits_ = k; }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t records_written() const { return records_; }
  [[nodiscard]] std::uint64_t commits_written() const { return commits_; }
  [[nodiscard]] std::uint64_t snapshots_written() const { return snapshots_; }

  // Public so a resuming JournalVerifier can hand its tail writer the
  // frames it already encoded.
  void handle(RecordType type, std::string_view frame) override;

 private:
  // Cold-path framing (snapshot marks, run-end footer): frames `payload`
  // and appends it. Hot-path events arrive via handle() pre-framed.
  void append(RecordType type, std::string_view payload);
  void append_frame(std::string_view frame);
  void after_append(RecordType type);
  void flush();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::uint64_t records_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t halt_after_commits_ = 0;
  bool finalized_ = false;
};

}  // namespace venn::journal
