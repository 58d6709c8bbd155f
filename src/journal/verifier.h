// JournalVerifier: byte-exact replay verification sink.
//
// Replay in this codebase is deterministic re-execution: the replay driver
// rebuilds the experiment from the journal header and runs it again with
// this sink installed. Each event the re-executed coordinator emits is
// encoded through the same EventEncoderSink layouts the writer used and
// compared byte for byte against the next journal record — the journal is
// a full transcript wall around the re-executed run, so "the replay
// matched" means every check-in, assignment, response, commit, abort,
// straggler release and finish happened at the same time, in the same
// order, with the same payload. Any divergence throws with the record
// ordinal, file offset and both record types named.
//
// Modes:
//   kStrict — the journal must be a complete clean run: after the run the
//     next record must be the kRunEnd footer, with nothing after it.
//   kResume — the journal may end early (a crashed run, or a tolerated
//     torn tail): when records run out mid-run the verifier flips to
//     passthrough and the re-execution simply CONTINUES the run live past
//     the journal's end. Verified prefix + live tail = crash recovery.
//     Given a tail writer, the verifier hands it everything past that
//     point — the event that ran the tape out first, then every later
//     event, snapshot and the run-end footer — so a resumed daemon appends
//     its live tail to the journal it verified, as one gapless transcript.
//
// Snapshot anchoring: on_snapshot receives the state the re-executed
// coordinator captured at a snapshot cadence point. The verifier checks
// the journal's kSnapshotMark and, when given a stored snapshot to verify
// against, compares the two states section by section — the zero-drift
// guarantee that a restored coordinator stands exactly where the original
// did.
#pragma once

#include <cstdint>
#include <string>

#include "journal/reader.h"
#include "journal/sink.h"
#include "journal/writer.h"

namespace venn::journal {

// Thrown by the verifier when a seek target set via set_seek_commits is
// reached: the Nth kCommit record just matched, which is the exact program
// point where the coordinator captures its cadence snapshots — so a driver
// that catches this and calls Coordinator::capture_snapshot() reads the
// same state the stored snapshot at commit N recorded (the time-travel
// inspector, src/service/inspect.cc). Deliberately not a std::exception:
// nothing but the seek driver should ever catch it.
struct SeekReached {
  std::uint64_t commits = 0;
};

class JournalVerifier final : public EventEncoderSink {
 public:
  enum class Mode {
    kStrict,  // journal must cover the whole run and end with kRunEnd
    kResume,  // journal may end early; continue live past its end
  };

  // `expect_snapshot` (optional, caller-owned, must outlive the verifier):
  // the stored snapshot to compare against when re-execution reaches its
  // commit count. `tail` (optional, caller-owned, kResume only): the
  // writer that receives everything past the end of the tape.
  JournalVerifier(JournalReader& reader, Mode mode,
                  const StateSnapshot* expect_snapshot = nullptr,
                  JournalWriter* tail = nullptr)
      : reader_(reader),
        mode_(mode),
        expect_snapshot_(expect_snapshot),
        tail_(tail) {}

  void on_snapshot(const StateSnapshot& snapshot) override;
  void on_run_end(SimTime now) override {
    finish();
    // The footer always goes to the tail: the tape may end without any
    // event past it (nothing happened after the tear).
    if (tail_ != nullptr) tail_->on_run_end(now);
  }

  // Post-run check. Strict mode: consumes the kRunEnd footer and requires
  // exhaustion; throws otherwise. Resume mode: no-op.
  void finish();

  // True once the journal ran out in resume mode (the live tail began).
  [[nodiscard]] bool passthrough() const { return passthrough_; }
  // Events matched against journal records (excludes the live tail).
  [[nodiscard]] std::uint64_t events_verified() const { return verified_; }
  // True once the stored snapshot was reached and compared clean.
  [[nodiscard]] bool snapshot_verified() const { return snapshot_verified_; }

  // Consumes the next journal record, which must be the given kExternal
  // record (the replay driver pre-scans externals and interleaves them with
  // re-execution; see Experiment::replay). Counts toward events_verified.
  void take_external(const ExternalEvent& expected);

  // Arms time-travel seek: after the Nth kCommit record matches, throw
  // SeekReached instead of continuing. 0 (default) disarms.
  void set_seek_commits(std::uint64_t n) { seek_commits_ = n; }
  [[nodiscard]] std::uint64_t commits_matched() const {
    return commits_matched_;
  }

 protected:
  void handle(RecordType type, std::string_view frame) override;

 private:
  // Fetches the next record, or flips to passthrough / throws per mode.
  [[nodiscard]] bool expect(RecordType type, std::string_view payload);

  JournalReader& reader_;
  Mode mode_;
  const StateSnapshot* expect_snapshot_;
  JournalWriter* tail_;
  bool passthrough_ = false;
  bool snapshot_verified_ = false;
  std::uint64_t verified_ = 0;
  std::uint64_t commits_matched_ = 0;
  std::uint64_t seek_commits_ = 0;
};

}  // namespace venn::journal
