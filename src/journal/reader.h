// JournalReader: sequential, validating reader over a journal file.
//
// Loads the file, validates the prologue (magic, version, header CRC) and
// iterates the framed records, checking each frame's length and CRC before
// handing it out. Corruption fails with std::runtime_error naming the
// byte offset of the violation; with tolerate_torn_tail=true a torn or
// corrupt FINAL stretch instead ends iteration cleanly — everything before
// the tear is recovered, and torn()/torn_offset() report what was dropped
// (the `--tolerate-torn-tail` replay mode).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "journal/format.h"

namespace venn::journal {

struct Record {
  RecordType type{};
  std::string payload;      // body bytes after the type field
  std::size_t offset = 0;   // file offset of the frame start
  std::uint64_t index = 0;  // 0-based record ordinal
};

// Decoded kExternal record: a live service command accepted by the daemon
// (src/service/). `time` is the daemon's sim-clock cursor at acceptance;
// `seq` the daemon-assigned acceptance ordinal; `command` the canonical
// traffic-command line (api::TrafficCommand::canonical).
struct ExternalEvent {
  std::uint64_t index = 0;  // record ordinal within the journal
  std::uint64_t seq = 0;
  double time = 0.0;
  std::string command;
};

[[nodiscard]] ExternalEvent decode_external(const Record& r);

// One-pass summary of a whole journal, honoring the reader's torn-tail
// tolerance. `prefix_end` is the byte offset just past the last valid
// record — the truncation point for resume-in-place appending.
struct JournalScan {
  std::uint64_t records = 0;
  std::uint64_t commits = 0;
  bool has_run_end = false;
  bool torn = false;
  std::size_t torn_offset = 0;
  std::size_t prefix_end = 0;
  std::vector<std::uint64_t> snapshot_marks;  // each kSnapshotMark's commits
  std::uint64_t last_external_seq = 0;
  std::vector<ExternalEvent> externals;
};

class JournalReader {
 public:
  explicit JournalReader(const std::string& path,
                         bool tolerate_torn_tail = false);

  [[nodiscard]] const JournalHeader& header() const { return header_; }

  // Next record, or nullopt at end of journal (or at a tolerated tear).
  [[nodiscard]] std::optional<Record> next();

  // True once iteration stopped at a tolerated torn/corrupt tail.
  [[nodiscard]] bool torn() const { return torn_; }
  [[nodiscard]] std::size_t torn_offset() const { return torn_offset_; }

  [[nodiscard]] std::uint64_t records_read() const { return index_; }

  // Full-journal summary (record/commit counts, torn prefix end, decoded
  // external commands) without disturbing this reader's cursor. Honors the
  // reader's torn-tail tolerance.
  [[nodiscard]] JournalScan scan() const;

 private:
  [[nodiscard]] std::optional<Record> parse_at(std::size_t* pos,
                                               std::uint64_t index,
                                               bool* torn,
                                               std::size_t* torn_at) const;

  std::string bytes_;
  JournalHeader header_;
  std::size_t pos_ = 0;      // cursor into bytes_
  std::uint64_t index_ = 0;  // records handed out
  bool tolerate_torn_tail_;
  bool torn_ = false;
  std::size_t torn_offset_ = 0;
};

}  // namespace venn::journal
