#include "journal/verifier.h"

#include <algorithm>
#include <stdexcept>

namespace venn::journal {

namespace {

std::string hex_preview(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  const std::size_t n = std::min<std::size_t>(bytes.size(), 16);
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  if (bytes.size() > n) out += "...";
  return out;
}

}  // namespace

bool JournalVerifier::expect(RecordType type, std::string_view payload) {
  if (passthrough_) return false;
  const auto rec = reader_.next();
  if (!rec) {
    if (mode_ == Mode::kResume) {
      // End of the (crashed or torn) journal: the verified prefix is
      // done; the re-execution continues the run live from here.
      passthrough_ = true;
      return false;
    }
    throw std::runtime_error(
        "journal replay: journal ended early — expected a " +
        std::string(record_type_name(type)) + " record after " +
        std::to_string(verified_) + " verified events" +
        (reader_.torn() ? " (torn tail at offset " +
                              std::to_string(reader_.torn_offset()) + ")"
                        : ""));
  }
  if (rec->type != type) {
    throw std::runtime_error(
        "journal replay diverged at record " + std::to_string(rec->index) +
        " (offset " + std::to_string(rec->offset) + "): journal has " +
        std::string(record_type_name(rec->type)) +
        ", re-execution produced " + std::string(record_type_name(type)));
  }
  if (rec->payload != payload) {
    throw std::runtime_error(
        "journal replay diverged at record " + std::to_string(rec->index) +
        " (offset " + std::to_string(rec->offset) + ", " +
        std::string(record_type_name(type)) + "): journal payload " +
        hex_preview(rec->payload) + " vs re-execution " +
        hex_preview(payload));
  }
  ++verified_;
  if (type == RecordType::kCommit) {
    ++commits_matched_;
    if (seek_commits_ != 0 && commits_matched_ == seek_commits_) {
      // The Nth commit just matched — the exact point where the cadence
      // snapshot would be captured. Unwind to the seek driver.
      throw SeekReached{commits_matched_};
    }
  }
  return true;
}

void JournalVerifier::handle(RecordType type, std::string_view frame) {
  if (!expect(type, frame.substr(kFramePayloadOffset)) && tail_ != nullptr) {
    tail_->handle(type, frame);
  }
}

void JournalVerifier::take_external(const ExternalEvent& expected) {
  const auto rec = reader_.next();
  if (!rec) {
    throw std::runtime_error(
        "journal replay: journal ended before external record seq " +
        std::to_string(expected.seq));
  }
  if (rec->type != RecordType::kExternal ||
      rec->payload !=
          encode_external(expected.time, expected.seq, expected.command)) {
    throw std::runtime_error(
        "journal replay diverged at record " + std::to_string(rec->index) +
        " (offset " + std::to_string(rec->offset) + "): expected external "
        "command seq " + std::to_string(expected.seq) + " \"" +
        expected.command + "\", journal has " +
        std::string(record_type_name(rec->type)));
  }
  ++verified_;
}

void JournalVerifier::on_snapshot(const StateSnapshot& snapshot) {
  if (!expect(RecordType::kSnapshotMark, encode_snapshot_mark(snapshot))) {
    if (tail_ != nullptr) tail_->on_snapshot(snapshot);
    return;
  }
  // The clock check disambiguates operator-initiated snapshot-now marks:
  // several snapshots can share one commit count between rounds, and the
  // stored file at that commit was written by the last of them.
  if (expect_snapshot_ != nullptr &&
      snapshot.commits == expect_snapshot_->commits &&
      snapshot.clock == expect_snapshot_->clock) {
    const auto mismatch = describe_mismatch(*expect_snapshot_, snapshot);
    if (mismatch) {
      throw std::runtime_error(
          "journal replay: restored state diverges from the snapshot at "
          "commit " +
          std::to_string(snapshot.commits) + ": " + *mismatch);
    }
    snapshot_verified_ = true;
  }
}

void JournalVerifier::finish() {
  if (mode_ == Mode::kResume) return;
  const auto rec = reader_.next();
  if (!rec || rec->type != RecordType::kRunEnd) {
    throw std::runtime_error(
        rec ? "journal replay: expected the run-end footer after " +
                  std::to_string(verified_) + " events, found a " +
                  std::string(record_type_name(rec->type)) + " record at " +
                  "offset " + std::to_string(rec->offset)
            : "journal replay: journal has no run-end footer (crashed run? "
              "replay it with resume/tolerate-torn-tail)");
  }
  if (reader_.next()) {
    throw std::runtime_error(
        "journal replay: trailing records after the run-end footer");
  }
}

}  // namespace venn::journal
