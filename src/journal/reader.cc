#include "journal/reader.h"

#include <cstdio>
#include <stdexcept>

namespace venn::journal {

JournalReader::JournalReader(const std::string& path, bool tolerate_torn_tail)
    : tolerate_torn_tail_(tolerate_torn_tail) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("journal: cannot open \"" + path + "\"");
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes_.append(buf, n);
  }
  std::fclose(f);
  // The prologue is never tolerated torn: without a valid header there is
  // nothing to replay, so corruption there always throws.
  header_ = decode_header(bytes_, &pos_);
}

std::optional<Record> JournalReader::parse_at(std::size_t* pos,
                                              std::uint64_t index, bool* torn,
                                              std::size_t* torn_at) const {
  if (*pos >= bytes_.size()) return std::nullopt;  // clean end
  const std::size_t frame_start = *pos;
  const auto fail = [&](const std::string& what,
                        std::size_t off) -> std::optional<Record> {
    if (tolerate_torn_tail_) {
      *torn = true;
      *torn_at = frame_start;
      return std::nullopt;
    }
    throw std::runtime_error("journal: " + what + " at offset " +
                             std::to_string(off) + " (record " +
                             std::to_string(index) + ")");
  };

  if (bytes_.size() - frame_start < 8) {
    return fail("torn record frame (truncated length/CRC prefix)",
                frame_start);
  }
  Decoder pre(std::string_view(bytes_).substr(frame_start, 8), frame_start);
  const std::uint32_t len = pre.u32();
  const std::uint32_t crc = pre.u32();
  const std::size_t body_start = frame_start + 8;
  if (bytes_.size() - body_start < len) {
    return fail("mid-record truncation (body needs " + std::to_string(len) +
                    " bytes, " + std::to_string(bytes_.size() - body_start) +
                    " left)",
                frame_start);
  }
  if (len < 2) return fail("record body too short", frame_start);
  const std::string_view body = std::string_view(bytes_).substr(body_start,
                                                                len);
  if (crc32(body.data(), body.size()) != crc) {
    return fail("record CRC mismatch", frame_start);
  }
  Decoder d(body, body_start);
  const std::uint16_t raw_type = d.u16();
  if (raw_type < static_cast<std::uint16_t>(RecordType::kCheckin) ||
      raw_type > static_cast<std::uint16_t>(RecordType::kExternal)) {
    return fail("unknown record type " + std::to_string(raw_type),
                frame_start);
  }
  Record r;
  r.type = static_cast<RecordType>(raw_type);
  r.payload = std::string(body.substr(2));
  r.offset = frame_start;
  r.index = index;
  *pos = body_start + len;
  return r;
}

std::optional<Record> JournalReader::next() {
  if (torn_) return std::nullopt;
  auto r = parse_at(&pos_, index_, &torn_, &torn_offset_);
  if (r) ++index_;
  return r;
}

ExternalEvent decode_external(const Record& r) {
  if (r.type != RecordType::kExternal) {
    throw std::runtime_error("journal: record " + std::to_string(r.index) +
                             " is not an external record");
  }
  Decoder d(r.payload, r.offset + kFramePayloadOffset);
  ExternalEvent e;
  e.index = r.index;
  e.time = d.f64();
  e.seq = d.u64();
  e.command = d.str();
  return e;
}

JournalScan JournalReader::scan() const {
  JournalScan s;
  std::size_t pos = 0;
  (void)decode_header(bytes_, &pos);
  s.prefix_end = pos;
  std::uint64_t index = 0;
  bool torn = false;
  std::size_t torn_at = 0;
  while (true) {
    const auto r = parse_at(&pos, index, &torn, &torn_at);
    if (!r) break;
    ++index;
    ++s.records;
    s.prefix_end = pos;
    switch (r->type) {
      case RecordType::kCommit:
        ++s.commits;
        break;
      case RecordType::kRunEnd:
        s.has_run_end = true;
        break;
      case RecordType::kSnapshotMark: {
        Decoder d(r->payload, r->offset + kFramePayloadOffset);
        s.snapshot_marks.push_back(d.u64());
        break;
      }
      case RecordType::kExternal: {
        auto e = decode_external(*r);
        s.last_external_seq = e.seq;
        s.externals.push_back(std::move(e));
        break;
      }
      default:
        break;
    }
  }
  s.torn = torn;
  s.torn_offset = torn_at;
  return s;
}

}  // namespace venn::journal
