// Journal format & corruption-hardening wall.
//
// The durability subsystem's on-disk formats (journal records, snapshot
// files) must fail LOUDLY on corruption — a bad magic, an unsupported
// version, a CRC mismatch or a mid-record truncation is a runtime_error
// naming the byte offset of the violation, never a silently wrong replay.
// These tests pin every failure mode by building real journals through the
// JournalWriter and then damaging the bytes, and pin the recovery path:
// tolerate-torn-tail recovers every record before the tear.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "venn/venn.h"

namespace venn::journal {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

JournalHeader test_header() {
  JournalHeader h;
  h.seed = 42;
  h.scenario_kv = "seed=42\ndevices=100\n";
  h.policy_kv = "policy=venn\n";
  h.label = "Venn";
  h.inputs_digest = 0xDEADBEEFCAFEF00DULL;
  return h;
}

// Builds a small real journal: 2 check-ins, an assignment, a commit
// (flush), a response, a second commit (flush). Returns its path.
std::string build_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  JournalWriter w(path, test_header());
  w.on_checkin(10.0, 3, true);
  w.on_checkin(11.5, 4, false);
  w.on_assignment(12.0, 3, JobId{1}, RequestId{100}, 0);
  w.on_commit(20.0, JobId{1}, RequestId{100}, 0, 5);
  w.on_response(25.0, JobId{1}, RequestId{101}, 3, 0);
  w.on_commit(30.0, JobId{1}, RequestId{101}, 1, 5);
  w.finalize(40.0);
  return path;
}

// Frame start offsets of every record in the file (after the prologue).
std::vector<std::size_t> frame_offsets(const std::string& path) {
  JournalReader r(path);
  std::vector<std::size_t> offs;
  while (auto rec = r.next()) offs.push_back(rec->offset);
  return offs;
}

// ------------------------------------------------------------ primitives --

TEST(JournalFormat, EncoderDecoderRoundTrip) {
  Encoder e;
  e.u8(0xAB);
  e.u16(0xBEEF);
  e.u32(0xDEADBEEF);
  e.u64(0x0123456789ABCDEFULL);
  e.i32(-7);
  e.i64(-123456789012345LL);
  e.f64(3.141592653589793);
  e.f64(-0.0);
  e.str("hello\0world");  // embedded NUL truncates the literal — fine
  const std::string bytes = e.bytes();

  Decoder d(bytes, 0);
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u16(), 0xBEEF);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(d.i32(), -7);
  EXPECT_EQ(d.i64(), -123456789012345LL);
  EXPECT_EQ(d.f64(), 3.141592653589793);
  const double neg_zero = d.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // raw bits: -0.0 survives
  EXPECT_EQ(d.str(), "hello");
  EXPECT_EQ(d.remaining(), 0u);
}

TEST(JournalFormat, DecoderUnderflowNamesAbsoluteOffset) {
  Encoder e;
  e.u16(7);
  Decoder d(e.bytes(), 1000);  // pretend the span starts at file offset 1000
  (void)d.u16();
  try {
    (void)d.u32();
    FAIL() << "expected underflow";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("offset 1002"), std::string::npos)
        << err.what();
  }
}

TEST(JournalFormat, Crc32MatchesIeeeCheckValue) {
  // The canonical CRC-32 check value: crc("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(JournalFormat, HeaderRoundTrip) {
  const JournalHeader h = test_header();
  const std::string bytes = encode_header(h);
  std::size_t payload_end = 0;
  const JournalHeader back = decode_header(bytes, &payload_end);
  EXPECT_EQ(back.seed, h.seed);
  EXPECT_EQ(back.scenario_kv, h.scenario_kv);
  EXPECT_EQ(back.policy_kv, h.policy_kv);
  EXPECT_EQ(back.label, h.label);
  EXPECT_EQ(back.inputs_digest, h.inputs_digest);
  EXPECT_EQ(payload_end, bytes.size());
}

// ------------------------------------------------------------- corruption --

TEST(JournalCorruption, BadMagicRejected) {
  const std::string path = build_journal("bad_magic.vjl");
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  try {
    JournalReader r(path);
    FAIL() << "expected bad magic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(JournalCorruption, WrongVersionRejected) {
  const std::string path = build_journal("bad_version.vjl");
  std::string bytes = read_file(path);
  bytes[8] = 99;  // version u32 sits right after the 8-byte magic
  write_file(path, bytes);
  try {
    JournalReader r(path);
    FAIL() << "expected version error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 99"),
              std::string::npos)
        << e.what();
  }
}

TEST(JournalCorruption, HeaderCrcMismatchRejected) {
  const std::string path = build_journal("bad_header.vjl");
  std::string bytes = read_file(path);
  bytes[24] ^= 0x01;  // a byte inside the header payload
  write_file(path, bytes);
  EXPECT_THROW(JournalReader r(path), std::runtime_error);
}

TEST(JournalCorruption, TornFinalFramePrefixNamesOffset) {
  const std::string path = build_journal("torn_prefix.vjl");
  const auto offs = frame_offsets(path);
  ASSERT_GE(offs.size(), 2u);
  const std::size_t tear = offs.back() + 3;  // mid length/CRC prefix
  write_file(path, read_file(path).substr(0, tear));

  JournalReader strict(path);
  try {
    while (strict.next()) {
    }
    FAIL() << "expected torn-frame error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("torn record frame"), std::string::npos) << what;
    EXPECT_NE(what.find("offset " + std::to_string(offs.back())),
              std::string::npos)
        << what;
  }

  // Tolerant mode recovers everything before the tear.
  JournalReader tolerant(path, /*tolerate_torn_tail=*/true);
  std::size_t n = 0;
  while (tolerant.next()) ++n;
  EXPECT_EQ(n, offs.size() - 1);
  EXPECT_TRUE(tolerant.torn());
  EXPECT_EQ(tolerant.torn_offset(), offs.back());
}

TEST(JournalCorruption, MidRecordTruncationNamesOffset) {
  const std::string path = build_journal("torn_body.vjl");
  const auto offs = frame_offsets(path);
  const std::size_t tear = offs.back() + 10;  // prefix intact, body cut
  write_file(path, read_file(path).substr(0, tear));

  JournalReader strict(path);
  try {
    while (strict.next()) {
    }
    FAIL() << "expected mid-record truncation";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mid-record truncation"),
              std::string::npos)
        << e.what();
  }

  JournalReader tolerant(path, true);
  std::size_t n = 0;
  while (tolerant.next()) ++n;
  EXPECT_EQ(n, offs.size() - 1);
  EXPECT_TRUE(tolerant.torn());
}

TEST(JournalCorruption, RecordCrcMismatchNamesOffset) {
  const std::string path = build_journal("bad_crc.vjl");
  const auto offs = frame_offsets(path);
  ASSERT_GE(offs.size(), 3u);
  std::string bytes = read_file(path);
  bytes[offs[1] + 12] ^= 0xFF;  // flip a body byte of the SECOND record
  write_file(path, bytes);

  JournalReader strict(path);
  EXPECT_TRUE(strict.next().has_value());  // record 0 still clean
  try {
    (void)strict.next();
    FAIL() << "expected CRC mismatch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("offset " + std::to_string(offs[1])),
              std::string::npos)
        << what;
  }

  // The corruption is NOT in the final stretch: tolerant mode stops at it
  // (recovering only the prefix) rather than resynchronizing past it.
  JournalReader tolerant(path, true);
  std::size_t n = 0;
  while (tolerant.next()) ++n;
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(tolerant.torn());
}

TEST(JournalCorruption, UnknownRecordTypeRejected) {
  const std::string path = build_journal("bad_type.vjl");
  std::string bytes = read_file(path);
  Encoder e;
  e.f64(1.0);
  bytes += frame_record(static_cast<RecordType>(999), e.bytes());
  write_file(path, bytes);

  JournalReader r(path);
  try {
    while (r.next()) {
    }
    FAIL() << "expected unknown-type error";
  } catch (const std::runtime_error& e2) {
    EXPECT_NE(std::string(e2.what()).find("unknown record type 999"),
              std::string::npos)
        << e2.what();
  }
}

// ---------------------------------------------------------------- writer --

TEST(JournalWriterTest, BuffersUntilCommitAndDiscardsUnflushedTailOnDeath) {
  const std::string path = ::testing::TempDir() + "crash_model.vjl";
  {
    JournalWriter w(path, test_header());
    w.on_checkin(1.0, 0, false);
    w.on_commit(2.0, JobId{1}, RequestId{1}, 0, 1);  // flush boundary
    w.on_checkin(3.0, 1, false);  // buffered, never flushed
    // No finalize(): the writer dies here. The crash model drops the tail.
  }
  JournalReader r(path);
  std::vector<RecordType> types;
  while (auto rec = r.next()) types.push_back(rec->type);
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], RecordType::kCheckin);
  EXPECT_EQ(types[1], RecordType::kCommit);  // no footer, no buffered tail
}

TEST(JournalWriterTest, HeaderPersistsBeforeFirstFlush) {
  const std::string path = ::testing::TempDir() + "header_only.vjl";
  {
    JournalWriter w(path, test_header());
    w.on_checkin(1.0, 0, false);  // buffered only
  }
  JournalReader r(path);
  EXPECT_EQ(r.header().seed, 42u);
  EXPECT_FALSE(r.next().has_value());
}

TEST(JournalWriterTest, HaltAfterCommitsThrowsAfterFlush) {
  const std::string path = ::testing::TempDir() + "halt.vjl";
  JournalWriter w(path, test_header());
  w.set_halt_after_commits(2);
  w.on_commit(1.0, JobId{1}, RequestId{1}, 0, 1);
  try {
    w.on_commit(2.0, JobId{1}, RequestId{2}, 1, 1);
    FAIL() << "expected SimulationHalted";
  } catch (const SimulationHalted& h) {
    EXPECT_EQ(h.commits_flushed, 2u);
  }
  // Both commits made it to disk before the throw.
  JournalReader r(path);
  std::size_t commits = 0;
  while (auto rec = r.next()) {
    commits += (rec->type == RecordType::kCommit) ? 1 : 0;
  }
  EXPECT_EQ(commits, 2u);
}

TEST(JournalWriterTest, RoundTripPreservesPayloadBytes) {
  const std::string path = build_journal("roundtrip.vjl");
  JournalReader r(path);
  auto rec = r.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kCheckin);
  Decoder d(rec->payload, rec->offset);
  EXPECT_EQ(d.f64(), 10.0);
  EXPECT_EQ(d.u64(), 3u);
  EXPECT_EQ(d.u8(), 1);

  // The journal ends with the kRunEnd footer carrying the record count.
  std::optional<Record> last;
  std::uint64_t n = 1;
  while (auto next = r.next()) {
    last = std::move(next);
    ++n;
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, RecordType::kRunEnd);
  Decoder fd(last->payload, last->offset);
  EXPECT_EQ(fd.f64(), 40.0);
  EXPECT_EQ(fd.u64(), n - 1);  // records before the footer
}

// -------------------------------------------------------------- snapshots --

StateSnapshot test_snapshot() {
  StateSnapshot s;
  s.commits = 12;
  s.clock = 3600.5;
  Encoder a;
  a.u64(7);
  a.f64(1.5);
  s.sections.emplace_back("clock", a.take());
  Encoder b;
  b.str("mt19937_64 state stand-in");
  s.sections.emplace_back("engine-rng", b.take());
  return s;
}

TEST(SnapshotTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "snap_rt.bin";
  const StateSnapshot s = test_snapshot();
  write_snapshot_file(path, s);
  const StateSnapshot back = read_snapshot_file(path);
  EXPECT_EQ(back.commits, s.commits);
  EXPECT_EQ(back.clock, s.clock);
  ASSERT_EQ(back.sections.size(), s.sections.size());
  for (std::size_t i = 0; i < s.sections.size(); ++i) {
    EXPECT_EQ(back.sections[i], s.sections[i]) << "section " << i;
  }
  EXPECT_FALSE(describe_mismatch(s, back).has_value());
}

TEST(SnapshotTest, DescribeMismatchNamesSectionAndByte) {
  const StateSnapshot a = test_snapshot();
  StateSnapshot b = a;
  b.sections[1].second[4] ^= 0x01;
  const auto diff = describe_mismatch(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("engine-rng"), std::string::npos) << *diff;
  EXPECT_NE(diff->find("byte 4"), std::string::npos) << *diff;

  StateSnapshot c = a;
  c.commits = 13;
  const auto cdiff = describe_mismatch(a, c);
  ASSERT_TRUE(cdiff.has_value());
  EXPECT_NE(cdiff->find("commit count"), std::string::npos) << *cdiff;
}

TEST(SnapshotTest, CorruptSnapshotFileRejected) {
  const std::string path = ::testing::TempDir() + "snap_bad.bin";
  write_snapshot_file(path, test_snapshot());
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x20;
  write_file(path, bytes);
  EXPECT_THROW((void)read_snapshot_file(path), std::runtime_error);

  std::string truncated = read_file(path).substr(0, 6);
  write_file(path, truncated);
  EXPECT_THROW((void)read_snapshot_file(path), std::runtime_error);
}

TEST(SnapshotTest, SnapshotPathFormatsCommitCount) {
  EXPECT_EQ(snapshot_path("runs/a.vjl", 12), "runs/a.vjl.snap-000012");
  EXPECT_EQ(snapshot_path("a.vjl", 1234567), "a.vjl.snap-1234567");
}

TEST(SnapshotTest, WriterMarksSnapshotAndReaderFindsNewest) {
  const std::string path = ::testing::TempDir() + "snap_mark.vjl";
  {
    JournalWriter w(path, test_header());
    StateSnapshot s = test_snapshot();
    s.commits = 3;
    w.on_commit(1.0, JobId{1}, RequestId{1}, 0, 1);
    w.on_snapshot(s);
    s.commits = 6;
    w.on_commit(2.0, JobId{1}, RequestId{2}, 1, 1);
    w.on_snapshot(s);
    w.finalize(3.0);
  }
  JournalReader r(path);
  EXPECT_EQ(r.scan().snapshot_marks, (std::vector<std::uint64_t>{3, 6}));
  // scan() keeps its own cursor: iteration still starts at the first
  // record.
  auto rec = r.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kCommit);
  // Both snapshot files landed next to the journal.
  EXPECT_EQ(read_snapshot_file(snapshot_path(path, 3)).commits, 3u);
  EXPECT_EQ(read_snapshot_file(snapshot_path(path, 6)).commits, 6u);
}

}  // namespace
}  // namespace venn::journal
