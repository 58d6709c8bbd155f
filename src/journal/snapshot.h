// State snapshots: the durability anchor of journaled runs.
//
// Every `snapshot_every` round commits the coordinator captures its full
// mutable state — engine clock and RNG, idle-pool vector, per-device
// participation budgets, per-job round/request state, protocol and
// hot-path counters, open-loop progress and the streamed-churn session
// cursors — into a StateSnapshot of named binary sections, written next
// to the journal and marked in it with a kSnapshotMark record.
//
// Capture serializes *logical* state, not memory layout: the per-device
// participation budgets, for instance, are the fleet's struct-of-arrays
// participation column (device/fleet.h, the only place a budget is
// stored), written in device order.
//
// Restore is event-sourced: the simulation's event queue holds closures
// and cannot be serialized, so a restored coordinator is produced by
// deterministically re-executing the journal prefix (the same engine, the
// same seeds, the same event order). The snapshot is the *correctness
// anchor* of that recovery, not a shortcut past it: at the marked commit
// the re-executed coordinator captures its state again and compares it to
// the stored snapshot field for field — any drift between the journaled
// run and the recovery fails loudly with the first diverging section named
// (tests/replay_differential_test.cc pins this end to end, including
// crash-recovery tails).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace venn::journal {

struct StateSnapshot {
  std::uint64_t commits = 0;  // protocol commits at capture time
  double clock = 0.0;         // engine now() at capture time
  // Named binary sections (Encoder-packed). Names give mismatch reports a
  // subsystem to point at ("idle-pool", "engine-rng", "jobs", ...).
  std::vector<std::pair<std::string, std::string>> sections;

  [[nodiscard]] const std::string* find(const std::string& name) const;
};

// Framed serialization: snapshot magic, format version, commits/clock,
// sections, trailing CRC over everything after the magic.
[[nodiscard]] std::string encode_snapshot(const StateSnapshot& s);
[[nodiscard]] StateSnapshot decode_snapshot(std::string_view bytes);

// File round-trip. Throws std::runtime_error on I/O errors and on any
// framing/CRC violation (offset-naming, like the journal reader).
void write_snapshot_file(const std::string& path, const StateSnapshot& s);
[[nodiscard]] StateSnapshot read_snapshot_file(const std::string& path);

// Canonical sibling path of the snapshot captured at `commits` for the
// journal at `journal_path` (journal.vjl -> journal.vjl.snap-000123).
[[nodiscard]] std::string snapshot_path(const std::string& journal_path,
                                        std::uint64_t commits);

// First divergence between two snapshots, or nullopt when identical.
// Section-wise: names the section and the byte where the payloads differ.
[[nodiscard]] std::optional<std::string> describe_mismatch(
    const StateSnapshot& expected, const StateSnapshot& actual);

}  // namespace venn::journal
