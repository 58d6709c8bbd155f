// Time-travel inspector: replay a journal to commit N and dump the state.
//
// `venn_sim_cli inspect <file.vjl> --seek-commit N` re-executes the
// journaled run with the verifier armed to throw SeekReached the instant
// the Nth kCommit record matches — the exact program point where cadence
// snapshots are captured — then reads the coordinator out: sim clock, idle
// pool size, per-job progress and open requests, eligibility-index and
// protocol summaries. When a stored snapshot exists at commit N, the
// inspector additionally captures the replayed coordinator's snapshot and
// compares the two byte for byte (the zero-drift proof, surfaced as
// "snapshot at commit N: verified").
//
// Seeking past the journal's last commit refuses cleanly with the actual
// commit count; it never partially replays.
#pragma once

#include <cstdint>
#include <string>

namespace venn::service {

struct InspectOptions {
  // Commit count to replay to; 0 = the journal's last commit.
  std::uint64_t seek_commit = 0;
};

struct InspectReport {
  std::uint64_t commit = 0;        // commit actually inspected
  bool snapshot_compared = false;  // a stored snapshot existed and matched
  std::string text;                // the read-only state dump
};

// Throws std::runtime_error on corrupt journals, a seek past the last
// commit, or a snapshot mismatch (drift — which would be a bug).
[[nodiscard]] InspectReport inspect_journal(const std::string& journal_path,
                                            const InspectOptions& opts = {});

}  // namespace venn::service
