// Rebuilding and restoring a run from its journal.
//
// A journal header carries the canonical scenario/policy key=value blocks,
// the seed and the generated-inputs digest — everything needed to
// reconstruct the world the journaled run executed in. Three drivers
// restore a run from a journal: Experiment::replay (re-execute + verify),
// the service daemon's --resume (restore, then go live) and the
// time-travel inspector (replay to commit N, then dump). They share one
// path, so they cannot drift apart in how they read a journal:
//
//   rebuild_from_header       — the world the header describes
//   newest_readable_snapshot  — the stored state that anchors the restore
//   restore_prefix            — the byte-verified re-execution of the
//                               journaled prefix, externals included
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/builder.h"
#include "api/live.h"
#include "journal/format.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "journal/verifier.h"

namespace venn::api {

// The world a journal header describes, rebuilt and digest-checked.
struct RebuiltRun {
  ScenarioSpec scenario;
  PolicySpec policy;
  Experiment experiment;
};

// Parses the header's kv blocks through the normal override surface (so an
// unknown knob is a loud error), regenerates the inputs and checks them
// against the header's digest. Throws std::runtime_error on malformed kv,
// a seed disagreement or a digest mismatch. Journal plumbing knobs
// (journal_enabled/dir/halt_after) are cleared on the rebuilt scenario —
// the caller decides whether the rebuilt run records, verifies or both.
// `observers` are subscribed to the rebuilt experiment's runs (the daemon
// attaches its TimeSeriesRecorder through this; callers keep ownership).
[[nodiscard]] RebuiltRun rebuild_from_header(
    const journal::JournalHeader& header,
    std::vector<RunObserver*> observers = {});

// The header-recorded policy, instantiated against the rebuilt
// experiment's scheduler seed stream.
[[nodiscard]] std::unique_ptr<Scheduler> rebuilt_scheduler(
    const RebuiltRun& run);

// The newest marked snapshot of the journal at `journal_path` that reads
// cleanly. Marks sharing a commit count share one file, tried once. With
// `skipped` set, an unreadable file is passed over and recorded there as
// "commit N: <read error>" (newest first); the journal alone recovers the
// run, the snapshot only anchors it. A null `skipped` is strict: the first
// unreadable snapshot throws. nullopt when no mark reads (or none exists).
[[nodiscard]] std::optional<journal::StateSnapshot> newest_readable_snapshot(
    const std::string& journal_path, const journal::JournalScan& scan,
    std::vector<std::string>* skipped);

// Starts `live` and re-executes the journaled prefix under `verifier`:
// drains t=0, then advances to each kExternal's recorded cursor, consumes
// the record from the tape and re-applies the command. The t=0 drain is
// the recording side's tape-order rule (a daemon drains t=0 before it
// journals its first command), so it holds for a journal with no external
// command too. Any drift from the journaled run throws.
void restore_prefix(LiveSession& live, journal::JournalVerifier& verifier,
                    const journal::JournalScan& scan);

}  // namespace venn::api
