// Experiment::replay — deterministic re-execution of a journaled run.
//
// Replay does not interpret journal records as commands; it rebuilds the
// experiment the journal's header describes (canonical scenario/policy
// key=value, seed) and RUNS IT AGAIN, with a JournalVerifier installed as
// the journal sink. Determinism does the heavy lifting: the re-executed
// run emits the same events at the same times in the same order, and the
// verifier checks every one byte-for-byte against the journal. A complete
// journal replays strict (must end with the kRunEnd footer); a crashed or
// torn journal replays in resume mode — the verified prefix anchors the
// recovery, the stored snapshot is compared field-for-field at its marked
// commit, and the run then continues live to completion.
//
// Journals recorded by the live daemon additionally carry kExternal
// records (service traffic commands). Those replay through a LiveSession:
// the driver advances the sim clock to each command's recorded cursor,
// consumes the kExternal record from the tape, and re-applies the command
// — the drain-before-journal rule on the recording side guarantees the
// interleaving with ordinary trace events matches event for event.
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/builder.h"
#include "api/live.h"
#include "api/rebuild.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "journal/verifier.h"
#include "util/logging.h"

namespace venn::api {

namespace {

// Applies a canonical `key=value\n` block line by line.
template <typename Setter>
void apply_kv(const std::string& kv, const char* what, Setter&& set) {
  std::size_t pos = 0;
  while (pos < kv.size()) {
    std::size_t nl = kv.find('\n', pos);
    if (nl == std::string::npos) nl = kv.size();
    const std::string line = kv.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error("journal header: malformed " +
                               std::string(what) + " line \"" + line + "\"");
    }
    set(line.substr(0, eq), line.substr(eq + 1));
  }
}

}  // namespace

RebuiltRun rebuild_from_header(const journal::JournalHeader& header,
                               std::vector<RunObserver*> observers) {
  // Rebuild the world description through the normal override surface, so
  // a header knob the build does not know is a loud unknown-key error.
  ScenarioSpec scenario;
  apply_kv(header.scenario_kv, "scenario",
           [&scenario](const std::string& k, const std::string& v) {
             scenario.set(k, v);
           });
  PolicySpec policy;
  apply_kv(header.policy_kv, "policy",
           [&policy](const std::string& k, const std::string& v) {
             policy.set(k, v);
           });
  if (scenario.seed != header.seed) {
    throw std::runtime_error(
        "journal header: seed field (" + std::to_string(header.seed) +
        ") disagrees with the scenario kv (" + std::to_string(scenario.seed) +
        ")");
  }
  // The rebuilt run verifies (or re-records through a fresh writer); the
  // plumbing knobs are not part of the header kv, but clear them
  // defensively.
  scenario.journal_enabled = false;
  scenario.journal_dir.clear();
  scenario.journal_halt_after = 0;

  ExperimentInputs inputs = build_inputs(scenario);
  const std::uint64_t digest = inputs_digest(inputs);
  if (digest != header.inputs_digest) {
    throw std::runtime_error(
        "journal replay: regenerated inputs do not match the journaled run "
        "(digest " + std::to_string(digest) + " vs recorded " +
        std::to_string(header.inputs_digest) +
        "). The journaled experiment used inputs that are not expressible "
        "as scenario overrides (use_devices/use_jobs or programmatic "
        "availability/hardware configs); such runs cannot be replayed from "
        "the journal alone.");
  }
  Experiment ex(scenario, std::move(inputs), std::move(observers));
  return RebuiltRun{std::move(scenario), std::move(policy), std::move(ex)};
}

std::unique_ptr<Scheduler> rebuilt_scheduler(const RebuiltRun& run) {
  return PolicyRegistry::instance().create(
      run.policy.name, run.policy.params,
      run.experiment.stream_seed("scheduler"));
}

ReplayReport Experiment::replay(const std::string& journal_path,
                                const ReplayOptions& opts) {
  // Resume means the journal may end mid-run — a torn final stretch is the
  // documented normal case (the writer was killed mid-append), so resume
  // implies tolerance; strict mode stays strict.
  const bool tolerant = opts.tolerate_torn_tail || opts.resume;
  journal::JournalReader reader(journal_path, tolerant);
  const journal::JournalScan scan = reader.scan();
  if (scan.torn) {
    VENN_INFO << "journal " << journal_path << ": torn tail at byte "
              << scan.torn_offset << "; recovered " << scan.prefix_end
              << "-byte prefix (" << scan.records << " records, "
              << scan.commits << " commits)";
  }
  const journal::JournalHeader& header = reader.header();
  RebuiltRun run = rebuild_from_header(header);

  // The newest stored snapshot, when asked for and when one was marked:
  // the zero-drift anchor of a crash recovery. Resume walks back past
  // unreadable ones (see ReplayOptions::verify_snapshot).
  ReplayReport report;
  std::optional<journal::StateSnapshot> snapshot;
  if (opts.verify_snapshot) {
    const std::vector<std::uint64_t>& marks = scan.snapshot_marks;
    for (auto it = marks.rbegin(); it != marks.rend() && !snapshot; ++it) {
      // Marks sharing a commit count share one file; try it once.
      if (it != marks.rbegin() && *it == *std::prev(it)) continue;
      try {
        snapshot = journal::read_snapshot_file(
            journal::snapshot_path(journal_path, *it));
      } catch (const std::exception& e) {
        if (!opts.resume) throw;
        report.snapshots_skipped.push_back("commit " + std::to_string(*it) +
                                           ": " + e.what());
      }
    }
  }

  journal::JournalVerifier verifier(
      reader,
      opts.resume ? journal::JournalVerifier::Mode::kResume
                  : journal::JournalVerifier::Mode::kStrict,
      snapshot ? &*snapshot : nullptr);
  auto scheduler = rebuilt_scheduler(run);

  if (scan.externals.empty()) {
    report.result = run.experiment.run_with_sink(std::move(scheduler),
                                                 header.label, &verifier);
  } else {
    // Service-journal replay: pace the run through the recorded external
    // commands. advance_to drains every trace event the daemon drained
    // before journaling the command, take_external consumes the kExternal
    // record itself, apply re-runs the command's cascade.
    LiveSession live(run.experiment, std::move(scheduler), header.label,
                     &verifier);
    live.start();
    for (const journal::ExternalEvent& ext : scan.externals) {
      live.advance_to(ext.time);
      verifier.take_external(ext);
      live.apply(TrafficCommand::parse(ext.command));
    }
    report.result = live.finish();
  }
  report.label = header.label;
  report.events_verified = verifier.events_verified();
  report.resumed_past_journal = verifier.passthrough();
  report.snapshot_verified = verifier.snapshot_verified();
  report.snapshot_commits = snapshot ? snapshot->commits : 0;
  return report;
}

}  // namespace venn::api
