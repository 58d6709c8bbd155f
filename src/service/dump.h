// Deterministic text dump of a finished run: RunResult plus the
// TimeSeriesRecorder's streams, doubles as shortest-exact decimal. The
// daemon's `drain` writes this next to the journal and the in-process
// serial reference (venn_coordinatord run-script) prints the same bytes —
// the crash-recovery differential test compares the two files verbatim, so
// every field here is part of the byte-identity surface.
#pragma once

#include <string>

#include "api/observers.h"
#include "core/metrics.h"

namespace venn::service {

// %.17g — round-trips any IEEE-754 double through text.
[[nodiscard]] std::string fmt_double(double v);

[[nodiscard]] std::string dump_run(const RunResult& result,
                                   const api::TimeSeriesRecorder* recorder);

// Writes `content` to `path`, replacing it. Throws std::runtime_error naming
// the path when the file cannot be opened, written, flushed or closed, so a
// full or failing disk never leaves a truncated dump behind a success.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace venn::service
