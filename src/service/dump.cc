#include "service/dump.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "device/eligibility.h"
#include "tsdb/timeseries.h"

namespace venn::service {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

constexpr const char* kStreamNames[] = {
    "assignments", "rounds-completed", "jobs-finished", "responses",
    "stragglers-released"};

void dump_streams(std::string& out, const api::TimeSeriesRecorder& recorder) {
  // Streams in key order (the enum is dense from 0), points in record
  // order — both deterministic.
  for (std::uint64_t key = 0; key < 5; ++key) {
    const tsdb::Series* s = recorder.store().find(key);
    if (s == nullptr) continue;
    const auto points = s->snapshot();
    out += "stream ";
    out += kStreamNames[key];
    out += " n=";
    out += std::to_string(points.size());
    out += '\n';
    for (const auto& [t, v] : points) {
      out += "  ";
      out += fmt_double(t);
      out += ' ';
      out += fmt_double(v);
      out += '\n';
    }
  }
}

}  // namespace

std::string dump_run(const RunResult& result,
                     const api::TimeSeriesRecorder* recorder) {
  std::string out;
  out += "scheduler " + result.scheduler + "\n";
  out += "horizon " + fmt_double(result.horizon) + "\n";
  out += "jobs " + std::to_string(result.jobs.size()) + "\n";
  for (const JobResult& j : result.jobs) {
    out += "job " + std::to_string(j.id.value()) + " cat=" +
           std::to_string(static_cast<int>(j.spec.category)) +
           " rounds=" + std::to_string(j.spec.rounds) +
           " demand=" + std::to_string(j.spec.demand) +
           " arrival=" + fmt_double(j.spec.arrival) +
           " finished=" + (j.finished ? "1" : "0") +
           " jct=" + fmt_double(j.jct) +
           " completed=" + std::to_string(j.completed_rounds) +
           " aborts=" + std::to_string(j.total_aborts) + "\n";
  }
  const ProtocolCounters& p = result.protocol;
  out += "protocol commits=" + std::to_string(p.commits) +
         " responses=" + std::to_string(p.responses) +
         " wasted=" + std::to_string(p.wasted_responses) +
         " released=" + std::to_string(p.stragglers_released) +
         " wasted_work_s=" + fmt_double(p.wasted_work_s) +
         " staleness_sum=" + std::to_string(p.staleness_sum) +
         " stale=" + std::to_string(p.stale_responses) + "\n";
  out += "matrix";
  for (const auto& row : result.assignment_matrix) {
    for (const std::int64_t c : row) out += ' ' + std::to_string(c);
  }
  out += '\n';
  if (recorder != nullptr) dump_streams(out, *recorder);
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  }
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size() &&
      std::fflush(f) == 0;
  const int write_errno = errno;
  if (std::fclose(f) != 0 || !written) {
    throw std::runtime_error("cannot write " + path + ": " +
                             std::strerror(written ? errno : write_errno));
  }
}

}  // namespace venn::service
