// Device model: hardware spec, availability sessions, execution-time model.
//
// A device is available only during its sessions (charging + WiFi, paper
// §2.1). When assigned a CL task it computes for a log-normally distributed
// duration scaled by its hardware capacity; if its session ends first, the
// task fails (ephemerality). Each device participates in at most one CL job
// per day (paper §5.1: "Each unique device trace is limited to one CL job
// per day for realism").
//
// Layout note: a device is its position in the fleet. There is no device
// object: its spec, its one-job-per-day budget and the rest of the state
// the scheduling loops touch live in the struct-of-arrays FleetHotState
// (device/fleet.h), and a fleet's availability sessions live in one
// SessionColumn (below). This header holds what acts on one device's
// values: the execution-time model of a spec and the day arithmetic of the
// budget.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "device/eligibility.h"
#include "util/ids.h"
#include "util/rng.h"

namespace venn {

// One contiguous availability interval [start, end).
struct Session {
  SimTime start = 0.0;
  SimTime end = 0.0;

  [[nodiscard]] SimTime duration() const { return end - start; }
  [[nodiscard]] bool contains(SimTime t) const { return t >= start && t < end; }
};

// Every device's availability sessions in one CSR column: device d owns
// one slice of a single Session array, sorted and non-overlapping. One
// allocation holds a whole fleet's trace, and a coordinator's start
// handler reads one dense array instead of chasing a per-device vector. A
// column that covers no device (devices() == 0) is how a run says its
// sessions stream from a churn model instead.
class SessionColumn {
 public:
  // Copies share the column's storage (a run's copy of an experiment's
  // trace costs no memory); the first write to a shared column takes a
  // private copy. No move operations: a move is a copy, so no column is
  // ever left without storage.
  SessionColumn() = default;
  SessionColumn(const SessionColumn&) = default;
  SessionColumn& operator=(const SessionColumn&) = default;

  // Appends the next device's sessions. Throws std::invalid_argument on an
  // empty, inverted or overlapping session.
  void push_device(std::span<const Session> sessions);
  // Room for `sessions` more sessions, so a builder that knows a bound
  // allocates once instead of paying for doublings.
  void reserve(std::size_t sessions) {
    own().sessions.reserve(size() + sessions);
  }

  [[nodiscard]] std::size_t devices() const {
    return data_->offsets.size() - 1;
  }
  [[nodiscard]] std::size_t size() const { return data_->sessions.size(); }
  [[nodiscard]] std::span<const Session> of(std::size_t d) const {
    const std::vector<std::size_t>& off = data_->offsets;
    return {data_->sessions.data() + off[d], off[d + 1] - off[d]};
  }

  // Shifts every device's sessions by offset_of(d) in place, dropping those
  // that then start at or after `horizon` (hier topology phases).
  template <typename OffsetOf>
  void shift(OffsetOf offset_of, SimTime horizon) {
    Data& data = own();
    std::size_t out = 0;
    for (std::size_t d = 0; d + 1 < data.offsets.size(); ++d) {
      const double off = offset_of(d);
      const std::size_t b = data.offsets[d];
      const std::size_t e = data.offsets[d + 1];
      data.offsets[d] = out;
      for (std::size_t i = b; i < e; ++i) {
        Session s = data.sessions[i];
        s.start += off;
        s.end += off;
        if (s.start >= horizon) break;  // sessions are ordered
        data.sessions[out++] = s;
      }
    }
    data.offsets.back() = out;
    data.sessions.resize(out);
  }

 private:
  struct Data {
    std::vector<Session> sessions;
    std::vector<std::size_t> offsets{0};
  };
  Data& own() {
    if (data_.use_count() > 1) data_ = std::make_shared<Data>(*data_);
    return *data_;
  }
  std::shared_ptr<Data> data_ = std::make_shared<Data>();
};

// Relative execution speed in (0, 1] of a device with this spec: a
// speed-1.0 device finishes a task in its nominal duration; slower devices
// take proportionally longer. Affine in capacity so even the weakest
// devices make progress (the long tail of stragglers the matching
// algorithm of §4.3 targets).
[[nodiscard]] double speed(const DeviceSpec& spec);

// Samples the wall-clock execution time on a device with this spec for a
// task with nominal duration `nominal` (the duration on a speed-1.0
// device), log-normal noise with coefficient of variation `cv` (paper §4.3
// cites log-normal response times).
[[nodiscard]] SimTime sample_exec_time(const DeviceSpec& spec, double nominal,
                                       double cv, Rng& rng);

// --- one-job-per-day budget -----------------------------------------------
// A device's budget is the last day it participated, one int32 per device
// in FleetHotState::participation_day (device/fleet.h).
//
// Sentinel for "never participated / budget refunded". INT32_MIN rather
// than -1: with floor day semantics, day -1 is a legitimate participation
// day (sessions jittered before t=0), and a -1 sentinel would make its
// refund a no-op.
inline constexpr std::int32_t kNeverParticipated =
    std::numeric_limits<std::int32_t>::min();

// Day index of a simulation time, floor semantics: day_of(-0.5) == -1 and
// day_of(k*kDay) == k exactly. (Truncation toward zero would fold days
// -1..0 onto day 0 and corrupt one-job-per-day budgeting for sessions
// jittered before t=0 — see the churn models' negative-jitter note in
// src/workload/churn.cc.)
[[nodiscard]] inline int day_of(SimTime t) {
  return static_cast<int>(std::floor(t / kDay));
}

}  // namespace venn
