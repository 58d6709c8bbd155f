#include "sim/engine.h"

#include <stdexcept>

namespace venn::sim {

void Engine::every(SimTime period, std::function<bool()> fn) {
  if (period <= 0.0) throw std::invalid_argument("period must be > 0");
  // Shared state + member relay, like stream() below: the previous
  // self-capturing closure (a shared_ptr<function> holding a copy of its
  // own shared_ptr) formed a reference cycle and leaked every periodic
  // task — found by the LeakSanitizer run of the CI sanitizer matrix.
  every_tick(period, std::make_shared<std::function<bool()>>(std::move(fn)));
}

void Engine::every_tick(SimTime period,
                        std::shared_ptr<std::function<bool()>> fn) {
  queue_.schedule_after(period, [this, period, fn = std::move(fn)]() mutable {
    if (!(*fn)()) return;
    every_tick(period, std::move(fn));
  });
}

void Engine::stream(std::optional<SimTime> first,
                    std::function<std::optional<SimTime>()> fn) {
  if (!first) return;
  // Shared state + member relay instead of a self-capturing closure (which
  // would leak through a shared_ptr cycle).
  stream_tick(std::max(*first, now()),
              std::make_shared<std::function<std::optional<SimTime>()>>(
                  std::move(fn)));
}

void Engine::stream_tick(
    SimTime at, std::shared_ptr<std::function<std::optional<SimTime>()>> fn) {
  queue_.schedule(at, [this, fn = std::move(fn)] {
    const auto next = (*fn)();
    if (next) stream_tick(std::max(*next, now()), fn);
  });
}

void Engine::run_until(SimTime t_max) {
  const std::uint64_t start = queue_.executed();
  for (;;) {
    if (queue_.executed() - start > event_budget_) {
      throw std::runtime_error("Engine: event budget exhausted");
    }
    const auto next = queue_.next_time();
    if (!next || *next > t_max) return;
    queue_.step();
  }
}

}  // namespace venn::sim
