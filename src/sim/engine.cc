#include "sim/engine.h"

#include <stdexcept>

namespace venn::sim {

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
