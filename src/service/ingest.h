// IngestQueue: the thread-safe seam between the socket listener and the
// single-threaded daemon loop. Listener threads push one request line with
// a promise for its reply; the daemon loop pops, dispatches against the
// (strictly single-threaded) simulation, and fulfills the promise. All
// simulation state is therefore touched by exactly one thread — the queue
// is the only cross-thread structure in the service.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

namespace venn::service {

struct IngestItem {
  std::string line;
  std::promise<std::string> reply;
};

class IngestQueue {
 public:
  // Pushes an item; returns false (fulfilling the promise with an err
  // reply is the caller's job) when the queue is already closed.
  bool push(IngestItem item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  // Blocks for the next item; nullopt once closed.
  std::optional<IngestItem> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    IngestItem item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Closes the queue. Items still queued — pushed after the daemon loop
  // stopped popping — are answered with `leftover_reply`, so no listener
  // thread waits forever for a reply nobody will send.
  void close(const std::string& leftover_reply) {
    std::deque<IngestItem> leftovers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      leftovers.swap(items_);
    }
    cv_.notify_all();
    for (IngestItem& item : leftovers) item.reply.set_value(leftover_reply);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<IngestItem> items_;
  bool closed_ = false;
};

}  // namespace venn::service
