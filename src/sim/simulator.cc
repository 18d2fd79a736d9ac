#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace p3::sim {

Simulator::~Simulator() {
  // Destroy any processes still suspended (e.g. servers blocked on their
  // inbox when the experiment ended). Frames of finished tasks included.
  for (auto h : tasks_) {
    if (h) h.destroy();
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Simulator::enqueue(TimeS t, std::uint32_t slot) {
  const Entry e{t, next_seq_++, slot};
  if (dispatching_ && t == now_) {
    // Same-time event scheduled from inside the open batch: its seq exceeds
    // every event already in the batch and the heap holds nothing at this
    // time, so appending preserves FIFO tie order and skips the heap.
    batch_.push_back(e);
    return;
  }
  heap_.push(e);
}

void Simulator::spawn(Task task) {
  auto h = task.release();
  tasks_.push_back(h);
  h.resume();  // run until the first suspension point
  if (tasks_.size() % 64 == 0) reap_tasks();
}

void Simulator::run_entry(const Entry& e) {
  ++executed_;
  // Move the callback out before invoking: the callback may schedule new
  // events and reallocate the slab.
  EventFn fn = std::move(slots_[e.slot]);
  free_slots_.push_back(e.slot);
  fn();
}

void Simulator::close_batch(std::size_t next) {
  for (std::size_t j = next; j < batch_.size(); ++j) heap_.push(batch_[j]);
  batch_.clear();
  dispatching_ = false;
}

bool Simulator::dispatch(TimeS until, const std::function<bool()>* done) {
  bool fired = done != nullptr && (*done)();
  while (!fired && !heap_.empty() && heap_.top().time <= until) {
    const TimeS t = heap_.top().time;
    batch_.clear();
    while (!heap_.empty() && heap_.top().time == t) {
      batch_.push_back(heap_.pop());
    }
    now_ = t;
    dispatching_ = true;
    // batch_ may grow while we iterate: same-time events scheduled by a
    // batch member append behind it (see enqueue()). Index, don't iterate.
    std::size_t i = 0;
    while (i < batch_.size()) {
      try {
        run_entry(batch_[i++]);
      } catch (...) {
        // Keep the queue consistent: the unexecuted remainder of the batch
        // goes back on the heap so a caller that catches can keep running.
        close_batch(i);
        throw;
      }
      // Stop exactly where a one-event-at-a-time loop would; the rest of
      // the batch keeps its seqs, so a later run resumes in order.
      if (done != nullptr && (*done)()) {
        fired = true;
        break;
      }
    }
    close_batch(i);
  }
  reap_tasks();
  return fired;
}

void Simulator::run() {
  dispatch(std::numeric_limits<TimeS>::infinity(), nullptr);
}

TimeS Simulator::run_until(TimeS t) {
  dispatch(t, nullptr);
  if (now_ < t) now_ = t;
  return now_;
}

bool Simulator::run_while(const std::function<bool()>& done) {
  return dispatch(std::numeric_limits<TimeS>::infinity(), &done);
}

void Simulator::reap_tasks() {
  std::erase_if(tasks_, [](Task::Handle h) {
    if (h.done()) {
      h.destroy();
      return true;
    }
    return false;
  });
}

}  // namespace p3::sim
