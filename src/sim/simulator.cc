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

void Simulator::release_slot(std::uint32_t slot) {
  slots_[slot] = EventFn{};
  free_slots_.push_back(slot);
}

void Simulator::enqueue(TimeS t, std::uint32_t slot) {
  const Entry e{t, next_seq_++, slot, kNoTimer};
  if (dispatching_ && t == now_) {
    // Same-time event scheduled from inside the open batch: its seq exceeds
    // every event already in the batch and neither heap holds anything at
    // this time, so appending preserves FIFO tie order and skips the heap.
    batch_.push_back(e);
    return;
  }
  heap_.push(e);
}

TimerId Simulator::enqueue_timer(TimeS t, std::uint32_t slot) {
  std::uint32_t timer;
  if (free_timers_.empty()) {
    timers_.emplace_back();
    timer = static_cast<std::uint32_t>(timers_.size() - 1);
  } else {
    timer = free_timers_.back();
    free_timers_.pop_back();
  }
  ++live_timers_;
  const Entry e{t, next_seq_++, slot, timer};
  if (dispatching_ && t == now_) {
    timers_[timer].pos = kInBatch;  // same-time append, as in enqueue()
    batch_.push_back(e);
  } else {
    timer_heap_.push(e);  // TrackPos records the position
  }
  return {timer, timers_[timer].gen};
}

void Simulator::release_timer(std::uint32_t timer) {
  TimerRec& rec = timers_[timer];
  rec.pos = kFree;
  ++rec.gen;  // stale ids of this record no longer match
  free_timers_.push_back(timer);
}

bool Simulator::cancel(TimerId id) {
  if (!pending(id)) return false;
  --live_timers_;
  TimerRec& rec = timers_[id.index];
  if (rec.pos == kInBatch) {
    // The entry sits in the open batch; the batch skips and releases it.
    rec.pos = kCancelled;
    return true;
  }
  release_slot(timer_heap_.erase(rec.pos).slot);
  release_timer(id.index);
  return true;
}

void Simulator::spawn(Task task) {
  auto h = task.release();
  tasks_.push_back(h);
  h.resume();  // run until the first suspension point
  if (tasks_.size() % 64 == 0) reap_tasks();
}

bool Simulator::run_entry(const Entry& e) {
  if (e.timer != kNoTimer) {
    const bool cancelled = timers_[e.timer].pos == kCancelled;
    // Released before the callback runs: from here on the timer has fired
    // and cancel() returns false, also from inside the callback.
    release_timer(e.timer);
    if (cancelled) {
      release_slot(e.slot);
      return false;
    }
    --live_timers_;
  }
  ++executed_;
  // Move the callback out before invoking: the callback may schedule new
  // events and reallocate the slab.
  EventFn fn = std::move(slots_[e.slot]);
  free_slots_.push_back(e.slot);
  fn();
  return true;
}

void Simulator::open_batch(TimeS t) {
  batch_.clear();
  // Both heaps pop in seq order at equal times: a two-way merge.
  for (;;) {
    const bool plain = !heap_.empty() && heap_.top().time == t;
    const bool timer = !timer_heap_.empty() && timer_heap_.top().time == t;
    if (plain && (!timer || heap_.top().seq < timer_heap_.top().seq)) {
      batch_.push_back(heap_.pop());
    } else if (timer) {
      batch_.push_back(timer_heap_.pop());
      timers_[batch_.back().timer].pos = kInBatch;
    } else {
      break;
    }
  }
}

void Simulator::close_batch(std::size_t next) {
  for (std::size_t j = next; j < batch_.size(); ++j) {
    const Entry& e = batch_[j];
    if (e.timer == kNoTimer) {
      heap_.push(e);
    } else if (timers_[e.timer].pos == kCancelled) {
      release_timer(e.timer);
      release_slot(e.slot);
    } else {
      timer_heap_.push(e);
    }
  }
  batch_.clear();
  dispatching_ = false;
}

bool Simulator::dispatch(TimeS until, const std::function<bool()>* done) {
  bool fired = done != nullptr && (*done)();
  while (!fired) {
    TimeS t;
    if (timer_heap_.empty()) {
      if (heap_.empty()) break;
      t = heap_.top().time;
    } else if (heap_.empty()) {
      t = timer_heap_.top().time;
    } else {
      t = std::min(heap_.top().time, timer_heap_.top().time);
    }
    if (t > until) break;
    open_batch(t);
    now_ = t;
    dispatching_ = true;
    // batch_ may grow while we iterate: same-time events scheduled by a
    // batch member append behind it (see enqueue()). Index, don't iterate.
    std::size_t i = 0;
    while (i < batch_.size()) {
      bool ran;
      try {
        ran = run_entry(batch_[i++]);
      } catch (...) {
        // Keep the queue consistent: the unexecuted remainder of the batch
        // goes back on the heaps so a caller that catches can keep running.
        close_batch(i);
        throw;
      }
      // Stop exactly where a one-event-at-a-time loop would; the rest of
      // the batch keeps its seqs, so a later run resumes in order.
      if (ran && done != nullptr && (*done)()) {
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
