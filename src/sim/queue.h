// Awaitable queues for coroutine processes.
//
// `Queue<T>` is an unbounded FIFO channel; `PriorityQueue<T, Compare>` pops
// the highest-priority element instead. Both support multiple concurrent
// consumers (woken FIFO) and synchronous producers. Wakeups are scheduled
// through the simulator rather than resumed inline, so a push never runs
// consumer code reentrantly.
//
// Semantics: a woken consumer pops at *resume* time (like a thread waking
// from a condition variable), so several same-instant pushes are all visible
// and a priority-queue consumer takes the most urgent of them. Items are
// reserved for woken-but-not-yet-resumed consumers: a late consumer (or
// try_pop) cannot overtake one that suspended earlier.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/heap.h"
#include "sim/simulator.h"

namespace p3::sim {

namespace detail {

/// Waiter bookkeeping shared by both queue flavors.
template <typename Container>
class QueueBase {
 public:
  explicit QueueBase(Simulator& sim) : sim_(&sim) {}
  QueueBase(const QueueBase&) = delete;
  QueueBase& operator=(const QueueBase&) = delete;
  ~QueueBase() {
    // Suspended consumers may outlive the queue (their frames are reclaimed
    // by the Simulator at teardown); mark them so their awaiter destructors
    // do not touch freed queue state. Woken-but-not-yet-resumed consumers
    // left waiters_ in wake_one() and need the same treatment.
    for (auto* w : waiters_) w->orphaned = true;
    for (auto* w : woken_) w->orphaned = true;
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t waiters() const { return waiters_.size(); }

  /// Items not reserved for an already-woken consumer.
  std::size_t available() const {
    return items_.size() > reserved_ ? items_.size() - reserved_ : 0;
  }

 protected:
  struct Waiter {
    std::coroutine_handle<> handle;
    bool woken = false;
    bool resumed = false;
    bool orphaned = false;  ///< the queue died while this waiter slept
  };

  /// Wake one suspended consumer (if any) and reserve an item for it.
  void wake_one() {
    if (waiters_.empty()) return;
    Waiter* w = waiters_.front();
    waiters_.pop_front();
    w->woken = true;
    woken_.push_back(w);
    ++reserved_;
    sim_->resume_soon(w->handle);
  }

  static void unlink(std::deque<Waiter*>& list, Waiter* w) {
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (*it == w) {
        list.erase(it);
        return;
      }
    }
  }

  /// Called at a woken consumer's resume to release its reservation.
  void on_waiter_resumed(Waiter* w) {
    w->resumed = true;
    --reserved_;
    unlink(woken_, w);
  }

  /// Called from ~PopAwaiter to release bookkeeping on cancellation.
  void on_waiter_destroyed(Waiter* w) {
    if (!w->handle) return;
    if (w->woken && !w->resumed) {
      --reserved_;  // reservation abandoned
      unlink(woken_, w);
    } else if (!w->woken) {
      unlink(waiters_, w);
    }
  }

  Simulator* sim_;
  Container items_;
  std::deque<Waiter*> waiters_;
  std::deque<Waiter*> woken_;  ///< woken but not yet resumed/destroyed
  std::size_t reserved_ = 0;
};

/// Adapts a std::priority_queue-style "ranks below" comparator to the
/// heap's "pops first" order.
template <typename T, typename Compare>
struct PopsFirst {
  bool operator()(const T& a, const T& b) const { return Compare{}(b, a); }
};

}  // namespace detail

/// Unbounded FIFO channel.
template <typename T>
class Queue : public detail::QueueBase<std::deque<T>> {
  using Base = detail::QueueBase<std::deque<T>>;

 public:
  using Base::Base;

  void push(T value) {
    this->items_.push_back(std::move(value));
    this->wake_one();
  }

  /// Awaitable pop; resumes with the front element once available.
  auto pop() { return PopAwaiter{this}; }

  /// Non-blocking pop of an unreserved item.
  std::optional<T> try_pop() {
    if (this->available() == 0) return std::nullopt;
    T v = std::move(this->items_.front());
    this->items_.pop_front();
    return v;
  }

 private:
  struct PopAwaiter : Base::Waiter {
    Queue* q;
    explicit PopAwaiter(Queue* queue) : q(queue) {}
    ~PopAwaiter() {
      if (!this->orphaned) q->on_waiter_destroyed(this);
    }
    bool await_ready() {
      // Fast path only if no consumer is queued or pending wakeup.
      return q->waiters_.empty() && q->available() > 0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      q->waiters_.push_back(this);
    }
    T await_resume() {
      if (this->woken) q->on_waiter_resumed(this);
      if (q->items_.empty()) {
        throw std::logic_error("Queue::pop resumed with no item");
      }
      T v = std::move(q->items_.front());
      q->items_.pop_front();
      return v;
    }
  };
};

/// Unbounded priority channel. `Compare` follows std::priority_queue
/// convention: comp(a, b) == true means a ranks below b. With a strict
/// total order (e.g. priority, then a unique seq) the pop order is exactly
/// std::priority_queue's. Pops move the element out, so T may be move-only.
template <typename T, typename Compare>
class PriorityQueue
    : public detail::QueueBase<
          detail::QuadHeap<T, detail::PopsFirst<T, Compare>>> {
  using Base = detail::QueueBase<
      detail::QuadHeap<T, detail::PopsFirst<T, Compare>>>;

 public:
  using Base::Base;

  void push(T value) {
    this->items_.push(std::move(value));
    this->wake_one();
  }

  auto pop() { return PopAwaiter{this}; }

  std::optional<T> try_pop() {
    if (this->available() == 0) return std::nullopt;
    return this->items_.pop();
  }

 private:
  struct PopAwaiter : Base::Waiter {
    PriorityQueue* q;
    explicit PopAwaiter(PriorityQueue* queue) : q(queue) {}
    ~PopAwaiter() {
      if (!this->orphaned) q->on_waiter_destroyed(this);
    }
    bool await_ready() { return q->waiters_.empty() && q->available() > 0; }
    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      q->waiters_.push_back(this);
    }
    T await_resume() {
      if (this->woken) q->on_waiter_resumed(this);
      if (q->items_.empty()) {
        throw std::logic_error("PriorityQueue::pop resumed with no item");
      }
      return q->items_.pop();
    }
  };
};

}  // namespace p3::sim
