// Deterministic discrete-event simulator.
//
// Events are (time, sequence) ordered: ties in time run in scheduling order,
// which makes every experiment bit-reproducible. Coroutine processes
// (`sim::Task`) are spawned onto the simulator and suspend via awaitables
// (`sleep`, and the synchronization primitives in sync.h / queue.h).
//
// Hot-path design (the simulator is itself a measured artifact, see
// bench/perf_smoke and BENCH_perf.json):
//   * callbacks are `EventFn` — small-buffer-optimized with a dedicated
//     coroutine-handle representation, so steady-state scheduling does no
//     heap allocation (see event.h);
//   * the priority queue is the 4-ary `detail::QuadHeap` (heap.h, the same
//     heap PriorityQueue uses) over 24-byte POD entries (time, seq, slot);
//     the callback itself sits in a recycled slab and never moves during
//     heap sifts, so each event costs exactly two EventFn moves (in and out)
//     however deep the queue gets;
//   * every drive loop (`run`, `run_until`, `run_while`) dispatches
//     same-time events as one batch: zero-delay events scheduled *during*
//     the batch (queue wakeups, resume_soon — the dominant pattern) append
//     straight to the batch and never touch the heap. FIFO tie order is
//     preserved because an appended event's sequence number exceeds every
//     event already in the batch, and the heap holds no events at the batch
//     time while one is open. A loop that stops mid-batch (a `run_while`
//     predicate, a throwing event) puts the unrun rest back on the heap;
//   * cancellable timers (`schedule_timer` / `cancel`) live in a second,
//     indexed QuadHeap that records each entry's position, so a cancel
//     removes the entry in O(log n) instead of leaving a no-op to be popped
//     later (a retransmit timer whose message was acked). A timer draws its
//     seq from the same counter as every event, and the batch builder merges
//     the two heaps by (time, seq): a timer runs exactly where a plain event
//     scheduled at the same moment would. A timer cancelled after it joined
//     the open batch is skipped there and never counted as executed.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/event.h"
#include "sim/heap.h"
#include "sim/task.h"

namespace p3::sim {

/// Handle of a cancellable timer (Simulator::schedule_timer). The generation
/// tells a live timer from a fired, cancelled or reused one; a
/// default-constructed id names no timer.
struct TimerId {
  std::uint32_t index = UINT32_MAX;
  std::uint32_t gen = 0;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  TimeS now() const { return now_; }

  /// Schedule `fn` to run `dt` seconds from now (dt >= 0). The callable is
  /// constructed directly into its slab slot — no temporary EventFn.
  template <typename F>
  void schedule(TimeS dt, F&& fn) {
    if (dt < 0.0) throw std::invalid_argument("negative event delay");
    const std::uint32_t slot = acquire_slot();
    slots_[slot] = std::forward<F>(fn);
    enqueue(now_ + dt, slot);
  }

  /// Schedule `fn` at absolute time `t`; a past `t` clamps to now() (the
  /// event runs after already-queued same-time events, in FIFO tie order).
  template <typename F>
  void schedule_at(TimeS t, F&& fn) {
    schedule(t > now_ ? t - now_ : 0.0, std::forward<F>(fn));
  }

  /// Schedule `fn` as a cancellable timer `dt` seconds from now (dt >= 0).
  /// It runs in the same (time, seq) order a schedule() call made here
  /// would give it.
  template <typename F>
  TimerId schedule_timer(TimeS dt, F&& fn) {
    if (dt < 0.0) throw std::invalid_argument("negative timer delay");
    const std::uint32_t slot = acquire_slot();
    slots_[slot] = std::forward<F>(fn);
    return enqueue_timer(now_ + dt, slot);
  }

  /// Cancel a pending timer: it will never run and is not counted in
  /// events_executed(). Works on a timer already in the open same-time
  /// batch. Returns false if `id` has fired, was cancelled, or names no
  /// timer.
  bool cancel(TimerId id);

  /// True while the timer `id` is scheduled and not cancelled.
  bool pending(TimerId id) const {
    return id.index < timers_.size() && timers_[id.index].gen == id.gen &&
           timers_[id.index].pos < kCancelled;
  }

  /// Number of timers scheduled and neither fired nor cancelled.
  std::size_t pending_timers() const { return live_timers_; }

  /// Fast path: resume coroutine `h` after `dt` seconds.
  void schedule_resume(TimeS dt, std::coroutine_handle<> h) {
    schedule(dt, h);
  }

  /// Adopt and start a coroutine process.
  void spawn(Task task);

  /// Run until the event queue drains.
  void run();

  /// Run until the queue drains or simulated time reaches `t`.
  /// Events at exactly `t` run (the whole tie-time batch); events after `t`
  /// stay queued. Returns the final simulated time.
  TimeS run_until(TimeS t);

  /// Run until `done` returns true (checked before the first event and
  /// after every event) or the queue drains. Returns true if the predicate
  /// fired. Same-time events still run as one batch; a stop mid-batch
  /// leaves the rest queued in order.
  bool run_while(const std::function<bool()>& done);

  /// Number of events executed so far (each batched event counts once).
  std::uint64_t events_executed() const { return executed_; }

  /// True if no events are pending.
  bool idle() const {
    return heap_.empty() && timer_heap_.empty() && !dispatching_;
  }

  /// Awaitable: suspend the current task for `dt` simulated seconds.
  /// A zero delay still yields to other events scheduled at the same time.
  auto sleep(TimeS dt) {
    struct Awaiter {
      Simulator* sim;
      TimeS dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_resume(dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: suspend until absolute time `t` (immediately reschedules if
  /// `t` is in the past).
  auto sleep_until(TimeS t) { return sleep(t > now_ ? t - now_ : 0.0); }

  /// Resume `h` at current time, after already-queued same-time events.
  void resume_soon(std::coroutine_handle<> h) { schedule_resume(0.0, h); }

 private:
  static constexpr std::uint32_t kNoTimer = UINT32_MAX;
  /// TimerRec::pos values past any heap index.
  static constexpr std::uint32_t kInBatch = UINT32_MAX - 2;
  static constexpr std::uint32_t kCancelled = UINT32_MAX - 1;  ///< in batch
  static constexpr std::uint32_t kFree = UINT32_MAX;

  /// Heap entry: trivially copyable so sift moves compile to plain stores.
  /// `slot` indexes the callback slab; `timer` indexes timers_ (kNoTimer
  /// for a plain event).
  struct Entry {
    TimeS time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t timer;
  };
  /// Strict total order on events: (time, seq) — seq values are unique.
  struct Before {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };
  /// A timer's record: its generation and where its entry is — a
  /// timer-heap index, kInBatch, kCancelled (still in the batch), or kFree.
  struct TimerRec {
    std::uint32_t gen = 0;
    std::uint32_t pos = kFree;
  };
  /// Keeps TimerRec::pos in step with the timer heap's sifts.
  struct TrackPos {
    std::vector<TimerRec>* timers;
    void operator()(const Entry& e, std::size_t i) const {
      (*timers)[e.timer].pos = static_cast<std::uint32_t>(i);
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Heap-or-batch insert of a parked callback (non-template backend of
  /// schedule()).
  void enqueue(TimeS t, std::uint32_t slot);
  TimerId enqueue_timer(TimeS t, std::uint32_t slot);
  void release_timer(std::uint32_t timer);
  /// Move every entry at time `t` from both heaps into batch_, in seq order.
  void open_batch(TimeS t);
  /// Run one batch entry; false if it was a cancelled timer (skipped).
  bool run_entry(const Entry& e);
  /// Close the open batch; entries from index `next` on were not run and
  /// go back on their heaps (cancelled timers are released instead).
  void close_batch(std::size_t next);
  /// The one drive loop: runs tie-time batches (FIFO by seq) while the
  /// earliest event is at or before `until`, checking `done` (if given)
  /// first and after every event. Reaps finished tasks on every normal
  /// return. Returns true if `done` fired.
  bool dispatch(TimeS until, const std::function<bool()>* done);
  void reap_tasks();

  TimeS now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  detail::QuadHeap<Entry, Before> heap_;  ///< plain events only
  std::vector<TimerRec> timers_;
  std::vector<std::uint32_t> free_timers_;  ///< recycled timers_ indices
  detail::QuadHeap<Entry, Before, TrackPos> timer_heap_{TrackPos{&timers_}};
  std::size_t live_timers_ = 0;
  std::vector<EventFn> slots_;            ///< parked callbacks
  std::vector<std::uint32_t> free_slots_; ///< recycled slab indices
  std::vector<Entry> batch_;  ///< reused dispatch buffer
  bool dispatching_ = false;  ///< a batch at time now_ is being run
  std::vector<Task::Handle> tasks_;
};

}  // namespace p3::sim
