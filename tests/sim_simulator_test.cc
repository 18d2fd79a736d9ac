#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace p3::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-0.1, [] {}), std::invalid_argument);
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  bool ran = false;
  sim.schedule_at(1.0, [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule(0.5, recurse);
  };
  sim.schedule(0.5, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 50.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(static_cast<double>(i), [&] { ++count; });
  }
  sim.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(7.5);
  EXPECT_DOUBLE_EQ(sim.now(), 7.5);
}

TEST(Simulator, RunWhilePredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(static_cast<double>(i), [&] { ++count; });
  }
  EXPECT_TRUE(sim.run_while([&] { return count >= 3; }));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(sim.run_while([] { return false; }));  // queue drains
  EXPECT_EQ(count, 10);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// --- batched same-time dispatch regressions ---

TEST(Simulator, RunUntilRunsTheWholeTieTimeBatchAtTheBoundary) {
  Simulator sim;
  int at_five = 0;
  int after = 0;
  for (int i = 0; i < 4; ++i) sim.schedule(5.0, [&] { ++at_five; });
  sim.schedule(5.0, [&] {
    ++at_five;
    // Zero-delay event scheduled from inside the boundary batch: it is
    // part of time 5.0 and must also run before run_until returns.
    sim.schedule(0.0, [&] { ++at_five; });
  });
  sim.schedule(5.0 + 1e-9, [&] { ++after; });
  sim.run_until(5.0);
  EXPECT_EQ(at_five, 6);
  EXPECT_EQ(after, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(after, 1);
}

TEST(Simulator, CountsEventsAppendedToAnOpenBatch) {
  Simulator sim;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(1.0, [&] { sim.schedule(0.0, [] {}); });
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 6u);
}

TEST(Simulator, ZeroDelayChainsPreserveFifoOrderUnderStress) {
  // 10k zero-delay events at the same timestamp, half scheduled up front
  // and half appended from inside the running batch; (time, seq) order
  // means strict FIFO either way.
  Simulator sim;
  std::vector<int> order;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    sim.schedule(0.0, [&order, &sim, i] {
      order.push_back(i);
      sim.schedule(0.0, [&order, i] { order.push_back(kN + i); });
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 2u * kN);
  for (int i = 0; i < 2 * kN; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.events_executed(), 2u * kN);
}

TEST(Simulator, ScheduleAtPastDuringDispatchRunsAfterQueuedTies) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] {
    order.push_back(0);
    sim.schedule_at(1.0, [&] { order.push_back(2); });  // past -> now, FIFO
  });
  sim.schedule(2.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, ThrowingEventLeavesRemainingBatchRunnable) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1.0, [&] { ++ran; });
  sim.schedule(1.0, [] { throw std::runtime_error("boom"); });
  sim.schedule(1.0, [&] { ++ran; });
  sim.schedule(2.0, [&] { ++ran; });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(ran, 1);       // only the event before the throw ran
  EXPECT_FALSE(sim.idle());
  sim.run();               // the re-queued remainder is still runnable
  EXPECT_EQ(ran, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, RunWhileStopsMidBatchAndResumesInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 1; i <= 4; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.schedule(2.0, [&order] { order.push_back(5); });
  EXPECT_TRUE(sim.run_while([&] { return order.size() >= 2; }));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(sim.idle());
  sim.run();  // the unrun rest of the t=1 batch, then t=2
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, RunWhileStopsBeforeZeroDelayEventsAppendedToTheBatch) {
  // Events appended to the open batch are part of its unrun rest too.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] {
    order.push_back(0);
    sim.schedule(0.0, [&] { order.push_back(2); });
  });
  sim.schedule(1.0, [&] { order.push_back(1); });
  EXPECT_TRUE(sim.run_while([&] { return order.size() == 2; }));
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, RunWhileReapsFinishedTasksWhenTheQueueDrains) {
  Simulator sim;
  // The coroutine frame holds a copy of `token` until the frame is freed.
  auto token = std::make_shared<int>(0);
  sim.spawn([](Simulator& s, std::shared_ptr<int>) -> Task {
    co_await s.sleep(1.0);
  }(sim, token));
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_FALSE(sim.run_while([] { return false; }));
  EXPECT_EQ(token.use_count(), 1);  // the finished frame was reaped
}

TEST(Simulator, ThrowInsideRunWhileLeavesRemainingBatchRunnable) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1.0, [&] { ++ran; });
  sim.schedule(1.0, [] { throw std::runtime_error("boom"); });
  sim.schedule(1.0, [&] { ++ran; });
  sim.schedule(2.0, [&] { ++ran; });
  EXPECT_THROW(sim.run_while([] { return false; }), std::runtime_error);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sim.idle());
  EXPECT_FALSE(sim.run_while([] { return false; }));
  EXPECT_EQ(ran, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, LargeCallbacksFallBackToTheHeapCorrectly) {
  // A capture bigger than EventFn's inline buffer must still run correctly
  // (boxed path) and in order with inline-stored neighbours.
  Simulator sim;
  std::vector<int> order;
  struct Big {
    double pad[12];  // 96 bytes > kInlineBytes
    std::vector<int>* order;
    void operator()() const { order->push_back(1); }
  };
  sim.schedule(1.0, [&] { order.push_back(0); });
  sim.schedule(1.0, Big{{}, &order});
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- cancellable timers ---

TEST(SimulatorTimer, CancelledTimerNeverRunsAndIsNotCounted) {
  Simulator sim;
  int ran = 0;
  const TimerId t = sim.schedule_timer(1.0, [&] { ran += 10; });
  sim.schedule_timer(2.0, [&] { ++ran; });
  sim.schedule(3.0, [&] { ++ran; });
  EXPECT_TRUE(sim.pending(t));
  EXPECT_EQ(sim.pending_timers(), 2u);
  EXPECT_TRUE(sim.cancel(t));
  EXPECT_FALSE(sim.pending(t));
  EXPECT_FALSE(sim.cancel(t));  // already cancelled
  EXPECT_EQ(sim.pending_timers(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending_timers(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTimer, TimersAndEventsAtEqualTimesRunInScheduleOrder) {
  // Timers sit in their own heap; the batch merge must interleave them with
  // plain events by seq exactly as one heap would, including zero-delay
  // timers scheduled from inside the open batch.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(0); });
  sim.schedule_timer(1.0, [&] { order.push_back(1); });
  sim.schedule_timer(1.0, [&] {
    order.push_back(2);
    sim.schedule_timer(0.0, [&] { order.push_back(6); });
    sim.schedule(0.0, [&] { order.push_back(7); });
  });
  sim.schedule(1.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(4); });
  sim.schedule_timer(1.0, [&] { order.push_back(5); });
  sim.schedule_timer(0.5, [&] { order.push_back(-1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.events_executed(), 9u);
}

TEST(SimulatorTimer, SameTimeEventCancelsALaterTimerInTheOpenBatch) {
  Simulator sim;
  std::vector<int> order;
  TimerId victim;
  sim.schedule(1.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.cancel(victim));
    EXPECT_FALSE(sim.cancel(victim));
  });
  victim = sim.schedule_timer(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending_timers(), 0u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTimer, CancelAfterFireOrOfAReusedSlotReturnsFalse) {
  Simulator sim;
  bool cancelled_self = true;
  TimerId first;
  first = sim.schedule_timer(1.0, [&] { cancelled_self = sim.cancel(first); });
  sim.run();
  EXPECT_FALSE(cancelled_self);  // a running timer has already fired
  EXPECT_FALSE(sim.cancel(first));
  // The freed record is reused by the next timer; the old id must not reach
  // the new timer.
  int ran = 0;
  const TimerId second = sim.schedule_timer(1.0, [&] { ++ran; });
  EXPECT_EQ(second.index, first.index);
  EXPECT_NE(second.gen, first.gen);
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_TRUE(sim.pending(second));
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sim.cancel(TimerId{}));  // names no timer
}

TEST(SimulatorTimer, CancellingEveryPendingTimerLeavesTheSimulatorIdle) {
  Simulator sim;
  std::vector<TimerId> ids;
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_timer(0.01 * (i % 7), [&] { ++ran; }));
  }
  EXPECT_FALSE(sim.idle());
  // Cancel from the middle outwards so erase() hits interior heap slots.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>((i * 37) % 100)]));
  }
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending_timers(), 0u);
  sim.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(SimulatorTimer, TimerCancelledInsideRunWhileStaysCancelledAfterStop) {
  // The cancel marks an entry of the open batch; the predicate then stops
  // the batch before that entry and puts the rest back on the heaps. The
  // cancelled timer must not come back.
  Simulator sim;
  std::vector<int> order;
  TimerId victim;
  sim.schedule(1.0, [&] {
    order.push_back(0);
    sim.cancel(victim);
  });
  sim.schedule(1.0, [&] { order.push_back(1); });
  victim = sim.schedule_timer(1.0, [&] { order.push_back(2); });
  sim.schedule_timer(1.0, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.run_while([&] { return !order.empty(); }));
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_FALSE(sim.pending(victim));
  EXPECT_EQ(sim.pending_timers(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTimer, ThrowingEventPutsUnrunTimersBackInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [] { throw std::runtime_error("boom"); });
  sim.schedule_timer(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  const TimerId late = sim.schedule_timer(2.0, [&] { order.push_back(3); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_TRUE(sim.pending(late));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTimer, RandomCancelsMatchAOneHeapReference) {
  // 5k seeded timers and events at coarse times (many ties), a third of the
  // timers cancelled at random moments: the run order must equal the
  // schedule order sorted by (time, seq) minus the cancelled timers.
  Simulator sim;
  std::uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  struct Planned {
    TimeS t;
    int seq;
    bool timer;
    TimerId id;
    bool cancelled = false;
  };
  std::vector<Planned> plan;
  std::vector<int> ran;
  for (int i = 0; i < 5000; ++i) {
    const TimeS t = static_cast<double>(next() % 50);
    const bool timer = next() % 2 == 0;
    Planned p{t, i, timer, {}};
    if (timer) {
      p.id = sim.schedule_timer(t, [&ran, i] { ran.push_back(i); });
    } else {
      sim.schedule(t, [&ran, i] { ran.push_back(i); });
    }
    plan.push_back(p);
    if (next() % 3 == 0) {
      Planned& victim = plan[next() % plan.size()];
      if (victim.timer && !victim.cancelled) {
        EXPECT_TRUE(sim.cancel(victim.id));
        victim.cancelled = true;
      }
    }
  }
  std::vector<Planned> expected = plan;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Planned& a, const Planned& b) { return a.t < b.t; });
  std::vector<int> want;
  for (const Planned& p : expected) {
    if (!p.cancelled) want.push_back(p.seq);
  }
  sim.run();
  EXPECT_EQ(ran, want);
  EXPECT_EQ(sim.events_executed(), want.size());
}

// --- coroutine task tests ---

Task sleeper(Simulator& sim, TimeS dt, std::vector<TimeS>& wakeups) {
  co_await sim.sleep(dt);
  wakeups.push_back(sim.now());
}

TEST(SimulatorTask, SleepResumesAtRightTime) {
  Simulator sim;
  std::vector<TimeS> wakeups;
  sim.spawn(sleeper(sim, 2.5, wakeups));
  sim.run();
  ASSERT_EQ(wakeups.size(), 1u);
  EXPECT_DOUBLE_EQ(wakeups[0], 2.5);
}

Task multi_sleep(Simulator& sim, std::vector<TimeS>& trace) {
  for (int i = 0; i < 4; ++i) {
    co_await sim.sleep(1.0);
    trace.push_back(sim.now());
  }
}

TEST(SimulatorTask, SequentialSleepsAccumulate) {
  Simulator sim;
  std::vector<TimeS> trace;
  sim.spawn(multi_sleep(sim, trace));
  sim.run();
  EXPECT_EQ(trace, (std::vector<TimeS>{1.0, 2.0, 3.0, 4.0}));
}

TEST(SimulatorTask, ZeroSleepYields) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(0.0, [&] { order.push_back(1); });
  sim.spawn([](Simulator& s, std::vector<int>& ord) -> Task {
    ord.push_back(0);  // runs eagerly on spawn
    co_await s.sleep(0.0);
    ord.push_back(2);  // resumes after already-queued same-time event
  }(sim, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

Task thrower(Simulator& sim) {
  co_await sim.sleep(1.0);
  throw std::runtime_error("task failure");
}

TEST(SimulatorTask, ExceptionPropagatesOutOfRun) {
  Simulator sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulatorTask, BlockedTasksAreReclaimedAtTeardown) {
  // A task suspended forever must not leak (checked under ASan builds);
  // here we just ensure destruction is safe.
  auto sim = std::make_unique<Simulator>();
  sim->spawn([](Simulator& s) -> Task {
    co_await s.sleep(1e9);  // never reached within the run window
  }(*sim));
  sim->run_until(1.0);
  sim.reset();  // must not crash
  SUCCEED();
}

TEST(SimulatorTask, ManyTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task {
      co_await s.sleep(1.0 + (id % 5) * 0.25);
      ord.push_back(id);
    }(sim, order, i));
  }
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  // Same delay => spawn order preserved; groups ordered by delay.
  std::vector<int> expected;
  for (int d = 0; d < 5; ++d) {
    for (int i = 0; i < 50; ++i) {
      if (i % 5 == d) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace p3::sim
