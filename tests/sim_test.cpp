#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.h"
#include "sim/timer.h"

namespace ezflow::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero)
{
    Scheduler s;
    EXPECT_EQ(s.now(), 0);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder)
{
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(30, [&] { order.push_back(3); });
    s.schedule_at(10, [&] { order.push_back(1); });
    s.schedule_at(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, SameTimeEventsFifo)
{
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) s.schedule_at(5, [&order, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// The FIFO tie-break must survive slot recycling: cancelling events hands
// their arena slots back, and same-time events scheduled afterwards reuse
// those slots — their firing order is still scheduling order, not slot
// order.
TEST(Scheduler, SameTimeFifoUnderInterleavedScheduleCancel)
{
    Scheduler s;
    std::vector<int> order;
    std::vector<EventId> doomed;
    for (int round = 0; round < 8; ++round) {
        // Two keepers and one cancelled event per round, all at t = 100.
        order.reserve(16);
        s.schedule_at(100, [&order, round] { order.push_back(2 * round); });
        doomed.push_back(s.schedule_at(100, [&order] { order.push_back(-1); }));
        s.schedule_at(100, [&order, round] { order.push_back(2 * round + 1); });
        EXPECT_TRUE(s.cancel(doomed.back()));
    }
    s.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleInIsRelative)
{
    Scheduler s;
    SimTime fired_at = -1;
    s.schedule_at(100, [&] { s.schedule_in(50, [&] { fired_at = s.now(); }); });
    s.run();
    EXPECT_EQ(fired_at, 150);
}

TEST(Scheduler, RejectsPastAndNegative)
{
    Scheduler s;
    s.schedule_at(10, [] {});
    s.run();
    EXPECT_THROW(s.schedule_at(5, [] {}), std::invalid_argument);
    EXPECT_THROW(s.schedule_in(-1, [] {}), std::invalid_argument);
}

TEST(Scheduler, RejectsEmptyAction)
{
    Scheduler s;
    EXPECT_THROW(s.schedule_at(1, EventFn{}), std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution)
{
    Scheduler s;
    bool fired = false;
    const EventId id = s.schedule_at(10, [&] { fired = true; });
    EXPECT_TRUE(s.cancel(id));
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelTwiceReturnsFalse)
{
    Scheduler s;
    const EventId id = s.schedule_at(10, [] {});
    EXPECT_TRUE(s.cancel(id));
    EXPECT_FALSE(s.cancel(id));
}

// An id whose event already ran must never cancel anything — even though
// the arena slot behind it may have been recycled for a newer event.
TEST(Scheduler, CancelAfterFireReturnsFalse)
{
    Scheduler s;
    const EventId id = s.schedule_at(10, [] {});
    s.run();
    EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, StaleIdCannotCancelSlotReuser)
{
    Scheduler s;
    const EventId first = s.schedule_at(10, [] {});
    s.run();  // fires; slot goes back to the free list

    bool second_fired = false;
    const EventId second = s.schedule_at(20, [&] { second_fired = true; });
    // The arena recycled the slot; only the generation differs.
    EXPECT_EQ(first.slot, second.slot);
    EXPECT_NE(first.gen, second.gen);

    EXPECT_FALSE(s.cancel(first));  // stale handle must not hit the new event
    s.run();
    EXPECT_TRUE(second_fired);
}

TEST(Scheduler, CancelInvalidIdReturnsFalse)
{
    Scheduler s;
    EXPECT_FALSE(s.cancel(EventId{}));
    EXPECT_FALSE(s.cancel(EventId{12345, 1}));  // slot never allocated
}

TEST(Scheduler, ArenaRecyclesSlots)
{
    Scheduler s;
    // Sequential schedule/fire churn touches one slot over and over.
    for (int i = 1; i <= 1000; ++i) {
        s.schedule_at(i, [] {});
        s.run();
    }
    EXPECT_EQ(s.arena_slots(), 1u);
    EXPECT_EQ(s.processed(), 1000u);
}

// Sustained cancel churn (the MAC arms and cancels an ACK timeout per
// frame) must not accumulate tombstones: the heap compacts itself and
// stays proportional to the live event count.
TEST(Scheduler, CancelChurnDoesNotGrowHeap)
{
    Scheduler s;
    s.schedule_at(1'000'000, [] {});  // one long-lived event
    for (int i = 0; i < 100000; ++i) {
        const EventId id = s.schedule_in(500, [] {});
        EXPECT_TRUE(s.cancel(id));
    }
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_LE(s.heap_records(), 130u);  // compaction threshold, not O(cancels)
    EXPECT_LE(s.arena_slots(), 2u);
    s.run();
    EXPECT_EQ(s.processed(), 1u);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock)
{
    Scheduler s;
    std::vector<SimTime> fired;
    s.schedule_at(10, [&] { fired.push_back(10); });
    s.schedule_at(20, [&] { fired.push_back(20); });
    s.schedule_at(30, [&] { fired.push_back(30); });
    s.run_until(20);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
    EXPECT_EQ(s.now(), 20);
    s.run_until(100);
    EXPECT_EQ(fired.size(), 3u);
    EXPECT_EQ(s.now(), 100);  // clock reaches the horizon even when idle
}

TEST(Scheduler, RunUntilRejectsPast)
{
    Scheduler s;
    s.schedule_at(50, [] {});
    s.run_until(50);
    EXPECT_THROW(s.run_until(10), std::invalid_argument);
}

// Cancelled events whose timestamps lie beyond the run_until horizon must
// not pin their tombstones: pending() reflects only live events and a
// later run_until does not fire them.
TEST(Scheduler, RunUntilWithCancelledEventsBeyondHorizon)
{
    Scheduler s;
    bool fired = false;
    const EventId id = s.schedule_at(1000, [&] { fired = true; });
    s.schedule_at(10, [] {});
    s.run_until(100);
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_TRUE(s.cancel(id));
    EXPECT_EQ(s.pending(), 0u);
    s.run_until(2000);
    EXPECT_FALSE(fired);
    EXPECT_EQ(s.now(), 2000);
}

TEST(Scheduler, StopHaltsProcessing)
{
    Scheduler s;
    int count = 0;
    for (int i = 1; i <= 10; ++i) {
        s.schedule_at(i, [&] {
            ++count;
            if (count == 3) s.stop();
        });
    }
    s.run();
    EXPECT_EQ(count, 3);
    EXPECT_EQ(s.pending(), 7u);
}

TEST(Scheduler, HandlerCanScheduleMoreEvents)
{
    Scheduler s;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100) s.schedule_in(1, chain);
    };
    s.schedule_at(0, chain);
    s.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(s.now(), 99);
}

TEST(Scheduler, PendingAndProcessedCounters)
{
    Scheduler s;
    s.schedule_at(1, [] {});
    s.schedule_at(2, [] {});
    const EventId id = s.schedule_at(3, [] {});
    EXPECT_EQ(s.pending(), 3u);
    s.cancel(id);
    EXPECT_EQ(s.pending(), 2u);
    s.run();
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.processed(), 2u);
}

TEST(Scheduler, ManyEventsStress)
{
    Scheduler s;
    std::int64_t sum = 0;
    for (int i = 0; i < 100000; ++i) s.schedule_at(i % 997, [&] { ++sum; });
    s.run();
    EXPECT_EQ(sum, 100000);
}

TEST(Scheduler, CancellationInsideHandler)
{
    Scheduler s;
    bool second_fired = false;
    EventId second{};
    second = s.schedule_at(10, [&] { second_fired = true; });
    s.schedule_at(5, [&] { EXPECT_TRUE(s.cancel(second)); });
    s.run();
    EXPECT_FALSE(second_fired);
}

TEST(Scheduler, ReserveConsumesOneSequenceNumber)
{
    Scheduler s;
    s.schedule_at(10, [] {});
    s.run_until(5);
    const std::uint64_t before = s.next_event_seq();
    const Scheduler::Reservation place = s.reserve();
    EXPECT_EQ(place.seq, before);
    EXPECT_EQ(place.scheduled_at, 5);
    EXPECT_EQ(s.next_event_seq(), before + 1);
    EXPECT_EQ(s.pending(), 1u);  // a reservation schedules nothing
}

// A place reserved between two same-instant events and filled later, from
// a different instant, fires between them and reports the reservation as
// its scheduling point.
TEST(Scheduler, LateReservedEventFiresInItsPlace)
{
    Scheduler s;
    std::vector<char> order;
    Scheduler::Reservation place;
    SimTime reported_scheduled_at = -2;
    std::uint64_t reported_seq = 0;
    s.schedule_at(3, [&] {
        s.schedule_at(10, [&] { order.push_back('a'); });
        place = s.reserve();
        s.schedule_at(10, [&] { order.push_back('b'); });
    });
    s.schedule_at(7, [&] {
        s.schedule_reserved(10, place, [&] {
            order.push_back('r');
            reported_scheduled_at = s.current_event_scheduled_at();
            reported_seq = s.current_event_seq();
        });
    });
    s.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'r', 'b'}));
    EXPECT_EQ(reported_scheduled_at, 3);
    EXPECT_EQ(reported_seq, place.seq);
}

TEST(Scheduler, ScheduleReservedRejectsBadPlaces)
{
    Scheduler s;
    const Scheduler::Reservation early = s.reserve();
    EXPECT_THROW(s.schedule_reserved(5, early, EventFn{}), std::invalid_argument);
    // Outside an event every place at now() has passed.
    EXPECT_THROW(s.schedule_reserved(0, early, [] {}), std::invalid_argument);
    // A place reserve() never issued.
    const Scheduler::Reservation forged{s.next_event_seq(), 0};
    EXPECT_THROW(s.schedule_reserved(5, forged, [] {}), std::invalid_argument);

    bool checked = false;
    bool same_instant_fired = false;
    s.schedule_at(10, [&] {
        // Past instant, and this instant behind the running event.
        EXPECT_THROW(s.schedule_reserved(9, early, [] {}), std::invalid_argument);
        EXPECT_THROW(s.schedule_reserved(10, early, [] {}), std::invalid_argument);
        // A place reserved by the running event is still ahead of it.
        const Scheduler::Reservation ahead = s.reserve();
        s.schedule_reserved(10, ahead, [&] { same_instant_fired = true; });
        checked = true;
    });
    s.run();
    EXPECT_TRUE(checked);
    EXPECT_TRUE(same_instant_fired);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(EventFn, SmallCapturesStayInline)
{
    int hits = 0;
    int* p = &hits;
    EventFn fn([p] { ++*p; });
    EXPECT_TRUE(fn.is_inline());
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(EventFn, LargeCapturesFallBackToHeap)
{
    struct Big {
        double payload[40];
    };
    Big big{};
    big.payload[0] = 1.5;
    double seen = 0.0;
    EventFn fn([big, &seen] { seen = big.payload[0]; });
    EXPECT_FALSE(fn.is_inline());
    fn();
    EXPECT_EQ(seen, 1.5);
}

TEST(EventFn, MoveTransfersOwnership)
{
    int hits = 0;
    EventFn a([&] { ++hits; });
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
    // Move a heap-stored callable too.
    auto owned = std::make_unique<int>(7);
    int seen = 0;
    struct Pad {
        double fill[32];
    };
    Pad pad{};
    EventFn c([&seen, pad, ptr = std::move(owned)] {
        (void)pad;
        seen = *ptr;
    });
    EXPECT_FALSE(c.is_inline());
    EventFn d(std::move(c));
    d();
    EXPECT_EQ(seen, 7);
}

/// A Timer's owner, as the MAC and the pacer are: the timer calls back
/// into a member function, which runs whatever the test put in `on_fire`.
struct TimerOwner {
    explicit TimerOwner(Scheduler& s) : timer(Timer::bind<&TimerOwner::fire>(s, *this)) {}
    void fire() { on_fire(); }

    std::function<void()> on_fire = [] {};
    Timer timer;
};

TEST(Timer, FiresOnceAndCanRearm)
{
    Scheduler s;
    int fired = 0;
    TimerOwner owner(s);
    owner.on_fire = [&] { ++fired; };
    Timer& t = owner.timer;
    t.arm_in(10);
    EXPECT_TRUE(t.armed());
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.armed());
    t.arm_in(5);
    s.run();
    EXPECT_EQ(fired, 2);
}

TEST(Timer, RearmReplacesPendingExpiry)
{
    Scheduler s;
    std::vector<SimTime> fire_times;
    TimerOwner owner(s);
    owner.on_fire = [&] { fire_times.push_back(s.now()); };
    Timer& t = owner.timer;
    t.arm_at(10);
    t.arm_at(25);  // supersedes the first arm
    s.run();
    EXPECT_EQ(fire_times, (std::vector<SimTime>{25}));
}

TEST(Timer, CancelReportsWhetherPending)
{
    Scheduler s;
    TimerOwner owner(s);
    Timer& t = owner.timer;
    EXPECT_FALSE(t.cancel());
    t.arm_in(10);
    EXPECT_TRUE(t.cancel());
    EXPECT_FALSE(t.armed());
    s.run();
    EXPECT_EQ(s.processed(), 0u);
}

TEST(Timer, CallbackMayRearmItself)
{
    Scheduler s;
    int ticks = 0;
    TimerOwner owner(s);
    owner.on_fire = [&] {
        if (++ticks < 5) owner.timer.arm_in(10);
    };
    owner.timer.arm_in(10);
    s.run();
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(s.now(), 50);
}

}  // namespace
}  // namespace ezflow::sim
