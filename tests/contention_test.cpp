// Equivalence of the batched backoff (mac::ContentionCoordinator) against
// a per-slot reference: the pre-refactor DcfMac countdown, reimplemented
// here verbatim (one timer event per slot, decrement at each boundary,
// freeze on busy). Both run the same scripted busy/idle traces — including
// exact slot-boundary ties and hidden stations — and must produce
// identical transmission instants from identical Rng consumption.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mac/contention.h"
#include "sim/scheduler.h"
#include "sim/timer.h"
#include "util/rng.h"
#include "util/units.h"

namespace ezflow::mac {
namespace {

using util::SimTime;

constexpr SimTime kSlot = 20;
constexpr SimTime kDifs = 50;

struct TxRecord {
    SimTime at;
    int station;
    bool operator==(const TxRecord& o) const { return at == o.at && station == o.station; }
};

class StationBase;

/// Scripted medium with per-station carrier sense (a visibility matrix
/// stands in for geometry). Busy edges are delivered synchronously in
/// station-index order, mirroring Channel's attach-order listener loop.
class Medium {
public:
    void add_station(StationBase* station) { stations_.push_back(station); }

    /// One end of a busy period for the given stations (+1 start, -1 end).
    void adjust(const std::vector<int>& stations, int delta);

    bool busy_for(int station) const { return counts_[static_cast<std::size_t>(station)] > 0; }

private:
    std::vector<StationBase*> stations_;
    std::vector<int> counts_ = std::vector<int>(16, 0);
};

/// Common station plumbing: saturated source, fresh backoff draw per
/// transmission, fixed airtime, shared tx log.
class StationBase {
public:
    StationBase(int id, sim::Scheduler& scheduler, Medium& medium, std::uint64_t rng_seed, int cw,
                SimTime airtime, std::vector<int> visible_to, std::vector<TxRecord>& log)
        : id_(id),
          scheduler_(scheduler),
          medium_(medium),
          rng_(rng_seed),
          cw_(cw),
          airtime_(airtime),
          visible_to_(std::move(visible_to)),
          log_(log)
    {
        medium.add_station(this);
    }
    virtual ~StationBase() = default;

    /// Draw a fresh backoff and enter the access procedure.
    void start_contention()
    {
        remaining_ = rng_.uniform_int(0, cw_ - 1);
        resume();
    }

    virtual void medium_changed(bool busy) = 0;

    int id() const { return id_; }
    std::uint64_t draws() const { return draws_; }
    std::uint64_t rng_probe() { return rng_.next_u64(); }

protected:
    enum class State { kWaitIdle, kWaitDifs, kBackoff, kTx };

    void resume()
    {
        if (medium_.busy_for(id_)) {
            state_ = State::kWaitIdle;
            return;
        }
        start_difs();
    }

    virtual void start_difs() = 0;

    void transmit()
    {
        log_.push_back(TxRecord{scheduler_.now(), id_});
        state_ = State::kTx;
        medium_.adjust(visible_to_, +1);
        scheduler_.schedule_in(airtime_, [this] {
            medium_.adjust(visible_to_, -1);
            state_ = State::kWaitIdle;
            start_contention();
        });
    }

    int id_;
    sim::Scheduler& scheduler_;
    Medium& medium_;
    util::Rng rng_;
    int cw_;
    SimTime airtime_;
    std::vector<int> visible_to_;
    std::vector<TxRecord>& log_;
    State state_ = State::kWaitIdle;
    int remaining_ = 0;
    std::uint64_t draws_ = 0;
};

void Medium::adjust(const std::vector<int>& stations, int delta)
{
    for (int index : stations) {
        int& count = counts_[static_cast<std::size_t>(index)];
        const bool was_busy = count > 0;
        count += delta;
        const bool now_busy = count > 0;
        if (was_busy != now_busy && static_cast<std::size_t>(index) < stations_.size())
            stations_[static_cast<std::size_t>(index)]->medium_changed(now_busy);
    }
}

/// The pre-refactor countdown, one scheduler event per slot: DIFS timer,
/// then a slot timer that decrements at every boundary (first decrement
/// immediately at DIFS end) and freezes by cancelling the pending event.
class PerSlotStation final : public StationBase {
public:
    PerSlotStation(int id, sim::Scheduler& scheduler, Medium& medium, std::uint64_t rng_seed,
                   int cw, SimTime airtime, std::vector<int> visible_to,
                   std::vector<TxRecord>& log)
        : StationBase(id, scheduler, medium, rng_seed, cw, airtime, std::move(visible_to), log),
          difs_timer_(sim::Timer::bind<&PerSlotStation::on_difs>(scheduler, *this)),
          slot_timer_(sim::Timer::bind<&PerSlotStation::on_slot>(scheduler, *this))
    {
    }

    void medium_changed(bool busy) override
    {
        if (busy) {
            if (state_ == State::kWaitDifs || state_ == State::kBackoff) {
                difs_timer_.cancel();
                slot_timer_.cancel();
                state_ = State::kWaitIdle;
            }
            return;
        }
        if (state_ == State::kWaitIdle) start_difs();
    }

private:
    void start_difs() override
    {
        state_ = State::kWaitDifs;
        difs_timer_.arm_in(kDifs);
    }

    void on_difs()
    {
        state_ = State::kBackoff;
        on_slot();
    }

    void on_slot()
    {
        if (remaining_ == 0) {
            transmit();
            return;
        }
        --remaining_;
        slot_timer_.arm_in(kSlot);
    }

    sim::Timer difs_timer_;
    sim::Timer slot_timer_;
};

/// The coordinator's countdown: a single register_access covers the DIFS
/// wait and the backoff countdown, exactly as DcfMac wires it. There is no
/// DIFS timer at all — one scheduler insert per cycle.
class FusedStation final : public StationBase, public BackoffClient {
public:
    FusedStation(int id, sim::Scheduler& scheduler, Medium& medium,
                 ContentionCoordinator& coordinator, std::uint64_t rng_seed, int cw,
                 SimTime airtime, std::vector<int> visible_to, std::vector<TxRecord>& log)
        : StationBase(id, scheduler, medium, rng_seed, cw, airtime, std::move(visible_to), log),
          coordinator_(coordinator)
    {
    }

    ~FusedStation() override { coordinator_.unregister(*this); }

    void medium_changed(bool busy) override
    {
        if (busy) {
            if (state_ == State::kBackoff) {  // contending: DIFS + backoff fused
                remaining_ -= coordinator_.freeze(*this);
                state_ = State::kWaitIdle;
            }
            return;
        }
        if (state_ == State::kWaitIdle) start_difs();
    }

    void backoff_expired() override
    {
        remaining_ = 0;
        transmit();
    }

private:
    void start_difs() override
    {
        state_ = State::kBackoff;
        coordinator_.register_access(*this, kDifs, remaining_, kSlot);
    }

    ContentionCoordinator& coordinator_;
};

struct BusyInterval {
    SimTime start;
    SimTime end;
    bool late;  ///< start event scheduled SIFS-style, 10 us ahead
    std::vector<int> stations;
};

struct TraceSpec {
    std::vector<BusyInterval> intervals;
    std::vector<int> cw;                       ///< per station
    std::vector<SimTime> airtime;              ///< per station
    std::vector<std::vector<int>> visible_to;  ///< per station (includes self-free set)
    SimTime horizon = 0;
};

/// Randomized busy/idle script. Half the busy edges are forced onto
/// 20 us multiples so exact slot-boundary ties actually occur.
TraceSpec make_trace(std::uint64_t seed, int stations)
{
    util::Rng rng(seed);
    TraceSpec spec;
    spec.horizon = 200 * util::kMillisecond;
    const bool hidden = rng.bernoulli(0.5);
    for (int i = 0; i < stations; ++i) {
        const int exponent = rng.uniform_int(4, 9);
        spec.cw.push_back(1 << exponent);
        SimTime airtime = 200 + 50 * rng.uniform_int(0, 20);
        if (rng.bernoulli(0.5)) airtime = (airtime / kSlot) * kSlot;  // boundary-aligned
        spec.airtime.push_back(airtime);
        std::vector<int> visible;
        for (int other = 0; other < stations; ++other) {
            if (other == i) continue;
            // A line-like hidden-terminal pattern: stations further than
            // one index apart cannot sense each other.
            if (!hidden || std::abs(other - i) <= 1) visible.push_back(other);
        }
        spec.visible_to.push_back(visible);
    }
    SimTime t = 100;
    while (t < spec.horizon) {
        t += 50 + rng.uniform_int(0, 4000);
        if (rng.bernoulli(0.5)) t = (t / kSlot) * kSlot;  // tie pressure
        SimTime duration = 30 + rng.uniform_int(0, 2000);
        if (rng.bernoulli(0.5)) duration = std::max<SimTime>(kSlot, (duration / kSlot) * kSlot);
        BusyInterval interval;
        interval.start = t;
        interval.end = t + duration;
        interval.late = rng.bernoulli(0.3);
        for (int i = 0; i < stations; ++i)
            if (rng.bernoulli(0.8)) interval.stations.push_back(i);
        if (!interval.stations.empty()) spec.intervals.push_back(interval);
        t += duration;
    }
    return spec;
}

struct TraceOutcome {
    std::vector<TxRecord> log;
    std::vector<std::uint64_t> rng_probes;  ///< one raw draw per station
    std::uint64_t events = 0;               ///< scheduler events processed
};

enum class Impl { kPerSlot, kFused };

/// Run the trace on one implementation. Members are declared so that
/// stations are destroyed before the coordinator, and both before the
/// scheduler their timers reference.
TraceOutcome run_trace(const TraceSpec& spec, Impl impl)
{
    sim::Scheduler scheduler;
    Medium medium;
    std::unique_ptr<ContentionCoordinator> coordinator;
    std::vector<std::unique_ptr<StationBase>> stations;
    TraceOutcome outcome;
    if (impl != Impl::kPerSlot) coordinator = std::make_unique<ContentionCoordinator>(scheduler);
    const int n = static_cast<int>(spec.cw.size());
    for (int i = 0; i < n; ++i) {
        const auto index = static_cast<std::size_t>(i);
        const std::uint64_t rng_seed = 1000 + static_cast<std::uint64_t>(i);
        if (impl == Impl::kFused) {
            stations.push_back(std::make_unique<FusedStation>(
                i, scheduler, medium, *coordinator, rng_seed, spec.cw[index],
                spec.airtime[index], spec.visible_to[index], outcome.log));
        } else {
            stations.push_back(std::make_unique<PerSlotStation>(
                i, scheduler, medium, rng_seed, spec.cw[index], spec.airtime[index],
                spec.visible_to[index], outcome.log));
        }
    }
    // Scripted busy periods. "Early" edges are pre-scheduled here at t=0
    // (lowest FIFO sequence at their instant, like a long-armed DIFS-end
    // transmission); "late" edges are armed 10 us ahead by a parent
    // event, like a SIFS-timed control response.
    for (const BusyInterval& interval : spec.intervals) {
        ContentionCoordinator* coord = coordinator.get();
        auto begin = [&medium, &interval, coord] {
            if (coord != nullptr) coord->begin_external_tx(/*late_trigger=*/false);
            medium.adjust(interval.stations, +1);
            if (coord != nullptr) coord->end_external_tx();
        };
        auto begin_late = [&medium, &interval, coord] {
            if (coord != nullptr) coord->begin_external_tx(/*late_trigger=*/true);
            medium.adjust(interval.stations, +1);
            if (coord != nullptr) coord->end_external_tx();
        };
        if (interval.late) {
            scheduler.schedule_at(interval.start - 10, [&scheduler, begin_late] {
                scheduler.schedule_in(10, begin_late);
            });
        } else {
            scheduler.schedule_at(interval.start, begin);
        }
        scheduler.schedule_at(interval.end,
                              [&medium, &interval] { medium.adjust(interval.stations, -1); });
    }
    for (auto& station : stations) station->start_contention();
    scheduler.run_until(spec.horizon);
    for (auto& station : stations) outcome.rng_probes.push_back(station->rng_probe());
    outcome.events = scheduler.processed();
    return outcome;
}

// ------------------------------------------------- randomized equivalence

TEST(ContentionEquivalence, RandomizedBusyIdleTraces)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const TraceSpec spec = make_trace(seed, 2 + static_cast<int>(seed % 4));
        const TraceOutcome reference = run_trace(spec, Impl::kPerSlot);
        const TraceOutcome fused = run_trace(spec, Impl::kFused);
        ASSERT_FALSE(reference.log.empty()) << "trace " << seed << " produced no transmissions";
        ASSERT_EQ(reference.log.size(), fused.log.size()) << "trace " << seed;
        for (std::size_t i = 0; i < reference.log.size(); ++i) {
            ASSERT_EQ(reference.log[i].at, fused.log[i].at) << "trace " << seed << " tx " << i;
            ASSERT_EQ(reference.log[i].station, fused.log[i].station)
                << "trace " << seed << " tx " << i;
        }
        // Identical Rng consumption: the next raw draw matches per station.
        ASSERT_EQ(reference.rng_probes, fused.rng_probes) << "trace " << seed;
    }
}

TEST(ContentionEquivalence, EventCountCollapses)
{
    // Same dynamics, far fewer scheduler events: that is the point of the
    // batched coordinator.
    TraceSpec spec = make_trace(99, 4);
    for (auto& cw : spec.cw) cw = 1024;
    const TraceOutcome reference = run_trace(spec, Impl::kPerSlot);
    const TraceOutcome batched = run_trace(spec, Impl::kFused);
    ASSERT_EQ(reference.log, batched.log);
    EXPECT_GT(reference.events, 3 * batched.events)
        << "per-slot " << reference.events << " events vs batched " << batched.events;
}

// ------------------------------------------------- coordinator unit tests

struct ProbeClient final : BackoffClient {
    std::vector<SimTime>* fired_at = nullptr;
    std::vector<const ProbeClient*>* order = nullptr;
    sim::Scheduler* scheduler = nullptr;
    std::function<void()> on_fire;

    void backoff_expired() override
    {
        if (fired_at != nullptr && scheduler != nullptr) fired_at->push_back(scheduler->now());
        if (order != nullptr) order->push_back(this);
        if (on_fire) on_fire();
    }
};

TEST(ContentionCoordinator, FusedImmediateAccessFiresAtDifsEnd)
{
    // Zero backoff: the per-slot reference transmits inside its DIFS-end
    // event; the fused registration fires at exactly that instant.
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient client;
    std::vector<SimTime> fired;
    client.fired_at = &fired;
    client.scheduler = &scheduler;
    coordinator.register_access(client, kDifs, 0, kSlot);
    scheduler.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], kDifs);
}

TEST(ContentionCoordinator, FusedExpiryMatchesPerSlotInstant)
{
    // b slots: DIFS-end decrement plus b-1 boundary decrements, transmit
    // at now + difs + b*slot — the per-slot reference's instant.
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient client;
    std::vector<SimTime> fired;
    client.fired_at = &fired;
    client.scheduler = &scheduler;
    coordinator.register_access(client, kDifs, 5, kSlot);
    EXPECT_TRUE(coordinator.is_registered(client));
    EXPECT_EQ(coordinator.registered_expiry(client), kDifs + 5 * kSlot);
    scheduler.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], kDifs + 5 * kSlot);
    EXPECT_FALSE(coordinator.is_registered(client));
    EXPECT_EQ(coordinator.expiries(), 1u);
}

TEST(ContentionCoordinator, FusedFreezeInsideDifsConsumesNothing)
{
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient client;
    coordinator.register_access(client, kDifs, 7, kSlot);
    scheduler.run_until(kDifs - 1);
    EXPECT_EQ(coordinator.freeze(client), 0);
    EXPECT_FALSE(coordinator.is_registered(client));
}

TEST(ContentionCoordinator, FusedFreezeAtDifsEndHonorsTieOrder)
{
    // Exactly at DIFS end, the first decrement happened only when the
    // DIFS event beat the interrupting transmission in FIFO order: a
    // SIFS-timed (late) interrupter loses to it, an early-armed one wins.
    for (const bool late : {false, true}) {
        sim::Scheduler scheduler;
        ContentionCoordinator coordinator(scheduler);
        ProbeClient client;
        coordinator.register_access(client, kDifs, 7, kSlot);
        scheduler.run_until(kDifs);
        coordinator.begin_external_tx(late);
        EXPECT_EQ(coordinator.freeze(client), late ? 1 : 0);
        coordinator.end_external_tx();
    }
}

TEST(ContentionCoordinator, FusedFreezeCountsDifsEndDecrement)
{
    // Freeze D microseconds after DIFS end: the DIFS-end decrement plus
    // the whole boundaries since — ceil(D/slot) off a boundary, D/slot on
    // one when the interrupter preempts the countdown event — identical to
    // what the reference's immediate decrement + per-slot countdown would
    // have consumed.
    const struct {
        SimTime at;
        int consumed;
    } cases[] = {
        {kDifs, 0},  // exact DIFS end, unknown transmitter: event preempted
        {kDifs + 1, 1},          {kDifs + kSlot - 1, 1},
        {kDifs + kSlot, 1},      // exact boundary, unknown transmitter
        {kDifs + kSlot + 1, 2},  {kDifs + 2 * kSlot, 2},     {kDifs + 2 * kSlot + 1, 3},
        {kDifs + 3 * kSlot - 1, 3}, {kDifs + 3 * kSlot + 5, 4}, {kDifs + 5 * kSlot, 5},
    };
    for (const auto& test_case : cases) {
        sim::Scheduler scheduler;
        ContentionCoordinator coordinator(scheduler);
        ProbeClient client;
        coordinator.register_access(client, kDifs, 10, kSlot);
        scheduler.run_until(test_case.at);
        EXPECT_EQ(coordinator.freeze(client), test_case.consumed) << "at=" << test_case.at;
        EXPECT_FALSE(coordinator.is_registered(client));
    }
}

TEST(ContentionCoordinator, ExternalTxResolvesBoundaryTies)
{
    // At an exact slot boundary after DIFS end, a late-triggered
    // (SIFS-timed) transmission loses the FIFO race against the countdown
    // event: the decrement happened. An early-armed (DIFS-end)
    // transmission wins it: no decrement.
    for (const bool late : {false, true}) {
        sim::Scheduler scheduler;
        ContentionCoordinator coordinator(scheduler);
        ProbeClient client;
        coordinator.register_access(client, kDifs, 10, kSlot);
        scheduler.run_until(kDifs + 2 * kSlot);
        coordinator.begin_external_tx(late);
        EXPECT_EQ(coordinator.freeze(client), late ? 3 : 2);
        coordinator.end_external_tx();
    }
}

TEST(ContentionCoordinator, CohortFiresInRegistrationOrder)
{
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient a;
    ProbeClient b;
    std::vector<const ProbeClient*> order;
    a.order = &order;
    b.order = &order;
    coordinator.register_access(a, kDifs, 3, kSlot);
    coordinator.register_access(b, kDifs, 3, kSlot);
    scheduler.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], &a);
    EXPECT_EQ(order[1], &b);
}

TEST(ContentionCoordinator, FreezeDuringFireSeesChainOrder)
{
    // a and b expire at the same instant; a fires first (registered
    // first) and its "transmission" freezes b, which therefore consumed
    // everything but never fires — exactly how a sensed same-slot winner
    // silences the rest of the cohort.
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient a;
    ProbeClient b;
    std::vector<const ProbeClient*> order;
    a.order = &order;
    b.order = &order;
    int b_consumed = -1;
    a.on_fire = [&] { b_consumed = coordinator.freeze(b); };
    coordinator.register_access(a, kDifs, 3, kSlot);
    coordinator.register_access(b, kDifs, 3, kSlot);
    scheduler.run();
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], &a);
    EXPECT_EQ(b_consumed, 3);  // counter fully consumed; b is at zero
    EXPECT_FALSE(coordinator.is_registered(b));
}

TEST(ContentionCoordinator, LateJoinerPrecedesOngoingChains)
{
    // c registers two slots after a, on a's boundary phase: c's DIFS ends
    // at t=90 (a's third decrement) and c expires at t=110, a's fourth
    // boundary. In the per-slot reference c's DIFS event was armed at
    // t=40, before a's re-arm at t=70, so at t=90 c re-arms for t=110
    // first and fires first there; a, frozen by c's transmission exactly
    // on its own boundary, loses that boundary's decrement.
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient a;
    ProbeClient c;
    std::vector<const ProbeClient*> order;
    a.order = &order;
    c.order = &order;
    int a_consumed = -1;
    c.on_fire = [&] { a_consumed = coordinator.freeze(a); };
    coordinator.register_access(a, kDifs, 10, kSlot);  // decrements at 50, 70, 90, 110, ...
    scheduler.run_until(2 * kSlot);
    coordinator.register_access(c, kDifs, 1, kSlot);  // DIFS end 90, fires at 110
    scheduler.run();
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], &c);
    EXPECT_EQ(a_consumed, 3);  // 50, 70 and 90 fired; the tie at 110 went to c
}

TEST(ContentionCoordinator, DifsPhasePrecedesBackoffPhaseAtSharedInstant)
{
    // a is deep in backoff with a boundary at t=90; d's DIFS ends at the
    // same instant with a zero counter. d's pending event was armed a
    // whole DIFS back — earlier than a's virtual slot re-arm — so d fires
    // first and a, frozen by d's transmission exactly on its boundary,
    // loses that boundary's decrement (a registered at t=0: decrements at
    // 50, 70, 90; the one at 90 is lost, so 2 are consumed).
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient a;
    ProbeClient d;
    std::vector<const ProbeClient*> order;
    a.order = &order;
    d.order = &order;
    int a_consumed = -1;
    d.on_fire = [&] { a_consumed = coordinator.freeze(a); };
    coordinator.register_access(a, kDifs, 10, kSlot);  // boundaries 50, 70, 90, ...
    scheduler.run_until(40);
    coordinator.register_access(d, kDifs, 0, kSlot);  // fires at 90
    scheduler.run();
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], &d);
    EXPECT_EQ(a_consumed, 2);  // 50 and 70 fired; the tie at 90 went to d
}

TEST(ContentionCoordinator, FusedRegistrationErrors)
{
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient client;
    EXPECT_THROW(coordinator.freeze(client), std::logic_error);
    EXPECT_THROW(coordinator.register_access(client, kDifs, -1, kSlot), std::invalid_argument);
    EXPECT_THROW(coordinator.register_access(client, kDifs, 1, 0), std::invalid_argument);
    EXPECT_THROW(coordinator.register_access(client, kSlot, 1, kSlot), std::invalid_argument);
    coordinator.register_access(client, kDifs, 1, kSlot);
    EXPECT_THROW(coordinator.register_access(client, kDifs, 1, kSlot), std::logic_error);
    coordinator.unregister(client);
    EXPECT_FALSE(coordinator.is_registered(client));
    EXPECT_THROW(coordinator.end_external_tx(), std::logic_error);
}

TEST(ContentionCoordinator, SlotsBatchedStatistic)
{
    sim::Scheduler scheduler;
    ContentionCoordinator coordinator(scheduler);
    ProbeClient client;
    coordinator.register_access(client, kDifs, 100, kSlot);
    scheduler.run_until(kDifs + 50 * kSlot + 7);
    EXPECT_EQ(coordinator.freeze(client), 51);  // the DIFS-end decrement + 50 boundaries
    EXPECT_EQ(coordinator.slots_batched(), 51u);
}

}  // namespace
}  // namespace ezflow::mac
