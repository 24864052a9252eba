#pragma once

#include "sim/scheduler.h"

namespace ezflow::sim {

/// A re-armable one-shot timer over the Scheduler, for the recurring
/// timeouts of the MAC (ACK/CTS timeout, SIFS control trigger), the
/// contention coordinator's wake-up and the pacer's release clock.
///
/// The callback is a member function of the timer's owner, bound at
/// construction (`Timer::bind<&Owner::method>(scheduler, owner)`): the
/// timer stores a plain function pointer and the owner pointer, not a
/// type-erased callable, because every timer lives inside the object it
/// calls back into and a MAC carries four of them. Every arm schedules
/// only a `this`-capturing trampoline (inline in the event arena, no
/// allocation), and re-arming or cancelling tracks the pending EventId so
/// callers never juggle handles or hit stale-id bugs.
class Timer {
public:
    /// A timer calling `(owner.*Method)()` on expiry. `owner` must outlive
    /// the timer (it normally holds it as a member).
    template <auto Method, typename Owner>
    static Timer bind(Scheduler& scheduler, Owner& owner)
    {
        return Timer(scheduler, [](void* self) { (static_cast<Owner*>(self)->*Method)(); },
                     &owner);
    }

    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    ~Timer() { cancel(); }

    /// Arm to fire `delay` microseconds from now, replacing any pending
    /// expiry.
    void arm_in(SimTime delay)
    {
        cancel();
        id_ = scheduler_.schedule_in(delay, [this] { fire(); });
    }

    /// Arm to fire at absolute time `at`, replacing any pending expiry.
    void arm_at(SimTime at)
    {
        cancel();
        id_ = scheduler_.schedule_at(at, [this] { fire(); });
    }

    /// Disarm. Returns true when a pending expiry was actually cancelled.
    bool cancel()
    {
        if (!id_.valid()) return false;
        const bool cancelled = scheduler_.cancel(id_);
        id_ = EventId{};
        return cancelled;
    }

    bool armed() const { return id_.valid(); }

private:
    using Callback = void (*)(void*);

    Timer(Scheduler& scheduler, Callback callback, void* owner)
        : scheduler_(scheduler), callback_(callback), owner_(owner)
    {
    }

    void fire()
    {
        id_ = EventId{};  // cleared before the callback so it may re-arm
        callback_(owner_);
    }

    Scheduler& scheduler_;
    Callback callback_;
    void* owner_;
    EventId id_{};
};

// Every MAC holds four timers and a 10k-node grid holds tens of
// thousands: four words, no callable storage.
static_assert(sizeof(Timer) <= 32, "Timer must stay 32 bytes");

}  // namespace ezflow::sim
