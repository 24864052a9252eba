#include "sim/scheduler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ezflow::sim {

std::uint32_t Scheduler::acquire_slot()
{
    if (free_head_ != kNoSlot) {
        const std::uint32_t index = free_head_;
        free_head_ = slots_[index].next_free;
        slots_[index].next_free = kNoSlot;
        return index;
    }
    if (slots_.size() >= static_cast<std::size_t>(kNoSlot))
        throw std::length_error("Scheduler: event arena exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index)
{
    Slot& slot = slots_[index];
    slot.action.reset();
    slot.armed = false;
    // Bump the generation so every outstanding EventId for this slot goes
    // stale; 0 is reserved for the invalid handle.
    if (++slot.gen == 0) slot.gen = 1;
    slot.next_free = free_head_;
    free_head_ = index;
}

EventId Scheduler::schedule_at(SimTime at, EventFn action)
{
    if (at < now_) throw std::invalid_argument("Scheduler::schedule_at: time in the past");
    if (!action) throw std::invalid_argument("Scheduler::schedule_at: empty action");
    const std::uint32_t index = acquire_slot();
    Slot& slot = slots_[index];
    slot.action = std::move(action);
    slot.at = at;
    slot.scheduled_at = now_;
    slot.seq = next_seq_++;
    slot.armed = true;
    staging_.push_back(HeapRecord{at, slot.seq, index, slot.gen});
    ++live_events_;
    return EventId{index, slot.gen};
}

EventId Scheduler::schedule_in(SimTime delay, EventFn action)
{
    if (delay < 0) throw std::invalid_argument("Scheduler::schedule_in: negative delay");
    return schedule_at(now_ + delay, std::move(action));
}

bool Scheduler::cancel(EventId id)
{
    if (!id.valid() || id.slot >= slots_.size()) return false;
    Slot& slot = slots_[id.slot];
    if (!slot.armed || slot.gen != id.gen) return false;  // already ran or cancelled
    release_slot(id.slot);
    --live_events_;
    ++stale_records_;
    // Keep the time index O(live): once stale records dominate, rebuild
    // without them. Amortized O(1) per cancel.
    if (stale_records_ > 64 && stale_records_ > (heap_.size() + staging_.size()) / 2)
        compact_heap();
    return true;
}

void Scheduler::flush_staging()
{
    for (const HeapRecord& rec : staging_) {
        const Slot& slot = slots_[rec.slot];
        if (!slot.armed || slot.gen != rec.gen) {
            // Cancelled while staged: never enters the heap at all.
            if (stale_records_ > 0) --stale_records_;
            continue;
        }
        heap_.push_back(rec);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    staging_.clear();
}

void Scheduler::compact_heap()
{
    const auto stale = [this](const HeapRecord& rec) {
        const Slot& slot = slots_[rec.slot];
        return !slot.armed || slot.gen != rec.gen;
    };
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(), stale), heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    staging_.erase(std::remove_if(staging_.begin(), staging_.end(), stale), staging_.end());
    stale_records_ = 0;
}

SimTime Scheduler::next_event_time()
{
    if (!staging_.empty()) flush_staging();
    while (!heap_.empty()) {
        const HeapRecord& rec = heap_.front();
        const Slot& slot = slots_[rec.slot];
        if (slot.armed && slot.gen == rec.gen) return rec.at;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        if (stale_records_ > 0) --stale_records_;
    }
    return -1;
}

bool Scheduler::pop_and_run_next(SimTime limit)
{
    if (!staging_.empty()) flush_staging();
    while (!heap_.empty()) {
        if (heap_.front().at > limit) return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const HeapRecord rec = heap_.back();
        heap_.pop_back();
        Slot& slot = slots_[rec.slot];
        if (!slot.armed || slot.gen != rec.gen) {
            if (stale_records_ > 0) --stale_records_;
            continue;  // cancelled; slot possibly recycled since
        }
        // Move the action out before releasing the slot so the handler may
        // schedule further events (which can reuse this very slot).
        EventFn action = std::move(slot.action);
        const SimTime scheduled_at = slot.scheduled_at;
        release_slot(rec.slot);
        now_ = rec.at;
        current_scheduled_at_ = scheduled_at;
        current_event_seq_ = rec.seq;
        --live_events_;
        ++processed_;
        action();
        current_scheduled_at_ = -1;
        current_event_seq_ = ~0ull;
        return true;
    }
    return false;
}

void Scheduler::run()
{
    stopped_ = false;
    while (!stopped_ && pop_and_run_next(std::numeric_limits<SimTime>::max())) {
    }
}

void Scheduler::run_until(SimTime until)
{
    if (until < now_) throw std::invalid_argument("Scheduler::run_until: time in the past");
    stopped_ = false;
    while (!stopped_ && pop_and_run_next(until)) {
    }
    if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace ezflow::sim
