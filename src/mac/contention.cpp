#include "mac/contention.h"

#include <algorithm>
#include <stdexcept>

namespace ezflow::mac {

ContentionCoordinator::ContentionCoordinator(sim::Scheduler& scheduler)
    : scheduler_(scheduler),
      timer_(sim::Timer::bind<&ContentionCoordinator::on_timer>(scheduler, *this))
{
}

std::size_t ContentionCoordinator::find_index(const BackoffClient& client) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].client == &client) return i;
    return entries_.size();
}

bool ContentionCoordinator::is_registered(const BackoffClient& client) const
{
    return find_index(client) != entries_.size();
}

SimTime ContentionCoordinator::registered_expiry(const BackoffClient& client) const
{
    const std::size_t index = find_index(client);
    return index == entries_.size() ? -1 : entries_[index].expiry;
}

void ContentionCoordinator::insert_entry(Entry entry)
{
    // Fire order of two entries' pending virtual events, were they due at
    // the same instant (see the ordering discussion in the header): later
    // DIFS end first; among equal DIFS ends, earlier-armed first, then
    // registration order. The key is immutable, so sorted insertion keeps
    // the whole vector ordered with no re-sorting.
    const auto fires_before = [](const Entry& a, const Entry& b) {
        if (a.reg_at != b.reg_at) return a.reg_at > b.reg_at;
        if (a.armed != b.armed) return a.armed < b.armed;
        return a.seq < b.seq;
    };
    const auto position = std::lower_bound(entries_.begin(), entries_.end(), entry, fires_before);
    entries_.insert(position, entry);
    rearm();
}

void ContentionCoordinator::register_access(BackoffClient& client, SimTime difs_us,
                                            int backoff_slots, SimTime slot_us)
{
    if (backoff_slots < 0)
        throw std::invalid_argument("ContentionCoordinator::register_access: negative count");
    if (slot_us <= 0)
        throw std::invalid_argument("ContentionCoordinator::register_access: bad slot");
    if (difs_us <= slot_us)
        throw std::invalid_argument(
            "ContentionCoordinator::register_access: difs must exceed one slot");
    if (is_registered(client))
        throw std::logic_error("ContentionCoordinator::register_access: already registered");

    const SimTime now = scheduler_.now();
    Entry entry;
    entry.client = &client;
    entry.reg_at = now + difs_us;
    entry.armed = now;
    entry.seq = next_seq_++;
    entry.slot = slot_us;
    // One decrement at DIFS end, the rest at subsequent boundaries; with a
    // zero counter the reference transmits inside its DIFS-end event.
    entry.owed = backoff_slots;
    entry.expiry = entry.reg_at + static_cast<SimTime>(backoff_slots) * slot_us;
    insert_entry(entry);
}

bool ContentionCoordinator::precedes_transmitter(std::size_t index) const
{
    if (firing_ != nullptr) {
        const std::size_t tx_index = find_index(*firing_);
        return index < tx_index;
    }
    if (external_depth_ > 0) return external_late_;
    // Unknown transmitter (e.g. a raw PHY injection in tests): treat its
    // trigger as armed before the registrant's virtual slot event.
    return false;
}

int ContentionCoordinator::freeze(BackoffClient& client)
{
    const std::size_t index = find_index(client);
    if (index == entries_.size())
        throw std::logic_error("ContentionCoordinator::freeze: not registered");
    const Entry entry = entries_[index];
    const SimTime now = scheduler_.now();
    int consumed = 0;
    if (now == entry.reg_at) {
        // Exactly at the (virtual) DIFS end: the first decrement happened
        // only when the DIFS-end event preceded the interrupting
        // transmission in the scheduler's FIFO tie order.
        if (precedes_transmitter(index)) consumed = 1;
    } else if (now > entry.reg_at) {
        // The DIFS-end decrement (when owed) certainly fired; boundaries
        // reg_at + k*slot, k >= 1, strictly before now all fired, and the
        // boundary exactly at now fired only when this chain's event
        // preceded the interrupting transmission.
        const SimTime elapsed = now - entry.reg_at;
        const SimTime whole = elapsed / entry.slot;
        int boundaries = 0;
        if (elapsed % entry.slot != 0) {
            boundaries = static_cast<int>(whole);
        } else {
            boundaries = static_cast<int>(whole) - 1 + (precedes_transmitter(index) ? 1 : 0);
        }
        consumed = 1 + std::max(boundaries, 0);
    }
    consumed = std::min(consumed, entry.owed);
    slots_batched_ += static_cast<std::uint64_t>(consumed);
    erase_at(index);
    return consumed;
}

void ContentionCoordinator::unregister(BackoffClient& client)
{
    const std::size_t index = find_index(client);
    if (index != entries_.size()) erase_at(index);
}

void ContentionCoordinator::erase_at(std::size_t index)
{
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
    if (!in_fire_) rearm();
}

void ContentionCoordinator::rearm()
{
    if (entries_.empty()) {
        if (armed_at_ >= 0) {
            timer_.cancel();
            armed_at_ = -1;
            armed_final_ = false;
        }
        return;
    }
    const Entry* earliest = &entries_.front();
    for (const Entry& entry : entries_)
        if (entry.expiry < earliest->expiry) earliest = &entry;
    const SimTime stage = earliest->expiry - earliest->slot;
    const SimTime at = scheduler_.now() < stage ? stage : earliest->expiry;
    const bool final = at == earliest->expiry;
    if (at != armed_at_ || final != armed_final_) {
        timer_.arm_at(at);
        armed_at_ = at;
        armed_final_ = final;
    }
}

void ContentionCoordinator::on_timer()
{
    const SimTime now = scheduler_.now();
    armed_at_ = -1;
    if (!armed_final_) {
        // Stage wake-up one slot ahead of the earliest expiry: arm the
        // expiry event now so it takes the FIFO position the per-slot
        // reference's last countdown event would have had.
        rearm();
        return;
    }
    armed_final_ = false;
    in_fire_ = true;
    // Fire every counter expiring now in chain order. An expiry's
    // transmission cascades busy carrier sense synchronously, so due
    // entries that heard it freeze (and unregister) before their turn —
    // only stations hidden from every earlier transmitter also fire.
    // This is a known defect, not 802.11: there, two stations that count
    // down to zero in the same slot both transmit and collide, because
    // clear-channel assessment takes most of a slot. Here stations that
    // hear each other never collide (ROADMAP.md, "Stations that hear
    // each other never collide").
    for (;;) {
        std::size_t due = entries_.size();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].expiry == now) {
                due = i;
                break;
            }
        }
        if (due == entries_.size()) break;
        BackoffClient* client = entries_[due].client;
        firing_ = client;
        ++expiries_;
        client->backoff_expired();
        firing_ = nullptr;
        // The client transmitted (it never freezes on its own carrier);
        // retire its entry. The cascade may have erased others, so look
        // the index up again.
        const std::size_t index = find_index(*client);
        if (index == entries_.size())
            throw std::logic_error("ContentionCoordinator: fired entry vanished");
        erase_at(index);
    }
    in_fire_ = false;
    rearm();
}

void ContentionCoordinator::begin_external_tx(bool late_trigger)
{
    // The busy cascade of a transmission never starts another one
    // synchronously, so brackets cannot nest — and external_late_ is a
    // single flag, so silently allowing nesting would corrupt the outer
    // bracket's tie polarity. Fail loudly instead.
    if (external_depth_ != 0)
        throw std::logic_error("ContentionCoordinator::begin_external_tx: nested transmission");
    ++external_depth_;
    external_late_ = late_trigger;
}

void ContentionCoordinator::end_external_tx()
{
    if (external_depth_ <= 0)
        throw std::logic_error("ContentionCoordinator::end_external_tx: not in a transmission");
    --external_depth_;
}

}  // namespace ezflow::mac
