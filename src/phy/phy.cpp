#include "phy/phy.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "phy/channel.h"

namespace ezflow::phy {

NodePhy::NodePhy(net::NodeId id, Position position, sim::Scheduler& scheduler)
    : id_(id), position_(position), scheduler_(scheduler)
{
}

const PhyParams& NodePhy::channel_params() const
{
    if (channel_ == nullptr) throw std::logic_error("NodePhy::channel_params: no channel attached");
    return channel_->params();
}

NodePhy::Receiver& NodePhy::receiver()
{
    if (!rx_) rx_ = std::make_unique<Receiver>();
    return *rx_;
}

double NodePhy::Receiver::interference_sum(std::uint64_t except_id) const
{
    double sum = 0.0;
    for (const ActiveSignal& s : active)
        if (s.id != except_id) sum += s.power_w;
    return sum;
}

void NodePhy::close_bad_interval(Receiver& r)
{
    const SimTime bad_from = r.rx_bad_since;
    const SimTime bad_to = scheduler_.now();
    r.rx_bad_since = -1;
    if (bad_to <= bad_from) return;  // zero length: overlaps nothing
    channel_params().span_end_offsets(*r.rx_frame, r.span_ends);
    for (std::size_t i = 0; i < r.span_ends.size() && i < 64; ++i) {
        const SimTime begin = r.rx_started_at + (i == 0 ? 0 : r.span_ends[i - 1]);
        const SimTime end = r.rx_started_at + r.span_ends[i];
        if (bad_from < end && bad_to > begin) r.rx_span_errors |= (1ull << i);
    }
}

void NodePhy::start_tx(Frame frame)
{
    if (deaf_) throw std::logic_error("NodePhy::start_tx: a deaf PHY cannot transmit");
    if (transmitting_) throw std::logic_error("NodePhy::start_tx: already transmitting");
    if (channel_ == nullptr) throw std::logic_error("NodePhy::start_tx: no channel attached");
    if (rx_ && rx_->rx_active) {
        // Half-duplex: starting a transmission abandons the reception.
        rx_->rx_active = false;
        ++rx_->frames_corrupted;
    }
    transmitting_ = true;
    update_busy();
    channel_->transmit(*this, std::move(frame));
}

void NodePhy::power_off()
{
    powered_ = false;
    power_cycled_ = true;
    transmitting_ = false;
    last_busy_ = false;
    if (!rx_) return;
    // Wipe everything on the air at this node. No listener callbacks: the
    // MAC was quiesced before the radio died, and a busy->idle edge here
    // must not restart its contention machinery.
    Receiver& r = *rx_;
    r.active.clear();
    r.sensed_active = 0;
    r.ledger_w = 0.0;
    r.rx_active = false;
    r.rx_frame = nullptr;
    r.rx_bad_since = -1;
    r.last_rx_error = false;
}

void NodePhy::power_on()
{
    powered_ = true;
}

void NodePhy::signal_start(const RxEvent& rx)
{
    if (!powered_) return;  // dead radios hear nothing (and are detached anyway)
    Receiver& r = receiver();
    r.active.push_back(ActiveSignal{rx.signal_id, rx.power_w, rx.sensed});
    r.ledger_w += rx.power_w;
    if (rx.sensed) ++r.sensed_active;
    const bool decodable = rx.decodable();
    if (transmitting_) {
        // Cannot hear anything while transmitting.
        if (decodable) ++r.frames_missed_busy;
    } else if (r.rx_active) {
        // An arrival only raises interference, so it can open (never
        // close) a below-threshold interval; recovery is observed at
        // interferer signal ends.
        if (r.rx_bad_since < 0 && r.rx_below_threshold()) r.rx_bad_since = scheduler_.now();
        if (decodable) ++r.frames_missed_busy;
    } else if (decodable) {
        r.rx_active = true;
        r.rx_signal_id = rx.signal_id;
        r.rx_power_w = rx.power_w;
        r.rx_threshold = rx.capture_threshold;
        r.rx_frame = rx.frame;
        r.rx_started_at = scheduler_.now();
        r.rx_span_errors = rx.span_error_bits;
        // Pre-existing overlapping energy opens an interval at once unless
        // the frame captures over it.
        r.rx_bad_since = r.rx_below_threshold() ? scheduler_.now() : -1;
    }
    update_busy();
}

void NodePhy::signal_end(std::uint64_t signal_id, const Frame& frame)
{
    Receiver& r = receiver();
    const auto it = std::find_if(r.active.begin(), r.active.end(),
                                 [signal_id](const ActiveSignal& s) { return s.id == signal_id; });
    if (it == r.active.end()) {
        // A power cycle wiped the signal this end-event refers to; the
        // event itself could not be cancelled (the channel schedules it
        // without keeping a handle). Only then is the miss legitimate.
        if (power_cycled_) return;
        throw std::logic_error("NodePhy::signal_end: unknown signal");
    }
    const bool was_sensed = it->sensed;
    r.ledger_w -= it->power_w;
    r.active.erase(it);
    if (r.active.empty()) r.ledger_w = 0.0;  // empty ledger is exactly quiet
    if (was_sensed) --r.sensed_active;

    const bool completes_rx = r.rx_active && r.rx_signal_id == signal_id;
    // An interferer left while a frame is locked: interference just
    // dropped, so an open below-threshold interval may close here.
    if (r.rx_active && !completes_rx && r.rx_bad_since >= 0 && !r.rx_below_threshold())
        close_bad_interval(r);
    bool deliver = false;
    if (completes_rx) {
        if (r.rx_bad_since >= 0) close_bad_interval(r);
        r.rx_active = false;
        r.rx_frame = nullptr;
        const std::size_t n = frame.span_count();
        const std::uint64_t all = n >= 64 ? ~0ull : ((1ull << n) - 1);
        if ((r.rx_span_errors & all) == all) {
            ++r.frames_corrupted;
        } else {
            ++r.frames_decoded;
            r.last_decode_mpdu_errors = r.rx_span_errors & all;
            deliver = true;
        }
    }
    // EIFS bookkeeping: a sensed busy period that did not end in a clean
    // decode leaves the station obliged to wait EIFS next (unless it was
    // transmitting itself, in which case it saw nothing).
    if (was_sensed && !transmitting_) r.last_rx_error = !deliver;
    update_busy();
    if (deliver && listener_ != nullptr) listener_->phy_frame_decoded(frame);
}

void NodePhy::tx_end(const Frame& frame)
{
    if (!transmitting_) {
        if (power_cycled_) return;  // transmission wiped by a power cycle
        throw std::logic_error("NodePhy::tx_end: not transmitting");
    }
    transmitting_ = false;
    update_busy();
    if (listener_ != nullptr) listener_->phy_tx_done(frame);
}

void NodePhy::update_busy()
{
    const bool now_busy = busy();
    if (now_busy == last_busy_) return;
    last_busy_ = now_busy;
    if (listener_ != nullptr) listener_->phy_busy_changed(now_busy);
}

}  // namespace ezflow::phy
