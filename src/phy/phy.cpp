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

double NodePhy::interference_sum(std::uint64_t except_id) const
{
    double sum = 0.0;
    for (const ActiveSignal& s : active_)
        if (s.id != except_id) sum += s.power_w;
    return sum;
}

void NodePhy::close_bad_interval()
{
    const SimTime bad_from = rx_bad_since_;
    const SimTime bad_to = scheduler_.now();
    rx_bad_since_ = -1;
    if (bad_to <= bad_from) return;  // zero length: overlaps nothing
    channel_params().span_end_offsets(*rx_frame_, span_ends_);
    for (std::size_t i = 0; i < span_ends_.size() && i < 64; ++i) {
        const SimTime begin = rx_started_at_ + (i == 0 ? 0 : span_ends_[i - 1]);
        const SimTime end = rx_started_at_ + span_ends_[i];
        if (bad_from < end && bad_to > begin) rx_span_errors_ |= (1ull << i);
    }
}

void NodePhy::start_tx(Frame frame)
{
    if (deaf_) throw std::logic_error("NodePhy::start_tx: a deaf PHY cannot transmit");
    if (transmitting_) throw std::logic_error("NodePhy::start_tx: already transmitting");
    if (channel_ == nullptr) throw std::logic_error("NodePhy::start_tx: no channel attached");
    if (rx_active_) {
        // Half-duplex: starting a transmission abandons the reception.
        rx_active_ = false;
        ++frames_corrupted_;
    }
    transmitting_ = true;
    update_busy();
    channel_->transmit(*this, std::move(frame));
}

void NodePhy::power_off()
{
    powered_ = false;
    power_cycled_ = true;
    // Wipe everything on the air at this node. No listener callbacks: the
    // MAC was quiesced before the radio died, and a busy->idle edge here
    // must not restart its contention machinery.
    active_.clear();
    sensed_active_ = 0;
    ledger_w_ = 0.0;
    transmitting_ = false;
    rx_active_ = false;
    rx_frame_ = nullptr;
    rx_bad_since_ = -1;
    last_rx_error_ = false;
    last_busy_ = false;
}

void NodePhy::power_on()
{
    powered_ = true;
}

void NodePhy::signal_start(const RxEvent& rx)
{
    if (!powered_) return;  // dead radios hear nothing (and are detached anyway)
    active_.push_back(ActiveSignal{rx.signal_id, rx.power_w, rx.sensed});
    ledger_w_ += rx.power_w;
    if (rx.sensed) ++sensed_active_;
    const bool decodable = rx.decodable();
    if (transmitting_) {
        // Cannot hear anything while transmitting.
        if (decodable) ++frames_missed_busy_;
    } else if (rx_active_) {
        // An arrival only raises interference, so it can open (never
        // close) a below-threshold interval; recovery is observed at
        // interferer signal ends.
        if (rx_bad_since_ < 0 && rx_below_threshold()) rx_bad_since_ = scheduler_.now();
        if (decodable) ++frames_missed_busy_;
    } else if (decodable) {
        rx_active_ = true;
        rx_signal_id_ = rx.signal_id;
        rx_power_w_ = rx.power_w;
        rx_threshold_ = rx.capture_threshold;
        rx_noise_w_ = rx.noise_w;
        rx_frame_ = rx.frame;
        rx_started_at_ = scheduler_.now();
        rx_span_errors_ = rx.span_error_bits;
        // Pre-existing overlapping energy opens an interval at once unless
        // the frame captures over it.
        rx_bad_since_ = rx_below_threshold() ? scheduler_.now() : -1;
    }
    update_busy();
}

void NodePhy::signal_end(std::uint64_t signal_id, const Frame& frame)
{
    const auto it = std::find_if(active_.begin(), active_.end(),
                                 [signal_id](const ActiveSignal& s) { return s.id == signal_id; });
    if (it == active_.end()) {
        // A power cycle wiped the signal this end-event refers to; the
        // event itself could not be cancelled (the channel schedules it
        // without keeping a handle). Only then is the miss legitimate.
        if (power_cycled_) return;
        throw std::logic_error("NodePhy::signal_end: unknown signal");
    }
    const bool was_sensed = it->sensed;
    ledger_w_ -= it->power_w;
    active_.erase(it);
    if (active_.empty()) ledger_w_ = 0.0;  // empty ledger is exactly quiet
    if (was_sensed) --sensed_active_;

    const bool completes_rx = rx_active_ && rx_signal_id_ == signal_id;
    // An interferer left while a frame is locked: interference just
    // dropped, so an open below-threshold interval may close here.
    if (rx_active_ && !completes_rx && rx_bad_since_ >= 0 && !rx_below_threshold())
        close_bad_interval();
    bool deliver = false;
    if (completes_rx) {
        if (rx_bad_since_ >= 0) close_bad_interval();
        rx_active_ = false;
        rx_frame_ = nullptr;
        const std::size_t n = frame.span_count();
        const std::uint64_t all = n >= 64 ? ~0ull : ((1ull << n) - 1);
        if ((rx_span_errors_ & all) == all) {
            ++frames_corrupted_;
        } else {
            ++frames_decoded_;
            last_decode_mpdu_errors_ = rx_span_errors_ & all;
            deliver = true;
        }
    }
    // EIFS bookkeeping: a sensed busy period that did not end in a clean
    // decode leaves the station obliged to wait EIFS next (unless it was
    // transmitting itself, in which case it saw nothing).
    if (was_sensed && !transmitting_) last_rx_error_ = !deliver;
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

std::int64_t NodePhy::data_bitrate_for(net::NodeId rx) const
{
    if (channel_ == nullptr)
        throw std::logic_error("NodePhy::data_bitrate_for: no channel attached");
    return channel_->data_bitrate(id_, rx);
}

void NodePhy::report_tx_result(net::NodeId rx, bool success)
{
    if (channel_ == nullptr)
        throw std::logic_error("NodePhy::report_tx_result: no channel attached");
    channel_->report_tx_result(id_, rx, success);
}

void NodePhy::update_busy()
{
    const bool now_busy = busy();
    if (now_busy == last_busy_) return;
    last_busy_ = now_busy;
    if (listener_ != nullptr) listener_->phy_busy_changed(now_busy);
}

}  // namespace ezflow::phy
