#include "mac/dcf.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ezflow::mac {

DcfMac::DcfMac(phy::NodePhy& phy, sim::Scheduler& scheduler, ContentionCoordinator& coordinator,
               util::Rng rng, MacParams params)
    : phy_(phy),
      scheduler_(scheduler),
      coordinator_(coordinator),
      rng_(std::move(rng)),
      params_(params),
      queues_(params.queue_capacity, params.cw_min),
      ack_timer_(scheduler, [this] { on_ack_timeout(); }),
      cts_timer_(scheduler, [this] { on_cts_timeout(); }),
      ctrl_timer_(scheduler, [this] { send_pending_control(); }),
      cts_data_timer_(scheduler, [this] { on_cts_data_follow_up(); })
{
    phy_.set_listener(this);
}

DcfMac::~DcfMac()
{
    coordinator_.unregister(*this);
    scheduler_.cancel(nav_event_);
}

bool DcfMac::enqueue(const QueueKey& key, const net::Packet& packet)
{
    if (down_) return false;  // callers account the drop (node-down bucket)
    MacQueue& queue = queues_.ensure(key);
    const bool accepted = queue.push(packet);
    maybe_start_work();
    return accepted;
}

bool DcfMac::enqueue(const QueueKey& key, net::Packet&& packet)
{
    if (down_) return false;  // callers account the drop (node-down bucket)
    MacQueue& queue = queues_.ensure(key);
    const bool accepted = queue.push(std::move(packet));
    maybe_start_work();
    return accepted;
}

void DcfMac::quiesce()
{
    if (down_) return;
    down_ = true;
    coordinator_.unregister(*this);  // no-op when not registered
    ack_timer_.cancel();
    cts_timer_.cancel();
    // The control trigger, the CTS follow-up and the NAV expiry are all
    // cancellable, so a teardown leaves nothing armed: no stale event can
    // ever fire into a revived MAC's fresh control queue and violate SIFS
    // spacing.
    ctrl_timer_.cancel();
    cts_data_timer_.cancel();
    scheduler_.cancel(nav_event_);
    nav_event_ = {};
    pending_ctrl_.clear();
    ack_tx_scheduled_ = false;
    in_contention_ = false;
    current_queue_ = nullptr;
    // Surrender the batch in flight: the receiver may already hold any of
    // its MPDUs — one potential cloned outcome each. An A-MPDU batch was
    // dequeued at fill, so it leaves through ampdu_node_down_drops; a lone
    // MPDU is still queue backlog, which the flush below accounts exactly
    // once, in drops_node_down, never as a dequeue.
    const std::size_t flushed = ba_.flush();
    teardown_aborts_ += flushed;
    if (batch_ampdu_) ampdu_node_down_drops_ += flushed;
    retries_ = 0;
    backoff_remaining_ = 0;
    nav_until_ = 0;
    state_ = State::kIdle;
    queues_.flush_all_node_down();
}

void DcfMac::revive()
{
    if (!down_) return;
    down_ = false;
    // Neighbours' sequence numbers moved on while this node was dead;
    // stale scoreboard entries could suppress the first genuinely new
    // frame.
    ba_.clear_rx_state();
    maybe_start_work();
}

void DcfMac::set_ampdu_max_mpdus(int k)
{
    if (k < 1 || k > kMaxAmpduMpdus)
        throw std::invalid_argument("DcfMac::set_ampdu_max_mpdus: batch size outside [1, 64]");
    params_.ampdu_max_mpdus = k;
}

void DcfMac::set_queue_cw_min(const QueueKey& key, int cw)
{
    queues_.ensure(key).set_cw_min(cw);
}

int DcfMac::queue_cw_min(const QueueKey& key) const
{
    const MacQueue* queue = queues_.find(key);
    if (queue == nullptr) throw std::invalid_argument("DcfMac::queue_cw_min: unknown queue");
    return queue->cw_min();
}

void DcfMac::maybe_start_work()
{
    if (down_) return;
    if (state_ != State::kIdle) return;
    if (ack_tx_scheduled_) return;  // finish the ACK exchange first
    if (queues_.all_empty()) return;
    start_new_contention();
}

void DcfMac::start_new_contention()
{
    current_queue_ = queues_.next_nonempty();
    if (current_queue_ == nullptr) throw std::logic_error("DcfMac: no work to contend for");
    in_contention_ = true;
    // A NAV set while the MAC had nothing to send left its expiry
    // unscheduled; now the MAC waits on it. (A NAV ending at this very
    // instant no longer holds the MAC back, so resume_access ignores it.)
    if (scheduler_.now() < nav_until_ && !nav_event_.valid()) schedule_nav_expiry();
    retries_ = 0;
    // Fill the batch: the window persists across retries (only unsettled
    // MPDUs are retransmitted) and a new batch starts only once the
    // previous one settled completely.
    if (ba_.batch_active())
        throw std::logic_error("DcfMac: new contention with unsettled block-ack window");
    batch_ampdu_ = params_.ampdu_max_mpdus > 1;
    if (batch_ampdu_) {
        // The TXOP takes up to ampdu_max_mpdus packets off the queue.
        batch_fill_.clear();
        current_queue_->pop_batch(params_.ampdu_max_mpdus, params_.ampdu_max_bytes, batch_fill_);
        for (net::Packet& packet : batch_fill_) ba_.add_mpdu(std::move(packet), next_seq_++);
        batch_fill_.clear();
    } else {
        // The head packet alone; it stays queue backlog until it settles.
        ba_.add_mpdu(net::Packet(current_queue_->front()), next_seq_++);
    }
    backoff_remaining_ = rng_.uniform_int(0, effective_cw() - 1);
    resume_access();
}

int DcfMac::effective_cw() const
{
    if (current_queue_ == nullptr) throw std::logic_error("DcfMac::effective_cw: no queue");
    const int base = current_queue_->cw_min();
    const int cap = std::max(params_.cw_max_escalation, base);
    // Escalate binary-exponentially; guard against shift overflow.
    long long cw = base;
    for (int i = 0; i < retries_ && cw < cap; ++i) cw *= 2;
    return static_cast<int>(std::min<long long>(cw, cap));
}

bool DcfMac::medium_busy() const
{
    return phy_.busy() || scheduler_.now() < nav_until_;
}

void DcfMac::resume_access()
{
    if (!in_contention_) throw std::logic_error("DcfMac::resume_access: no contention context");
    if (medium_busy()) {
        state_ = State::kWaitMediumIdle;
        return;
    }
    start_difs();
}

void DcfMac::start_difs()
{
    state_ = State::kContending;
    // EIFS replaces DIFS when the last sensed busy period could not be
    // decoded: the station must leave room for an exchange (ACK) it may
    // have jammed or missed. The coordinator owns the whole wait — DIFS
    // end, per-slot decrements, and the expiry — in one registration.
    const SimTime wait = phy_.last_rx_error() ? params_.eifs_us : params_.difs_us;
    coordinator_.register_access(*this, wait, backoff_remaining_, params_.slot_us);
}

void DcfMac::set_nav_for_ack(bool ampdu)
{
    const phy::FrameType ack = ampdu ? phy::FrameType::kBlockAck : phy::FrameType::kAck;
    set_nav_until(scheduler_.now() + params_.sifs_us + phy_.channel_params().control_duration(ack));
}

void DcfMac::set_nav_until(SimTime until)
{
    if (until <= nav_until_ || until <= scheduler_.now()) return;
    nav_until_ = until;
    if (state_ == State::kContending) {
        freeze_contention();
        state_ = State::kWaitMediumIdle;
    }
    // The expiry's FIFO place is taken here, after the freeze (which may
    // arm the coordinator), but the event is scheduled only for a MAC
    // that contends: on_nav_expired does nothing for any other.
    scheduler_.cancel(nav_event_);  // superseded: it would fire inside this NAV
    nav_event_ = {};
    nav_place_ = scheduler_.reserve();
    if (in_contention_) schedule_nav_expiry();
}

void DcfMac::schedule_nav_expiry()
{
    nav_event_ = scheduler_.schedule_reserved(nav_until_, nav_place_, [this] { on_nav_expired(); });
}

void DcfMac::on_nav_expired()
{
    nav_event_ = {};
    if (state_ == State::kWaitMediumIdle && in_contention_ && !ack_tx_scheduled_ && !medium_busy())
        start_difs();
}

void DcfMac::freeze_contention()
{
    // The coordinator reports every decrement that elapsed, the DIFS-end
    // one included; a freeze still inside the DIFS consumes nothing.
    backoff_remaining_ -= coordinator_.freeze(*this);
}

void DcfMac::backoff_expired()
{
    if (state_ != State::kContending || !in_contention_)
        throw std::logic_error("DcfMac::backoff_expired: not contending");
    backoff_remaining_ = 0;
    start_exchange();
}

void DcfMac::start_exchange()
{
    // One rate decision per attempt (retries re-ask, so the manager can
    // walk a failing link down); 0 = the fixed PHY default. The choice is
    // cached so the RTS duration field and the data frame agree on the
    // airtime.
    current_rate_bps_ = phy_.data_bitrate_for(current_queue_->key().next_hop);
    // An A-MPDU is always basic access: the block-ack exchange is its own
    // protection and RTS/CTS duration fields cannot describe a
    // selective-retransmit TXOP.
    if (!batch_ampdu_ && params_.rts_cts_enabled &&
        ba_.window().front().packet.bytes >= params_.rts_threshold_bytes) {
        transmit_rts();
        return;
    }
    transmit_batch();
}

void DcfMac::transmit_rts()
{
    state_ = State::kTxRts;
    const phy::PhyParams& phy_params = phy_.channel_params();
    phy::Frame rts;
    rts.type = phy::FrameType::kRts;
    rts.tx_node = phy_.id();
    rts.rx_node = current_queue_->key().next_hop;
    rts.mac_seq = ba_.window_start();
    rts.retry = retries_;
    // Duration: the rest of the exchange after the RTS ends.
    rts.duration_us = 3 * params_.sifs_us + phy_params.control_duration(phy::FrameType::kCts) +
                      phy_params.tx_duration(data_frame()) +
                      phy_params.control_duration(phy::FrameType::kAck);
    phy_.start_tx(std::move(rts));
}

void DcfMac::transmit_batch()
{
    state_ = State::kTxData;
    if (retries_ == 0) {
        // First attempt of a fresh batch: its MPDUs reach the air.
        for (BlockAckManager::SenderEntry& entry : ba_.window()) {
            if (entry.packet.first_tx_at < 0) entry.packet.first_tx_at = scheduler_.now();
            if (callbacks_ != nullptr)
                callbacks_->mac_first_tx(current_queue_->key(), entry.packet);
        }
    }
    ++data_attempts_;
    if (retries_ > 0) ++retransmissions_;
    phy_.start_tx(data_frame());
}

phy::Frame DcfMac::data_frame() const
{
    phy::Frame frame;
    frame.type = phy::FrameType::kData;
    frame.tx_node = phy_.id();
    frame.rx_node = current_queue_->key().next_hop;
    frame.mac_seq = ba_.window_start();
    frame.ba_start_seq = ba_.window_start();
    frame.retry = retries_;
    frame.bitrate_bps = current_rate_bps_;
    frame.ampdu = batch_ampdu_;
    frame.mpdus.reserve(ba_.window().size());
    for (const BlockAckManager::SenderEntry& entry : ba_.window())
        frame.mpdus.push_back(phy::Mpdu{entry.packet, entry.seq, entry.retry});
    return frame;
}

void DcfMac::phy_tx_done(const phy::Frame& frame)
{
    if (frame.type == phy::FrameType::kAck || frame.type == phy::FrameType::kCts ||
        frame.type == phy::FrameType::kBlockAck) {
        if (frame.type == phy::FrameType::kAck) ++acks_sent_;
        if (frame.type == phy::FrameType::kBlockAck) ++block_acks_sent_;
        ack_tx_scheduled_ = false;
        if (!pending_ctrl_.empty()) {
            schedule_control_if_needed();
            return;
        }
        // Resume whatever the contention machine was doing.
        if (in_contention_) {
            resume_access();
        } else {
            state_ = State::kIdle;
            maybe_start_work();
        }
        return;
    }
    const phy::PhyParams& phy_params = phy_.channel_params();
    if (frame.type == phy::FrameType::kRts) {
        // RTS sent: await the CTS.
        state_ = State::kWaitCts;
        cts_timer_.arm_in(params_.sifs_us + phy_params.control_duration(phy::FrameType::kCts) +
                          params_.ack_timeout_slack_us);
        return;
    }
    // Data frame sent: await the ACK (block-ack for an A-MPDU).
    state_ = State::kWaitAck;
    const phy::FrameType ack = frame.ampdu ? phy::FrameType::kBlockAck : phy::FrameType::kAck;
    ack_timer_.arm_in(params_.sifs_us + phy_params.control_duration(ack) +
                      params_.ack_timeout_slack_us);
}

void DcfMac::phy_frame_decoded(const phy::Frame& frame)
{
    if (frame.rx_node != phy_.id()) {
        // Virtual carrier sense. A decoded foreign data frame announces
        // its ACK exchange; foreign RTS/CTS frames carry the remaining
        // exchange duration explicitly.
        if (frame.type == phy::FrameType::kData) {
            set_nav_for_ack(frame.ampdu);
        } else if (frame.type == phy::FrameType::kRts || frame.type == phy::FrameType::kCts) {
            set_nav_until(scheduler_.now() + frame.duration_us);
        }
        if (callbacks_ != nullptr) callbacks_->mac_sniffed(frame);
        return;
    }
    switch (frame.type) {
        case phy::FrameType::kAck:
        case phy::FrameType::kBlockAck: {
            // The response that settles the batch: a normal ACK echoing a
            // lone MPDU's sequence, or a compressed block-ack for an
            // A-MPDU. An ACK is a block-ack of that one sequence.
            const bool ack = frame.type == phy::FrameType::kAck;
            if (state_ != State::kWaitAck || ack == batch_ampdu_ ||
                frame.tx_node != current_queue_->key().next_hop ||
                (ack && frame.mac_seq != ba_.window_start()))
                return;
            ack_timer_.cancel();
            const BlockAckManager::Settled& settled =
                ack ? ba_.on_block_ack(frame.mac_seq, 1, params_.retry_limit)
                    : ba_.on_block_ack(frame.ba_start_seq, frame.ba_bitmap, params_.retry_limit);
            phy_.report_tx_result(frame.tx_node, /*success=*/!settled.acked.empty());
            settle(settled);
            return;
        }
        case phy::FrameType::kCts:
            if (state_ == State::kWaitCts && frame.mac_seq == ba_.window_start() &&
                frame.tx_node == current_queue_->key().next_hop) {
                cts_timer_.cancel();
                // Data follows the CTS after SIFS, without re-contending.
                cts_data_timer_.arm_in(params_.sifs_us);
            }
            return;
        case phy::FrameType::kRts: {
            // Answer with a CTS advertising the rest of the exchange.
            const SimTime cts_air = phy_.channel_params().control_duration(phy::FrameType::kCts);
            const SimTime remaining = frame.duration_us - params_.sifs_us - cts_air;
            pending_ctrl_.push_back(
                PendingControl{phy::FrameType::kCts, frame.tx_node, frame.mac_seq,
                               std::max<SimTime>(0, remaining)});
            schedule_control_if_needed();
            return;
        }
        case phy::FrameType::kData: {
            // Score the surviving MPDUs against the originator's
            // scoreboard — the duplicate filter for every frame (the PHY's
            // per-MPDU verdict is valid during this callback) — answer
            // after SIFS with a compressed block-ack for an A-MPDU or a
            // normal ACK otherwise, and hand the new MPDUs plus the
            // release threshold to the reorder buffer upstairs.
            const BlockAckManager::RxVerdict verdict =
                ba_.receive(frame, phy_.last_decode_mpdu_errors());
            dup_rx_suppressed_ += verdict.duplicates;
            PendingControl ctrl{phy::FrameType::kAck, frame.tx_node, frame.mac_seq, 0};
            if (frame.ampdu) {
                const BlockAckManager::BaResponse response = ba_.response_for(frame.tx_node);
                ctrl.type = phy::FrameType::kBlockAck;
                ctrl.ba_start = response.start;
                ctrl.ba_bitmap = response.bitmap;
            }
            pending_ctrl_.push_back(ctrl);
            schedule_control_if_needed();
            if (callbacks_ != nullptr)
                callbacks_->mac_rx(frame, verdict.ok_bits, verdict.release_below);
            return;
        }
    }
}

void DcfMac::schedule_control_if_needed()
{
    if (ack_tx_scheduled_ || pending_ctrl_.empty()) return;
    ack_tx_scheduled_ = true;
    // Control responses have SIFS priority: suspend the contention wait.
    if (state_ == State::kContending) {
        freeze_contention();
        state_ = State::kWaitMediumIdle;  // re-entered after the response
    }
    ctrl_timer_.arm_in(params_.sifs_us);
}

void DcfMac::send_pending_control()
{
    // Stale triggers cannot reach here (quiesce cancels the timer); the
    // state guards below cover same-lifetime races only.
    if (down_ || pending_ctrl_.empty()) return;
    if (phy_.transmitting()) {
        // Extremely rare: our own transmission started in the SIFS
        // window. Retry shortly after.
        ctrl_timer_.arm_in(params_.slot_us);
        return;
    }
    const PendingControl ctrl = pending_ctrl_.front();
    pending_ctrl_.erase(pending_ctrl_.begin());
    phy::Frame frame;
    frame.type = ctrl.type;
    frame.tx_node = phy_.id();
    frame.rx_node = ctrl.to;
    frame.mac_seq = ctrl.seq;
    frame.duration_us = ctrl.duration_us;
    frame.ba_start_seq = ctrl.ba_start;
    frame.ba_bitmap = ctrl.ba_bitmap;
    // SIFS-timed response: its trigger was scheduled after any contending
    // station's virtual slot re-arm one slot earlier, so boundary ties
    // resolve in the contenders' favour (late_trigger = true).
    coordinator_.begin_external_tx(/*late_trigger=*/true);
    phy_.start_tx(std::move(frame));
    coordinator_.end_external_tx();
}

void DcfMac::on_cts_data_follow_up()
{
    if (state_ == State::kWaitCts && !phy_.transmitting()) {
        coordinator_.begin_external_tx(/*late_trigger=*/true);
        transmit_batch();
        coordinator_.end_external_tx();
    }
}

void DcfMac::settle(const BlockAckManager::Settled& settled)
{
    const QueueKey key = current_queue_->key();
    // A lone MPDU stayed queue backlog while in flight; it leaves the
    // queue now that it settled.
    if (!batch_ampdu_ && !ba_.batch_active()) current_queue_->pop();
    for (const BlockAckManager::SenderEntry& entry : settled.acked) {
        ++successes_;
        if (callbacks_ != nullptr) callbacks_->mac_tx_success(key, entry.packet);
    }
    for (const BlockAckManager::SenderEntry& entry : settled.dropped) {
        ++retry_drops_;
        if (callbacks_ != nullptr) callbacks_->mac_tx_drop(key, entry.packet);
    }
    if (ba_.batch_active()) {
        // Selective retransmit of the remainder: escalate and re-contend.
        ++retries_;
        backoff_remaining_ = rng_.uniform_int(0, effective_cw() - 1);
        resume_access();
        return;
    }
    in_contention_ = false;
    current_queue_ = nullptr;
    retries_ = 0;
    state_ = State::kIdle;
    maybe_start_work();
}

void DcfMac::on_ack_timeout()
{
    if (state_ != State::kWaitAck) throw std::logic_error("DcfMac::on_ack_timeout: bad state");
    // No response at all: every MPDU of the batch burns a retry.
    phy_.report_tx_result(current_queue_->key().next_hop, /*success=*/false);
    settle(ba_.on_timeout(params_.retry_limit));
}

void DcfMac::on_cts_timeout()
{
    if (state_ != State::kWaitCts) throw std::logic_error("DcfMac::on_cts_timeout: bad state");
    // The protected MPDU burns a retry; no data frame went out, so the
    // rate manager hears nothing.
    settle(ba_.on_timeout(params_.retry_limit));
}

void DcfMac::phy_busy_changed(bool busy)
{
    if (down_) return;
    if (busy) {
        if (state_ == State::kContending) {
            freeze_contention();
            state_ = State::kWaitMediumIdle;
        }
        return;
    }
    // Physical carrier became idle; the NAV may still hold us back (its
    // expiry event re-checks).
    if (state_ == State::kWaitMediumIdle && in_contention_ && !ack_tx_scheduled_ &&
        !medium_busy()) {
        start_difs();
    }
}

}  // namespace ezflow::mac
