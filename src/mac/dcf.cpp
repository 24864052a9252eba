#include "mac/dcf.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ezflow::mac {

DcfMac::DcfMac(phy::NodePhy& phy, ContentionCoordinator& coordinator, util::Rng rng,
               const MacParams& params)
    : phy_(phy), coordinator_(coordinator), rng_(std::move(rng)), params_(params)
{
    phy_.set_listener(this);
}

DcfMac::Exchange::Exchange(DcfMac& mac)
    : ack_timer(sim::Timer::bind<&DcfMac::on_ack_timeout>(mac.scheduler(), mac)),
      cts_timer(sim::Timer::bind<&DcfMac::on_cts_timeout>(mac.scheduler(), mac)),
      ctrl_timer(sim::Timer::bind<&DcfMac::send_pending_control>(mac.scheduler(), mac)),
      cts_data_timer(sim::Timer::bind<&DcfMac::on_cts_data_follow_up>(mac.scheduler(), mac))
{
}

DcfMac::~DcfMac()
{
    // Only an exchange registers with the coordinator; its timers cancel
    // themselves when it is destroyed.
    if (ex_) coordinator_.unregister(*this);
    scheduler().cancel(nav_event_);
}

DcfMac::Exchange& DcfMac::exchange()
{
    if (!ex_) ex_ = std::make_unique<Exchange>(*this);
    return *ex_;
}

bool DcfMac::enqueue(const QueueKey& key, net::Packet packet)
{
    if (down_) return false;  // callers account the drop (node-down bucket)
    exchange();               // a MAC with work contends through its exchange
    const bool accepted = queues_.ensure(key, params_).push(packet);
    maybe_start_work();
    return accepted;
}

void DcfMac::quiesce()
{
    if (down_) return;
    down_ = true;
    // The NAV expiry, and with an exchange the control trigger and the CTS
    // follow-up, are all cancellable, so a teardown leaves nothing armed:
    // no stale event can ever fire into a revived MAC's fresh control
    // queue and violate SIFS spacing.
    scheduler().cancel(nav_event_);
    nav_event_ = {};
    nav_until_ = 0;
    if (ex_) {
        Exchange& ex = *ex_;
        coordinator_.unregister(*this);  // no-op when not registered
        ex.ack_timer.cancel();
        ex.cts_timer.cancel();
        ex.ctrl_timer.cancel();
        ex.cts_data_timer.cancel();
        ex.pending_ctrl.clear();
        ex.ack_tx_scheduled = false;
        ex.in_contention = false;
        ex.current_queue = nullptr;
        // Surrender the batch in flight: the receiver may already hold any
        // of its MPDUs — one potential cloned outcome each. An A-MPDU batch
        // was dequeued at fill, so it leaves through ampdu_node_down_drops;
        // a lone MPDU is still queue backlog, which the flush below
        // accounts exactly once, in drops_node_down, never as a dequeue.
        const std::size_t flushed = ex.ba.flush();
        ex.teardown_aborts += flushed;
        if (ex.batch_ampdu) ex.ampdu_node_down_drops += flushed;
        ex.retries = 0;
        ex.backoff_remaining = 0;
    }
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
    if (ex_) ex_->ba.clear_rx_state();
    maybe_start_work();
}

void DcfMac::set_queue_cw_min(const QueueKey& key, int cw)
{
    queues_.ensure(key, params_).set_cw_min(cw);
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
    if (!ex_) return;                   // nothing was ever enqueued
    if (ex_->ack_tx_scheduled) return;  // finish the ACK exchange first
    if (queues_.all_empty()) return;
    start_new_contention();
}

void DcfMac::start_new_contention()
{
    Exchange& ex = *ex_;
    ex.current_queue = queues_.next_nonempty();
    if (ex.current_queue == nullptr) throw std::logic_error("DcfMac: no work to contend for");
    ex.in_contention = true;
    // A NAV set while the MAC had nothing to send left its expiry
    // unscheduled; now the MAC waits on it. (A NAV ending at this very
    // instant no longer holds the MAC back, so resume_access ignores it.)
    if (scheduler().now() < nav_until_ && !nav_event_.valid()) schedule_nav_expiry();
    ex.retries = 0;
    // Fill the batch: the window persists across retries (only unsettled
    // MPDUs are retransmitted) and a new batch starts only once the
    // previous one settled completely.
    if (ex.ba.batch_active())
        throw std::logic_error("DcfMac: new contention with unsettled block-ack window");
    ex.batch_ampdu = params_.ampdu_max_mpdus > 1;
    if (ex.batch_ampdu) {
        // The TXOP takes up to ampdu_max_mpdus packets off the queue.
        ex.batch_fill.clear();
        ex.current_queue->pop_batch(params_.ampdu_max_mpdus, params_.ampdu_max_bytes,
                                    ex.batch_fill);
        for (net::Packet& packet : ex.batch_fill) ex.ba.add_mpdu(std::move(packet), ex.next_seq++);
        ex.batch_fill.clear();
    } else {
        // The head packet alone; it stays queue backlog until it settles.
        ex.ba.add_mpdu(net::Packet(ex.current_queue->front()), ex.next_seq++);
    }
    ex.backoff_remaining = rng_.uniform_int(0, effective_cw() - 1);
    resume_access();
}

int DcfMac::effective_cw() const
{
    const Exchange& ex = *ex_;
    if (ex.current_queue == nullptr) throw std::logic_error("DcfMac::effective_cw: no queue");
    const int base = ex.current_queue->cw_min();
    const int cap = std::max(params_.cw_max_escalation, base);
    // Escalate binary-exponentially; guard against shift overflow.
    long long cw = base;
    for (int i = 0; i < ex.retries && cw < cap; ++i) cw *= 2;
    return static_cast<int>(std::min<long long>(cw, cap));
}

bool DcfMac::medium_busy() const
{
    return phy_.busy() || scheduler().now() < nav_until_;
}

void DcfMac::resume_access()
{
    if (!ex_->in_contention)
        throw std::logic_error("DcfMac::resume_access: no contention context");
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
    coordinator_.register_access(*this, wait, ex_->backoff_remaining, params_.slot_us);
}

void DcfMac::set_nav_for_ack(bool ampdu)
{
    const phy::FrameType ack = ampdu ? phy::FrameType::kBlockAck : phy::FrameType::kAck;
    set_nav_until(scheduler().now() + params_.sifs_us +
                  phy_.channel_params().control_duration(ack));
}

void DcfMac::set_nav_until(SimTime until)
{
    if (until <= nav_until_ || until <= scheduler().now()) return;
    nav_until_ = until;
    if (state_ == State::kContending) {
        freeze_contention();
        state_ = State::kWaitMediumIdle;
    }
    // The expiry's FIFO place is taken here, after the freeze (which may
    // arm the coordinator), but the event is scheduled only for a MAC
    // that contends: on_nav_expired does nothing for any other.
    scheduler().cancel(nav_event_);  // superseded: it would fire inside this NAV
    nav_event_ = {};
    nav_place_ = scheduler().reserve();
    if (ex_ && ex_->in_contention) schedule_nav_expiry();
}

void DcfMac::schedule_nav_expiry()
{
    nav_event_ =
        scheduler().schedule_reserved(nav_until_, nav_place_, [this] { on_nav_expired(); });
}

void DcfMac::on_nav_expired()
{
    nav_event_ = {};
    // kWaitMediumIdle implies an exchange.
    if (state_ == State::kWaitMediumIdle && ex_->in_contention && !ex_->ack_tx_scheduled &&
        !medium_busy())
        start_difs();
}

void DcfMac::freeze_contention()
{
    // The coordinator reports every decrement that elapsed, the DIFS-end
    // one included; a freeze still inside the DIFS consumes nothing.
    ex_->backoff_remaining -= coordinator_.freeze(*this);
}

void DcfMac::backoff_expired()
{
    if (state_ != State::kContending || !ex_->in_contention)
        throw std::logic_error("DcfMac::backoff_expired: not contending");
    ex_->backoff_remaining = 0;
    start_exchange();
}

void DcfMac::start_exchange()
{
    Exchange& ex = *ex_;
    // An A-MPDU is always basic access: the block-ack exchange is its own
    // protection and RTS/CTS duration fields cannot describe a
    // selective-retransmit TXOP.
    if (!ex.batch_ampdu && params_.rts_cts_enabled &&
        ex.ba.window().front().packet.bytes >= params_.rts_threshold_bytes) {
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
    rts.rx_node = ex_->current_queue->key().next_hop;
    rts.mac_seq = ex_->ba.window_start();
    rts.retry = ex_->retries;
    // Duration: the rest of the exchange after the RTS ends.
    rts.duration_us = 3 * params_.sifs_us + phy_params.control_duration(phy::FrameType::kCts) +
                      phy_params.tx_duration(data_frame()) +
                      phy_params.control_duration(phy::FrameType::kAck);
    phy_.start_tx(std::move(rts));
}

void DcfMac::transmit_batch()
{
    state_ = State::kTxData;
    Exchange& ex = *ex_;
    if (ex.retries == 0) {
        // First attempt of a fresh batch: its MPDUs reach the air.
        for (BlockAckManager::SenderEntry& entry : ex.ba.window()) {
            if (entry.packet.first_tx_at < 0) entry.packet.first_tx_at = scheduler().now();
            if (callbacks_ != nullptr)
                callbacks_->mac_first_tx(ex.current_queue->key(), entry.packet);
        }
    }
    ++ex.data_attempts;
    if (ex.retries > 0) ++ex.retransmissions;
    phy_.start_tx(data_frame());
}

phy::Frame DcfMac::data_frame() const
{
    const Exchange& ex = *ex_;
    phy::Frame frame;
    frame.type = phy::FrameType::kData;
    frame.tx_node = phy_.id();
    frame.rx_node = ex.current_queue->key().next_hop;
    frame.mac_seq = ex.ba.window_start();
    frame.ba_start_seq = ex.ba.window_start();
    frame.retry = ex.retries;
    frame.ampdu = ex.batch_ampdu;
    frame.mpdus.reserve(ex.ba.window().size());
    for (const BlockAckManager::SenderEntry& entry : ex.ba.window())
        frame.mpdus.push_back(phy::Mpdu{entry.packet, entry.seq, entry.retry});
    return frame;
}

void DcfMac::phy_tx_done(const phy::Frame& frame)
{
    Exchange& ex = *ex_;  // only an exchange transmits
    if (frame.type == phy::FrameType::kAck || frame.type == phy::FrameType::kCts ||
        frame.type == phy::FrameType::kBlockAck) {
        if (frame.type == phy::FrameType::kAck) ++ex.acks_sent;
        if (frame.type == phy::FrameType::kBlockAck) ++ex.block_acks_sent;
        ex.ack_tx_scheduled = false;
        if (!ex.pending_ctrl.empty()) {
            schedule_control_if_needed();
            return;
        }
        // Resume whatever the contention machine was doing.
        if (ex.in_contention) {
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
        ex.cts_timer.arm_in(params_.sifs_us + phy_params.control_duration(phy::FrameType::kCts) +
                            params_.ack_timeout_slack_us);
        return;
    }
    // Data frame sent: await the ACK (block-ack for an A-MPDU).
    state_ = State::kWaitAck;
    const phy::FrameType ack = frame.ampdu ? phy::FrameType::kBlockAck : phy::FrameType::kAck;
    ex.ack_timer.arm_in(params_.sifs_us + phy_params.control_duration(ack) +
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
            set_nav_until(scheduler().now() + frame.duration_us);
        }
        if (callbacks_ != nullptr) callbacks_->mac_sniffed(frame);
        return;
    }
    switch (frame.type) {
        case phy::FrameType::kAck:
        case phy::FrameType::kBlockAck: {
            // The response that settles the batch: a normal ACK echoing a
            // lone MPDU's sequence, or a compressed block-ack for an
            // A-MPDU. An ACK is a block-ack of that one sequence. A MAC
            // waiting for one has an exchange; any other ignores it.
            const bool ack = frame.type == phy::FrameType::kAck;
            if (state_ != State::kWaitAck) return;
            Exchange& ex = *ex_;
            if (ack == ex.batch_ampdu || frame.tx_node != ex.current_queue->key().next_hop ||
                (ack && frame.mac_seq != ex.ba.window_start()))
                return;
            ex.ack_timer.cancel();
            const BlockAckManager::Settled& settled =
                ack ? ex.ba.on_block_ack(frame.mac_seq, 1, params_.retry_limit)
                    : ex.ba.on_block_ack(frame.ba_start_seq, frame.ba_bitmap, params_.retry_limit);
            settle(settled);
            return;
        }
        case phy::FrameType::kCts:
            if (state_ == State::kWaitCts && frame.mac_seq == ex_->ba.window_start() &&
                frame.tx_node == ex_->current_queue->key().next_hop) {
                ex_->cts_timer.cancel();
                // Data follows the CTS after SIFS, without re-contending.
                ex_->cts_data_timer.arm_in(params_.sifs_us);
            }
            return;
        case phy::FrameType::kRts: {
            // Answer with a CTS advertising the rest of the exchange.
            const SimTime cts_air = phy_.channel_params().control_duration(phy::FrameType::kCts);
            const SimTime remaining = frame.duration_us - params_.sifs_us - cts_air;
            exchange().pending_ctrl.push_back(
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
            Exchange& ex = exchange();
            const BlockAckManager::RxVerdict verdict =
                ex.ba.receive(frame, phy_.last_decode_mpdu_errors());
            ex.dup_rx_suppressed += verdict.duplicates;
            PendingControl ctrl{phy::FrameType::kAck, frame.tx_node, frame.mac_seq, 0};
            if (frame.ampdu) {
                const BlockAckManager::BaResponse response = ex.ba.response_for(frame.tx_node);
                ctrl.type = phy::FrameType::kBlockAck;
                ctrl.ba_start = response.start;
                ctrl.ba_bitmap = response.bitmap;
            }
            ex.pending_ctrl.push_back(ctrl);
            schedule_control_if_needed();
            if (callbacks_ != nullptr)
                callbacks_->mac_rx(frame, verdict.ok_bits, verdict.release_below);
            return;
        }
    }
}

void DcfMac::schedule_control_if_needed()
{
    Exchange& ex = *ex_;
    if (ex.ack_tx_scheduled || ex.pending_ctrl.empty()) return;
    ex.ack_tx_scheduled = true;
    // Control responses have SIFS priority: suspend the contention wait.
    if (state_ == State::kContending) {
        freeze_contention();
        state_ = State::kWaitMediumIdle;  // re-entered after the response
    }
    ex.ctrl_timer.arm_in(params_.sifs_us);
}

void DcfMac::send_pending_control()
{
    // Stale triggers cannot reach here (quiesce cancels the timer); the
    // state guards below cover same-lifetime races only.
    Exchange& ex = *ex_;
    if (down_ || ex.pending_ctrl.empty()) return;
    if (phy_.transmitting()) {
        // Extremely rare: our own transmission started in the SIFS
        // window. Retry shortly after.
        ex.ctrl_timer.arm_in(params_.slot_us);
        return;
    }
    const PendingControl ctrl = ex.pending_ctrl.front();
    ex.pending_ctrl.erase(ex.pending_ctrl.begin());
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
    Exchange& ex = *ex_;
    const QueueKey key = ex.current_queue->key();
    // A lone MPDU stayed queue backlog while in flight; it leaves the
    // queue now that it settled.
    if (!ex.batch_ampdu && !ex.ba.batch_active()) ex.current_queue->pop();
    for (const BlockAckManager::SenderEntry& entry : settled.acked) {
        ++ex.successes;
        if (callbacks_ != nullptr) callbacks_->mac_tx_success(key, entry.packet);
    }
    for (const BlockAckManager::SenderEntry& entry : settled.dropped) {
        ++ex.retry_drops;
        if (callbacks_ != nullptr) callbacks_->mac_tx_drop(key, entry.packet);
    }
    if (ex.ba.batch_active()) {
        // Selective retransmit of the remainder: escalate and re-contend.
        ++ex.retries;
        ex.backoff_remaining = rng_.uniform_int(0, effective_cw() - 1);
        resume_access();
        return;
    }
    ex.in_contention = false;
    ex.current_queue = nullptr;
    ex.retries = 0;
    state_ = State::kIdle;
    maybe_start_work();
}

void DcfMac::on_ack_timeout()
{
    if (state_ != State::kWaitAck) throw std::logic_error("DcfMac::on_ack_timeout: bad state");
    // No response at all: every MPDU of the batch burns a retry.
    settle(ex_->ba.on_timeout(params_.retry_limit));
}

void DcfMac::on_cts_timeout()
{
    if (state_ != State::kWaitCts) throw std::logic_error("DcfMac::on_cts_timeout: bad state");
    // The protected MPDU burns a retry.
    settle(ex_->ba.on_timeout(params_.retry_limit));
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
    // expiry event re-checks). kWaitMediumIdle implies an exchange.
    if (state_ == State::kWaitMediumIdle && ex_->in_contention && !ex_->ack_tx_scheduled &&
        !medium_busy()) {
        start_difs();
    }
}

}  // namespace ezflow::mac
