#include "traffic/source.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ezflow::traffic {

CbrSource::CbrSource(net::Network& network, int flow_id, int payload_bytes, double rate_bps)
    : network_(network), flow_id_(flow_id), payload_bytes_(payload_bytes)
{
    if (payload_bytes <= 0) throw std::invalid_argument("CbrSource: payload must be > 0");
    // A NaN rate passes `rate_bps <= 0`, so ask for what is wanted. An
    // interval beyond the clock's range makes next_interval's cast undefined.
    if (!(std::isfinite(rate_bps) && rate_bps > 0.0))
        throw std::invalid_argument("CbrSource: rate must be finite and > 0");
    ideal_interval_us_ = static_cast<double>(payload_bytes) * 8.0 * 1e6 / rate_bps;
    if (!(ideal_interval_us_ < static_cast<double>(std::numeric_limits<SimTime>::max())))
        throw std::invalid_argument("CbrSource: rate too small for the microsecond clock");
    const auto& path = network.routing_table().path(flow_id);
    src_node_ = path.front();
    dst_node_ = path.back();
    scheduler_ = &network.scheduler_for(src_node_);
    // Partition the uid space per flow so packet uids stay globally unique.
    next_uid_base_ = static_cast<std::uint64_t>(flow_id + 1) << 40;
}

CbrSource::~CbrSource()
{
    if (gated_ && gate_queue_ != nullptr) gate_queue_->remove_vacancy_waiter(this);
}

void CbrSource::activate(SimTime start, SimTime stop)
{
    if (activated_) throw std::logic_error("CbrSource::activate: already activated");
    if (stop <= start) throw std::invalid_argument("CbrSource::activate: empty active period");
    activated_ = true;
    stop_at_ = stop;
    chain_scheduled_at_ = scheduler_->now();
    next_emit_at_ = start;
    scheduler_->schedule_at(start, [this] { emit(); });
}

bool CbrSource::boundary_emit_fires_first() const
{
    // Whether a virtual generation due exactly now would already have
    // fired before the currently running event: its (virtual) emit event
    // was scheduled at chain_scheduled_at_, so scheduler FIFO puts it
    // first iff that is before the running event's scheduling instant.
    // Outside event execution (after run_until drained the instant)
    // every same-instant event has fired, so the boundary is always
    // included.
    const SimTime running = scheduler_->current_event_scheduled_at();
    if (running < 0) return true;
    if (chain_scheduled_at_ != running) return chain_scheduled_at_ < running;
    // Scheduled at the same instant: exact when the chain event was real
    // (gate entry snapshotted the seq the reference's emit would have
    // consumed). The gated run never consumed that seq, so every event
    // scheduled after gate entry carries a seq >= the snapshot while the
    // reference would have placed it after the emit — hence <=, not <.
    // After closed-form advances the chain event never ran, so the seq
    // is unknowable; treat the chain as first, matching the common case
    // of chains armed before the interleaving event.
    if (virtual_chain_seq_ != kUnknownSeq)
        return virtual_chain_seq_ <= scheduler_->current_event_seq();
    return true;
}

const CbrSource::Stats& CbrSource::stats()
{
    // While gated there are no emit events; bring the closed-form
    // accounting up to date so readers see the reference counters.
    if (gated_) settle(scheduler_->now(), boundary_emit_fires_first());
    return stats_;
}

bool CbrSource::routable() const
{
    return network_.node_is_up(src_node_) && !network_.routing_table().is_suspended(flow_id_);
}

void CbrSource::emit()
{
    if (scheduler_->now() >= stop_at_) {
        chain_dead_ = true;
        return;
    }

    if (!routable()) {
        // The source node is down or the flow is suspended (partition).
        // Pause the application: nothing is generated (no next_interval
        // step — the CBR timeline resumes where it left off) and the
        // probe backs off exponentially instead of spinning.
        ++stats_.backoff_retries;
        const SimTime delay = retry_backoff_us_;
        retry_backoff_us_ = std::min(retry_backoff_us_ * 2, kRetryBackoffMaxUs);
        chain_scheduled_at_ = scheduler_->now();
        next_emit_at_ = scheduler_->now() + delay;
        virtual_chain_seq_ = kUnknownSeq;
        scheduler_->schedule_at(next_emit_at_, [this] { emit(); });
        return;
    }
    retry_backoff_us_ = kRetryBackoffBaseUs;

    net::Packet packet;
    packet.uid = next_uid_base_ + next_seq_;
    packet.flow_id = flow_id_;
    packet.seq = next_seq_++;
    packet.src = src_node_;
    packet.dst = dst_node_;
    packet.bytes = payload_bytes_;
    packet.checksum =
        net::packet_checksum(flow_id_, packet.seq, src_node_, dst_node_, payload_bytes_);
    packet.created_at = scheduler_->now();

    ++stats_.generated;
    const bool accepted = network_.node(src_node_).send(std::move(packet));
    if (accepted)
        ++stats_.accepted;
    else
        ++stats_.dropped_at_source;

    const SimTime gap = std::max<SimTime>(1, next_interval());
    chain_scheduled_at_ = scheduler_->now();
    next_emit_at_ = scheduler_->now() + gap;

    if (!accepted) {
        // The own-traffic queue is full (a failed send means the MAC
        // queue dropped the packet; an interceptor that consumed it
        // would have reported acceptance). Park on a vacancy callback
        // instead of burning one event per generated-and-dropped packet.
        // Snapshot the seq the reference's schedule call would consume
        // right here, so an exact same-instant FIFO tie against the
        // never-materialized emit event stays decidable.
        if (mac::MacQueue* queue = network_.node(src_node_).own_traffic_queue(flow_id_)) {
            virtual_chain_seq_ = scheduler_->next_event_seq();
            enter_gate(*queue);
            return;
        }
    }
    scheduler_->schedule_at(next_emit_at_, [this] { emit(); });
}

void CbrSource::enter_gate(mac::MacQueue& queue)
{
    queue.add_vacancy_waiter(this);
    gate_queue_ = &queue;
    gated_ = true;
}

void CbrSource::account_skipped_generations(std::uint64_t count)
{
    // What the per-packet reference would have done at each skipped
    // instant with a full queue: generate, consume a sequence number, push
    // (counting a queue drop), and count the source-side drop.
    if (count == 0) return;
    stats_.generated += count;
    stats_.dropped_at_source += count;
    stats_.gated_skips += count;
    next_seq_ += count;
    if (gate_queue_ != nullptr) gate_queue_->count_gated_drops(count);
    network_.node(src_node_).count_gated_source_drops(count);
}

bool CbrSource::settle(SimTime horizon, bool include_boundary)
{
    if (chain_dead_) return false;
    std::uint64_t skipped = 0;
    while (next_emit_at_ < horizon || (include_boundary && next_emit_at_ == horizon)) {
        if (next_emit_at_ >= stop_at_) {
            chain_dead_ = true;
            break;
        }
        ++skipped;
        const SimTime gap = std::max<SimTime>(1, next_interval());
        chain_scheduled_at_ = next_emit_at_;
        virtual_chain_seq_ = kUnknownSeq;  // this chain event never ran
        next_emit_at_ += gap;
    }
    account_skipped_generations(skipped);  // once per call, not per skip
    return !chain_dead_;
}

CbrSource::Resume CbrSource::vacancy_prepare()
{
    // The queue detached this registration before calling; we are no
    // longer parked either way.
    gated_ = false;
    // A generation due exactly at the pop instant fires before the
    // popping event — and therefore still found the queue full — iff its
    // (virtual) emit event was scheduled no later than the popping event
    // (scheduler FIFO among same-instant events; see
    // boundary_emit_fires_first for the equal-instant caveat).
    if (!settle(scheduler_->now(), boundary_emit_fires_first())) {
        gate_queue_ = nullptr;
        return Resume{};
    }
    return Resume{next_emit_at_, chain_scheduled_at_};
}

void CbrSource::vacancy_commit()
{
    gate_queue_ = nullptr;
    scheduler_->schedule_at(next_emit_at_, [this] { emit(); });
}

SimTime CbrSource::next_interval()
{
    // Error-carrying ideal timeline: packet n is due floor(n * ideal)
    // after activation, so truncation error never accumulates into a
    // systematic rate offset. Exact-microsecond ideals (all paper rates)
    // degenerate to the uniform grid.
    const double prev = static_cast<double>(ticks_) * ideal_interval_us_;
    ++ticks_;
    const double next = static_cast<double>(ticks_) * ideal_interval_us_;
    return std::max<SimTime>(1, static_cast<SimTime>(std::floor(next)) -
                                    static_cast<SimTime>(std::floor(prev)));
}

}  // namespace ezflow::traffic
