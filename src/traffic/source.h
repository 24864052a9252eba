#pragma once

#include <cstdint>

#include "mac/mac_queue.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/scheduler.h"

namespace ezflow::traffic {

using util::SimTime;

/// Constant bit rate source (the paper's workload: CBR at 2 Mb/s to keep
/// sources saturated): generates packets of a flow at a node between
/// start/stop times. Packets enter the node's own-traffic MAC queue; when
/// it is full they are dropped at the source, which is how a saturated
/// (greedy) application behaves on real hardware.
///
/// Emissions follow an error-carrying ideal timeline: the n-th packet is
/// due floor(n * payload_bits / rate) after start, so the realized rate
/// matches the nominal one even when the ideal interval is not a whole
/// number of microseconds (a single truncated interval would
/// systematically exceed the nominal rate). Rates that divide
/// payload*8e6 evenly — all the paper's — produce a uniform grid.
///
/// Saturated sources are backpressure-gated: when an emission finds the
/// own-traffic queue full, the source stops burning one scheduler event
/// per nominal packet period and instead registers a vacancy callback
/// with the MAC queue (mac::VacancyWaiter). The generations that a
/// one-event-per-period emitter would have produced — and dropped — while
/// the queue stayed full are accounted in closed form when the queue
/// frees a slot (or when stats() is read), consuming the same
/// per-generation next_interval() steps in the same order, so packet
/// sequence numbers, per-queue/per-node drop counters and delivery order
/// are identical to that reference. The reference lives in
/// tests/reference_source.h; tests/traffic_test.cpp races the two.
///
/// Residual tie caveat: an emit re-materialized at a vacancy is
/// scheduled "now", so against an unrelated event scheduled during the
/// gated stretch and firing at the exact same microsecond it sorts
/// after, where the reference's long-armed emit sorted first. The pair
/// only interacts if that event touches the same node's queue/MAC state
/// within the instant — and the MAC cannot be idle right after a gated
/// stretch (>= capacity-1 packets remain), so the enqueue commutes; the
/// committed goldens and the seeded gated-vs-reference races pin the
/// practical space down.
///
/// Lifetime: a source references its Network (and, while gated, the MAC
/// queue it waits on), so it must be destroyed before the Network —
/// declare sources after the network/scenario that owns it, as every
/// in-tree user does.
class CbrSource final : private mac::VacancyWaiter {
public:
    struct Stats {
        std::uint64_t generated = 0;
        std::uint64_t accepted = 0;
        std::uint64_t dropped_at_source = 0;
        /// Generations accounted in closed form instead of an event each
        /// (a subset of dropped_at_source).
        std::uint64_t gated_skips = 0;
        /// Retry waits taken because the flow was unroutable (source node
        /// down or flow suspended). The application pauses — no
        /// generations, no drops — and re-probes with exponential
        /// backoff instead of spinning one doomed send per period.
        std::uint64_t backoff_retries = 0;
    };

    /// `rate_bps` must be finite, positive and large enough that one
    /// packet interval fits the microsecond clock.
    CbrSource(net::Network& network, int flow_id, int payload_bytes, double rate_bps);
    ~CbrSource() override;
    CbrSource(const CbrSource&) = delete;
    CbrSource& operator=(const CbrSource&) = delete;

    /// Schedule the active period [start, stop). Call once.
    void activate(SimTime start, SimTime stop);

    /// Whether the source is currently parked on a vacancy callback.
    bool gated() const { return gated_; }

    /// Settles any closed-form accounting up to now() first, so the
    /// counters always match the per-packet reference.
    const Stats& stats();
    int flow_id() const { return flow_id_; }

private:
    /// Time until the next packet (strictly positive) on the ideal
    /// timeline. Called exactly once per generation — real or
    /// closed-form — in generation order.
    SimTime next_interval();
    void emit();
    /// Whether a packet generated now could leave this node at all: the
    /// source node is up and the flow has not been suspended by route
    /// repair. Checked before generating so an outage produces a paused
    /// application, not a stream of spurious per-period drops.
    bool routable() const;
    /// Account generations the reference would have dropped while the
    /// queue stayed full, up to `horizon`. `include_boundary`: whether a
    /// generation exactly at `horizon` fires before the running event
    /// (scheduler FIFO; see vacancy_prepare). Returns false when the
    /// chain left its active period (no further generations).
    bool settle(SimTime horizon, bool include_boundary);
    /// FIFO tie-break for a virtual generation due exactly now against
    /// the currently running event (true outside event execution).
    bool boundary_emit_fires_first() const;
    /// Account `count` skipped generations at once (nothing when 0).
    void account_skipped_generations(std::uint64_t count);
    void enter_gate(mac::MacQueue& queue);

    // --- mac::VacancyWaiter ---
    Resume vacancy_prepare() override;
    void vacancy_commit() override;

    net::Network& network_;
    /// The source node's shard scheduler: emissions are events of the
    /// shard that owns the source node, never of shard 0.
    sim::Scheduler* scheduler_ = nullptr;
    int flow_id_;
    int payload_bytes_;
    double ideal_interval_us_ = 0.0;
    std::uint64_t ticks_ = 0;  ///< intervals elapsed on the ideal timeline
    net::NodeId src_node_;
    net::NodeId dst_node_;
    SimTime stop_at_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_uid_base_ = 0;
    Stats stats_;
    bool activated_ = false;

    bool gated_ = false;
    mac::MacQueue* gate_queue_ = nullptr;  ///< registered waiter target
    /// Next pending generation instant (the emit event's fire time, real
    /// or virtual) and the instant of the chain event that scheduled it
    /// (its scheduler-FIFO tie-break key against other events).
    SimTime next_emit_at_ = 0;
    SimTime chain_scheduled_at_ = 0;
    /// Sequence number the pending virtual emit would have received had
    /// the reference scheduled it (snapshotted at gate entry, where the
    /// chain event is real); kUnknownSeq once the chain advances through
    /// closed-form instants, whose scheduling seqs never materialized.
    static constexpr std::uint64_t kUnknownSeq = ~0ull;
    std::uint64_t virtual_chain_seq_ = kUnknownSeq;
    bool chain_dead_ = false;  ///< left [start, stop): no more generations

    /// Retry-with-backoff while unroutable: doubling wait, reset on the
    /// first routable emission.
    static constexpr SimTime kRetryBackoffBaseUs = 10'000;  ///< 10 ms
    static constexpr SimTime kRetryBackoffMaxUs = 200'000;  ///< 200 ms
    SimTime retry_backoff_us_ = kRetryBackoffBaseUs;
};

}  // namespace ezflow::traffic
