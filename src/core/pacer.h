#pragma once

#include <deque>
#include <map>
#include <memory>

#include "core/boe.h"
#include "core/caa.h"
#include "net/network.h"
#include "net/node.h"
#include "sim/timer.h"
#include "util/stats.h"

namespace ezflow::core {

/// Rate-based variant of EZ-Flow, the extension sketched in the paper's
/// conclusion for deployments that cannot (or should not) touch CWmin:
/// packets toward a successor are held in a routing-layer queue and
/// released to the MAC at a paced rate; the CAA decision logic is reused
/// verbatim, but its output steers the release interval instead of the
/// contention window (release interval scales with cw / min_cw, so the
/// x2 / /2 decisions of Algorithm 1 halve / double the pacing rate).
class PacedQueue {
public:
    /// `base_interval` is the release spacing at full aggressiveness
    /// (cw = min_cw); it should approximate one packet's channel time.
    PacedQueue(net::Network& network, net::NodeId node, mac::QueueKey key, CaaConfig config,
               int capacity, util::SimTime base_interval);
    PacedQueue(const PacedQueue&) = delete;
    PacedQueue& operator=(const PacedQueue&) = delete;

    /// Accept a packet into the routing-layer queue. Returns false (drop)
    /// when the queue is full.
    bool push(const net::Packet& packet);

    /// Feed a BOE sample (successor buffer estimate) into the pacing CAA.
    void on_sample(int estimate) { caa_.on_sample(estimate); }

    int size() const { return static_cast<int>(queue_.size()); }
    int capacity() const { return capacity_; }
    util::SimTime release_interval() const { return interval_; }
    const ChannelAccessAdaptation& caa() const { return caa_; }
    /// Pushes refused because this queue was full.
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t released() const { return released_; }
    /// Releases the MAC refused (its queue was full or the node down):
    /// the packet is lost here, and counted.
    std::uint64_t release_drops() const { return release_drops_; }

private:
    void schedule_release();
    void release_one();

    net::Network& network_;
    net::NodeId node_;
    mac::QueueKey key_;
    int capacity_;
    util::SimTime base_interval_;
    util::SimTime interval_;
    ChannelAccessAdaptation caa_;
    std::deque<net::Packet> queue_;
    sim::Timer release_timer_;
    std::uint64_t dropped_ = 0;
    std::uint64_t released_ = 0;
    std::uint64_t release_drops_ = 0;
};

/// The paced EZ-Flow program at one node: BOE per successor (identical to
/// EzFlowAgent's) feeding a PacedQueue per successor. The MAC keeps the
/// standard 802.11 CWmin throughout — nothing below the routing layer is
/// modified, which is the point of the variant.
class PacedEzFlowAgent {
public:
    struct Options {
        CaaConfig caa{};
        std::size_t boe_history = 1000;
        int queue_capacity = 200;  ///< routing-layer queues can be larger than MAC's 50
        util::SimTime base_interval = 10 * util::kMillisecond;
    };

    PacedEzFlowAgent(net::Network& network, net::NodeId node, Options options);
    PacedEzFlowAgent(const PacedEzFlowAgent&) = delete;
    PacedEzFlowAgent& operator=(const PacedEzFlowAgent&) = delete;

    net::NodeId node_id() const { return node_id_; }
    /// Paced queue toward `successor`; nullptr before any packet went
    /// that way.
    const PacedQueue* queue_toward(net::NodeId successor) const;
    /// Packets held in this node's paced queues (in-flight backlog for
    /// the drop audit).
    std::uint64_t held() const;
    /// Packets lost in this node's paced queues: refused pushes plus
    /// releases the MAC refused.
    std::uint64_t drops() const;

private:
    struct SuccessorState {
        BufferOccupancyEstimator boe;
        std::unique_ptr<PacedQueue> queue;
        explicit SuccessorState(std::size_t history) : boe(history) {}
    };

    SuccessorState& ensure(net::NodeId successor, const mac::QueueKey& key);
    bool intercept(const mac::QueueKey& key, const net::Packet& packet);
    void on_first_tx(const mac::QueueKey& key, const net::Packet& packet);
    void on_sniffed(const phy::Frame& frame);

    net::Network& network_;
    net::NodeId node_id_;
    Options options_;
    std::map<net::NodeId, std::unique_ptr<SuccessorState>> successors_;
};

/// Install paced agents on every transmitting node of every flow.
std::map<net::NodeId, std::unique_ptr<PacedEzFlowAgent>> install_paced_ezflow(
    net::Network& network, const PacedEzFlowAgent::Options& options);

}  // namespace ezflow::core
