#pragma once

#include <map>
#include <memory>

#include "core/boe.h"
#include "core/caa.h"
#include "net/network.h"
#include "net/node.h"
#include "util/rng.h"

namespace ezflow::core {

/// The EZ-Flow program running at one node (Section 3.1): one BOE + CAA
/// pair per successor. Wires itself to the node's MAC hooks:
///  * first-transmission hook -> BOE sent-list;
///  * promiscuous sniff hook  -> BOE matching -> CAA sample;
///  * CAA decision            -> per-successor queue CWmin.
///
/// The agent keeps no per-sample history: each successor holds only the
/// latest BOE estimate, so its memory is O(successors) however long the
/// run. The CWmin trajectory is sampled by analysis::CwTracer.
///
/// The last hop before a destination never overhears forwarded packets
/// (the destination consumes them), so its cw stays at the initial value —
/// exactly as on the testbed.
class EzFlowAgent {
public:
    struct SuccessorState {
        BufferOccupancyEstimator boe;
        std::unique_ptr<ChannelAccessAdaptation> caa;
        /// The BOE's latest estimate of the successor's buffer occupancy
        /// (-1 before the first matched sniff).
        int last_estimate = -1;

        explicit SuccessorState(std::size_t history) : boe(history) {}
    };

    /// Attach EZ-Flow to `node`. `sniff_loss` optionally drops a fraction
    /// of overheard frames before they reach the BOE (ablation: robustness
    /// to missed sniffs).
    EzFlowAgent(net::Network& network, net::NodeId node, CaaConfig config,
                std::size_t boe_history = 1000, double sniff_loss = 0.0);
    EzFlowAgent(const EzFlowAgent&) = delete;
    EzFlowAgent& operator=(const EzFlowAgent&) = delete;

    net::NodeId node_id() const { return node_id_; }

    /// Current contention window toward `successor` (throws if the agent
    /// has never sent toward it).
    int cw_toward(net::NodeId successor) const;

    /// Successor states, keyed by successor node id (for tracing).
    const std::map<net::NodeId, std::unique_ptr<SuccessorState>>& successors() const
    {
        return successors_;
    }

    std::uint64_t samples_delivered() const { return samples_delivered_; }

private:
    SuccessorState& ensure_successor(net::NodeId successor);
    void on_first_tx(const mac::QueueKey& key, const net::Packet& packet);
    void on_sniffed(const phy::Frame& frame);
    /// Feed one overheard checksum (one MPDU of a sniffed data frame)
    /// through the BOE into the CAA control loop.
    void deliver_sample(SuccessorState& state, std::uint16_t checksum);

    net::Network& network_;
    net::NodeId node_id_;
    CaaConfig config_;
    std::size_t boe_history_;
    double sniff_loss_;
    util::Rng rng_;
    std::map<net::NodeId, std::unique_ptr<SuccessorState>> successors_;
    std::uint64_t samples_delivered_ = 0;
};

/// Install EZ-Flow agents on every node that transmits data (sources and
/// relays) of every registered flow. Returns the agents keyed by node id.
std::map<net::NodeId, std::unique_ptr<EzFlowAgent>> install_ezflow(net::Network& network,
                                                                   const CaaConfig& config,
                                                                   std::size_t boe_history = 1000,
                                                                   double sniff_loss = 0.0);

}  // namespace ezflow::core
