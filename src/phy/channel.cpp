#include "phy/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "phy/geometry.h"

namespace ezflow::phy {

double decode_floor(std::int64_t bitrate_bps)
{
    // DSSS/CCK receiver-sensitivity ladder: each modulation step costs
    // roughly 3 dB of margin. Converted to linear once.
    static const std::array<double, kDsssRates.size()> floors = [] {
        const std::array<double, kDsssRates.size()> db = {4.0, 7.0, 10.0, 13.0};
        std::array<double, kDsssRates.size()> linear{};
        for (std::size_t i = 0; i < db.size(); ++i) linear[i] = std::pow(10.0, db[i] / 10.0);
        return linear;
    }();
    std::size_t i = 0;
    while (i + 1 < kDsssRates.size() && bitrate_bps > kDsssRates[i]) ++i;
    return floors[i];
}

Channel::Channel(sim::Scheduler& scheduler, util::Rng rng, PhyParams params)
    : scheduler_(scheduler),
      rng_(std::move(rng)),
      params_(params),
      capture_threshold_(std::max(params_.capture_threshold, decode_floor(params_.bitrate_bps)))
{
}

void Channel::attach(NodePhy& phy)
{
    if (phy.id() < 0) throw std::invalid_argument("Channel::attach: negative node id");
    if (attach_index(phy.id()) >= 0)
        throw std::invalid_argument("Channel::attach: duplicate node id");
    const auto slot = static_cast<std::size_t>(phy.id());
    if (slot >= index_by_id_.size()) index_by_id_.resize(slot + 1, -1);
    index_by_id_[slot] = static_cast<std::int32_t>(phys_.size());
    phys_.push_back(&phy);
    phy.set_channel(this);
    reach_.clear();  // topology grew: rebuild lazily on the next transmit
}

void Channel::detach(NodePhy& phy)
{
    if (!is_attached(phy)) throw std::invalid_argument("Channel::detach: phy not attached");
    const auto gone = static_cast<std::size_t>(attach_index(phy.id()));
    phys_.erase(phys_.begin() + static_cast<std::ptrdiff_t>(gone));
    index_by_id_[static_cast<std::size_t>(phy.id())] = -1;
    for (std::size_t k = gone; k < phys_.size(); ++k)
        index_by_id_[static_cast<std::size_t>(phys_[k]->id())] = static_cast<std::int32_t>(k);
    phy.set_channel(nullptr);
    // The sets are indexed by attach position and list the dead PHY.
    reach_.clear();
}

bool Channel::is_attached(const NodePhy& phy) const
{
    const std::int32_t index = attach_index(phy.id());
    return index >= 0 && phys_[static_cast<std::size_t>(index)] == &phy;
}

void Channel::set_deaf(NodePhy& phy)
{
    if (!is_attached(phy)) throw std::invalid_argument("Channel::set_deaf: phy not attached");
    phy.set_deaf();
    reach_.clear();  // the PHY leaves every set, and its own empties
}

void Channel::ensure_reach()
{
    if (!reach_.empty()) return;
    std::vector<Position> positions;
    for (const NodePhy* phy : phys_) positions.push_back(phy->position());
    const GridIndex geometry(std::move(positions), params_.conflict_radius_m());
    reach_.assign(phys_.size(), {});
    std::vector<int> near;
    for (std::size_t s = 0; s < phys_.size(); ++s) {
        const NodePhy& sender = *phys_[s];
        if (sender.deaf()) continue;  // never transmits
        // Ascending ids are attach order, which fixes same-instant FIFO order.
        geometry.within(sender.position(), near);
        for (const int j : near) {
            NodePhy* phy = phys_[static_cast<std::size_t>(j)];
            if (phy == &sender) continue;
            const double d = distance(sender.position(), phy->position());
            const bool in_delivery = d <= params_.tx_range_m;
            // Beyond delivery range nothing is rolled for a deaf receiver.
            if (phy->deaf() && !in_delivery) continue;
            reach_[s].push_back(ReachEntry{phy, in_delivery, d <= params_.cs_range_m,
                                           !phy->deaf(), two_ray_power_w(1.0, d)});
        }
    }
}

std::size_t Channel::reachable_count(net::NodeId tx)
{
    const std::int32_t index = attach_index(tx);
    if (index < 0) throw std::invalid_argument("Channel::reachable_count: unknown node");
    ensure_reach();
    return reach_[static_cast<std::size_t>(index)].size();
}

void Channel::set_link_loss(net::NodeId tx, net::NodeId rx, double loss_probability)
{
    // Written so that NaN fails it too.
    if (!(loss_probability >= 0.0 && loss_probability <= 1.0))
        throw std::invalid_argument("Channel::set_link_loss: probability outside [0, 1]");
    link_loss_.insert_or_assign(tx, rx, loss_probability);
}

double Channel::link_loss(net::NodeId tx, net::NodeId rx) const
{
    const double* loss = link_loss_.find(tx, rx);
    return loss == nullptr ? 0.0 : *loss;
}

void Channel::transmit(NodePhy& sender, Frame frame)
{
    const SimTime duration = params_.tx_duration(frame);
    const std::uint64_t signal_id = next_signal_id_++;
    ++transmissions_;
    if (frame.type == FrameType::kData) ++data_transmissions_;

    // Single-copy fan-out: the frame moves into one pooled record that
    // also lists the receivers, and the batched end events capture a
    // pointer-sized handle to it, so they stay in the scheduler's inline
    // buffer and fan-out cost is O(receivers) pointer copies.
    const FrameRef record = frame_pool_.make(std::move(frame));
    const SimTime end_at = scheduler_.now() + duration;
    const Frame& shared = *record;

    const std::size_t spans = shared.span_count();
    const std::uint64_t all_spans = spans >= 64 ? ~0ull : (1ull << spans) - 1;
    // A channel without link losses rolls nothing: its Rng feeds only
    // these rolls, and bernoulli(0) never fires.
    const bool lossy = !link_loss_.empty();

    ensure_reach();
    const std::int32_t index = attach_index(sender.id());
    if (index < 0) throw std::logic_error("Channel::transmit: sender not attached");
    for (const ReachEntry& r : reach_[static_cast<std::size_t>(index)]) {
        NodePhy* phy = r.phy;
        RxEvent rx;
        if (r.in_delivery && lossy) {
            // The link loss corrupts each span independently (one roll
            // per span); `error` is the every-span-lost verdict.
            const double loss = link_loss(sender.id(), phy->id());
            for (std::size_t i = 0; i < spans && i < 64; ++i)
                if (rng_.bernoulli(loss)) rx.span_error_bits |= (1ull << i);
            rx.error = rx.span_error_bits == all_spans;
        }
        // A deaf receiver is rolled for (the Rng stream stays the
        // all-listening one) but hears nothing.
        if (!r.listens) continue;
        rx.signal_id = signal_id;
        rx.frame = &shared;
        rx.power_w = r.power_w;
        rx.capture_threshold = capture_threshold_;
        rx.in_delivery = r.in_delivery;
        rx.sensed = r.sensed;
        start_signal(*phy, rx, record, end_at, sender);
    }
    // The tx-end rides on the last batch; a transmission nobody hears
    // ends with a lone tx-end event.
    if (record.receivers().empty()) schedule_ends(record, signal_id, end_at, 0, sender);
}

void Channel::start_signal(NodePhy& phy, const RxEvent& rx, const FrameRef& record,
                           SimTime end_at, NodePhy& sender)
{
    const std::uint64_t seq_before = scheduler_.next_event_seq();
    phy.signal_start(rx);
    std::vector<NodePhy*>& receivers = record.receivers();
    if (receivers.empty() || scheduler_.next_event_seq() != seq_before) {
        if (!receivers.empty()) receivers.push_back(nullptr);  // closes the open batch
        schedule_ends(record, rx.signal_id, end_at, receivers.size(), sender);
    }
    receivers.push_back(&phy);
}

void Channel::schedule_ends(const FrameRef& record, std::uint64_t signal_id, SimTime end_at,
                            std::size_t begin, NodePhy& sender)
{
    scheduler_.schedule_at(end_at, [ref = record, signal_id, begin, tx = &sender] {
        const std::vector<NodePhy*>& receivers = ref.receivers();
        for (std::size_t i = begin; i < receivers.size(); ++i) {
            if (receivers[i] == nullptr) return;  // a later batch takes over
            receivers[i]->signal_end(signal_id, *ref);
        }
        tx->tx_end(*ref);
    });
}

}  // namespace ezflow::phy
