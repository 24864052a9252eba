#include "phy/rate_manager.h"

#include <cmath>
#include <stdexcept>

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

MinstrelRate::MinstrelRate(int probe_period, double ewma_weight)
    : probe_period_(probe_period), ewma_weight_(ewma_weight)
{
    if (probe_period < 2) throw std::invalid_argument("MinstrelRate: probe period must be >= 2");
    if (ewma_weight <= 0.0 || ewma_weight > 1.0)
        throw std::invalid_argument("MinstrelRate: EWMA weight out of (0, 1]");
}

MinstrelRate::LinkState& MinstrelRate::state_for(net::NodeId tx, net::NodeId rx)
{
    if (auto* found = links_.find(tx, rx)) return **found;
    auto state = std::make_unique<LinkState>();
    // Optimistic start: every rate begins fully trusted, so the first
    // attempts try the top rate and the EWMA walks it down where the link
    // cannot sustain it (standard Minstrel bootstrap behaviour).
    state->ewma_success.fill(1.0);
    return *links_.insert_or_assign(tx, rx, std::move(state));
}

int MinstrelRate::best_index(const LinkState& state) const
{
    int best = 0;
    double best_tp = -1.0;
    for (std::size_t i = 0; i < kDsssRates.size(); ++i) {
        const double tp = state.ewma_success[i] * static_cast<double>(kDsssRates[i]);
        if (tp > best_tp) {
            best_tp = tp;
            best = static_cast<int>(i);
        }
    }
    return best;
}

std::int64_t MinstrelRate::bitrate_bps(net::NodeId tx, net::NodeId rx)
{
    LinkState& state = state_for(tx, rx);
    const int best = best_index(state);
    int choice = best;
    // Deterministic look-around: every probe_period-th decision samples a
    // non-best rate in round-robin order so stale estimates recover.
    if (state.decisions % static_cast<std::uint64_t>(probe_period_) ==
        static_cast<std::uint64_t>(probe_period_ - 1)) {
        choice = static_cast<int>(state.probe_cursor % kDsssRates.size());
        if (choice == best) choice = static_cast<int>((choice + 1) % kDsssRates.size());
        ++state.probe_cursor;
    }
    ++state.decisions;
    state.pending_rate_idx = choice;
    return kDsssRates[static_cast<std::size_t>(choice)];
}

void MinstrelRate::report(net::NodeId tx, net::NodeId rx, bool success)
{
    LinkState& state = state_for(tx, rx);
    if (state.pending_rate_idx < 0) return;  // report without a decision: ignore
    double& ewma = state.ewma_success[static_cast<std::size_t>(state.pending_rate_idx)];
    ewma = (1.0 - ewma_weight_) * ewma + ewma_weight_ * (success ? 1.0 : 0.0);
    state.pending_rate_idx = -1;
}

std::int64_t MinstrelRate::best_rate_bps(net::NodeId tx, net::NodeId rx)
{
    return kDsssRates[static_cast<std::size_t>(best_index(state_for(tx, rx)))];
}

}  // namespace ezflow::phy
