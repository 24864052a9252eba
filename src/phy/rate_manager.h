#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "net/packet.h"
#include "phy/link_table.h"

namespace ezflow::phy {

/// The 802.11b DSSS/CCK rate ladder, bits per second.
inline constexpr std::array<std::int64_t, 4> kDsssRates = {1'000'000, 2'000'000, 5'500'000,
                                                           11'000'000};

/// Minimum SINR (linear) at which a frame modulated at `bitrate_bps`
/// decodes, a floor under every capture test: faster modulations need more
/// margin, which is what makes rate adaptation a real trade-off. The
/// figures follow the usual DSSS/CCK receiver-sensitivity deltas: 4, 7, 10
/// and 13 dB up the ladder.
double decode_floor(std::int64_t bitrate_bps);

/// Per-link transmission rate selection. The MAC asks for a rate once per
/// data attempt (retries re-ask) and reports the attempt's outcome after
/// the ACK verdict; the chosen rate is stamped into `Frame::bitrate_bps`
/// and drives `PhyParams::tx_duration`. Control frames never consult the
/// manager — they stay at the PHY default rate so timeout and NAV
/// arithmetic is rate-independent.
class RateManager {
public:
    virtual ~RateManager() = default;
    /// Rate for the next data attempt on tx -> rx.
    virtual std::int64_t bitrate_bps(net::NodeId tx, net::NodeId rx) = 0;
    /// Outcome of the most recent attempt on tx -> rx.
    virtual void report(net::NodeId tx, net::NodeId rx, bool success) = 0;
};

/// Minstrel-style probing rate adaptation, deterministic by construction.
///
/// Each link keeps an EWMA of per-rate delivery success; attempts normally
/// use the rate maximizing (ewma success x bitrate), and every
/// `probe_period`-th decision instead round-robins through the other rates
/// so the estimator never starves (Minstrel's ~10% look-around, made
/// deterministic — no RNG, so installing the manager perturbs no simulator
/// stream).
class MinstrelRate final : public RateManager {
public:
    explicit MinstrelRate(int probe_period = 10, double ewma_weight = 0.25);

    std::int64_t bitrate_bps(net::NodeId tx, net::NodeId rx) override;
    void report(net::NodeId tx, net::NodeId rx, bool success) override;

    /// Current best-throughput rate estimate for a link (tests/figures).
    std::int64_t best_rate_bps(net::NodeId tx, net::NodeId rx);

private:
    struct LinkState {
        std::array<double, kDsssRates.size()> ewma_success{};
        std::uint64_t decisions = 0;
        std::uint32_t probe_cursor = 0;
        int pending_rate_idx = -1;  ///< rate of the attempt awaiting a report
    };

    LinkState& state_for(net::NodeId tx, net::NodeId rx);
    int best_index(const LinkState& state) const;

    int probe_period_;
    double ewma_weight_;
    LinkTable<std::unique_ptr<LinkState>> links_;
};

}  // namespace ezflow::phy
