#pragma once

#include <cstdint>
#include <vector>

#include "model/region.h"
#include "util/rng.h"

namespace ezflow::model {

/// Contention-window adaptation used by the slotted model, Eq. (2) of the
/// paper: every slot, node i doubles cw when its successor's buffer
/// exceeds bmax, halves it when below bmin, clamped to [min_cw, max_cw].
struct ModelCaaParams {
    double bmin = 0.05;
    double bmax = 20.0;
    long long min_cw = 1 << 4;
    long long max_cw = 1 << 15;
};

/// The Section 6 slotted-time model of a saturated K-hop chain, generic
/// in K. Each slot:
///  1. contenders = nodes with non-empty buffers (the source always);
///  2. repeated races: a winner is drawn with probability proportional to
///     1/cw among remaining contenders, then freezes its 1-hop
///     carrier-sense neighbours; contenders hidden from every winner keep
///     racing;
///  3. link i succeeds iff i transmitted and no other transmitter is
///     within one hop of receiver i+1 (hidden-terminal corruption);
///  4. buffers update per Eq. (3); with EZ-Flow enabled, windows update
///     per Eq. (2).
/// For K = 4 the induced pattern distribution is exactly Table 4
/// (verified in tests against model/table4.h).
class RandomWalkModel {
public:
    struct Config {
        int hops = 4;                       ///< K; relays are nodes 1..K-1
        bool ezflow_enabled = true;         ///< fixed windows when false
        std::vector<long long> initial_cw;  ///< per node 0..K-1; defaults to min_cw
        ModelCaaParams caa{};
    };

    RandomWalkModel(Config config, util::Rng rng);

    /// Advance one slot. Returns the link activation pattern z (size K).
    const std::vector<int>& step();

    /// Advance `n` slots.
    void run(std::uint64_t n);

    /// Sample the transmission pattern for an arbitrary buffer state
    /// without mutating the walk (used by the Table 4 Monte-Carlo tests).
    std::vector<int> sample_pattern(const BufferVector& relays, const std::vector<double>& cw);

    const BufferVector& relays() const { return relays_; }
    const std::vector<long long>& cw() const { return cw_; }
    long long total_backlog() const;  ///< Lyapunov function h(b) = sum b_i
    int region() const { return region_index(relays_); }
    std::uint64_t slots() const { return slots_; }
    std::uint64_t delivered() const { return delivered_; }

    /// Direct state manipulation for analyses (drift estimation restarts
    /// the walk from chosen states).
    void set_relays(BufferVector relays);
    void set_cw(std::vector<long long> cw);

private:
    std::vector<int> draw_transmitters(const BufferVector& relays, const std::vector<double>& cw);
    void apply_caa();

    Config config_;
    util::Rng rng_;
    BufferVector relays_;        ///< b1..b_{K-1}
    std::vector<long long> cw_;  ///< cw0..cw_{K-1}
    std::vector<int> last_pattern_;
    std::uint64_t slots_ = 0;
    std::uint64_t delivered_ = 0;
};

}  // namespace ezflow::model
