#pragma once

#include <cstdint>
#include <functional>

#include "util/stats.h"

namespace ezflow::core {

/// EZ-Flow tuning knobs (Sections 3.3 and 5.1). Defaults are the values
/// the paper's simulations use: bmin = 0.05, bmax = 20, mincw = 2^4,
/// maxcw = 2^15, decisions every 50 BOE samples.
struct CaaConfig {
    double bmin = 0.05;       ///< below: successor under-utilized -> more aggressive
    double bmax = 20.0;       ///< above: successor over-utilized -> less aggressive
    int min_cw = 1 << 4;      ///< 2^4, smallest contention window
    int max_cw = 1 << 15;     ///< 2^15 (the testbed hardware capped at 2^10)
    int sample_window = 50;   ///< BOE samples averaged per decision
    int initial_cw = 1 << 4;  ///< relays start aggressive and back off as needed
    /// countdown threshold constant: cw halves after
    /// (count_base - log2(cw)) consecutive under-utilization signals.
    int count_base = 15;
};

/// Channel Access Adaptation (Section 3.3, Algorithm 1).
///
/// Consumes BOE samples; every `sample_window` samples it averages them and
/// applies the multiplicative-increase / multiplicative-decrease policy with
/// the cw-dependent hysteresis counters:
///  * average > bmax: countup++; when countup >= log2(cw), cw *= 2
///  * average < bmin: countdown++; when countdown >= count_base - log2(cw), cw /= 2
///  * otherwise both counters reset.
/// Nodes with large cw therefore react quickly to under-utilization and
/// slowly to over-utilization (and vice versa), which is what gives EZ-Flow
/// its inter-flow fairness (the paper's countup/countdown discussion).
class ChannelAccessAdaptation {
public:
    /// `apply_cw` is invoked whenever the contention window changes
    /// (EZ-Flow's only interaction with the MAC).
    using CwSetter = std::function<void(int cw)>;

    ChannelAccessAdaptation(CaaConfig config, CwSetter apply_cw);

    /// Feed one BOE sample (successor buffer occupancy, in packets).
    void on_sample(int buffer_occupancy);

    int cw() const { return cw_; }
    int countup() const { return countup_; }
    int countdown() const { return countdown_; }
    const CaaConfig& config() const { return config_; }

    /// Decision history: (decision index, new cw) — cheap tracing for the
    /// Fig. 8 / Fig. 11 style cw-evolution plots.
    std::uint64_t decisions() const { return decisions_; }
    std::uint64_t increases() const { return increases_; }
    std::uint64_t decreases() const { return decreases_; }

    /// log2 for exact powers of two (throws otherwise); exposed for tests.
    static int log2_exact(int value);

private:
    void decide(double average);
    void set_cw(int cw);

    CaaConfig config_;
    CwSetter apply_cw_;
    int cw_;
    int countup_ = 0;
    int countdown_ = 0;
    int samples_in_window_ = 0;
    double sample_sum_ = 0.0;
    std::uint64_t decisions_ = 0;
    std::uint64_t increases_ = 0;
    std::uint64_t decreases_ = 0;
};

}  // namespace ezflow::core
