#include "model/walk.h"

#include <algorithm>
#include <stdexcept>

namespace ezflow::model {

RandomWalkModel::RandomWalkModel(Config config, util::Rng rng)
    : config_(config), rng_(std::move(rng))
{
    if (config_.hops < 2) throw std::invalid_argument("RandomWalkModel: need >= 2 hops");
    relays_.assign(static_cast<std::size_t>(config_.hops - 1), 0);
    if (config_.initial_cw.empty()) {
        cw_.assign(static_cast<std::size_t>(config_.hops), config_.caa.min_cw);
    } else {
        if (config_.initial_cw.size() != static_cast<std::size_t>(config_.hops))
            throw std::invalid_argument("RandomWalkModel: initial_cw size mismatch");
        cw_ = config_.initial_cw;
    }
    for (long long w : cw_)
        if (w <= 0) throw std::invalid_argument("RandomWalkModel: cw must be positive");
    last_pattern_.assign(static_cast<std::size_t>(config_.hops), 0);
}

void RandomWalkModel::set_relays(BufferVector relays)
{
    if (relays.size() != relays_.size())
        throw std::invalid_argument("RandomWalkModel::set_relays: size mismatch");
    for (long long b : relays)
        if (b < 0) throw std::invalid_argument("RandomWalkModel::set_relays: negative buffer");
    relays_ = std::move(relays);
}

void RandomWalkModel::set_cw(std::vector<long long> cw)
{
    if (cw.size() != cw_.size())
        throw std::invalid_argument("RandomWalkModel::set_cw: size mismatch");
    for (long long w : cw)
        if (w <= 0) throw std::invalid_argument("RandomWalkModel::set_cw: cw must be positive");
    cw_ = std::move(cw);
}

std::vector<int> RandomWalkModel::draw_transmitters(const BufferVector& relays,
                                                    const std::vector<double>& cw)
{
    const int n = config_.hops;  // transmitting nodes are 0..K-1
    // Contenders: the saturated source plus every backlogged relay.
    std::vector<int> contenders;
    contenders.push_back(0);
    for (int i = 1; i < n; ++i)
        if (relays[static_cast<std::size_t>(i - 1)] > 0) contenders.push_back(i);

    std::vector<int> transmitters;
    // Repeated races: winner drawn with probability proportional to 1/cw;
    // the winner silences (carrier sense) its 1-hop neighbours; contenders
    // hidden from every winner keep racing.
    while (!contenders.empty()) {
        std::vector<double> weights;
        weights.reserve(contenders.size());
        for (int node : contenders) weights.push_back(1.0 / cw[static_cast<std::size_t>(node)]);
        const int winner = contenders[static_cast<std::size_t>(rng_.weighted_index(weights))];
        transmitters.push_back(winner);
        std::vector<int> remaining;
        for (int node : contenders) {
            if (node == winner) continue;
            if (std::abs(node - winner) <= 1) continue;  // senses the winner: freezes
            remaining.push_back(node);
        }
        contenders = std::move(remaining);
    }
    return transmitters;
}

std::vector<int> RandomWalkModel::sample_pattern(const BufferVector& relays,
                                                 const std::vector<double>& cw)
{
    if (relays.size() != relays_.size())
        throw std::invalid_argument("RandomWalkModel::sample_pattern: relay size mismatch");
    if (cw.size() != cw_.size())
        throw std::invalid_argument("RandomWalkModel::sample_pattern: cw size mismatch");
    const int n = config_.hops;
    const std::vector<int> transmitters = draw_transmitters(relays, cw);

    // Link i (node i -> node i+1) succeeds iff node i transmitted and no
    // other transmitter sits within one hop of receiver i+1.
    std::vector<int> pattern(static_cast<std::size_t>(n), 0);
    for (int i : transmitters) {
        const int receiver = i + 1;
        bool clear = true;
        for (int j : transmitters) {
            if (j == i) continue;
            if (std::abs(j - receiver) <= 1) {
                clear = false;
                break;
            }
        }
        if (clear) pattern[static_cast<std::size_t>(i)] = 1;
    }
    return pattern;
}

const std::vector<int>& RandomWalkModel::step()
{
    std::vector<double> cw_real(cw_.begin(), cw_.end());
    last_pattern_ = sample_pattern(relays_, cw_real);

    // Buffer update, Eq. (3): b_i += z_{i-1} - z_i for relays 1..K-1.
    const int n = config_.hops;
    for (int i = 1; i < n; ++i) {
        auto& b = relays_[static_cast<std::size_t>(i - 1)];
        b += last_pattern_[static_cast<std::size_t>(i - 1)];
        b -= last_pattern_[static_cast<std::size_t>(i)];
        if (b < 0) throw std::logic_error("RandomWalkModel::step: negative buffer");
    }
    delivered_ += static_cast<std::uint64_t>(last_pattern_[static_cast<std::size_t>(n - 1)]);

    if (config_.ezflow_enabled) apply_caa();
    ++slots_;
    return last_pattern_;
}

void RandomWalkModel::apply_caa()
{
    // Eq. (2): node i reacts to its successor's buffer b_{i+1}. Node K-1's
    // successor is the destination whose buffer is always empty, so its
    // window only ever decreases (to min_cw).
    const int n = config_.hops;
    const ModelCaaParams& p = config_.caa;
    for (int i = 0; i < n; ++i) {
        const double successor_buffer =
            (i + 1 < n) ? static_cast<double>(relays_[static_cast<std::size_t>(i)]) : 0.0;
        auto& w = cw_[static_cast<std::size_t>(i)];
        if (successor_buffer > p.bmax)
            w = std::min(w * 2, p.max_cw);
        else if (successor_buffer < p.bmin)
            w = std::max(w / 2, p.min_cw);
    }
}

void RandomWalkModel::run(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) step();
}

long long RandomWalkModel::total_backlog() const
{
    long long total = 0;
    for (long long b : relays_) total += b;
    return total;
}

}  // namespace ezflow::model
