#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

namespace ezflow::util {

/// Deterministic random number generator used across the simulator.
///
/// A thin wrapper over std::mt19937_64 providing the distributions the
/// simulator needs. Components that need independent streams derive them
/// with `fork()`.
///
/// Stream derivation is keyed, not drawn: every Rng carries a stream key,
/// and the i-th fork of a stream is a SplitMix64 finalization of
/// (key, i). Forking therefore never consumes engine state — interleaving
/// draws and forks cannot shift which stream a child receives, which is
/// what keeps parallel sweeps reproducible — and engines are seeded
/// through a seed_seq expansion of the stream key so sibling streams
/// share no correlated generator state. Two simulations built from the
/// same root seed are bit-identical.
///
/// A stream depends only on its key, so the 2.5 KB engine is allocated
/// and seeded on the first draw, not at construction: an Rng that never
/// draws (most nodes' MACs in a large idle mesh) costs 24 bytes and no
/// seeding. `fork()` does not seed the parent. Rng is move-only, so an
/// engine is never copied by accident; a move carries the stream along,
/// seeded or not.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : stream_key_(seed) {}

    Rng(const Rng&) = delete;
    Rng& operator=(const Rng&) = delete;
    Rng(Rng&&) noexcept = default;
    Rng& operator=(Rng&&) noexcept = default;

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    int uniform_int(int lo, int hi);

    /// Uniform real in [lo, hi). Requires lo <= hi (NaN fails).
    double uniform_real(double lo, double hi);

    /// Bernoulli trial with success probability p (clamped to [0,1];
    /// NaN throws).
    bool bernoulli(double p);

    /// Pick an index in [0, weights.size()) with probability proportional
    /// to weights[i]. Requires at least one strictly positive weight.
    int weighted_index(const std::vector<double>& weights);

    /// Derive an independent child generator. The n-th fork of a given
    /// stream is the same regardless of how many values were drawn in
    /// between.
    Rng fork();

    /// Raw 64-bit draw (used by hashing/property tests).
    std::uint64_t next_u64() { return engine()(); }

private:
    std::mt19937_64& engine()
    {
        if (!engine_) seed_engine();
        return *engine_;
    }
    void seed_engine();

    std::unique_ptr<std::mt19937_64> engine_;  ///< null until the first draw
    std::uint64_t stream_key_;
    std::uint64_t fork_count_ = 0;
};

}  // namespace ezflow::util
