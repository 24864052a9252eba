#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ezflow::util {

namespace {

/// SplitMix64 finalizer (Steele et al.): a bijective avalanche mix, the
/// standard recipe for deriving decorrelated seeds from sequential keys.
std::uint64_t splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

void Rng::seed_engine()
{
    // Expand the 64-bit key into enough entropy that sibling streams do
    // not share correlated regions of the 19937-bit state.
    std::uint64_t z = stream_key_;
    std::uint32_t words[8];
    for (int i = 0; i < 4; ++i) {
        z = splitmix64(z);
        words[2 * i] = static_cast<std::uint32_t>(z);
        words[2 * i + 1] = static_cast<std::uint32_t>(z >> 32);
    }
    std::seed_seq seq(words, words + 8);
    engine_ = std::make_unique<std::mt19937_64>(seq);
}

int Rng::uniform_int(int lo, int hi)
{
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine());
}

double Rng::uniform_real(double lo, double hi)
{
    // Written so that NaN fails it too.
    if (!(lo <= hi)) throw std::invalid_argument("Rng::uniform_real: lo > hi or NaN");
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine());
}

bool Rng::bernoulli(double p)
{
    if (std::isnan(p)) throw std::invalid_argument("Rng::bernoulli: p is NaN");
    const double clamped = std::clamp(p, 0.0, 1.0);
    std::bernoulli_distribution dist(clamped);
    return dist(engine());
}

int Rng::weighted_index(const std::vector<double>& weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0) throw std::invalid_argument("Rng::weighted_index: negative weight");
        total += w;
    }
    if (total <= 0.0) throw std::invalid_argument("Rng::weighted_index: no positive weight");
    double x = uniform_real(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x < 0.0) return static_cast<int>(i);
    }
    return static_cast<int>(weights.size() - 1);
}

Rng Rng::fork()
{
    // Key-based derivation: child key = mix(parent key, fork index). No
    // engine draw is consumed, so fork order is a function of fork calls
    // alone — drawing values between forks cannot re-route child streams.
    ++fork_count_;
    return Rng(splitmix64(stream_key_ ^ splitmix64(fork_count_)));
}

}  // namespace ezflow::util
