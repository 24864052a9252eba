#include "phy/propagation.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace ezflow::phy {

using util::kPi;

struct JakesFading::Oscillators {
    std::vector<double> omega;  ///< w_d * cos(alpha_k), rad/s
    std::vector<double> phi;    ///< initial phase, rad
};

namespace {

std::uint64_t splitmix_key(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

JakesFading::JakesFading(double doppler_hz, std::uint64_t seed, int oscillators)
    : doppler_hz_(doppler_hz), seed_(seed), oscillators_(oscillators)
{
    if (!(doppler_hz >= 0.0)) throw std::invalid_argument("JakesFading: doppler must be >= 0");
    if (oscillators < 1) throw std::invalid_argument("JakesFading: need at least one oscillator");
}

JakesFading::~JakesFading() = default;

JakesFading::Oscillators& JakesFading::rays_for(net::NodeId tx, net::NodeId rx)
{
    if (auto* found = banks_.find(tx, rx)) return **found;

    // Ray bank seeded by a keyed hash of (model seed, link): deterministic,
    // independent of every simulator RNG stream, and distinct per direction.
    util::Rng rng(splitmix_key(seed_ ^ splitmix_key(LinkTable<int>::link_key(tx, rx))));
    auto bank = std::make_unique<Oscillators>();
    const double omega_d = 2.0 * kPi * doppler_hz_;
    bank->omega.reserve(static_cast<std::size_t>(oscillators_));
    bank->phi.reserve(static_cast<std::size_t>(oscillators_));
    for (int k = 0; k < oscillators_; ++k) {
        const double alpha = rng.uniform_real(0.0, 2.0 * kPi);
        bank->omega.push_back(omega_d * std::cos(alpha));
        bank->phi.push_back(rng.uniform_real(0.0, 2.0 * kPi));
    }
    return *banks_.insert_or_assign(tx, rx, std::move(bank));
}

double JakesFading::power_gain(net::NodeId tx, net::NodeId rx, util::SimTime now)
{
    const Oscillators& bank = rays_for(tx, rx);
    const double t = static_cast<double>(now) * 1e-6;
    double re = 0.0;
    double im = 0.0;
    for (std::size_t k = 0; k < bank.omega.size(); ++k) {
        const double theta = bank.omega[k] * t + bank.phi[k];
        re += std::cos(theta);
        im += std::sin(theta);
    }
    return (re * re + im * im) / static_cast<double>(bank.omega.size());
}

double JakesFading::link_power_w(net::NodeId tx, net::NodeId rx, double tx_power_w,
                                 double distance_m, util::SimTime now)
{
    const double base = two_ray_power_w(tx_power_w, distance_m);
    // Degenerate case: zero Doppler means a static unit-mean channel; skip
    // the gain product entirely so the two-ray power is returned bit-for-bit.
    if (doppler_hz_ == 0.0) return base;
    return base * power_gain(tx, rx, now);
}

}  // namespace ezflow::phy
