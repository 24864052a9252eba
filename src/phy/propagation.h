#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "net/packet.h"
#include "phy/link_table.h"
#include "util/units.h"

namespace ezflow::phy {

/// The reference path-loss law the golden-pinned simulations use. The
/// paper's simulations use ns-2's two-ray ground model (250 m delivery,
/// 550 m carrier sense); this is its normalized far-field limit
/// Pr = Pt / max(d, 1)^4 with all gains and heights folded into the unit
/// transmit power. All scenario distances sit beyond the ~86 m crossover,
/// so the d^-4 regime applies, and the constant factor cancels in every
/// capture-SIR comparison; the clamp keeps the power finite for
/// co-located nodes. This is the one copy of the expression: keep its
/// operation order, goldens are pinned under `-ffp-contract=off`.
inline double two_ray_power_w(double tx_power_w, double distance_m)
{
    const double d_eff = std::max(distance_m, 1.0);
    return tx_power_w / (d_eff * d_eff * d_eff * d_eff);
}

/// Jakes sum-of-sinusoids Rayleigh fading over the reference two-ray law.
///
/// Each directed link owns a fixed bank of `oscillators` rays whose arrival
/// angles and phases are drawn once from a private RNG keyed by
/// (seed, tx, rx) — deterministic, independent of every simulator stream,
/// and symmetric links fade independently (distinct keys). The complex
/// channel gain at time t is
///     h(t) = sqrt(1/M) * sum_k exp(j * (w_d * cos(alpha_k) * t + phi_k))
/// and the power gain |h(t)|^2 multiplies the two-ray power.
/// E[|h|^2] = 1, so fading preserves mean power; the envelope |h| is
/// Rayleigh-distributed for moderate M (16 by default, the classic Jakes
/// configuration).
///
/// With `doppler_hz == 0` the gain computation is bypassed entirely and
/// link_power_w returns the two-ray power bit-for-bit; the Channel builds
/// no fading process for zero Doppler at all. Node ids must be
/// non-negative (LinkTable keys).
class JakesFading {
public:
    JakesFading(double doppler_hz, std::uint64_t seed, int oscillators = 16);
    ~JakesFading();

    /// Received power on the directed link tx -> rx at time `now`.
    double link_power_w(net::NodeId tx, net::NodeId rx, double tx_power_w, double distance_m,
                        util::SimTime now);

    /// Power gain |h(t)|^2 on a link at time t; exposed for the
    /// distribution tests.
    double power_gain(net::NodeId tx, net::NodeId rx, util::SimTime now);

private:
    struct Oscillators;  // per-link ray bank, built lazily
    Oscillators& rays_for(net::NodeId tx, net::NodeId rx);

    double doppler_hz_;
    std::uint64_t seed_;
    int oscillators_;
    // Lazily-populated per-link ray banks, pointer-stable via unique_ptr.
    LinkTable<std::unique_ptr<Oscillators>> banks_;
};

}  // namespace ezflow::phy
