#pragma once

#include <cstdint>
#include <memory>

#include "phy/propagation.h"
#include "phy/rate_manager.h"

namespace ezflow::phy {

/// Selection of pluggable PHY models for a simulation. The default value is
/// the golden-pinned reference configuration — binary-range two-ray power,
/// capture against the linear threshold, fixed PHY bitrate —
/// and `Network::set_phy_models` with `is_reference() == true` is an exact
/// no-op, so every existing golden stays byte-identical.
struct PhyModelConfig {
    enum class Propagation {
        kTwoRay,  ///< reference: normalized two-ray 1/d^4, time-invariant
        kJakes,   ///< Jakes/Rayleigh fading over two-ray (doppler 0 = two-ray)
    };
    enum class Interference {
        kReference,   ///< capture vs linear threshold, no noise, no rate floors
        kSinrLedger,  ///< cumulative SINR vs capture_threshold_db + rate SNR floors
    };
    enum class Rate {
        kFixed,     ///< every frame at the PHY default bitrate
        kMinstrel,  ///< per-link Minstrel-style probing
    };

    Propagation propagation = Propagation::kTwoRay;
    Interference interference = Interference::kReference;
    Rate rate = Rate::kFixed;

    double jakes_doppler_hz = 0.0;  ///< 0 reproduces the base model exactly
    int jakes_oscillators = 16;
    /// Seed for model-private randomness (fading ray banks). 0 derives a
    /// key from the network seed; model RNGs never touch simulator streams.
    std::uint64_t model_seed = 0;
    /// Noise floor override for SINR mode; negative means keep
    /// `PhyParams::noise_floor_w`.
    double noise_floor_w = -1.0;
    int minstrel_probe_period = 10;
    double minstrel_ewma = 0.25;

    bool is_reference() const
    {
        return propagation == Propagation::kTwoRay && interference == Interference::kReference &&
               rate == Rate::kFixed;
    }
};

/// Build the configured fading process, or nullptr for plain two-ray
/// propagation (the Channel keeps its inlined fast path).
std::unique_ptr<JakesFading> make_fading(const PhyModelConfig& config, std::uint64_t network_seed);

/// Build the configured rate manager, or nullptr for the reference
/// configuration (frames stay unstamped at the PHY default rate).
std::unique_ptr<RateManager> make_rate_manager(const PhyModelConfig& config);

}  // namespace ezflow::phy
