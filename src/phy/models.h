#pragma once

namespace ezflow::phy {

/// Selection of the PHY models a simulation runs beyond two-ray
/// propagation at the fixed PHY bitrate. The default value is that
/// golden-pinned configuration. Capture is not a choice: every frame is
/// tested against the cumulative-SINR ledger (see `Channel`).
struct PhyModelConfig {
    enum class Rate {
        kFixed,     ///< every frame at the PHY default bitrate
        kMinstrel,  ///< per-link Minstrel-style probing
    };

    Rate rate = Rate::kFixed;
    /// Jakes/Rayleigh fading over two-ray when positive; 0 is plain
    /// two-ray. Negative throws in `Channel::set_models`.
    double jakes_doppler_hz = 0.0;
    /// Thermal-noise floor added to the interference sum of every capture
    /// test, watts on the propagation model's normalized scale (two-ray
    /// emits 1/d^4 for unit tx power). 0 keeps SINR a pure
    /// signal-to-interference ratio.
    double noise_floor_w = 0.0;
};

}  // namespace ezflow::phy
