#include "phy/models.h"

namespace ezflow::phy {
namespace {

std::uint64_t derive_model_seed(const PhyModelConfig& config, std::uint64_t network_seed)
{
    if (config.model_seed != 0) return config.model_seed;
    // Keyed off a constant no other subsystem uses, so model randomness is
    // independent of the channel/traffic fork sequence.
    return network_seed ^ 0xFAD1E5B00CULL;
}

}  // namespace

std::unique_ptr<JakesFading> make_fading(const PhyModelConfig& config, std::uint64_t network_seed)
{
    switch (config.propagation) {
        case PhyModelConfig::Propagation::kTwoRay:
            return nullptr;  // reference: Channel keeps the inlined 1/d^4
        case PhyModelConfig::Propagation::kJakes:
            return std::make_unique<JakesFading>(config.jakes_doppler_hz,
                                                 derive_model_seed(config, network_seed),
                                                 config.jakes_oscillators);
    }
    return nullptr;
}

std::unique_ptr<RateManager> make_rate_manager(const PhyModelConfig& config)
{
    switch (config.rate) {
        case PhyModelConfig::Rate::kFixed:
            return nullptr;  // reference: frames stay at the PHY default
        case PhyModelConfig::Rate::kMinstrel:
            return std::make_unique<MinstrelRate>(config.minstrel_probe_period,
                                                  config.minstrel_ewma);
    }
    return nullptr;
}

}  // namespace ezflow::phy
