#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "experiment_fingerprint.h"
#include "phy/channel.h"
#include "phy/link_table.h"
#include "phy/models.h"
#include "phy/propagation.h"
#include "phy/rate_manager.h"
#include "sim/scheduler.h"

// Pluggable-PHY model tests: the degenerate-parameter equivalence suite
// (every model family at its reference point must reproduce the reference
// path exactly), the Rayleigh envelope distribution of the Jakes process,
// and the cumulative-SINR capture semantics the interference ledger adds.
namespace ezflow::phy {
namespace {

using testutil::experiment_fingerprint;

// ------------------------------------------------------------ LinkTable

TEST(LinkTable, InsertFindOverwrite)
{
    LinkTable<int> table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(1, 2), nullptr);
    table.insert_or_assign(1, 2, 10);
    table.insert_or_assign(2, 1, 20);  // directed: distinct from (1,2)
    ASSERT_NE(table.find(1, 2), nullptr);
    ASSERT_NE(table.find(2, 1), nullptr);
    EXPECT_EQ(*table.find(1, 2), 10);
    EXPECT_EQ(*table.find(2, 1), 20);
    table.insert_or_assign(1, 2, 30);
    EXPECT_EQ(*table.find(1, 2), 30);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.find(3, 4), nullptr);
}

TEST(LinkTable, GrowsPastInitialCapacityAndKeepsEveryEntry)
{
    LinkTable<int> table;
    const int n = 500;  // forces several doublings from the initial 16
    for (int tx = 0; tx < n; ++tx) table.insert_or_assign(tx, tx + 1, tx * 7);
    EXPECT_EQ(table.size(), static_cast<std::size_t>(n));
    for (int tx = 0; tx < n; ++tx) {
        ASSERT_NE(table.find(tx, tx + 1), nullptr) << tx;
        EXPECT_EQ(*table.find(tx, tx + 1), tx * 7);
    }
    int visited = 0;
    table.for_each([&](net::NodeId tx, net::NodeId rx, int value) {
        EXPECT_EQ(rx, tx + 1);
        EXPECT_EQ(value, tx * 7);
        ++visited;
    });
    EXPECT_EQ(visited, n);
}

TEST(LinkTable, RejectsNegativeNodeIds)
{
    LinkTable<int> table;
    EXPECT_THROW(table.insert_or_assign(-1, 2, 0), std::invalid_argument);
}

// --------------------------------------- degenerate-parameter equivalence

std::vector<std::uint64_t> line_fingerprint(const PhyModelConfig& models, std::uint64_t seed)
{
    analysis::ScenarioSpec spec = analysis::ScenarioSpec::line(4, /*duration_s=*/12.0);
    spec.models = models;
    analysis::ExperimentFactory factory(spec, analysis::ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(seed);
    experiment->run();
    return experiment_fingerprint(*experiment);
}

TEST(PhyModelEquivalence, JakesZeroDopplerMatchesReference)
{
    // Jakes with zero Doppler is a static unit-gain channel over the
    // reference two-ray law: the full dynamic-model plumbing runs, yet
    // every counter must match the reference path exactly.
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        PhyModelConfig fading;
        fading.propagation = PhyModelConfig::Propagation::kJakes;
        fading.jakes_doppler_hz = 0.0;
        EXPECT_EQ(line_fingerprint(fading, seed), line_fingerprint(PhyModelConfig{}, seed))
            << "seed " << seed;
    }
}

TEST(PhyModelEquivalence, SinrLedgerWithoutNoiseMatchesReference)
{
    // Cumulative SINR with a zero noise floor and the default 10 dB
    // threshold evaluates the exact reference capture expression (the
    // 1 Mb/s decode floor sits below the capture threshold), so every
    // capture decision — and therefore the whole run — is identical.
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        PhyModelConfig sinr;
        sinr.interference = PhyModelConfig::Interference::kSinrLedger;
        EXPECT_EQ(line_fingerprint(sinr, seed), line_fingerprint(PhyModelConfig{}, seed))
            << "seed " << seed;
    }
}

/// Stamps every data attempt with the 1 Mb/s PHY default.
struct OneMegabitRate final : RateManager {
    std::int64_t bitrate_bps(net::NodeId, net::NodeId) override { return 1'000'000; }
    void report(net::NodeId, net::NodeId, bool) override {}
};

TEST(PhyModelEquivalence, ExplicitFixedRateManagerMatchesReference)
{
    // A rate manager fixed at the PHY default rate stamps every data frame
    // explicitly; airtime and capture must not move.
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        analysis::ScenarioSpec spec = analysis::ScenarioSpec::line(4, /*duration_s=*/12.0);
        analysis::ExperimentFactory factory(spec, analysis::ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(seed);
        experiment->network().channel().set_rate_manager(std::make_unique<OneMegabitRate>());
        experiment->run();
        EXPECT_EQ(experiment_fingerprint(*experiment),
                  line_fingerprint(PhyModelConfig{}, seed))
            << "seed " << seed;
    }
}

// ------------------------------------------------- Jakes/Rayleigh process

TEST(JakesFading, PowerGainIsRayleighDistributed)
{
    // |h|^2 of a Rayleigh channel is exponential with mean 1: check the
    // mean, the second moment (E[X^2] = 2) and the median (ln 2) over many
    // independent links and sample instants.
    JakesFading model(/*doppler_hz=*/10.0, /*seed=*/99);
    std::vector<double> samples;
    for (net::NodeId link = 0; link < 16; ++link)
        for (int i = 0; i < 512; ++i)
            samples.push_back(model.power_gain(link, link + 100, i * 13'000));
    double mean = 0.0;
    double second = 0.0;
    std::size_t below_median = 0;
    for (double g : samples) {
        mean += g;
        second += g * g;
        if (g <= std::log(2.0)) ++below_median;
    }
    mean /= static_cast<double>(samples.size());
    second /= static_cast<double>(samples.size());
    const double median_frac =
        static_cast<double>(below_median) / static_cast<double>(samples.size());
    EXPECT_NEAR(mean, 1.0, 0.1);
    EXPECT_NEAR(second, 2.0, 0.4);
    EXPECT_NEAR(median_frac, 0.5, 0.07);
}

TEST(JakesFading, DeterministicPerSeedAndLink)
{
    JakesFading a(10.0, 7);
    JakesFading b(10.0, 7);
    JakesFading c(10.0, 8);
    EXPECT_DOUBLE_EQ(a.power_gain(0, 1, 5000), b.power_gain(0, 1, 5000));
    EXPECT_NE(a.power_gain(0, 1, 5000), c.power_gain(0, 1, 5000));  // seed matters
    EXPECT_NE(a.power_gain(0, 1, 5000), a.power_gain(1, 0, 5000));  // direction matters
}

TEST(JakesFading, ZeroDopplerReturnsTwoRayPowerBitForBit)
{
    JakesFading model(0.0, 7);
    for (double d : {1.0, 150.0, 250.0, 420.0})
        EXPECT_EQ(model.link_power_w(0, 1, 1.0, d, 123'456), two_ray_power_w(1.0, d));
    EXPECT_TRUE(model.time_invariant());
}

TEST(JakesFading, ScalesTheTwoRayPowerByTheGain)
{
    JakesFading model(10.0, 7);
    EXPECT_FALSE(model.time_invariant());
    for (double d : {150.0, 420.0}) {
        const double gain = model.power_gain(0, 1, 5000);
        EXPECT_EQ(model.link_power_w(0, 1, 1.0, d, 5000), two_ray_power_w(1.0, d) * gain);
    }
}

TEST(JakesFading, RejectsBadParameters)
{
    EXPECT_THROW(JakesFading(-1.0, 7), std::invalid_argument);
    EXPECT_THROW(JakesFading(10.0, 7, 0), std::invalid_argument);
}

// --------------------------------------------- cumulative-SINR semantics

class NullListener final : public PhyListener {
public:
    void phy_busy_changed(bool) override {}
    void phy_frame_decoded(const Frame& frame) override { decoded.push_back(frame.mac_seq); }
    void phy_tx_done(const Frame&) override {}
    std::vector<std::uint32_t> decoded;
};

struct SinrBed {
    sim::Scheduler scheduler;
    Channel channel;
    std::vector<std::unique_ptr<NodePhy>> phys;
    std::vector<std::unique_ptr<NullListener>> listeners;

    explicit SinrBed(PhyParams params) : channel(scheduler, util::Rng(7), params) {}

    /// Cumulative-SINR capture, installed the way every run installs it.
    void use_sinr_ledger()
    {
        PhyModelConfig config;
        config.interference = PhyModelConfig::Interference::kSinrLedger;
        channel.set_models(config, /*network_seed=*/0);
    }

    NodePhy& add(double x)
    {
        const auto id = static_cast<net::NodeId>(phys.size());
        phys.push_back(std::make_unique<NodePhy>(id, Position{x, 0.0}, scheduler));
        listeners.push_back(std::make_unique<NullListener>());
        channel.attach(*phys.back());
        phys.back()->set_listener(listeners.back().get());
        return *phys.back();
    }

    static Frame data(net::NodeId from, net::NodeId to, std::int64_t rate_bps = 0)
    {
        Frame f;
        f.type = FrameType::kData;
        f.tx_node = from;
        f.rx_node = to;
        f.mac_seq = 42;
        f.bitrate_bps = rate_bps;
        Mpdu mpdu;
        mpdu.packet.bytes = 1000;
        f.mpdus.push_back(mpdu);
        return f;
    }
};

// Geometry shared by the mid-frame capture tests: receiver R at 200 m from
// the sender (power 1/200^4 = 6.25e-10 W) and a hidden interferer whose
// power at R is 12x weaker — above the 10 dB capture ratio, so the
// reference model lets R keep the frame. The interferer starts mid-frame.
constexpr double kSenderX = 0.0;
constexpr double kReceiverX = 200.0;
const double kInterfererX = kReceiverX + 200.0 * std::pow(12.0, 0.25);  // ~372 m from R

TEST(SinrCapture, MidFrameInterfererSurvivesReferenceCapture)
{
    SinrBed bed{PhyParams{}};
    NodePhy& sender = bed.add(kSenderX);
    bed.add(kReceiverX);
    NodePhy& interferer = bed.add(kInterfererX);
    sender.start_tx(SinrBed::data(0, 1));
    bed.scheduler.schedule_at(1000, [&] { interferer.start_tx(SinrBed::data(2, 1)); });
    bed.scheduler.run();
    // Reference capture: 6.25e-10 >= 10 x 5.2e-11, the lock survives.
    EXPECT_EQ(bed.listeners[1]->decoded.size(), 1u);
    EXPECT_EQ(bed.phys[1]->frames_corrupted(), 0u);
}

TEST(SinrCapture, MidFrameInterfererPlusNoiseCorruptsUnderSinrLedger)
{
    // Same geometry, SINR mode with a 2e-11 W noise floor: at lock the
    // frame clears 10 x noise easily, but when the interferer arrives the
    // cumulative test 6.25e-10 < 10 x (5.2e-11 + 2e-11) fails — the
    // mid-frame interferer corrupts a reception the reference model kept.
    PhyParams params;
    params.noise_floor_w = 2e-11;
    SinrBed bed{params};
    bed.use_sinr_ledger();
    NodePhy& sender = bed.add(kSenderX);
    bed.add(kReceiverX);
    NodePhy& interferer = bed.add(kInterfererX);
    sender.start_tx(SinrBed::data(0, 1));
    bed.scheduler.schedule_at(1000, [&] { interferer.start_tx(SinrBed::data(2, 1)); });
    bed.scheduler.run();
    EXPECT_EQ(bed.listeners[1]->decoded.size(), 0u);
    EXPECT_EQ(bed.phys[1]->frames_corrupted(), 1u);
}

TEST(SinrCapture, StrongMidFrameInterfererCorruptsInBothModes)
{
    // Interferer only 5x weaker than the locked frame: below the 10 dB
    // capture ratio, so reference and SINR mode agree on corruption.
    for (const bool sinr : {false, true}) {
        SinrBed bed{PhyParams{}};
        if (sinr) bed.use_sinr_ledger();
        NodePhy& sender = bed.add(kSenderX);
        bed.add(kReceiverX);
        NodePhy& interferer = bed.add(kReceiverX + 200.0 * std::pow(5.0, 0.25));
        sender.start_tx(SinrBed::data(0, 1));
        bed.scheduler.schedule_at(1000, [&] { interferer.start_tx(SinrBed::data(2, 1)); });
        bed.scheduler.run();
        EXPECT_EQ(bed.listeners[1]->decoded.size(), 0u) << "sinr=" << sinr;
        EXPECT_EQ(bed.phys[1]->frames_corrupted(), 1u) << "sinr=" << sinr;
    }
}

TEST(SinrCapture, RateDecodeFloorBindsAtHighRates)
{
    // 200 m link, 5e-11 W noise: SNR = 12.5 (11 dB). A 1 Mb/s frame needs
    // max(10 dB capture, 4 dB floor) = 10x and decodes; an 11 Mb/s frame
    // needs max(10 dB, 13 dB) = 19.95x and is corrupted by noise alone.
    PhyParams params;
    params.noise_floor_w = 5e-11;
    for (const std::int64_t rate : {std::int64_t{1'000'000}, std::int64_t{11'000'000}}) {
        SinrBed bed{params};
        bed.use_sinr_ledger();
        NodePhy& sender = bed.add(kSenderX);
        bed.add(kReceiverX);
        sender.start_tx(SinrBed::data(0, 1, rate));
        bed.scheduler.run();
        const bool should_decode = rate == 1'000'000;
        EXPECT_EQ(bed.listeners[1]->decoded.size(), should_decode ? 1u : 0u) << rate;
    }
}

TEST(InterferenceLedger, TracksActivePowerAndSnapsToZero)
{
    SinrBed bed{PhyParams{}};
    NodePhy& sender = bed.add(kSenderX);
    NodePhy& receiver = bed.add(kReceiverX);
    sender.start_tx(SinrBed::data(0, 1));
    EXPECT_GT(receiver.interference_ledger_w(), 0.0);
    bed.scheduler.run();
    EXPECT_EQ(receiver.interference_ledger_w(), 0.0);  // exactly quiet
}

// ----------------------------------------------------------- rate manager

TEST(Minstrel, WalksDownALinkThatCannotSustainHighRates)
{
    MinstrelRate minstrel;
    // Optimistic start: the first attempt tries the top rate.
    EXPECT_EQ(minstrel.bitrate_bps(0, 1), 11'000'000);
    minstrel.report(0, 1, false);
    // Fail everything above 1 Mb/s, succeed at 1 Mb/s: the EWMA walks the
    // best-throughput estimate down to the only sustainable rate.
    for (int i = 0; i < 200; ++i) {
        const std::int64_t rate = minstrel.bitrate_bps(0, 1);
        minstrel.report(0, 1, rate == 1'000'000);
    }
    EXPECT_EQ(minstrel.best_rate_bps(0, 1), 1'000'000);
    // An untouched link is unaffected (per-link state).
    EXPECT_EQ(minstrel.bitrate_bps(5, 6), 11'000'000);
}

TEST(Minstrel, ProbesNonBestRatesPeriodically)
{
    MinstrelRate minstrel(/*probe_period=*/5);
    for (int i = 0; i < 40; ++i) {
        const std::int64_t rate = minstrel.bitrate_bps(0, 1);
        minstrel.report(0, 1, rate == 1'000'000);
    }
    ASSERT_EQ(minstrel.best_rate_bps(0, 1), 1'000'000);
    // Steady state: in any 5 consecutive decisions, exactly one probes a
    // non-best rate.
    int probes = 0;
    for (int i = 0; i < 20; ++i) {
        const std::int64_t rate = minstrel.bitrate_bps(0, 1);
        if (rate != 1'000'000) ++probes;
        minstrel.report(0, 1, rate == 1'000'000);
    }
    EXPECT_EQ(probes, 4);
}

// --------------------------------------------------------- shared radius

TEST(ConflictRadius, IsTheMaxOfAllInteractionRanges)
{
    PhyParams params;
    EXPECT_DOUBLE_EQ(params.conflict_radius_m(), 550.0);
    params.interference_range_m = 800.0;
    EXPECT_DOUBLE_EQ(params.conflict_radius_m(), 800.0);
    params.tx_range_m = 900.0;
    EXPECT_DOUBLE_EQ(params.conflict_radius_m(), 900.0);
}

}  // namespace
}  // namespace ezflow::phy
