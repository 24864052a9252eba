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

// Pluggable-PHY model tests: a fixed-rate manager reproduces the default
// path exactly, the Rayleigh envelope distribution of the Jakes process,
// and the cumulative-SINR capture rule every frame is tested against.
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

std::vector<std::uint64_t> line_fingerprint(std::uint64_t seed)
{
    analysis::ScenarioSpec spec = analysis::ScenarioSpec::line(4, /*duration_s=*/12.0);
    analysis::ExperimentFactory factory(spec, analysis::ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(seed);
    experiment->run();
    return experiment_fingerprint(*experiment);
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
        EXPECT_EQ(experiment_fingerprint(*experiment), line_fingerprint(seed)) << "seed " << seed;
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
}

TEST(JakesFading, ScalesTheTwoRayPowerByTheGain)
{
    JakesFading model(10.0, 7);
    for (double d : {150.0, 420.0}) {
        const double gain = model.power_gain(0, 1, 5000);
        EXPECT_EQ(model.link_power_w(0, 1, 1.0, d, 5000), two_ray_power_w(1.0, d) * gain);
    }
}

TEST(JakesFading, RejectsBadParameters)
{
    EXPECT_THROW(JakesFading(-1.0, 7), std::invalid_argument);
    EXPECT_THROW(JakesFading(std::nan(""), 7), std::invalid_argument);
    EXPECT_THROW(JakesFading(10.0, 7, 0), std::invalid_argument);
    JakesFading model(10.0, 7);
    EXPECT_THROW(model.power_gain(-1, 0, 5000), std::invalid_argument);
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

    /// A noise floor, installed the way every run installs its models.
    void set_noise_floor(double noise_w)
    {
        PhyModelConfig config;
        config.noise_floor_w = noise_w;
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
// power at R is `sir` times weaker. The interferer starts mid-frame.
constexpr double kSenderX = 0.0;
constexpr double kReceiverX = 200.0;
double interferer_x(double sir) { return kReceiverX + 200.0 * std::pow(sir, 0.25); }

/// Whether R decodes the sender's frame when an interferer at SIR `sir`
/// starts 1 ms into it.
bool decodes_past_interferer(SinrBed& bed, double sir)
{
    NodePhy& sender = bed.add(kSenderX);
    bed.add(kReceiverX);
    NodePhy& interferer = bed.add(interferer_x(sir));
    sender.start_tx(SinrBed::data(0, 1));
    bed.scheduler.schedule_at(1000, [&] { interferer.start_tx(SinrBed::data(2, 1)); });
    bed.scheduler.run();
    EXPECT_EQ(bed.listeners[1]->decoded.size() + bed.phys[1]->frames_corrupted(), 1u);
    return bed.listeners[1]->decoded.size() == 1;
}

TEST(SinrCapture, MidFrameInterfererSurvivesCapture)
{
    // SIR 12 (interferer ~372 m from R): 6.25e-10 >= 10 x 5.2e-11, and
    // no noise, so the lock survives.
    SinrBed bed{PhyParams{}};
    EXPECT_TRUE(decodes_past_interferer(bed, 12.0));
}

TEST(SinrCapture, DecodeFloorBindsUnderAUnitCaptureThreshold)
{
    // With a unit capture threshold an interferer at SIR 2 would leave
    // the lock alone, but a 1 Mb/s frame still needs its 4 dB (2.51x)
    // decode floor: the floor binds and the frame is corrupted.
    PhyParams params;
    params.capture_threshold = 1.0;
    SinrBed bed{params};
    EXPECT_FALSE(decodes_past_interferer(bed, 2.0));
}

TEST(SinrCapture, OneMegabitThresholdIsTheCaptureThresholdExactly)
{
    // The 1 Mb/s decode floor (2.51x) sits below every capture threshold
    // in use, so those runs keep their exact threshold.
    for (const double threshold : {10.0, 100.0, 1e9}) {
        PhyParams params;
        params.capture_threshold = threshold;
        SinrBed bed{params};
        EXPECT_EQ(bed.channel.capture_threshold(SinrBed::data(0, 1)), threshold);
        EXPECT_EQ(bed.channel.capture_threshold(SinrBed::data(0, 1, 1'000'000)), threshold);
    }
}

TEST(SinrCapture, MidFrameInterfererPlusNoiseCorrupts)
{
    // Same geometry with a 2e-11 W noise floor: at lock the frame clears
    // 10 x noise easily, but when the interferer arrives the cumulative
    // test 6.25e-10 < 10 x (5.2e-11 + 2e-11) fails — the mid-frame
    // interferer corrupts a reception the noiseless channel kept.
    SinrBed bed{PhyParams{}};
    bed.set_noise_floor(2e-11);
    EXPECT_FALSE(decodes_past_interferer(bed, 12.0));
}

TEST(SinrCapture, StrongMidFrameInterfererCorrupts)
{
    // Interferer only 5x weaker than the locked frame: below the 10 dB
    // capture ratio.
    SinrBed bed{PhyParams{}};
    EXPECT_FALSE(decodes_past_interferer(bed, 5.0));
}

TEST(SinrCapture, RateDecodeFloorBindsAtHighRates)
{
    // 200 m link, 5e-11 W noise: SNR = 12.5 (11 dB). A 1 Mb/s frame needs
    // max(10 dB capture, 4 dB floor) = 10x and decodes; an 11 Mb/s frame
    // needs max(10 dB, 13 dB) = 19.95x and is corrupted by noise alone.
    for (const std::int64_t rate : {std::int64_t{1'000'000}, std::int64_t{11'000'000}}) {
        SinrBed bed{PhyParams{}};
        bed.set_noise_floor(5e-11);
        NodePhy& sender = bed.add(kSenderX);
        bed.add(kReceiverX);
        sender.start_tx(SinrBed::data(0, 1, rate));
        bed.scheduler.run();
        const bool should_decode = rate == 1'000'000;
        EXPECT_EQ(bed.listeners[1]->decoded.size(), should_decode ? 1u : 0u) << rate;
    }
}

TEST(SetModels, InstallsExactlyTheGivenSelection)
{
    SinrBed bed{PhyParams{}};
    PhyModelConfig minstrel;
    minstrel.rate = PhyModelConfig::Rate::kMinstrel;
    bed.channel.set_models(minstrel, /*network_seed=*/0);
    EXPECT_NE(dynamic_cast<MinstrelRate*>(bed.channel.rate_manager()), nullptr);
    // The default config replaces the manager instead of being ignored.
    bed.channel.set_models(PhyModelConfig{}, /*network_seed=*/0);
    EXPECT_EQ(bed.channel.rate_manager(), nullptr);

    PhyModelConfig bad;
    bad.jakes_doppler_hz = -1.0;
    EXPECT_THROW(bed.channel.set_models(bad, 0), std::invalid_argument);
    bad = PhyModelConfig{};
    bad.noise_floor_w = std::nan("");
    EXPECT_THROW(bed.channel.set_models(bad, 0), std::invalid_argument);
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
