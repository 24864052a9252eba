#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "util/cli.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

// Counts every heap allocation in this test binary, so the Rng tests can
// tell whether an engine was allocated (and so seeded).
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size)
{
    ++g_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
// GCC cannot see that these free only what the operator new above
// malloc'd, and warns.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ezflow::util {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, SecondsRoundTrip)
{
    EXPECT_EQ(from_seconds(1.5), 1'500'000);
    EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
}

TEST(Units, KbpsComputesKilobitsPerSecond)
{
    // 8000 bits over 1 second = 8 kb/s.
    EXPECT_DOUBLE_EQ(kbps(8000, kSecond), 8.0);
    // 8000 bits over 10 ms = 800 kb/s.
    EXPECT_DOUBLE_EQ(kbps(8000, 10 * kMillisecond), 800.0);
}

TEST(Units, KbpsZeroDurationIsZero)
{
    EXPECT_DOUBLE_EQ(kbps(1000, 0), 0.0);
}

// ------------------------------------------------------------------ rng

static_assert(!std::is_copy_constructible_v<Rng>, "Rng is move-only");
static_assert(!std::is_copy_assignable_v<Rng>, "Rng is move-only");
static_assert(std::is_nothrow_move_constructible_v<Rng>);
static_assert(sizeof(Rng) <= 32, "an unseeded Rng holds only its stream key");

// The first draws of fixed streams, captured from the engine-at-construction
// implementation: seeding on the first draw must not move any of them.
TEST(Rng, StreamsArePinned)
{
    Rng root(7);
    EXPECT_EQ(root.next_u64(), 0x03897df4301fc13bULL);
    EXPECT_EQ(root.next_u64(), 0x2e22d4ab77829f12ULL);
    EXPECT_EQ(root.next_u64(), 0x4f20d66dba1da42eULL);
    EXPECT_EQ(root.next_u64(), 0xf703e46a9c7ab7c4ULL);
    EXPECT_EQ(root.next_u64(), 0xffa4ba471353f4a9ULL);
    EXPECT_EQ(root.next_u64(), 0xf4a40cfdcbd49a2aULL);
    EXPECT_EQ(root.next_u64(), 0x0d4a21c96ee29c1fULL);
    EXPECT_EQ(root.next_u64(), 0xfb404982ee8f72b4ULL);

    const auto expect_first_fork = [](Rng child) {
        EXPECT_EQ(child.next_u64(), 0x29636afc9bdf6726ULL);
        EXPECT_EQ(child.next_u64(), 0x28a9647402eafab7ULL);
        EXPECT_EQ(child.next_u64(), 0x48a1d9dc3d4f32beULL);
        EXPECT_EQ(child.next_u64(), 0xfadb75ae6a501569ULL);
        EXPECT_EQ(child.next_u64(), 0x3ac672725191e221ULL);
        EXPECT_EQ(child.next_u64(), 0xf09a8954994c718cULL);
        EXPECT_EQ(child.next_u64(), 0xa7b52e918f3c2a34ULL);
        EXPECT_EQ(child.next_u64(), 0x616a96df939c2924ULL);
    };
    Rng fresh(7);
    expect_first_fork(fresh.fork());
    Rng drawn(7);
    for (int i = 0; i < 1000; ++i) drawn.next_u64();
    expect_first_fork(drawn.fork());  // keyed: the draws do not move it
}

TEST(Rng, StreamContinuesAcrossMoves)
{
    Rng reference(7);
    Rng unseeded(7);
    Rng early = std::move(unseeded);  // moved before its first draw
    for (int i = 0; i < 8; ++i) EXPECT_EQ(early.next_u64(), reference.next_u64());
    Rng late = std::move(early);  // moved after it
    for (int i = 0; i < 8; ++i) EXPECT_EQ(late.next_u64(), reference.next_u64());
    Rng assigned(99);
    assigned = std::move(late);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(assigned.next_u64(), reference.next_u64());
}

// The engine is allocated and seeded on the first draw, once; constructing,
// forking and moving an Rng allocate nothing.
TEST(Rng, EngineIsSeededOnFirstDrawOnly)
{
    long mark = g_allocations.load();
    Rng parent(7);
    Rng child = parent.fork();
    Rng grandchild = child.fork();
    EXPECT_EQ(g_allocations.load(), mark);

    parent.next_u64();
    EXPECT_GT(g_allocations.load(), mark);
    mark = g_allocations.load();
    for (int i = 0; i < 100; ++i) parent.uniform_int(0, 9);
    Rng late_child = parent.fork();
    Rng moved = std::move(parent);
    moved.next_u64();
    EXPECT_EQ(g_allocations.load(), mark);
}

TEST(Rng, UniformIntWithinBounds)
{
    Rng rng(42);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniform_int(3, 17);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(42);
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedRange)
{
    Rng rng(42);
    EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(7);
    Rng b(8);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next_u64() == b.next_u64()) ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDecorrelatedFromParent)
{
    Rng parent(7);
    Rng child = parent.fork();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (parent.next_u64() == child.next_u64()) ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, ForkDeterministicAcrossRuns)
{
    Rng a(99);
    Rng b(99);
    Rng fa = a.fork();
    Rng fb = b.fork();
    EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

// Fork derivation is keyed on (stream, fork index): drawing values from
// the parent between forks must not change which stream a child gets.
// This is what keeps a parallel sweep reproducible when tasks fork their
// RNGs in a fixed order but draw in a thread-dependent one.
TEST(Rng, ForkOrderIsStableUnderInterleavedDraws)
{
    Rng a(99);
    Rng b(99);
    Rng a1 = a.fork();
    for (int i = 0; i < 1000; ++i) b.next_u64();  // draws between forks
    Rng b1 = b.fork();
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a1.next_u64(), b1.next_u64());

    a.next_u64();
    Rng a2 = a.fork();
    Rng b2 = b.fork();
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a2.next_u64(), b2.next_u64());
}

TEST(Rng, SiblingForksAreDecorrelated)
{
    Rng parent(7);
    Rng first = parent.fork();
    Rng second = parent.fork();
    // No stream coincidence...
    int equal = 0;
    std::vector<std::uint64_t> xs, ys;
    for (int i = 0; i < 4096; ++i) {
        xs.push_back(first.next_u64());
        ys.push_back(second.next_u64());
        if (xs.back() == ys.back()) ++equal;
    }
    EXPECT_LT(equal, 3);
    // ...and no linear correlation between the streams (Pearson r of the
    // top 32 bits, which would catch shifted/overlapping sequences).
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    const double n = static_cast<double>(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double x = static_cast<double>(xs[i] >> 32);
        const double y = static_cast<double>(ys[i] >> 32);
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
    }
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double var_x = sxx / n - (sx / n) * (sx / n);
    const double var_y = syy / n - (sy / n) * (sy / n);
    const double r = cov / std::sqrt(var_x * var_y);
    EXPECT_LT(std::abs(r), 0.05);
}

TEST(Rng, ForkedSeedStreamsAcrossSeedsDiffer)
{
    // Adjacent sweep seeds must yield unrelated child streams (the old
    // draw-based fork made this depend on engine state quality).
    Rng a(1);
    Rng b(2);
    Rng fa = a.fork();
    Rng fb = b.fork();
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (fa.next_u64() == fb.next_u64()) ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        // Finite p outside [0, 1] is clamped; NaN is rejected.
        EXPECT_FALSE(rng.bernoulli(-0.5));
        EXPECT_TRUE(rng.bernoulli(1.5));
    }
    EXPECT_THROW(rng.bernoulli(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
}

TEST(Rng, BernoulliRateApproximatesP)
{
    Rng rng(1);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, UniformRealRejectsInvertedOrNanRange)
{
    Rng rng(5);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(rng.uniform_real(2.0, 1.0), std::invalid_argument);
    EXPECT_THROW(rng.uniform_real(nan, 1.0), std::invalid_argument);
    EXPECT_THROW(rng.uniform_real(0.0, nan), std::invalid_argument);
    EXPECT_DOUBLE_EQ(rng.uniform_real(3.0, 3.0), 3.0);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform_real(-1.0, 2.0);
        EXPECT_GE(v, -1.0);
        EXPECT_LT(v, 2.0);
    }
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng rng(11);
    std::vector<double> weights = {1.0, 3.0};
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.weighted_index(weights) == 1) ++ones;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsBadInput)
{
    Rng rng(11);
    EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(rng.weighted_index({-1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(rng.weighted_index({std::numeric_limits<double>::quiet_NaN(), 2.0}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MeanVarianceMinMax)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_EQ(s.count(), 8);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance)
{
    RunningStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStats, Ci95HalfwidthMatchesStudentT)
{
    RunningStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
    // n = 4, mean 2.5, stddev sqrt(5/3); t_{0.975,3} = 3.182.
    EXPECT_NEAR(ci95_halfwidth(s), 3.182 * std::sqrt(5.0 / 3.0) / 2.0, 1e-9);

    RunningStats tiny;
    EXPECT_DOUBLE_EQ(ci95_halfwidth(tiny), 0.0);
    tiny.add(1.0);
    EXPECT_DOUBLE_EQ(ci95_halfwidth(tiny), 0.0);

    RunningStats wide;
    for (int i = 0; i < 100; ++i) wide.add(i % 2 == 0 ? 1.0 : -1.0);
    // Large n uses the normal quantile: 1.96 * stddev / 10.
    EXPECT_NEAR(ci95_halfwidth(wide), 1.96 * wide.stddev() / 10.0, 1e-9);
}

TEST(TimeSeries, RejectsDecreasingTimestamps)
{
    TimeSeries ts;
    ts.add(10, 1.0);
    EXPECT_THROW(ts.add(5, 2.0), std::invalid_argument);
}

TEST(TimeSeries, WindowedMean)
{
    TimeSeries ts;
    for (SimTime t = 0; t < 10; ++t) ts.add(t, static_cast<double>(t));
    // Values 3,4,5,6 fall in [3,7).
    EXPECT_DOUBLE_EQ(ts.mean_between(3, 7), 4.5);
    EXPECT_DOUBLE_EQ(ts.max_between(3, 7), 6.0);
}

TEST(TimeSeries, WindowOutsideDataIsZero)
{
    TimeSeries ts;
    ts.add(5, 3.0);
    EXPECT_DOUBLE_EQ(ts.mean_between(100, 200), 0.0);
}

TEST(Percentile, InterpolatesLinearly)
{
    std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Percentile, RejectsBadInput)
{
    EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

// ---------------------------------------------------------------- table

TEST(Table, FormatsAlignedColumns)
{
    Table t({"link", "kb/s"});
    t.add_row({"l0", "845"});
    t.add_row({"l2", "408"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("| link"), std::string::npos);
    EXPECT_NE(s.find("845"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(7.0, 0), "7");
}

// ------------------------------------------------------------------ csv

TEST(Csv, WritesHeaderAndRows)
{
    const std::string path = ::testing::TempDir() + "/ezf_csv_test.csv";
    {
        CsvWriter csv(path, {"t", "v"});
        csv.add_row(std::vector<double>{1.0, 2.0});
        csv.add_row(std::vector<std::string>{"3", "4"});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "t,v");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::getline(in, line);
    EXPECT_EQ(line, "3,4");
}

TEST(Csv, RejectsWrongColumnCount)
{
    const std::string path = ::testing::TempDir() + "/ezf_csv_test2.csv";
    CsvWriter csv(path, {"a", "b"});
    EXPECT_THROW(csv.add_row(std::vector<double>{1.0}), std::invalid_argument);
}

// ------------------------------------------------------------------ cli

TEST(Cli, ParsesEqualsAndSwitchForms)
{
    const char* argv[] = {"prog", "--rate=2.5", "--hops=4", "--verbose", "positional"};
    Cli cli(5, argv);
    EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 2.5);
    EXPECT_EQ(cli.get_int("hops", 0), 4);
    EXPECT_TRUE(cli.get_bool("verbose", false));
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, StrictParsersRejectTrailingCharacters)
{
    EXPECT_EQ(Cli::parse_int("-12", "n"), -12);
    EXPECT_EQ(Cli::parse_uint64("18446744073709551615", "n"), 18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(Cli::parse_double("0.05", "x"), 0.05);
    EXPECT_DOUBLE_EQ(Cli::parse_double("1e-3", "x"), 1e-3);
    for (const char* bad : {"4x", "", " 4", "4 ", "4.0", "0x10"})
        EXPECT_THROW(Cli::parse_int(bad, "n"), std::invalid_argument) << "'" << bad << "'";
    for (const char* bad : {"1.5s", "", "abc", "1.0.0"})
        EXPECT_THROW(Cli::parse_double(bad, "x"), std::invalid_argument) << "'" << bad << "'";
    EXPECT_THROW(Cli::parse_uint64("-1", "n"), std::invalid_argument);  // no silent wrap
    EXPECT_THROW(Cli::parse_int("99999999999", "n"), std::out_of_range);
    EXPECT_THROW(Cli::parse_uint64("18446744073709551616", "n"), std::out_of_range);
}

TEST(Cli, BooleansAcceptOnlyKnownSpellings)
{
    for (const char* yes : {"true", "1", "yes", "on"}) EXPECT_TRUE(Cli::parse_bool(yes, "b"));
    for (const char* no : {"false", "0", "no", "off"}) EXPECT_FALSE(Cli::parse_bool(no, "b"));
    for (const char* bad : {"ture", "", "TRUE", "2", "y"})
        EXPECT_THROW(Cli::parse_bool(bad, "b"), std::invalid_argument) << "'" << bad << "'";
}

TEST(Cli, TypedGettersThrowOnMalformedValues)
{
    const char* argv[] = {"prog", "--shards=4x", "--smoke=ture", "--rate=2.5x"};
    Cli cli(4, argv);
    EXPECT_THROW(cli.get_int("shards", 1), std::invalid_argument);
    EXPECT_THROW(cli.get_bool("smoke", false), std::invalid_argument);
    EXPECT_THROW(cli.get_double("rate", 0.0), std::invalid_argument);
    try {
        cli.get_int("shards", 1);
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), "--shards: '4x' is not an integer");
    }
}

TEST(Cli, FallbacksWhenAbsent)
{
    const char* argv[] = {"prog"};
    Cli cli(1, argv);
    EXPECT_EQ(cli.get("name", "dflt"), "dflt");
    EXPECT_EQ(cli.get_int("n", 9), 9);
    EXPECT_FALSE(cli.has("x"));
}

}  // namespace
}  // namespace ezflow::util
