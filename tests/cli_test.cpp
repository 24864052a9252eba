#include "cli/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/app.h"
#include "cli/figures.h"
#include "util/json.h"

namespace ezflow::cli {
namespace {

class RegistryTest : public ::testing::Test {
protected:
    void SetUp() override { register_builtin_figures(); }
};

TEST_F(RegistryTest, RegistrationIsIdempotent)
{
    const std::size_t count = FigureRegistry::instance().size();
    register_builtin_figures();
    register_builtin_figures();
    EXPECT_EQ(FigureRegistry::instance().size(), count);
}

TEST_F(RegistryTest, EnumeratesEveryFormerBenchTarget)
{
    // Every figure the former standalone mains ran stays reachable by
    // name through `ezflow run`.
    const std::vector<std::string> expected = {
        // bench figures/tables
        "fig01", "fig04", "fig06", "fig07", "fig08", "fig10", "fig11", "fig12",
        "table1", "table2", "table3", "table4",
        // bench ablations
        "ablation_pacer", "ablation_penalty_q", "ablation_phy_capture", "ablation_rtscts",
        "ablation_sample_window", "ablation_sniff_loss", "ablation_thresholds"};
    for (const std::string& name : expected)
        EXPECT_NE(FigureRegistry::instance().find(name), nullptr) << name;
    EXPECT_GE(FigureRegistry::instance().size(), expected.size());
    // The google-benchmark harnesses are binaries under build/bench/, not
    // registry entries.
    EXPECT_EQ(FigureRegistry::instance().find("micro_fault"), nullptr);
}

TEST_F(RegistryTest, FindReturnsNullForUnknownNames)
{
    EXPECT_EQ(FigureRegistry::instance().find("no_such_figure"), nullptr);
}

TEST_F(RegistryTest, ListIsNameSortedAndCategorized)
{
    const auto specs = FigureRegistry::instance().list();
    ASSERT_FALSE(specs.empty());
    EXPECT_TRUE(std::is_sorted(specs.begin(), specs.end(),
                               [](const FigureSpec* a, const FigureSpec* b) {
                                   return a->name < b->name;
                               }));
    for (const FigureSpec* spec : specs) {
        EXPECT_FALSE(spec->title.empty()) << spec->name;
        EXPECT_TRUE(spec->category == "figure" || spec->category == "table" ||
                    spec->category == "ablation")
            << spec->name << " has category " << spec->category;
        EXPECT_TRUE(static_cast<bool>(spec->run)) << spec->name;
    }
}

TEST_F(RegistryTest, DuplicateRegistrationThrows)
{
    const auto run = [](const FigureContext&) { return analysis::FigureResult{}; };
    FigureSpec duplicate;
    duplicate.name = "fig06";
    duplicate.run = run;
    EXPECT_THROW(FigureRegistry::instance().add(std::move(duplicate)), std::invalid_argument);
}

TEST_F(RegistryTest, SpecWithoutRunIsRejected)
{
    FigureSpec listed_only;
    listed_only.name = "listed_only";
    listed_only.category = "figure";
    listed_only.title = "no runner";
    EXPECT_THROW(FigureRegistry::instance().add(std::move(listed_only)), std::invalid_argument);
    EXPECT_EQ(FigureRegistry::instance().find("listed_only"), nullptr);
}

TEST_F(RegistryTest, SmokeGridsAreFasterThanDefaults)
{
    for (const FigureSpec* spec : FigureRegistry::instance().list()) {
        EXPECT_LE(spec->smoke_scale, spec->default_scale) << spec->name;
        EXPECT_LE(spec->smoke_seeds, spec->default_seeds) << spec->name;
        EXPECT_GT(spec->smoke_scale, 0.0) << spec->name;
        EXPECT_GE(spec->smoke_seeds, 1) << spec->name;
    }
}

TEST_F(RegistryTest, ContextDerivesSeedGridAndExtras)
{
    FigureContext ctx;
    ctx.seed = 100;
    ctx.seeds = 3;
    ctx.extra = {{"hops", "6"}, {"duration", "2.5"}};
    EXPECT_EQ(ctx.seed_grid(), (std::vector<std::uint64_t>{100, 101, 102}));
    EXPECT_EQ(ctx.extra_int("hops", 4), 6);
    EXPECT_EQ(ctx.extra_int("absent", 4), 4);
    EXPECT_EQ(ctx.extra_double("duration", 1.0), 2.5);
    EXPECT_EQ(ctx.extra_double("absent", 1.0), 1.0);
}

TEST_F(RegistryTest, ExtrasRejectMalformedValues)
{
    // Regression: numeric extras ignored trailing characters.
    FigureContext ctx;
    ctx.extra = {{"hops", "6x"}, {"duration", "1.5s"}};
    EXPECT_THROW(ctx.extra_int("hops", 4), std::invalid_argument);
    EXPECT_THROW(ctx.extra_double("duration", 1.0), std::invalid_argument);
    EXPECT_EQ(ctx.extra_consumed.count("hops"), 1u);
}

TEST_F(RegistryTest, RunnableFigureProducesStructuredResult)
{
    const FigureSpec* spec = FigureRegistry::instance().find("fig01");
    ASSERT_NE(spec, nullptr);
    FigureContext ctx;
    ctx.spec = spec;
    ctx.scale = 0.02;  // 36 simulated seconds
    ctx.seed = 7;
    ctx.seeds = 1;
    ctx.threads = 1;
    const analysis::FigureResult result = spec->run(ctx);
    EXPECT_EQ(result.figure, "fig01");
    ASSERT_EQ(result.cells.size(), 2u);  // the 3-hop and the 4-hop chain
    for (const analysis::RunResult& cell : result.cells) {
        ASSERT_FALSE(cell.windows.empty());
        EXPECT_NE(cell.windows[0].find("goodput_kbps"), nullptr);
    }
    // And it serializes to stable JSON.
    const auto json = result.to_json();
    EXPECT_EQ(analysis::FigureResult::from_json(json).to_json().dump(), json.dump());
}

int run_cli(std::vector<std::string> args)
{
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (std::string& arg : args) argv.push_back(arg.data());
    return run_app(static_cast<int>(argv.size()), argv.data());
}

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(App, SweepIsAnUnknownCommand)
{
    // There is no `sweep` command: a grid is a shell loop over `ezflow run`.
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(run_cli({"ezflow", "sweep", "islands", "--grid=shards=1:2"}), 2);
    testing::internal::GetCapturedStdout();
    const std::string errors = testing::internal::GetCapturedStderr();
    EXPECT_NE(errors.find("unknown command 'sweep'"), std::string::npos) << errors;
}

TEST(App, MalformedFlagValuesAreUsageErrors)
{
    // Regression: --smoke=ture ran at full scale (unknown spellings read
    // as false) and --shards=4x ran 4 shards (trailing characters were
    // ignored). Both must now stop before any figure runs, with exit 2.
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(run_cli({"ezflow", "run", "fig01", "--smoke=ture"}), 2);
    EXPECT_EQ(run_cli({"ezflow", "run", "fig01", "--shards=4x"}), 2);
    EXPECT_EQ(run_cli({"ezflow", "run", "fig01", "--seed=7x"}), 2);
    EXPECT_EQ(run_cli({"ezflow", "run", "fig01", "--seed=-1"}), 2);
    testing::internal::GetCapturedStdout();
    const std::string errors = testing::internal::GetCapturedStderr();
    EXPECT_NE(errors.find("--smoke: 'ture' is not a boolean"), std::string::npos) << errors;
    EXPECT_NE(errors.find("--shards: '4x' is not an integer"), std::string::npos) << errors;

    // Regression: `run <figure> --scale=-1 --seeds=0 --shards=-3`
    // exited 0 after running at scale 1 with 1 seed. A given flag is
    // checked where run builds each figure's context.
    const auto error_of = [](std::vector<std::string> args) {
        testing::internal::CaptureStdout();
        testing::internal::CaptureStderr();
        EXPECT_EQ(run_cli(args), 2) << args.back();
        testing::internal::GetCapturedStdout();
        return testing::internal::GetCapturedStderr();
    };
    const struct {
        std::vector<std::string> args;
        const char* names;
    } out_of_range[] = {
        {{"ezflow", "run", "table4", "--scale=-1", "--seeds=0", "--shards=-3"},
         "--scale"},
        {{"ezflow", "run", "table4", "--scale=0"}, "--scale"},
        {{"ezflow", "run", "table4", "--scale=nan"}, "--scale"},
        {{"ezflow", "run", "table4", "--scale=inf"}, "--scale"},
        {{"ezflow", "run", "table4", "--seeds=0"}, "--seeds"},
        {{"ezflow", "run", "table4", "--seeds=-2"}, "--seeds"},
        {{"ezflow", "run", "table4", "--shards=-3"}, "--shards"},
        {{"ezflow", "run", "table4", "--threads=-1"}, "--threads"},
        // --all checks before the first figure runs.
        {{"ezflow", "run", "--all", "--seeds=0"}, "--seeds"},
    };
    for (const auto& test_case : out_of_range) {
        const std::string message = error_of(test_case.args);
        EXPECT_NE(message.find("flag value out of range: " + std::string(test_case.names)),
                  std::string::npos)
            << message;
    }
}

TEST(App, PerfLineReportsEachFiguresOwnShardCount)
{
    // Regression: the [perf] shard line reported the widest shard count
    // any earlier figure in the process had used, so a serial figure run
    // after a sharded one printed "4 shards, events/shard: 0 0 0 0".
    const auto run_captured = [](std::vector<std::string> args) {
        testing::internal::CaptureStdout();
        EXPECT_EQ(run_cli(std::move(args)), 0);
        return testing::internal::GetCapturedStdout();
    };
    const std::string sharded =
        run_captured({"ezflow", "run", "islands", "--smoke", "--json-only", "--shards=4"});
    EXPECT_NE(sharded.find("[perf] islands: 4 shards, events/shard:"), std::string::npos)
        << sharded;
    const std::string serial =
        run_captured({"ezflow", "run", "grid_cross", "--smoke", "--json-only"});
    EXPECT_NE(serial.find("[perf] grid_cross:"), std::string::npos) << serial;
    EXPECT_EQ(serial.find("shards"), std::string::npos) << serial;
    EXPECT_EQ(serial.find("epoch"), std::string::npos) << serial;
}

TEST(App, PerfLineCountsEveryScenarioBuilderCell)
{
    // table1 sweeps seven cells built by scenario builders (one 1-hop
    // network per link, not a ScenarioSpec): each run is counted.
    testing::internal::CaptureStdout();
    EXPECT_EQ(run_cli({"ezflow", "run", "table1", "--smoke", "--json-only"}), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("[perf] table1:"), std::string::npos) << out;
    EXPECT_NE(out.find("(7 runs)"), std::string::npos) << out;
}

TEST(App, PerfLineReportsPeakResidentMemory)
{
    // The process's own VmHWM, appended to the [perf] line where
    // /proc/self/status exists.
    if (!std::ifstream("/proc/self/status")) GTEST_SKIP() << "no /proc/self/status";
    testing::internal::CaptureStdout();
    EXPECT_EQ(run_cli({"ezflow", "run", "table1", "--smoke", "--json-only"}), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    const std::string field = "(7 runs), peak RSS ";
    const std::size_t at = out.find(field);
    ASSERT_NE(at, std::string::npos) << out;
    const double mb = std::stod(out.substr(at + field.size()));
    EXPECT_GT(mb, 0.0) << out;
    EXPECT_NE(out.find(" MB\n", at), std::string::npos) << out;
}

TEST(App, ListRejectsUnknownCategories)
{
    // Regression: an unknown category printed an empty table and exited 0.
    const auto list = [](const std::string& category, std::string* err) {
        testing::internal::CaptureStdout();
        testing::internal::CaptureStderr();
        const int rc = run_cli({"ezflow", "list", "--category=" + category});
        const std::string out = testing::internal::GetCapturedStdout();
        *err = testing::internal::GetCapturedStderr();
        return std::make_pair(rc, out);
    };
    std::string err;
    for (const std::string bogus : {"bogus", "example"}) {
        EXPECT_EQ(list(bogus, &err).first, 2) << bogus;
        const std::string expected =
            "unknown category '" + bogus + "' (categories: ablation, figure, table)";
        EXPECT_NE(err.find(expected), std::string::npos)
            << err;
    }
    const auto [rc, out] = list("table", &err);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("table2"), std::string::npos) << out;
    EXPECT_EQ(out.find("fig06"), std::string::npos) << out;
}

TEST(App, EveryEntrySweepsTheSeedsItIsGiven)
{
    // Regression: 16 entries ran one Experiment on --seed alone and
    // reported n = 1 for every metric whatever --seeds said.
    const std::string out = testing::TempDir() + "ezflow_every_entry_seeds2";
    std::filesystem::remove_all(out);
    ASSERT_EQ(run_cli({"ezflow", "run", "--all", "--smoke", "--seeds=2", "--threads=2", "--quiet",
                       "--json-only", "--out=" + out}),
              0);
    register_builtin_figures();
    for (const FigureSpec* spec : FigureRegistry::instance().list()) {
        const analysis::FigureResult result = analysis::FigureResult::from_json(
            util::Json::parse(slurp(out + "/" + spec->name + ".json")));
        EXPECT_EQ(result.seeds, 2) << spec->name;
        int folded_twice = 0;
        for (const analysis::RunResult& cell : result.cells)
            for (const analysis::WindowResult& window : cell.windows)
                for (const auto& [name, stat] : window.metrics) {
                    EXPECT_LE(stat.n, 2) << spec->name << " " << name;
                    folded_twice += stat.n == 2 ? 1 : 0;
                }
        EXPECT_GT(folded_twice, 0) << spec->name << " has no metric over both seeds";
    }
    std::filesystem::remove_all(out);
}

}  // namespace
}  // namespace ezflow::cli
