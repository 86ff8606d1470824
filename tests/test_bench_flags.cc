/**
 * @file
 * The bench flag parser (bench/bench_common.h): every bench lists its
 * flags in a table, and a malformed command line prints usage and exits
 * with status 2 instead of running a long sweep with default settings.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"

namespace powerdial::bench {
namespace {

using ::testing::ExitedWithCode;

/** What the fleet-bench-style test table below fills in. */
struct Parsed
{
    std::size_t steps = 48;
    std::size_t threads = 0;
    ObsOptions obs;
};

/** argv for @p args, with a program name in front. */
std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    static std::string program = "bench";
    std::vector<char *> argv{program.data()};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return argv;
}

/** Parse @p args against a fleet bench's table: steps, threads, obs. */
Parsed
parseFleetStyle(std::vector<std::string> args)
{
    Parsed out;
    std::vector<Flag> flags = {countFlag("--steps=", out.steps, 1),
                               countFlag("--threads=", out.threads)};
    addObsFlags(flags, out.obs);
    auto argv = argvOf(args);
    parseFlags(static_cast<int>(argv.size()), argv.data(), flags,
               "usage: %s [--steps=N] [--threads=N | -t N]\n", obsUsage());
    return out;
}

/** Parse @p args the way the paper benches do. */
BenchOptions
parsePaperStyle(std::vector<std::string> args)
{
    auto argv = argvOf(args);
    return parseBenchOptions(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlags, AcceptsThreadsAndItsShortAlias)
{
    EXPECT_EQ(parsePaperStyle({}).threads, 0u);
    EXPECT_EQ(parsePaperStyle({"--threads=4"}).threads, 4u);
    EXPECT_EQ(parsePaperStyle({"-t", "4"}).threads, 4u);
    EXPECT_EQ(parseFleetStyle({"-t", "3", "--steps=7"}).threads, 3u);
    EXPECT_EQ(parseFleetStyle({"-t", "3", "--steps=7"}).steps, 7u);
}

TEST(BenchFlags, AcceptsObservabilityPaths)
{
    const Parsed parsed = parseFleetStyle(
        {"--trace=t.json", "--trace-jsonl=t.jsonl", "--metrics=m.txt",
         "--trace-categories=beat"});
    EXPECT_EQ(parsed.obs.trace_path, "t.json");
    EXPECT_EQ(parsed.obs.trace_jsonl_path, "t.jsonl");
    EXPECT_EQ(parsed.obs.metrics_path, "m.txt");
    EXPECT_EQ(parsed.obs.categories, obs::kCatBeat);
    EXPECT_TRUE(parsed.obs.enabled());
    EXPECT_FALSE(parseFleetStyle({}).obs.enabled());
}

TEST(BenchFlags, CountsSpanTheWholeSizeRange)
{
    const std::string max = std::to_string(SIZE_MAX);
    EXPECT_EQ(parseCount(max.c_str()), SIZE_MAX);
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("007"), 7u);
    EXPECT_FALSE(parseCount((max + "0").c_str()).has_value());
    EXPECT_FALSE(parseCount("").has_value());
    EXPECT_FALSE(parseCount("+4").has_value());
}

TEST(BenchFlagsDeathTest, RejectsUnknownFlag)
{
    EXPECT_EXIT(parseFleetStyle({"--bogus"}), ExitedWithCode(2),
                "usage: bench \\[--steps=N\\]");
    EXPECT_EXIT(parsePaperStyle({"--steps=4"}), ExitedWithCode(2),
                "usage: bench \\[--threads=N \\| -t N\\]");
}

TEST(BenchFlagsDeathTest, RejectsMalformedCounts)
{
    for (const char *arg : {"--steps=", "--steps=-4", "--steps=4x",
                            "--steps=0"})
        EXPECT_EXIT(parseFleetStyle({arg}), ExitedWithCode(2), "usage")
            << arg;
}

TEST(BenchFlagsDeathTest, RejectsOverflowingCount)
{
    const std::string huge = std::to_string(SIZE_MAX) + "0";
    EXPECT_EXIT(parsePaperStyle({"--threads=" + huge}), ExitedWithCode(2),
                "usage");
    EXPECT_EXIT(parseFleetStyle({"--steps=" + huge}), ExitedWithCode(2),
                "usage");
}

TEST(BenchFlagsDeathTest, RejectsShortThreadsAliasWithoutValue)
{
    EXPECT_EXIT(parsePaperStyle({"-t"}), ExitedWithCode(2), "usage");
    EXPECT_EXIT(parseFleetStyle({"--steps=4", "-t"}), ExitedWithCode(2),
                "usage");
}

TEST(BenchFlagsDeathTest, RejectsBadTraceCategories)
{
    EXPECT_EXIT(parseFleetStyle({"--trace-categories=bogus"}),
                ExitedWithCode(2),
                "bad --trace-categories value 'bogus'");
}

TEST(BenchFlagsDeathTest, EmptyTableRejectsAnyArgument)
{
    std::vector<std::string> args{"--threads=4"};
    auto argv = argvOf(args);
    EXPECT_EXIT(parseFlags(static_cast<int>(argv.size()), argv.data(), {},
                           "usage: %s\n"),
                ExitedWithCode(2), "usage: bench");
}

} // namespace
} // namespace powerdial::bench
