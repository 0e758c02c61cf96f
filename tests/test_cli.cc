/** @file Unit tests for the table-driven option parser (common/cli). */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"

namespace {

using si::cli::Parser;

enum class Color { Red, Green };

/** Every row kind, with the targets it writes. */
struct Fixture
{
    bool flag = false;
    bool implied = false;
    unsigned count = 4;
    std::uint64_t big = 0;
    unsigned ranged = 1;
    std::string file;
    Color color = Color::Red;
    std::optional<Color> maybe;
    bool toggle = true;
    std::vector<std::string> files;
    Parser cli{"tool", "[options] FILE...", 2};

    Fixture()
    {
        const std::vector<std::pair<std::string, Color>> colors = {
            {"red", Color::Red}, {"green", Color::Green}};
        cli.positional(files, "FILE", 0, 2)
            .flag("--flag", flag, "a flag")
            .flag("--both", [this] { flag = implied = true; },
                  "a flag that implies --flag")
            .number("--count", count, "a count")
            .number("--big", big, "a 64-bit count")
            .number("--ranged", ranged, "one to ten", 1, 10)
            .text("--file", file, "FILE", "a path")
            .choice("--color", color, colors, "red or green")
            .choice("--maybe", maybe, colors, "an optional color")
            .toggle("--toggle", toggle, "on by default");
    }

    std::optional<int>
    parse(std::vector<const char *> args)
    {
        args.insert(args.begin(), "tool");
        return cli.parse(int(args.size()), args.data());
    }

    /** Parse, expecting a rejection; returns what went to stderr. */
    std::string
    reject(const std::vector<const char *> &args)
    {
        testing::internal::CaptureStderr();
        const std::optional<int> status = parse(args);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(status, std::optional<int>(2)) << err;
        EXPECT_NE(err.find("usage: tool [options] FILE..."),
                  std::string::npos)
            << err;
        return err;
    }
};

TEST(Cli, EachRowKindSetsItsTarget)
{
    Fixture f;
    EXPECT_EQ(f.parse({"a.txt", "--flag", "--count", "7", "--big",
                       "4294967296", "--ranged", "10", "--file", "-",
                       "--color", "green", "--maybe", "red", "b.txt"}),
              std::nullopt);
    EXPECT_TRUE(f.flag);
    EXPECT_FALSE(f.implied);
    EXPECT_EQ(f.count, 7u);
    EXPECT_EQ(f.big, 4294967296ull);
    EXPECT_EQ(f.ranged, 10u);
    EXPECT_EQ(f.file, "-");
    EXPECT_EQ(f.color, Color::Green);
    EXPECT_EQ(f.maybe, std::optional<Color>(Color::Red));
    EXPECT_TRUE(f.toggle);
    EXPECT_EQ(f.files, (std::vector<std::string>{"a.txt", "b.txt"}));

    Fixture g;
    EXPECT_EQ(g.parse({"--both", "--count", "0x10"}), std::nullopt);
    EXPECT_TRUE(g.flag);
    EXPECT_TRUE(g.implied);
    EXPECT_EQ(g.count, 16u);
    EXPECT_EQ(g.maybe, std::nullopt);
}

TEST(Cli, LastRepetitionWins)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--count", "1", "--color", "green", "--count", "2",
                       "--color", "red", "--toggle=off", "--toggle"}),
              std::nullopt);
    EXPECT_EQ(f.count, 2u);
    EXPECT_EQ(f.color, Color::Red);
    EXPECT_TRUE(f.toggle);
}

TEST(Cli, ToggleTakesOnAndOff)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--toggle=off"}), std::nullopt);
    EXPECT_FALSE(f.toggle);
    EXPECT_EQ(f.parse({"--toggle=on"}), std::nullopt);
    EXPECT_TRUE(f.toggle);
    EXPECT_NE(f.reject({"--toggle=maybe"})
                  .find("tool: --toggle: 'maybe' is not on or off"),
              std::string::npos);
    // Only a toggle takes an attached value.
    EXPECT_NE(f.reject({"--count=3"}).find("tool: --count=3: unknown option"),
              std::string::npos);
}

TEST(Cli, RejectsBadNumbersNamingTheFlag)
{
    const struct
    {
        std::vector<const char *> args;
        const char *message;
    } cases[] = {
        {{"--count", "-1"}, "tool: --count: '-1' is not an unsigned number"},
        {{"--count", "+1"}, "tool: --count: '+1' is not an unsigned number"},
        {{"--count", " 1"}, "tool: --count: ' 1' is not an unsigned number"},
        {{"--count", "4294967296"},
         "tool: --count: '4294967296' is out of range 0..4294967295"},
        {{"--big", "18446744073709551616"},
         "tool: --big: '18446744073709551616' is out of range"},
        {{"--count", "12abc"},
         "tool: --count: '12abc' is not an unsigned number"},
        {{"--count", ""}, "tool: --count: '' is not an unsigned number"},
        {{"--count"}, "tool: --count: missing value"},
        {{"--ranged", "0"}, "tool: --ranged: '0' is out of range 1..10"},
        {{"--ranged", "11"}, "tool: --ranged: '11' is out of range 1..10"},
        {{"--color", "blue"},
         "tool: --color: 'blue' is not one of red|green"},
        {{"--file"}, "tool: --file: missing value"},
        {{"--bogus"}, "tool: --bogus: unknown option"},
        {{"a", "b", "c"}, "tool: c: unexpected argument"},
    };
    for (const auto &c : cases) {
        Fixture f;
        const std::string err = f.reject(c.args);
        EXPECT_NE(err.find(c.message), std::string::npos)
            << "expected '" << c.message << "' in:\n"
            << err;
        // A rejected value never reaches the target.
        EXPECT_EQ(f.count, 4u);
        EXPECT_EQ(f.ranged, 1u);
    }
}

TEST(Cli, MissingPositionalIsRejected)
{
    std::vector<std::string> kernel;
    Parser cli("tool", "KERNEL");
    cli.positional(kernel, "KERNEL", 1, 1);
    const char *argv[] = {"tool"};
    testing::internal::CaptureStderr();
    EXPECT_EQ(cli.parse(1, argv), std::optional<int>(1));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "tool: KERNEL: missing"),
              std::string::npos);
}

TEST(Cli, HelpPrintsUsageOnStdoutAndReturnsZero)
{
    for (const char *help : {"--help", "-h"}) {
        Fixture f;
        testing::internal::CaptureStdout();
        // --help wins wherever it appears, even after a bad option.
        EXPECT_EQ(f.parse({"--bogus", help}), std::optional<int>(0));
        EXPECT_EQ(testing::internal::GetCapturedStdout(), f.cli.usage());
    }
}

TEST(Cli, UsageListsEveryRow)
{
    Fixture f;
    const std::string usage = f.cli.usage();
    for (const char *entry :
         {"usage: tool [options] FILE...", "  --flag ", "  --both ",
          "  --count N ", "  --big N ", "  --ranged N ", "  --file FILE ",
          "  --color red|green ", "  --maybe red|green ",
          "  --toggle[=off] ", "  --help, -h "}) {
        EXPECT_NE(usage.find(entry), std::string::npos)
            << "missing '" << entry << "' in:\n"
            << usage;
    }
    std::istringstream lines(usage);
    for (std::string line; std::getline(lines, line);)
        EXPECT_LE(line.size(), 79u) << line;
}

TEST(Cli, SharedRowsBoundJobsAndToggleFastForward)
{
    unsigned jobs = 1;
    bool ff = true;
    Parser cli("tool", "[options]");
    cli.jobs(jobs).fastForward(ff);
    const char *ok[] = {"tool", "--jobs", "1024", "--fast-forward=off"};
    EXPECT_EQ(cli.parse(4, ok), std::nullopt);
    EXPECT_EQ(jobs, 1024u);
    EXPECT_FALSE(ff);
    const char *too_many[] = {"tool", "--jobs", "1025"};
    testing::internal::CaptureStderr();
    EXPECT_EQ(cli.parse(3, too_many), std::optional<int>(1));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "tool: --jobs: '1025' is out of range 0..1024"),
              std::string::npos);
}

TEST(Cli, WriteOutputToFileOrStdout)
{
    testing::internal::CaptureStdout();
    EXPECT_TRUE(si::cli::writeOutput("-", "to stdout\n", "tool"));
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "to stdout\n");

    const std::string path = testing::TempDir() + "cli_write_output.txt";
    EXPECT_TRUE(si::cli::writeOutput(path, "to a file\n", "tool"));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "to a file\n");
    std::remove(path.c_str());

    testing::internal::CaptureStderr();
    EXPECT_FALSE(si::cli::writeOutput("/nonexistent-dir/x", "", "tool"));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "tool: cannot write '/nonexistent-dir/x'\n");
}

} // namespace
