/** @file TablePrinter formatting and GpuResult aggregation math. */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "core/gpu.hh"
#include "harness/table.hh"

using namespace si;

TEST(TablePrinter, RendersHeaderRuleAndRows)
{
    TablePrinter t("demo");
    t.header({"a", "bb", "ccc"});
    t.row({"1", "2", "3"});
    t.row({"x", "y", "z"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("a  bb  ccc"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_NE(out.find("x  y   z"), std::string::npos);
}

TEST(TablePrinter, ColumnsWidenToContent)
{
    TablePrinter t("w");
    t.header({"h", "x"});
    t.row({"longcell", "y"});
    const std::string out = t.render();
    // Header cell padded to the widest row cell.
    EXPECT_NE(out.find("h         x"), std::string::npos);
}

TEST(TablePrinter, NumAndPctFormatting)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
    EXPECT_EQ(TablePrinter::pct(12.345, 1), "12.3%");
    EXPECT_EQ(TablePrinter::pct(-4.0, 1), "-4.0%");
}

TEST(TablePrinter, MismatchedRowIsInternalError)
{
    TablePrinter t("bad");
    t.header({"a", "b"});
    EXPECT_THROW(
        try { t.row({"only-one"}); } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Internal);
            EXPECT_THAT(e.what(), ::testing::HasSubstr("row has"));
            throw;
        },
        SimError);
}

TEST(GpuResult, StallFractionsUsePerSmNormalizer)
{
    GpuResult r;
    r.cycles = 100;
    SmStats a, b;
    a.cycles = 100;
    a.exposedLoadStallCycles = 50;
    a.exposedLoadStallCyclesDivergent = 25.0;
    b.cycles = 60;
    b.exposedLoadStallCycles = 30;
    b.exposedLoadStallCyclesDivergent = 30.0;
    r.perSm = {a, b};
    r.total.accumulate(a);
    r.total.accumulate(b);

    EXPECT_EQ(r.smCycleSum(), 160u);
    EXPECT_NEAR(r.exposedStallFraction(), 80.0 / 160.0, 1e-12);
    EXPECT_NEAR(r.divergentStallFraction(), 55.0 / 160.0, 1e-12);
    // Fractions can never exceed 1.
    EXPECT_LE(r.exposedStallFraction(), 1.0);
}

TEST(GpuResult, AccumulateTakesMaxCyclesAndSumsCounts)
{
    SmStats total, a, b;
    a.cycles = 10;
    a.instrsIssued = 5;
    b.cycles = 20;
    b.instrsIssued = 7;
    total.accumulate(a);
    total.accumulate(b);
    EXPECT_EQ(total.cycles, 20u);
    EXPECT_EQ(total.instrsIssued, 12u);
}

TEST(GpuResult, EmptyResultIsSafe)
{
    GpuResult r;
    EXPECT_EQ(r.smCycleSum(), 0u);
    EXPECT_EQ(r.exposedStallFraction(), 0.0);
    EXPECT_EQ(r.divergentStallFraction(), 0.0);
}

#include "harness/report.hh"

TEST(StatsReport, ContainsCountersAndFormulas)
{
    SmStats s;
    s.cycles = 1000;
    s.instrsIssued = 250;
    s.exposedLoadStallCycles = 500;
    s.l1dHits = 30;
    s.l1dMisses = 10;
    const std::string out = statsReport("sm0", s);
    EXPECT_NE(out.find("sm0.cycles"), std::string::npos);
    EXPECT_NE(out.find("sm0.ipc"), std::string::npos);
    EXPECT_NE(out.find("0.2500"), std::string::npos); // ipc
    EXPECT_NE(out.find("0.5000"), std::string::npos); // stall frac
    EXPECT_NE(out.find("sm0.l1d_miss_rate"), std::string::npos);
}

TEST(StatsReport, AggregateUsesSmCycleSum)
{
    GpuResult r;
    SmStats a;
    a.cycles = 100;
    a.exposedLoadStallCycles = 80;
    SmStats b;
    b.cycles = 100;
    b.exposedLoadStallCycles = 80;
    r.perSm = {a, b};
    r.total.accumulate(a);
    r.total.accumulate(b);
    const std::string out = statsReport(r);
    // 160 stalls / 200 sm-cycles = 0.8, not 1.6.
    EXPECT_NE(out.find("0.8000"), std::string::npos);
    EXPECT_EQ(out.find("1.6000"), std::string::npos);
    EXPECT_NE(out.find("sm1.cycles"), std::string::npos);
}
