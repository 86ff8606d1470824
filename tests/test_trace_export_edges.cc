/**
 * @file
 * Edge cases of the CSV beat-trace export (core/trace_export.h):
 * decimation strides past the beat count, empty series, and decimated
 * rows of a run whose DVFS governor changes the P-state mid-run (so
 * the kept rows straddle a pstate column change).
 */
#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/calibration.h"
#include "core/identify.h"
#include "core/session.h"
#include "core/trace_export.h"
#include "sim/dvfs_governor.h"
#include "toy_app.h"

namespace powerdial::core {
namespace {

using tests::ToyApp;

std::size_t
countLines(const std::string &text)
{
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
}

TEST(TraceExportEdges, DecimateBeyondBeatCountKeepsOnlyBeatZero)
{
    std::vector<BeatTrace> beats(5);
    for (std::size_t i = 0; i < beats.size(); ++i)
        beats[i].time_s = static_cast<double>(i);
    std::ostringstream os;
    writeBeatsCsv(os, beats, 100);
    // Beat 0 is always on the decimation grid; nothing else is.
    EXPECT_EQ(countLines(os.str()), 2u);
    EXPECT_NE(os.str().find("\n0,0,"), std::string::npos);
}

TEST(TraceExportEdges, EmptySeriesIsHeaderOnly)
{
    std::ostringstream os;
    writeBeatsCsv(os, {}, 7);
    EXPECT_EQ(countLines(os.str()), 1u);
    EXPECT_EQ(os.str().rfind("beat,time_s,", 0), 0u);
}

/**
 * The recorded beats of one controlled run whose machine drops to the
 * deepest P-state mid-run and recovers near the end.
 */
std::vector<BeatTrace>
governedRun()
{
    ToyApp::Config config;
    config.units = 60;
    ToyApp app(config);
    auto ident = identifyKnobs(app);
    EXPECT_TRUE(ident.analysis.accepted);
    const auto cal = calibrate(app, app.trainingInputs());

    sim::Machine probe;
    const double baseline_s = cal.model.baselineSeconds();
    SessionOptions options;
    options.governor = sim::DvfsGovernor::powerCap(
        probe, baseline_s * 0.3, baseline_s * 0.8);

    Session session(app, ident.table, cal.model, options);
    auto &recorder = session.attach<BeatTraceRecorder>();
    sim::Machine machine;
    session.run(0, machine);
    return recorder.beats();
}

/** The (beat, pstate) columns of every row of a beats CSV. */
std::vector<std::pair<std::size_t, std::size_t>>
beatAndPStateRows(const std::string &csv)
{
    std::istringstream lines(csv);
    std::string line;
    std::getline(lines, line); // Header.
    std::vector<std::pair<std::size_t, std::size_t>> rows;
    while (std::getline(lines, line))
        rows.emplace_back(std::stoul(line.substr(0, line.find(','))),
                          std::stoul(line.substr(line.rfind(',') + 1)));
    return rows;
}

TEST(TraceExportEdges, MidRunPStateChangeSurvivesDecimation)
{
    const auto beats = governedRun();

    // The scenario did change P-state mid-run (else this test pins
    // nothing): some beat ran capped, some uncapped.
    std::vector<std::size_t> pstates;
    for (const auto &beat : beats)
        pstates.push_back(beat.pstate);
    EXPECT_GT(*std::max_element(pstates.begin(), pstates.end()), 0u);
    EXPECT_EQ(*std::min_element(pstates.begin(), pstates.end()), 0u);

    // Decimated at 7, the rows are beats 0, 7, 14, ... with their own
    // pstate: the stride does not reset or slip when the pstate column
    // changes between kept rows.
    std::ostringstream os;
    writeBeatsCsv(os, beats, 7);
    const auto rows = beatAndPStateRows(os.str());
    ASSERT_EQ(rows.size(), (beats.size() + 6) / 7);
    bool saw_capped = false;
    bool saw_uncapped = false;
    for (std::size_t k = 0; k < rows.size(); ++k) {
        EXPECT_EQ(rows[k].first, 7 * k);
        EXPECT_EQ(rows[k].second, beats[7 * k].pstate);
        saw_capped = saw_capped || rows[k].second > 0;
        saw_uncapped = saw_uncapped || rows[k].second == 0;
    }
    // And the kept rows still expose the change.
    EXPECT_TRUE(saw_capped);
    EXPECT_TRUE(saw_uncapped);
}

TEST(TraceExportEdges, DecimateBeyondRunLengthStreamsOneRow)
{
    const auto beats = governedRun();
    EXPECT_EQ(beats.size(), 60u);
    // Header plus the single on-grid row (beat 0).
    std::ostringstream os;
    writeBeatsCsv(os, beats, 1000);
    EXPECT_EQ(countLines(os.str()), 2u);
    const auto rows = beatAndPStateRows(os.str());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].first, 0u);
    EXPECT_EQ(rows[0].second, beats[0].pstate);
}

} // namespace
} // namespace powerdial::core
