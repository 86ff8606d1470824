/**
 * @file
 * The structured-trace subsystem (src/obs): sink fan-in determinism,
 * category/severity filtering, ring bounds, exporter well-formedness,
 * and the fleet differential — the trace byte stream out of a served
 * fleet must be identical at any thread count on either engine, and
 * must carry enough decision context to answer "why was job N shed?"
 * from the file alone.
 *
 * The thread count for the parallel side comes from
 * POWERDIAL_TEST_THREADS (default 4), mirroring the calibration and
 * fleet differential suites.
 */
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/admission.h"
#include "fleet_scenarios.h"
#include "obs/trace_json.h"
#include "obs/trace_sink.h"
#include "workload/traffic_mix.h"

namespace powerdial::fleet::tests {
namespace {

std::size_t
testThreads()
{
    const char *env = std::getenv("POWERDIAL_TEST_THREADS");
    if (env != nullptr) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return 4;
}

// -------------------------------------------------------------------
// A minimal JSON validity checker (recursive descent over the full
// grammar minus unicode escapes' codepoint semantics). The CI smoke
// job re-validates with python's json module; this keeps the property
// inside the test suite with no interpreter dependency.
// -------------------------------------------------------------------
class JsonChecker
{
  public:
    static bool
    valid(const std::string &text)
    {
        JsonChecker checker(text);
        checker.skipWs();
        if (!checker.value())
            return false;
        checker.skipWs();
        return checker.pos_ == text.size();
    }

  private:
    explicit JsonChecker(const std::string &text) : text_(&text) {}

    char
    peek() const
    {
        return pos_ < text_->size() ? (*text_)[pos_] : '\0';
    }
    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }
    void
    skipWs()
    {
        while (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
               peek() == '\r')
            ++pos_;
    }
    bool
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p)
            if (!consume(*p))
                return false;
        return true;
    }
    bool
    string()
    {
        if (!consume('"'))
            return false;
        while (pos_ < text_->size()) {
            const char c = (*text_)[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_->size())
                    return false;
                ++pos_;
            }
        }
        return false;
    }
    bool
    number()
    {
        consume('-');
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return false;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (consume('.')) {
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return false;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return false;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return true;
    }
    bool
    object()
    {
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            if (!value())
                return false;
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }
    bool
    array()
    {
        if (!consume('['))
            return false;
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }
    bool
    value()
    {
        skipWs();
        switch (peek()) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    const std::string *text_;
    std::size_t pos_ = 0;
};

// -------------------------------------------------------------------
// Sink unit tests.
// -------------------------------------------------------------------

obs::TraceRecord
stamped(double time_s, std::size_t stream, std::size_t seq)
{
    obs::TraceRecord record;
    record.kind = obs::TraceKind::Beat;
    record.time_s = time_s;
    record.stream = stream;
    record.seq = seq;
    return record;
}

TEST(TraceSink, DrainMergesShardsByTimeStreamSeq)
{
    obs::TraceSink sink;
    // Two job streams' batches, each out of time order, appended in
    // neither time nor stream order; the drain order must depend only
    // on (time_s, stream, seq).
    sink.append({stamped(3.0, 5, 0), stamped(1.0, 7, 0),
                 stamped(2.0, 5, 1)});
    sink.append({stamped(2.0, 5, 0), stamped(1.0, 2, 0)});
    EXPECT_EQ(sink.recorded(), 5u);

    const auto records = sink.drain();
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].stream, 2u); // (1.0, 2, 0)
    EXPECT_EQ(records[1].stream, 7u); // (1.0, 7, 0)
    EXPECT_EQ(records[2].seq, 0u);    // (2.0, 5, 0)
    EXPECT_EQ(records[3].seq, 1u);    // (2.0, 5, 1)
    EXPECT_EQ(records[4].time_s, 3.0);
    EXPECT_EQ(sink.recorded(), 0u); // Drain clears.
}

TEST(TraceSink, FleetPlaneAssignsStreamZeroAndMonotoneSeq)
{
    obs::TraceSink sink;
    obs::TraceRecord record;
    record.kind = obs::TraceKind::Admit;
    record.time_s = 1.0;
    sink.emitFleet(record);
    record.time_s = 2.0;
    sink.emitFleet(record);
    const auto records = sink.drain();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].stream, 0u);
    EXPECT_EQ(records[1].stream, 0u);
    EXPECT_EQ(records[0].seq, 0u);
    EXPECT_EQ(records[1].seq, 1u);
}

TEST(TraceSink, WantsFiltersByCategoryAndSeverity)
{
    obs::TraceConfig config;
    config.categories = obs::kCatAdmission | obs::kCatControl;
    config.min_severity = obs::Severity::Info;
    obs::TraceSink sink(config);
    EXPECT_TRUE(sink.wants(obs::kCatAdmission, obs::Severity::Warn));
    EXPECT_TRUE(sink.wants(obs::kCatControl, obs::Severity::Info));
    EXPECT_FALSE(sink.wants(obs::kCatBeat, obs::Severity::Warn));
    EXPECT_FALSE(sink.wants(obs::kCatControl, obs::Severity::Debug));
}

TEST(TraceSink, ParseCategories)
{
    EXPECT_EQ(obs::parseCategories("all"), obs::kCatAll);
    EXPECT_EQ(obs::parseCategories("none"), 0u);
    EXPECT_EQ(obs::parseCategories("control,beat"),
              obs::kCatControl | obs::kCatBeat);
    EXPECT_EQ(obs::parseCategories("fleet"),
              obs::kCatAdmission | obs::kCatPlacement |
                  obs::kCatArbitration);
    EXPECT_EQ(obs::parseCategories("lifecycle,admission"),
              obs::kCatLifecycle | obs::kCatAdmission);
    EXPECT_FALSE(obs::parseCategories("bogus").has_value());
    EXPECT_FALSE(obs::parseCategories("control,").has_value());
}

// -------------------------------------------------------------------
// Fleet differential: a served scenario's trace bytes must not depend
// on the thread count.
// -------------------------------------------------------------------

struct TracedServe
{
    FleetReport report;
    std::vector<obs::TraceRecord> records;
    std::string chrome;
    std::string jsonl;
};

TracedServe
serveTraced(Pipeline &p, const FleetScenario &scenario,
            EngineMode engine, std::size_t threads)
{
    obs::TraceSink sink;
    ServerOptions options = scenario.options;
    options.engine = engine;
    options.threads = threads;
    options.trace = &sink;
    Server server(p.app, p.table, p.model, options);
    TracedServe out;
    out.report = server.serve(scenario.arrivals);
    out.records = sink.drain();
    std::ostringstream chrome;
    obs::writeChromeTrace(chrome, out.records);
    out.chrome = chrome.str();
    std::ostringstream jsonl;
    obs::writeJsonl(jsonl, out.records);
    out.jsonl = jsonl.str();
    return out;
}

TEST(TraceDifferential, BytesIdenticalAcrossThreadCounts)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const std::size_t threads = testThreads();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        const auto scenario = makeFleetScenario(
            seed, baseline_s, p.app.productionInputs());
        for (const EngineMode engine :
             {EngineMode::Event, EngineMode::Epoch}) {
            SCOPED_TRACE(engine == EngineMode::Epoch ? "epoch" : "event");
            const auto serial = serveTraced(p, scenario, engine, 1);
            const auto parallel =
                serveTraced(p, scenario, engine, threads);
            EXPECT_EQ(serial.chrome, parallel.chrome);
            EXPECT_EQ(serial.jsonl, parallel.jsonl);
            expectReportsIdentical(serial.report, parallel.report);
        }
    }
}

TEST(TraceDifferential, ExportsAreWellFormed)
{
    auto p = makePipeline();
    const auto scenario = makeFleetScenario(
        11, p.model.baselineSeconds(), p.app.productionInputs());
    const auto traced =
        serveTraced(p, scenario, EngineMode::Event, 1);
    ASSERT_FALSE(traced.records.empty());
    EXPECT_TRUE(JsonChecker::valid(traced.chrome));

    // JSONL: every line is one standalone JSON object.
    std::istringstream lines(traced.jsonl);
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        SCOPED_TRACE(::testing::Message() << "line " << count);
        EXPECT_TRUE(JsonChecker::valid(line));
        ++count;
    }
    EXPECT_EQ(count, traced.records.size());
}

TEST(TraceDifferential, StreamsAreMonotoneAndDrainIsSorted)
{
    auto p = makePipeline();
    const auto scenario = makeFleetScenario(
        12, p.model.baselineSeconds(), p.app.productionInputs());
    const auto traced =
        serveTraced(p, scenario, EngineMode::Epoch, 1);
    ASSERT_FALSE(traced.records.empty());

    // Global drain order: sorted by (time_s, stream, seq), no ties.
    for (std::size_t i = 1; i < traced.records.size(); ++i) {
        const auto &a = traced.records[i - 1];
        const auto &b = traced.records[i];
        const bool ordered = a.time_s < b.time_s ||
            (a.time_s == b.time_s &&
             (a.stream < b.stream ||
              (a.stream == b.stream && a.seq < b.seq)));
        EXPECT_TRUE(ordered) << "records " << i - 1 << ", " << i;
    }

    // Per stream: timestamps non-decreasing, seq dense from zero.
    std::map<std::size_t, std::pair<double, std::size_t>> last;
    for (const auto &record : traced.records) {
        const auto it = last.find(record.stream);
        if (it == last.end()) {
            EXPECT_EQ(record.seq, 0u)
                << "stream " << record.stream;
        } else {
            EXPECT_GE(record.time_s, it->second.first)
                << "stream " << record.stream;
            EXPECT_EQ(record.seq, it->second.second + 1)
                << "stream " << record.stream;
        }
        last[record.stream] = {record.time_s, record.seq};
    }
}

// -------------------------------------------------------------------
// Decision attribution: the shed records alone must answer "why was
// this offer turned away" — cause, the admission math, and the class.
// -------------------------------------------------------------------

TEST(TraceAttribution, CapacityShedsCarryCauseAndContext)
{
    auto p = makePipeline();
    obs::TraceSink sink;
    ServerOptions options;
    options.machines = 1;
    options.queue_depth = 1;
    options.threads = 1;
    options.epoch_seconds = p.model.baselineSeconds();
    options.trace = &sink;
    Server server(p.app, p.table, p.model, options);
    // Four arrivals into a one-slot machine: sheds guaranteed.
    const auto report = server.serve({4, 4});
    ASSERT_GT(report.total_shed, 0u);

    const auto records = sink.drain();
    std::size_t sheds = 0;
    std::vector<std::size_t> admitted_offers;
    for (const auto &record : records)
        if (record.kind == obs::TraceKind::Admit)
            admitted_offers.push_back(record.offer);
    for (const auto &record : records) {
        if (record.kind != obs::TraceKind::Shed)
            continue;
        ++sheds;
        ASSERT_NE(record.cause, nullptr);
        EXPECT_STREQ(record.cause, "capacity");
        EXPECT_EQ(record.severity, obs::Severity::Warn);
        EXPECT_NE(record.offer, obs::kNoIndex);
        EXPECT_EQ(record.job_class, 0u);
        // A shed offer never also appears as an admit.
        EXPECT_EQ(std::count(admitted_offers.begin(),
                             admitted_offers.end(), record.offer),
                  0);
    }
    EXPECT_EQ(sheds, report.total_shed);
    EXPECT_EQ(admitted_offers.size(), report.total_jobs);
}

TEST(TraceAttribution, SloShedsNamePredictedLatencyAndMargin)
{
    auto p = makePipeline();
    obs::TraceSink sink;
    ServerOptions options;
    options.machines = 1;
    options.queue_depth = 4;
    options.threads = 1;
    options.epoch_seconds = p.model.baselineSeconds();
    options.admission = makePredictiveAdmission();
    options.trace = &sink;
    Server server(p.app, p.table, p.model, options);
    // Deadlines far below the baseline duration: every offer is a
    // predicted SLO violation.
    workload::OfferedJob job;
    job.tenant = 0;
    job.job_class = 1;
    job.deadline_s = p.model.baselineSeconds() * 0.01;
    const auto report = server.serve(
        std::vector<std::vector<workload::OfferedJob>>{{job, job}});
    ASSERT_GT(report.total_shed, 0u);

    std::size_t sheds = 0;
    for (const auto &record : sink.drain()) {
        if (record.kind != obs::TraceKind::Shed)
            continue;
        ++sheds;
        ASSERT_NE(record.cause, nullptr);
        EXPECT_STREQ(record.cause, "slo");
        EXPECT_EQ(record.job_class, 1u);
        EXPECT_EQ(record.deadline_s, job.deadline_s);
        // The math that justified the verdict rides along.
        EXPECT_GT(record.predicted_s, 0.0);
        EXPECT_GT(record.predicted_s * record.margin,
                  record.deadline_s);
    }
    EXPECT_EQ(sheds, report.total_shed);
}

// -------------------------------------------------------------------
// Latency breakdown: the per-job components must reconstruct the
// job's latency (up to float accumulation order).
// -------------------------------------------------------------------

TEST(TraceBreakdown, ComponentsSumToLatency)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    std::size_t jobs_checked = 0;
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        const auto scenario = makeFleetScenario(
            seed, baseline_s, p.app.productionInputs());
        Server server(p.app, p.table, p.model, scenario.options);
        const auto report = server.serve(scenario.arrivals);
        for (const auto &job : report.jobs) {
            SCOPED_TRACE(::testing::Message() << "job " << job.job);
            const double sum = job.service_s + job.queue_share_s +
                job.class_deficit_s + job.pause_s;
            EXPECT_NEAR(job.latency_s, sum,
                        1e-7 * std::max(1.0, job.latency_s));
            EXPECT_GE(job.service_s, 0.0);
            EXPECT_GE(job.queue_share_s, 0.0);
            EXPECT_GE(job.class_deficit_s, 0.0);
            EXPECT_GE(job.pause_s, 0.0);
            ++jobs_checked;
        }
    }
    EXPECT_GT(jobs_checked, 0u);
}

} // namespace
} // namespace powerdial::fleet::tests
