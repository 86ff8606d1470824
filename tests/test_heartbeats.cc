/** @file Unit tests for the Application Heartbeats framework. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <vector>

#include "heartbeats/heartbeat.h"
#include "heartbeats/reader.h"

namespace powerdial::hb {
namespace {

TEST(Monitor, FirstBeatHasNoLatency)
{
    Monitor monitor(20, {1.0, 1.0});
    const auto &rec = monitor.beat(5.0);
    EXPECT_EQ(rec.tag, 0u);
    EXPECT_DOUBLE_EQ(rec.latency, 0.0);
    EXPECT_DOUBLE_EQ(rec.instant_rate, 0.0);
}

TEST(Monitor, TagsIncrement)
{
    Monitor monitor(20, {1.0, 1.0});
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(monitor.beat(static_cast<double>(i)).tag,
                  static_cast<std::uint64_t>(i));
    EXPECT_EQ(monitor.count(), 5u);
}

TEST(Monitor, InstantRateIsInverseLatency)
{
    Monitor monitor(20, {1.0, 1.0});
    monitor.beat(0.0);
    const auto &rec = monitor.beat(0.25);
    EXPECT_DOUBLE_EQ(rec.latency, 0.25);
    EXPECT_DOUBLE_EQ(rec.instant_rate, 4.0);
}

TEST(Monitor, WindowRateIsMeanOverWindow)
{
    Monitor monitor(4, {1.0, 1.0});
    // Latencies: 1, 1, 2, 2 -> window rate = 4 / 6.
    double t = 0.0;
    monitor.beat(t);
    for (const double lat : {1.0, 1.0, 2.0, 2.0}) {
        t += lat;
        monitor.beat(t);
    }
    EXPECT_NEAR(monitor.windowRate(), 4.0 / 6.0, 1e-12);
}

TEST(Monitor, WindowSlidesForward)
{
    Monitor monitor(2, {1.0, 1.0});
    monitor.beat(0.0);
    monitor.beat(10.0); // latency 10
    monitor.beat(11.0); // latency 1
    monitor.beat(12.0); // latency 1 -> window {1, 1}
    EXPECT_NEAR(monitor.windowRate(), 1.0, 1e-12);
}

TEST(Monitor, GlobalRateSpansWholeRun)
{
    Monitor monitor(2, {1.0, 1.0});
    monitor.beat(0.0);
    monitor.beat(1.0);
    monitor.beat(4.0);
    // 2 intervals over 4 seconds.
    EXPECT_NEAR(monitor.globalRate(), 0.5, 1e-12);
}

TEST(Monitor, RatesZeroBeforeTwoBeats)
{
    Monitor monitor(4, {1.0, 1.0});
    EXPECT_DOUBLE_EQ(monitor.windowRate(), 0.0);
    EXPECT_DOUBLE_EQ(monitor.globalRate(), 0.0);
    monitor.beat(1.0);
    EXPECT_DOUBLE_EQ(monitor.windowRate(), 0.0);
    EXPECT_DOUBLE_EQ(monitor.globalRate(), 0.0);
}

TEST(Monitor, BackwardsTimeThrows)
{
    Monitor monitor(4, {1.0, 1.0});
    monitor.beat(2.0);
    EXPECT_THROW(monitor.beat(1.0), std::invalid_argument);
}

TEST(Monitor, LatestThrowsWhenEmpty)
{
    Monitor monitor(4, {1.0, 1.0});
    EXPECT_THROW(monitor.latest(), std::logic_error);
}

TEST(Monitor, TargetValidation)
{
    EXPECT_THROW(Monitor(0, {1.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(Monitor(4, {2.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(Monitor(4, {-1.0, 1.0}), std::invalid_argument);
}

TEST(Monitor, SetTargetReplacesRange)
{
    Monitor monitor(4, {1.0, 2.0});
    EXPECT_DOUBLE_EQ(monitor.target().midpoint(), 1.5);
    monitor.setTarget({3.0, 5.0});
    EXPECT_DOUBLE_EQ(monitor.target().midpoint(), 4.0);
    EXPECT_THROW(monitor.setTarget({5.0, 3.0}), std::invalid_argument);
}

TEST(Monitor, RecordedRatesMatchQueryAtBeatTime)
{
    Monitor monitor(3, {1.0, 1.0});
    double t = 0.0;
    for (int i = 0; i < 6; ++i) {
        t += 0.5;
        const auto &rec = monitor.beat(t);
        EXPECT_DOUBLE_EQ(rec.window_rate, monitor.windowRate());
        EXPECT_DOUBLE_EQ(rec.global_rate, monitor.globalRate());
    }
}

TEST(Reader, ExposesMonitorState)
{
    Monitor monitor(4, {2.0, 3.0});
    Reader reader(monitor);
    EXPECT_EQ(reader.currentTag(), -1);
    monitor.beat(0.0);
    monitor.beat(0.5);
    EXPECT_EQ(reader.currentTag(), 1);
    EXPECT_DOUBLE_EQ(reader.windowRate(), monitor.windowRate());
    EXPECT_DOUBLE_EQ(reader.globalRate(), monitor.globalRate());
    EXPECT_DOUBLE_EQ(reader.minTarget(), 2.0);
    EXPECT_DOUBLE_EQ(reader.maxTarget(), 3.0);
    EXPECT_DOUBLE_EQ(reader.latest().latency, 0.5);
}

/**
 * The unbounded-log monitor the ring replaced (a full record log plus
 * a deque of window latencies), kept as the bit-exactness oracle.
 */
class DequeMonitor
{
  public:
    explicit DequeMonitor(std::size_t window) : window_(window) {}

    HeartbeatRecord
    beat(double now)
    {
        HeartbeatRecord rec{};
        rec.tag = log_.size();
        rec.timestamp = now;
        if (!log_.empty()) {
            rec.latency = now - log_.back().timestamp;
            rec.instant_rate = rec.latency > 0.0 ? 1.0 / rec.latency : 0.0;
            latencies_.push_back(rec.latency);
            sum_ += rec.latency;
            if (latencies_.size() > window_) {
                sum_ -= latencies_.front();
                latencies_.pop_front();
            }
        }
        rec.window_rate = windowRate();
        const double span =
            log_.empty() ? 0.0 : now - log_.front().timestamp;
        rec.global_rate =
            span > 0.0 ? static_cast<double>(log_.size()) / span : 0.0;
        log_.push_back(rec);
        return rec;
    }

    double
    windowRate() const
    {
        if (latencies_.empty() || sum_ <= 0.0)
            return 0.0;
        return static_cast<double>(latencies_.size()) / sum_;
    }

    double
    globalRate() const
    {
        if (log_.size() < 2)
            return 0.0;
        const double span = log_.back().timestamp - log_.front().timestamp;
        return span > 0.0 ? static_cast<double>(log_.size() - 1) / span
                          : 0.0;
    }

    WindowStats
    windowStats() const
    {
        WindowStats stats;
        if (latencies_.empty())
            return stats;
        const double n = static_cast<double>(latencies_.size());
        stats.min_latency = latencies_.front();
        stats.max_latency = latencies_.front();
        double sum = 0.0, sum_sq = 0.0;
        for (const double lat : latencies_) {
            stats.min_latency = std::min(stats.min_latency, lat);
            stats.max_latency = std::max(stats.max_latency, lat);
            sum += lat;
            sum_sq += lat * lat;
        }
        stats.mean_latency = sum / n;
        const double var =
            sum_sq / n - stats.mean_latency * stats.mean_latency;
        stats.stddev_latency = var > 0.0 ? std::sqrt(var) : 0.0;
        return stats;
    }

  private:
    std::size_t window_;
    std::vector<HeartbeatRecord> log_;
    std::deque<double> latencies_;
    double sum_ = 0.0;
};

TEST(Monitor, RingMatchesUnboundedLogBitForBit)
{
    // Seeded streams mixing zero-latency repeats with latencies over
    // nine decades from t = 0, so latencies and the running window sum
    // round (steadier streams telescope exactly and would hide an
    // add/subtract reordering).
    for (const std::size_t window : {1u, 2u, 3u, 20u}) {
        std::mt19937_64 rng(1234 + window);
        std::uniform_real_distribution<double> exponent(-6.0, 3.0);
        std::bernoulli_distribution repeat(0.2);
        Monitor ring(window, {1.0, 1.0});
        DequeMonitor oracle(window);
        double t = 0.0;
        for (std::size_t i = 0; i < 400; ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "window " << window << " beat " << i);
            if (i > 0 && !repeat(rng))
                t += std::pow(10.0, exponent(rng));
            const HeartbeatRecord expected = oracle.beat(t);
            const HeartbeatRecord &got = ring.beat(t);
            EXPECT_EQ(got.tag, expected.tag);
            EXPECT_EQ(got.timestamp, expected.timestamp);
            EXPECT_EQ(got.latency, expected.latency);
            EXPECT_EQ(got.instant_rate, expected.instant_rate);
            EXPECT_EQ(got.window_rate, expected.window_rate);
            EXPECT_EQ(got.global_rate, expected.global_rate);
            EXPECT_EQ(ring.count(), i + 1);
            EXPECT_EQ(ring.windowRate(), oracle.windowRate());
            EXPECT_EQ(ring.globalRate(), oracle.globalRate());
            const WindowStats a = ring.windowStats();
            const WindowStats b = oracle.windowStats();
            EXPECT_EQ(a.min_latency, b.min_latency);
            EXPECT_EQ(a.max_latency, b.max_latency);
            EXPECT_EQ(a.mean_latency, b.mean_latency);
            EXPECT_EQ(a.stddev_latency, b.stddev_latency);
        }
    }
}

/** Property: constant-latency streams report rate = 1/latency. */
class ConstantRate : public ::testing::TestWithParam<double>
{
};

TEST_P(ConstantRate, WindowAndGlobalAgree)
{
    const double latency = GetParam();
    Monitor monitor(20, {1.0, 1.0});
    double t = 0.0;
    for (int i = 0; i < 50; ++i) {
        monitor.beat(t);
        t += latency;
    }
    EXPECT_NEAR(monitor.windowRate(), 1.0 / latency, 1e-9);
    EXPECT_NEAR(monitor.globalRate(), 1.0 / latency, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Latencies, ConstantRate,
                         ::testing::Values(0.001, 0.01, 0.1, 0.5, 1.0,
                                           2.0));

} // namespace
} // namespace powerdial::hb
