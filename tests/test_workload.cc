/** @file Unit tests for the workload generators. */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "workload/arrivals.h"
#include "workload/body_motion.h"
#include "workload/corpus.h"
#include "workload/load_trace.h"
#include "workload/rng.h"
#include "workload/traffic_mix.h"
#include "workload/video_source.h"
#include "workload/zipf.h"

namespace powerdial::workload {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differed = false;
    for (int i = 0; i < 10; ++i)
        differed |= a.next() != b.next();
    EXPECT_TRUE(differed);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, GaussianMomentsApproximatelyStandard)
{
    Rng rng(11);
    const int n = 20000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(7), 7u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsUnbiasedAcrossBuckets)
{
    // Regression for the modulo-biased reduction: `next() % n` favours
    // low values for n not a power of two. The rejection reduction
    // must land each bucket of n = 6 within a few percent of uniform.
    Rng rng(2024);
    constexpr std::size_t kBuckets = 6;
    constexpr std::size_t kDraws = 60000;
    std::size_t counts[kBuckets] = {};
    for (std::size_t i = 0; i < kDraws; ++i)
        ++counts[rng.below(kBuckets)];
    const double expected =
        static_cast<double>(kDraws) / kBuckets;
    for (std::size_t b = 0; b < kBuckets; ++b)
        EXPECT_NEAR(static_cast<double>(counts[b]), expected,
                    0.05 * expected)
            << "bucket " << b;
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler zipf(100, 1.0);
    double total = 0.0;
    for (std::size_t k = 0; k < zipf.size(); ++k)
        total += zipf.pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, PmfDecreasesWithRank)
{
    ZipfSampler zipf(50, 1.2);
    for (std::size_t k = 0; k + 1 < zipf.size(); ++k)
        EXPECT_GT(zipf.pmf(k), zipf.pmf(k + 1));
}

TEST(Zipf, SampleFrequenciesTrackPmf)
{
    ZipfSampler zipf(20, 1.0);
    Rng rng(5);
    std::vector<int> counts(20, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    // Head ranks should appear roughly per their pmf.
    for (std::size_t k = 0; k < 3; ++k) {
        const double freq = static_cast<double>(counts[k]) / n;
        EXPECT_NEAR(freq, zipf.pmf(k), 0.02);
    }
}

TEST(Zipf, Validation)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
    EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
    // A NaN skew would send every draw to rank 0.
    EXPECT_THROW(
        ZipfSampler(10, std::numeric_limits<double>::quiet_NaN()),
        std::invalid_argument);
    ZipfSampler z(10, 1.0);
    EXPECT_THROW(z.pmf(10), std::out_of_range);
}

TEST(Zipf, EmpiricalCdfTracksAnalyticCdf)
{
    // Distribution shape against the analytic CDF: the normalised
    // partial sums of 1/(k+1)^s. Checked at every rank, not just the
    // head, so a mis-normalised tail cannot hide.
    const std::size_t n = 30;
    const double s = 1.1;
    ZipfSampler zipf(n, s);
    double h = 0.0;
    std::vector<double> analytic(n, 0.0);
    for (std::size_t k = 0; k < n; ++k)
        h += 1.0 / std::pow(static_cast<double>(k + 1), s);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        analytic[k] = acc / h;
    }

    Rng rng(11);
    const int draws = 200000;
    std::vector<int> counts(n, 0);
    for (int i = 0; i < draws; ++i)
        ++counts[zipf.sample(rng)];
    double empirical = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        empirical += static_cast<double>(counts[k]) / draws;
        EXPECT_NEAR(empirical, analytic[k], 0.01) << "rank " << k;
    }
}

TEST(Zipf, ZeroSkewIsUniform)
{
    // s = 0 makes every 1/(k+1)^0 term 1: the uniform distribution.
    ZipfSampler zipf(16, 0.0);
    for (std::size_t k = 0; k < zipf.size(); ++k)
        EXPECT_NEAR(zipf.pmf(k), 1.0 / 16.0, 1e-12) << "rank " << k;

    Rng rng(3);
    std::vector<int> counts(16, 0);
    const int draws = 160000;
    for (int i = 0; i < draws; ++i)
        ++counts[zipf.sample(rng)];
    for (std::size_t k = 0; k < counts.size(); ++k)
        EXPECT_NEAR(static_cast<double>(counts[k]), draws / 16.0,
                    0.05 * draws / 16.0)
            << "rank " << k;
}

TEST(Zipf, SamplingDeterministicAcrossThreadCounts)
{
    // The sampler is shared, read-only state; each stream owns its
    // Rng. Drawing the streams concurrently must reproduce the
    // serial per-stream sequences exactly, at any thread count.
    const ZipfSampler zipf(64, 1.0);
    const std::size_t streams = 8, per_stream = 2000;

    const auto draw = [&](std::size_t stream) {
        Rng rng(1000 + stream);
        std::vector<std::size_t> out(per_stream);
        for (std::size_t i = 0; i < per_stream; ++i)
            out[i] = zipf.sample(rng);
        return out;
    };

    std::vector<std::vector<std::size_t>> serial(streams);
    for (std::size_t s = 0; s < streams; ++s)
        serial[s] = draw(s);

    for (const std::size_t workers : {2u, 4u}) {
        std::vector<std::vector<std::size_t>> parallel(streams);
        std::vector<std::thread> pool;
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back([&, w]() {
                for (std::size_t s = w; s < streams; s += workers)
                    parallel[s] = draw(s);
            });
        for (auto &t : pool)
            t.join();
        EXPECT_EQ(parallel, serial) << workers << " workers";
    }
}

TEST(Corpus, GeneratesRequestedDocuments)
{
    CorpusParams params;
    params.documents = 50;
    params.words_per_doc = 100;
    Corpus corpus(params);
    EXPECT_EQ(corpus.documents().size(), 50u);
    for (const auto &doc : corpus.documents()) {
        EXPECT_GE(doc.words.size(), 75u);
        EXPECT_LE(doc.words.size(), 125u);
    }
}

TEST(Corpus, QueriesExcludeStopWords)
{
    CorpusParams params;
    params.documents = 10;
    Corpus corpus(params);
    const auto queries = corpus.makeQueries(100, 3, 99);
    for (const auto &q : queries) {
        EXPECT_EQ(q.terms.size(), 3u);
        for (const auto w : q.terms)
            EXPECT_FALSE(corpus.isStopWord(w));
    }
}

TEST(Corpus, QueryTermsAreDistinctWithinQuery)
{
    CorpusParams params;
    params.documents = 10;
    Corpus corpus(params);
    for (const auto &q : corpus.makeQueries(50, 3, 7)) {
        std::set<WordId> unique(q.terms.begin(), q.terms.end());
        EXPECT_EQ(unique.size(), q.terms.size());
    }
}

TEST(Corpus, Deterministic)
{
    CorpusParams params;
    params.documents = 5;
    Corpus a(params), b(params);
    for (std::size_t d = 0; d < 5; ++d)
        EXPECT_EQ(a.documents()[d].words, b.documents()[d].words);
}

TEST(Corpus, RejectsTinyVocabulary)
{
    CorpusParams params;
    params.vocabulary = 10;
    params.stop_words = 10;
    EXPECT_THROW(Corpus{params}, std::invalid_argument);
}

TEST(InputSplit, PartitionsEvenly)
{
    const auto split = splitInputs(100, 3);
    EXPECT_EQ(split.training.size(), 50u);
    EXPECT_EQ(split.production.size(), 50u);
    std::set<std::size_t> all(split.training.begin(),
                              split.training.end());
    all.insert(split.production.begin(), split.production.end());
    EXPECT_EQ(all.size(), 100u); // Disjoint and covering.
}

TEST(InputSplit, DeterministicPerSeed)
{
    EXPECT_EQ(splitInputs(20, 1).training, splitInputs(20, 1).training);
    EXPECT_NE(splitInputs(20, 1).training, splitInputs(20, 2).training);
}

TEST(VideoSource, FramesHaveRequestedGeometry)
{
    VideoParams params;
    params.width = 32;
    params.height = 16;
    params.frames = 4;
    const auto clip = VideoSource(params).frames();
    ASSERT_EQ(clip.size(), 4u);
    for (const auto &f : clip) {
        EXPECT_EQ(f.width, 32);
        EXPECT_EQ(f.height, 16);
        EXPECT_EQ(f.pixels.size(), 32u * 16u);
    }
}

TEST(VideoSource, Deterministic)
{
    VideoParams params;
    params.width = 32;
    params.height = 16;
    params.frames = 3;
    const auto a = VideoSource(params).frames();
    const auto b = VideoSource(params).frames();
    for (std::size_t f = 0; f < a.size(); ++f)
        EXPECT_EQ(a[f].pixels, b[f].pixels);
}

TEST(VideoSource, FramesContainMotion)
{
    VideoParams params;
    params.width = 64;
    params.height = 48;
    params.frames = 2;
    const auto clip = VideoSource(params).frames();
    std::size_t changed = 0;
    for (std::size_t i = 0; i < clip[0].pixels.size(); ++i)
        changed += clip[0].pixels[i] != clip[1].pixels[i];
    // Motion + noise: a nontrivial fraction of pixels must change.
    EXPECT_GT(changed, clip[0].pixels.size() / 10);
}

TEST(VideoSource, Validation)
{
    VideoParams params;
    params.width = 0;
    EXPECT_THROW(VideoSource{params}, std::invalid_argument);
}

TEST(BodyMotion, ForwardKinematicsRespectsLimbLengths)
{
    BodyDimensions dims;
    BodyPose pose;
    pose.root_x = 1.0;
    pose.root_y = 2.0;
    const auto obs = forwardKinematics(pose, dims);
    // Torso top directly above the root.
    EXPECT_DOUBLE_EQ(obs.x[0], 1.0);
    EXPECT_DOUBLE_EQ(obs.y[0], 2.0 + dims.torso);
    // Arm endpoint at arm-length from the shoulder.
    const double dx = obs.x[2] - obs.x[0];
    const double dy = obs.y[2] - obs.y[0];
    EXPECT_NEAR(std::sqrt(dx * dx + dy * dy), dims.arm, 1e-9);
    // Leg endpoint at leg-length from the root.
    const double lx = obs.x[4] - pose.root_x;
    const double ly = obs.y[4] - pose.root_y;
    EXPECT_NEAR(std::sqrt(lx * lx + ly * ly), dims.leg, 1e-9);
}

TEST(BodyMotion, SequenceWalksForward)
{
    BodyMotionParams params;
    params.frames = 50;
    const auto seq = makeBodySequence(params);
    ASSERT_EQ(seq.size(), 50u);
    EXPECT_GT(seq.back().truth.root_x, seq.front().truth.root_x);
}

TEST(BodyMotion, ObservationsAreNoisyTruth)
{
    BodyMotionParams params;
    params.frames = 200;
    params.observation_noise = 0.1;
    const auto seq = makeBodySequence(params);
    double err_sum = 0.0;
    std::size_t n = 0;
    BodyDimensions dims;
    for (const auto &frame : seq) {
        const auto clean = forwardKinematics(frame.truth, dims);
        for (std::size_t p = 0; p < kBodyParts; ++p) {
            err_sum += std::abs(frame.observation.x[p] - clean.x[p]);
            ++n;
        }
    }
    const double mean_abs = err_sum / static_cast<double>(n);
    // Mean |N(0, 0.1)| = 0.1 * sqrt(2/pi) ~ 0.08.
    EXPECT_NEAR(mean_abs, 0.08, 0.03);
}

TEST(LoadTrace, BoundedInUnitInterval)
{
    LoadTraceParams params;
    params.steps = 500;
    const auto trace = makeLoadTrace(params);
    ASSERT_EQ(trace.size(), 500u);
    for (const double u : trace) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(LoadTrace, ContainsSpikesAboveBase)
{
    LoadTraceParams params;
    params.steps = 500;
    params.spike_probability = 0.05;
    const auto trace = makeLoadTrace(params);
    const std::size_t spikes = static_cast<std::size_t>(
        std::count(trace.begin(), trace.end(),
                   params.spike_utilization));
    EXPECT_GT(spikes, 0u);
    // Spikes must remain intermittent, not the common case.
    EXPECT_LT(spikes, trace.size() / 2);
}

TEST(LoadTrace, InstancesAtScalesByPeak)
{
    EXPECT_EQ(instancesAt(0.0, 32), 0u);
    EXPECT_EQ(instancesAt(0.5, 32), 16u);
    EXPECT_EQ(instancesAt(1.0, 32), 32u);
}

TEST(LoadTrace, InstancesAtClampsToProvisionedPeak)
{
    // Regression: a utilisation above 1.0 — exactly what flash-crowd
    // superposition produces — used to provision phantom instances
    // beyond the fleet's peak. The answer is the provisioned peak.
    EXPECT_EQ(instancesAt(1.4, 32), 32u);
    EXPECT_EQ(instancesAt(2.0, 8), 8u);
    EXPECT_EQ(instancesAt(100.0, 1), 1u);
    // The lower clamp still holds.
    EXPECT_EQ(instancesAt(-0.3, 32), 0u);
}

TEST(LoadTrace, ExtendingTheHorizonKeepsEarlierSteps)
{
    // Regression for the sequential-stream defect: per-step substreams
    // mean a longer horizon never perturbs steps already generated.
    LoadTraceParams long_params;
    long_params.steps = 300;
    const auto full = makeLoadTrace(long_params);
    for (const std::size_t cut : {1u, 37u, 150u, 299u}) {
        LoadTraceParams params = long_params;
        params.steps = cut;
        const auto shorter = makeLoadTrace(params);
        ASSERT_EQ(shorter.size(), cut);
        for (std::size_t t = 0; t < cut; ++t)
            EXPECT_EQ(shorter[t], full[t])
                << "cut=" << cut << " t=" << t;
    }
}

TEST(LoadTrace, PerStepAccessorMatchesFullGeneration)
{
    // Random access: any window of the trace regenerates independently
    // through loadLevelAt, with no draw-order coupling to neighbours.
    LoadTraceParams params;
    params.steps = 200;
    const auto trace = makeLoadTrace(params);
    for (std::size_t t = 0; t < trace.size(); ++t)
        EXPECT_EQ(loadLevelAt(params, t), trace[t]) << "t=" << t;
}

TEST(LoadTrace, SpikeLengthOnlyAffectsSpikeMembership)
{
    // The historical bug skipped jitter draws during spike steps, so
    // changing spike_length rewrote the whole downstream trace. Now a
    // step outside the spike cover of BOTH lengths must be identical.
    LoadTraceParams short_spikes;
    short_spikes.steps = 400;
    short_spikes.spike_length = 2;
    LoadTraceParams long_spikes = short_spikes;
    long_spikes.spike_length = 10;
    const auto a = makeLoadTrace(short_spikes);
    const auto b = makeLoadTrace(long_spikes);
    std::size_t compared = 0;
    for (std::size_t t = 0; t < a.size(); ++t) {
        const bool spiky_a =
            a[t] == short_spikes.spike_utilization;
        const bool spiky_b = b[t] == long_spikes.spike_utilization;
        if (spiky_a || spiky_b)
            continue;
        EXPECT_EQ(a[t], b[t]) << "t=" << t;
        ++compared;
    }
    EXPECT_GT(compared, a.size() / 2);
}

TEST(LoadTrace, DiurnalSwellModulatesBaseLoad)
{
    LoadTraceParams params;
    params.steps = 96;
    params.base_utilization = 0.5;
    params.spike_probability = 0.0;
    params.jitter = 0.0;
    params.diurnal_amplitude = 0.3;
    params.diurnal_period = 96;
    const auto trace = makeLoadTrace(params);
    EXPECT_NEAR(trace[24], 0.8, 1e-9);  // sin peak.
    EXPECT_NEAR(trace[72], 0.2, 1e-9);  // sin trough.
    EXPECT_NEAR(trace[0], 0.5, 1e-9);   // Phase zero.
}

TEST(PoissonArrivals, Deterministic)
{
    const auto trace = makeLoadTrace({});
    PoissonArrivalParams params;
    const auto a = makePoissonArrivals(trace, params);
    const auto b = makePoissonArrivals(trace, params);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), trace.size());
}

TEST(PoissonArrivals, PrefixTraceYieldsPrefixArrivals)
{
    // Each step draws from its own counter-derived substream, so
    // truncating the trace truncates the arrivals without disturbing
    // the kept prefix.
    const auto trace = makeLoadTrace({});
    const auto full = makePoissonArrivals(trace, {});
    const std::vector<double> half(trace.begin(),
                                   trace.begin() + trace.size() / 2);
    const auto prefix = makePoissonArrivals(half, {});
    ASSERT_EQ(prefix.size(), half.size());
    for (std::size_t t = 0; t < prefix.size(); ++t)
        EXPECT_EQ(prefix[t], full[t]);
}

TEST(PoissonArrivals, ExtendingTheHorizonKeepsEarlierArrivals)
{
    // The converse regression: generating a LONGER trace must not
    // perturb the steps already generated — the event engine relies
    // on extension-safe arrival streams when a serve's horizon grows.
    LoadTraceParams long_params;
    long_params.steps = 300;
    const auto long_trace = makeLoadTrace(long_params);
    const auto full = makePoissonArrivals(long_trace, {});
    for (const std::size_t cut : {1u, 37u, 150u, 299u}) {
        const std::vector<double> shorter(long_trace.begin(),
                                          long_trace.begin() + cut);
        const auto arrivals = makePoissonArrivals(shorter, {});
        ASSERT_EQ(arrivals.size(), cut);
        for (std::size_t t = 0; t < cut; ++t)
            EXPECT_EQ(arrivals[t], full[t]) << "cut=" << cut
                                            << " t=" << t;
    }
}

TEST(PoissonArrivals, WindowedGenerationMatchesFullGeneration)
{
    // Random access: a window generated on its own (first_step = w)
    // reproduces the same window of the full generation, and the
    // per-step accessor agrees with both.
    const auto trace = makeLoadTrace({});
    PoissonArrivalParams params;
    const auto full = makePoissonArrivals(trace, params);
    const std::size_t w = trace.size() / 3;
    const std::vector<double> window(trace.begin() + w, trace.end());
    const auto suffix = makePoissonArrivals(window, params, w);
    ASSERT_EQ(suffix.size(), trace.size() - w);
    for (std::size_t i = 0; i < suffix.size(); ++i)
        EXPECT_EQ(suffix[i], full[w + i]) << "i=" << i;
    for (std::size_t t = 0; t < trace.size(); ++t)
        EXPECT_EQ(poissonArrivalAt(params, t, trace[t]), full[t])
            << "t=" << t;
}

TEST(PoissonArrivals, StepSubstreamsAreDecorrelated)
{
    // Neighbouring steps share a level but must not share a stream:
    // a flat trace's counts should not be constant (they would be if
    // adjacent substreams collapsed onto each other).
    const std::vector<double> flat(64, 0.5);
    PoissonArrivalParams params;
    params.peak_rate = 8.0;
    const auto arrivals = makePoissonArrivals(flat, params);
    const bool all_equal = std::all_of(
        arrivals.begin(), arrivals.end(),
        [&](std::size_t c) { return c == arrivals.front(); });
    EXPECT_FALSE(all_equal);
}

TEST(PoissonArrivals, ZeroLoadOffersNoJobs)
{
    const std::vector<double> idle(50, 0.0);
    for (const std::size_t count : makePoissonArrivals(idle, {}))
        EXPECT_EQ(count, 0u);
}

TEST(PoissonArrivals, MeanTracksOfferedLoad)
{
    // Sample mean over a long flat trace lands near lambda (law of
    // large numbers; the tolerance is ~4 sigma).
    const std::vector<double> flat(4000, 0.5);
    PoissonArrivalParams params;
    params.peak_rate = 8.0; // lambda = 4 per step.
    const auto arrivals = makePoissonArrivals(flat, params);
    double sum = 0.0;
    for (const std::size_t count : arrivals)
        sum += static_cast<double>(count);
    const double mean = sum / static_cast<double>(arrivals.size());
    EXPECT_NEAR(mean, 4.0, 4.0 * std::sqrt(4.0 / 4000.0));
}

TEST(PoissonArrivals, DeviateEdgeCases)
{
    Rng rng(7);
    EXPECT_EQ(poissonDeviate(rng, 0.0), 0u);
    EXPECT_THROW(poissonDeviate(rng, -1.0), std::invalid_argument);
    EXPECT_THROW(makePoissonArrivals({0.5}, {-1.0, 1}),
                 std::invalid_argument);
}

TEST(PoissonArrivals, RejectsMeansNoCountCanHold)
{
    // No count can stand for any of these: a NaN mean fails every
    // comparison (and would draw 0), and +inf or a mean whose normal
    // draw reaches 2^64 would meet an out-of-range size_t cast.
    const double inf = std::numeric_limits<double>::infinity();
    for (const double lambda :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 1e300,
          3e19}) {
        SCOPED_TRACE(::testing::Message() << "lambda " << lambda);
        Rng rng(7);
        EXPECT_THROW(poissonDeviate(rng, lambda), std::invalid_argument);
    }
    // Finite means whose draws fit still draw.
    Rng rng(7);
    EXPECT_GT(poissonDeviate(rng, 1e18), 0u);
}

TEST(PoissonArrivals, RejectsNonFiniteRatesAndLevels)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    struct Case
    {
        const char *name;
        PoissonArrivalParams params;
        double level;
    };
    const Case cases[] = {
        {"NaN peak rate", {nan, 1}, 0.5},
        {"infinite peak rate", {inf, 1}, 0.5},
        {"infinite peak rate at level 0", {inf, 1}, 0.0},
        {"NaN trace level", {8.0, 1}, nan},
        {"infinite trace level", {8.0, 1}, inf},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_THROW(poissonArrivalAt(c.params, 3, c.level),
                     std::invalid_argument);
        EXPECT_THROW(makePoissonArrivals({0.25, c.level}, c.params),
                     std::invalid_argument);
    }
}

TEST(PoissonArrivals, LargeMeansUseTheNormalApproximation)
{
    // Past ~708 exp(-lambda) underflows and Knuth's method would
    // silently saturate; the generator switches to the rounded
    // N(lambda, lambda) approximation there instead of rejecting
    // (scale-bench traces run thousands of arrivals per step).
    const double lambda = 4000.0;
    Rng rng(7);
    double sum = 0.0;
    const std::size_t draws = 400;
    for (std::size_t i = 0; i < draws; ++i)
        sum += static_cast<double>(poissonDeviate(rng, lambda));
    const double mean = sum / static_cast<double>(draws);
    // 4 sigma of the sample mean: 4 * sqrt(lambda / draws).
    EXPECT_NEAR(mean, lambda,
                4.0 * std::sqrt(lambda / static_cast<double>(draws)));

    // Per-step stability holds across the threshold too.
    PoissonArrivalParams params;
    params.peak_rate = 8000.0;
    const std::vector<double> flat(8, 0.5);
    const auto full = makePoissonArrivals(flat, params);
    const std::vector<double> tail(flat.begin() + 3, flat.end());
    const auto window = makePoissonArrivals(tail, params, 3);
    for (std::size_t i = 0; i < window.size(); ++i)
        EXPECT_EQ(window[i], full[3 + i]) << "step " << 3 + i;
}

// ---------------------------------------------------------------------
// Composed production-shaped traffic.
// ---------------------------------------------------------------------

namespace {

TrafficMixParams
flatMixParams()
{
    TrafficMixParams params;
    params.steps = 50;
    params.trace.base_utilization = 0.5;
    params.trace.spike_probability = 0.0;
    params.trace.jitter = 0.0;
    return params;
}

} // namespace

TEST(TrafficMix, FlashCrowdsSuperimposeWithoutClamping)
{
    TrafficMixParams params = flatMixParams();
    params.flash_crowds = {{10, 5, 0.8}};
    const auto mix =
        makeTrafficMix(params, {{0, 0, 0.0}});
    ASSERT_EQ(mix.levels.size(), params.steps);
    for (std::size_t t = 0; t < params.steps; ++t) {
        const bool in_crowd = t >= 10 && t < 15;
        EXPECT_NEAR(mix.levels[t], in_crowd ? 1.3 : 0.5, 1e-9)
            << "t=" << t;
    }
    // Offered load past 1.0 is the point: more demand than the fleet
    // is provisioned for, undistorted by a clamp.
    EXPECT_GT(*std::max_element(mix.levels.begin(), mix.levels.end()),
              1.0);
}

TEST(TrafficMix, RejectsNonFiniteParameters)
{
    // Each parameter reaches the arrival draw (or the tenant sampler)
    // as NaN or infinity, which would otherwise draw zero arrivals or
    // rank 0. Each profile would mint offers a serve cannot honour: a
    // deadline that is not a finite non-negative time, or a class
    // whose per-class tally cannot be sized.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    struct Case
    {
        const char *name;
        std::function<void(TrafficMixParams &,
                           std::vector<TenantProfile> &)>
            set;
    };
    using Profiles = std::vector<TenantProfile>;
    const Case cases[] = {
        {"NaN flash-crowd boost",
         [&](TrafficMixParams &p, Profiles &) {
             p.flash_crowds = {{2, 3, nan}};
         }},
        {"infinite flash-crowd boost",
         [&](TrafficMixParams &p, Profiles &) {
             p.flash_crowds = {{2, 3, inf}};
         }},
        {"NaN peak rate",
         [&](TrafficMixParams &p, Profiles &) { p.peak_rate = nan; }},
        {"NaN base level",
         [&](TrafficMixParams &p, Profiles &) {
             p.trace.base_utilization = nan;
         }},
        {"NaN Zipf skew",
         [&](TrafficMixParams &p, Profiles &) { p.zipf_skew = nan; }},
        {"NaN profile deadline",
         [&](TrafficMixParams &, Profiles &t) { t[1].deadline_s = nan; }},
        {"negative profile deadline",
         [&](TrafficMixParams &, Profiles &t) { t[1].deadline_s = -1.0; }},
        {"infinite profile deadline",
         [&](TrafficMixParams &, Profiles &t) { t[1].deadline_s = inf; }},
        {"profile class SIZE_MAX",
         [&](TrafficMixParams &, Profiles &t) { t[1].job_class = SIZE_MAX; }},
    };
    const Profiles good = {{0, 0, 9.0}, {1, 1, 6.0}};
    ASSERT_NO_THROW(makeTrafficMix(flatMixParams(), good));
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        TrafficMixParams params = flatMixParams();
        Profiles profiles = good;
        c.set(params, profiles);
        EXPECT_THROW(makeTrafficMix(params, profiles),
                     std::invalid_argument);
    }
}

TEST(TrafficMix, DeterministicAndAccountedFor)
{
    TrafficMixParams params = flatMixParams();
    params.flash_crowds = {{5, 3, 0.6}};
    const std::vector<TenantProfile> profiles = {
        {0, 0, 9.0}, {1, 1, 6.0}, {2, 2, 3.0}};
    const auto a = makeTrafficMix(params, profiles);
    const auto b = makeTrafficMix(params, profiles);
    ASSERT_EQ(a.offers.size(), b.offers.size());
    std::size_t total = 0;
    for (std::size_t t = 0; t < a.offers.size(); ++t) {
        ASSERT_EQ(a.offers[t].size(), b.offers[t].size());
        total += a.offers[t].size();
        for (std::size_t i = 0; i < a.offers[t].size(); ++i) {
            EXPECT_EQ(a.offers[t][i].tenant, b.offers[t][i].tenant);
            EXPECT_EQ(a.offers[t][i].job_class,
                      b.offers[t][i].job_class);
            EXPECT_EQ(a.offers[t][i].deadline_s,
                      b.offers[t][i].deadline_s);
        }
    }
    EXPECT_EQ(a.total_offered, total);
    EXPECT_GT(total, 0u);
}

TEST(TrafficMix, OffersCarryTheirProfilesMetadata)
{
    TrafficMixParams params = flatMixParams();
    const std::vector<TenantProfile> profiles = {
        {7, 0, 12.0}, {3, 1, 6.0}};
    const auto mix = makeTrafficMix(params, profiles);
    for (const auto &step : mix.offers)
        for (const OfferedJob &job : step) {
            const bool first =
                job.tenant == 7 && job.job_class == 0 &&
                job.deadline_s == 12.0;
            const bool second =
                job.tenant == 3 && job.job_class == 1 &&
                job.deadline_s == 6.0;
            EXPECT_TRUE(first || second);
        }
}

TEST(TrafficMix, ZipfSkewsPopularityTowardRankZero)
{
    TrafficMixParams params = flatMixParams();
    params.steps = 200;
    params.peak_rate = 20.0;
    params.zipf_skew = 1.2;
    const std::vector<TenantProfile> profiles = {
        {0, 0, 0.0}, {1, 0, 0.0}, {2, 0, 0.0}, {3, 0, 0.0}};
    const auto mix = makeTrafficMix(params, profiles);
    std::size_t counts[4] = {};
    for (const auto &step : mix.offers)
        for (const OfferedJob &job : step)
            ++counts[job.tenant];
    EXPECT_GT(counts[0], counts[3] * 2);
}

TEST(TrafficMix, LevelAccessorMatchesFullComposition)
{
    TrafficMixParams params = flatMixParams();
    params.trace.jitter = 0.05;
    params.trace.diurnal_amplitude = 0.2;
    params.flash_crowds = {{3, 4, 0.5}, {20, 2, 1.0}};
    const auto mix = makeTrafficMix(params, {{0, 0, 0.0}});
    for (std::size_t t = 0; t < params.steps; ++t)
        EXPECT_EQ(trafficLevelAt(params, t), mix.levels[t])
            << "t=" << t;
}

} // namespace
} // namespace powerdial::workload
