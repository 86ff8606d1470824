/** @file Unit tests for the QoS metrics (distortion, PSNR, retrieval). */
#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "qos/distortion.h"
#include "qos/psnr.h"
#include "qos/retrieval.h"
#include "workload/rng.h"

namespace powerdial::qos {
namespace {

TEST(Distortion, ZeroForIdenticalOutputs)
{
    EXPECT_DOUBLE_EQ(distortion({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 0.0);
}

TEST(Distortion, Equation1HandComputed)
{
    // qos = (1/2) * (|10-9|/10 + |20-22|/20) = (0.1 + 0.1) / 2 = 0.1.
    EXPECT_NEAR(distortion({10.0, 20.0}, {9.0, 22.0}), 0.1, 1e-12);
}

TEST(Distortion, WeightsScaleComponents)
{
    OutputAbstraction base{{10.0, 20.0}, {2.0, 0.0}};
    OutputAbstraction test{{9.0, 22.0}, {}};
    // (2*0.1 + 0*0.1) / 2 = 0.1.
    EXPECT_NEAR(distortion(base, test), 0.1, 1e-12);
}

TEST(Distortion, SymmetricErrorsDoNotCancel)
{
    // Absolute values: +10% and -10% errors accumulate.
    EXPECT_NEAR(distortion({10.0, 10.0}, {11.0, 9.0}), 0.1, 1e-12);
}

TEST(Distortion, ZeroBaselineFallsBackToAbsolute)
{
    EXPECT_NEAR(distortion({0.0}, {0.5}), 0.5, 1e-12);
}

TEST(Distortion, Validation)
{
    EXPECT_THROW(distortion(std::vector<double>{},
                            std::vector<double>{}),
                 std::invalid_argument);
    EXPECT_THROW(distortion({1.0}, {1.0, 2.0}), std::invalid_argument);
    OutputAbstraction base{{1.0, 2.0}, {1.0}}; // Bad weight arity.
    OutputAbstraction test{{1.0, 2.0}, {}};
    EXPECT_THROW(distortion(base, test), std::invalid_argument);
}

/** Property: distortion is non-negative and zero iff identical. */
class DistortionScale : public ::testing::TestWithParam<double>
{
};

TEST_P(DistortionScale, RelativeErrorMatchesScale)
{
    const double eps = GetParam();
    const std::vector<double> base{5.0, 50.0, 500.0};
    std::vector<double> test;
    for (const double b : base)
        test.push_back(b * (1.0 + eps));
    EXPECT_NEAR(distortion(base, test), std::abs(eps), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, DistortionScale,
                         ::testing::Values(-0.5, -0.1, -0.01, 0.0, 0.01,
                                           0.1, 0.5, 1.0));

TEST(Psnr, IdenticalPlanesHitCap)
{
    std::vector<std::uint8_t> plane(64, 100);
    EXPECT_DOUBLE_EQ(psnr(plane, plane), 99.0);
    EXPECT_DOUBLE_EQ(psnr(plane, plane, 50.0), 50.0);
}

TEST(Psnr, KnownMse)
{
    // Every sample off by 16: MSE = 256, PSNR = 10*log10(255^2/256).
    std::vector<std::uint8_t> a(100, 100), b(100, 116);
    EXPECT_NEAR(meanSquaredError(a, b), 256.0, 1e-12);
    EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / 256.0),
                1e-9);
}

TEST(Psnr, MoreNoiseLowerPsnr)
{
    std::vector<std::uint8_t> ref(100, 100);
    std::vector<std::uint8_t> small(100, 102), big(100, 110);
    EXPECT_GT(psnr(ref, small), psnr(ref, big));
}

TEST(Psnr, Validation)
{
    std::vector<std::uint8_t> a(4, 0), b(5, 0);
    EXPECT_THROW(meanSquaredError(a, b), std::invalid_argument);
    EXPECT_THROW(meanSquaredError({}, {}), std::invalid_argument);
}

TEST(Retrieval, PerfectRetrieval)
{
    const std::vector<DocId> docs{1, 2, 3};
    const auto s = score(docs, docs);
    EXPECT_DOUBLE_EQ(s.precision, 1.0);
    EXPECT_DOUBLE_EQ(s.recall, 1.0);
    EXPECT_DOUBLE_EQ(s.f_measure, 1.0);
}

TEST(Retrieval, HandComputedPrecisionRecall)
{
    // Returned {1,2,9,10}; relevant {1,2,3,4}: P = 0.5, R = 0.5.
    const auto s = score({1, 2, 9, 10}, {1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(s.precision, 0.5);
    EXPECT_DOUBLE_EQ(s.recall, 0.5);
    EXPECT_DOUBLE_EQ(s.f_measure, 0.5);
}

TEST(Retrieval, FMeasureIsHarmonicMean)
{
    EXPECT_NEAR(fMeasure(0.5, 1.0), 2.0 * 0.5 / 1.5, 1e-12);
    EXPECT_DOUBLE_EQ(fMeasure(0.0, 0.0), 0.0);
}

TEST(Retrieval, CutoffLimitsEvaluation)
{
    // 20 relevant docs; return the first 5 only. At P@10 the recall
    // denominator is min(10, 20) = 10.
    std::vector<DocId> relevant;
    for (DocId d = 0; d < 20; ++d)
        relevant.push_back(d);
    const std::vector<DocId> returned{0, 1, 2, 3, 4};
    const auto s10 = score(returned, relevant, 10);
    EXPECT_DOUBLE_EQ(s10.precision, 1.0);
    EXPECT_DOUBLE_EQ(s10.recall, 0.5);
}

TEST(Retrieval, TruncationLosesRecallNotPrecision)
{
    // The paper's observation: max-results "simply drops lower-priority
    // search results" — precision of the top-k is unaffected.
    std::vector<DocId> relevant;
    for (DocId d = 0; d < 100; ++d)
        relevant.push_back(d);
    std::vector<DocId> full, truncated;
    for (DocId d = 0; d < 100; ++d)
        full.push_back(d);
    for (DocId d = 0; d < 5; ++d)
        truncated.push_back(d);
    const auto s_full = score(full, relevant, 100);
    const auto s_trunc = score(truncated, relevant, 100);
    EXPECT_DOUBLE_EQ(s_full.precision, s_trunc.precision);
    EXPECT_GT(s_full.recall, s_trunc.recall);
}

TEST(Retrieval, EmptyCases)
{
    EXPECT_DOUBLE_EQ(score({}, {1, 2}).f_measure, 0.0);
    EXPECT_DOUBLE_EQ(score({1, 2}, {}).f_measure, 0.0);
}

/** score as it was written with a per-call hash set, verbatim. */
RetrievalScore
hashSetScore(const std::vector<DocId> &returned,
             const std::vector<DocId> &relevant, std::size_t cutoff)
{
    RetrievalScore s;
    if (relevant.empty())
        return s;

    std::unordered_set<DocId> rel(relevant.begin(), relevant.end());
    const std::size_t n =
        cutoff == 0 ? returned.size() : std::min(cutoff, returned.size());
    if (n == 0)
        return s;

    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (rel.count(returned[i]))
            ++hits;

    s.precision = static_cast<double>(hits) / static_cast<double>(n);
    const std::size_t denom =
        cutoff == 0 ? rel.size() : std::min(cutoff, rel.size());
    s.recall = static_cast<double>(hits) / static_cast<double>(denom);
    s.f_measure = fMeasure(s.precision, s.recall);
    return s;
}

TEST(Retrieval, MatchesHashSetScoringOnAnyRelevanceList)
{
    // Sorted unique relevance lists (what searchx passes) take the
    // binary search directly; unsorted and duplicated ones must score
    // exactly as the hash set did, through a sorted copy.
    workload::Rng rng(0x5C0E);
    for (int trial = 0; trial < 300; ++trial) {
        const auto draw = [&rng](std::size_t count) {
            std::vector<DocId> docs(count);
            for (auto &d : docs)
                d = static_cast<DocId>(rng.uniform(0.0, 160.0));
            return docs;
        };
        const std::vector<DocId> returned =
            draw(static_cast<std::size_t>(rng.uniform(0.0, 130.0)));
        std::vector<DocId> relevant =
            draw(static_cast<std::size_t>(rng.uniform(0.0, 120.0)));
        const int shape = trial % 3;
        if (shape == 0) { // Sorted and unique.
            std::sort(relevant.begin(), relevant.end());
            relevant.erase(std::unique(relevant.begin(), relevant.end()),
                           relevant.end());
        } else if (shape == 1) { // Sorted, with duplicates.
            std::sort(relevant.begin(), relevant.end());
        } // else: unsorted, duplicates likely.
        for (const std::size_t cutoff :
             {std::size_t{0}, std::size_t{10}, std::size_t{100}}) {
            SCOPED_TRACE(::testing::Message() << "trial " << trial
                                              << " cutoff " << cutoff);
            const RetrievalScore got = score(returned, relevant, cutoff);
            const RetrievalScore want =
                hashSetScore(returned, relevant, cutoff);
            EXPECT_EQ(got.precision, want.precision);
            EXPECT_EQ(got.recall, want.recall);
            EXPECT_EQ(got.f_measure, want.f_measure);
        }
    }
}

} // namespace
} // namespace powerdial::qos
