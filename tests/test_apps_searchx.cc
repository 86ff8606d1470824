/** @file Tests for the search-engine benchmark. */
#include <gtest/gtest.h>

#include <map>

#include "apps/searchx/searchx_app.h"
#include "core/calibration.h"

namespace powerdial::apps::searchx {
namespace {

std::vector<workload::Document>
tinyCorpus()
{
    // Word 1 appears everywhere; word 2 in docs 0/1; word 3 in doc 0
    // (three times).
    return {
        {0, {1, 2, 3, 3, 3}},
        {1, {1, 2}},
        {2, {1}},
        {3, {1}},
    };
}

TEST(Index, PostingsCountDocuments)
{
    InvertedIndex index(tinyCorpus());
    EXPECT_EQ(index.documentCount(), 4u);
    EXPECT_EQ(index.postings(1).size(), 4u);
    EXPECT_EQ(index.postings(2).size(), 2u);
    EXPECT_EQ(index.postings(3).size(), 1u);
    EXPECT_TRUE(index.postings(99).empty());
}

TEST(Index, TermFrequencyRecorded)
{
    InvertedIndex index(tinyCorpus());
    const auto &postings = index.postings(3);
    ASSERT_EQ(postings.size(), 1u);
    EXPECT_EQ(postings[0].doc, 0u);
    EXPECT_EQ(postings[0].tf, 3u);
}

TEST(Index, PostingsMatchBruteForceCount)
{
    // Every row's postings must equal a per-(word, document) count
    // done here, in document order: a seeded corpus, the same corpus
    // listed backwards, and documents that repeat an id.
    workload::CorpusParams cp;
    cp.documents = 150;
    cp.vocabulary = 600;
    cp.words_per_doc = 80;
    cp.seed = 0x1D3A;
    const auto seeded = workload::Corpus(cp).documents();
    struct Row
    {
        const char *name;
        std::vector<workload::Document> docs;
    };
    const Row rows[] = {
        {"tiny", tinyCorpus()},
        {"seeded", seeded},
        {"seeded, reversed", {seeded.rbegin(), seeded.rend()}},
        {"repeated id", {{0, {4, 5, 4}}, {1, {5}}, {0, {4, 6}}}},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        std::map<workload::WordId, std::map<qos::DocId, std::uint32_t>>
            counts;
        for (const auto &doc : row.docs)
            for (const auto word : doc.words)
                ++counts[word][doc.id];
        const InvertedIndex index(row.docs);
        for (const auto &[word, by_doc] : counts) {
            const auto &postings = index.postings(word);
            ASSERT_EQ(postings.size(), by_doc.size()) << "word " << word;
            std::size_t k = 0;
            for (const auto &[doc, tf] : by_doc) {
                EXPECT_EQ(postings[k].doc, doc) << "word " << word;
                EXPECT_EQ(postings[k].tf, tf) << "word " << word;
                ++k;
            }
        }
    }
}

TEST(Index, RareTermsOutrankCommonOnes)
{
    InvertedIndex index(tinyCorpus());
    // Query {3}: only doc 0 matches, with high idf.
    const auto outcome = index.search({{3}}, 10);
    ASSERT_FALSE(outcome.results.empty());
    EXPECT_EQ(outcome.results[0].doc, 0u);
}

TEST(Index, RankedByScoreDescending)
{
    InvertedIndex index(tinyCorpus());
    const auto outcome = index.search({{2, 3}}, 10);
    for (std::size_t i = 1; i < outcome.results.size(); ++i)
        EXPECT_GE(outcome.results[i - 1].score,
                  outcome.results[i].score);
}

TEST(Index, MaxResultsTruncates)
{
    InvertedIndex index(tinyCorpus());
    EXPECT_EQ(index.search({{1}}, 2).results.size(), 2u);
    EXPECT_EQ(index.search({{1}}, 100).results.size(), 4u);
    EXPECT_TRUE(index.search({{1}}, 0).results.empty());
}

TEST(Index, TruncationPreservesTopResults)
{
    // The paper: "top results are generally preserved in order but
    // fewer total results are returned."
    InvertedIndex index(tinyCorpus());
    const auto full = index.search({{1, 2}}, 100);
    const auto cut = index.search({{1, 2}}, 2);
    ASSERT_GE(full.results.size(), 2u);
    for (std::size_t i = 0; i < cut.results.size(); ++i)
        EXPECT_EQ(cut.results[i].doc, full.results[i].doc);
}

TEST(Index, WorkShrinksWithMaxResults)
{
    // The knob's performance mechanism.
    workload::CorpusParams cp;
    cp.documents = 300;
    cp.words_per_doc = 200;
    workload::Corpus corpus(cp);
    InvertedIndex index(corpus.documents());
    const auto queries = corpus.makeQueries(20, 2, 1);
    std::uint64_t work_small = 0, work_large = 0;
    for (const auto &q : queries) {
        work_small += index.search(q, 5).work_ops;
        work_large += index.search(q, 100).work_ops;
    }
    EXPECT_LT(work_small, work_large);
}

SearchxConfig
smallConfig()
{
    SearchxConfig config;
    config.corpus.documents = 200;
    config.corpus.words_per_doc = 150;
    config.inputs = 2;
    config.queries_per_input = 10;
    return config;
}

TEST(SearchxApp, KnobIsMaxResults)
{
    SearchxApp app(smallConfig());
    EXPECT_EQ(app.knobSpace().combinations(), 6u);
    app.configure({25});
    EXPECT_EQ(app.maxResults(), 25u);
    EXPECT_EQ(
        app.knobSpace().valuesOf(app.defaultCombination())[0], 100.0);
}

TEST(SearchxApp, QosLossGrowsAsResultsShrink)
{
    // Figure 5d: QoS loss increases monotonically as the knob drops.
    SearchxApp app(smallConfig());
    const auto result = core::calibrate(app, app.trainingInputs());
    const auto &points = result.model.allPoints();
    for (std::size_t c = 0; c + 1 < points.size(); ++c)
        EXPECT_GE(points[c].qos_loss, points[c + 1].qos_loss - 1e-9);
    EXPECT_DOUBLE_EQ(points.back().qos_loss, 0.0);
}

TEST(SearchxApp, SpeedupModest)
{
    // The paper: approximately 1.5x. The band depends on corpus scale
    // (scoring work amortises the fixed per-result cost), so use the
    // default corpus sizing here.
    SearchxConfig config;
    config.inputs = 2;
    config.queries_per_input = 20;
    SearchxApp app(config);
    const auto result = core::calibrate(app, app.trainingInputs());
    EXPECT_GT(result.model.maxSpeedup(), 1.2);
    EXPECT_LT(result.model.maxSpeedup(), 3.0);
}

TEST(SearchxApp, OutputIsFMeasurePair)
{
    SearchxApp app(smallConfig());
    app.configure({100});
    app.loadInput(0);
    sim::Machine machine;
    for (std::size_t u = 0; u < app.unitCount(); ++u)
        app.processUnit(u, machine);
    const auto out = app.output();
    ASSERT_EQ(out.components.size(), 2u);
    EXPECT_GT(out.components[0], 0.0); // F@10.
    EXPECT_LE(out.components[0], 1.0);
    EXPECT_GT(out.components[1], 0.0); // F@100.
    EXPECT_LE(out.components[1], 1.0);
}

TEST(SearchxApp, PrecisionAtTopFivePreserved)
{
    // "As the lowest knob setting used by PowerDial is five, precision
    // is always perfect for the top 5 results" — truncation must keep
    // the top-5 list identical.
    SearchxApp app(smallConfig());
    const auto &index = app.index();
    workload::CorpusParams cp = smallConfig().corpus;
    workload::Corpus corpus(cp);
    const auto queries = corpus.makeQueries(10, 2, 77);
    for (const auto &q : queries) {
        const auto full = index.search(q, 100).results;
        const auto five = index.search(q, 5).results;
        for (std::size_t i = 0; i < five.size() && i < full.size(); ++i)
            EXPECT_EQ(five[i].doc, full[i].doc);
    }
}

TEST(SearchxApp, Validation)
{
    SearchxApp app(smallConfig());
    EXPECT_THROW(app.configure({1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(app.loadInput(99), std::out_of_range);
}

} // namespace
} // namespace powerdial::apps::searchx
