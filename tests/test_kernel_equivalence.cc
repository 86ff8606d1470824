/**
 * @file
 * Differential bit-exactness sweep for the optimized app kernels.
 *
 * Every kernel optimized in PR 10 retains its naive pre-optimization
 * implementation in a `reference` namespace; these tests run both over
 * seeded inputs crossed with the knob grids and require *bitwise*
 * identical outputs (EXPECT_EQ on doubles, not EXPECT_NEAR). The lone
 * exception is the opt-in KernelTuning::fast_math path, which is
 * allowed to reassociate and is instead pinned to its documented
 * relative-error bound.
 */
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bodytrack/particle_filter.h"
#include "apps/searchx/index.h"
#include "apps/spmv/spmv_kernel.h"
#include "apps/videnc/encoder.h"
#include "qos/psnr.h"
#include "workload/body_motion.h"
#include "workload/corpus.h"
#include "workload/rng.h"
#include "workload/video_source.h"

namespace powerdial {
namespace {

// ---------------------------------------------------------------------------
// DCT
// ---------------------------------------------------------------------------

apps::videnc::ResidualBlock
randomBlock(workload::Rng &rng, double scale)
{
    apps::videnc::ResidualBlock block{};
    for (auto &v : block)
        v = rng.uniform(-scale, scale);
    return block;
}

TEST(KernelEquivalence, ForwardDctBitExact)
{
    using namespace apps::videnc;
    workload::Rng rng(0xD07001);
    for (int trial = 0; trial < 200; ++trial) {
        const auto block = randomBlock(rng, trial % 2 ? 255.0 : 4.0);
        const auto opt = forwardDct(block);
        const auto ref = reference::forwardDct(block);
        for (std::size_t i = 0; i < opt.size(); ++i)
            EXPECT_EQ(opt[i], ref[i]) << "coef " << i;
    }
}

TEST(KernelEquivalence, InverseDctBitExact)
{
    using namespace apps::videnc;
    workload::Rng rng(0xD07002);
    for (int trial = 0; trial < 200; ++trial) {
        // Both raw random blocks and genuine spectra.
        const auto block = randomBlock(rng, 200.0);
        const auto freq =
            trial % 2 ? reference::forwardDct(block) : block;
        const auto opt = inverseDct(freq);
        const auto ref = reference::inverseDct(freq);
        for (std::size_t i = 0; i < opt.size(); ++i)
            EXPECT_EQ(opt[i], ref[i]) << "sample " << i;
    }
}

TEST(KernelEquivalence, FastMathDctWithinDocumentedBound)
{
    using namespace apps::videnc;
    const KernelTuning fast{true};
    workload::Rng rng(0xD07003);
    for (int trial = 0; trial < 200; ++trial) {
        const auto block = randomBlock(rng, 255.0);
        for (const bool forward : {true, false}) {
            const auto ref = forward ? reference::forwardDct(block)
                                     : reference::inverseDct(block);
            const auto opt =
                forward ? forwardDct(block, fast) : inverseDct(block, fast);
            double norm = 0.0;
            for (const auto &v : ref)
                norm = std::max(norm, std::abs(v));
            for (std::size_t i = 0; i < opt.size(); ++i)
                EXPECT_NEAR(opt[i], ref[i], 1e-12 * std::max(norm, 1.0));
        }
    }
}

// ---------------------------------------------------------------------------
// Motion estimation
// ---------------------------------------------------------------------------

std::vector<workload::Frame>
testClip(int width = 64, int height = 48)
{
    workload::VideoParams params;
    params.width = width;
    params.height = height;
    params.frames = 4;
    params.seed = 0x717E57;
    return workload::VideoSource(params).frames();
}

/** The calibrate workload's 32x32 clips, and a 40x24 clip whose last
 *  macroblock column and row are partial. */
std::vector<std::vector<workload::Frame>>
calibrateSizedClips()
{
    return {testClip(32, 32), testClip(40, 24)};
}

/** The calibrate workload's videnc knob grid: subme {1, 3, 5, 7} as
 *  sub-pel rounds, merange {1, 4, 16}, ref {1, 3}. */
std::vector<apps::videnc::SearchParams>
calibrateKnobGrid()
{
    std::vector<apps::videnc::SearchParams> grid;
    for (const int subpel : {0, 2, 4, 6})
        for (const int merange : {1, 4, 16})
            for (const int refs : {1, 3})
                grid.push_back({merange, subpel, refs});
    return grid;
}

/** A border wide enough for the +-70 quarter-pel vectors below. */
constexpr int kWideBorder = 20;

TEST(KernelEquivalence, BlockSadBitExactAcrossPhasesAndBorders)
{
    using namespace apps::videnc;
    const auto clip = testClip();
    const PaddedPlane cur(clip[0], 0);
    const auto &ref_frame = clip[1];
    const PaddedPlane ref(ref_frame, kWideBorder);
    // Interior and border blocks x all quarter-pel phases, including
    // vectors that push the reference window out of the frame.
    for (const int bx : {0, 16, 48}) {
        for (const int by : {0, 16, 32}) {
            for (const int mvx : {-70, -9, -4, -1, 0, 1, 2, 3, 5, 8, 70}) {
                for (const int mvy : {-70, -5, 0, 1, 3, 4, 70}) {
                    const MotionVector mv{mvx, mvy};
                    EXPECT_EQ(blockSad(cur, bx, by, ref, mv),
                              reference::blockSad(clip[0], bx, by,
                                                  ref_frame, mv))
                        << "bx=" << bx << " by=" << by << " mv=(" << mvx
                        << "," << mvy << ")";
                }
            }
        }
    }
}

TEST(KernelEquivalence, BlockSadBoundedHonoursContract)
{
    using namespace apps::videnc;
    const auto clip = testClip();
    const PaddedPlane cur(clip[0], 0);
    const PaddedPlane ref(clip[2], kWideBorder);
    workload::Rng rng(0xB07D);
    for (int trial = 0; trial < 300; ++trial) {
        const int bx = 16 * static_cast<int>(rng.uniform(0.0, 4.0));
        const int by = 16 * static_cast<int>(rng.uniform(0.0, 3.0));
        const MotionVector mv{
            static_cast<int>(rng.uniform(-40.0, 40.0)),
            static_cast<int>(rng.uniform(-40.0, 40.0))};
        const std::uint64_t exact =
            reference::blockSad(clip[0], bx, by, clip[2], mv);
        // Limits below, at, and above the exact SAD.
        const std::uint64_t limits[] = {
            0, exact / 2, exact, exact + 1, exact * 2 + 1,
            std::numeric_limits<std::uint64_t>::max()};
        for (const std::uint64_t limit : limits) {
            const std::uint64_t got =
                blockSadBounded(cur, bx, by, ref, mv, limit);
            if (exact < limit)
                EXPECT_EQ(got, exact);
            else
                EXPECT_GE(got, limit);
        }
    }
}

TEST(KernelEquivalence, SearchMotionBitExactAcrossKnobGrid)
{
    // searchMotion, and predictBlockInto at the vector it finds, at
    // every macroblock of the calibrate-sized clips and a larger one,
    // across the calibrate knob grid; each reference is padded with
    // exactly searchBorder(params), the narrowest border allowed.
    using namespace apps::videnc;
    std::vector<std::vector<workload::Frame>> clips = calibrateSizedClips();
    clips.push_back(testClip());
    std::vector<double> pred;
    for (const auto &clip : clips) {
        const std::vector<workload::Frame> refs(clip.begin() + 1,
                                                clip.end());
        const auto &cur = clip[0];
        const PaddedPlane padded_cur(cur, 0);
        for (const SearchParams &params : calibrateKnobGrid()) {
            SCOPED_TRACE(::testing::Message()
                         << cur.width << "x" << cur.height << " merange "
                         << params.merange << " rounds "
                         << params.subpel_rounds << " refs "
                         << params.refs);
            std::vector<PaddedPlane> padded_refs;
            for (const auto &ref : refs)
                padded_refs.emplace_back(ref, searchBorder(params));
            for (int by = 0; by < cur.height; by += kMacroblock) {
                for (int bx = 0; bx < cur.width; bx += kMacroblock) {
                    const auto opt = searchMotion(padded_cur, bx, by,
                                                  padded_refs, params);
                    const auto ref =
                        reference::searchMotion(cur, bx, by, refs, params);
                    EXPECT_EQ(opt.mv.x, ref.mv.x);
                    EXPECT_EQ(opt.mv.y, ref.mv.y);
                    EXPECT_EQ(opt.reference, ref.reference);
                    EXPECT_EQ(opt.sad, ref.sad);
                    EXPECT_EQ(opt.work_ops, ref.work_ops);
                    predictBlockInto(padded_refs[opt.reference], bx, by,
                                     opt.mv, pred);
                    EXPECT_EQ(pred, reference::predictBlock(
                                        refs[ref.reference], bx, by,
                                        ref.mv));
                }
            }
        }
    }
}

TEST(KernelEquivalence, EveryPhaseAtEveryMacroblockBitExact)
{
    // All 16 quarter-pel phases at every macroblock of the
    // calibrate-sized clips, at integer offsets up to the widest
    // calibrate search's reach, against the clamping double-precision
    // oracles: the exact SAD, the bounded SAD's contract at limits
    // below, at and above it, and the prediction.
    using namespace apps::videnc;
    const SearchParams widest{16, 6, 3};
    const int reach = searchBorder(widest) - 1;
    std::vector<double> pred;
    for (const auto &clip : calibrateSizedClips()) {
        const auto &cur = clip[0];
        const auto &ref = clip[1];
        const PaddedPlane padded_cur(cur, 0);
        const PaddedPlane padded_ref(ref, searchBorder(widest));
        for (int by = 0; by < cur.height; by += kMacroblock) {
            for (int bx = 0; bx < cur.width; bx += kMacroblock) {
                for (int phase = 0; phase < 16; ++phase) {
                    for (const int ox : {-reach, -5, 0, 3, reach - 1}) {
                        for (const int oy : {-reach, -1, 0, 2, reach - 1}) {
                            const MotionVector mv{
                                ox * kSubpelScale + phase % 4,
                                oy * kSubpelScale + phase / 4};
                            SCOPED_TRACE(::testing::Message()
                                         << cur.width << "x" << cur.height
                                         << " bx=" << bx << " by=" << by
                                         << " mv=(" << mv.x << ","
                                         << mv.y << ")");
                            const std::uint64_t exact =
                                reference::blockSad(cur, bx, by, ref, mv);
                            ASSERT_EQ(blockSad(padded_cur, bx, by,
                                               padded_ref, mv),
                                      exact);
                            for (const std::uint64_t limit :
                                 {std::uint64_t{0}, exact / 2, exact,
                                  exact + 1,
                                  std::numeric_limits<
                                      std::uint64_t>::max()}) {
                                const std::uint64_t got = blockSadBounded(
                                    padded_cur, bx, by, padded_ref, mv,
                                    limit);
                                if (exact < limit)
                                    EXPECT_EQ(got, exact);
                                else
                                    EXPECT_GE(got, limit);
                            }
                            predictBlockInto(padded_ref, bx, by, mv, pred);
                            ASSERT_EQ(pred, reference::predictBlock(
                                                ref, bx, by, mv));
                        }
                    }
                }
            }
        }
    }
}

TEST(KernelEquivalence, PredictBlockBitExactAndBufferReusable)
{
    using namespace apps::videnc;
    const auto clip = testClip();
    const auto &ref_frame = clip[1];
    const PaddedPlane ref(ref_frame, kWideBorder);
    std::vector<double> reused; // Deliberately shared across calls.
    for (const int bx : {0, 16, 48}) {
        for (const int by : {0, 32}) {
            for (const int mvx : {-70, -3, 0, 1, 4, 70}) {
                for (const int mvy : {-70, 0, 2, 3, 70}) {
                    const MotionVector mv{mvx, mvy};
                    const auto expect =
                        reference::predictBlock(ref_frame, bx, by, mv);
                    const auto fresh = predictBlock(ref, bx, by, mv);
                    predictBlockInto(ref, bx, by, mv, reused);
                    ASSERT_EQ(fresh.size(), expect.size());
                    ASSERT_EQ(reused.size(), expect.size());
                    for (std::size_t i = 0; i < expect.size(); ++i) {
                        EXPECT_EQ(fresh[i], expect[i]);
                        EXPECT_EQ(reused[i], expect[i]);
                    }
                }
            }
        }
    }
}

/**
 * A test-local naive encoder built purely from the reference kernels:
 * encode @p frame against @p naive_refs (most recent first) as
 * Encoder::encodeFrame does, push its reconstruction onto
 * @p naive_refs, and return its statistics.
 */
apps::videnc::FrameStats
naiveEncodeFrame(const workload::Frame &frame,
                 std::deque<workload::Frame> &naive_refs,
                 const apps::videnc::SearchParams &effort,
                 const apps::videnc::EncoderConfig &config)
{
    using namespace apps::videnc;
    FrameStats naive;
    workload::Frame recon = frame;
    const std::vector<workload::Frame> refs(naive_refs.begin(),
                                            naive_refs.end());
    const bool intra = refs.empty();
    for (int by = 0; by < frame.height; by += kMacroblock) {
        for (int bx = 0; bx < frame.width; bx += kMacroblock) {
            std::vector<double> pred;
            if (intra) {
                pred.assign(kMacroblock * kMacroblock, 128.0);
            } else {
                const MotionResult mr = reference::searchMotion(
                    frame, bx, by, refs, effort);
                naive.work_ops += mr.work_ops;
                pred = reference::predictBlock(refs[mr.reference],
                                               bx, by, mr.mv);
                naive.bits += 12;
            }
            for (int sy = 0; sy < kMacroblock; sy += kBlock) {
                for (int sx = 0; sx < kMacroblock; sx += kBlock) {
                    ResidualBlock residual{};
                    for (int y = 0; y < kBlock; ++y) {
                        for (int x = 0; x < kBlock; ++x) {
                            const int px = std::min(bx + sx + x,
                                                    frame.width - 1);
                            const int py = std::min(by + sy + y,
                                                    frame.height - 1);
                            residual[y * kBlock + x] =
                                static_cast<double>(
                                    frame.at(px, py)) -
                                pred[static_cast<std::size_t>(sy + y) *
                                         kMacroblock +
                                     sx + x];
                        }
                    }
                    const ResidualBlock freq =
                        reference::forwardDct(residual);
                    const CoeffBlock q =
                        quantize(freq, config.qstep);
                    naive.bits += bitCost(q);
                    naive.work_ops += kDctOps;
                    const ResidualBlock rec_res =
                        reference::inverseDct(
                            dequantize(q, config.qstep));
                    for (int y = 0; y < kBlock; ++y) {
                        for (int x = 0; x < kBlock; ++x) {
                            const int px = bx + sx + x;
                            const int py = by + sy + y;
                            if (px >= frame.width ||
                                py >= frame.height)
                                continue;
                            const double value =
                                pred[static_cast<std::size_t>(sy +
                                                              y) *
                                         kMacroblock +
                                     sx + x] +
                                rec_res[y * kBlock + x];
                            recon.pixels
                                [static_cast<std::size_t>(py) *
                                     frame.width +
                                 px] =
                                static_cast<std::uint8_t>(
                                    std::clamp(value, 0.0, 255.0));
                        }
                    }
                }
            }
            naive.work_ops += 64;
        }
    }
    naive.psnr_db = qos::psnr(frame.pixels, recon.pixels);
    naive_refs.push_front(recon);
    while (naive_refs.size() > config.max_refs)
        naive_refs.pop_back();
    return naive;
}

/**
 * End-to-end pin: the naive encoder must reproduce Encoder::encodeFrame
 * bit-for-bit — bits, work_ops, PSNR, and the reconstructed reference
 * frames — on a clip of whole macroblocks and one with partial ones,
 * with per-frame efforts whose searches need a wider reference border,
 * then a narrower one (so the encoder re-pads its references
 * mid-clip), and again after a reset().
 */
TEST(KernelEquivalence, EncoderMatchesReferenceKernelPipeline)
{
    using namespace apps::videnc;
    const SearchParams efforts[] = {
        {4, 2, 2}, {1, 0, 1}, {16, 6, 3}, {4, 2, 2}};
    const EncoderConfig config;
    Encoder encoder(config);
    for (const auto &clip : {testClip(), testClip(40, 24)}) {
        for (int pass = 0; pass < 2; ++pass) {
            SCOPED_TRACE(::testing::Message()
                         << clip[0].width << "x" << clip[0].height
                         << " pass " << pass);
            encoder.reset();
            std::deque<workload::Frame> naive_refs;
            for (std::size_t f = 0; f < clip.size(); ++f) {
                const SearchParams &effort = efforts[f % 4];
                const FrameStats naive =
                    naiveEncodeFrame(clip[f], naive_refs, effort, config);
                const FrameStats actual =
                    encoder.encodeFrame(clip[f], effort);
                EXPECT_EQ(actual.bits, naive.bits);
                EXPECT_EQ(actual.work_ops, naive.work_ops);
                EXPECT_EQ(actual.psnr_db, naive.psnr_db);
                ASSERT_EQ(encoder.references().front().pixels,
                          naive_refs.front().pixels);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Particle-filter resampling
// ---------------------------------------------------------------------------

std::vector<apps::bodytrack::Particle>
randomCloud(workload::Rng &rng, std::size_t n)
{
    std::vector<apps::bodytrack::Particle> cloud(n);
    for (auto &p : cloud) {
        p.pose.root_x = rng.gaussian(0.0, 2.0);
        p.pose.root_y = rng.gaussian(0.0, 2.0);
        for (auto &a : p.pose.angles)
            a = rng.gaussian(0.0, 0.5);
        p.weight = std::exp(rng.gaussian(-2.0, 1.5)); // Skewed weights.
    }
    return cloud;
}

TEST(KernelEquivalence, SystematicResampleBitExactAndScratchReusable)
{
    using namespace apps::bodytrack;
    workload::Rng rng(0x9E5A);
    std::vector<Particle> scratch; // Shared across every call below.
    for (const std::size_t in_count : {std::size_t{1}, std::size_t{7},
                                       std::size_t{100}, std::size_t{999}}) {
        const auto cloud = randomCloud(rng, in_count);
        double total = 0.0;
        for (const auto &p : cloud)
            total += p.weight;
        for (const std::size_t out_count :
             {std::size_t{1}, std::size_t{13}, std::size_t{100},
              std::size_t{1500}}) {
            const double u01 = rng.uniform();
            const auto expect =
                reference::systematicResample(cloud, out_count, total, u01);
            systematicResampleInto(cloud, out_count, total, u01, scratch);
            ASSERT_EQ(scratch.size(), expect.size());
            for (std::size_t i = 0; i < expect.size(); ++i) {
                EXPECT_EQ(scratch[i].weight, expect[i].weight);
                EXPECT_EQ(scratch[i].pose.root_x, expect[i].pose.root_x);
                EXPECT_EQ(scratch[i].pose.root_y, expect[i].pose.root_y);
                for (std::size_t a = 0; a < expect[i].pose.angles.size();
                     ++a)
                    EXPECT_EQ(scratch[i].pose.angles[a],
                              expect[i].pose.angles[a]);
            }
        }
    }
}

TEST(KernelEquivalence, FilterStepUnchangedByScratchResampling)
{
    // The filter's observable trajectory (estimates across frames,
    // including a mid-run particle-count change) is pinned against
    // itself run twice — the RNG stream, and thus every estimate, must
    // be deterministic with the reused scratch buffer.
    using namespace apps::bodytrack;
    const auto sequence = workload::makeBodySequence({});
    for (int run = 0; run < 2; ++run) {
        FilterParams params;
        params.particles = 300;
        params.layers = 3;
        makeSchedules(params.layers, params.betas, params.sigmas);
        AnnealedParticleFilter filter({}, 0xF117);
        filter.initialize(sequence.front().truth, params);
        double checksum = 0.0;
        for (std::size_t f = 0; f < 6; ++f) {
            if (f == 3)
                params.particles = 450; // Knob change mid-run.
            const auto r = filter.step(sequence[f].observation, params);
            checksum += r.estimate.root_x + r.estimate.root_y;
        }
        static double first_checksum = 0.0;
        if (run == 0)
            first_checksum = checksum;
        else
            EXPECT_EQ(checksum, first_checksum);
    }
}

// ---------------------------------------------------------------------------
// Search scoring
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, SearchScoringBitExactAcrossQueriesAndKnob)
{
    using namespace apps::searchx;
    workload::CorpusParams cp;
    cp.documents = 150;
    cp.vocabulary = 600;
    cp.words_per_doc = 80;
    cp.seed = 0x5EA7C4;
    const workload::Corpus corpus(cp);
    const InvertedIndex index(corpus.documents());
    const auto queries = corpus.makeQueries(25, 3, 0xA5A5);
    for (const std::size_t max_results :
         {std::size_t{0}, std::size_t{1}, std::size_t{10},
          std::size_t{100}}) {
        for (const auto &query : queries) {
            const auto expect =
                reference::search(index, query, max_results);
            // Run the optimized path twice: the second pass catches a
            // dirty score/touched scratch left behind by the first.
            for (int pass = 0; pass < 2; ++pass) {
                const auto got = index.search(query, max_results);
                EXPECT_EQ(got.work_ops, expect.work_ops);
                ASSERT_EQ(got.results.size(), expect.results.size());
                for (std::size_t i = 0; i < expect.results.size(); ++i) {
                    EXPECT_EQ(got.results[i].doc, expect.results[i].doc);
                    EXPECT_EQ(got.results[i].score,
                              expect.results[i].score);
                }
            }
        }
    }
}

TEST(KernelEquivalence, SearchTopResultsBitExactWithAbsentAndRepeatedTerms)
{
    // Top-m selection at m = 1, 10, 25, 100 and beyond the documents a
    // query touches, for queries with absent and repeated terms.
    using namespace apps::searchx;
    workload::CorpusParams cp;
    cp.documents = 150;
    cp.vocabulary = 600;
    cp.words_per_doc = 80;
    cp.seed = 0x5EA7C5;
    const workload::Corpus corpus(cp);
    const InvertedIndex index(corpus.documents());
    constexpr workload::WordId kAbsent = 1000000;
    std::vector<workload::Query> queries = corpus.makeQueries(20, 3, 0xA5A6);
    for (std::size_t i = 0; i < 20; ++i) {
        const workload::Query q = queries[i]; // Copy: the pushes reallocate.
        queries.push_back({{q.terms[0], kAbsent, q.terms[1]}});
        queries.push_back({{q.terms[0], q.terms[0], q.terms[2]}});
        queries.push_back({{q.terms[1], q.terms[1], q.terms[1]}});
    }
    queries.push_back({{kAbsent}});
    queries.push_back({{}});
    for (const auto &query : queries) {
        std::size_t touched = 0;
        {
            std::vector<bool> seen(cp.documents, false);
            for (const auto term : query.terms)
                for (const Posting &p : index.postings(term))
                    if (!seen[p.doc]) {
                        seen[p.doc] = true;
                        ++touched;
                    }
        }
        for (const std::size_t max_results :
             {std::size_t{1}, std::size_t{10}, std::size_t{25},
              std::size_t{100}, touched + 7}) {
            const auto expect =
                reference::search(index, query, max_results);
            const auto got = index.search(query, max_results);
            EXPECT_EQ(got.work_ops, expect.work_ops);
            ASSERT_EQ(got.results.size(), expect.results.size());
            for (std::size_t i = 0; i < expect.results.size(); ++i) {
                EXPECT_EQ(got.results[i].doc, expect.results[i].doc);
                EXPECT_EQ(got.results[i].score, expect.results[i].score);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SpMV
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, SpmvRowDotBitExactAcrossKnobGrid)
{
    using namespace apps::spmv;
    const auto rows = makeBandedRows(48, 12, 0.5, 0x5937C0FF);
    const auto csr = CsrMatrix::fromRows(rows);
    ASSERT_EQ(csr.rowCount(), rows.size());
    workload::Rng rng(0x11AC);
    std::vector<double> x(rows.size());
    for (auto &v : x)
        v = 0.1 + 0.9 * rng.uniform();
    for (const int bits : {8, 16, 24, 32, 56, 64}) {
        for (const double keep : {0.1, 0.25, 0.5, 0.75, 1.0}) {
            for (std::size_t r = 0; r < rows.size(); ++r) {
                const std::size_t nnz = rows[r].values.size();
                ASSERT_EQ(csr.nnzOf(r), nnz);
                const auto kept = std::min(
                    std::max<std::size_t>(
                        static_cast<std::size_t>(std::ceil(
                            keep * static_cast<double>(nnz))),
                        1),
                    nnz);
                EXPECT_EQ(rowDot(csr, r, x, kept, bits),
                          reference::rowDot(rows[r], x, kept, bits))
                    << "row " << r << " bits " << bits << " keep "
                    << keep;
            }
        }
    }
}

TEST(KernelEquivalence, CsrFlatteningPreservesMagnitudeOrder)
{
    using namespace apps::spmv;
    const auto rows = makeBandedRows(32, 8, 0.6, 0xC0FFEE);
    const auto csr = CsrMatrix::fromRows(rows);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::size_t base = csr.row_ptr[r];
        for (std::size_t i = 0; i < rows[r].by_magnitude.size(); ++i) {
            const std::size_t e = rows[r].by_magnitude[i];
            EXPECT_EQ(csr.values[base + i], rows[r].values[e]);
            EXPECT_EQ(csr.cols[base + i],
                      static_cast<std::uint32_t>(rows[r].cols[e]));
        }
    }
}

} // namespace
} // namespace powerdial
