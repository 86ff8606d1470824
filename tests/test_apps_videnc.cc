/** @file Tests for the video-encoder benchmark. */
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "apps/videnc/videnc_app.h"
#include "core/calibration.h"
#include "workload/rng.h"

namespace powerdial::apps::videnc {
namespace {

TEST(Dct, RoundTripIsIdentity)
{
    workload::Rng rng(1);
    ResidualBlock block{};
    for (auto &v : block)
        v = rng.uniform(-128.0, 128.0);
    const auto recovered = inverseDct(forwardDct(block));
    for (std::size_t i = 0; i < block.size(); ++i)
        EXPECT_NEAR(recovered[i], block[i], 1e-9);
}

TEST(Dct, Orthonormal)
{
    // Parseval: energy preserved by the transform.
    workload::Rng rng(2);
    ResidualBlock block{};
    double energy = 0.0;
    for (auto &v : block) {
        v = rng.gaussian(0.0, 30.0);
        energy += v * v;
    }
    const auto freq = forwardDct(block);
    double freq_energy = 0.0;
    for (const auto &v : freq)
        freq_energy += v * v;
    EXPECT_NEAR(freq_energy, energy, 1e-6);
}

TEST(Dct, DcCoefficientIsScaledMean)
{
    ResidualBlock flat{};
    flat.fill(10.0);
    const auto freq = forwardDct(flat);
    EXPECT_NEAR(freq[0], 10.0 * kBlock, 1e-9); // sqrt(64) * mean * ...
    for (std::size_t i = 1; i < freq.size(); ++i)
        EXPECT_NEAR(freq[i], 0.0, 1e-9);
}

TEST(Quantize, RoundTripWithinHalfStep)
{
    workload::Rng rng(3);
    ResidualBlock freq{};
    for (auto &v : freq)
        v = rng.uniform(-100.0, 100.0);
    const double qstep = 8.0;
    const auto rec = dequantize(quantize(freq, qstep), qstep);
    for (std::size_t i = 0; i < freq.size(); ++i)
        EXPECT_LE(std::abs(rec[i] - freq[i]), qstep / 2.0 + 1e-9);
    EXPECT_THROW(quantize(freq, 0.0), std::invalid_argument);
}

TEST(BitCost, ZeroBlockCostsOnlyOverhead)
{
    CoeffBlock zero{};
    EXPECT_EQ(bitCost(zero), 4u);
}

TEST(BitCost, MonotoneInMagnitude)
{
    CoeffBlock small{}, large{};
    small[0] = 2;
    large[0] = 200;
    EXPECT_LT(bitCost(small), bitCost(large));
}

/** Property: coarser quantisation costs fewer bits. */
class QuantSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(QuantSweep, CoarserQuantFewerBits)
{
    workload::Rng rng(4);
    ResidualBlock freq{};
    for (auto &v : freq)
        v = rng.gaussian(0.0, 40.0);
    const double qstep = GetParam();
    EXPECT_LE(bitCost(quantize(freq, qstep * 2.0)),
              bitCost(quantize(freq, qstep)));
}

INSTANTIATE_TEST_SUITE_P(QSteps, QuantSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0, 16.0));

workload::Frame
flatFrame(int w, int h, std::uint8_t luma)
{
    workload::Frame f;
    f.width = w;
    f.height = h;
    f.pixels.assign(static_cast<std::size_t>(w) * h, luma);
    return f;
}

/** searchMotion over unpadded frames, each reference padded for
 *  @p effort as the encoder pads it. */
MotionResult
search(const workload::Frame &cur, int bx, int by,
       const std::vector<workload::Frame> &refs, const SearchParams &effort)
{
    std::vector<PaddedPlane> padded;
    for (const auto &ref : refs)
        padded.emplace_back(ref, searchBorder(effort));
    return searchMotion(PaddedPlane(cur, 0), bx, by, padded, effort);
}

TEST(Motion, SadZeroForIdenticalFrames)
{
    const PaddedPlane f(flatFrame(32, 32, 80), 0);
    EXPECT_EQ(blockSad(f, 0, 0, f, {0, 0}), 0u);
}

TEST(Motion, PaddedPlaneReplicatesTheEdges)
{
    // A 20x18 frame: the stored area is its 32x32 macroblock-aligned
    // extension plus a 3-pixel border, every pixel a clamped read.
    workload::Frame f = flatFrame(20, 18, 0);
    for (int y = 0; y < f.height; ++y)
        for (int x = 0; x < f.width; ++x)
            f.pixels[static_cast<std::size_t>(y) * 20 + x] =
                static_cast<std::uint8_t>(7 * x + 11 * y);
    const PaddedPlane plane(f, 3);
    EXPECT_EQ(plane.border(), 3);
    EXPECT_EQ(plane.stride(), 32 + 2 * 3);
    EXPECT_TRUE(plane.holds(-3, -3, 38, 38));
    EXPECT_FALSE(plane.holds(-4, 0, 16, 16));
    EXPECT_FALSE(plane.holds(0, 0, 36, 16));
    for (int y = -3; y < 35; ++y)
        for (int x = -3; x < 35; ++x)
            ASSERT_EQ(*plane.at(x, y),
                      f.at(std::clamp(x, 0, 19), std::clamp(y, 0, 17)))
                << "x=" << x << " y=" << y;
    EXPECT_THROW(PaddedPlane(f, -1), std::invalid_argument);
    EXPECT_THROW(PaddedPlane(workload::Frame{}, 0), std::invalid_argument);
}

TEST(Motion, FindsKnownIntegerTranslation)
{
    // Reference contains a bright square; the current frame has it
    // shifted by (+4, +2). The search must find mv = (-4, -2) qpel
    // units * 4.
    workload::Frame ref = flatFrame(64, 64, 60);
    workload::Frame cur = flatFrame(64, 64, 60);
    for (int y = 20; y < 32; ++y) {
        for (int x = 20; x < 32; ++x) {
            ref.pixels[static_cast<std::size_t>(y) * 64 + x] = 200;
            cur.pixels[static_cast<std::size_t>(y + 2) * 64 + x + 4] =
                200;
        }
    }
    SearchParams effort;
    effort.merange = 8;
    effort.subpel_rounds = 0;
    effort.refs = 1;
    const auto result = search(cur, 16, 16, {ref}, effort);
    EXPECT_EQ(result.mv.x, -4 * kSubpelScale);
    EXPECT_EQ(result.mv.y, -2 * kSubpelScale);
}

TEST(Motion, MoreEffortMoreWork)
{
    workload::VideoParams vp;
    vp.width = 64;
    vp.height = 48;
    vp.frames = 2;
    const auto clip = workload::VideoSource(vp).frames();
    SearchParams cheap{1, 0, 1};
    SearchParams costly{16, 6, 1};
    const auto a = search(clip[1], 16, 16, {clip[0]}, cheap);
    const auto b = search(clip[1], 16, 16, {clip[0]}, costly);
    EXPECT_GT(b.work_ops, a.work_ops);
    EXPECT_LE(b.sad, a.sad); // More effort never worsens the match.
}

TEST(Motion, SubPelRefinementImprovesSad)
{
    workload::VideoParams vp;
    vp.width = 64;
    vp.height = 48;
    vp.frames = 3;
    const auto clip = workload::VideoSource(vp).frames();
    SearchParams integer_only{8, 0, 1};
    SearchParams with_subpel{8, 4, 1};
    std::uint64_t sad_int = 0, sad_sub = 0;
    for (int by = 0; by < 48; by += 16) {
        for (int bx = 0; bx < 64; bx += 16) {
            sad_int +=
                search(clip[2], bx, by, {clip[1]}, integer_only).sad;
            sad_sub +=
                search(clip[2], bx, by, {clip[1]}, with_subpel).sad;
        }
    }
    EXPECT_LT(sad_sub, sad_int);
}

TEST(Motion, Validation)
{
    const auto f = flatFrame(32, 32, 80);
    const PaddedPlane cur(f, 0);
    SearchParams effort;
    EXPECT_THROW(searchMotion(cur, 0, 0, {}, effort),
                 std::invalid_argument);
    // A reference one pixel narrower than the search needs.
    EXPECT_THROW(searchMotion(cur, 0, 0,
                              {PaddedPlane(f, searchBorder(effort) - 1)},
                              effort),
                 std::invalid_argument);
    EXPECT_THROW(searchMotion(cur, 32, 0,
                              {PaddedPlane(f, searchBorder(effort))},
                              effort),
                 std::out_of_range);
    EXPECT_THROW(blockSad(cur, 0, 0, cur, {-1, 0}), std::out_of_range);
    EXPECT_THROW(predictBlock(cur, 16, 16, {1, 0}), std::out_of_range);
    effort.merange = 0;
    EXPECT_THROW(search(f, 0, 0, {f}, effort), std::invalid_argument);
}

TEST(Encoder, IntraFrameProducesBitsAndPsnr)
{
    workload::VideoParams vp;
    vp.width = 32;
    vp.height = 32;
    vp.frames = 1;
    const auto clip = workload::VideoSource(vp).frames();
    Encoder enc;
    const auto stats = enc.encodeFrame(clip[0], {});
    EXPECT_GT(stats.bits, 0u);
    EXPECT_GT(stats.psnr_db, 25.0);
    EXPECT_EQ(enc.references().size(), 1u);
}

TEST(Encoder, InterFramesCheaperThanIntra)
{
    workload::VideoParams vp;
    vp.width = 64;
    vp.height = 48;
    vp.frames = 3;
    const auto clip = workload::VideoSource(vp).frames();
    Encoder enc;
    const auto intra = enc.encodeFrame(clip[0], {});
    const auto inter = enc.encodeFrame(clip[1], {});
    EXPECT_LT(inter.bits, intra.bits);
}

TEST(Encoder, MoreSearchEffortFewerBits)
{
    workload::VideoParams vp;
    vp.width = 64;
    vp.height = 48;
    vp.frames = 4;
    const auto clip = workload::VideoSource(vp).frames();
    auto total_bits = [&](const SearchParams &effort) {
        Encoder enc;
        std::uint64_t bits = 0;
        for (const auto &frame : clip)
            bits += enc.encodeFrame(frame, effort).bits;
        return bits;
    };
    EXPECT_LT(total_bits({16, 6, 3}), total_bits({1, 0, 1}));
}

TEST(Encoder, ReferenceListBounded)
{
    EncoderConfig config;
    config.max_refs = 2;
    Encoder enc(config);
    const auto f = flatFrame(32, 32, 90);
    for (int i = 0; i < 5; ++i)
        enc.encodeFrame(f, {});
    EXPECT_EQ(enc.references().size(), 2u);
}

VidencConfig
smallConfig()
{
    VidencConfig config;
    config.subme_values = {1, 4, 7};
    config.merange_values = {1, 8};
    config.ref_values = {1, 3};
    config.inputs = 2;
    config.video.width = 48;
    config.video.height = 32;
    config.video.frames = 4;
    return config;
}

TEST(VidencApp, DefaultIsMaxEffort)
{
    VidencApp app(smallConfig());
    app.configure(app.knobSpace().valuesOf(app.defaultCombination()));
    EXPECT_EQ(app.effort().subpel_rounds, 6);
    EXPECT_EQ(app.effort().merange, 8);
    EXPECT_EQ(app.effort().refs, 3);
}

TEST(VidencApp, BaselineHasBestQos)
{
    VidencApp app(smallConfig());
    const auto result = core::calibrate(app, app.trainingInputs());
    for (const auto &p : result.model.allPoints()) {
        if (p.combination != app.defaultCombination()) {
            EXPECT_GE(p.qos_loss, 0.0);
        }
    }
    EXPECT_GT(result.model.maxSpeedup(), 1.5);
}

TEST(VidencApp, OutputIsPsnrAndBitrate)
{
    VidencApp app(smallConfig());
    app.configure({7, 8, 3});
    app.loadInput(0);
    sim::Machine machine;
    for (std::size_t u = 0; u < app.unitCount(); ++u)
        app.processUnit(u, machine);
    const auto out = app.output();
    ASSERT_EQ(out.components.size(), 2u);
    EXPECT_GT(out.components[0], 20.0); // PSNR dB.
    EXPECT_GT(out.components[1], 0.0);  // Bits.
}

TEST(VidencApp, Validation)
{
    VidencApp app(smallConfig());
    EXPECT_THROW(app.configure({1.0}), std::invalid_argument);
    EXPECT_THROW(app.loadInput(99), std::out_of_range);
}

} // namespace
} // namespace powerdial::apps::videnc
