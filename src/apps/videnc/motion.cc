#include "apps/videnc/motion.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace powerdial::apps::videnc {
namespace {

/** Bilinear weights are k / kWeightScale: the product of the two
 *  axes' quarter-pel weights. */
constexpr int kWeightScale = kSubpelScale * kSubpelScale;

/** Round @p v (>= 0) up to a whole number of macroblocks. */
int
alignToMacroblock(int v)
{
    return (v + kMacroblock - 1) / kMacroblock * kMacroblock;
}

/**
 * The integer bilinear weights of a quarter-pel phase (fxq, fyq): the
 * reference's (1-fx)(1-fy), fx(1-fy), (1-fx)fy, fx*fy, each scaled by
 * kWeightScale.
 */
struct BilinearWeights
{
    int k00, k10, k01, k11;

    BilinearWeights(int fxq, int fyq)
        : k00((kSubpelScale - fxq) * (kSubpelScale - fyq)),
          k10(fxq * (kSubpelScale - fyq)),
          k01((kSubpelScale - fxq) * fyq), k11(fxq * fyq)
    {
    }
};

/** Stored width and height of a window at quarter-pel vector @p mv:
 *  a fractional phase reads one more column and row. */
int
windowSpan(MotionVector mv)
{
    return (mv.x & 3) == 0 && (mv.y & 3) == 0 ? kMacroblock
                                               : kMacroblock + 1;
}

/** blockSadBounded without the window checks; every caller has made
 *  them. motion.h's file comment says why the result is exact. */
std::uint64_t
sadKernel(const PaddedPlane &cur, int bx, int by, const PaddedPlane &ref,
          MotionVector mv, std::uint64_t limit)
{
    // (bx+x)*4 + mv.x has integer part bx + x + (mv.x >> 2) and
    // constant quarter-pel phase mv.x & 3 (likewise for y), so the
    // reference's per-pixel >>2 / &3 decomposition is hoisted here.
    const std::uint8_t *c = cur.at(bx, by);
    const std::uint8_t *r0 = ref.at(bx + (mv.x >> 2), by + (mv.y >> 2));
    const std::ptrdiff_t cs = cur.stride();
    const std::ptrdiff_t rs = ref.stride();
    const int fxq = mv.x & 3;
    const int fyq = mv.y & 3;

    if (fxq == 0 && fyq == 0) {
        // Integer-pel: the interpolation degenerates to p00.
        std::uint64_t sad = 0;
        for (int y = 0; y < kMacroblock; ++y, c += cs, r0 += rs) {
            unsigned row = 0;
            for (int x = 0; x < kMacroblock; ++x)
                row += static_cast<unsigned>(
                    std::abs(static_cast<int>(c[x]) -
                             static_cast<int>(r0[x])));
            sad += row;
            if (sad >= limit)
                return sad;
        }
        return sad;
    }

    // Fractional phase: S = sum |16 c - (k00 p00 + k10 p10 + k01 p01 +
    // k11 p11)|; the reference's double SAD is S / 16 exactly.
    const BilinearWeights w(fxq, fyq);
    std::uint64_t sad16 = 0;
    for (int y = 0; y < kMacroblock; ++y, c += cs, r0 += rs) {
        const std::uint8_t *r1 = r0 + rs;
        unsigned row = 0;
        for (int x = 0; x < kMacroblock; ++x) {
            const int pr = w.k00 * r0[x] + w.k10 * r0[x + 1] +
                           w.k01 * r1[x] + w.k11 * r1[x + 1];
            row += static_cast<unsigned>(
                std::abs(kWeightScale * static_cast<int>(c[x]) - pr));
        }
        sad16 += row;
        if (sad16 / kWeightScale >= limit)
            return sad16 / kWeightScale;
    }
    return sad16 / kWeightScale;
}

} // namespace

void
PaddedPlane::assign(const workload::Frame &frame, int border)
{
    if (frame.width <= 0 || frame.height <= 0 ||
        frame.pixels.size() != static_cast<std::size_t>(frame.width) *
                                   static_cast<std::size_t>(frame.height))
        throw std::invalid_argument("PaddedPlane: empty or malformed frame");
    if (border < 0)
        throw std::invalid_argument("PaddedPlane: negative border");
    const int width = frame.width;
    const int height = frame.height;
    border_ = border;
    stride_ = alignToMacroblock(width) + 2 * border;
    rows_ = alignToMacroblock(height) + 2 * border;
    pixels_.resize(static_cast<std::size_t>(stride_) *
                   static_cast<std::size_t>(rows_));
    for (int y = -border; y < rows_ - border; ++y) {
        const std::uint8_t *src =
            &frame.pixels[static_cast<std::size_t>(
                              std::clamp(y, 0, height - 1)) *
                          static_cast<std::size_t>(width)];
        std::uint8_t *dst =
            &pixels_[static_cast<std::size_t>(y + border) *
                     static_cast<std::size_t>(stride_)];
        std::fill(dst, dst + border, src[0]);
        std::copy(src, src + width, dst + border);
        std::fill(dst + border + width, dst + stride_, src[width - 1]);
    }
}

std::uint64_t
blockSadBounded(const PaddedPlane &cur, int bx, int by,
                const PaddedPlane &ref, MotionVector mv,
                std::uint64_t limit)
{
    const int span = windowSpan(mv);
    if (!cur.holds(bx, by, kMacroblock, kMacroblock) ||
        !ref.holds(bx + (mv.x >> 2), by + (mv.y >> 2), span, span))
        throw std::out_of_range("blockSad: window outside the plane");
    return sadKernel(cur, bx, by, ref, mv, limit);
}

std::uint64_t
blockSad(const PaddedPlane &cur, int bx, int by, const PaddedPlane &ref,
         MotionVector mv)
{
    return blockSadBounded(cur, bx, by, ref, mv,
                           std::numeric_limits<std::uint64_t>::max());
}

int
searchBorder(const SearchParams &params)
{
    const int subpel_reach =
        params.subpel_rounds > 0 ? params.subpel_rounds + 1 : 0;
    return std::max(params.merange, 0) +
           (subpel_reach + kSubpelScale - 1) / kSubpelScale + 1;
}

MotionResult
searchMotion(const PaddedPlane &cur, int bx, int by,
             const std::vector<PaddedPlane> &references,
             const SearchParams &params)
{
    if (references.empty())
        throw std::invalid_argument("searchMotion: no reference frames");
    if (params.merange < 1 || params.refs < 1)
        throw std::invalid_argument("searchMotion: bad search params");
    if (!cur.holds(bx, by, kMacroblock, kMacroblock))
        throw std::out_of_range("searchMotion: macroblock outside the plane");

    constexpr std::uint64_t kSadOps = kMacroblock * kMacroblock;

    MotionResult best{};
    best.sad = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t work = 0;

    // Every candidate window, with its filter taps, lies within
    // searchBorder(params) pixels of the macroblock, so one check per
    // reference clears every unchecked kernel call below.
    const int reach = searchBorder(params);
    const int nrefs =
        std::min<int>(params.refs, static_cast<int>(references.size()));
    for (int r = 0; r < nrefs; ++r) {
        const auto &ref = references[static_cast<std::size_t>(r)];
        if (!ref.holds(bx - reach, by - reach, kMacroblock + 2 * reach,
                       kMacroblock + 2 * reach))
            throw std::invalid_argument(
                "searchMotion: reference border too narrow for the search");

        // Integer-pel diamond search from (0, 0), radius <= merange.
        // Candidates are scored with the bounded SAD: a candidate that
        // cannot beat improved_sad may return early, but one that does
        // beat it returns its exact SAD, so accept/reject decisions —
        // and every recorded SAD — match reference::searchMotion.
        // work_ops stays the full-SAD pixel count: it is the cost model
        // the knob calibrations are built on, not a time measurement.
        MotionVector center{0, 0};
        std::uint64_t center_sad =
            sadKernel(cur, bx, by, ref, center,
                      std::numeric_limits<std::uint64_t>::max());
        work += kSadOps;
        int step = 1;
        int travelled = 0;
        while (travelled < params.merange) {
            static constexpr int dx[] = {1, -1, 0, 0};
            static constexpr int dy[] = {0, 0, 1, -1};
            MotionVector improved = center;
            std::uint64_t improved_sad = center_sad;
            for (int d = 0; d < 4; ++d) {
                MotionVector cand{
                    center.x + dx[d] * step * kSubpelScale,
                    center.y + dy[d] * step * kSubpelScale};
                if (std::abs(cand.x) >
                        params.merange * kSubpelScale ||
                    std::abs(cand.y) >
                        params.merange * kSubpelScale) {
                    continue;
                }
                const std::uint64_t sad =
                    sadKernel(cur, bx, by, ref, cand, improved_sad);
                work += kSadOps;
                if (sad < improved_sad) {
                    improved_sad = sad;
                    improved = cand;
                }
            }
            if (improved.x == center.x && improved.y == center.y)
                break; // Local minimum at this step size.
            center = improved;
            center_sad = improved_sad;
            ++travelled;
        }

        // Sub-pixel refinement: half-pel first, then quarter-pel,
        // then iterative quarter-pel polish (subme-like rounds).
        for (int round = 0; round < params.subpel_rounds; ++round) {
            const int delta = round == 0 ? 2 : 1; // Half then quarter.
            static constexpr int dx8[] = {1, -1, 0, 0, 1, 1, -1, -1};
            static constexpr int dy8[] = {0, 0, 1, -1, 1, -1, 1, -1};
            MotionVector improved = center;
            std::uint64_t improved_sad = center_sad;
            for (int d = 0; d < 8; ++d) {
                const MotionVector cand{center.x + dx8[d] * delta,
                                        center.y + dy8[d] * delta};
                const std::uint64_t sad =
                    sadKernel(cur, bx, by, ref, cand, improved_sad);
                work += kSadOps;
                if (sad < improved_sad) {
                    improved_sad = sad;
                    improved = cand;
                }
            }
            if (improved.x == center.x && improved.y == center.y &&
                round > 0) {
                break; // Converged at finest precision.
            }
            center = improved;
            center_sad = improved_sad;
        }

        if (center_sad < best.sad) {
            best.sad = center_sad;
            best.mv = center;
            best.reference = static_cast<std::size_t>(r);
        }
    }
    best.work_ops = work;
    return best;
}

void
predictBlockInto(const PaddedPlane &ref, int bx, int by, MotionVector mv,
                 std::vector<double> &pred)
{
    const int ix0 = bx + (mv.x >> 2);
    const int iy0 = by + (mv.y >> 2);
    const int span = windowSpan(mv);
    if (!ref.holds(ix0, iy0, span, span))
        throw std::out_of_range("predictBlock: window outside the plane");
    pred.resize(kMacroblock * kMacroblock);
    const std::uint8_t *r0 = ref.at(ix0, iy0);
    const std::ptrdiff_t rs = ref.stride();
    double *p = pred.data();
    if (span == kMacroblock) {
        for (int y = 0; y < kMacroblock; ++y, r0 += rs, p += kMacroblock)
            for (int x = 0; x < kMacroblock; ++x)
                p[x] = static_cast<double>(r0[x]);
        return;
    }
    // P / 16 with P below 2^12: exact, and the reference's double.
    const BilinearWeights w(mv.x & 3, mv.y & 3);
    for (int y = 0; y < kMacroblock; ++y, r0 += rs, p += kMacroblock) {
        const std::uint8_t *r1 = r0 + rs;
        for (int x = 0; x < kMacroblock; ++x)
            p[x] = static_cast<double>(w.k00 * r0[x] + w.k10 * r0[x + 1] +
                                       w.k01 * r1[x] + w.k11 * r1[x + 1]) /
                   kWeightScale;
    }
}

std::vector<double>
predictBlock(const PaddedPlane &ref, int bx, int by, MotionVector mv)
{
    std::vector<double> pred;
    predictBlockInto(ref, bx, by, mv, pred);
    return pred;
}

} // namespace powerdial::apps::videnc
