/**
 * @file
 * Retained naive motion kernels — the pre-optimization sampling, SAD,
 * diamond search, and motion-compensated prediction, which clamp every
 * coordinate to the frame and interpolate in double precision, kept
 * verbatim as the bit-exactness oracle for the optimized padded-plane
 * kernels in motion.cc (differential sweep in
 * tests/test_kernel_equivalence.cc) and as the "before" column of
 * bench_roofline.
 */
#include "apps/videnc/motion.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace powerdial::apps::videnc::reference {
namespace {

int
clampi(int v, int lo, int hi)
{
    return std::max(lo, std::min(hi, v));
}

/** Integer-pel plane access with border clamping. */
double
pixelAt(const workload::Frame &ref, int x, int y)
{
    x = clampi(x, 0, ref.width - 1);
    y = clampi(y, 0, ref.height - 1);
    return static_cast<double>(ref.at(x, y));
}

} // namespace

double
samplePlane(const workload::Frame &ref, int qx, int qy)
{
    const int ix = qx >> 2;
    const int iy = qy >> 2;
    const double fx = static_cast<double>(qx & 3) / kSubpelScale;
    const double fy = static_cast<double>(qy & 3) / kSubpelScale;
    const double p00 = pixelAt(ref, ix, iy);
    const double p10 = pixelAt(ref, ix + 1, iy);
    const double p01 = pixelAt(ref, ix, iy + 1);
    const double p11 = pixelAt(ref, ix + 1, iy + 1);
    return (1.0 - fx) * (1.0 - fy) * p00 + fx * (1.0 - fy) * p10 +
           (1.0 - fx) * fy * p01 + fx * fy * p11;
}

std::uint64_t
blockSad(const workload::Frame &cur, int bx, int by,
         const workload::Frame &ref, MotionVector mv)
{
    double sad = 0.0;
    for (int y = 0; y < kMacroblock; ++y) {
        for (int x = 0; x < kMacroblock; ++x) {
            const double c = pixelAt(cur, bx + x, by + y);
            const double r = samplePlane(
                ref, (bx + x) * kSubpelScale + mv.x,
                (by + y) * kSubpelScale + mv.y);
            sad += std::abs(c - r);
        }
    }
    return static_cast<std::uint64_t>(sad);
}

MotionResult
searchMotion(const workload::Frame &cur, int bx, int by,
             const std::vector<workload::Frame> &references,
             const SearchParams &params)
{
    if (references.empty())
        throw std::invalid_argument("searchMotion: no reference frames");
    if (params.merange < 1 || params.refs < 1)
        throw std::invalid_argument("searchMotion: bad search params");

    constexpr std::uint64_t kSadOps = kMacroblock * kMacroblock;

    MotionResult best{};
    best.sad = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t work = 0;

    const int nrefs =
        std::min<int>(params.refs, static_cast<int>(references.size()));
    for (int r = 0; r < nrefs; ++r) {
        const auto &ref = references[static_cast<std::size_t>(r)];

        // Integer-pel diamond search from (0, 0), radius <= merange.
        MotionVector center{0, 0};
        std::uint64_t center_sad =
            reference::blockSad(cur, bx, by, ref, center);
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
                    reference::blockSad(cur, bx, by, ref, cand);
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
                    reference::blockSad(cur, bx, by, ref, cand);
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

std::vector<double>
predictBlock(const workload::Frame &ref, int bx, int by, MotionVector mv)
{
    std::vector<double> pred(kMacroblock * kMacroblock);
    for (int y = 0; y < kMacroblock; ++y) {
        for (int x = 0; x < kMacroblock; ++x) {
            pred[static_cast<std::size_t>(y) * kMacroblock + x] =
                samplePlane(ref, (bx + x) * kSubpelScale + mv.x,
                            (by + y) * kSubpelScale + mv.y);
        }
    }
    return pred;
}

} // namespace powerdial::apps::videnc::reference
