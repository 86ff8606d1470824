/**
 * @file
 * Motion estimation: diamond search plus sub-pixel refinement.
 *
 * The analysis half of the from-scratch encoder standing in for x264
 * (paper section 4.2). The three x264 knobs map onto it directly:
 *
 *  - merange: bound on the motion search radius (diamond-search steps);
 *  - subme:   number of sub-pixel refinement rounds (half-pel, then
 *             quarter-pel, then iterative quarter-pel polishing);
 *  - ref:     number of reconstructed reference frames searched.
 *
 * x264 itself uses pattern searches rather than exhaustive search, so a
 * diamond search reproduces both the cost growth and the diminishing-
 * returns quality behaviour of the real knobs.
 *
 * The kernels read padded planes (PaddedPlane): each frame is stored
 * once with edge-replicated borders wide enough for every candidate of
 * a search, so no candidate clamps a coordinate and every candidate
 * takes one path. They are optimized but bit-exact against the
 * retained naive implementation (namespace reference), which clamps
 * each coordinate and interpolates in double precision:
 *
 *  - A replicated border holds exactly the pixel a clamped read of the
 *    frame returns.
 *  - The bilinear weights of a quarter-pel phase are k/16 for integer
 *    k (summing to 16), so every double product and partial sum the
 *    reference forms is j/16 for an integer j below 2^21 (a whole
 *    SAD is at most 256 * 255), well within a double's 53-bit
 *    significand: no operation rounds. The kernels therefore work in
 *    integers scaled by 16: a SAD S/16 and a prediction P/16 are the
 *    reference's doubles exactly, and the reference's truncation of
 *    its double SAD is floor(S / 16).
 *
 * blockSadBounded additionally abandons a candidate once its partial
 * SAD can no longer beat the caller's best (floor(S / 16) >= limit);
 * searchMotion's accept/reject decisions and all reported fields stay
 * bit-identical because a rejected candidate's exact SAD is never
 * observable. work_ops deliberately keeps counting the pixels a *full*
 * SAD visits — it is the knob-visible cost model every calibration
 * table and golden is built on, not a wall-clock measurement.
 */
#ifndef POWERDIAL_APPS_VIDENC_MOTION_H
#define POWERDIAL_APPS_VIDENC_MOTION_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload/video_source.h"

namespace powerdial::apps::videnc {

/** Macroblock edge length. */
inline constexpr int kMacroblock = 16;

/** Sub-pel precision: motion vectors are in 1/4-pel units. */
inline constexpr int kSubpelScale = 4;

/** A motion vector in quarter-pel units. */
struct MotionVector
{
    int x = 0;
    int y = 0;
};

/** Result of a motion search for one macroblock. */
struct MotionResult
{
    MotionVector mv;          //!< Best vector, quarter-pel units.
    std::size_t reference;    //!< Index of the best reference frame.
    std::uint64_t sad;        //!< SAD at the best vector.
    std::uint64_t work_ops;   //!< Pixel operations spent searching.
};

/**
 * A frame's luma plane stored with edge-replicated borders, so the
 * motion kernels read every candidate without clamping.
 *
 * The stored area is the frame extended to a whole number of
 * macroblocks and then by border() pixels on every side: its pixel
 * (x, y), for x in [-border, alignedWidth + border) and y likewise, is
 * the frame's pixel at (clamp(x, 0, width - 1), clamp(y, 0,
 * height - 1)) — exactly what a clamped read returns. A current frame
 * needs border 0 (its partial macroblocks are filled the same way); a
 * reference searched with SearchParams p needs searchBorder(p).
 */
class PaddedPlane
{
  public:
    PaddedPlane() = default;

    /** Pad @p frame (non-empty) with @p border (>= 0) pixels. */
    PaddedPlane(const workload::Frame &frame, int border)
    {
        assign(frame, border);
    }

    /** Re-pad from @p frame with @p border, reusing the storage. */
    void assign(const workload::Frame &frame, int border);

    /** Replicated border beyond the macroblock-aligned frame, pixels. */
    int border() const { return border_; }

    /** Distance between vertically adjacent pixels. */
    std::ptrdiff_t stride() const { return stride_; }

    /** True when the @p w x @p h window at (x0, y0) is stored. */
    bool
    holds(int x0, int y0, int w, int h) const
    {
        return x0 >= -border_ && y0 >= -border_ &&
               x0 + w <= stride_ - border_ && y0 + h <= rows_ - border_;
    }

    /** Address of stored pixel (x, y) (see holds). */
    const std::uint8_t *
    at(int x, int y) const
    {
        return pixels_.data() + (y + border_) * stride_ + (x + border_);
    }

  private:
    int border_ = 0;
    int stride_ = 0; //!< Stored columns.
    int rows_ = 0;   //!< Stored rows.
    std::vector<std::uint8_t> pixels_;
};

/**
 * SAD between the macroblock of @p cur at (bx, by) and the reference
 * block at quarter-pel offset @p mv. Throws std::out_of_range when
 * either window is not stored.
 */
std::uint64_t blockSad(const PaddedPlane &cur, int bx, int by,
                       const PaddedPlane &ref, MotionVector mv);

/**
 * SAD with an early-exit threshold. Contract: when the true SAD is
 * strictly below @p limit the exact value is returned; otherwise some
 * value >= @p limit is returned (the evaluation may stop early). A
 * caller that only keeps candidates with `sad < limit` therefore makes
 * bit-identical decisions to one calling blockSad. Throws like
 * blockSad.
 */
std::uint64_t blockSadBounded(const PaddedPlane &cur, int bx, int by,
                              const PaddedPlane &ref, MotionVector mv,
                              std::uint64_t limit);

/** Motion-search effort parameters (the encoder's control variables). */
struct SearchParams
{
    int merange = 16;     //!< Max search radius, integer pixels.
    int subpel_rounds = 6;//!< Sub-pel refinement rounds (0 = none).
    int refs = 5;         //!< Reference frames to search.
};

/**
 * The reference border a search with @p params needs: merange, plus
 * the sub-pel reach (the half-pel round moves at most 2 quarter-pels
 * per axis and every later round 1) rounded up to whole pixels, plus
 * the bilinear filter's one extra pixel.
 */
int searchBorder(const SearchParams &params);

/**
 * Search for the best motion vector for the macroblock at (bx, by) of
 * @p cur over @p references (most recent first), with effort bounded
 * by @p params. Throws std::invalid_argument for no references, bad
 * params, or a searched reference whose border is too narrow for the
 * search at (bx, by) (for a macroblock on the frame's grid, narrower
 * than searchBorder(params)); std::out_of_range when the macroblock
 * is not stored in @p cur.
 */
MotionResult searchMotion(const PaddedPlane &cur, int bx, int by,
                          const std::vector<PaddedPlane> &references,
                          const SearchParams &params);

/**
 * Build the motion-compensated 16x16 prediction for (bx, by) from
 * @p ref at quarter-pel vector @p mv, raster order. Throws
 * std::out_of_range when the window is not stored.
 */
std::vector<double> predictBlock(const PaddedPlane &ref, int bx, int by,
                                 MotionVector mv);

/**
 * predictBlock into a caller-owned buffer (resized to 256), so a hot
 * caller — the encoder predicts every macroblock of every frame — can
 * reuse one allocation for a whole run.
 */
void predictBlockInto(const PaddedPlane &ref, int bx, int by,
                      MotionVector mv, std::vector<double> &pred);

/**
 * Retained naive kernels (motion_ref.cc): the pre-optimization
 * sampling, SAD, search, and prediction over unpadded frames, clamping
 * every coordinate, kept verbatim as the bit-exactness oracle for the
 * differential tests and bench_roofline's "before" column.
 */
namespace reference {
/** Bilinear sample of @p ref at quarter-pel (qx, qy), clamping at
 *  the borders. */
double samplePlane(const workload::Frame &ref, int qx, int qy);
std::uint64_t blockSad(const workload::Frame &cur, int bx, int by,
                       const workload::Frame &ref, MotionVector mv);
MotionResult searchMotion(const workload::Frame &cur, int bx, int by,
                          const std::vector<workload::Frame> &references,
                          const SearchParams &params);
std::vector<double> predictBlock(const workload::Frame &ref, int bx,
                                 int by, MotionVector mv);
} // namespace reference

} // namespace powerdial::apps::videnc

#endif // POWERDIAL_APPS_VIDENC_MOTION_H
