/**
 * @file
 * The block video encoder: motion-compensated prediction + transform
 * residual coding + in-loop reconstruction.
 *
 * Per frame, for each 16x16 macroblock: motion-search the reconstructed
 * reference frames (like any closed-loop encoder), predict, transform
 * and quantise the residual as four 8x8 DCT blocks, estimate the coded
 * bits, reconstruct, and track PSNR. Frame 0 is coded intra against a
 * flat predictor.
 *
 * The motion search reads padded planes (see PaddedPlane): the encoder
 * pads each reconstructed reference once, when it enters the reference
 * list, with the border the widest search so far needs, and re-pads
 * the list only when a search needs a wider one.
 */
#ifndef POWERDIAL_APPS_VIDENC_ENCODER_H
#define POWERDIAL_APPS_VIDENC_ENCODER_H

#include <cstdint>
#include <deque>
#include <vector>

#include "apps/videnc/dct.h"
#include "apps/videnc/motion.h"

namespace powerdial::apps::videnc {

/** Encoder configuration beyond the dynamic knobs. */
struct EncoderConfig
{
    double qstep = 8.0;       //!< Quantisation step (rate/quality point).
    std::size_t max_refs = 5; //!< Reference frames kept in the DPB.
};

/** Result of encoding one frame. */
struct FrameStats
{
    std::uint64_t bits = 0;     //!< Estimated coded bits.
    double psnr_db = 0.0;       //!< Reconstruction PSNR vs the source.
    std::uint64_t work_ops = 0; //!< Arithmetic operations spent.
};

/** A stateful single-pass encoder. */
class Encoder
{
  public:
    explicit Encoder(const EncoderConfig &config = {});

    /** Reset all encoder state (start of a new clip). */
    void reset();

    /**
     * Encode @p frame with the given motion-search effort and return
     * its statistics. Maintains the reconstructed reference list.
     */
    FrameStats encodeFrame(const workload::Frame &frame,
                           const SearchParams &effort);

    /** Reconstructed reference frames, most recent first. */
    const std::deque<workload::Frame> &references() const { return refs_; }

  private:
    EncoderConfig config_;
    std::deque<workload::Frame> refs_;
    /** refs_ padded for the motion search, same order. */
    std::vector<PaddedPlane> padded_refs_;
    /** The reference border: searchBorder of the widest search since
     *  the last reset. */
    int border_ = 0;
    /** The frame being encoded, padded to whole macroblocks. */
    PaddedPlane cur_;
};

} // namespace powerdial::apps::videnc

#endif // POWERDIAL_APPS_VIDENC_ENCODER_H
