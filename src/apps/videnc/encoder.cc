#include "apps/videnc/encoder.h"

#include <algorithm>
#include <cmath>

#include "qos/psnr.h"

namespace powerdial::apps::videnc {
namespace {

std::uint8_t
clampLuma(double v)
{
    return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

} // namespace

Encoder::Encoder(const EncoderConfig &config) : config_(config) {}

void
Encoder::reset()
{
    refs_.clear();
    padded_refs_.clear();
    border_ = 0;
}

FrameStats
Encoder::encodeFrame(const workload::Frame &frame,
                     const SearchParams &effort)
{
    FrameStats stats;
    workload::Frame recon = frame; // Shape only; pixels overwritten.

    // Widen the reference border only when this frame's search reaches
    // further than any since the reset.
    if (searchBorder(effort) > border_) {
        border_ = searchBorder(effort);
        for (std::size_t i = 0; i < refs_.size(); ++i)
            padded_refs_[i].assign(refs_[i], border_);
    }
    const bool intra = refs_.empty();
    if (!intra)
        cur_.assign(frame, 0);

    // One prediction buffer for the whole frame; every macroblock
    // overwrites all 256 entries (flat DC for intra, predictBlockInto
    // for inter), so reuse is safe and saves an allocation per block.
    std::vector<double> pred(kMacroblock * kMacroblock);

    for (int by = 0; by < frame.height; by += kMacroblock) {
        for (int bx = 0; bx < frame.width; bx += kMacroblock) {
            // Prediction.
            if (intra) {
                std::fill(pred.begin(), pred.end(), 128.0);
            } else {
                const MotionResult mr =
                    searchMotion(cur_, bx, by, padded_refs_, effort);
                stats.work_ops += mr.work_ops;
                predictBlockInto(padded_refs_[mr.reference], bx, by, mr.mv,
                                 pred);
                stats.bits += 12; // MV + reference signalling estimate.
            }

            // Residual coding: four 8x8 transform blocks.
            for (int sy = 0; sy < kMacroblock; sy += kBlock) {
                for (int sx = 0; sx < kMacroblock; sx += kBlock) {
                    ResidualBlock residual{};
                    for (int y = 0; y < kBlock; ++y) {
                        for (int x = 0; x < kBlock; ++x) {
                            const int px =
                                std::min(bx + sx + x, frame.width - 1);
                            const int py =
                                std::min(by + sy + y, frame.height - 1);
                            residual[y * kBlock + x] =
                                static_cast<double>(frame.at(px, py)) -
                                pred[static_cast<std::size_t>(sy + y) *
                                         kMacroblock + sx + x];
                        }
                    }
                    const ResidualBlock freq = forwardDct(residual);
                    const CoeffBlock q = quantize(freq, config_.qstep);
                    stats.bits += bitCost(q);
                    stats.work_ops += kDctOps;

                    const ResidualBlock rec_res =
                        inverseDct(dequantize(q, config_.qstep));
                    for (int y = 0; y < kBlock; ++y) {
                        for (int x = 0; x < kBlock; ++x) {
                            const int px = bx + sx + x;
                            const int py = by + sy + y;
                            if (px >= frame.width || py >= frame.height)
                                continue;
                            const double value =
                                pred[static_cast<std::size_t>(sy + y) *
                                         kMacroblock + sx + x] +
                                rec_res[y * kBlock + x];
                            recon.pixels[static_cast<std::size_t>(py) *
                                             frame.width + px] =
                                clampLuma(value);
                        }
                    }
                }
            }
            stats.work_ops += 64; // Per-macroblock bookkeeping.
        }
    }

    stats.psnr_db = qos::psnr(frame.pixels, recon.pixels);

    refs_.push_front(std::move(recon));
    while (refs_.size() > config_.max_refs)
        refs_.pop_back();
    if (!refs_.empty()) {
        // Pad the new reference once, into the storage of the plane
        // that just left the list (or a new one while the list grows).
        if (padded_refs_.size() < refs_.size())
            padded_refs_.emplace_back();
        std::rotate(padded_refs_.begin(), padded_refs_.end() - 1,
                    padded_refs_.end());
        padded_refs_.front().assign(refs_.front(), border_);
    }
    return stats;
}

} // namespace powerdial::apps::videnc
