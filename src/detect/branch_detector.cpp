#include "detect/branch_detector.hpp"

#include <algorithm>
#include <stdexcept>

#include "detect/nms.hpp"
#include "detect/scan_scratch.hpp"

namespace eco::detect {

BranchDetector::BranchDetector(
    BranchConfig config,
    std::vector<std::vector<ClassPrototype>> prototypes_per_input)
    : config_(std::move(config)), rpn_(config_.rpn) {
  if (prototypes_per_input.size() != config_.input_count) {
    throw std::invalid_argument("BranchDetector '" + config_.name +
                                "': prototype arity mismatch");
  }
  roi_heads_.reserve(config_.input_count);
  for (std::size_t i = 0; i < config_.input_count; ++i) {
    const RoiHeadConfig& roi_config =
        config_.roi_per_input.empty()
            ? RoiHeadConfig{}
            : config_.roi_per_input[std::min(i, config_.roi_per_input.size() - 1)];
    roi_heads_.emplace_back(roi_config, std::move(prototypes_per_input[i]));
  }
}

tensor::Tensor BranchDetector::fuse_inputs(
    const std::vector<tensor::Tensor>& grids) const {
  if (grids.size() != config_.input_count) {
    throw std::invalid_argument("BranchDetector '" + config_.name +
                                "': expected " +
                                std::to_string(config_.input_count) +
                                " grids, got " + std::to_string(grids.size()));
  }
  for (const auto& g : grids) {
    if (g.shape() != grids.front().shape()) {
      throw std::invalid_argument("BranchDetector: grid shape mismatch");
    }
  }
  if (grids.size() == 1) return grids.front();

  tensor::Tensor fused(grids.front().shape());
  switch (config_.fusion_mode) {
    case EarlyFusionMode::kMean: {
      for (const auto& g : grids) fused += g;
      fused *= 1.0f / static_cast<float>(grids.size());
      break;
    }
    case EarlyFusionMode::kMax: {
      fused = grids.front();
      for (std::size_t gi = 1; gi < grids.size(); ++gi) {
        for (std::size_t i = 0; i < fused.numel(); ++i) {
          fused[i] = std::max(fused[i], grids[gi][i]);
        }
      }
      break;
    }
  }
  return fused;
}

std::vector<Detection> BranchDetector::scan_channel(
    std::size_t channel, const tensor::Tensor& grid,
    ScanScratch* scratch) const {
  return roi_heads_.at(channel).run(grid, rpn_.propose(grid, scratch),
                                    scratch);
}

std::vector<std::vector<Detection>> BranchDetector::scan_channel_batch(
    std::size_t channel, const std::vector<const tensor::Tensor*>& grids,
    ScanScratch* scratch) const {
  if (scratch == nullptr) {
    ScanScratch local;
    return scan_channel_batch(channel, grids, &local);
  }
  std::vector<std::vector<Detection>> results;
  results.reserve(grids.size());
  for (const tensor::Tensor* grid : grids) {
    results.push_back(scan_channel(channel, *grid, scratch));
  }
  return results;
}

std::vector<Detection> BranchDetector::merge_channel_scans(
    std::vector<std::vector<Detection>> per_channel) const {
  if (per_channel.size() != config_.input_count) {
    throw std::invalid_argument("BranchDetector '" + config_.name +
                                "': merge arity mismatch");
  }
  // A single-channel branch's scan IS its detection list (no union NMS —
  // matching the pre-decomposition behaviour bitwise).
  if (per_channel.size() == 1) return std::move(per_channel.front());
  // Early fusion: per-channel detection, merged as a plain union. No
  // cross-channel confidence calibration (see header).
  std::vector<Detection> merged;
  for (std::vector<Detection>& channel : per_channel) {
    merged.insert(merged.end(), std::make_move_iterator(channel.begin()),
                  std::make_move_iterator(channel.end()));
  }
  return nms(std::move(merged), config_.channel_merge_iou,
             /*class_aware=*/false);
}

bool BranchDetector::scan_equivalent(std::size_t channel,
                                     const BranchDetector& other,
                                     std::size_t other_channel) const {
  const RoiHead& ha = roi_heads_.at(channel);
  const RoiHead& hb = other.roi_heads_.at(other_channel);
  // Defaulted field-wise equality on the config structs: a field added to
  // any of them participates automatically, so the plan can never declare
  // two diverging scans interchangeable.
  return rpn_.config() == other.rpn_.config() &&
         ha.config() == hb.config() && ha.prototypes() == hb.prototypes();
}

std::vector<Detection> BranchDetector::detect(
    const std::vector<tensor::Tensor>& grids) const {
  const std::vector<const std::vector<tensor::Tensor>*> batch = {&grids};
  return std::move(detect_batch(batch).front());
}

std::vector<std::vector<Detection>> BranchDetector::detect_batch(
    const std::vector<const std::vector<tensor::Tensor>*>& grids_per_frame)
    const {
  for (const std::vector<tensor::Tensor>* grids : grids_per_frame) {
    if (grids == nullptr || grids->size() != config_.input_count) {
      throw std::invalid_argument(
          "BranchDetector '" + config_.name + "': expected " +
          std::to_string(config_.input_count) + " grids, got " +
          std::to_string(grids == nullptr ? 0 : grids->size()));
    }
  }
  // Scan channel-by-channel across the whole batch (one scratch per
  // channel sweep), then merge per frame. Each (frame, channel) pair runs
  // one propose + ROI pass on its own grid.
  std::vector<std::vector<std::vector<Detection>>> scans(
      grids_per_frame.size());
  for (auto& frame_scans : scans) frame_scans.resize(config_.input_count);
  std::vector<const tensor::Tensor*> channel_grids(grids_per_frame.size());
  for (std::size_t c = 0; c < config_.input_count; ++c) {
    for (std::size_t f = 0; f < grids_per_frame.size(); ++f) {
      channel_grids[f] = &(*grids_per_frame[f])[c];
    }
    std::vector<std::vector<Detection>> channel_results =
        scan_channel_batch(c, channel_grids);
    for (std::size_t f = 0; f < grids_per_frame.size(); ++f) {
      scans[f][c] = std::move(channel_results[f]);
    }
  }
  std::vector<std::vector<Detection>> results;
  results.reserve(grids_per_frame.size());
  for (auto& frame_scans : scans) {
    results.push_back(merge_channel_scans(std::move(frame_scans)));
  }
  return results;
}

}  // namespace eco::detect
