// Detection loss (§3.3 of the paper): combined smooth-L1 box-regression loss
// and cross-entropy classification loss between ground truth Y and
// predictions Y-hat, following Faster R-CNN [19]. Unmatched ground truth
// (misses) and unmatched detections (false positives) carry penalties so the
// loss reflects full detection quality, not only matched pairs — this is the
// value the gate model learns to predict per configuration.
#pragma once

#include <vector>

#include "detect/box.hpp"

namespace eco::detect {

/// Loss components for one frame.
struct DetectionLoss {
  float regression = 0.0f;      // smooth-L1 over matched boxes
  float classification = 0.0f;  // cross-entropy over matched classes
  float miss_penalty = 0.0f;    // per unmatched ground truth
  float false_positive = 0.0f;  // per unmatched detection, score-weighted

  [[nodiscard]] float total() const noexcept {
    return regression + classification + miss_penalty + false_positive;
  }
};

/// Loss weighting / matching configuration.
struct LossConfig {
  /// IoU above which a detection can match a ground-truth object.
  float match_iou = 0.45f;
  /// Weight of the smooth-L1 regression term.
  float regression_weight = 1.0f;
  /// Weight of the cross-entropy classification term.
  float classification_weight = 1.0f;
  /// Loss added per missed ground-truth object.
  float miss_cost = 1.4f;
  /// Loss added per false positive, scaled by its confidence.
  float false_positive_cost = 1.0f;
  /// Normalisation: divide by max(1, #ground truth).
  bool normalize_by_gt = true;
  /// Box coordinates are divided by this scale before smooth-L1 (the paper
  /// regresses normalised coordinates).
  float coordinate_scale = 8.0f;
};

/// Greedy IoU matching (highest-score detections first). Returns for each
/// detection the matched ground-truth index or -1.
[[nodiscard]] std::vector<int> match_detections(
    const std::vector<Detection>& detections,
    const std::vector<GroundTruth>& ground_truth, float match_iou);

/// Computes the combined detection loss for one frame.
[[nodiscard]] DetectionLoss detection_loss(
    const std::vector<Detection>& detections,
    const std::vector<GroundTruth>& ground_truth, const LossConfig& config = {});

}  // namespace eco::detect
