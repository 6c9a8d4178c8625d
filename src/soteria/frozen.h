// FrozenModel: the trained detector and classifier compiled into
// nn::FrozenNet op lists, plus the detector's residual statistics.
//
// SoteriaSystem builds one at train() and load() and runs every
// analysis through it. The networks score the flat rows the fused
// extractor writes (features::FeatureRows) in place, through per-thread
// workspaces, instead of materializing a Matrix per layer. Every
// floating-point operation happens in the same order as the
// interpreted AeDetector / FamilyClassifier forward passes, so scores
// are bit-identical to them (see tests/infer/frozen_identity_test).
//
// All state is immutable after compile, so one instance may be shared
// freely across threads. The detector threshold is not part of it: the
// system reads it from the live detector, so detector().set_alpha()
// takes effect without recompiling.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/frozen.h"
#include "soteria/classifier.h"
#include "soteria/detector.h"

namespace soteria::core {

class FrozenModel {
 public:
  /// Compiles the calibrated detector and trained classifier for
  /// `dbl_dim`- and `lbl_dim`-wide feature rows. Throws
  /// std::invalid_argument for an uncalibrated detector or a network
  /// layer nn::FrozenNet cannot compile.
  [[nodiscard]] static std::shared_ptr<const FrozenModel> compile(
      const AeDetector& detector, const FamilyClassifier& classifier,
      std::size_t dbl_dim, std::size_t lbl_dim);

  /// AeDetector::sample_error over one pooled row of
  /// dbl_dim() + lbl_dim() floats: the RMS of the standardized
  /// reconstruction residuals.
  [[nodiscard]] double detector_score(const float* pooled) const;

  /// FamilyClassifier's vote over per-walk rows (DBL model first, then
  /// LBL): adds one argmax vote per row to `votes` and the row's
  /// softmax probabilities to `mass`, both kFamilyCount long.
  void vote(const float* dbl_rows, std::size_t dbl_walks,
            const float* lbl_rows, std::size_t lbl_walks,
            std::vector<std::size_t>& votes, std::vector<double>& mass) const;

  [[nodiscard]] std::size_t dbl_dim() const noexcept {
    return dbl_net_.input_dim();
  }
  [[nodiscard]] std::size_t lbl_dim() const noexcept {
    return lbl_net_.input_dim();
  }

 private:
  FrozenModel() = default;

  nn::FrozenNet detector_net_;
  std::vector<double> residual_mean_;
  std::vector<double> residual_stddev_;
  nn::FrozenNet dbl_net_;
  nn::FrozenNet lbl_net_;
};

}  // namespace soteria::core
