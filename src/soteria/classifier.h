// Family classifier (paper Section III-C, Figs. 6-7): two CNNs — one
// over DBL feature vectors, one over LBL — with majority voting across
// all per-walk vectors. The class with the most argmax votes wins; vote
// ties are broken by summed softmax probability.
//
// Every prediction and vote tally runs the two trained CNNs through
// nn::Sequential::infer_into. The test oracle
// (tests/infer/naive_features.h) recomputes them layer by layer and
// matches at 0 ulp.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "dataset/family.h"
#include "features/pipeline.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "nn/cnn.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace soteria::core {

/// Per-labeling training data: rows of per-walk feature vectors with
/// one class label each.
struct LabeledVectors {
  math::Matrix features;             ///< n x vocabulary-size
  std::vector<std::size_t> labels;   ///< n class indices
};

class FamilyClassifier {
 public:
  /// Trains both CNNs. `config.input_length` is overridden per model by
  /// the corresponding feature width. Throws std::invalid_argument on
  /// empty inputs, label/row mismatch, or `config.classes` other than
  /// dataset::kFamilyCount (votes are tallied per family).
  static FamilyClassifier train(const LabeledVectors& dbl,
                                const LabeledVectors& lbl,
                                const nn::CnnConfig& config,
                                const nn::TrainConfig& training,
                                double learning_rate, math::Rng& rng);

  /// Majority-vote prediction over a sample's full feature bundle.
  /// Const and safe for concurrent callers. Throws std::logic_error on
  /// an untrained classifier and std::invalid_argument on ragged or
  /// mis-sized vectors (also for vote_counts and the single-model
  /// predictions below).
  [[nodiscard]] dataset::Family predict(
      const features::SampleFeatures& features) const;

  /// Vote tally per class for diagnostics (same order as Family).
  [[nodiscard]] std::vector<std::size_t> vote_counts(
      const features::SampleFeatures& features) const;

  /// Single-model per-sample prediction: majority vote within one
  /// labeling only (used for the Table VII ablation columns).
  [[nodiscard]] dataset::Family predict_dbl_only(
      const features::SampleFeatures& features) const;
  [[nodiscard]] dataset::Family predict_lbl_only(
      const features::SampleFeatures& features) const;

  /// The vote primitive every prediction runs: adds one argmax vote per
  /// row and the row's softmax probabilities to `votes` / `mass` (both
  /// kFamilyCount long), over `dbl_walks` dbl_dim()-wide rows through
  /// the DBL CNN, then `lbl_walks` lbl_dim()-wide rows through the LBL
  /// CNN. Unchecked and obs-free; the caller guarantees a
  /// trained classifier and the row widths. Safe for concurrent
  /// callers (per-thread scratch).
  void vote(const float* dbl_rows, std::size_t dbl_walks,
            const float* lbl_rows, std::size_t lbl_walks,
            std::vector<std::size_t>& votes, std::vector<double>& mass) const;

  /// Per-walk row widths of the two CNNs (0 when untrained).
  [[nodiscard]] std::size_t dbl_dim() const noexcept {
    return trained() ? dbl_arch_.input_length : 0;
  }
  [[nodiscard]] std::size_t lbl_dim() const noexcept {
    return trained() ? lbl_arch_.input_length : 0;
  }

  [[nodiscard]] const nn::TrainReport& dbl_report() const noexcept {
    return dbl_report_;
  }
  [[nodiscard]] const nn::TrainReport& lbl_report() const noexcept {
    return lbl_report_;
  }
  /// The trained CNNs every vote runs.
  [[nodiscard]] const nn::Sequential& dbl_model() const noexcept {
    return dbl_model_;
  }
  [[nodiscard]] const nn::Sequential& lbl_model() const noexcept {
    return lbl_model_;
  }

  /// Binary (de)serialization of both CNNs. `load` throws
  /// std::runtime_error on a corrupt stream, including a stored class
  /// count other than dataset::kFamilyCount.
  void save(std::ostream& out) const;
  [[nodiscard]] static FamilyClassifier load(std::istream& in);

  /// Default-constructed untrained classifier; a placeholder until
  /// assigned from train().
  FamilyClassifier() = default;

 private:
  /// Vote tally and summed softmax mass per class.
  struct Tally {
    std::vector<std::size_t> votes;
    std::vector<double> mass;
  };

  /// The checked entry behind predict and its variants: votes over
  /// per-walk vectors, `dbl` through the DBL CNN and `lbl` through the
  /// LBL CNN.
  [[nodiscard]] Tally tally(const std::vector<std::vector<float>>& dbl,
                            const std::vector<std::vector<float>>& lbl) const;

  [[nodiscard]] bool trained() const noexcept {
    return dbl_model_.layer_count() != 0;
  }

  nn::CnnConfig dbl_arch_;  ///< architectures actually built
  nn::CnnConfig lbl_arch_;
  nn::Sequential dbl_model_;
  nn::Sequential lbl_model_;
  nn::TrainReport dbl_report_;
  nn::TrainReport lbl_report_;
};

/// The majority-vote winner: most votes, ties broken by summed softmax
/// probability, then by the lower class index.
[[nodiscard]] dataset::Family vote_winner(
    const std::vector<std::size_t>& votes, const std::vector<double>& mass);

/// Winner votes minus runner-up votes: 0 means a mass-broken tie.
[[nodiscard]] std::size_t vote_margin(const std::vector<std::size_t>& votes);

/// Packs per-walk vectors into a matrix (rows = vectors). Throws
/// std::invalid_argument on ragged input.
[[nodiscard]] math::Matrix pack_rows(
    const std::vector<std::vector<float>>& vectors);

}  // namespace soteria::core
