#include "soteria/frozen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dataset/family.h"

namespace soteria::core {

namespace {

/// Grow-only per-thread scratch for the compiled networks.
struct Workspace {
  std::vector<float> recon;  ///< detector reconstruction
  std::vector<float> probs;  ///< logits -> softmax in place
  nn::FrozenNet::Scratch detector_scratch;
  nn::FrozenNet::Scratch dbl_scratch;
  nn::FrozenNet::Scratch lbl_scratch;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Softmax + argmax voting over `n` rows of `net`: the frozen twin of
/// FamilyClassifier::accumulate.
void accumulate(const nn::FrozenNet& net, const float* rows, std::size_t n,
                nn::FrozenNet::Scratch& scratch, std::vector<float>& probs,
                std::vector<std::size_t>& votes, std::vector<double>& mass) {
  if (n == 0) return;
  const std::size_t classes = net.output_dim();
  probs.resize(n * classes);
  net.infer_into(rows, n, probs.data(), scratch);
  for (std::size_t r = 0; r < n; ++r) {
    float* row = probs.data() + r * classes;
    // nn::softmax's row loop verbatim: float exp in iteration order,
    // double sum, one float reciprocal.
    const float max = *std::max_element(row, row + classes);
    double sum = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      row[c] = std::exp(row[c] - max);
      sum += row[c];
    }
    const auto inv = static_cast<float>(1.0 / sum);
    for (std::size_t c = 0; c < classes; ++c) row[c] *= inv;
    const auto best = static_cast<std::size_t>(
        std::max_element(row, row + classes) - row);
    ++votes[best];
    for (std::size_t c = 0; c < classes; ++c) mass[c] += row[c];
  }
}

}  // namespace

std::shared_ptr<const FrozenModel> FrozenModel::compile(
    const AeDetector& detector, const FamilyClassifier& classifier,
    std::size_t dbl_dim, std::size_t lbl_dim) {
  if (detector.residual_stddev().empty()) {
    throw std::invalid_argument("FrozenModel: detector not calibrated");
  }
  if (detector.residual_mean().size() != dbl_dim + lbl_dim ||
      detector.residual_stddev().size() != dbl_dim + lbl_dim) {
    throw std::invalid_argument(
        "FrozenModel: detector statistics do not match the feature width");
  }
  std::shared_ptr<FrozenModel> model(new FrozenModel());
  model->residual_mean_ = detector.residual_mean();
  model->residual_stddev_ = detector.residual_stddev();
  model->detector_net_ =
      nn::FrozenNet::compile(detector.model(), dbl_dim + lbl_dim);
  if (model->detector_net_.output_dim() != dbl_dim + lbl_dim) {
    throw std::invalid_argument(
        "FrozenModel: detector does not reconstruct its input width");
  }
  model->dbl_net_ = nn::FrozenNet::compile(classifier.dbl_model(), dbl_dim);
  model->lbl_net_ = nn::FrozenNet::compile(classifier.lbl_model(), lbl_dim);
  return model;
}

double FrozenModel::detector_score(const float* pooled) const {
  Workspace& ws = workspace();
  ws.recon.resize(detector_net_.output_dim());
  detector_net_.infer_into(pooled, 1, ws.recon.data(), ws.detector_scratch);
  // AeDetector::scores' standardized-residual loop on the one pooled
  // row, in double exactly as written there.
  const std::size_t dim = residual_stddev_.size();  // dbl_dim + lbl_dim
  double acc = 0.0;
  for (std::size_t c = 0; c < dim; ++c) {
    const double z = (static_cast<double>(ws.recon[c]) - pooled[c] -
                      residual_mean_[c]) /
                     residual_stddev_[c];
    acc += z * z;
  }
  // sample_error is math::mean over the single score: score / 1.0.
  return std::sqrt(acc / static_cast<double>(dim)) / 1.0;
}

void FrozenModel::vote(const float* dbl_rows, std::size_t dbl_walks,
                       const float* lbl_rows, std::size_t lbl_walks,
                       std::vector<std::size_t>& votes,
                       std::vector<double>& mass) const {
  Workspace& ws = workspace();
  accumulate(dbl_net_, dbl_rows, dbl_walks, ws.dbl_scratch, ws.probs, votes,
             mass);
  accumulate(lbl_net_, lbl_rows, lbl_walks, ws.lbl_scratch, ws.probs, votes,
             mass);
}

}  // namespace soteria::core
