#include "soteria/classifier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "io/binary_io.h"
#include "nn/optimizer.h"
#include "obs/trace.h"

namespace soteria::core {

math::Matrix pack_rows(const std::vector<std::vector<float>>& vectors) {
  if (vectors.empty()) {
    throw std::invalid_argument("pack_rows: no vectors");
  }
  const std::size_t width = vectors.front().size();
  math::Matrix m(vectors.size(), width);
  for (std::size_t r = 0; r < vectors.size(); ++r) {
    if (vectors[r].size() != width) {
      throw std::invalid_argument("pack_rows: ragged vector widths");
    }
    std::copy(vectors[r].begin(), vectors[r].end(), m.row(r).begin());
  }
  return m;
}

namespace {

nn::Sequential train_one(const LabeledVectors& data,
                         const nn::CnnConfig& config,
                         const nn::TrainConfig& training,
                         double learning_rate, math::Rng& rng,
                         nn::TrainReport& report, nn::CnnConfig& arch_out) {
  if (data.features.rows() == 0) {
    throw std::invalid_argument("FamilyClassifier: empty training data");
  }
  if (data.features.rows() != data.labels.size()) {
    throw std::invalid_argument(
        "FamilyClassifier: feature/label count mismatch");
  }
  nn::CnnConfig arch = config;
  arch.input_length = data.features.cols();
  arch_out = arch;
  nn::Sequential model = nn::build_cnn(arch, rng);
  nn::Adam optimizer(learning_rate);
  report = nn::train_classifier(model, data.features, data.labels,
                                optimizer, training, rng);
  return model;
}

void save_cnn_arch(std::ostream& out, const nn::CnnConfig& arch) {
  io::write_scalar<std::uint64_t>(out, arch.input_length);
  io::write_scalar<std::uint64_t>(out, arch.classes);
  io::write_scalar<std::uint64_t>(out, arch.filters);
  io::write_scalar<std::uint64_t>(out, arch.kernel);
  io::write_scalar<std::uint64_t>(out, arch.dense_units);
  io::write_scalar(out, arch.conv_dropout);
  io::write_scalar(out, arch.dense_dropout);
}

nn::CnnConfig load_cnn_arch(std::istream& in) {
  nn::CnnConfig arch;
  arch.input_length =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.classes = static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  if (arch.classes != dataset::kFamilyCount) {
    throw std::runtime_error("FamilyClassifier::load: " +
                             std::to_string(arch.classes) +
                             " classes, expected one per family");
  }
  arch.filters = static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.kernel = static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.dense_units =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.conv_dropout = io::read_scalar<double>(in);
  arch.dense_dropout = io::read_scalar<double>(in);
  return arch;
}

/// Grow-only per-thread scratch for the CNNs.
struct Workspace {
  std::vector<float> probs;  ///< logits -> softmax in place
  nn::Sequential::Scratch dbl_scratch;
  nn::Sequential::Scratch lbl_scratch;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Softmax + argmax voting over `n` rows of `arch`'s `model`.
void accumulate(const nn::Sequential& model, const nn::CnnConfig& arch,
                const float* rows, std::size_t n,
                nn::Sequential::Scratch& scratch, std::vector<float>& probs,
                std::vector<std::size_t>& votes, std::vector<double>& mass) {
  if (n == 0) return;
  const std::size_t classes = arch.classes;
  probs.resize(n * classes);
  model.infer_into(rows, n, arch.input_length, probs.data(), scratch);
  for (std::size_t r = 0; r < n; ++r) {
    float* row = probs.data() + r * classes;
    // nn::softmax's row loop: float exp in iteration order, double sum,
    // one float reciprocal.
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

/// A bundle's per-walk vectors as `width`-wide rows (none when empty).
math::Matrix packed_rows(const std::vector<std::vector<float>>& vectors,
                         std::size_t width) {
  if (vectors.empty()) return math::Matrix(0, width);
  math::Matrix rows = pack_rows(vectors);
  if (rows.cols() != width) {
    throw std::invalid_argument("FamilyClassifier: vector width " +
                                std::to_string(rows.cols()) + " != " +
                                std::to_string(width));
  }
  return rows;
}

}  // namespace

FamilyClassifier FamilyClassifier::train(const LabeledVectors& dbl,
                                         const LabeledVectors& lbl,
                                         const nn::CnnConfig& config,
                                         const nn::TrainConfig& training,
                                         double learning_rate,
                                         math::Rng& rng) {
  if (config.classes != dataset::kFamilyCount) {
    throw std::invalid_argument("FamilyClassifier: " +
                                std::to_string(config.classes) +
                                " classes, expected one per family");
  }
  const obs::Span span("classifier.train");
  FamilyClassifier classifier;
  classifier.dbl_model_ =
      train_one(dbl, config, training, learning_rate, rng,
                classifier.dbl_report_, classifier.dbl_arch_);
  classifier.lbl_model_ =
      train_one(lbl, config, training, learning_rate, rng,
                classifier.lbl_report_, classifier.lbl_arch_);
  return classifier;
}

void FamilyClassifier::save(std::ostream& out) const {
  save_cnn_arch(out, dbl_arch_);
  save_cnn_arch(out, lbl_arch_);
  dbl_model_.save_parameters(out);
  lbl_model_.save_parameters(out);
}

FamilyClassifier FamilyClassifier::load(std::istream& in) {
  FamilyClassifier classifier;
  classifier.dbl_arch_ = load_cnn_arch(in);
  classifier.lbl_arch_ = load_cnn_arch(in);
  math::Rng scratch(0);  // weights are overwritten by load_parameters
  classifier.dbl_model_ = nn::build_cnn(classifier.dbl_arch_, scratch);
  classifier.lbl_model_ = nn::build_cnn(classifier.lbl_arch_, scratch);
  classifier.dbl_model_.load_parameters(in);
  classifier.lbl_model_.load_parameters(in);
  return classifier;
}

void FamilyClassifier::vote(const float* dbl_rows, std::size_t dbl_walks,
                            const float* lbl_rows, std::size_t lbl_walks,
                            std::vector<std::size_t>& votes,
                            std::vector<double>& mass) const {
  Workspace& ws = workspace();
  accumulate(dbl_model_, dbl_arch_, dbl_rows, dbl_walks, ws.dbl_scratch,
             ws.probs, votes, mass);
  accumulate(lbl_model_, lbl_arch_, lbl_rows, lbl_walks, ws.lbl_scratch,
             ws.probs, votes, mass);
}

FamilyClassifier::Tally FamilyClassifier::tally(
    const std::vector<std::vector<float>>& dbl,
    const std::vector<std::vector<float>>& lbl) const {
  if (!trained()) {
    throw std::logic_error("FamilyClassifier: not trained");
  }
  const math::Matrix dbl_rows = packed_rows(dbl, dbl_dim());
  const math::Matrix lbl_rows = packed_rows(lbl, lbl_dim());
  Tally result{std::vector<std::size_t>(dataset::kFamilyCount, 0),
               std::vector<double>(dataset::kFamilyCount, 0.0)};
  vote(dbl_rows.data().data(), dbl_rows.rows(), lbl_rows.data().data(),
       lbl_rows.rows(), result.votes, result.mass);
  return result;
}

std::vector<std::size_t> FamilyClassifier::vote_counts(
    const features::SampleFeatures& features) const {
  return tally(features.dbl, features.lbl).votes;
}

dataset::Family vote_winner(const std::vector<std::size_t>& votes,
                            const std::vector<double>& mass) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[best] ||
        (votes[c] == votes[best] && mass[c] > mass[best])) {
      best = c;
    }
  }
  return dataset::family_from_index(best);
}

std::size_t vote_margin(const std::vector<std::size_t>& votes) {
  std::size_t top = 0;
  std::size_t second = 0;
  for (const std::size_t v : votes) {
    if (v > top) {
      second = top;
      top = v;
    } else if (v > second) {
      second = v;
    }
  }
  return top - second;
}

dataset::Family FamilyClassifier::predict(
    const features::SampleFeatures& features) const {
  const obs::Span span("classifier.predict");
  const Tally result = tally(features.dbl, features.lbl);
  obs::registry().counter_add("soteria.classifier.predictions");
  obs::registry().record("soteria.classifier.vote_margin",
                         static_cast<double>(vote_margin(result.votes)));
  return vote_winner(result.votes, result.mass);
}

dataset::Family FamilyClassifier::predict_dbl_only(
    const features::SampleFeatures& features) const {
  const Tally result = tally(features.dbl, {});
  return vote_winner(result.votes, result.mass);
}

dataset::Family FamilyClassifier::predict_lbl_only(
    const features::SampleFeatures& features) const {
  const Tally result = tally({}, features.lbl);
  return vote_winner(result.votes, result.mass);
}

}  // namespace soteria::core
