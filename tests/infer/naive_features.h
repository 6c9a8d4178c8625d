// The map-based feature extraction the fused extractor replaced,
// preserved as the reference oracle for FeaturePipeline::extract_into
// and the compiled analysis path:
//
//   labeled_walks (DBL, then LBL) -> per-window pack_gram counting into
//   an unordered_map per walk -> map TF-IDF against the vocabulary ->
//   the trained networks evaluated layer by layer (reference_forward),
//   with the detector's standardized-residual score and the
//   classifiers' softmax vote written out here.
//
// Nothing in it calls the library's gram counters, any Sequential or
// Layer inference method, or the AeDetector / FamilyClassifier scoring
// methods: those are what this oracle checks. reference_forward uses
// only the two raw kernels math::matmul and nn::conv1d_infer_into,
// which blocked_gemm_test pins to the naive loops in naive_kernels.h;
// the bias add and the ReLU, Sigmoid and max-pool loops are written out
// here.
//
// tests/infer/frozen_identity_test and tests/frontend/end_to_end_test
// pin the library's verdicts to reference_verdict at 0 ulp, and
// bench/perf_infer times these functions as its before-side.
//
// Do not "improve" this file — its value is being the slow, obviously
// correct formulation. TF-IDF here is computed independently of
// Vocabulary::tfidf_into, with the same float operations in the same
// order per slot, so the two agree bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cfg/labeling.h"
#include "cfg/labeling_cache.h"
#include "features/ngram.h"
#include "features/pipeline.h"
#include "features/random_walk.h"
#include "features/vocabulary.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "soteria/system.h"

namespace soteria::features {

/// Per-window pack_gram + map counting: the oracle for the rolling
/// counters (FlatGramCounter, count_into_vocab).
inline void count_grams_reference(std::span<const cfg::Label> walk,
                                  std::span<const std::size_t> sizes,
                                  GramCounts& counts) {
  for (std::size_t n : sizes) {
    if (n == 0 || n > kMaxGramLength) {
      throw std::invalid_argument("count_grams: gram size " +
                                  std::to_string(n) + " outside [1, " +
                                  std::to_string(kMaxGramLength) + "]");
    }
    if (walk.size() < n) continue;
    for (std::size_t i = 0; i + n <= walk.size(); ++i) {
      counts[pack_gram(walk.subspan(i, n))] += 1;
    }
  }
}

/// TF-IDF of one gram map against `vocab`: tf = count / total over all
/// grams (in vocabulary or not), times the float-narrowed IDF, then
/// optional L2 normalization.
inline std::vector<float> tfidf_reference(const Vocabulary& vocab,
                                          const GramCounts& counts,
                                          bool l2_normalize) {
  std::vector<float> out(vocab.size(), 0.0F);
  const std::uint64_t total = total_occurrences(counts);
  if (total == 0) return out;
  const float inv_total = 1.0F / static_cast<float>(total);
  for (const auto& [key, count] : counts) {
    const auto idx = vocab.index_of(key);
    if (!idx) continue;
    out[*idx] = (static_cast<float>(count) * inv_total) *
                static_cast<float>(vocab.idf()[*idx]);
  }
  if (l2_normalize) {
    float norm_sq = 0.0F;
    for (float x : out) norm_sq += x * x;
    if (norm_sq > 0.0F) {
      const float inv = 1.0F / std::sqrt(norm_sq);
      for (float& x : out) x *= inv;
    }
  }
  return out;
}

/// One labeling's walks -> per-walk TF-IDF rows and the pooled row.
inline void reference_labeling(const FeaturePipeline& pipeline,
                               const cfg::Cfg& cfg,
                               const std::vector<cfg::Label>& labels,
                               const Vocabulary& vocab, math::Rng& rng,
                               std::vector<std::vector<float>>& rows,
                               std::vector<float>& pooled) {
  const PipelineConfig& config = pipeline.config();
  const auto walks = labeled_walks(cfg, labels, config.walk, rng);
  // Reserved as the map-based extractor did: a walk yields several
  // hundred distinct grams, and growing through the default rehash
  // ladder costs more than the counting.
  GramCounts pooled_counts;
  pooled_counts.reserve(4096);
  for (const auto& walk : walks) {
    GramCounts counts;
    counts.reserve(2048);
    count_grams_reference(walk, config.gram_sizes, counts);
    for (const auto& [key, count] : counts) pooled_counts[key] += count;
    rows.push_back(tfidf_reference(vocab, counts, config.l2_normalize));
  }
  pooled = tfidf_reference(vocab, pooled_counts, config.l2_normalize);
}

/// FeaturePipeline::extract the map-based way: same labelings, same
/// walk draws from `rng` (all DBL walks, then all LBL walks).
inline SampleFeatures reference_extract(const FeaturePipeline& pipeline,
                                        const cfg::Cfg& cfg, math::Rng& rng) {
  const cfg::NodeLabelings labelings =
      pipeline.labeling_cache()
          ? pipeline.labeling_cache()->labels(cfg, pipeline.config().labeling)
          : cfg::label_both(cfg, pipeline.config().labeling);
  SampleFeatures features;
  reference_labeling(pipeline, cfg, labelings.dbl, pipeline.dbl_vocabulary(),
                     rng, features.dbl, features.pooled_dbl);
  reference_labeling(pipeline, cfg, labelings.lbl, pipeline.lbl_vocabulary(),
                     rng, features.lbl, features.pooled_lbl);
  return features;
}

}  // namespace soteria::features

namespace soteria::nn {

/// Inference through `model`, one layer at a time, each layer's
/// arithmetic written out (or, for the two GEMM-shaped layers, run
/// through the raw kernel the layer wraps). Dropout is the identity.
inline math::Matrix reference_forward(const Sequential& model,
                                      const math::Matrix& input) {
  if (model.layer_count() == 0) {
    throw std::logic_error("reference_forward: no layers");
  }
  math::Matrix x = input;
  for (const auto& layer : model.layers()) {
    if (const auto* dense = dynamic_cast<const Dense*>(layer.get())) {
      math::Matrix y = math::matmul(x, dense->weights());
      for (std::size_t r = 0; r < y.rows(); ++r) {
        for (std::size_t c = 0; c < y.cols(); ++c) {
          y(r, c) += dense->bias()(0, c);
        }
      }
      x = std::move(y);
    } else if (dynamic_cast<const Relu*>(layer.get()) != nullptr) {
      for (float& v : x.data()) v = v > 0.0F ? v : 0.0F;
    } else if (dynamic_cast<const Sigmoid*>(layer.get()) != nullptr) {
      for (float& v : x.data()) v = 1.0F / (1.0F + std::exp(-v));
    } else if (const auto* conv = dynamic_cast<const Conv1d*>(layer.get())) {
      math::Matrix y(x.rows(), conv->output_dimension(x.cols()));
      conv1d_infer_into(x.data().data(), y.data().data(),
                        conv->weights().data().data(),
                        conv->bias().data().data(), x.rows(),
                        conv->in_channels(), conv->in_length(),
                        conv->out_channels(), conv->kernel());
      x = std::move(y);
    } else if (const auto* pool =
                   dynamic_cast<const MaxPool1d*>(layer.get())) {
      const std::size_t len = pool->in_length();
      const std::size_t out_len = len / pool->window();
      math::Matrix y(x.rows(), pool->output_dimension(x.cols()));
      for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < pool->channels(); ++c) {
          for (std::size_t t = 0; t < out_len; ++t) {
            const std::size_t start = c * len + t * pool->window();
            float best = x(r, start);
            for (std::size_t k = 1; k < pool->window(); ++k) {
              if (x(r, start + k) > best) best = x(r, start + k);
            }
            y(r, c * out_len + t) = best;
          }
        }
      }
      x = std::move(y);
    } else if (dynamic_cast<const Dropout*>(layer.get()) == nullptr) {
      throw std::invalid_argument("reference_forward: no reference for " +
                                  layer->name());
    }
  }
  return x;
}

}  // namespace soteria::nn

namespace soteria::core {

/// The detector score of one pooled row through the reference
/// autoencoder forward pass: the RMS of the reconstruction residuals, each
/// standardized by the calibration statistics.
inline double reference_score(const AeDetector& detector,
                              const math::Matrix& pooled) {
  const math::Matrix reconstructed =
      nn::reference_forward(detector.model(), pooled);
  double acc = 0.0;
  for (std::size_t c = 0; c < pooled.cols(); ++c) {
    const double z = (static_cast<double>(reconstructed(0, c)) -
                      pooled(0, c) - detector.residual_mean()[c]) /
                     detector.residual_stddev()[c];
    acc += z * z;
  }
  return std::sqrt(acc / static_cast<double>(pooled.cols()));
}

/// One CNN's vote over per-walk vectors: softmax of the reference
/// logits, one argmax vote per row, summed probability mass.
inline void reference_vote(const nn::Sequential& model,
                           const std::vector<std::vector<float>>& vectors,
                           std::vector<std::size_t>& votes,
                           std::vector<double>& mass) {
  if (vectors.empty()) return;
  const math::Matrix probs =
      nn::softmax(nn::reference_forward(model, pack_rows(vectors)));
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    const auto row = probs.row(r);
    ++votes[static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin())];
    for (std::size_t c = 0; c < row.size(); ++c) mass[c] += row[c];
  }
}

/// A verdict through the reference networks over a given bundle:
/// most votes wins, ties go to the larger probability mass, then to the
/// lower class index.
inline Verdict reference_verdict(const SoteriaSystem& system,
                                 const features::SampleFeatures& features) {
  Verdict verdict;
  verdict.reconstruction_error =
      reference_score(system.detector(), pooled_matrix(features));
  verdict.adversarial =
      verdict.reconstruction_error > system.detector().threshold();
  std::vector<std::size_t> votes(dataset::kFamilyCount, 0);
  std::vector<double> mass(dataset::kFamilyCount, 0.0);
  reference_vote(system.classifier().dbl_model(), features.dbl, votes, mass);
  reference_vote(system.classifier().lbl_model(), features.lbl, votes, mass);
  std::size_t best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[best] ||
        (votes[c] == votes[best] && mass[c] > mass[best])) {
      best = c;
    }
  }
  verdict.predicted = dataset::family_from_index(best);
  return verdict;
}

/// SoteriaSystem::analyze the reference way: map-based extraction with
/// walks from `rng`, then the reference networks.
inline Verdict reference_analyze(const SoteriaSystem& system,
                                 const cfg::Cfg& cfg, math::Rng& rng) {
  return reference_verdict(
      system, features::reference_extract(system.pipeline(), cfg, rng));
}

}  // namespace soteria::core
