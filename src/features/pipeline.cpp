#include "features/pipeline.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cfg/labeling_cache.h"
#include "io/binary_io.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "soteria/error.h"
#include "store/feature_store.h"

namespace soteria::features {

void validate(const PipelineConfig& config) {
  validate(config.walk);
  if (config.top_k == 0) {
    throw std::invalid_argument("PipelineConfig: top_k must be > 0");
  }
  if (config.gram_sizes.empty()) {
    throw std::invalid_argument("PipelineConfig: no gram sizes");
  }
  for (std::size_t n : config.gram_sizes) {
    if (n == 0 || n > kMaxGramLength) {
      throw std::invalid_argument("PipelineConfig: gram size " +
                                  std::to_string(n) + " outside [1, " +
                                  std::to_string(kMaxGramLength) + "]");
    }
  }
  cfg::validate(config.labeling);
  if (config.frontend.empty()) {
    throw std::invalid_argument("PipelineConfig: frontend name is empty");
  }
}

std::vector<float> SampleFeatures::pooled_combined() const {
  std::vector<float> vec = pooled_dbl;
  vec.insert(vec.end(), pooled_lbl.begin(), pooled_lbl.end());
  return vec;
}

namespace {

/// Packs per-walk vectors of width `width` back to back.
void pack_flat(const std::vector<std::vector<float>>& vecs, std::size_t width,
               std::vector<float>& flat) {
  for (const auto& v : vecs) {
    if (v.size() != width) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "FeatureRows: per-walk row width differs from the "
                        "pooled row");
    }
  }
  flat.resize(vecs.size() * width);
  for (std::size_t w = 0; w < vecs.size(); ++w) {
    std::copy(vecs[w].begin(), vecs[w].end(), flat.begin() + w * width);
  }
}

/// Splits flat rows back into one vector per walk.
std::vector<std::vector<float>> unpack_flat(const std::vector<float>& flat,
                                            std::size_t walks,
                                            std::size_t width) {
  std::vector<std::vector<float>> vecs(walks);
  for (std::size_t w = 0; w < walks; ++w) {
    vecs[w].assign(flat.begin() + w * width, flat.begin() + (w + 1) * width);
  }
  return vecs;
}

}  // namespace

void FeatureRows::assign(const SampleFeatures& features) {
  if (features.pooled_dbl.empty() && features.pooled_lbl.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "FeatureRows: empty feature bundle");
  }
  dbl_walks = features.dbl.size();
  lbl_walks = features.lbl.size();
  dbl_dim = features.pooled_dbl.size();
  lbl_dim = features.pooled_lbl.size();
  pack_flat(features.dbl, dbl_dim, dbl);
  pack_flat(features.lbl, lbl_dim, lbl);
  pooled = features.pooled_combined();
}

SampleFeatures FeatureRows::to_features() const {
  SampleFeatures features;
  features.dbl = unpack_flat(dbl, dbl_walks, dbl_dim);
  features.lbl = unpack_flat(lbl, lbl_walks, lbl_dim);
  const auto split = pooled.begin() + static_cast<std::ptrdiff_t>(dbl_dim);
  features.pooled_dbl.assign(pooled.begin(), split);
  features.pooled_lbl.assign(split, pooled.end());
  return features;
}

cfg::NodeLabelings FeaturePipeline::labelings_for(
    const cfg::Cfg& cfg) const {
  if (labeling_cache_) return labeling_cache_->labels(cfg, config_.labeling);
  return cfg::label_both(cfg, config_.labeling);
}

GramCounts FeaturePipeline::gram_counts_for_labels(
    const cfg::Cfg& cfg, const std::vector<cfg::Label>& labels,
    math::Rng& rng) const {
  const auto walks = labeled_walks(cfg, labels, config_.walk, rng);
  // Counting goes through the open-addressing counter (integer
  // accumulation, so the resulting map is identical to the reference);
  // fit() has no fitted vocabulary yet, so the dense count_into_vocab
  // path is not available here.
  FlatGramCounter counter(1024);
  for (const auto& walk : walks) {
    counter.count_walk(walk, config_.gram_sizes);
  }
  return counter.to_counts();
}

GramCounts FeaturePipeline::gram_counts(const cfg::Cfg& cfg,
                                        cfg::LabelingMethod method,
                                        math::Rng& rng) const {
  const auto labelings = labelings_for(cfg);
  return gram_counts_for_labels(cfg,
                                method == cfg::LabelingMethod::kDensity
                                    ? labelings.dbl
                                    : labelings.lbl,
                                rng);
}

FeaturePipeline FeaturePipeline::fit(
    std::span<const cfg::Cfg> training, const PipelineConfig& config,
    math::Rng& rng, std::size_t num_threads,
    std::shared_ptr<cfg::LabelingCache> labeling_cache) {
  validate(config);
  if (training.empty()) {
    throw std::invalid_argument("FeaturePipeline::fit: empty corpus");
  }
  const obs::Span span("pipeline.fit");
  FeaturePipeline pipeline;
  pipeline.config_ = config;
  pipeline.labeling_cache_ = std::move(labeling_cache);

  // Each sample's walks draw from children of `rng` keyed by sample
  // index (DBL on even streams, LBL on odd), so the per-sample local
  // gram maps are identical no matter which thread computes them; the
  // vocabulary builder then merges the local maps into corpus totals.
  // Both labelings derive from one shared node_ranks computation (and
  // populate the labeling cache for the extraction that follows).
  struct LabelingCounts {
    GramCounts dbl;
    GramCounts lbl;
  };
  auto counts = runtime::parallel_map(
      num_threads, training.size(), [&](std::size_t i) {
        math::Rng dbl_rng = rng.child(2 * i);
        math::Rng lbl_rng = rng.child(2 * i + 1);
        const auto labelings = pipeline.labelings_for(training[i]);
        LabelingCounts sample;
        sample.dbl = pipeline.gram_counts_for_labels(
            training[i], labelings.dbl, dbl_rng);
        sample.lbl = pipeline.gram_counts_for_labels(
            training[i], labelings.lbl, lbl_rng);
        return sample;
      });

  std::vector<GramCounts> dbl_corpus;
  std::vector<GramCounts> lbl_corpus;
  dbl_corpus.reserve(training.size());
  lbl_corpus.reserve(training.size());
  for (auto& sample : counts) {
    dbl_corpus.push_back(std::move(sample.dbl));
    lbl_corpus.push_back(std::move(sample.lbl));
  }
  {
    const obs::Span vocab_span("vocab.build");
    pipeline.dbl_vocab_ = Vocabulary::build(dbl_corpus, config.top_k);
    pipeline.lbl_vocab_ = Vocabulary::build(lbl_corpus, config.top_k);
  }
  pipeline.fingerprint_ = store::fingerprint_of(pipeline);
  return pipeline;
}

namespace {

/// Draws `walks` walks of `steps` steps over `view`, consuming `rng`
/// exactly like random_walk_nodes (one draw per step from a node with
/// neighbors), and counts each walk's grams into its dense vocabulary
/// row of `counts` as it is taken. Counting consumes no randomness, so
/// fusing it into the walk changes no draw. Writes each walk's window
/// total to `totals`.
void walk_and_count(const UndirectedView& view,
                    const std::vector<cfg::Label>& labels,
                    const Vocabulary& vocab,
                    std::span<const std::size_t> gram_sizes,
                    std::size_t walks, std::size_t steps, math::Rng& rng,
                    std::vector<cfg::Label>& walk,
                    std::vector<std::uint32_t>& counts,
                    std::uint64_t* totals) {
  const std::size_t dim = vocab.size();
  obs::registry().counter_add("soteria.features.walks", walks);
  obs::registry().counter_add("soteria.features.walk_steps", walks * steps);
  counts.assign(walks * dim, 0);
  walk.reserve(steps + 1);
  for (std::size_t w = 0; w < walks; ++w) {
    walk.clear();
    graph::NodeId current = view.entry();
    walk.push_back(labels[current]);
    for (std::size_t s = 0; s < steps; ++s) {
      const auto& nbrs = view.neighbors(current);
      if (!nbrs.empty()) current = nbrs[rng.index(nbrs.size())];
      walk.push_back(labels[current]);
    }
    totals[w] = count_into_vocab(
        walk, gram_sizes, vocab.table(),
        std::span<std::uint32_t>(counts.data() + w * dim, dim));
  }
}

/// TF-IDF rows for one labeling's per-walk counts, plus the pooled row
/// (the counts of all walks summed) into `pooled_out`.
void tfidf_rows(const Vocabulary& vocab,
                const std::vector<std::uint32_t>& counts,
                const std::uint64_t* totals, std::size_t walks,
                bool l2_normalize, std::vector<std::uint32_t>& pooled_counts,
                std::vector<float>& rows, float* pooled_out) {
  const std::size_t dim = vocab.size();
  rows.resize(walks * dim);
  pooled_counts.assign(dim, 0);
  std::uint64_t pooled_total = 0;
  for (std::size_t w = 0; w < walks; ++w) {
    const std::span<const std::uint32_t> row(counts.data() + w * dim, dim);
    vocab.tfidf_into(row, totals[w],
                     std::span<float>(rows.data() + w * dim, dim),
                     l2_normalize);
    for (std::size_t i = 0; i < dim; ++i) pooled_counts[i] += row[i];
    pooled_total += totals[w];
  }
  vocab.tfidf_into(pooled_counts, pooled_total,
                   std::span<float>(pooled_out, dim), l2_normalize);
}

}  // namespace

void FeaturePipeline::extract_into(const cfg::Cfg& cfg, math::Rng& rng,
                                   FeatureRows& rows) const {
  const obs::Span span("pipeline.extract");
  const cfg::NodeLabelings labelings = labelings_for(cfg);
  // Any node can be walked, so a label table shorter than the CFG is
  // rejected up front rather than per visited node.
  if (labelings.dbl.size() < cfg.node_count() ||
      labelings.lbl.size() < cfg.node_count()) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "apply_labels: node id beyond label table");
  }
  // One adjacency view serves both labelings; the step count matches
  // labeled_walks.
  const UndirectedView view(cfg);
  const auto steps = static_cast<std::size_t>(std::llround(
      config_.walk.length_multiplier * static_cast<double>(cfg.node_count())));
  const std::size_t walks = config_.walk.walks_per_labeling;
  rows.dbl_walks = walks;
  rows.lbl_walks = walks;
  rows.dbl_dim = dbl_vocab_.size();
  rows.lbl_dim = lbl_vocab_.size();
  rows.totals.resize(2 * walks);
  {
    // DBL walks first, then LBL: the stream order every extraction of
    // this pipeline has always used.
    const obs::Span ngram_span("features.ngrams");
    walk_and_count(view, labelings.dbl, dbl_vocab_, config_.gram_sizes, walks,
                   steps, rng, rows.walk, rows.dbl_counts, rows.totals.data());
    walk_and_count(view, labelings.lbl, lbl_vocab_, config_.gram_sizes, walks,
                   steps, rng, rows.walk, rows.lbl_counts,
                   rows.totals.data() + walks);
  }
  {
    const obs::Span tfidf_span("features.tfidf");
    rows.pooled.resize(rows.dbl_dim + rows.lbl_dim);
    tfidf_rows(dbl_vocab_, rows.dbl_counts, rows.totals.data(), walks,
               config_.l2_normalize, rows.pooled_counts, rows.dbl,
               rows.pooled.data());
    tfidf_rows(lbl_vocab_, rows.lbl_counts, rows.totals.data() + walks, walks,
               config_.l2_normalize, rows.pooled_counts, rows.lbl,
               rows.pooled.data() + rows.dbl_dim);
  }
}

namespace {

/// Rows for the bundle-returning wrappers on the calling thread.
FeatureRows& scratch_rows() {
  thread_local FeatureRows rows;
  return rows;
}

}  // namespace

SampleFeatures FeaturePipeline::extract(const cfg::Cfg& cfg,
                                        math::Rng& rng) const {
  FeatureRows& rows = scratch_rows();
  extract_into(cfg, rng, rows);
  return rows.to_features();
}

void FeaturePipeline::save(std::ostream& out) const {
  io::write_scalar(out, config_.walk.length_multiplier);
  io::write_scalar<std::uint64_t>(out, config_.walk.walks_per_labeling);
  io::write_scalar<std::uint64_t>(out, config_.top_k);
  io::write_vector<std::size_t>(out, config_.gram_sizes);
  io::write_scalar<std::uint8_t>(out, config_.l2_normalize ? 1 : 0);
  // Labeling options are model state: they change the labels every
  // feature is built from, and serializing them here also folds them
  // into the pipeline fingerprint (store/fingerprint.h hashes this
  // blob), keying the feature store by centrality mode.
  io::write_scalar<std::uint64_t>(out,
                                  config_.labeling.approx_centrality_threshold);
  io::write_scalar<std::uint64_t>(out, config_.labeling.approx.pivot_count);
  io::write_scalar(out, config_.labeling.approx.epsilon);
  io::write_scalar(out, config_.labeling.approx.delta);
  io::write_scalar<std::uint64_t>(out, config_.labeling.approx.seed);
  // The frontend name is model state for the same reason: CFGs from
  // different decoders are different feature universes, and hashing the
  // name here keys the feature store by decoder.
  io::write_string(out, config_.frontend);
  dbl_vocab_.save(out);
  lbl_vocab_.save(out);
}

FeaturePipeline FeaturePipeline::load(std::istream& in) {
  FeaturePipeline pipeline;
  pipeline.config_.walk.length_multiplier = io::read_scalar<double>(in);
  pipeline.config_.walk.walks_per_labeling =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  pipeline.config_.top_k =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  pipeline.config_.gram_sizes = io::read_vector<std::size_t>(in);
  pipeline.config_.l2_normalize = io::read_scalar<std::uint8_t>(in) != 0;
  pipeline.config_.labeling.approx_centrality_threshold =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  pipeline.config_.labeling.approx.pivot_count =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  pipeline.config_.labeling.approx.epsilon = io::read_scalar<double>(in);
  pipeline.config_.labeling.approx.delta = io::read_scalar<double>(in);
  pipeline.config_.labeling.approx.seed = io::read_scalar<std::uint64_t>(in);
  pipeline.config_.frontend = io::read_string(in);
  validate(pipeline.config_);
  pipeline.dbl_vocab_ = Vocabulary::load(in);
  pipeline.lbl_vocab_ = Vocabulary::load(in);
  pipeline.fingerprint_ = store::fingerprint_of(pipeline);
  return pipeline;
}

SampleFeatures FeaturePipeline::extract_stored(
    const cfg::Cfg& cfg, const math::Rng& fresh_rng,
    store::FeatureStore* store) const {
  FeatureRows& rows = scratch_rows();
  extract_stored_into(cfg, fresh_rng, store, rows);
  return rows.to_features();
}

void FeaturePipeline::extract_stored_into(const cfg::Cfg& cfg,
                                          const math::Rng& fresh_rng,
                                          store::FeatureStore* store,
                                          FeatureRows& rows) const {
  store::FeatureStore* target =
      store != nullptr ? store : feature_store_.get();
  math::Rng rng = fresh_rng;
  if (target == nullptr) {
    extract_into(cfg, rng, rows);
    return;
  }
  // The key ties the entry to the exact extraction it replaces: the
  // CFG's content, this pipeline's fitted state, and the walk stream
  // (fresh_rng's construction seed — which fully determines the stream
  // only because the generator has never been advanced).
  const store::FeatureKey key{cfg::LabelingCache::content_hash(cfg),
                              fingerprint_.value, fresh_rng.seed()};
  if (auto cached = target->get(key)) {
    rows.assign(*cached);
    return;
  }
  extract_into(cfg, rng, rows);
  target->put(key, rows.to_features());
}

}  // namespace soteria::features
