#include "features/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "graph/generators.h"
#include "soteria/error.h"

namespace soteria::features {
namespace {

std::vector<cfg::Cfg> small_corpus(std::size_t n, math::Rng& rng) {
  std::vector<cfg::Cfg> corpus;
  for (std::size_t i = 0; i < n; ++i) {
    corpus.emplace_back(
        graph::random_connected_dag_plus(10 + rng.index(20), 0.08, rng), 0);
  }
  return corpus;
}

PipelineConfig tiny_config() {
  PipelineConfig config;
  config.top_k = 40;
  config.walk.walks_per_labeling = 3;
  return config;
}

TEST(PipelineConfig, Validation) {
  EXPECT_NO_THROW(validate(PipelineConfig{}));
  PipelineConfig no_topk;
  no_topk.top_k = 0;
  EXPECT_THROW(validate(no_topk), std::invalid_argument);
  PipelineConfig no_grams;
  no_grams.gram_sizes.clear();
  EXPECT_THROW(validate(no_grams), std::invalid_argument);
  PipelineConfig big_gram;
  big_gram.gram_sizes = {5};
  EXPECT_THROW(validate(big_gram), std::invalid_argument);
  PipelineConfig bad_walk;
  bad_walk.walk.walks_per_labeling = 0;
  EXPECT_THROW(validate(bad_walk), std::invalid_argument);
}

TEST(Pipeline, FitRequiresCorpus) {
  math::Rng rng(1);
  EXPECT_THROW((void)FeaturePipeline::fit({}, tiny_config(), rng),
               std::invalid_argument);
}

TEST(Pipeline, ExtractShapesMatchConfig) {
  math::Rng rng(2);
  const auto corpus = small_corpus(8, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  EXPECT_LE(pipeline.dbl_vocabulary().size(), 40U);
  EXPECT_GT(pipeline.dbl_vocabulary().size(), 0U);
  EXPECT_EQ(pipeline.combined_dimension(),
            pipeline.dbl_vocabulary().size() +
                pipeline.lbl_vocabulary().size());

  const auto features = pipeline.extract(corpus[0], rng);
  EXPECT_EQ(features.dbl.size(), 3U);
  EXPECT_EQ(features.lbl.size(), 3U);
  EXPECT_EQ(features.dbl[0].size(), pipeline.dbl_vocabulary().size());
  EXPECT_EQ(features.pooled_dbl.size(), pipeline.dbl_vocabulary().size());
  EXPECT_EQ(features.pooled_combined().size(),
            pipeline.combined_dimension());
  EXPECT_EQ(features.dbl[0].size() + features.lbl[0].size(),
            pipeline.combined_dimension());
}

TEST(Pipeline, CombinedConcatenatesInOrder) {
  math::Rng rng(3);
  const auto corpus = small_corpus(5, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto features = pipeline.extract(corpus[1], rng);
  const auto combined = features.pooled_combined();
  ASSERT_EQ(combined.size(),
            features.pooled_dbl.size() + features.pooled_lbl.size());
  for (std::size_t i = 0; i < features.pooled_dbl.size(); ++i) {
    EXPECT_FLOAT_EQ(combined[i], features.pooled_dbl[i]);
  }
  for (std::size_t i = 0; i < features.pooled_lbl.size(); ++i) {
    EXPECT_FLOAT_EQ(combined[features.pooled_dbl.size() + i],
                    features.pooled_lbl[i]);
  }
}

TEST(Pipeline, ExtractionIsDeterministicGivenRng) {
  math::Rng rng(4);
  const auto corpus = small_corpus(5, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  math::Rng a(11);
  math::Rng b(11);
  const auto fa = pipeline.extract(corpus[0], a);
  const auto fb = pipeline.extract(corpus[0], b);
  EXPECT_EQ(fa.dbl, fb.dbl);
  EXPECT_EQ(fa.pooled_lbl, fb.pooled_lbl);
}

TEST(Pipeline, RandomizationPropertyFreshWalksDiffer) {
  // The paper's defense: every extraction run draws fresh walks, so the
  // concrete vectors differ run to run (while remaining close in
  // distribution).
  math::Rng rng(5);
  const auto corpus = small_corpus(5, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto f1 = pipeline.extract(corpus[0], rng);
  const auto f2 = pipeline.extract(corpus[0], rng);
  EXPECT_NE(f1.dbl, f2.dbl);
}

TEST(Pipeline, PooledVectorHasUnitNormWhenEnabled) {
  math::Rng rng(7);
  const auto corpus = small_corpus(4, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto features = pipeline.extract(corpus[0], rng);
  double norm = 0.0;
  for (float x : features.pooled_dbl) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
}

TEST(Pipeline, SaveLoadRoundTrips) {
  math::Rng rng(8);
  const auto corpus = small_corpus(6, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  std::stringstream stream;
  pipeline.save(stream);
  const auto loaded = FeaturePipeline::load(stream);
  EXPECT_EQ(loaded.config().top_k, pipeline.config().top_k);
  EXPECT_EQ(loaded.config().gram_sizes, pipeline.config().gram_sizes);
  EXPECT_EQ(loaded.dbl_vocabulary().grams(),
            pipeline.dbl_vocabulary().grams());
  math::Rng a(9);
  math::Rng b(9);
  EXPECT_EQ(loaded.extract(corpus[0], a).pooled_dbl,
            pipeline.extract(corpus[0], b).pooled_dbl);
}

TEST(Pipeline, GramCountsPoolAcrossWalks) {
  math::Rng rng(10);
  const auto corpus = small_corpus(4, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto counts = pipeline.gram_counts(
      corpus[0], cfg::LabelingMethod::kDensity, rng);
  EXPECT_FALSE(counts.empty());
  // 3 walks of 5*|V| steps each -> total 2-,3-,4-gram occurrences.
  const std::size_t v = corpus[0].node_count();
  const std::size_t walk_len = 5 * v + 1;
  const std::size_t expected =
      3 * ((walk_len - 1) + (walk_len - 2) + (walk_len - 3));
  EXPECT_EQ(total_occurrences(counts), expected);
}

// Labels are node ranks, and a gram key holds labels up to
// kMaxGramLabel: extracting a CFG with more nodes than that must fail
// with a typed out-of-range error (an untrusted binary can be that
// large), not an untyped exception. Approximate centrality keeps the
// labeling of the 16,500-node graph to about a second.
TEST(Pipeline, LabelsBeyondGramKeyRangeAreTypedOutOfRange) {
  math::Rng rng(21);
  PipelineConfig config = tiny_config();
  config.labeling.approx_centrality_threshold = 1000;
  const auto pipeline =
      FeaturePipeline::fit(small_corpus(4, rng), config, rng);

  const cfg::Cfg huge(graph::firmware_like_cfg(kMaxGramLabel + 117, rng), 0);
  ASSERT_GT(huge.node_count(), kMaxGramLabel + 1);
  try {
    (void)pipeline.extract(huge, rng);
    ADD_FAILURE() << "extracted labels above kMaxGramLabel";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kOutOfRange) << e.what();
  }
}

}  // namespace
}  // namespace soteria::features
