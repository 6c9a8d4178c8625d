// Tests for the benchmark's own helpers: exact quantiles, the seeded
// Poisson schedule, skewed picks, the verdict digest, span self time and
// the traced decomposition's verdict equality with analyze_image.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <set>

#include "dataset/generator.h"
#include "loader/elf_writer.h"
#include "soteria/presets.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

TEST(ExactQuantile, MatchesBruteForceNearestRank) {
  soteria::math::Rng rng(7);
  for (std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 1100u}) {
    std::vector<double> samples(n);
    for (auto& s : samples) s = rng.uniform(0.0, 100.0);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      // Brute force: the smallest sample with at least q*n samples at or
      // below it.
      double expected = sorted.back();
      for (double candidate : sorted) {
        const auto at_or_below = static_cast<double>(
            std::count_if(samples.begin(), samples.end(),
                          [&](double s) { return s <= candidate; }));
        if (at_or_below >= q * static_cast<double>(n)) {
          expected = candidate;
          break;
        }
      }
      EXPECT_EQ(exact_quantile(samples, q), expected) << "n=" << n
                                                       << " q=" << q;
    }
  }
  EXPECT_EQ(exact_quantile(std::vector<double>{}, 0.5), 0.0);
}

TEST(ExactQuantile, TailResolution) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(1100, 0.99), 11u);
  EXPECT_DOUBLE_EQ(highest_resolved_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_resolved_percentile(100), 90.0);
  EXPECT_EQ(highest_resolved_percentile(5), 0.0);
}

TEST(PoissonSchedule, ReproducibleFromSeed) {
  const auto a = poisson_schedule(200.0, 5000, 11);
  const auto b = poisson_schedule(200.0, 5000, 11);
  const auto c = poisson_schedule(200.0, 5000, 12);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  // Mean gap 1/rate; the coefficient of variation of exponential gaps
  // is 1.
  const double mean_gap = a.back() / 5000.0;
  EXPECT_NEAR(mean_gap, 1.0 / 200.0, 0.1 / 200.0);
  double var = 0.0;
  double prev = 0.0;
  for (double t : a) {
    var += (t - prev - mean_gap) * (t - prev - mean_gap);
    prev = t;
  }
  EXPECT_NEAR(std::sqrt(var / 5000.0) / mean_gap, 1.0, 0.1);
}

TEST(SkewedPicks, ReproducibleAndSkewed) {
  const auto a = skewed_picks(34, 4000, 1.1, 5);
  const auto b = skewed_picks(34, 4000, 1.1, 6);
  EXPECT_EQ(a, skewed_picks(34, 4000, 1.1, 5));
  EXPECT_NE(a, b);
  const auto tally = [](const std::vector<std::size_t>& picks) {
    std::vector<std::size_t> counts(34, 0);
    for (auto pick : picks) {
      if (pick < counts.size()) ++counts[pick];
    }
    return counts;
  };
  auto counts = tally(a);
  EXPECT_EQ(a.size(), 4000u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
            4000u);
  // Same mix under every seed, item 0 the most popular, and each count
  // within one of count * w_k / sum(w).
  EXPECT_EQ(counts, tally(b));
  EXPECT_TRUE(std::is_sorted(counts.rbegin(), counts.rend()));
  double total = 0.0;
  for (std::size_t k = 0; k < 34; ++k) total += std::pow(k + 1.0, -1.1);
  for (std::size_t k = 0; k < 34; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]),
                4000.0 * std::pow(k + 1.0, -1.1) / total, 1.0);
  }
  EXPECT_GT(counts[0], 4 * counts[20]);
}

TEST(VerdictDigest, BitExact) {
  std::vector<soteria::core::Verdict> v(3);
  v[0].reconstruction_error = 0.5;
  v[1].adversarial = true;
  v[2].predicted = soteria::dataset::Family::kMirai;
  const auto base = verdict_digest(v);
  EXPECT_EQ(base, verdict_digest(v));
  auto flipped = v;
  flipped[0].reconstruction_error = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(0.5) ^ 1);
  EXPECT_NE(base, verdict_digest(flipped));
  EXPECT_FALSE(same_verdict(v[0], flipped[0]));
  auto family = v;
  family[1].predicted = soteria::dataset::Family::kTsunami;
  EXPECT_NE(base, verdict_digest(family));
  auto order = v;
  std::swap(order[0], order[2]);
  EXPECT_NE(base, verdict_digest(order));
}

TEST(TraceRecorder, SelfTimeExcludesChildren) {
  TraceRecorder recorder;
  {
    const ScopedSpan root(&recorder, "request", 1);
    {
      const ScopedSpan child(&recorder, "child", 1);
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(3);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
  }
  const auto totals = recorder.totals();
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[1].request, 1u);
  EXPECT_GE(totals.at("child").total_s, 0.003);
  EXPECT_NEAR(totals.at("request").self_s,
              totals.at("request").total_s - totals.at("child").total_s,
              1e-9);
  EXPECT_DOUBLE_EQ(totals.at("child").self_s, totals.at("child").total_s);
}

class TracedDecomposition : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    soteria::dataset::DatasetConfig config;
    config.scale = 0.005;
    soteria::math::Rng rng(3);
    data_ = new soteria::dataset::Dataset(
        soteria::dataset::generate_dataset(config, rng));
    auto preset = soteria::core::tiny_config();
    preset.num_threads = 1;
    const auto trained =
        soteria::core::SoteriaSystem::train(data_->train, preset);
    std::stringstream buffer;
    trained.save(buffer);
    system_ = new soteria::core::SoteriaSystem(
        soteria::core::SoteriaSystem::load(buffer));
  }
  static void TearDownTestSuite() {
    delete system_;
    delete data_;
  }
  static soteria::dataset::Dataset* data_;
  static soteria::core::SoteriaSystem* system_;
};

soteria::dataset::Dataset* TracedDecomposition::data_ = nullptr;
soteria::core::SoteriaSystem* TracedDecomposition::system_ = nullptr;

TEST_F(TracedDecomposition, VerdictEqualsAnalyzeImage) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "perfbench_helpers_store")
          .string();
  for (const bool with_store : {false, true}) {
    std::filesystem::remove_all(dir + "_plain");
    std::filesystem::remove_all(dir + "_traced");
    std::shared_ptr<soteria::store::FeatureStore> plain_store;
    std::shared_ptr<soteria::store::FeatureStore> traced_store;
    if (with_store) {
      plain_store = std::make_shared<soteria::store::FeatureStore>(
          soteria::store::StoreConfig{dir + "_plain", 0});
      traced_store = std::make_shared<soteria::store::FeatureStore>(
          soteria::store::StoreConfig{dir + "_traced", 0});
    }
    soteria::core::AnalyzeOptions options;
    options.feature_store = plain_store;
    TraceRecorder recorder;
    LayerCounts counts;
    const soteria::math::Rng root(17);
    // Two passes over the same requests: with a store the second pass
    // hits it.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < data_->test.size(); ++i) {
        const auto bytes = soteria::loader::write_elf(data_->test[i].binary);
        const auto rng = root.child(i);
        const auto expected = system_->analyze_image(bytes, rng, options);
        const auto traced = traced_analyze_image(
            *system_, bytes, rng, traced_store.get(), recorder, i, counts);
        EXPECT_TRUE(same_verdict(expected, traced))
            << "sample " << i << " pass " << pass << " store " << with_store;
      }
    }
    const std::size_t n = data_->test.size();
    EXPECT_EQ(counts.label_hits + counts.label_misses, with_store ? n : 2 * n);
    EXPECT_EQ(counts.store_hits, with_store ? n : 0u);
    EXPECT_EQ(counts.extractions, with_store ? n : 2 * n);
    EXPECT_GT(counts.classifier_macs, 0.0);
    std::set<std::string> names;
    for (const auto& span : recorder.spans()) names.insert(span.name);
    for (const char* name :
         {"request", "loader.load_image", "frontend.extract", "cfg.labels",
          "features.extract_stored", "detector.sample_error",
          "classifier.predict"}) {
      EXPECT_TRUE(names.count(name)) << name;
    }
    EXPECT_EQ(names.count("store.get") == 1, with_store);
  }
  std::filesystem::remove_all(dir + "_plain");
  std::filesystem::remove_all(dir + "_traced");
}

TEST_F(TracedDecomposition, ClassifierMacsFollowLayerShapes) {
  const double one = classifier_macs(system_->classifier(), 1);
  EXPECT_GT(one, 0.0);
  EXPECT_DOUBLE_EQ(classifier_macs(system_->classifier(), 4), 4.0 * one);
}

}  // namespace
