#include "features/ngram.h"

#include <gtest/gtest.h>

#include "soteria/error.h"

namespace soteria::features {
namespace {

class GramLength : public ::testing::TestWithParam<std::size_t> {};

/// The labels a key holds, read straight from its bit layout: label i
/// in bits [kGramLabelBits*i, kGramLabelBits*(i+1)).
std::vector<cfg::Label> labels_of(GramKey key) {
  std::vector<cfg::Label> labels(gram_length(key));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<cfg::Label>((key >> (kGramLabelBits * i)) &
                                        kGramLabelMask);
  }
  return labels;
}

TEST_P(GramLength, PackUnpackRoundTrips) {
  const std::size_t n = GetParam();
  std::vector<cfg::Label> labels;
  for (std::size_t i = 0; i < n; ++i) labels.push_back(100 * i + 7);
  const GramKey key = pack_gram(labels);
  EXPECT_EQ(gram_length(key), n);
  EXPECT_EQ(key >> kGramLengthShift, n);
  EXPECT_EQ(labels_of(key), labels);
}

INSTANTIATE_TEST_SUITE_P(Lengths, GramLength, ::testing::Values(1, 2, 3, 4));

TEST(Gram, MaxLabelRoundTrips) {
  const std::vector<cfg::Label> labels{kMaxGramLabel, 0, kMaxGramLabel};
  EXPECT_EQ(labels_of(pack_gram(labels)), labels);
}

TEST(Gram, DistinctGramsGetDistinctKeys) {
  const std::vector<cfg::Label> a{1, 2};
  const std::vector<cfg::Label> b{2, 1};
  const std::vector<cfg::Label> c{1, 2, 0};
  EXPECT_NE(pack_gram(a), pack_gram(b));
  EXPECT_NE(pack_gram(a), pack_gram(c));  // length differs
}

TEST(Gram, PackValidation) {
  EXPECT_THROW((void)pack_gram(std::vector<cfg::Label>{}),
               std::invalid_argument);
  EXPECT_THROW((void)pack_gram(std::vector<cfg::Label>{1, 2, 3, 4, 5}),
               std::invalid_argument);
  try {
    (void)pack_gram(std::vector<cfg::Label>{kMaxGramLabel + 1});
    ADD_FAILURE() << "label above kMaxGramLabel was packed";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kOutOfRange);
  }
}

TEST(CountGrams, CountsSlidingWindows) {
  const std::vector<cfg::Label> walk{1, 2, 1, 2, 1};
  const std::vector<std::size_t> sizes{2};
  FlatGramCounter counter;
  counter.count_walk(walk, sizes);
  const GramCounts counts = counter.to_counts();
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{1, 2})), 2U);
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{2, 1})), 2U);
  EXPECT_EQ(counts.size(), 2U);
  EXPECT_EQ(total_occurrences(counts), 4U);
}

TEST(CountGrams, MultipleSizesAccumulate) {
  const std::vector<cfg::Label> walk{3, 3, 3};
  const std::vector<std::size_t> sizes{2, 3};
  FlatGramCounter counter;
  counter.count_walk(walk, sizes);
  const GramCounts counts = counter.to_counts();
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{3, 3})), 2U);
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{3, 3, 3})), 1U);
}

TEST(CountGrams, ShortWalksProduceNothing) {
  const std::vector<cfg::Label> walk{1};
  const std::vector<std::size_t> sizes{2, 3, 4};
  FlatGramCounter counter;
  counter.count_walk(walk, sizes);
  EXPECT_EQ(counter.distinct(), 0U);
  EXPECT_EQ(counter.total(), 0U);
}

TEST(CountGrams, ValidatesSizes) {
  const std::vector<cfg::Label> walk{1, 2, 3};
  FlatGramCounter counter;
  const std::vector<std::size_t> zero{0};
  const std::vector<std::size_t> huge{5};
  EXPECT_THROW(counter.count_walk(walk, zero), std::invalid_argument);
  EXPECT_THROW(counter.count_walk(walk, huge), std::invalid_argument);
}

TEST(CountGrams, MultiWalkOverloadPools) {
  const std::vector<std::vector<cfg::Label>> walks{{1, 2}, {1, 2}};
  const std::vector<std::size_t> sizes{2};
  FlatGramCounter counter;
  for (const auto& walk : walks) counter.count_walk(walk, sizes);
  EXPECT_EQ(counter.to_counts().at(pack_gram(std::vector<cfg::Label>{1, 2})),
            2U);
}

}  // namespace
}  // namespace soteria::features
