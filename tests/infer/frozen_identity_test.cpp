// The analysis path's whole-system identity contract:
// Sequential::infer_into (the one inference path every score runs)
// must reproduce the layer-by-layer reference_forward bit-for-bit, and
// SoteriaSystem (fused extraction + the trained networks) must emit
// verdicts bitwise-identical to the reference oracle in
// naive_features.h (map-based extraction + reference networks) —
// across thread counts, with and without the feature store, and
// through every analyze entry point. Scores are compared with
// EXPECT_EQ on the doubles: the documented tolerance is 0 ulp, because
// the library replicates the reference arithmetic operation for
// operation.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dataset/generator.h"
#include "infer/naive_features.h"
#include "math/rng.h"
#include "nn/activations.h"
#include "nn/autoencoder.h"
#include "nn/cnn.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pooling.h"
#include "soteria/error.h"
#include "soteria/presets.h"
#include "soteria/system.h"
#include "store/feature_store.h"

namespace soteria::core {
namespace {

/// infer_into over `in` through `scratch`, into a buffer pre-filled
/// with a sentinel so an unwritten output cell shows.
std::vector<float> infer_rows(const nn::Sequential& model,
                              const math::Matrix& in,
                              nn::Sequential::Scratch& scratch) {
  std::vector<float> out(
      in.rows() * model.output_dimension(in.cols()), -7.0F);
  model.infer_into(in.data().data(), in.rows(), in.cols(), out.data(),
                   scratch);
  return out;
}

void expect_bitwise(std::span<const float> got,
                    std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(float)));
}

void expect_net_matches(const nn::Sequential& model, std::size_t input_dim,
                        std::size_t rows, math::Rng& rng) {
  math::Matrix in(rows, input_dim);
  in.fill_uniform(rng, -1.5F, 1.5F);
  nn::Sequential::Scratch scratch;
  const math::Matrix want = nn::reference_forward(model, in);
  expect_bitwise(infer_rows(model, in, scratch), want.data());
  expect_bitwise(model.predict(in).data(), want.data());
}

// FrozenNetTest keeps its established test IDs; its cases pin
// Sequential::infer_into and predict against reference_forward.
TEST(FrozenNetTest, CnnMatchesSequentialBitwise) {
  math::Rng rng(61);
  nn::CnnConfig arch;
  arch.input_length = 60;
  arch.filters = 6;
  arch.dense_units = 24;
  // Dropout layers are present in the built model and must pass their
  // input through untouched.
  nn::Sequential model = nn::build_cnn(arch, rng);
  for (const std::size_t rows : {1U, 3U, 8U}) {
    expect_net_matches(model, arch.input_length, rows, rng);
  }
}

TEST(FrozenNetTest, AutoencoderMatchesSequentialBitwise) {
  math::Rng rng(62);
  nn::AutoencoderConfig arch;
  arch.input_dim = 48;
  arch.hidden_dims = {32, 40, 32};
  nn::Sequential model = nn::build_autoencoder(arch, rng);
  for (const std::size_t rows : {1U, 5U}) {
    expect_net_matches(model, arch.input_dim, rows, rng);
  }
}

TEST(FrozenNetTest, ScratchIsReusableAcrossBatchSizes) {
  math::Rng rng(63);
  nn::AutoencoderConfig arch;
  arch.input_dim = 20;
  arch.hidden_dims = {16};
  nn::Sequential model = nn::build_autoencoder(arch, rng);
  nn::Sequential::Scratch scratch;
  // Shrinking then growing the batch must not disturb results: buffers
  // are grow-only and fully overwritten per call.
  for (const std::size_t rows : {6U, 1U, 9U, 2U}) {
    math::Matrix in(rows, arch.input_dim);
    in.fill_uniform(rng, -1.0F, 1.0F);
    expect_bitwise(infer_rows(model, in, scratch),
                   nn::reference_forward(model, in).data());
  }
}

// Layers and shapes build_cnn and build_autoencoder never produce:
// Sigmoid, a max-pool window that leaves a trailing remainder,
// mid-stack Dropout and a trailing Dropout (whose result is the
// previous layer's).
nn::Sequential hand_built_stack(math::Rng& rng) {
  nn::Sequential model;
  model.emplace<nn::Dense>(12, 26, rng);
  model.emplace<nn::Sigmoid>();
  model.emplace<nn::Conv1d>(2, 13, 3, 3, rng);    // -> 3 x 11
  model.emplace<nn::MaxPool1d>(3, 11, 3);         // -> 3 x 3, drops 2
  model.emplace<nn::Dropout>(0.3, rng);
  model.emplace<nn::Dense>(9, 4, rng);
  model.emplace<nn::Sigmoid>();
  model.emplace<nn::Dropout>(0.5, rng);
  return model;
}

TEST(SequentialInferTest, SigmoidPoolRemainderAndTrailingDropoutMatch) {
  math::Rng rng(64);
  const nn::Sequential model = hand_built_stack(rng);
  ASSERT_EQ(model.output_dimension(12), 4U);
  for (const std::size_t rows : {1U, 4U, 7U}) {
    expect_net_matches(model, 12, rows, rng);
  }
}

// Scoring shares one trained Sequential across the worker threads,
// each with its own scratch.
TEST(SequentialInferTest, ConcurrentCallsOnSharedModelMatchSerial) {
  math::Rng rng(65);
  nn::CnnConfig arch;
  arch.input_length = 40;
  arch.filters = 4;
  arch.dense_units = 16;
  const nn::Sequential model = nn::build_cnn(arch, rng);
  constexpr std::size_t kThreads = 4;
  std::vector<math::Matrix> inputs;
  std::vector<std::vector<float>> serial;
  nn::Sequential::Scratch serial_scratch;
  for (std::size_t t = 0; t < kThreads; ++t) {
    math::Matrix in(3 + t, arch.input_length);
    in.fill_uniform(rng, -1.0F, 1.0F);
    serial.push_back(infer_rows(model, in, serial_scratch));
    inputs.push_back(std::move(in));
  }
  std::vector<std::vector<float>> parallel(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      nn::Sequential::Scratch scratch;
      for (int round = 0; round < 8; ++round) {
        parallel[t] = infer_rows(model, inputs[t], scratch);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    expect_bitwise(parallel[t], serial[t]);
  }
}

void expect_same_verdict(const Verdict& a, const Verdict& b,
                         std::size_t sample) {
  EXPECT_EQ(a.adversarial, b.adversarial) << "sample " << sample;
  EXPECT_EQ(a.predicted, b.predicted) << "sample " << sample;
  EXPECT_EQ(a.reconstruction_error, b.reconstruction_error)
      << "sample " << sample;
}

void expect_same_verdicts(const std::vector<Verdict>& a,
                          const std::vector<Verdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_verdict(a[i], b[i], i);
  }
}

void expect_same_features(const features::SampleFeatures& a,
                          const features::SampleFeatures& b) {
  ASSERT_EQ(a.dbl.size(), b.dbl.size());
  ASSERT_EQ(a.lbl.size(), b.lbl.size());
  for (std::size_t w = 0; w < a.dbl.size(); ++w) {
    EXPECT_EQ(a.dbl[w], b.dbl[w]) << "dbl walk " << w;
    EXPECT_EQ(a.lbl[w], b.lbl[w]) << "lbl walk " << w;
  }
  EXPECT_EQ(a.pooled_dbl, b.pooled_dbl);
  EXPECT_EQ(a.pooled_lbl, b.pooled_lbl);
}

ErrorCode error_code_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const Error& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

// One tiny trained system for the whole suite (training dominates).
struct FrozenSystemFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(71);
    data = new dataset::Dataset(dataset::generate_dataset(data_config, rng));
    SoteriaConfig config = tiny_config();
    config.seed = 71;
    system = new SoteriaSystem(SoteriaSystem::train(data->train, config));
  }
  static void TearDownTestSuite() {
    delete system;
    delete data;
    system = nullptr;
    data = nullptr;
  }

  [[nodiscard]] static std::vector<cfg::Cfg> test_cfgs(std::size_t n) {
    std::vector<cfg::Cfg> cfgs;
    for (std::size_t i = 0; i < std::min(n, data->test.size()); ++i) {
      cfgs.push_back(data->test[i].cfg);
    }
    return cfgs;
  }

  [[nodiscard]] static AnalyzeOptions with_threads(std::size_t threads) {
    AnalyzeOptions options;
    options.num_threads = threads;
    return options;
  }

  /// The oracle for analyze_batch(cfgs, rng): sample i through the
  /// reference path with walks from rng.child(i).
  [[nodiscard]] static std::vector<Verdict> reference_batch(
      const SoteriaSystem& model, const std::vector<cfg::Cfg>& cfgs,
      const math::Rng& rng) {
    std::vector<Verdict> verdicts;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      math::Rng sample_rng = rng.child(i);
      verdicts.push_back(reference_analyze(model, cfgs[i], sample_rng));
    }
    return verdicts;
  }

  static dataset::Dataset* data;
  static SoteriaSystem* system;
};

dataset::Dataset* FrozenSystemFixture::data = nullptr;
SoteriaSystem* FrozenSystemFixture::system = nullptr;

TEST_F(FrozenSystemFixture, BatchVerdictsMatchInterpretedAtAnyThreadCount) {
  const auto cfgs = test_cfgs(10);
  ASSERT_FALSE(cfgs.empty());
  const math::Rng rng(73);
  const auto reference = reference_batch(*system, cfgs, rng);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    expect_same_verdicts(
        system->analyze_batch(cfgs, rng, with_threads(threads)), reference);
  }
}

TEST_F(FrozenSystemFixture, SingleSampleAnalyzeMatchesInterpreted) {
  const auto cfgs = test_cfgs(4);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const math::Rng fresh(75 + i);
    math::Rng reference_rng = fresh;
    expect_same_verdict(system->analyze(cfgs[i], fresh, with_threads(1)),
                        reference_analyze(*system, cfgs[i], reference_rng),
                        i);
  }
}

TEST_F(FrozenSystemFixture, AdvancingRngAnalyzeMatchesAndAdvancesEqually) {
  const auto cfgs = test_cfgs(3);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    math::Rng reference_rng(77);
    math::Rng rng(77);
    expect_same_verdict(system->analyze(cfgs[i], rng),
                        reference_analyze(*system, cfgs[i], reference_rng),
                        i);
    // Both paths drew exactly the same walk stream.
    EXPECT_EQ(reference_rng.engine()(), rng.engine()());
  }
}

TEST_F(FrozenSystemFixture, ExtractMatchesPipelineBitwise) {
  const auto cfgs = test_cfgs(3);
  for (const auto& cfg : cfgs) {
    math::Rng reference_rng(79);
    math::Rng rng(79);
    expect_same_features(
        system->pipeline().extract(cfg, rng),
        features::reference_extract(system->pipeline(), cfg, reference_rng));
    EXPECT_EQ(reference_rng.engine()(), rng.engine()());
  }
}

TEST_F(FrozenSystemFixture, AnalyzeFeaturesMatchesInterpreted) {
  const auto cfgs = test_cfgs(3);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    math::Rng rng(81);
    const auto features = system->pipeline().extract(cfgs[i], rng);
    expect_same_verdict(system->analyze_features(features),
                        reference_verdict(*system, features), i);
  }
}

// score_features runs each network once; its votes, prediction and
// score must equal the separate vote_counts, predict and sample_error
// calls.
TEST_F(FrozenSystemFixture, ScoreFeaturesMatchesTwoCallComposition) {
  const auto cfgs = test_cfgs(6);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    math::Rng rng(89 + i);
    const auto features = system->pipeline().extract(cfgs[i], rng);
    const FeatureScores scores = system->score_features(features);
    EXPECT_EQ(scores.votes, system->classifier().vote_counts(features))
        << "sample " << i;
    EXPECT_EQ(scores.predicted, system->classifier().predict(features))
        << "sample " << i;
    EXPECT_EQ(scores.detector_score,
              system->detector().sample_error(pooled_matrix(features)));
    EXPECT_EQ(scores.threshold, system->detector().threshold());
    EXPECT_EQ(scores.adversarial, scores.detector_score > scores.threshold);
  }
}

TEST_F(FrozenSystemFixture, StoreOnAndOffAreIdenticalThroughFrozenPath) {
  const auto cfgs = test_cfgs(6);
  const math::Rng rng(83);
  const auto baseline = system->analyze_batch(cfgs, rng, with_threads(1));
  expect_same_verdicts(baseline, reference_batch(*system, cfgs, rng));

  auto store = std::make_shared<store::FeatureStore>(
      store::StoreConfig{testing::TempDir() + "frozen_identity_store", 64});
  AnalyzeOptions with_store = with_threads(2);
  with_store.feature_store = store;
  // Cold pass populates the store; warm pass serves every sample from
  // it. Both must match the storeless verdicts bitwise — and the warm
  // pass must actually hit.
  const auto cold = system->analyze_batch(cfgs, rng, with_store);
  expect_same_verdicts(cold, baseline);
  const auto stats_after_cold = store->stats();
  const auto warm = system->analyze_batch(cfgs, rng, with_store);
  expect_same_verdicts(warm, baseline);
  const auto stats_after_warm = store->stats();
  EXPECT_EQ(stats_after_warm.hits, stats_after_cold.hits + cfgs.size());

  // The entries analysis wrote are the bundles extract_stored serves,
  // and the reference networks reach the same verdicts on them.
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto features =
        system->pipeline().extract_stored(cfgs[i], rng.child(i), store.get());
    expect_same_verdict(reference_verdict(*system, features), baseline[i], i);
  }
  EXPECT_EQ(store->stats().hits, stats_after_warm.hits + cfgs.size());
}

TEST_F(FrozenSystemFixture, TrainedAndLoadedSystemsAgree) {
  std::stringstream buffer;
  system->save(buffer);
  const SoteriaSystem loaded = SoteriaSystem::load(buffer);
  const auto cfgs = test_cfgs(4);
  const math::Rng rng(85);
  expect_same_verdicts(loaded.analyze_batch(cfgs, rng, with_threads(1)),
                       system->analyze_batch(cfgs, rng, with_threads(1)));
}

TEST_F(FrozenSystemFixture, AlphaChangeTakesEffectWithoutRecompiling) {
  std::stringstream buffer;
  system->save(buffer);
  SoteriaSystem strict = SoteriaSystem::load(buffer);
  strict.detector().set_alpha(0.0);
  const auto cfgs = test_cfgs(6);
  const math::Rng rng(87);
  const auto verdicts = strict.analyze_batch(cfgs, rng, with_threads(1));
  expect_same_verdicts(verdicts, reference_batch(strict, cfgs, rng));
  for (const auto& cfg : cfgs) {
    math::Rng feature_rng(88);
    const auto scores =
        strict.score_features(strict.pipeline().extract(cfg, feature_rng));
    EXPECT_EQ(scores.threshold, strict.detector().threshold());
  }
}

TEST_F(FrozenSystemFixture, MalformedBundlesAreTypedErrors) {
  math::Rng rng(91);
  const auto good = system->pipeline().extract(test_cfgs(1).front(), rng);

  const features::SampleFeatures empty;
  EXPECT_EQ(error_code_of([&] { (void)system->analyze_features(empty); }),
            ErrorCode::kInvalidArgument);

  features::SampleFeatures ragged = good;
  ragged.dbl.back().push_back(0.0F);
  EXPECT_EQ(error_code_of([&] { (void)system->score_features(ragged); }),
            ErrorCode::kInvalidArgument);

  features::SampleFeatures short_pooled = good;
  short_pooled.pooled_lbl.pop_back();
  EXPECT_EQ(
      error_code_of([&] { (void)system->analyze_features(short_pooled); }),
      ErrorCode::kInvalidArgument);

  // Self-consistent but narrower than the model.
  features::SampleFeatures narrow = short_pooled;
  for (auto& row : narrow.lbl) row.pop_back();
  EXPECT_EQ(error_code_of([&] { (void)system->analyze_features(narrow); }),
            ErrorCode::kInvalidArgument);

  const SoteriaSystem untrained;
  EXPECT_EQ(error_code_of([&] { (void)untrained.analyze_features(good); }),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(error_code_of([&] { (void)untrained.score_features(good); }),
            ErrorCode::kInvalidArgument);
}

// The saved model with its detector and classifier sections replaced.
// save() writes them last, in that order, so everything before them is
// the system's own header and pipeline.
std::string spliced_model(const SoteriaSystem& system,
                          const AeDetector& detector,
                          const FamilyClassifier& classifier) {
  std::stringstream full;
  system.save(full);
  std::stringstream own_tail;
  system.detector().save(own_tail);
  system.classifier().save(own_tail);
  const std::string bytes = full.str();
  std::stringstream out;
  out << bytes.substr(0, bytes.size() - own_tail.str().size());
  detector.save(out);
  classifier.save(out);
  return out.str();
}

// Each component compiles its own networks for its own architecture;
// load() must still refuse a model whose networks do not take the
// widths its vocabularies produce.
TEST_F(FrozenSystemFixture, LoadRejectsNetworksThatDisagreeWithVocabularies) {
  const std::size_t dbl_dim = system->pipeline().dbl_vocabulary().size();
  const std::size_t lbl_dim = system->pipeline().lbl_vocabulary().size();
  ASSERT_EQ(system->classifier().dbl_dim(), dbl_dim);
  ASSERT_EQ(system->detector().input_dim(), dbl_dim + lbl_dim);

  const auto load_code = [](const std::string& bytes) {
    return error_code_of([&] {
      std::stringstream in(bytes);
      (void)SoteriaSystem::load(in);
    });
  };
  // The splice itself is faithful.
  EXPECT_EQ(load_code(spliced_model(*system, system->detector(),
                                    system->classifier())),
            ErrorCode::kOk);

  math::Rng rng(93);
  nn::AutoencoderConfig ae;
  ae.hidden_dims = {8};
  math::Matrix wide(8, dbl_dim + lbl_dim + 1);
  wide.fill_uniform(rng, 0.0F, 1.0F);
  const AeDetector wide_detector = AeDetector::train(
      wide, wide, ae, nn::make_train_config(1, 8), 1.0, 1e-3, rng);
  EXPECT_EQ(load_code(spliced_model(*system, wide_detector,
                                    system->classifier())),
            ErrorCode::kCorruptModel);

  const auto labeled = [&](std::size_t width) {
    LabeledVectors data{math::Matrix(4, width), {0, 1, 2, 3}};
    data.features.fill_uniform(rng, 0.0F, 1.0F);
    return data;
  };
  nn::CnnConfig cnn;
  cnn.filters = 2;
  cnn.dense_units = 8;
  const FamilyClassifier narrow_classifier = FamilyClassifier::train(
      labeled(dbl_dim - 1), labeled(lbl_dim), cnn,
      nn::make_train_config(1, 4), 1e-3, rng);
  EXPECT_EQ(load_code(spliced_model(*system, system->detector(),
                                    narrow_classifier)),
            ErrorCode::kCorruptModel);
}

}  // namespace
}  // namespace soteria::core
