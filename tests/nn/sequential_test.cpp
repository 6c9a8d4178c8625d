#include "nn/sequential.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "nn/activations.h"
#include "nn/autoencoder.h"
#include "nn/cnn.h"
#include "nn/dense.h"

namespace soteria::nn {
namespace {

Sequential two_layer(std::uint64_t seed) {
  math::Rng rng(seed);
  Sequential model;
  model.emplace<Dense>(4, 8, rng);
  model.emplace<Relu>();
  model.emplace<Dense>(8, 2, rng);
  return model;
}

TEST(Sequential, ForwardChainsLayers) {
  auto model = two_layer(1);
  math::Rng rng(2);
  math::Matrix input(3, 4);
  input.fill_normal(rng, 0.0F, 1.0F);
  const auto out = model.forward(input);
  EXPECT_EQ(out.rows(), 3U);
  EXPECT_EQ(out.cols(), 2U);
  EXPECT_EQ(out, model.predict(input));  // no dropout: same kernels
}

TEST(Sequential, EmptyModelThrows) {
  Sequential model;
  EXPECT_THROW((void)model.forward(math::Matrix(1, 1)), std::logic_error);
  EXPECT_THROW((void)model.backward(math::Matrix(1, 1)), std::logic_error);
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

TEST(Sequential, BackwardWithoutForwardThrows) {
  auto model = two_layer(20);
  EXPECT_THROW((void)model.backward(math::Matrix(3, 2)), std::logic_error);
  // A forward that rejects its input leaves no batch behind either.
  EXPECT_THROW((void)model.forward(math::Matrix(3, 5)),
               std::invalid_argument);
  EXPECT_THROW((void)model.backward(math::Matrix(3, 2)), std::logic_error);
}

TEST(Sequential, BackwardChecksGradientShape) {
  auto model = two_layer(21);
  (void)model.forward(math::Matrix(3, 4, 0.5F));
  EXPECT_THROW((void)model.backward(math::Matrix(2, 2)),
               std::invalid_argument);  // rows differ
  EXPECT_THROW((void)model.backward(math::Matrix(3, 4)),
               std::invalid_argument);  // width of the input, not output
  const auto grad = model.backward(math::Matrix(3, 2, 1.0F));
  EXPECT_EQ(grad.rows(), 3U);
  EXPECT_EQ(grad.cols(), 4U);
}

// A small batch after a larger one reuses the grown arena and gradient
// buffers; nothing of the larger batch may leak into its gradients.
// Dropout is off so both models see the same arithmetic.
TEST(Sequential, ArenaReuseKeepsGradientsBitIdentical) {
  const auto cnn = [] {
    math::Rng rng(22);
    CnnConfig config;
    config.input_length = 24;
    config.filters = 3;
    config.dense_units = 8;
    config.conv_dropout = 0.0;
    config.dense_dropout = 0.0;
    return build_cnn(config, rng);
  };
  const auto batch = [](std::size_t rows, std::uint64_t seed) {
    math::Rng rng(seed);
    math::Matrix m(rows, 24);
    m.fill_normal(rng, 0.0F, 1.0F);
    return m;
  };
  const auto step = [](Sequential& model, const math::Matrix& x) {
    model.zero_gradients();
    const auto out = model.forward(x);
    return model.backward(out);  // dL/dout = out
  };
  const auto small = batch(3, 23);

  auto fresh = cnn();
  const auto fresh_input_grad = step(fresh, small);

  auto reused = cnn();
  (void)step(reused, batch(7, 24));
  const auto reused_input_grad = step(reused, small);

  const auto bit_identical = [](const math::Matrix& a,
                                const math::Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(bit_identical(reused_input_grad, fresh_input_grad));
  const auto want = fresh.parameters();
  const auto got = reused.parameters();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_TRUE(bit_identical(*got[p].grad, *want[p].grad))
        << "parameter " << p;
  }
}

TEST(Sequential, OutputDimensionValidatesChain) {
  const auto model = two_layer(3);
  EXPECT_EQ(model.output_dimension(4), 2U);
  EXPECT_THROW((void)model.output_dimension(5), std::invalid_argument);
}

TEST(Sequential, ParametersInStableOrder) {
  auto model = two_layer(4);
  const auto params = model.parameters();
  ASSERT_EQ(params.size(), 4U);  // two dense layers x (W, b)
  EXPECT_EQ(params[0].value->rows(), 4U);
  EXPECT_EQ(params[2].value->rows(), 8U);
  EXPECT_EQ(model.parameter_count(), 4 * 8 + 8 + 8 * 2 + 2U);
  EXPECT_EQ(model.layer_count(), 3U);
}

TEST(Sequential, SummaryListsLayers) {
  const auto model = two_layer(5);
  const auto text = model.summary();
  EXPECT_NE(text.find("Dense(4->8)"), std::string::npos);
  EXPECT_NE(text.find("ReLU"), std::string::npos);
  EXPECT_NE(text.find("total parameters"), std::string::npos);
}

TEST(Sequential, SaveLoadRoundTripsPredictions) {
  auto model = two_layer(6);
  math::Rng rng(7);
  math::Matrix input(2, 4);
  input.fill_normal(rng, 0.0F, 1.0F);
  const auto before = model.predict(input);

  std::stringstream stream;
  model.save_parameters(stream);
  auto fresh = two_layer(999);  // different init
  fresh.load_parameters(stream);
  EXPECT_EQ(fresh.predict(input), before);
}

TEST(Sequential, LoadRejectsWrongArchitecture) {
  auto model = two_layer(8);
  std::stringstream stream;
  model.save_parameters(stream);

  math::Rng rng(9);
  Sequential other;
  other.emplace<Dense>(4, 4, rng);
  EXPECT_THROW(other.load_parameters(stream), std::runtime_error);
}

TEST(Sequential, LoadRejectsGarbage) {
  std::stringstream stream;
  stream.write("garbage!", 8);
  auto model = two_layer(10);
  EXPECT_THROW(model.load_parameters(stream), std::runtime_error);
}

TEST(Autoencoder, BuildsPaperShape) {
  math::Rng rng(11);
  AutoencoderConfig config;
  config.input_dim = 100;
  config.hidden_dims = {200, 300, 200};
  auto model = build_autoencoder(config, rng);
  EXPECT_EQ(model.output_dimension(100), 100U);
  // dense+relu per hidden layer, plus the output dense
  EXPECT_EQ(model.layer_count(), 3 * 2 + 1U);
}

TEST(Autoencoder, WidthScaleShrinksHiddenLayers) {
  math::Rng rng(12);
  AutoencoderConfig config;
  config.input_dim = 50;
  config.hidden_dims = {100};
  config.width_scale = 0.5;
  auto model = build_autoencoder(config, rng);
  // 50 -> 50 -> 50: parameters = 50*50+50 + 50*50+50.
  EXPECT_EQ(model.parameter_count(), 2U * (50 * 50 + 50));
}

TEST(Autoencoder, ConfigValidation) {
  AutoencoderConfig bad;
  bad.input_dim = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = AutoencoderConfig{};
  bad.hidden_dims.clear();
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = AutoencoderConfig{};
  bad.width_scale = 0.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = AutoencoderConfig{};
  bad.hidden_dims = {0};
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Cnn, BuildsAndValidates) {
  math::Rng rng(13);
  CnnConfig config;
  config.input_length = 100;
  config.filters = 4;
  config.dense_units = 16;
  auto model = build_cnn(config, rng);
  EXPECT_EQ(model.output_dimension(100), config.classes);
}

TEST(Cnn, PaperArchitectureShape) {
  math::Rng rng(14);
  CnnConfig config;  // 500-wide input, 46 filters, dense 512
  auto model = build_cnn(config, rng);
  EXPECT_EQ(model.output_dimension(500), 4U);
  // ConvB1: 500->498->496->248, ConvB2: 248->246->244->122.
  // Flatten = 46*122 = 5612 -> 512 -> 4.
  const std::size_t expected =
      (46 * 1 * 3 + 46) + (46 * 46 * 3 + 46) +  // ConvB1
      (46 * 46 * 3 + 46) + (46 * 46 * 3 + 46) +  // ConvB2
      (5612 * 512 + 512) + (512 * 4 + 4);
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(Cnn, ConfigValidation) {
  CnnConfig bad;
  bad.input_length = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = CnnConfig{};
  bad.input_length = 8;  // too short for two conv blocks + pooling
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = CnnConfig{};
  bad.conv_dropout = 1.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

}  // namespace
}  // namespace soteria::nn
