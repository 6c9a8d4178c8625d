// Numerical gradient checking for layers: compares analytic backprop
// gradients against central finite differences of a scalar loss. Also
// the Matrix-level drivers the layer tests run a single layer through.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "math/matrix.h"
#include "nn/layer.h"

namespace soteria::nn::testing {

/// Copies `rows` x `cols` floats from a kernel's result buffer.
inline math::Matrix to_matrix(const float* result, std::size_t rows,
                              std::size_t cols) {
  return math::Matrix(rows, cols,
                      std::vector<float>(result, result + rows * cols));
}

/// `layer.infer_into` over `input`.
inline math::Matrix infer(const Layer& layer, const math::Matrix& input) {
  const std::size_t cols = layer.output_dimension(input.cols());
  std::vector<float> out(input.rows() * cols);
  return to_matrix(layer.infer_into(input.data().data(), input.rows(),
                                    input.cols(), out.data()),
                   input.rows(), cols);
}

/// `layer.forward_into` (training forward) over `input`.
inline math::Matrix forward(Layer& layer, const math::Matrix& input) {
  const std::size_t cols = layer.output_dimension(input.cols());
  std::vector<float> out(input.rows() * cols);
  return to_matrix(layer.forward_into(input.data().data(), input.rows(),
                                      input.cols(), out.data()),
                   input.rows(), cols);
}

/// `layer.backward_into` for the batch `input` -> `output` of the last
/// forward, given d(loss)/d(output); returns d(loss)/d(input).
inline math::Matrix backward(Layer& layer, const math::Matrix& input,
                             const math::Matrix& output,
                             const math::Matrix& grad_output) {
  std::vector<float> grad_in(input.size());
  return to_matrix(
      layer.backward_into(input.data().data(), output.data().data(),
                          grad_output.data().data(), input.rows(),
                          input.cols(), grad_in.data()),
      input.rows(), input.cols());
}

/// Scalar loss used by the checks: L = sum(output^2) / 2, so
/// dL/d(output) = output.
inline double half_square_sum(const math::Matrix& m) {
  double acc = 0.0;
  for (float x : m.data()) acc += 0.5 * static_cast<double>(x) * x;
  return acc;
}

/// Verifies d(loss)/d(input) returned by `layer.backward_into` against
/// finite differences. The layer must be deterministic in training
/// mode for this to be valid (no dropout).
inline void check_input_gradient(Layer& layer, math::Matrix input,
                                 double tolerance = 2e-2) {
  const math::Matrix output = forward(layer, input);
  // dL/dout = out
  const math::Matrix analytic = backward(layer, input, output, output);

  const float eps = 1e-3F;
  for (std::size_t r = 0; r < input.rows(); ++r) {
    for (std::size_t c = 0; c < input.cols(); ++c) {
      const float saved = input(r, c);
      input(r, c) = saved + eps;
      const double plus = half_square_sum(forward(layer, input));
      input(r, c) = saved - eps;
      const double minus = half_square_sum(forward(layer, input));
      input(r, c) = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      EXPECT_NEAR(analytic(r, c), numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "input gradient mismatch at (" << r << ", " << c << ")";
    }
  }
}

/// Verifies parameter gradients against finite differences.
inline void check_parameter_gradients(Layer& layer,
                                      const math::Matrix& input,
                                      double tolerance = 2e-2) {
  layer.zero_gradients();
  const math::Matrix output = forward(layer, input);
  (void)backward(layer, input, output, output);

  std::vector<ParamRef> params;
  layer.collect_parameters(params);
  const float eps = 1e-3F;
  for (std::size_t p = 0; p < params.size(); ++p) {
    auto values = params[p].value->data();
    const auto grads = params[p].grad->data();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const float saved = values[i];
      values[i] = saved + eps;
      const double plus = half_square_sum(forward(layer, input));
      values[i] = saved - eps;
      const double minus = half_square_sum(forward(layer, input));
      values[i] = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      EXPECT_NEAR(grads[i], numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "parameter " << p << " gradient mismatch at index " << i;
    }
  }
}

}  // namespace soteria::nn::testing
