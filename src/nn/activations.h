// Stateless activation layers: ReLU and Sigmoid.
#pragma once

#include "nn/layer.h"

namespace soteria::nn {

/// Rectified linear unit, elementwise max(0, x).
class Relu : public Layer {
 public:
  const float* infer_into(const float* in, std::size_t rows,
                          std::size_t width, float* out) const override;
  const float* backward_into(const float* in, const float* out,
                             const float* grad_out, std::size_t rows,
                             std::size_t width, float* grad_in) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override {
    return input_dim;
  }
};

/// Logistic sigmoid, elementwise 1 / (1 + e^-x).
class Sigmoid : public Layer {
 public:
  const float* infer_into(const float* in, std::size_t rows,
                          std::size_t width, float* out) const override;
  const float* backward_into(const float* in, const float* out,
                             const float* grad_out, std::size_t rows,
                             std::size_t width, float* grad_in) override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override {
    return input_dim;
  }
};

}  // namespace soteria::nn
