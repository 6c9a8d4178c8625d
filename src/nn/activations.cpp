#include "nn/activations.h"

#include <cmath>

namespace soteria::nn {

const float* Relu::infer_into(const float* in, std::size_t rows,
                              std::size_t width, float* out) const {
  for (std::size_t i = 0; i < rows * width; ++i) {
    const float x = in[i];
    out[i] = x > 0.0F ? x : 0.0F;
  }
  return out;
}

const float* Relu::backward_into(const float* in, const float* /*out*/,
                                 const float* grad_out, std::size_t rows,
                                 std::size_t width, float* grad_in) {
  for (std::size_t i = 0; i < rows * width; ++i) {
    grad_in[i] = in[i] <= 0.0F ? 0.0F : grad_out[i];
  }
  return grad_in;
}

const float* Sigmoid::infer_into(const float* in, std::size_t rows,
                                 std::size_t width, float* out) const {
  for (std::size_t i = 0; i < rows * width; ++i) {
    out[i] = 1.0F / (1.0F + std::exp(-in[i]));
  }
  return out;
}

const float* Sigmoid::backward_into(const float* /*in*/, const float* out,
                                    const float* grad_out, std::size_t rows,
                                    std::size_t width, float* grad_in) {
  for (std::size_t i = 0; i < rows * width; ++i) {
    grad_in[i] = grad_out[i] * (out[i] * (1.0F - out[i]));
  }
  return grad_in;
}

}  // namespace soteria::nn
