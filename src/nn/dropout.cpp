#include "nn/dropout.h"

#include <stdexcept>
#include <string>

namespace soteria::nn {

Dropout::Dropout(double rate, math::Rng& rng)
    : rate_(rate), rng_(rng.fork(0xd209u)) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("Dropout: rate outside [0, 1)");
  }
}

const float* Dropout::forward_into(const float* in, std::size_t rows,
                                   std::size_t width, float* out) {
  if (rate_ == 0.0) return in;
  const auto keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  mask_.resize(rows * width);
  for (float& m : mask_) m = rng_.bernoulli(rate_) ? 0.0F : keep_scale;
  for (std::size_t i = 0; i < mask_.size(); ++i) out[i] = in[i] * mask_[i];
  return out;
}

const float* Dropout::backward_into(const float* /*in*/, const float* /*out*/,
                                    const float* grad_out, std::size_t rows,
                                    std::size_t width, float* grad_in) {
  if (rate_ == 0.0) return grad_out;
  for (std::size_t i = 0; i < rows * width; ++i) {
    grad_in[i] = grad_out[i] * mask_[i];
  }
  return grad_in;
}

std::string Dropout::name() const {
  return "Dropout(" + std::to_string(rate_) + ")";
}

}  // namespace soteria::nn
