#include "nn/pooling.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace soteria::nn {

MaxPool1d::MaxPool1d(std::size_t channels, std::size_t in_length,
                     std::size_t window)
    : channels_(channels), in_length_(in_length), window_(window) {
  if (channels == 0 || in_length == 0 || window == 0) {
    throw std::invalid_argument("MaxPool1d: zero dimension");
  }
  if (window > in_length) {
    throw std::invalid_argument("MaxPool1d: window " +
                                std::to_string(window) +
                                " exceeds input length " +
                                std::to_string(in_length));
  }
}

template <typename Visit>
void MaxPool1d::pool(const float* in, std::size_t rows, Visit visit) const {
  const std::size_t out_len = out_length();
  const std::size_t in_cols = channels_ * in_length_;
  const std::size_t out_cols = channels_ * out_len;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const std::size_t in_base = r * in_cols + c * in_length_;
      const float* in_chan = in + in_base;
      const std::size_t out_base = r * out_cols + c * out_len;
      for (std::size_t t = 0; t < out_len; ++t) {
        const std::size_t start = t * window_;
        float best = in_chan[start];
        std::size_t best_idx = start;
        for (std::size_t k = 1; k < window_; ++k) {
          if (in_chan[start + k] > best) {
            best = in_chan[start + k];
            best_idx = start + k;
          }
        }
        visit(out_base + t, in_base + best_idx);
      }
    }
  }
}

const float* MaxPool1d::infer_into(const float* in, std::size_t rows,
                                   std::size_t /*width*/, float* out) const {
  pool(in, rows, [in, out](std::size_t o, std::size_t i) { out[o] = in[i]; });
  return out;
}

const float* MaxPool1d::backward_into(const float* in, const float* /*out*/,
                                      const float* grad_out, std::size_t rows,
                                      std::size_t width, float* grad_in) {
  std::fill(grad_in, grad_in + rows * width, 0.0F);
  pool(in, rows, [grad_out, grad_in](std::size_t o, std::size_t i) {
    grad_in[i] += grad_out[o];
  });
  return grad_in;
}

std::string MaxPool1d::name() const {
  return "MaxPool1d(" + std::to_string(channels_) + "x" +
         std::to_string(in_length_) + ", w=" + std::to_string(window_) + ")";
}

std::size_t MaxPool1d::output_dimension(std::size_t input_dim) const {
  if (input_dim != channels_ * in_length_) {
    throw std::invalid_argument("MaxPool1d: expected input width " +
                                std::to_string(channels_ * in_length_) +
                                ", got " + std::to_string(input_dim));
  }
  return channels_ * out_length();
}

}  // namespace soteria::nn
