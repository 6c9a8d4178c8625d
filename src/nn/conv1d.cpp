#include "nn/conv1d.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace soteria::nn {

Conv1d::Conv1d(std::size_t in_channels, std::size_t in_length,
               std::size_t out_channels, std::size_t kernel, math::Rng& rng)
    : in_channels_(in_channels),
      in_length_(in_length),
      out_channels_(out_channels),
      kernel_(kernel),
      weights_(out_channels, in_channels * kernel),
      bias_(1, out_channels, 0.0F),
      weight_grad_(out_channels, in_channels * kernel, 0.0F),
      bias_grad_(1, out_channels, 0.0F) {
  if (in_channels == 0 || in_length == 0 || out_channels == 0 ||
      kernel == 0) {
    throw std::invalid_argument("Conv1d: zero dimension");
  }
  if (kernel > in_length) {
    throw std::invalid_argument("Conv1d: kernel " + std::to_string(kernel) +
                                " exceeds input length " +
                                std::to_string(in_length));
  }
  const float limit =
      std::sqrt(6.0F / static_cast<float>(in_channels * kernel));
  weights_.fill_uniform(rng, -limit, limit);
}

void conv1d_infer_into(const float* in, float* out, const float* weights,
                       const float* bias, std::size_t rows,
                       std::size_t in_channels, std::size_t in_length,
                       std::size_t out_channels, std::size_t kernel) noexcept {
  const std::size_t out_len = in_length - kernel + 1;
  const std::size_t w_cols = in_channels * kernel;
  const std::size_t in_cols = in_channels * in_length;
  const std::size_t out_cols = out_channels * out_len;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    float* out_row = out + r * out_cols;
    std::size_t o = 0;
    // Output channels in pairs: each shifted input-channel load feeds
    // two accumulator streams. Per output element the accumulation
    // order (bias first, then ascending channel/tap) and the zero-tap
    // skip are exactly the reference's, so results are bit-identical.
    for (; o + 2 <= out_channels; o += 2) {
      const float* wa = weights + (o + 0) * w_cols;
      const float* wb = weights + (o + 1) * w_cols;
      float* out_a = out_row + (o + 0) * out_len;
      float* out_b = out_row + (o + 1) * out_len;
      const float ba = bias[o + 0];
      const float bb = bias[o + 1];
      for (std::size_t t = 0; t < out_len; ++t) {
        out_a[t] = ba;
        out_b[t] = bb;
      }
      for (std::size_t c = 0; c < in_channels; ++c) {
        const float* in_chan = in_row + c * in_length;
        const float* wac = wa + c * kernel;
        const float* wbc = wb + c * kernel;
        for (std::size_t k = 0; k < kernel; ++k) {
          const float wka = wac[k];
          const float wkb = wbc[k];
          const float* shifted = in_chan + k;
          if (wka != 0.0F && wkb != 0.0F) {
            for (std::size_t t = 0; t < out_len; ++t) {
              out_a[t] += wka * shifted[t];
              out_b[t] += wkb * shifted[t];
            }
          } else if (wka != 0.0F) {
            for (std::size_t t = 0; t < out_len; ++t) {
              out_a[t] += wka * shifted[t];
            }
          } else if (wkb != 0.0F) {
            for (std::size_t t = 0; t < out_len; ++t) {
              out_b[t] += wkb * shifted[t];
            }
          }
        }
      }
    }
    for (; o < out_channels; ++o) {
      const float* w = weights + o * w_cols;
      const float b = bias[o];
      float* out_chan = out_row + o * out_len;
      for (std::size_t t = 0; t < out_len; ++t) out_chan[t] = b;
      for (std::size_t c = 0; c < in_channels; ++c) {
        const float* in_chan = in_row + c * in_length;
        const float* wc = w + c * kernel;
        for (std::size_t k = 0; k < kernel; ++k) {
          const float wk = wc[k];
          if (wk == 0.0F) continue;
          const float* shifted = in_chan + k;
          for (std::size_t t = 0; t < out_len; ++t) {
            out_chan[t] += wk * shifted[t];
          }
        }
      }
    }
  }
}

const float* Conv1d::infer_into(const float* in, std::size_t rows,
                                std::size_t /*width*/, float* out) const {
  conv1d_infer_into(in, out, weights_.data().data(), bias_.data().data(),
                    rows, in_channels_, in_length_, out_channels_, kernel_);
  return out;
}

const float* Conv1d::backward_into(const float* in, const float* /*out*/,
                                   const float* grad_out, std::size_t rows,
                                   std::size_t width, float* grad_in) {
  const std::size_t out_len = out_length();
  const std::size_t out_cols = out_channels_ * out_len;
  std::fill(grad_in, grad_in + rows * width, 0.0F);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * width;
    const float* go_row = grad_out + r * out_cols;
    float* gi_row = grad_in + r * width;
    for (std::size_t o = 0; o < out_channels_; ++o) {
      const float* go_chan = go_row + o * out_len;
      float* wg = weight_grad_.data().data() + o * weight_grad_.cols();
      const float* w = weights_.data().data() + o * weights_.cols();
      float bias_acc = 0.0F;
      for (std::size_t t = 0; t < out_len; ++t) bias_acc += go_chan[t];
      bias_grad_(0, o) += bias_acc;
      for (std::size_t c = 0; c < in_channels_; ++c) {
        const float* in_chan = in_row + c * in_length_;
        float* gi_chan = gi_row + c * in_length_;
        float* wgc = wg + c * kernel_;
        const float* wc = w + c * kernel_;
        for (std::size_t k = 0; k < kernel_; ++k) {
          const float* shifted_in = in_chan + k;
          float* shifted_gi = gi_chan + k;
          const float wk = wc[k];
          float wgrad_acc = 0.0F;
          for (std::size_t t = 0; t < out_len; ++t) {
            const float g = go_chan[t];
            wgrad_acc += g * shifted_in[t];
            shifted_gi[t] += g * wk;
          }
          wgc[k] += wgrad_acc;
        }
      }
    }
  }
  return grad_in;
}

void Conv1d::collect_parameters(std::vector<ParamRef>& out) {
  out.push_back(ParamRef{&weights_, &weight_grad_});
  out.push_back(ParamRef{&bias_, &bias_grad_});
}

void Conv1d::zero_gradients() {
  weight_grad_.fill(0.0F);
  bias_grad_.fill(0.0F);
}

std::size_t Conv1d::parameter_count() const {
  return weights_.size() + bias_.size();
}

std::string Conv1d::name() const {
  return "Conv1d(" + std::to_string(in_channels_) + "x" +
         std::to_string(in_length_) + "->" + std::to_string(out_channels_) +
         ", k=" + std::to_string(kernel_) + ")";
}

std::size_t Conv1d::output_dimension(std::size_t input_dim) const {
  if (input_dim != in_channels_ * in_length_) {
    throw std::invalid_argument("Conv1d: expected input width " +
                                std::to_string(in_channels_ * in_length_) +
                                ", got " + std::to_string(input_dim));
  }
  return out_channels_ * out_length();
}

}  // namespace soteria::nn
