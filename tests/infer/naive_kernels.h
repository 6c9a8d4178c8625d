// The naive GEMM and convolution loops the blocked kernels replaced,
// preserved verbatim as reference oracles: math::matmul / matmul_at_into
// (src/math/matrix.cpp) and nn::conv1d_infer_into (src/nn/conv1d.cpp)
// are pinned bit-identical to these by tests/infer/blocked_gemm_test,
// and bench/perf_nn times them as its before-side.
//
// Do not "improve" this file — its value is being the slow, obviously
// correct formulation. Each output cell accumulates its products in
// ascending order with the same inner statement shape as the fast
// kernels, which is why the results agree bit for bit on finite inputs.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "math/matrix.h"

namespace soteria::math {

/// i-k-j loop order: the inner loop streams over contiguous rows of B
/// and C, the cache-friendly order for row-major data.
inline Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul_reference: inner dimensions " +
                                a.shape_string() + " * " + b.shape_string());
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n, 0.0F);
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data().data() + i * n;
    const float* arow = a.data().data() + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0F) continue;
      const float* brow = b.data().data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

/// C = A^T * B, k-i-j loop order.
inline Matrix matmul_at_reference(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_at_reference: inner dimensions " +
                                a.shape_string() + "^T * " +
                                b.shape_string());
  }
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  Matrix c(m, n, 0.0F);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a.data().data() + kk * m;
    const float* brow = b.data().data() + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      if (aki == 0.0F) continue;
      float* crow = c.data().data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

}  // namespace soteria::math

namespace soteria::nn {

/// One output channel at a time; same argument contract as
/// conv1d_infer_into.
inline void conv1d_infer_reference_into(const float* in, float* out,
                                        const float* weights,
                                        const float* bias, std::size_t rows,
                                        std::size_t in_channels,
                                        std::size_t in_length,
                                        std::size_t out_channels,
                                        std::size_t kernel) noexcept {
  const std::size_t out_len = in_length - kernel + 1;
  const std::size_t w_cols = in_channels * kernel;
  const std::size_t in_cols = in_channels * in_length;
  const std::size_t out_cols = out_channels * out_len;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    float* out_row = out + r * out_cols;
    for (std::size_t o = 0; o < out_channels; ++o) {
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

}  // namespace soteria::nn
