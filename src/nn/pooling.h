// Max pooling over channel-major 1D feature maps.
#pragma once

#include <cstddef>

#include "nn/layer.h"

namespace soteria::nn {

/// Non-overlapping 1D max pooling (stride == window, the paper's s=m=2).
/// A trailing remainder shorter than the window is dropped, matching
/// Keras' MaxPooling1D.
class MaxPool1d : public Layer {
 public:
  /// Throws std::invalid_argument on zero sizes or window > in_length.
  MaxPool1d(std::size_t channels, std::size_t in_length, std::size_t window);

  const float* infer_into(const float* in, std::size_t rows,
                          std::size_t width, float* out) const override;
  /// Re-derives each window's winner from `in` and routes the window's
  /// gradient to it.
  const float* backward_into(const float* in, const float* out,
                             const float* grad_out, std::size_t rows,
                             std::size_t width, float* grad_in) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override;

  [[nodiscard]] std::size_t out_length() const noexcept {
    return in_length_ / window_;
  }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::size_t in_length() const noexcept { return in_length_; }
  [[nodiscard]] std::size_t window() const noexcept { return window_; }

 private:
  /// The one window loop: the first element seeds each window and a
  /// strictly greater one replaces it. Calls `visit(o, i)` once per
  /// window, in row, channel, window order, with the window's flat
  /// output index `o` and its winner's flat input index `i`.
  template <typename Visit>
  void pool(const float* in, std::size_t rows, Visit visit) const;

  std::size_t channels_;
  std::size_t in_length_;
  std::size_t window_;
};

}  // namespace soteria::nn
