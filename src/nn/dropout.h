// Inverted dropout: active only in training, identity at inference.
#pragma once

#include <vector>

#include "math/rng.h"
#include "nn/layer.h"

namespace soteria::nn {

class Dropout : public Layer {
 public:
  /// `rate` is the drop probability in [0, 1). The layer keeps a
  /// reference-free fork of `rng`, so dropout masks are deterministic
  /// given the construction seed.
  Dropout(double rate, math::Rng& rng);

  /// Identity: dropout is inactive at inference, so this returns `in`
  /// and writes nothing.
  const float* infer_into(const float* in, std::size_t /*rows*/,
                          std::size_t /*width*/,
                          float* /*out*/) const override {
    return in;
  }
  /// Draws a fresh mask (one Bernoulli draw per element, row-major)
  /// and applies it; at rate 0 draws nothing and returns `in`.
  const float* forward_into(const float* in, std::size_t rows,
                            std::size_t width, float* out) override;
  /// Applies the last mask; at rate 0 returns `grad_out` itself.
  const float* backward_into(const float* in, const float* out,
                             const float* grad_out, std::size_t rows,
                             std::size_t width, float* grad_in) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override {
    return input_dim;
  }

  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  double rate_;
  math::Rng rng_;
  std::vector<float> mask_;  // scaled keep mask of the last forward_into
};

}  // namespace soteria::nn
