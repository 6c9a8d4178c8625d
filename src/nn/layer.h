// Layer abstraction for the from-scratch neural-network substrate.
//
// Layers transform batches (math::Matrix, rows = samples) and implement
// manual backpropagation: `forward` caches whatever it needs, `backward`
// consumes the loss gradient w.r.t. the layer output and returns the
// gradient w.r.t. the layer input, accumulating parameter gradients
// internally. Parameters are exposed through `ParamRef`s so optimizers
// can update them without knowing layer internals.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "math/matrix.h"

namespace soteria::nn {

/// A parameter tensor paired with its gradient accumulator. References
/// remain valid for the lifetime of the owning layer.
struct ParamRef {
  math::Matrix* value = nullptr;
  math::Matrix* grad = nullptr;
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Batch forward pass. `training` enables train-only behaviour
  /// (dropout masks). Implementations cache activations for backward
  /// and compute the output with infer_into, so training and inference
  /// share one kernel per layer.
  virtual math::Matrix forward(const math::Matrix& input, bool training) = 0;

  /// The layer's inference kernel: reads `rows` row-major rows of
  /// `width` floats from `in` and writes rows x output_dimension(width)
  /// floats to `out`, which must not alias `in`. Returns the buffer
  /// holding the result: `out`, or `in` itself for a layer that is the
  /// identity at inference (Dropout), which then costs no copy. The
  /// caller has validated `width` with output_dimension. Const and
  /// allocation-free, so concurrent calls on a shared layer are safe.
  virtual const float* infer_into(const float* in, std::size_t rows,
                                  std::size_t width, float* out) const = 0;

  /// Batch backward pass; must follow a forward with the same batch.
  /// Accumulates parameter gradients and returns d(loss)/d(input).
  virtual math::Matrix backward(const math::Matrix& grad_output) = 0;

  /// Parameter/gradient pairs (empty for stateless layers).
  virtual void collect_parameters(std::vector<ParamRef>& out) { (void)out; }

  /// Zeroes accumulated gradients.
  virtual void zero_gradients() {}

  /// Total number of scalar parameters.
  [[nodiscard]] virtual std::size_t parameter_count() const { return 0; }

  /// Diagnostic name, e.g. "Dense(500->512)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Output width for an input of width `input_dim`; lets containers
  /// validate architecture chains ahead of time. Throws
  /// std::invalid_argument if the input width is incompatible.
  [[nodiscard]] virtual std::size_t output_dimension(
      std::size_t input_dim) const = 0;
};

}  // namespace soteria::nn
