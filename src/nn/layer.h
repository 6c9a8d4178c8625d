// Layer abstraction for the from-scratch neural-network substrate.
//
// Layers are raw kernels over row-major float rows (rows = samples)
// with manual backpropagation: `infer_into` computes the output and
// `backward_into` the gradients from the caller's buffers of the batch
// (Sequential owns them), so a layer copies and caches nothing; only a
// training-time random draw (Dropout's mask) outlives the forward.
// Parameters are exposed through `ParamRef`s so optimizers can update
// them without knowing layer internals.
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

  /// The layer's inference kernel: reads `rows` row-major rows of
  /// `width` floats from `in` and writes rows x output_dimension(width)
  /// floats to `out`, which must not alias `in`. Returns the buffer
  /// holding the result: `out`, or `in` itself for a layer that is the
  /// identity at inference (Dropout), which then costs no copy. The
  /// caller has validated `width` with output_dimension. Const and
  /// allocation-free, so concurrent calls on a shared layer are safe.
  virtual const float* infer_into(const float* in, std::size_t rows,
                                  std::size_t width, float* out) const = 0;

  /// Training forward with infer_into's convention. Only a layer with
  /// a training-time random draw overrides it (Dropout's mask).
  virtual const float* forward_into(const float* in, std::size_t rows,
                                    std::size_t width, float* out) {
    return infer_into(in, rows, width, out);
  }

  /// Backward pass for the last forward_into's batch: `in` and `out`
  /// are its input and result, `grad_out` is d(loss)/d(out). Adds to
  /// the parameter gradients and returns the buffer holding
  /// d(loss)/d(in) (rows x width): `grad_in`, which aliases no other
  /// argument, or `grad_out` itself for a pass-through layer.
  virtual const float* backward_into(const float* in, const float* out,
                                     const float* grad_out, std::size_t rows,
                                     std::size_t width, float* grad_in) = 0;

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
